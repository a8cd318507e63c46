"""Checks of biqknot's outputs against the reference arithmetic.

Each function takes the generated operations and the program's outputs
(None for an operation that failed) and returns a list of problems; an
empty list means every output is correct.  No check compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference as ref

# The program's calibrated biquandle: twist n = 2 and the calibrated f.
_OPS = ref.operations(2)
_F = ref.calibrated_f()
CHAIN = tuple(ref.fmt(x) for x in ref.reference_chain())


def _verify_coloring_set(tokens, side: Dict, expected, label: str) -> List[str]:
    """A distinguish side: relations hold, and count/ends match the references."""
    problems = []
    rels, m = ref.relations(tokens)
    cols = np.zeros((len(side["colorings"]), m + 1), dtype=np.int64)
    if side["colorings"]:
        cols[:, 1:] = side["colorings"]
    if not ref.satisfied(rels, _OPS, _F, cols).all():
        problems.append(f"{label}: a returned coloring breaks a relation")
    if (cols[:, 1] != ref.A).any():
        problems.append(f"{label}: a coloring does not start at a")
    count, ends = expected
    if (side["count"], side["ends"]) != (count, ends) or side["count"] != len(cols):
        problems.append(f"{label}: count/ends {side['count']}/{side['ends']} "
                        f"!= traversal reference {count}/{ends}")
    brute = ref.brute_force(rels, m, ref.A, _OPS, _F)
    if brute is not None and brute != (side["count"], frozenset(side["ends"])):
        problems.append(f"{label}: count/ends differ from the brute-force sweep")
    return problems


def distinguish_random(ops: List[Dict], outputs: List[Optional[Dict]]) -> List[str]:
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        for side, tokens, expected, tag in zip(out["sides"], op["tokens"],
                                              op["expected"], ("d", "d'")):
            problems += _verify_coloring_set(tokens, side, expected, f"op {i} {tag}")
        a, b = out["sides"]
        differ = a["count"] != b["count"] or a["ends"] != b["ends"]
        if (out["verdict"] == "DISTINGUISHED") != differ:
            problems.append(f"op {i}: verdict {out['verdict']} but counts/ends "
                            f"{'differ' if differ else 'agree'}")
    return problems


def fold_chain(tokens, start: int) -> List[int]:
    """Arc colors of an all-early-over chain, folded arc by arc with circ."""
    rels, m = ref.relations(tokens)
    circ = _OPS["circ"]
    arcs = [0, start] + [None] * (m - 1)
    for _, op, i, o, ov in rels:
        if op != "circ":
            raise ValueError("chain is not all early-over")
        arcs[o] = int(circ[arcs[i], arcs[ov]])
    return arcs[1:]


def solve_long(ops: List[Dict], outputs: List[Optional[Dict]]) -> List[str]:
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        want = fold_chain(op["tokens"], op["start"])
        if out["count"] != 1 or out["colorings"] != [want]:
            problems.append(f"op {i}: expected exactly the folded coloring, "
                            f"got {out['count']} coloring(s)")
    return problems


def _violates(axiom: str, cx: Dict[str, int]) -> bool:
    """True when the counterexample really breaks the named axiom."""
    t, f = _OPS, _F
    parts = axiom.split("-")
    if axiom.startswith("idempotence-"):
        return t[parts[1]][cx["x"], cx["x"]] != cx["x"]
    if axiom.startswith("right-invert-"):
        op, x, y = parts[2], cx["x"], cx["y"]
        div = t[op + "_div"]
        if axiom.endswith("after"):
            return div[t[op][x, y], y] != x
        return t[op][div[x, y], y] != x
    if axiom.startswith("self-distributivity-"):
        dia, bullet = parts[2], parts[4]
        a, b, c = cx["a"], cx["b"], cx["c"]
        td, tb = t[dia], t[bullet]
        return tb[td[a, b], c] != td[tb[a, c], tb[b, c]]
    if axiom.startswith("f-equivariance-"):
        op, a, b = t[parts[2]], cx["a"], cx["b"]
        return f[op[a, b]] != op[f[a], f[b]]
    if axiom == "f-roundtrip":
        return cx["x"] != cx["y"] and f[cx["x"]] == f[cx["y"]]
    if axiom.startswith("strange-"):
        td = t[parts[2]]
        x, a, b = cx["x"], cx["a"], cx["b"]
        left, right = (("circ", "star") if parts[1] == "I"
                       else ("circ_div", "star_div"))
        return td[x, t[left][a, b]] != td[x, t[right][a, b]]
    raise ValueError(f"unknown axiom {axiom!r}")


@functools.lru_cache(maxsize=None)
def _reference_verdicts() -> Dict[str, bool]:
    """f-equivariance and strange-relation verdicts swept over the full domain."""
    t, f = _OPS, _F
    out = {}
    for op in ("circ", "star"):
        out[f"f-equivariance-{op}"] = bool((f[t[op]] == t[op][f[:, None], f[None, :]]).all())
    for dia in ("circ", "star", "circ_div", "star_div"):
        td = t[dia]
        for roman, left, right in (("I", "circ", "star"), ("II", "circ_div", "star_div")):
            out[f"strange-{roman}-{dia}"] = bool(
                (td[:, t[left]] == td[:, t[right]]).all())
    return out


_ALWAYS_PASS = re.compile(r"^(idempotence|right-invert|self-distributivity)-")


def audit_report(axioms: Dict[str, Tuple[bool, Optional[Dict[str, str]]]],
                 label: str) -> List[str]:
    """Problems with an audit of the calibrated biquandle, given as
    axiom id -> (passed, counterexample as normal-form strings)."""
    problems = []
    always = [aid for aid in axioms if _ALWAYS_PASS.match(aid)]
    if len(always) != 22 or sum(a.startswith("self-distributivity-") for a in always) != 16:
        problems.append(f"{label}: expected 22 idempotence/right-invert/self-distributivity "
                        "verdicts, 16 of them self-distributivity")
    bijective = ref.is_bijective(_F)
    if bijective:
        problems.append("reference: the calibrated f is injective, so f-roundtrip "
                        "should pass")
    if "f-roundtrip" not in axioms:
        problems.append(f"{label}: no f-roundtrip verdict")
    reference = _reference_verdicts()
    for aid, (passed, cx) in axioms.items():
        if _ALWAYS_PASS.match(aid) and not passed:
            problems.append(f"{label}: {aid} FAIL, but conjugation by a power is "
                            "an automorphism")
        if aid == "f-roundtrip" and passed != bijective:
            problems.append(f"{label}: f-roundtrip {passed} but f bijective is {bijective}")
        if aid in reference and passed != reference[aid]:
            problems.append(f"{label}: {aid} {passed} but the reference "
                            f"sweep says {reference[aid]}")
        if not passed:
            parsed = {k: ref.parse_normal(v) for k, v in (cx or {}).items()}
            if not parsed or not _violates(aid, parsed):
                problems.append(f"{label}: {aid} counterexample {cx} "
                                "does not violate the axiom")
    return problems


# -- cli-cold ---------------------------------------------------------------------

_COLORING_LINE = re.compile(r"^coloring \d+: \((.*)\)$")


def _colorings_from(stdout: str, as_json: bool):
    if as_json:
        data = json.loads(stdout)
        return data["count"], [tuple(c) for c in data["colorings"]]
    count = None
    cols = []
    for line in stdout.splitlines():
        if line.startswith("count:"):
            count = int(line.split(":", 1)[1])
        m = _COLORING_LINE.match(line)
        if m:
            cols.append(tuple(p.strip() for p in m.group(1).split(",")))
    return count, cols


_AUDIT_LINE = re.compile(r"^(\S+) domain=\d+ (PASS|FAIL)(?: \[(.*)\])?$")


def _audit_lines(stdout: str) -> Dict[str, Tuple[bool, Optional[Dict[str, str]]]]:
    """Verdict lines of a text audit: id -> (passed, counterexample or None)."""
    axioms = {}
    for line in stdout.splitlines():
        m = _AUDIT_LINE.match(line)
        if m:
            cx = (dict(part.split("=", 1) for part in m.group(3).split(", "))
                  if m.group(3) else None)
            axioms[m.group(1)] = (m.group(2) == "PASS", cx)
    return axioms


def cli_failures(ops: List[Dict], outputs: List[Optional[Dict]]) -> List[list]:
    """[index, reason] of each command that timed out or exited other than
    documented (1 for ``audit``, which reports a failing axiom; 0 otherwise).
    Their outputs are set to None, so only commands that ran are checked."""
    errors = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        want = 1 if op["check"] == "audit" else 0
        if out is None or out["code"] != want:
            errors.append([i, "timeout" if out is None else f"exit {out['code']}, expected {want}"])
            outputs[i] = None
    return errors


def cli_output(op: Dict, out: Dict) -> List[str]:
    """Problems with the output of one command that exited as documented."""
    argv, stdout = op["argv"], out["stdout"]
    as_json = argv[:2] == ["--format", "json"]
    kind = op["check"]
    if kind == "eval":
        got = (json.loads(stdout)["normal_form"] if as_json
               else stdout.splitlines()[1].strip())
        return [] if got == ref.fmt(op["value"]) else [
            f"{argv}: printed {got!r}, closed form gives {ref.fmt(op['value'])!r}"]
    if kind == "right":
        _, cols = _colorings_from(stdout, as_json)
        return [] if CHAIN in cols else [f"{argv}: reference chain not listed"]
    if kind == "left-pinned":
        count, cols = _colorings_from(stdout, as_json)
        return [] if count == 0 and not cols else [f"{argv}: count {count}, expected 0"]
    if kind == "distinguish":
        verdicts = [l for l in stdout.splitlines() if l.startswith("verdict:")]
        return ([] if verdicts and verdicts[0].startswith("verdict: DISTINGUISHED") else
                [f"{argv}: verdict is not DISTINGUISHED"])
    if kind == "audit":
        return audit_report(_audit_lines(stdout), " ".join(argv))
    if kind == "file":
        count, cols = _colorings_from(stdout, as_json)
        want = sorted(tuple(ref.fmt(x) for x in row) for row in op["colorings"])
        return [] if count == len(want) and sorted(cols) == want else [
            f"{argv}: colorings differ from the traversal reference"]
    raise ValueError(f"unknown check {kind!r}")


def cli_cold(ops: List[Dict], outputs: List[Optional[Dict]]) -> List[str]:
    problems = []
    for op, out in zip(ops, outputs):
        if out is not None:
            problems += cli_output(op, out)
    return problems
