"""Command-line front end.

Subcommands::

    biqknot group eval "<word>"        normal form of a group word
    biqknot group center               the exhaustively computed center
    biqknot group table                the full 64x64 multiplication table
    biqknot group parity-table         the parity-class sweep of w y^2 w^-1 y^-2
    biqknot group calibrate            the frozen convention and all matches
    biqknot audit [--n N] [--f ...]    full biquandle axiom report
    biqknot color <diagram> --start W [--end W]
    biqknot distinguish <d1> <d2> --start W

Diagrams are file paths or builtin:right-trefoil / builtin:left-trefoil.
Only ``group calibrate`` builds both seam models and reports all 16
conventions.
Exit status: 0 success, 1 audit failure, 2 usage or parse error,
3 internal error (an unexpected exception, reported without traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Tuple

from . import biquandle as bq_mod
from . import coloring as col_mod
from .diagram import LongDiagram, builtin_trefoil, parse_diagram
from .group_words import WordSyntaxError, eval_text, format_normal
from .torus_group import (ALL_ELEMENTS, GroupElement, NoConventionMatches,
                          TorusGroup, build_default_group, calibrate_convention)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="biqknot")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("group", help="group construction and arithmetic")
    gsub = grp.add_subparsers(dest="group_command", required=True)
    p_eval = gsub.add_parser("eval")
    p_eval.add_argument("word")
    gsub.add_parser("center")
    gsub.add_parser("table")
    gsub.add_parser("parity-table")
    gsub.add_parser("calibrate")

    aud = sub.add_parser("audit", help="exhaustive biquandle axiom audit")
    aud.add_argument("--n", type=int, default=2, dest="n_twist")
    aud.add_argument("--f", default=None, dest="f_spec",
                     help="substitution | shear | table:<file> "
                          "(default: the calibrated candidate)")

    col = sub.add_parser("color", help="enumerate colorings of a diagram")
    col.add_argument("diagram")
    col.add_argument("--start", required=True)
    col.add_argument("--end", default=None)

    dis = sub.add_parser("distinguish", help="compare two diagrams")
    dis.add_argument("diagram1")
    dis.add_argument("diagram2")
    dis.add_argument("--start", required=True)
    return top


def _load_diagram(spec: str) -> LongDiagram:
    if spec == "builtin:right-trefoil":
        return builtin_trefoil("right")
    if spec == "builtin:left-trefoil":
        return builtin_trefoil("left")
    with open(spec, "r", encoding="utf-8-sig") as fh:
        return parse_diagram(fh.read())


def _load_f(group: TorusGroup, spec: Optional[str],
            n_twist: int) -> bq_mod.FCandidate:
    if spec is None:
        return col_mod.select_f_candidate(group, n_twist)
    if spec == "substitution":
        return bq_mod.make_f(group, bq_mod.FKind.SUBSTITUTION)
    if spec == "shear":
        return bq_mod.make_f(group, bq_mod.FKind.SHEAR)
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        mapping = {}
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    src, dst = _f_table_pair(line, group)
                except ValueError as exc:
                    raise ValueError(f"f-table line {lineno}: {exc}") from None
                if src in mapping:
                    raise ValueError(
                        f"f-table line {lineno} maps {format_normal(src)} "
                        "again; each source may be listed once")
                mapping[src] = dst
        return bq_mod.make_f(group, bq_mod.FKind.TABLE, table=mapping,
                             name=f"table:{path}")
    raise ValueError(f"unknown f candidate {spec!r}")


def _f_table_pair(line: str, group: TorusGroup) -> Tuple[GroupElement, ...]:
    """The source and image of one f-table line; a word error names its
    half."""
    halves = line.split(" to ", 1) if " to " in line else _split_pair(line)
    pair = []
    for half, text in zip(("source", "image"), halves):
        try:
            pair.append(eval_text(text, group))
        except WordSyntaxError as exc:
            raise ValueError(f"{half} {text!r}: {exc}") from None
    return tuple(pair)


def _split_pair(line: str):
    # "from to" with words that may contain spaces: split at the first
    # tab, else at the first two spaces, else the line must be exactly
    # two whitespace-separated parts.
    if "\t" in line:
        left, right = line.split("\t", 1)
        return left.strip(), right.strip()
    if "  " in line:
        left, right = line.split("  ", 1)
        return left.strip(), right.strip()
    parts = line.split()
    if len(parts) == 2:
        return parts[0], parts[1]
    raise ValueError(
        f"cannot split {line!r}; separate the two normal "
        "forms with a tab or two spaces")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, bq_mod.MissingF, NoConventionMatches) as exc:
        # ValueError covers WordSyntaxError, DiagramSyntaxError, PairingError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "audit failed", so never that
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _emit(group: Optional[TorusGroup], as_json: bool, payload: Dict,
          text: str) -> None:
    """Print one result, stamped with the group's convention: a header line
    above the text, or a JSON key after the payload's own keys (unless the
    payload already places it).  Without a group there is no stamp."""
    if group is None:
        print(json.dumps(payload) if as_json else text)
    elif as_json:
        payload.setdefault("convention", group.convention.describe())
        print(json.dumps(payload))
    else:
        print(f"convention: {group.convention.describe()}")
        print(text)


def _dispatch(args) -> int:
    group = build_default_group()
    as_json = args.format == "json"

    if args.command == "group":
        if args.group_command == "calibrate":
            calibration = calibrate_convention()
            frozen = calibration.convention.describe()
            matches = [c.describe() for c in calibration.matches]
            _emit(None, as_json, {"frozen": frozen, "matches": matches},
                  "\n".join([f"frozen convention: {frozen}",
                             f"matching variants ({len(matches)}):",
                             *(f"  {m}" for m in matches)]))
        else:
            _emit(group, as_json, *_group_report(args, group))
        return 0
    if args.command == "audit":
        cand = _load_f(group, args.f_spec, args.n_twist)
        bq = bq_mod.Biquandle(group, args.n_twist).attach_f(cand)
        report = bq_mod.audit(bq)
        _emit(group, as_json, report.to_json(),
              f"n = {args.n_twist}, f = {cand.summary()}\n{report.to_text()}")
        return 0 if report.passed else 1
    if args.command == "color":
        d = _load_diagram(args.diagram)
        bq = col_mod.calibrated_biquandle(group)
        start = eval_text(args.start, group)
        end = eval_text(args.end, group) if args.end is not None else None
        result = col_mod.solve(d, bq, start, end=end)
    else:
        d1 = _load_diagram(args.diagram1)
        d2 = _load_diagram(args.diagram2)
        bq = col_mod.calibrated_biquandle(group)
        result = col_mod.distinguish(d1, d2, bq, eval_text(args.start, group))
    _emit(group, as_json, result.to_json(), result.to_text())
    return 0


def _group_report(args, group: TorusGroup) -> Tuple[Dict, str]:
    """JSON payload (convention first) and text of a ``group`` subcommand."""
    head = {"convention": group.convention.describe()}
    cmd = args.group_command
    if cmd == "eval":
        value = format_normal(eval_text(args.word, group))
        return {**head, "word": args.word, "normal_form": value}, value
    if cmd == "center":
        members = [format_normal(g) for g in sorted(group.center())]
        return {**head, "center": members}, "\n".join(members)
    if cmd == "table":
        names = [format_normal(g) for g in ALL_ELEMENTS]
        rows = [[names[i] for i in row] for row in group.mul_table.tolist()]
        return ({**head, "table": {g: dict(zip(names, row))
                                   for g, row in zip(names, rows)}},
                "\n".join(f"{g} : {' | '.join(row)}"
                          for g, row in zip(names, rows)))
    rep = group.parity_table()
    classes = {str(key): sorted(format_normal(g) for g in vals)
               for key, vals in sorted(rep.values.items())}
    payload = {
        **head,
        "all_constant": rep.all_constant,
        "all_central": rep.all_central,
        "has_nontrivial": rep.has_nontrivial,
        "classes": classes,
        "mismatches": [
            {"class": str(k), "found": sorted(format_normal(g) for g in v),
             "stated": format_normal(s)}
            for k, v, s in rep.mismatches],
    }
    return payload, "\n".join([
        "parity (i, j, k, l) -> values of w y^2 w^-1 y^-2",
        *(f"  {key}: {', '.join(vals)}" for key, vals in classes.items()),
        f"all classes constant: {rep.all_constant}",
        f"all values central:   {rep.all_central}",
        f"nontrivial value:     {rep.has_nontrivial}",
        f"mismatches vs stated pattern: {len(rep.mismatches)}"])


if __name__ == "__main__":
    sys.exit(main())
