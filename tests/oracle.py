"""Slow, plain references the program is tested against.

``colorings`` sweeps every assignment of the arcs that are not pinned, in
vectorized chunks, and keeps those that satisfy every relation.  It is
exponential in the number of free arcs, so it refuses more than MAX_FREE.

``parse_diagram``, ``arcs``, ``classify`` and ``build_constraints`` are
the diagram front end as it was written before it was tuned: a scan that
keeps every token's offset, one walk per derived map, and relations built
by keyword.  They return plain data (name and passes; steps, arc count and
over-arc map; relations), so no check of the tuned code runs inside them.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from biqknot.coloring import (ClassicalRelation, HasVirtualPasses,
                              VirtualRelation, build_constraints)
from biqknot.diagram import (CrossingClass, DiagramSyntaxError, PairingError,
                             Pass, PassKind, _tokenize)
from biqknot.torus_group import ALL_ELEMENTS, ORDER, GroupElement, _index

MAX_FREE = 4
_CHUNK = 1 << 20


def colorings(d, bq, start: GroupElement, end: Optional[GroupElement] = None,
              quandle_only: bool = False) -> Tuple[Tuple[GroupElement, ...], ...]:
    """Every coloring of ``d`` from ``start`` (to ``end``), sorted like
    ``solve(...).colorings``."""
    cs = build_constraints(d, bq, quandle_only=quandle_only)
    ft = bq.f.table if bq.f is not None else None
    tables = {"circ": bq.circ_table, "star": bq.star_table}
    m = cs.arc_count
    pinned: Dict[int, int] = {1: _index(*start)}
    if end is not None:
        if m == 1:
            if _index(*end) != pinned[1]:
                return ()
        else:
            pinned[m] = _index(*end)
    free = [a for a in range(1, m + 1) if a not in pinned]
    if len(free) > MAX_FREE:
        raise ValueError(
            f"the oracle sweeps at most {MAX_FREE} free arcs, "
            f"diagram needs {len(free)}")

    total = ORDER ** len(free)
    sols: List[Tuple[int, ...]] = []
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        block = np.arange(lo, hi, dtype=np.int64)
        cols: Dict[int, np.ndarray] = {
            a: np.full(hi - lo, v, dtype=np.int64) for a, v in pinned.items()
        }
        for pos, a in enumerate(free):
            cols[a] = (block // (ORDER ** pos)) % ORDER
        mask = np.ones(hi - lo, dtype=bool)
        for r in cs.relations:
            if isinstance(r, ClassicalRelation):
                mask &= (tables[r.op][cols[r.in_arc], cols[r.over_arc]]
                         == cols[r.out_arc])
            elif r.direction == "fwd":
                mask &= ft[cols[r.in_arc]] == cols[r.out_arc]
            else:
                mask &= ft[cols[r.out_arc]] == cols[r.in_arc]
        for row in np.nonzero(mask)[0]:
            sols.append(tuple(int(cols[a][row]) for a in range(1, m + 1)))
    return tuple(tuple(ALL_ELEMENTS[i] for i in sol) for sol in sorted(set(sols)))


# -- diagram front end ------------------------------------------------------------


def parse_diagram(text: str) -> Tuple[str, Tuple[Pass, ...]]:
    stripped = []
    for line in text.splitlines(keepends=True):
        body = line.split("#", 1)[0]
        # keep byte offsets stable: pad stripped comments with spaces
        stripped.append(body + " " * (len(line) - len(body)))
    flat = "".join(stripped)

    tokens = _tokenize(flat)
    if not tokens or tokens[0][0] != "longknot":
        pos = tokens[0][1] if tokens else 0
        raise DiagramSyntaxError("expected header 'longknot <name>'", pos)
    if len(tokens) < 2:
        raise DiagramSyntaxError("missing diagram name", len(flat))
    name = tokens[1][0]
    passes = tuple(_parse_pass(tok, pos) for tok, pos in tokens[2:])
    check_pairing(passes)
    return name, passes


def _parse_pass(tok: str, pos: int) -> Pass:
    head = tok[0].upper()
    if head not in ("O", "U", "V"):
        raise DiagramSyntaxError(f"unknown pass token {tok!r}", pos)
    if head == "V":
        cid = tok[1:]
        if not cid or not cid.isalnum():
            raise DiagramSyntaxError(f"bad virtual token {tok!r}", pos)
        return Pass(PassKind.VIRTUAL, cid, None)
    if len(tok) < 3 or tok[-1] not in "+-":
        raise DiagramSyntaxError(
            f"classical token {tok!r} needs a trailing sign", pos)
    cid = tok[1:-1]
    if not cid or not cid.isalnum():
        raise DiagramSyntaxError(f"bad crossing id in {tok!r}", pos)
    kind = PassKind.OVER if head == "O" else PassKind.UNDER
    return Pass(kind, cid, tok[-1])


def check_pairing(passes: Tuple[Pass, ...]) -> None:
    overs: Dict[str, Pass] = {}
    unders: Dict[str, Pass] = {}
    virtuals: Dict[str, int] = {}
    for p in passes:
        if p.kind is PassKind.VIRTUAL:
            virtuals[p.crossing_id] = virtuals.get(p.crossing_id, 0) + 1
            if virtuals[p.crossing_id] > 2:
                raise PairingError(
                    f"virtual crossing {p.crossing_id!r} passed more than twice")
        elif p.kind is PassKind.OVER:
            if p.crossing_id in overs:
                raise PairingError(
                    f"crossing {p.crossing_id!r} has two over passes")
            overs[p.crossing_id] = p
        else:
            if p.crossing_id in unders:
                raise PairingError(
                    f"crossing {p.crossing_id!r} has two under passes")
            unders[p.crossing_id] = p
    if set(overs) != set(unders):
        lonely = sorted(set(overs) ^ set(unders))
        raise PairingError(
            f"classical crossing(s) missing an over or under pass: {lonely}")
    for cid, po in overs.items():
        if po.sign != unders[cid].sign:
            raise PairingError(
                f"crossing {cid!r} has mismatched signs "
                f"{po.sign!r} vs {unders[cid].sign!r}")
    half = [cid for cid, cnt in virtuals.items() if cnt != 2]
    if half:
        raise PairingError(
            f"virtual crossing(s) not passed exactly twice: {sorted(half)}")


def classify(d) -> Dict[str, CrossingClass]:
    out: Dict[str, CrossingClass] = {}
    for p in d.passes:
        if p.kind is PassKind.VIRTUAL or p.crossing_id in out:
            continue
        out[p.crossing_id] = (CrossingClass.EARLY_OVER
                              if p.kind is PassKind.OVER
                              else CrossingClass.EARLY_UNDER)
    return out


def arcs(d) -> Tuple[Tuple[Tuple[Pass, int, int], ...], int, Dict[str, int]]:
    """Each pass with its incoming and outgoing arc (equal for an over
    pass), the arc count, and each crossing's over arc."""
    arc = 1
    steps = []
    for p in d.passes:
        if p.kind is PassKind.OVER:
            steps.append((p, arc, arc))
        else:
            steps.append((p, arc, arc + 1))
            arc += 1
    over_arcs = {p.crossing_id: incoming
                 for p, incoming, _ in reversed(steps)
                 if p.kind is PassKind.OVER}
    return tuple(steps), arc, over_arcs


def constraints(d, quandle_only: bool = False) -> Tuple[list, int]:
    """The relations and the arc count (the f check is left out)."""
    if quandle_only and d.has_virtual():
        raise HasVirtualPasses(d.name)
    cls = classify(d)
    steps, arc_count, over_arcs = arcs(d)
    relations = []
    visits: Dict[str, int] = {}
    for p, in_arc, out_arc in steps:
        if p.kind is PassKind.UNDER:
            if quandle_only:
                op = "circ"
            else:
                op = ("circ" if cls[p.crossing_id] is CrossingClass.EARLY_OVER
                      else "star")
            relations.append(ClassicalRelation(
                crossing_id=p.crossing_id, op=op,
                in_arc=in_arc, out_arc=out_arc,
                over_arc=over_arcs[p.crossing_id]))
        elif p.kind is PassKind.VIRTUAL:
            visit = visits.get(p.crossing_id, 0) + 1
            visits[p.crossing_id] = visit
            relations.append(VirtualRelation(
                crossing_id=p.crossing_id, visit=visit,
                direction="inv" if visit == 1 else "fwd",
                in_arc=in_arc, out_arc=out_arc))
    return relations, arc_count
