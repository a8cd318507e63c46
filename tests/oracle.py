"""Brute-force colorings: the reference the solver is tested against.

``colorings`` sweeps every assignment of the arcs that are not pinned, in
vectorized chunks, and keeps those that satisfy every relation.  It is
exponential in the number of free arcs, so it refuses more than MAX_FREE.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from biqknot.coloring import ClassicalRelation, build_constraints
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
