"""Crossing constraints, coloring search, and the end-color invariant.

A coloring assigns a carrier element to every arc so that each classical
crossing satisfies out = in <op> over (with <op> chosen by the crossing's
early-over / early-under class) and each virtual pass applies the f map:
the first visit to a virtual crossing pulls back through f, the second
pushes forward.  Those direction choices, like the builtin diagrams,
were calibrated once against the reference trefoil chain and frozen.

One iterative solver finds every coloring.  It plans the relations once,
from which arcs are known: checks, ``circ``/``star`` forward, the right
division backward and f forward come first; when none applies, one
relation branches through a precomputed index (f preimages, or every
over-arc color y with t[x, y] = z), and guessing all 64 colors of an
over arc is the last resort.  While the only partial coloring is the
pinned one, the planner folds each deterministic step: it evaluates the
step on Python ints instead of emitting it, so a chain that never
branches costs no numpy call.  From the first branch on, the plan runs
on per-arc integer columns over all partial colorings at once, in
pieces of at most ROW_CAP rows.  A brute-force sweep in the tests is
its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .biquandle import (Biquandle, FCandidate, FKind, MissingF,
                        _audit_candidate, make_f)
from .diagram import (CrossingClass, LongDiagram, PassKind, arcs,
                      builtin_trefoil)
from .group_words import eval_text, format_normal
from .torus_group import (ALL_ELEMENTS, ORDER, GroupElement, TorusGroup,
                          _index)


_UNDER, _VIRTUAL = PassKind.UNDER, PassKind.VIRTUAL
_EARLY_OVER = CrossingClass.EARLY_OVER


class HasVirtualPasses(Exception):
    """Classical-only mode was asked to color a diagram with virtual passes."""


# Not frozen: a frozen slots dataclass costs ~4x as much to build, and a
# long chain builds one relation per crossing.  Treat them as immutable.
@dataclass(slots=True, unsafe_hash=True)
class ClassicalRelation:
    crossing_id: str
    op: str                  # 'circ' or 'star'
    in_arc: int
    out_arc: int
    over_arc: int


@dataclass(slots=True, unsafe_hash=True)
class VirtualRelation:
    crossing_id: str
    visit: int               # 1 or 2, in traversal order
    direction: str           # 'inv' (f(out) = in) or 'fwd' (f(in) = out)
    in_arc: int
    out_arc: int


Relation = Union[ClassicalRelation, VirtualRelation]


@dataclass(frozen=True)
class ConstraintSet:
    relations: Tuple[Relation, ...]
    arc_count: int


def build_constraints(d: LongDiagram, bq: Biquandle,
                      quandle_only: bool = False) -> ConstraintSet:
    """One relation per classical crossing and per virtual pass.

    quandle_only is the classical quandle mode: 'circ' at every classical
    crossing, whatever its class, and no virtual passes allowed.
    """
    assignment = arcs(d)
    classes, over_arcs = assignment.classes, assignment.over_arcs
    passes = d.passes
    # every classical crossing has two passes; the rest are virtual
    has_virtual = len(passes) > 2 * len(classes)
    if quandle_only and has_virtual:
        raise HasVirtualPasses(
            f"diagram {d.name!r} has virtual passes; classical mode "
            "colors classical diagrams only")
    if has_virtual and bq.f is None:
        raise MissingF(
            f"diagram {d.name!r} has virtual passes but the biquandle has "
            "no f candidate attached")
    early_under_op = "circ" if quandle_only else "star"
    relations: List[Relation] = []
    append = relations.append
    visited = set()
    # the k-th under or virtual pass runs from arc k to arc k + 1
    arc = 1
    for kind, cid, _ in passes:
        if kind is _UNDER:
            # an identity test: Enum.__hash__ runs in Python
            op = "circ" if classes[cid] is _EARLY_OVER else early_under_op
            append(ClassicalRelation(cid, op, arc, arc + 1, over_arcs[cid]))
            arc += 1
        elif kind is _VIRTUAL:
            if cid in visited:
                append(VirtualRelation(cid, 2, "fwd", arc, arc + 1))
            else:
                visited.add(cid)
                append(VirtualRelation(cid, 1, "inv", arc, arc + 1))
            arc += 1
    return ConstraintSet(relations=tuple(relations),
                         arc_count=assignment.arc_count)


Coloring = Tuple[GroupElement, ...]


@dataclass(frozen=True)
class InvariantResult:
    diagram_name: str
    start_color: GroupElement
    end_pin: Optional[GroupElement]
    colorings: Tuple[Coloring, ...]
    end_colors: FrozenSet[GroupElement]
    count: int
    f_summary: Optional[str]

    def to_text(self) -> str:
        lines = [f"diagram: {self.diagram_name}",
                 f"start:   {format_normal(self.start_color)}"]
        if self.end_pin is not None:
            lines.append(f"end pin: {format_normal(self.end_pin)}")
        if self.f_summary:
            lines.append(f"f:       {self.f_summary}")
        lines.append(f"count:   {self.count}")
        ends = ", ".join(sorted(format_normal(g) for g in self.end_colors))
        lines.append(f"ends:    {{{ends}}}")
        for i, col in enumerate(self.colorings, 1):
            vals = ", ".join(format_normal(g) for g in col)
            lines.append(f"coloring {i}: ({vals})")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "diagram": self.diagram_name,
            "start": format_normal(self.start_color),
            "end_pin": (format_normal(self.end_pin)
                        if self.end_pin is not None else None),
            "count": self.count,
            "end_colors": sorted(format_normal(g) for g in self.end_colors),
            "colorings": [[format_normal(g) for g in col]
                          for col in self.colorings],
            "f": self.f_summary,
        }


# -- frontier solver -------------------------------------------------------------

# No expansion makes more than ROW_CAP rows: its input is halved first, and
# the halves wait on an explicit stack, to be halved again if still too
# large.  (A single row's fan-out, at most 64, is the unit when ROW_CAP is
# smaller.)
ROW_CAP = 1 << 14

# Plan steps, over per-arc columns of all rows:
#   (_SET2, target, t, x, y)       target = t[x, y]
#   (_SET1, target, t, x)          target = t[x]
#   (_CHECK2, t, x, y, z)          keep rows with t[x, y] == z
#   (_CHECK1, t, x, z)             keep rows with t[x] == z
#   (_EXPAND, target, index, x, y) target in row x * 64 + y (or x) of a CSR
#                                  index; x None: every color
_SET2, _SET1, _CHECK2, _CHECK1, _EXPAND = range(5)
_COLUMN = -1    # _plan's mark of an arc known as a column, not one color
_ALL_COLORS = (np.array([0, ORDER], dtype=np.intp),
               np.arange(ORDER, dtype=np.intp))


def _equations(cs: ConstraintSet, bq: Biquandle) -> List[tuple]:
    """Each relation as t[x, y] = z: (x, y, z, op) for a classical
    crossing, (x, None, z, None) for f(x) = z at a virtual pass."""
    eqs = []
    for r in cs.relations:
        if isinstance(r, ClassicalRelation):
            eqs.append((r.in_arc, r.over_arc, r.out_arc, r.op))
        elif bq.f is None:
            raise MissingF("constraints contain virtual relations but no f is attached")
        elif r.direction == "fwd":
            eqs.append((r.in_arc, None, r.out_arc, None))
        else:
            eqs.append((r.out_arc, None, r.in_arc, None))
    return eqs


def _plan(cs: ConstraintSet, bq: Biquandle, pins: Dict[int, Sequence[int]],
          ) -> Optional[Tuple[Optional[List[tuple]], list]]:
    """Order the relations into steps, from which arcs are known, folding
    the steps of a one-row frontier.

    ``pins`` maps each pinned arc to its start column, a sequence of
    colors.  Passes over the pending relations, alternately forward and
    backward, take every deterministic step: a check, ``circ``/``star``
    forward, the right division backward, f forward.  Only when a pass
    finds none does one relation branch, through a CSR index if one
    applies, else by guessing all 64 colors of an over arc.

    While every start column has one row, a deterministic step is folded:
    evaluated here on Python ints, not emitted.  A folded check that
    fails means no coloring: the result is None.  Folding stops for good
    at the first branch, where the folded arcs become 1-row start
    columns.  Returns the steps and their per-arc start columns (None
    where unknown), or (None, row) when every relation folded into one
    row of colors (row[0] unused).
    """
    fold = all(len(c) == 1 for c in pins.values())
    # val[a]: arc a's color while folding; afterwards, only whether it
    # is None (arc a unknown) counts
    val: List[Optional[int]] = [None] * (cs.arc_count + 1)
    first: List[Optional[np.ndarray]] = [None] * (cs.arc_count + 1)
    for a, c in pins.items():
        val[a] = c[0]
        if not fold:
            first[a] = np.asarray(c, dtype=np.intp)
    # (numpy table for steps, flat copy for folding)
    flat = bq.flat_table
    tables = {"circ": ((bq.circ_table, flat("circ")),
                       (bq.circ_div_table, flat("circ_div"))),
              "star": ((bq.star_table, flat("star")),
                       (bq.star_div_table, flat("star_div")))}
    ft = (bq.f.table, bq.f.flat_table()) if bq.f is not None else None
    steps: List[tuple] = []
    pending = _equations(cs, bq)
    forward = True
    while pending:
        rest = []
        for eq in (pending if forward else reversed(pending)):
            x, y, z, op = eq
            if op is None:
                if val[x] is None:
                    rest.append(eq)
                    continue
                t = ft
            elif val[y] is None:
                rest.append(eq)
                continue
            elif val[x] is not None:
                t = tables[op][0]
            elif val[z] is not None:
                t = tables[op][1]
                x, z = z, x          # the right division solves for x
            else:
                rest.append(eq)
                continue
            if fold:
                got = t[1][val[x] if y is None else val[x] * ORDER + val[y]]
                if val[z] is None:
                    val[z] = got
                elif val[z] != got:
                    return None
                continue
            if y is None:
                steps.append((_CHECK1, t[0], x, z) if val[z] is not None
                             else (_SET1, z, t[0], x))
            else:
                steps.append((_CHECK2, t[0], x, y, z) if val[z] is not None
                             else (_SET2, z, t[0], x, y))
            val[z] = _COLUMN
        if not forward:
            rest.reverse()
        forward = not forward
        if len(rest) < len(pending):
            pending = rest
            continue
        if fold:
            fold = False
            first = [None if v is None else np.array([v], dtype=np.intp)
                     for v in val]
        step, solved = _branch(pending, val, bq)
        steps.append(step)
        val[step[1]] = _COLUMN
        if solved is not None:
            pending.remove(solved)
    return (None, val) if fold else (steps, first)


def _branch(pending: List[tuple], val: List[Optional[int]], bq: Biquandle,
            ) -> Tuple[tuple, Optional[tuple]]:
    """The expansion that unblocks a stalled plan, and the relation it
    solves: the first relation an index solves for its one unknown arc,
    else (solving none) a guess of the first relation's over arc.

    ``pending`` is in traversal order, so the in arc of its first
    relation is known: that relation has an index or an over arc to
    guess.
    """
    for eq in pending:
        x, y, z, op = eq
        known_x, known_z = val[x] is not None, val[z] is not None
        if op is None:
            if known_z:
                return (_EXPAND, x, bq.f.preimage_index(), z, None), eq
        elif known_x and known_z:
            return (_EXPAND, y, bq.solve_indexes(op).over, x, z), eq
        elif known_x and y == z:
            return (_EXPAND, z, bq.solve_indexes(op).fixed, x, None), eq
        elif known_z and y == x:
            return (_EXPAND, x, bq.solve_indexes(op).diagonal, z, None), eq
    return (_EXPAND, pending[0][1], _ALL_COLORS, None, None), None


def _execute(steps: List[tuple], first: List[Optional[np.ndarray]],
             ) -> List[List[Optional[np.ndarray]]]:
    """Run the plan on per-arc columns (None while unknown); return the
    surviving pieces."""
    done = []
    stack = [(0, first)]
    while stack:
        i, cols = stack.pop()
        while i < len(steps):
            step = steps[i]
            kind = step[0]
            if kind == _SET2:
                _, target, t, x, y = step
                cols[target] = t[cols[x], cols[y]]
            elif kind == _SET1:
                _, target, t, x = step
                cols[target] = t[cols[x]]
            else:
                if kind == _EXPAND:
                    cols = _expand(step, cols, i, stack)
                else:
                    if kind == _CHECK2:
                        _, t, x, y, z = step
                        mask = t[cols[x], cols[y]] == cols[z]
                    else:
                        _, t, x, z = step
                        mask = t[cols[x]] == cols[z]
                    if not mask.all():
                        keep = np.flatnonzero(mask)
                        cols = [None if c is None else c[keep] for c in cols]
                if cols is None or len(cols[1]) == 0:
                    break
            i += 1
        else:
            done.append(cols)
    return done


def _expand(step: tuple, cols: List[Optional[np.ndarray]], i: int,
            stack: List[tuple]) -> Optional[List[Optional[np.ndarray]]]:
    """Give each row one copy per index entry; return None after pushing
    the halves of an input that would expand beyond ROW_CAP rows."""
    _, target, (indptr, values), x, y = step
    rows = len(cols[1])
    if x is None:
        key = np.zeros(rows, dtype=np.intp)
    elif y is None:
        key = cols[x]
    else:
        key = cols[x] * ORDER + cols[y]
    lo = indptr[key]
    counts = indptr[key + 1] - lo
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total > ROW_CAP and rows > 1:
        half = rows // 2
        for piece in (slice(half, None), slice(None, half)):
            stack.append((i, [None if c is None else c[piece] for c in cols]))
        return None
    if total == rows and (counts == 1).all():
        cols[target] = values[lo]
        return cols
    rep = np.repeat(np.arange(rows), counts)
    cols = [None if c is None else c[rep] for c in cols]
    cols[target] = values[lo[rep] + np.arange(total) - (ends - counts)[rep]]
    return cols


def _solve_frontier(cs: ConstraintSet, bq: Biquandle, start: GroupElement,
                    end: Optional[GroupElement]) -> List[Tuple[int, ...]]:
    m = cs.arc_count
    pins = {1: (_index(*start),)}
    if end is not None:
        if m == 1 and end != start:
            return []
        pins[m] = (_index(*end),)
    plan = _plan(cs, bq, pins)
    if plan is None:
        return []
    steps, cols = plan
    if steps is None:
        return [tuple(cols[1:])]
    rows = set()
    for cols in _execute(steps, cols):
        block = np.concatenate(cols[1:]).reshape(m, -1)
        rows.update(map(tuple, block.T.tolist()))
    return sorted(rows)


# -- public solving API ----------------------------------------------------------


def _as_result(d_name: str, raw: List[Tuple[int, ...]],
               start: GroupElement, end: Optional[GroupElement],
               f_summary: Optional[str]) -> InvariantResult:
    colorings = tuple(tuple(map(ALL_ELEMENTS.__getitem__, sol)) for sol in raw)
    ends = frozenset(col[-1] for col in colorings)
    return InvariantResult(diagram_name=d_name, start_color=start,
                           end_pin=end, colorings=colorings,
                           end_colors=ends, count=len(colorings),
                           f_summary=f_summary)


def solve(d: LongDiagram, bq: Biquandle, start: GroupElement, *,
          end: Optional[GroupElement] = None,
          constraints: Optional[ConstraintSet] = None,
          quandle_only: bool = False) -> InvariantResult:
    """All colorings with arc 1 pinned to ``start`` (and optionally the
    last arc pinned to ``end``), sorted lexicographically by arc values.
    """
    cs = constraints or build_constraints(d, bq, quandle_only=quandle_only)
    f_summary = bq.f.summary() if bq.f is not None else None
    raw = _solve_frontier(cs, bq, start, end)
    return _as_result(d.name, raw, start, end, f_summary)


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str  # 'DISTINGUISHED' or 'INCONCLUSIVE'
    first: InvariantResult
    second: InvariantResult
    reason: str

    def to_text(self) -> str:
        return "\n".join([
            f"verdict: {self.verdict} ({self.reason})",
            "--- first ---", self.first.to_text(),
            "--- second ---", self.second.to_text(),
        ])

    def to_json(self) -> Dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "first": self.first.to_json(),
                "second": self.second.to_json()}


def distinguish(d1: LongDiagram, d2: LongDiagram, bq: Biquandle,
                start: GroupElement) -> DistinguishResult:
    r1 = solve(d1, bq, start)
    r2 = solve(d2, bq, start)
    if r1.count != r2.count:
        verdict, reason = "DISTINGUISHED", (
            f"coloring counts differ: {r1.count} vs {r2.count}")
    elif r1.end_colors != r2.end_colors:
        verdict, reason = "DISTINGUISHED", "end-color sets differ"
    else:
        verdict, reason = "INCONCLUSIVE", (
            "counts and end-color sets agree")
    return DistinguishResult(verdict=verdict, first=r1, second=r2,
                             reason=reason)


# -- calibrated f selection ------------------------------------------------------


# The right-trefoil arc chain, as written in the paper.
_REFERENCE_CHAIN = ("a", "a b^-1", "a^2 b^-1 a^-1", "(ab)^2 a^-1", "a b^2")


def reference_right_chain(group: TorusGroup) -> Tuple[GroupElement, ...]:
    """The right-trefoil arc chain all conventions are calibrated against."""
    return tuple(eval_text(word, group) for word in _REFERENCE_CHAIN)


def select_f_candidate(group: TorusGroup, n_twist: int = 2) -> FCandidate:
    """The calibrated f: the substitution table patched at the one entry
    the reference chain's second virtual pass needs, f(chain[2]) = chain[3].

    It is built, not searched for: neither total candidate reproduces the
    chain.  The substitution map a^k b^l -> (ab)^k b^l takes only 16
    values, since ab has order 4, and chain[3] is not one of them; the
    shear keeps the a-exponent, which the chain changes from 3 to 7.
    The patch reproduces the paper's trefoil result; it is not an
    invariant (it is neither bijective nor multiplicative, and breaks
    virtual R1).  Raises RuntimeError unless the right trefoil admits the
    chain and the left trefoil, pinned to the chain's end, has no coloring.
    """
    chain = reference_right_chain(group)
    table = make_f(group, FKind.SUBSTITUTION).table.copy()
    table[_index(*chain[2])] = _index(*chain[3])
    patched = _audit_candidate(group, FKind.TABLE, "substitution+chain-patch",
                               table, patched=((chain[2], chain[3]),))
    bq = Biquandle(group, n_twist).attach_f(patched)
    if (chain not in solve(builtin_trefoil("right"), bq, chain[0]).colorings
            or solve(builtin_trefoil("left"), bq, chain[0], end=chain[-1]).count):
        raise RuntimeError("no f candidate reproduces the reference chain")
    return patched


def calibrated_biquandle(group: TorusGroup, n_twist: int = 2) -> Biquandle:
    """The biquandle used for invariant runs: twist n, calibrated f attached."""
    return Biquandle(group, n_twist).attach_f(select_f_candidate(group, n_twist))
