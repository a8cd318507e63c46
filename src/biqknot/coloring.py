"""Crossing constraints, coloring search, and the end-color invariant.

A coloring assigns a carrier element to every arc so that each classical
crossing satisfies out = in <op> over (with <op> chosen by the crossing's
early-over / early-under class) and each virtual pass applies the f map:
the first visit to a virtual crossing pulls back through f, the second
pushes forward.  Those direction choices, like the builtin diagrams,
were calibrated once against the reference trefoil chain and frozen.

A diagram's pairing walk emits its equations, one per under and
virtual pass, t[x, y] = z with t named by its table id in the
biquandle's stack: table k's right division is table k ^ 2 and table 4
is f, t[x, y] = f(x), so a virtual pass is t[x, x] = z.
``build_constraints`` makes two checks and hands those equations out,
with circ at every classical crossing in classical mode; the relation
records of ``ConstraintSet.relations`` are built from them only when
read.

One iterative solver finds every coloring.  It plans the equations
once, from which arcs are known: checks, table k forward and table
k ^ 2 backward come first; when none applies, one equation branches
through a precomputed index of its table (every y with t[y, y] = z,
in table 4 the preimages of z under f, or every over-arc color y with
t[x, y] = z) or of its right division (every y with t[x, y] = y), and
guessing all 64 colors of an over arc is the last resort.  While the
only partial coloring is the pinned one, the planner folds each
deterministic step: it evaluates the step on Python ints instead of
emitting it, so a chain that never branches costs no numpy call.  From
the first branch on, the plan runs on one integer array front[arc, col],
one column per partial coloring, in pieces of at most ROW_CAP columns: a
set writes a row, a check keeps columns, an expansion repeats them.  A
brute-force sweep in the tests is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .biquandle import (_F, _OP_NAMES, Biquandle, FCandidate, FKind,
                        MissingF, _audit_candidate, make_f)
from .diagram import LongDiagram, arcs, builtin_trefoil
from .group_words import eval_text, format_normal
from .torus_group import (ALL_ELEMENTS, ORDER, GroupElement, TorusGroup,
                          _index)


_CIRC = _OP_NAMES.index("circ")


class HasVirtualPasses(Exception):
    """Classical-only mode was asked to color a diagram with virtual passes."""


class ClassicalRelation(NamedTuple):
    crossing_id: str
    op: str                  # 'circ' or 'star'
    in_arc: int
    out_arc: int
    over_arc: int


class VirtualRelation(NamedTuple):
    crossing_id: str
    visit: int               # 1 or 2, in traversal order
    direction: str           # 'inv' (f(out) = in) or 'fwd' (f(in) = out)
    in_arc: int
    out_arc: int


Relation = Union[ClassicalRelation, VirtualRelation]


@dataclass(frozen=True)
class ConstraintSet:
    """The equations of a diagram, in traversal order, and its arc count.

    ``equations`` holds one relation per under and virtual pass as the
    planner reads it, t[x, y] = z written (x, y, z, k): k is the table id
    of a classical crossing's operation, and (x, x, z, 4) stands for
    f(x) = z at a virtual pass.  ``tokens`` are the diagram's pass
    tokens, whose under and virtual entries name each equation's
    crossing; ``relations`` is built from both on each read.
    """

    arc_count: int
    equations: Tuple[tuple, ...]
    tokens: Sequence[str] = field(repr=False, compare=False)

    @property
    def relations(self) -> Tuple[Relation, ...]:
        """One relation record per equation, in traversal order."""
        ids = [tok[1:] if tok[0] in "Vv" else tok[1:-1]
               for tok in self.tokens if tok[0] not in "Oo"]
        return tuple(
            ClassicalRelation(cid, _OP_NAMES[k], x, z, y) if k != _F
            # a first visit pulls back, f(out) = in, so x = out > z = in
            else VirtualRelation(cid, 1, "inv", z, x) if x > z
            else VirtualRelation(cid, 2, "fwd", x, z)
            for cid, (x, y, z, k) in zip(ids, self.equations))


def build_constraints(d: LongDiagram, bq: Biquandle,
                      quandle_only: bool = False) -> ConstraintSet:
    """The equations of ``d``'s pairing walk, one per classical crossing
    and per virtual pass.

    quandle_only is the classical quandle mode: 'circ' at every classical
    crossing, whatever its class, and no virtual passes allowed
    (HasVirtualPasses).  A diagram with virtual passes needs an f
    attached to ``bq`` (MissingF).
    """
    assignment = arcs(d)
    has_virtual = d.has_virtual()
    if quandle_only and has_virtual:
        raise HasVirtualPasses(
            f"diagram {d.name!r} has virtual passes; classical mode "
            "colors classical diagrams only")
    if has_virtual and bq.f is None:
        raise MissingF(
            f"diagram {d.name!r} has virtual passes but the biquandle has "
            "no f candidate attached")
    equations = assignment.equations
    if quandle_only:
        equations = tuple((x, y, z, _CIRC) for x, y, z, _ in equations)
    return ConstraintSet(arc_count=assignment.arc_count, equations=equations,
                         tokens=d._tokens)


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

# No expansion makes more than ROW_CAP columns: its input is halved first,
# and the halves wait on an explicit stack, to be halved again if still
# too large.  (A single column's fan-out, at most 64, is the unit when
# ROW_CAP is smaller.)
ROW_CAP = 1 << 14

# Plan steps (kind, z, t, x, y) over the frontier front[arc, col]:
#   _SET     z = t[x, y]
#   _CHECK   keep the columns with t[x, y] == z
#   _EXPAND  z in row x * 64 + y (or x, when y is None) of the CSR index
#            t; x None: every color
_SET, _CHECK, _EXPAND = range(3)
_COLUMN = -1    # _plan's mark of an arc known as a frontier row, not one color
_ALL_COLORS = (np.array([0, ORDER], dtype=np.intp),
               np.arange(ORDER, dtype=np.intp))


def _plan(cs: ConstraintSet, bq: Biquandle, pins: Dict[int, Sequence[int]],
          ) -> Optional[Tuple[Optional[List[tuple]], Union[list, np.ndarray]]]:
    """Order the relations into steps, from which arcs are known, folding
    the steps of a one-column frontier.

    ``pins`` maps each pinned arc to its colors, one per start column.
    Passes over the pending equations (x, y, z, k) of ``cs.equations``,
    alternately forward and backward, take every deterministic step: a
    check, ``tables[k]`` forward, its right division ``tables[k ^ 2]``
    backward.  Only when a pass finds none does one equation branch,
    through a CSR index if one applies, else by guessing all 64 colors
    of an over arc.  Raises MissingF if an equation needs f (table 4)
    and the biquandle has none.

    While every pin has one color, a deterministic step is folded:
    evaluated here on Python ints, through ``bq.flat`` entry
    (k * 64 + x) * 64 + y, not emitted.  A folded check that fails
    means no coloring: the result is None.  Folding stops for good
    at the first branch, where the folded row becomes a one-column start
    frontier.  Returns the steps and their start frontier front[arc, col]
    (zero in the rows of arcs not yet known), or (None, row) when every
    relation folded into one row of colors (row[0] unused).
    """
    # val[a]: arc a's color while folding; afterwards, only whether it
    # is None (arc a unknown) counts
    val: List[Optional[int]] = [None] * (cs.arc_count + 1)
    for a, c in pins.items():
        val[a] = c[0]
    fold = all(len(c) == 1 for c in pins.values())
    if not fold:
        front = np.zeros((cs.arc_count + 1, max(map(len, pins.values()))),
                         dtype=np.intp)
        for a, c in pins.items():
            front[a] = c
    if bq.f is None and any(k == _F for *_, k in cs.equations):
        raise MissingF("constraints contain virtual relations but no f is attached")
    tables, flat = bq.tables, bq.flat
    steps: List[tuple] = []
    pending = list(cs.equations)
    forward = True
    while pending:
        rest = []
        for eq in (pending if forward else reversed(pending)):
            x, y, z, k = eq
            if val[y] is None:
                rest.append(eq)
                continue
            if val[x] is None:
                if val[z] is None:
                    rest.append(eq)
                    continue
                # the right division solves for x; an f equation has
                # y = x, so it never gets here and f needs no table 6
                k ^= 2
                x, z = z, x
            if fold:
                got = flat[(k * ORDER + val[x]) * ORDER + val[y]]
                if val[z] is None:
                    val[z] = got
                elif val[z] != got:
                    return None
                continue
            steps.append((_SET if val[z] is None else _CHECK, z,
                          tables[k], x, y))
            val[z] = _COLUMN
        if not forward:
            rest.reverse()
        forward = not forward
        if len(rest) < len(pending):
            pending = rest
            continue
        if fold:
            fold = False
            front = np.array([0 if v is None else v for v in val],
                             dtype=np.intp)[:, None]
        step, solved = _branch(pending, val, bq)
        steps.append(step)
        val[step[1]] = _COLUMN
        if solved is not None:
            pending.remove(solved)
    return (None, val) if fold else (steps, front)


def _branch(pending: List[tuple], val: List[Optional[int]], bq: Biquandle,
            ) -> Tuple[tuple, Optional[tuple]]:
    """The expansion that unblocks a stalled plan, and the relation it
    solves: the first relation an index solves for its one unknown arc,
    else (solving none) a guess of the first relation's over arc.  A
    virtual pass f(x) = z is t[x, x] = z in table 4, so its index is
    that table's ``diagonal``: the preimages of z under f.  An over arc
    that is the out arc, t[x, y] = y, is y / y = x in the right division
    table k ^ 2, so its index is that table's ``diagonal`` row x.

    ``pending`` is in traversal order, so the in arc of its first
    relation is known: that relation has an index or an over arc to
    guess.
    """
    for eq in pending:
        x, y, z, k = eq
        known_x, known_z = val[x] is not None, val[z] is not None
        if known_x and known_z:
            return (_EXPAND, y, bq.solve_indexes(k).over, x, z), eq
        elif known_x and y == z:
            # k is never 4 here: an f equation's out arc is not its in arc
            return (_EXPAND, z, bq.solve_indexes(k ^ 2).diagonal, x, None), eq
        elif known_z and y == x:
            return (_EXPAND, x, bq.solve_indexes(k).diagonal, z, None), eq
    return (_EXPAND, pending[0][1], _ALL_COLORS, None, None), None


def _execute(steps: List[tuple], front: np.ndarray) -> List[np.ndarray]:
    """Run the plan on the frontier front[arc, col], one column per
    partial coloring; return the surviving pieces."""
    done = []
    stack = [(0, front)]
    while stack:
        i, front = stack.pop()
        while i < len(steps):
            kind, z, t, x, y = step = steps[i]
            if kind == _SET:
                front[z] = t[front[x], front[y]]
            elif kind == _CHECK:
                keep = t[front[x], front[y]] == front[z]
                if not keep.all():
                    front = front.take(np.flatnonzero(keep), axis=1)
                    if front.shape[1] == 0:
                        break
            else:
                front = _expand(step, front, i, stack)
                if front is None or front.shape[1] == 0:
                    break
            i += 1
        else:
            done.append(front)
    return done


def _expand(step: tuple, front: np.ndarray, i: int,
            stack: List[tuple]) -> Optional[np.ndarray]:
    """Give each column one copy per index entry; return None after
    pushing the halves of an input that would expand beyond ROW_CAP
    columns."""
    _, z, (indptr, values), x, y = step
    cols = front.shape[1]
    if x is None:
        key = np.zeros(cols, dtype=np.intp)
    elif y is None:
        key = front[x]
    else:
        key = front[x] * ORDER + front[y]
    lo = indptr[key]
    counts = indptr[key + 1] - lo
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total > ROW_CAP and cols > 1:
        half = cols // 2
        # views, written in place by later _SET steps: safe only because
        # the two pieces are disjoint column ranges
        stack.append((i, front[:, half:]))
        stack.append((i, front[:, :half]))
        return None
    if total == cols and (counts == 1).all():
        front[z] = values[lo]
        return front
    # output column j, a copy of input column c, takes entry
    # lo[c] + j - (ends[c] - counts[c]) of the index
    front = front.repeat(counts, axis=1)
    front[z] = values[np.arange(total) + (lo + counts - ends).repeat(counts)]
    return front


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
    steps, front = plan
    if steps is None:
        return [tuple(front[1:])]
    rows = set()
    for front in _execute(steps, front):
        rows.update(map(tuple, front[1:].T.tolist()))
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
