"""Slow, plain references the program is tested against.

``colorings`` sweeps every assignment of the arcs that are not pinned, in
vectorized chunks, and keeps those that satisfy every relation of
``constraints``, so the program's ``build_constraints`` does not run
inside it.  It is exponential in the number of free arcs, so it refuses
more than MAX_FREE.

``parse_diagram``, ``arcs``, ``classify`` and ``constraints`` are
the diagram front end as it was written before it was tuned: a scan that
keeps every token's offset, one walk per derived map, and relations built
by keyword.  They return plain data (name and passes; steps, arc count and
over-arc map; relations), so no check of the tuned code runs inside them.

``equations`` is the rule that turns relations into the planner's
equations, and ``op`` (with its ``circ``, ``star``, ``circ_div`` and
``star_div`` wrappers), ``apply_f``, ``virtual_ids`` and ``element_at``
are lookups only the tests make.

``grid_walk`` builds a convention's group table by walking its oriented
torus grid: the vertex permutations of an a-step and a b-step, the
endpoint of each normal form's word, and the product of two elements as
the endpoint of the second path translated to start where the first one
ends (with the b^4 seam twist, or, for the flat model, a check that each
product's word acts as its composed factors).
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from biqknot.coloring import (ClassicalRelation, HasVirtualPasses,
                              VirtualRelation)
from biqknot.diagram import (CrossingClass, DiagramSyntaxError, PairingError,
                             Pass, PassKind, _tokenize)
from biqknot.biquandle import _OP_NAMES, MissingF
from biqknot.torus_group import (ALL_ELEMENTS, GRID, ORDER, ColPhase,
                                 CompositionOrder, Convention,
                                 ConventionInconsistent, GroupElement, RowPhase,
                                 SeamTwist, Vertex, _element, _index)

MAX_FREE = 4
_CHUNK = 1 << 20


def colorings(d, bq, start: GroupElement, end: Optional[GroupElement] = None,
              quandle_only: bool = False) -> Tuple[Tuple[GroupElement, ...], ...]:
    """Every coloring of ``d`` from ``start`` (to ``end``), sorted like
    ``solve(...).colorings``."""
    relations, m = constraints(d, quandle_only=quandle_only)
    if bq.f is None and any(isinstance(r, VirtualRelation) for r in relations):
        raise MissingF(f"diagram {d.name!r} has virtual passes but no f")
    ft = bq.f.table if bq.f is not None else None
    tables = dict(zip(_OP_NAMES, bq.tables))
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
        for r in relations:
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
    if tok[-1] not in "+-":
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
    if quandle_only and virtual_ids(d):
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


def equations(relations) -> List[tuple]:
    """Each relation as t[x, y] = z: (x, y, z, k) for a classical
    crossing, k the table id of its operation (circ 0, star 1), and
    (x, x, z, 4) for f(x) = z at a virtual pass, table 4 being
    t[x, y] = f(x)."""
    eqs = []
    for r in relations:
        if isinstance(r, ClassicalRelation):
            eqs.append((r.in_arc, r.over_arc, r.out_arc,
                        {"circ": 0, "star": 1}[r.op]))
        elif r.direction == "fwd":
            eqs.append((r.in_arc, r.in_arc, r.out_arc, 4))
        else:
            eqs.append((r.out_arc, r.out_arc, r.in_arc, 4))
    return eqs


def op(bq, which: str, x: GroupElement, y: GroupElement) -> GroupElement:
    """x <which> y, read from the biquandle's table of that name."""
    return _element(int(bq.tables[_OP_NAMES.index(which)][_index(*x), _index(*y)]))


def circ(bq, x, y):
    return op(bq, "circ", x, y)


def star(bq, x, y):
    return op(bq, "star", x, y)


def circ_div(bq, x, y):
    return op(bq, "circ_div", x, y)


def star_div(bq, x, y):
    return op(bq, "star_div", x, y)


def virtual_ids(d) -> List[str]:
    """Each virtual crossing id once, in order of its first pass."""
    return list(dict.fromkeys(
        p.crossing_id for p in d.passes if p.kind is PassKind.VIRTUAL))


def apply_f(bq, direction: str, x: GroupElement) -> GroupElement:
    """f(x) for 'fwd', its preimage under a bijective f for 'inv'."""
    if bq.f is None:
        raise MissingF("no f candidate attached")
    if direction == "fwd":
        return bq.f(x)
    if direction == "inv":
        if not bq.f.bijective:
            raise ValueError(
                f"f candidate {bq.f.name!r} is not a bijection; "
                "use f.preimages()")
        (pre,) = bq.f.preimages(x)
        return pre
    raise ValueError(f"direction must be 'fwd' or 'inv', got {direction!r}")


def element_at(group, v: Vertex) -> GroupElement:
    """The one element whose vertex is v, coordinates taken mod GRID."""
    (g,) = [g for g in ALL_ELEMENTS
            if group.vertex_of(g) == Vertex(v[0] % GRID, v[1] % GRID)]
    return g


# -- torus grid -------------------------------------------------------------------


def _perm_powers(p: np.ndarray) -> np.ndarray:
    """Row n is the permutation p applied n times, for n in 0..GRID-1."""
    powers = [np.arange(ORDER)]
    for _ in range(GRID - 1):
        powers.append(p[powers[-1]])
    return np.stack(powers)


def _step_permutations(convention: Convention) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex permutations of one a-step and one b-step; (x, y) is x * GRID + y."""
    x, y = np.divmod(np.arange(ORDER), GRID)
    row_sign = 1 if convention.row_phase is RowPhase.EVEN_RIGHT else -1
    col_sign = 1 if convention.col_phase is ColPhase.EVEN_UP else -1
    sr = np.where(y % 2 == 0, row_sign, -row_sign)
    sc = np.where(x % 2 == 0, col_sign, -col_sign)
    pa = (x + sr) % GRID * GRID + y
    pb = x * GRID + (y + sc) % GRID
    return pa, pb


def grid_walk(convention: Convention
              ) -> Tuple[np.ndarray, Dict[GroupElement, Vertex]]:
    """The multiplication table and the vertex of each element, unverified,
    from walking the oriented grid of one convention.

    Raises ConventionInconsistent if endpoints collide or, for the FLAT
    model, if a product's word action differs from the composed actions.
    """
    pa, pb = _step_permutations(convention)
    word_first = convention.composition_order is CompositionOrder.WORD

    # perms[g] is the vertex permutation realised by the canonical word
    # a^k b^l of element g = (k, l)
    pa_pow, pb_pow = _perm_powers(pa), _perm_powers(pb)
    k, l = np.divmod(np.arange(ORDER), GRID)
    if word_first:
        perms = pb_pow[l[:, None], pa_pow[k]]
    else:
        perms = pa_pow[k[:, None], pb_pow[l]]

    endpoints = perms[:, 0]  # base vertex (0, 0) has index 0
    if len(set(endpoints.tolist())) != ORDER:
        seen: Dict[int, GroupElement] = {}
        for g, v in zip(ALL_ELEMENTS, endpoints.tolist()):
            if v in seen:
                raise ConventionInconsistent(
                    f"normal forms {seen[v]} and {g} reach the same vertex "
                    f"{Vertex(*divmod(v, GRID))} from base"
                )
            seen[v] = g
    vertex_of = {g: Vertex(*divmod(v, GRID))
                 for g, v in zip(ALL_ELEMENTS, endpoints.tolist())}
    element_at_idx = np.empty(ORDER, dtype=np.int64)
    element_at_idx[endpoints] = np.arange(ORDER)

    # flat product: translate the second path to start at the first
    # endpoint; moved[j, i] is the vertex perms[j] sends endpoint i to
    moved = perms[:, endpoints]
    flat = element_at_idx[moved.T if word_first else moved]

    if convention.seam_twist is SeamTwist.FLAT:
        # endpoint identification must agree with permutation identity:
        # the permutation of a product word must equal the composed
        # permutations of its factors.  One row of products at a time.
        for i in range(ORDER):
            composed = perms[:, perms[i]] if word_first else perms[i][perms]
            bad = np.nonzero(np.any(composed != perms[flat[i]], axis=1))[0]
            if len(bad):
                j = int(bad[0])
                raise ConventionInconsistent(
                    f"word action of {ALL_ELEMENTS[i]} then "
                    f"{ALL_ELEMENTS[j]} differs from the action of "
                    f"their product {_element(int(flat[i, j]))}"
                )
        table = flat
    else:
        # central b^4 holonomy on odd-displacement compositions
        odd = (l[:, None] % 2 == 1) & (k[None, :] % 2 == 1)
        shifted = flat // GRID * GRID + (flat % GRID + 4) % GRID
        table = np.where(odd, shifted, flat)
    return table, vertex_of
