"""The order-64 group carried by an oriented 8x8 torus grid.

Vertices live on an 8x8 grid glued into a torus.  A step labelled ``a``
moves one unit horizontally, a step labelled ``b`` one unit vertically;
the direction of each step depends on the orientation of the grid line
it runs along, and lines alternate orientation row by row and column by
column.  Group elements are identified with the endpoints reached from
the base vertex (0, 0), written in the normal form a^k b^l with both
exponents mod 8.

The grid picture alone does not pin the group down: the composition
order of step words, the orientation phases, and a central holonomy
picked up when paths with odd displacements are composed are all free
parameters.  ``Convention`` records one choice of each;
``calibrate_convention`` selects the choice that reproduces the paper's
stated products and freezes it.  Those calibration anchors are data:
``ANCHORS`` holds each as a group word with its stated value, and the
words are evaluated by ``group_words.eval_text``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from .group_words import eval_text

GRID = 8
ORDER = GRID * GRID


class Vertex(NamedTuple):
    x: int
    y: int


class GroupElement(NamedTuple):
    """Normal form a^k b^l with k, l in 0..7."""

    k: int
    l: int


class CompositionOrder(Enum):
    WORD = "word-order"          # leftmost letter of a word is traversed first
    FUNCTION = "function-order"  # rightmost letter is traversed first


class RowPhase(Enum):
    EVEN_RIGHT = "even-rows-right"
    EVEN_LEFT = "even-rows-left"


class ColPhase(Enum):
    EVEN_UP = "even-cols-up"
    EVEN_DOWN = "even-cols-down"


class SeamTwist(Enum):
    """Central holonomy applied when composing paths.

    FLAT composes paths literally.  CENTRAL_B4 multiplies by the central
    element b^4 whenever a path with odd vertical displacement is
    followed by a path with odd horizontal displacement.  The flat model
    cannot reproduce the calibration anchors (no orientation pattern
    does); the b^4 holonomy is a central correction that can, and
    calibration verifies that it does.
    """

    FLAT = "flat"
    CENTRAL_B4 = "central-b4"


@dataclass(frozen=True)
class Convention:
    composition_order: CompositionOrder = CompositionOrder.WORD
    row_phase: RowPhase = RowPhase.EVEN_RIGHT
    col_phase: ColPhase = ColPhase.EVEN_UP
    seam_twist: SeamTwist = SeamTwist.CENTRAL_B4

    def describe(self) -> str:
        return ", ".join(
            (
                self.composition_order.value,
                self.row_phase.value,
                self.col_phase.value,
                self.seam_twist.value,
            )
        )


class ConventionInconsistent(Exception):
    """Endpoint identification clashes with multiplication."""


class NoConventionMatches(Exception):
    """No convention variant reproduces the calibration anchors."""


CenterSet = FrozenSet[GroupElement]

IDENTITY = GroupElement(0, 0)
GEN_A = GroupElement(1, 0)
GEN_B = GroupElement(0, 1)


def _index(k: int, l: int) -> int:
    return (k % GRID) * GRID + (l % GRID)


def _element(i: int) -> GroupElement:
    return GroupElement(i // GRID, i % GRID)


ALL_ELEMENTS: Tuple[GroupElement, ...] = tuple(_element(i) for i in range(ORDER))


class TorusGroup:
    """The built group: 64 elements, full multiplication table, frozen convention."""

    def __init__(self, convention: Convention, mul_table: np.ndarray,
                 vertex_of: Dict[GroupElement, Vertex]):
        self.convention = convention
        self.mul_table = mul_table              # (64, 64) indices
        self.elements = ALL_ELEMENTS
        self.identity = IDENTITY
        self.generator_a = GEN_A
        self.generator_b = GEN_B
        self._vertex_of = vertex_of
        self._element_at = {v: g for g, v in vertex_of.items()}
        self.inv_table = np.argmax(mul_table == _index(0, 0), axis=1)
        self._center: Optional[CenterSet] = None

    # -- element arithmetic ------------------------------------------------

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return _element(int(self.mul_table[_index(*g), _index(*h)]))

    def inv(self, g: GroupElement) -> GroupElement:
        return _element(int(self.inv_table[_index(*g)]))

    def power(self, g: GroupElement, n: int) -> GroupElement:
        if n < 0:
            g, n = self.inv(g), -n
        acc = IDENTITY
        base = g
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g h g^-1 h^-1."""
        return self.mul(self.mul(self.mul(g, h), self.inv(g)), self.inv(h))

    def order_of(self, g: GroupElement) -> int:
        n = 1
        acc = g
        while acc != IDENTITY:
            acc = self.mul(acc, g)
            n += 1
        return n

    # -- structure ---------------------------------------------------------

    def center(self) -> CenterSet:
        if self._center is None:
            central = np.all(self.mul_table == self.mul_table.T, axis=1)
            self._center = frozenset(
                _element(i) for i in np.nonzero(central)[0]
            )
        return self._center

    def is_central(self, g: GroupElement) -> bool:
        return g in self.center()

    def vertex_of(self, g: GroupElement) -> Vertex:
        return self._vertex_of[g]

    def element_at(self, v: Vertex) -> GroupElement:
        return self._element_at[Vertex(v[0] % GRID, v[1] % GRID)]

    def parity_table(self) -> "ParityReport":
        return _parity_report(self)

    def __len__(self) -> int:
        return ORDER


# -- construction ------------------------------------------------------------


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


def _perm_powers(p: np.ndarray) -> np.ndarray:
    """Row n is the permutation p applied n times, for n in 0..GRID-1."""
    powers = [np.arange(ORDER)]
    for _ in range(GRID - 1):
        powers.append(p[powers[-1]])
    return np.stack(powers)


def build_group(convention: Convention) -> TorusGroup:
    """Construct the group for one convention and verify it exhaustively.

    Raises ConventionInconsistent (with a witness) if endpoint
    identification does not yield a well-defined group of 64 elements.
    """
    table, vertex_of = _group_table(convention)
    _verify_group(table, convention)
    return TorusGroup(convention, table, vertex_of)


def _group_table(convention: Convention
                 ) -> Tuple[np.ndarray, Dict[GroupElement, Vertex]]:
    """The multiplication table and the vertex of each element, unverified.

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


def _verify_group(table: np.ndarray, convention: Convention) -> None:
    e = _index(0, 0)
    if not (np.array_equal(table[e], np.arange(ORDER))
            and np.array_equal(table[:, e], np.arange(ORDER))):
        raise ConventionInconsistent("identity is not two-sided neutral")
    # every row and column a permutation: regular left/right translations
    ar = np.arange(ORDER)
    if not (np.array_equal(np.sort(table, axis=1), np.tile(ar, (ORDER, 1)))
            and np.array_equal(np.sort(table, axis=0), np.tile(ar[:, None], (1, ORDER)))):
        raise ConventionInconsistent("translations are not permutations")
    # entries now lie in 0..63: on a uint8 copy each 64^3 temporary is
    # 256 KB instead of 2 MB, and the gathers run several times faster
    t8 = table.astype(np.uint8)
    if not np.array_equal(t8[t8], t8[:, t8]):
        bad = np.argwhere(t8[t8] != t8[:, t8])[0]
        raise ConventionInconsistent(
            f"associativity fails at triple {tuple(int(t) for t in bad)}"
        )
    for gi in (_index(1, 0), _index(0, 1)):
        n, acc = 1, gi
        while acc != e:
            acc = int(table[acc, gi])
            n += 1
        if n != GRID:
            raise ConventionInconsistent(
                f"generator order {n} != {GRID} under {convention.describe()}"
            )


# -- calibration ---------------------------------------------------------------


# The paper's calibration anchors, each word with its stated value.
ANCHORS: Tuple[Tuple[str, GroupElement], ...] = (
    ("a (a b a^-1 b^-1)", GroupElement(3, 2)),
    ("(a b a^-1 b^-1) a", GroupElement(3, 6)),
    ("(ab)^-3 a (ab)^3", GroupElement(7, 6)),
)


@dataclass(frozen=True)
class AnchorReport:
    """Values of the calibration anchors under one convention."""

    a_comm: GroupElement            # a [a,b]
    comm_a: GroupElement            # [a,b] a
    alpha: GroupElement             # (ab)^-3 a (ab)^3
    matches: bool


def _anchors(group: TorusGroup) -> AnchorReport:
    values = [eval_text(word, group) for word, _ in ANCHORS]
    return AnchorReport(a_comm=values[0], comm_a=values[1], alpha=values[2],
                        matches=all(v == stated
                                    for v, (_, stated) in zip(values, ANCHORS)))


@dataclass
class CalibrationResult:
    convention: Convention
    matches: List[Convention]
    reports: Dict[Convention, AnchorReport] = field(repr=False)


def all_conventions() -> List[Convention]:
    """Every variant, in deterministic enum order (seam twist innermost)."""
    return [
        Convention(co, rp, cp, st)
        for co in CompositionOrder
        for rp in RowPhase
        for cp in ColPhase
        for st in SeamTwist
    ]


def calibrate_convention() -> CalibrationResult:
    """Pick the convention reproducing all calibration anchors.

    Every variant is built and anchored, but each distinct table is
    verified and evaluated once: the 16 variants give only 2 tables, and
    a report depends on the table alone.  A variant whose construction
    or verification fails is left out of the reports.  If several match,
    all are reported and the first in enum order is frozen; if none
    match, NoConventionMatches is raised.
    """
    reports: Dict[Convention, AnchorReport] = {}
    matches: List[Convention] = []
    by_table: Dict[bytes, Optional[AnchorReport]] = {}
    for conv in all_conventions():
        try:
            table, vertex_of = _group_table(conv)
        except ConventionInconsistent:
            continue
        key = table.tobytes()
        if key not in by_table:
            try:
                _verify_group(table, conv)
            except ConventionInconsistent:
                by_table[key] = None
            else:
                by_table[key] = _anchors(TorusGroup(conv, table, vertex_of))
        rep = by_table[key]
        if rep is None:
            continue
        reports[conv] = rep
        if rep.matches:
            matches.append(conv)
    if not matches:
        raise NoConventionMatches(
            "no convention variant reproduces the calibration anchors"
        )
    return CalibrationResult(convention=matches[0], matches=matches,
                             reports=reports)


DEFAULT_CONVENTION = Convention()


def build_default_group() -> TorusGroup:
    """The frozen convention's group, checked against the anchors."""
    group = build_group(DEFAULT_CONVENTION)
    if not _anchors(group).matches:
        raise NoConventionMatches(
            f"frozen convention {DEFAULT_CONVENTION.describe()} does not "
            "reproduce the calibration anchors"
        )
    return group


# -- parity sweep --------------------------------------------------------------


ParityKey = Tuple[int, int, int, int]  # parities of i, j, k, l

# stated pattern: a^4 when i odd, j even, l odd; b^4 when i even, j odd,
# k odd; identity otherwise ("-4" with odd multiplier is 4 mod 8)
def _stated_parity_value(key: ParityKey) -> GroupElement:
    pi, pj, pk, pl = key
    if pi == 1 and pj == 0 and pl == 1:
        return GroupElement(4, 0)
    if pi == 0 and pj == 1 and pk == 1:
        return GroupElement(0, 4)
    return GroupElement(0, 0)


@dataclass
class ParityReport:
    """Sweep of A = w y^2 w^-1 y^-2 over all pairs, grouped by parity class."""

    values: Dict[ParityKey, FrozenSet[GroupElement]]
    all_constant: bool
    all_central: bool
    has_nontrivial: bool
    mismatches: List[Tuple[ParityKey, FrozenSet[GroupElement], GroupElement]]

    def value_of(self, key: ParityKey) -> FrozenSet[GroupElement]:
        return self.values[key]


def _parity_report(group: TorusGroup) -> ParityReport:
    m, inv = group.mul_table, group.inv_table
    ar = np.arange(ORDER)
    y2 = m[ar, ar][:, None]                     # rows: y, columns: w
    w = ar[None, :]
    comm = m[m[m[w, y2], inv[w]], inv[y2]]      # A = w y^2 w^-1 y^-2
    k, l = np.divmod(ar, GRID)
    parity = k % 2 * 2 + l % 2
    key_code = parity[:, None] * 4 + parity[None, :]
    frozen = {}
    for code in range(16):                      # keys in sorted order
        key = (code >> 3, code >> 2 & 1, code >> 1 & 1, code & 1)
        frozen[key] = frozenset(
            _element(int(i)) for i in np.unique(comm[key_code == code]))
    central = np.zeros(ORDER, dtype=bool)
    central[[_index(*g) for g in group.center()]] = True
    all_constant = all(len(vals) == 1 for vals in frozen.values())
    mismatches = []
    for key, vals in frozen.items():
        stated = _stated_parity_value(key)
        if vals != frozenset({stated}):
            mismatches.append((key, vals, stated))
    return ParityReport(values=frozen, all_constant=all_constant,
                        all_central=bool(central[comm].all()),
                        has_nontrivial=bool((comm != _index(*IDENTITY)).any()),
                        mismatches=mismatches)
