"""The order-64 group carried by an oriented 8x8 torus grid.

Vertices live on an 8x8 grid glued into a torus.  A step labelled ``a``
moves one unit horizontally, a step labelled ``b`` one unit vertically;
the direction of each step depends on the orientation of the grid line
it runs along, and lines alternate orientation row by row and column by
column.  Group elements are identified with the endpoints reached from
the base vertex (0, 0), written in the normal form a^k b^l with both
exponents mod 8.

The grid picture leaves free parameters: the composition order of step
words, the orientation phases, and a central holonomy picked up when
paths with odd displacements are composed.  ``Convention`` records one
choice of each.  Walking the grid under any composition order and
phases gives the same closed-form law

    a^k b^l . a^m b^n = a^(k + (-1)^l m) b^((-1)^m l + n),

times the central b^4 when l and m are odd under the seam twist, so the
table is the seam twist's law (``_law``), and the composition order and
phases only place elements on the grid (``TorusGroup.vertex_of``).  The
tests walk all 16 grids as the reference.  ``calibrate_convention``
selects the choice that reproduces the paper's stated products and
freezes it.  Those calibration anchors are data: ``ANCHORS`` holds each
as a group word with its stated value, and the words are evaluated by
``group_words.eval_text``.
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
    followed by a path with odd horizontal displacement.  The seam twist
    alone fixes the table: the flat law cannot reproduce the calibration
    anchors under any composition order or phases; the b^4 holonomy is a
    central correction that can, and calibration verifies that it does.
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
    """A table fails verification: it is not a group of order 64 whose
    generators a and b have order 8."""


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

    def __init__(self, convention: Convention, mul_table: np.ndarray):
        self.convention = convention
        self.mul_table = mul_table              # (64, 64) indices
        self.elements = ALL_ELEMENTS
        self.identity = IDENTITY
        self.generator_a = GEN_A
        self.generator_b = GEN_B
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
        """The endpoint of g's canonical word walked from (0, 0).

        Word order walks a^k along row 0, then b^l along column k;
        function order walks b^l along column 0, then a^k along row l.
        A line with an odd index runs against its phase.
        """
        conv = self.convention
        rs = 1 if conv.row_phase is RowPhase.EVEN_RIGHT else -1
        cs = 1 if conv.col_phase is ColPhase.EVEN_UP else -1
        k, l = g
        if conv.composition_order is CompositionOrder.WORD:    # a^k first
            return Vertex(rs * k % GRID, cs * (-1) ** k * l % GRID)
        return Vertex(rs * (-1) ** l * k % GRID, cs * l % GRID)

    def parity_table(self) -> "ParityReport":
        return _parity_report(self)

    def __len__(self) -> int:
        return ORDER


# -- construction ------------------------------------------------------------


def _law(seam: SeamTwist) -> np.ndarray:
    """The seam model's (64, 64) int64 table of indexes, unverified:
    a^k b^l . a^m b^n = a^(k + (-1)^l m) b^((-1)^m l + n), times b^4 when
    l and m are odd under CENTRAL_B4."""
    k, l = np.divmod(np.arange(ORDER, dtype=np.int64), GRID)
    k, l, m, n = k[:, None], l[:, None], k[None, :], l[None, :]
    lo = (1 - 2 * (m % 2)) * l + n
    if seam is SeamTwist.CENTRAL_B4:
        lo += 4 * (l & m & 1)
    return (k + (1 - 2 * (l % 2)) * m) % GRID * GRID + lo % GRID


def build_group(convention: Convention) -> TorusGroup:
    """Construct the group for one convention and verify it exhaustively.

    Raises ConventionInconsistent (with a witness) if the seam model's
    table is not a group of 64 elements with generators of order 8.
    """
    table = _law(convention.seam_twist)
    _verify_group(table, convention)
    return TorusGroup(convention, table)


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

    The table depends on the seam twist alone, so each seam model is
    built, verified and anchored once, and its report stands for every
    one of the 16 conventions using it.  A seam model that fails
    verification leaves its conventions out of the reports.  If several
    match, all are reported and the first in enum order is frozen; if
    none match, NoConventionMatches is raised.
    """
    by_seam: Dict[SeamTwist, AnchorReport] = {}
    for seam in SeamTwist:
        try:
            by_seam[seam] = _anchors(build_group(Convention(seam_twist=seam)))
        except ConventionInconsistent:
            pass
    reports = {conv: by_seam[conv.seam_twist] for conv in all_conventions()
               if conv.seam_twist in by_seam}
    matches = [conv for conv, rep in reports.items() if rep.matches]
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
