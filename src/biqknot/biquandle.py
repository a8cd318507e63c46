"""Finite long virtual biquandles over the group carrier.

Two binary operations are carried as full 64x64 tables: conjugation
x o y = y x y^-1 and twisted conjugation x * y = y^(n+1) x y^-(n+1),
together with their right divisions, in one stack indexed by table id
(table k's right division is table k ^ 2).  An optional unary map f
completes the structure; attached, it is table id 4, t[x, y] = f(x) for
every y.  ``audit`` sweeps every axiom over its full quantifier domain
and reports failures as data with counterexamples; nothing aborts, since
documenting which axioms a candidate f satisfies is part of the job.  A
counterexample is the first failing assignment in C order: the variables
as the report names them (x; x, y; a, b, c; x, a, b), each ranging over
element indexes k * 8 + l, the first varying slowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .group_words import format_normal
from .torus_group import (ALL_ELEMENTS, GRID, ORDER, GroupElement, TorusGroup,
                          _element, _index)


class MissingF(Exception):
    """Operation requires an f candidate but none is attached."""


# A compressed row index: row k lists values[indptr[k]:indptr[k + 1]].
Index = Tuple[np.ndarray, np.ndarray]


def _csr(keys: np.ndarray, values: np.ndarray, nkeys: int) -> Index:
    """Group ``values`` by ``keys``; each row keeps the values' order."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(nkeys + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=indptr[1:])
    return indptr, values[order].astype(np.intp)


class FKind(Enum):
    SUBSTITUTION = "substitution"   # a -> ab, b -> b, extended multiplicatively
    SHEAR = "shear"                 # a^k b^l -> a^k b^(k+l)
    TABLE = "table"                 # explicit user-supplied map


@dataclass(eq=False)
class FCandidate:
    """A candidate unary map with its audited verdicts.

    ``table`` maps element index -> element index.  Verdicts are
    definitive sweeps over the full domain; witnesses are first failures
    in scan order.  Candidates compare by identity.
    """

    kind: FKind
    name: str
    table: np.ndarray
    bijective: bool
    multiplicative: bool
    mult_witness: Optional[Tuple[GroupElement, GroupElement]]
    collision_witness: Optional[Tuple[GroupElement, GroupElement]]
    patched_entries: Tuple[Tuple[GroupElement, GroupElement], ...] = ()

    def __call__(self, x: GroupElement) -> GroupElement:
        return _element(int(self.table[_index(*x)]))

    def preimages(self, y: GroupElement) -> Tuple[GroupElement, ...]:
        hits = np.nonzero(self.table == _index(*y))[0]
        return tuple(_element(int(i)) for i in hits)

    def summary(self) -> str:
        bits = [self.name,
                "bijective" if self.bijective else "not bijective",
                "multiplicative" if self.multiplicative
                else "not multiplicative"]
        if self.patched_entries:
            bits.append(f"{len(self.patched_entries)} patched entry(ies)")
        return "; ".join(bits)


def _audit_candidate(group: TorusGroup, kind: FKind, name: str,
                     table: np.ndarray,
                     patched: Tuple[Tuple[GroupElement, GroupElement], ...] = (),
                     ) -> FCandidate:
    first = np.full(ORDER, ORDER)  # first[v]: the first index mapped to v
    np.minimum.at(first, table, np.arange(ORDER))
    repeats = np.nonzero(first[table] != np.arange(ORDER))[0]
    collision = None
    if len(repeats):
        i = int(repeats[0])
        collision = (_element(int(first[table[i]])), _element(i))
    m = group.mul_table
    bad = _first_bad(table[m] != m[table[:, None], table[None, :]])  # f(gh), f(g) f(h)
    mult_witness = None if bad is None else (_element(bad[0]), _element(bad[1]))
    return FCandidate(kind=kind, name=name, table=table,
                      bijective=collision is None,
                      multiplicative=mult_witness is None,
                      mult_witness=mult_witness,
                      collision_witness=collision,
                      patched_entries=patched)


def make_f(group: TorusGroup, kind: FKind,
           table: Optional[Dict[GroupElement, GroupElement]] = None,
           name: Optional[str] = None) -> FCandidate:
    """Build and audit one f candidate.

    SUBSTITUTION sends a^k b^l to (ab)^k b^l, which is total on normal
    forms but need not be injective or multiplicative; SHEAR is the
    bijection (k, l) -> (k, k + l); TABLE validates an explicit map.
    All defects are verdicts on the returned candidate, never errors.
    """
    if kind is FKind.SUBSTITUTION:
        ab = group.mul(group.generator_a, group.generator_b)
        ab_pow = np.array([_index(*group.power(ab, k)) for k in range(GRID)])
        # b^l is the normal form (0, l), whose index is l
        k, l = np.divmod(np.arange(ORDER), GRID)
        arr = group.mul_table[ab_pow[k], l].astype(np.int64)
        return _audit_candidate(group, kind, name or "substitution", arr)
    if kind is FKind.SHEAR:
        k, l = np.divmod(np.arange(ORDER), 8)
        return _audit_candidate(group, kind, name or "shear", k * 8 + (k + l) % 8)
    if kind is FKind.TABLE:
        if table is None:
            raise ValueError("explicit-table candidate requires a table")
        if set(table) != set(ALL_ELEMENTS):
            missing = sorted(set(ALL_ELEMENTS) - set(table))
            shown = ", ".join(map(format_normal, missing[:3]))
            more = ", ..." if len(missing) > 3 else ""
            raise ValueError(f"table must cover all 64 elements; "
                             f"{len(missing)} missing: {shown}{more}")
        arr = np.empty(ORDER, dtype=np.int64)
        for g, img in table.items():
            arr[_index(*g)] = _index(*img)
        return _audit_candidate(group, kind, name or "table", arr)
    raise ValueError(f"unknown f kind: {kind}")


# The four operation tables, by table id: table k's right division is
# table k ^ 2.  Table id _F holds the attached f as t[x, y] = f(x).
_OP_NAMES: Tuple[str, ...] = ("circ", "star", "circ_div", "star_div")
_F = 4


class SolveIndexes(NamedTuple):
    """For one table t: row x * 64 + z of ``over`` lists every y with
    t[x, y] = z; row z of ``diagonal`` every y with t[y, y] = z.  Rows are
    ascending.  Every y with t[x, y] = y is row x of the right division's
    ``diagonal``, since t[x, y] = y exactly when div[y, y] = x."""

    over: Index
    diagonal: Index


class Biquandle:
    """Carrier-indexed operation tables over a built group.

    ``tables`` stacks the four tables in ``_OP_NAMES`` order, so table
    k's right division is table k ^ 2, then the attached f as table 4
    (zero until one is attached).  ``flat`` holds the stack as bytes,
    entry (k * 64 + x) * 64 + y, for lookups by Python int.
    """

    def __init__(self, group: TorusGroup, n_twist: int):
        if n_twist < 1:
            raise ValueError("n_twist must be >= 1")
        self.group = group
        self.n_twist = n_twist
        circ = self._conjugation_table(1)
        star = self._conjugation_table(n_twist + 1)
        self.tables = np.stack([circ, star, _solve_division(circ),
                                _solve_division(star), np.zeros_like(circ)])
        self.flat = self.tables.astype(np.uint8).tobytes()
        self.f: Optional[FCandidate] = None
        self._solve_indexes: Dict[int, SolveIndexes] = {}

    def _conjugation_table(self, power: int) -> np.ndarray:
        """t[x, y] = y^p x y^-p, with y^p by square-and-multiply on all y."""
        m = self.group.mul_table
        ar = np.arange(ORDER)
        yp, base = np.full(ORDER, _index(0, 0)), ar
        while power:
            if power & 1:
                yp = m[yp, base]
            base = m[base, base]
            power >>= 1
        return m[m[yp[None, :], ar[:, None]], self.group.inv_table[yp][None, :]]

    def solve_indexes(self, k: int) -> SolveIndexes:
        """Indexes that solve t[x, y] = z for an unknown argument, t the
        table of id k (built once)."""
        if k not in self._solve_indexes:
            t = self.tables[k]
            ar = np.arange(ORDER)
            self._solve_indexes[k] = SolveIndexes(
                over=_csr((ar[:, None] * ORDER + t).ravel(),
                          np.tile(ar, ORDER), ORDER * ORDER),
                diagonal=_csr(t[ar, ar], ar, ORDER))
        return self._solve_indexes[k]

    def attach_f(self, candidate: FCandidate) -> "Biquandle":
        """Write f into table 4, and drop table 4's solve indexes."""
        self.f = candidate
        self.tables[_F] = candidate.table[:, None]
        self.flat = self.tables.astype(np.uint8).tobytes()
        self._solve_indexes.pop(_F, None)
        return self


def _solve_division(table: np.ndarray) -> np.ndarray:
    """Right division: div[x, y] is the unique z with table[z, y] = x."""
    ar = np.arange(ORDER)
    if not np.array_equal(np.sort(table, axis=0), np.tile(ar[:, None], (1, ORDER))):
        raise ValueError("operation is not right-invertible")
    div = np.empty((ORDER, ORDER), dtype=np.int64)
    div[table, ar[None, :]] = ar[:, None]
    return div


# -- axiom audit ----------------------------------------------------------------


@dataclass
class AxiomResult:
    axiom_id: str
    domain_size: int
    passed: bool
    skipped: bool = False
    skip_reason: str = ""
    counterexample: Optional[Dict[str, GroupElement]] = None

    def line(self) -> str:
        if self.skipped:
            return f"{self.axiom_id} domain={self.domain_size} SKIP ({self.skip_reason})"
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{self.axiom_id} domain={self.domain_size} {verdict}"
        if self.counterexample:
            cx = ", ".join(f"{k}={format_normal(v)}"
                           for k, v in self.counterexample.items())
            out += f" [{cx}]"
        return out


@dataclass
class AxiomReport:
    n_twist: int
    f_name: Optional[str]
    results: List[AxiomResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if not r.skipped)

    def failures(self) -> List[AxiomResult]:
        return [r for r in self.results if not r.skipped and not r.passed]

    def to_text(self) -> str:
        return "\n".join(r.line() for r in self.results)

    def to_json(self) -> Dict:
        return {
            "n_twist": self.n_twist,
            "f": self.f_name,
            "passed": self.passed,
            "axioms": [
                {
                    "id": r.axiom_id,
                    "domain": r.domain_size,
                    "passed": r.passed,
                    "skipped": r.skipped,
                    "skip_reason": r.skip_reason or None,
                    "counterexample": (
                        {k: format_normal(v)
                         for k, v in r.counterexample.items()}
                        if r.counterexample else None
                    ),
                }
                for r in self.results
            ],
        }


def _first_bad(mask_bad: np.ndarray) -> Optional[Tuple[int, ...]]:
    """Index of the first True entry in C order, or None."""
    i = int(mask_bad.argmax())
    if not mask_bad.flat[i]:
        return None
    return tuple(int(t) for t in np.unravel_index(i, mask_bad.shape))


def _sweep(axiom_id: str, names: str, lhs: np.ndarray,
           rhs: np.ndarray) -> AxiomResult:
    """Check lhs == rhs over their broadcast domain, one axis per variable
    in ``names``; a failure carries the first mismatch in C order."""
    mask_bad = lhs != rhs
    bad = _first_bad(mask_bad)
    return AxiomResult(
        axiom_id, mask_bad.size, bad is None,
        counterexample=None if bad is None else
        {name: _element(i) for name, i in zip(names, bad)})


def audit(bq: Biquandle) -> AxiomReport:
    """Exhaustive axiom sweep; failures carry the first counterexample."""
    report = AxiomReport(n_twist=bq.n_twist,
                         f_name=bq.f.name if bq.f else None)
    res = report.results
    rng = np.arange(ORDER)
    # uint8 copies: the sweeps' 64^3 temporaries stay small enough for the
    # allocator to reuse instead of returning them to the OS every sweep.
    tab = dict(zip(_OP_NAMES, bq.tables[:_F].astype(np.uint8)))

    for opname in ("circ", "star"):
        t = tab[opname]
        res.append(_sweep(f"idempotence-{opname}", "x", t[rng, rng], rng))

    for opname in ("circ", "star"):
        t, d = tab[opname], tab[opname + "_div"]
        res.append(_sweep(f"right-invert-{opname}-div-after", "xy",
                          d[t, rng[None, :]], rng[:, None]))
        res.append(_sweep(f"right-invert-{opname}-div-before", "xy",
                          t[d, rng[None, :]], rng[:, None]))

    # (a <> b) <*> c = (a <*> c) <> (b <*> c) for all 16 operation pairs
    for dia in _OP_NAMES:
        td = tab[dia]
        for bullet in _OP_NAMES:
            tb = tab[bullet]
            res.append(_sweep(f"self-distributivity-{dia}-over-{bullet}", "abc",
                              tb[td[:, :, None], rng[None, None, :]],
                              td[tb[:, None, :], tb[None, :, :]]))

    if bq.f is None:
        for opname in ("circ", "star"):
            res.append(AxiomResult(f"f-equivariance-{opname}", ORDER * ORDER,
                                   True, skipped=True,
                                   skip_reason="no f attached"))
        res.append(AxiomResult("f-roundtrip", ORDER, True, skipped=True,
                               skip_reason="no f attached"))
    else:
        f8 = bq.f.table.astype(np.uint8)
        for opname in ("circ", "star"):
            t = tab[opname]
            res.append(_sweep(f"f-equivariance-{opname}", "ab",
                              f8[t], t[f8[:, None], f8[None, :]]))
        # f has a two-sided inverse exactly when no two elements collide
        witness = bq.f.collision_witness
        res.append(AxiomResult("f-roundtrip", ORDER, witness is None,
                               counterexample=None if witness is None
                               else dict(zip("xy", witness))))

    for dia in _OP_NAMES:
        td = tab[dia]
        for label, left_inner, right_inner in (
                (f"strange-I-{dia}", tab["circ"], tab["star"]),
                (f"strange-II-{dia}", tab["circ_div"], tab["star_div"])):
            res.append(_sweep(label, "xab",
                              td[rng[:, None, None], left_inner[None, :, :]],
                              td[rng[:, None, None], right_inner[None, :, :]]))

    return report
