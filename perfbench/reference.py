"""Reference arithmetic for checking biqknot's outputs, written apart from it.

Elements of the order-64 group are indices ``8*k + l`` of normal forms
``a^k b^l``.  The group law is the closed form

    (k, l)(m, n) = (k + (-1)^l m, (-1)^m l + n + 4*[l odd and m odd])  (mod 8)

and everything else (inverses, powers, the biquandle operations for a
twist n, the f maps, diagram relations and the coloring searches) is
derived from it here.  Nothing in this module imports the program.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ORDER = 64
_K = np.arange(ORDER) // 8
_L = np.arange(ORDER) % 8


def idx(k: int, l: int) -> int:
    return (k % 8) * 8 + (l % 8)


A = idx(1, 0)
B = idx(0, 1)
E = idx(0, 0)


def _mul_table() -> np.ndarray:
    k, l = _K[:, None], _L[:, None]
    m, n = _K[None, :], _L[None, :]
    k2 = (k + np.where(l % 2, -m, m)) % 8
    l2 = (np.where(m % 2, -l, l) + n + 4 * ((l % 2) & (m % 2))) % 8
    return k2 * 8 + l2


MUL = _mul_table()
INV = np.argmax(MUL == E, axis=1)
NONCENTRAL = [int(x) for x in np.nonzero((MUL != MUL.T).any(axis=1))[0]]


def mul(*xs: int) -> int:
    acc = E
    for x in xs:
        acc = int(MUL[acc, x])
    return acc


def power(x: int, p: int) -> int:
    if p < 0:
        x, p = int(INV[x]), -p
    acc = E
    for _ in range(p):
        acc = int(MUL[acc, x])
    return acc


def conj_table(p: int) -> np.ndarray:
    """t[x, y] = y^p x y^-p."""
    yp = np.array([power(y, p) for y in range(ORDER)])
    return MUL[MUL[yp[None, :], np.arange(ORDER)[:, None]], INV[yp][None, :]]


def operations(n_twist: int) -> Dict[str, np.ndarray]:
    """x o y = y x y^-1, x * y = y^(n+1) x y^-(n+1), and their right divisions."""
    return {"circ": conj_table(1), "star": conj_table(n_twist + 1),
            "circ_div": conj_table(-1), "star_div": conj_table(-(n_twist + 1))}


def commutator(x: int, y: int) -> int:
    return mul(x, y, int(INV[x]), int(INV[y]))


def self_check() -> None:
    """Raise if the closed form misses the source paper's anchor products."""
    ab = mul(A, B)
    anchors = {
        "a[a,b] = a^3 b^2": (mul(A, commutator(A, B)), idx(3, 2)),
        "[a,b]a = a^3 b^6": (mul(commutator(A, B), A), idx(3, 6)),
        "(ab)^-3 a (ab)^3 = a^7 b^6": (mul(power(ab, -3), A, power(ab, 3)),
                                       idx(7, 6)),
    }
    for label, (got, want) in anchors.items():
        if got != want:
            raise AssertionError(f"reference law misses anchor {label}: "
                                 f"got {fmt(got)}")
    if not np.array_equal(MUL[MUL], MUL[:, MUL]):
        raise AssertionError("reference law is not associative")


# -- normal forms --------------------------------------------------------------


def fmt(x: int) -> str:
    """The normal-form spelling biqknot documents: 'e', 'a^3 b', 'b^7'."""
    k, l = divmod(x, 8)
    parts = []
    if k:
        parts.append("a" if k == 1 else f"a^{k}")
    if l:
        parts.append("b" if l == 1 else f"b^{l}")
    return " ".join(parts) or "e"


_NORMAL = re.compile(r"^(?:a(?:\^(\d))?)?\s*(?:b(?:\^(\d))?)?$")


def parse_normal(text: str) -> int:
    """Inverse of ``fmt``; raises ValueError on anything else."""
    text = text.strip()
    if text == "e":
        return E
    m = _NORMAL.match(text)
    if not m or not text:
        raise ValueError(f"not a normal form: {text!r}")
    k = int(m.group(1) or 1) if text.startswith("a") else 0
    l = int(m.group(2) or 1) if "b" in text else 0
    return idx(k, l)


# -- f maps --------------------------------------------------------------------


def reference_chain() -> Tuple[int, ...]:
    """(a, a b^-1, a^2 b^-1 a^-1, (ab)^2 a^-1, a b^2)."""
    ab = mul(A, B)
    a_inv, b_inv = int(INV[A]), int(INV[B])
    return (A, mul(A, b_inv), mul(A, A, b_inv, a_inv),
            mul(ab, ab, a_inv), mul(A, B, B))


def calibrated_f() -> np.ndarray:
    """The substitution a^k b^l -> (ab)^k b^l with the one entry the
    reference chain's second virtual pass needs, chain[2] -> chain[3]."""
    ab = mul(A, B)
    table = np.array([mul(power(ab, int(k)), power(B, int(l)))
                      for k, l in zip(_K, _L)])
    chain = reference_chain()
    table[chain[2]] = chain[3]
    return table


def is_bijective(table: np.ndarray) -> bool:
    return len(set(int(v) for v in table)) == ORDER


# -- diagrams --------------------------------------------------------------------

Token = Tuple[str, str, Optional[str]]          # kind 'O'/'U'/'V', id, sign
# ('C', op, in, out, over) or ('V', 'inv'|'fwd', in, out)
Relation = Tuple


def relations(tokens: Sequence[Token]) -> Tuple[List[Relation], int]:
    """Relations and arc count of a pass sequence.

    A new arc starts after every under and virtual pass.  A classical
    crossing uses 'circ' when its over pass comes first in traversal and
    'star' otherwise; the first visit to a virtual crossing reads
    f(out) = in ('inv'), the second f(in) = out ('fwd').
    """
    arc, over, first, visits, raw = 1, {}, {}, {}, []
    for kind, cid, _sign in tokens:
        if kind == "O":
            over[cid] = arc
            first.setdefault(cid, "O")
        elif kind == "U":
            first.setdefault(cid, "U")
            raw.append(("C", cid, arc, arc + 1))
            arc += 1
        else:
            visits[cid] = visits.get(cid, 0) + 1
            raw.append(("V", "inv" if visits[cid] == 1 else "fwd", arc, arc + 1))
            arc += 1
    rels: List[Relation] = []
    for r in raw:
        if r[0] == "C":
            op = "circ" if first[r[1]] == "O" else "star"
            rels.append(("C", op, r[2], r[3], over[r[1]]))
        else:
            rels.append(r)
    return rels, arc


def satisfied(rels: Sequence[Relation], ops: Dict[str, np.ndarray],
              f: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row mask of colorings (rows, arcs + 1; column 0 unused) obeying all relations."""
    ok = np.ones(len(cols), dtype=bool)
    for r in rels:
        if r[0] == "C":
            _, op, i, o, ov = r
            ok &= ops[op][cols[:, i], cols[:, ov]] == cols[:, o]
        elif r[1] == "fwd":
            ok &= f[cols[:, r[2]]] == cols[:, r[3]]
        else:
            ok &= f[cols[:, r[3]]] == cols[:, r[2]]
    return ok


class SearchTooLarge(Exception):
    """The traversal search would visit more than the allowed nodes."""


def traversal_search(rels: Sequence[Relation], m: int, start: int,
                     ops: Dict[str, np.ndarray], f: np.ndarray,
                     node_cap: int) -> Tuple[int, np.ndarray]:
    """Every coloring with arc 1 = start, found breadth-first in traversal order.

    Partial colorings are rows of one array.  A classical relation whose
    over-arc is still uncolored first branches 64 ways on it; an 'inv'
    virtual pass branches over the f-preimages.  Returns the number of
    search nodes (rows alive at each relation, summed), which is the size
    of the tree a depth-first traversal solver walks, and the colorings.
    """
    pre = [np.nonzero(f == v)[0].astype(np.uint8) for v in range(ORDER)]
    fan = np.array([len(p) for p in pre])
    rows = np.zeros((1, m + 1), dtype=np.uint8)
    rows[0, 1] = start
    known = {1}
    nodes = 0
    for r in rels:
        if r[0] == "C":
            _, op, i, o, ov = r
            if ov not in known:
                n = len(rows)
                if nodes + n * ORDER > node_cap:
                    raise SearchTooLarge(nodes + n * ORDER)
                rows = np.repeat(rows, ORDER, axis=0)
                rows[:, ov] = np.tile(np.arange(ORDER, dtype=np.uint8), n)
                known.add(ov)
            new = ops[op][rows[:, i], rows[:, ov]]
        else:
            _, direction, i, o = r
            if direction == "fwd":
                new = f[rows[:, i]]
            else:
                counts = fan[rows[:, i]]
                rows = np.repeat(rows, counts, axis=0)
                new = (np.concatenate([pre[v] for v in rows[:, i][_starts(counts)]])
                       if len(rows) else np.zeros(0, dtype=np.uint8))
        nodes += len(rows)
        if nodes > node_cap:
            raise SearchTooLarge(nodes)
        if o in known:
            rows = rows[rows[:, o] == new]
        else:
            rows[:, o] = new
            known.add(o)
    return nodes, np.unique(rows[:, 1:], axis=0)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Positions in a repeated array where each source row's run begins."""
    begins = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return begins[counts > 0]


BRUTE_FORCE_MAX_FREE = 3   # 64^3 assignments at most


def brute_force(rels: Sequence[Relation], m: int, start: int,
                ops: Dict[str, np.ndarray], f: np.ndarray) -> Optional[Tuple[int, frozenset]]:
    """Count and end colors by sweeping every assignment of arcs 2..m.

    Returns None when more than BRUTE_FORCE_MAX_FREE arcs are unpinned.
    """
    free = m - 1
    if free > BRUTE_FORCE_MAX_FREE:
        return None
    grid = np.indices((ORDER,) * free).reshape(free, -1).T
    cols = np.zeros((len(grid), m + 1), dtype=np.int64)
    cols[:, 1] = start
    cols[:, 2:] = grid
    ok = satisfied(rels, ops, f, cols)
    return int(ok.sum()), frozenset(int(v) for v in cols[ok, m])
