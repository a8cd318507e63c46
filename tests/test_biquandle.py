import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from biqknot.biquandle import (
    Biquandle,
    FKind,
    _solve_division,
    MissingF,
    audit,
    make_f,
)
from biqknot.coloring import select_f_candidate
from biqknot.group_words import eval_text
from biqknot.torus_group import (ALL_ELEMENTS, GroupElement, _index,
                                 all_conventions, build_group)


@pytest.fixture(scope="module")
def bq2(group):
    return Biquandle(group, 2)


def test_idempotence(bq2):
    for x in ALL_ELEMENTS:
        assert oracle.circ(bq2, x, x) == x
        assert oracle.star(bq2, x, x) == x


def test_operation_goldens(group, bq2):
    a, b = group.generator_a, group.generator_b
    assert oracle.star(bq2, a, b) == eval_text("b^3 a b^-3", group) == GroupElement(7, 6)
    assert oracle.circ(bq2, a, b) == eval_text("b a b^-1", group) == GroupElement(7, 2)
    for x in ALL_ELEMENTS[::5]:
        assert oracle.circ(bq2, x, group.identity) == x
        assert oracle.star(bq2, x, group.identity) == x


def test_divisions_invert(bq2):
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS[::7]:
            assert oracle.circ_div(bq2, oracle.circ(bq2, x, y), y) == x
            assert oracle.circ(bq2, oracle.circ_div(bq2, x, y), y) == x
            assert oracle.star_div(bq2, oracle.star(bq2, x, y), y) == x
            assert oracle.star(bq2, oracle.star_div(bq2, x, y), y) == x


def test_left_translations_are_permutations(bq2):
    for t in bq2.tables[:2]:
        for y in range(64):
            assert len(set(int(v) for v in t[:, y])) == 64


def test_star_differs_from_circ_by_central_factor(group, bq2):
    center = group.center()
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            d = group.mul(oracle.star(bq2, x, y), group.inv(oracle.circ(bq2, x, y)))
            assert d in center


def test_audit_passes_on_twist_two(bq2):
    report = audit(bq2)
    by_id = {r.axiom_id: r for r in report.results}
    assert by_id["idempotence-circ"].passed
    assert by_id["idempotence-star"].passed
    for opname in ("circ", "star"):
        assert by_id[f"right-invert-{opname}-div-after"].passed
        assert by_id[f"right-invert-{opname}-div-before"].passed
    ops = ("circ", "star", "circ_div", "star_div")
    for dia in ops:
        for bullet in ops:
            r = by_id[f"self-distributivity-{dia}-over-{bullet}"]
            assert r.passed and r.domain_size == 64 ** 3
    for dia in ops:
        assert by_id[f"strange-I-{dia}"].passed
        assert by_id[f"strange-II-{dia}"].passed
    # no f attached: f axioms are skipped with a reason, not failed
    assert by_id["f-equivariance-circ"].skipped
    assert by_id["f-roundtrip"].skipped
    assert report.passed


def test_twist_one_breaks_strange_relations(group):
    bq1 = Biquandle(group, 1)
    report = audit(bq1)
    failures = {r.axiom_id: r for r in report.failures()}
    strange = [r for rid, r in failures.items() if rid.startswith("strange")]
    assert strange
    r = strange[0]
    cx = r.counterexample
    assert cx is not None
    # the counterexample really violates the relation
    x, a, b = cx["x"], cx["a"], cx["b"]
    opname = r.axiom_id.split("-")[-1]
    if r.axiom_id.startswith("strange-I"):
        lhs = oracle.op(bq1, opname, x, oracle.circ(bq1, a, b))
        rhs = oracle.op(bq1, opname, x, oracle.star(bq1, a, b))
    else:
        lhs = oracle.op(bq1, opname, x, oracle.circ_div(bq1, a, b))
        rhs = oracle.op(bq1, opname, x, oracle.star_div(bq1, a, b))
    assert lhs != rhs
    # conjugation-type axioms still hold
    by_id = {r.axiom_id: r for r in report.results}
    assert by_id["idempotence-star"].passed
    assert by_id["self-distributivity-star-over-star"].passed


def test_substitution_candidate_verdicts(group):
    cand = make_f(group, FKind.SUBSTITUTION)
    assert not cand.bijective
    # first collision in scan order: a^2 maps to (ab)^2 = b^4 = f(b^4)
    assert cand.collision_witness == (GroupElement(0, 4), GroupElement(2, 0))
    assert not cand.multiplicative
    assert cand.mult_witness == (GroupElement(0, 1), GroupElement(1, 0))
    # known values
    assert cand(GroupElement(1, 7)) == GroupElement(1, 0)
    assert cand(GroupElement(1, 1)) == GroupElement(1, 2)
    assert cand(GroupElement(0, 1)) == GroupElement(0, 1)
    # image is the 16 elements (ab)^k b^l
    assert len({tuple(cand(g)) for g in ALL_ELEMENTS}) == 16


def test_substitution_table_is_the_word_map():
    # a^k b^l -> (ab)^k b^l, element by element, on every convention's group
    for conv in all_conventions():
        g = build_group(conv)
        ab, b = g.mul(g.generator_a, g.generator_b), g.generator_b
        expected = [_index(*g.mul(g.power(ab, x.k), g.power(b, x.l)))
                    for x in ALL_ELEMENTS]
        table = make_f(g, FKind.SUBSTITUTION).table
        assert table.dtype == np.int64
        assert table.tolist() == expected, conv.describe()


def test_substitution_witnesses_check_out(group):
    cand = make_f(group, FKind.SUBSTITUTION)
    g, h = cand.mult_witness
    assert cand(group.mul(g, h)) != group.mul(cand(g), cand(h))
    x, y = cand.collision_witness
    assert x != y and cand(x) == cand(y)


def test_shear_candidate_verdicts(group):
    cand = make_f(group, FKind.SHEAR)
    assert cand.bijective
    assert not cand.multiplicative
    assert cand.mult_witness == (GroupElement(0, 1), GroupElement(1, 0))
    for g in ALL_ELEMENTS:
        assert cand(g) == GroupElement(g.k, (g.k + g.l) % 8)


def test_substitution_cannot_preserve_orders(group):
    # a multiplicative bijection preserves element orders; the image of
    # a has order 4 while a has order 8, so the verdicts must reflect
    # that at least one property fails
    cand = make_f(group, FKind.SUBSTITUTION)
    a = group.generator_a
    assert group.order_of(a) == 8
    assert group.order_of(cand(a)) == 4
    assert not (cand.bijective and cand.multiplicative)


def test_shear_preserves_generator_images(group):
    cand = make_f(group, FKind.SHEAR)
    a, b = group.generator_a, group.generator_b
    assert cand(a) == group.mul(a, b)
    assert cand(b) == b


def test_explicit_identity_table_passes_f_axioms(group, bq):
    ident = make_f(group, FKind.TABLE,
                   table={g: g for g in ALL_ELEMENTS}, name="identity")
    assert ident.bijective and ident.multiplicative
    bq_id = Biquandle(group, 2).attach_f(ident)
    report = audit(bq_id)
    by_id = {r.axiom_id: r for r in report.results}
    assert by_id["f-equivariance-circ"].passed
    assert by_id["f-equivariance-star"].passed
    assert by_id["f-roundtrip"].passed
    assert report.passed


def test_audit_fails_f_axioms_for_substitution(group):
    cand = make_f(group, FKind.SUBSTITUTION)
    bq_sub = Biquandle(group, 2).attach_f(cand)
    report = audit(bq_sub)
    by_id = {r.axiom_id: r for r in report.results}
    assert not by_id["f-equivariance-circ"].passed
    assert not by_id["f-roundtrip"].passed
    assert not report.passed
    # counterexample validates against the tables
    cx = by_id["f-equivariance-circ"].counterexample
    a, b = cx["a"], cx["b"]
    assert cand(oracle.circ(bq_sub, a, b)) != oracle.circ(bq_sub, cand(a), cand(b))


def test_audit_is_deterministic(group):
    cand = make_f(group, FKind.SUBSTITUTION)
    r1 = audit(Biquandle(group, 2).attach_f(cand))
    r2 = audit(Biquandle(group, 2).attach_f(cand))
    assert r1.to_text() == r2.to_text()
    assert r1.to_json() == r2.to_json()


def test_apply_f_and_missing_f(group, bq2):
    with pytest.raises(MissingF):
        oracle.apply_f(bq2, "fwd", GroupElement(0, 0))
    shear = make_f(group, FKind.SHEAR)
    b = Biquandle(group, 2).attach_f(shear)
    x = GroupElement(3, 1)
    assert oracle.apply_f(b, "inv", oracle.apply_f(b, "fwd", x)) == x
    assert oracle.apply_f(b, "fwd", group.generator_b) == group.generator_b
    sub = Biquandle(group, 2).attach_f(make_f(group, FKind.SUBSTITUTION))
    with pytest.raises(ValueError):
        oracle.apply_f(sub, "inv", x)
    assert set(sub.f.preimages(GroupElement(1, 0))) >= {GroupElement(1, 7)}


def test_report_serialization(group):
    bq1 = Biquandle(group, 1)
    report = audit(bq1)
    text = report.to_text()
    lines = text.splitlines()
    assert len(lines) == len(report.results)
    assert any("FAIL" in ln for ln in lines)
    assert any("SKIP" in ln for ln in lines)
    payload = report.to_json()
    assert payload["n_twist"] == 1
    assert payload["passed"] is False
    assert len(payload["axioms"]) == len(report.results)
    failing = [ax for ax in payload["axioms"]
               if not ax["passed"] and not ax["skipped"]]
    assert all(ax["counterexample"] for ax in failing)


def test_make_f_table_requires_full_domain(group):
    with pytest.raises(ValueError):
        make_f(group, FKind.TABLE, table={GroupElement(0, 0): GroupElement(0, 0)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tables_match_elementwise_conjugation(group, n):
    # loop oracle: x o y = y x y^-1, x * y = y^(n+1) x y^-(n+1)
    bq = Biquandle(group, n)
    for p, table, div in ((1, bq.tables[0], bq.tables[2]),
                          (n + 1, bq.tables[1], bq.tables[3])):
        expected = np.empty((64, 64), dtype=np.int64)
        expected_div = np.empty((64, 64), dtype=np.int64)
        for y in ALL_ELEMENTS:
            yp = group.power(y, p)
            ypi = group.inv(yp)
            for x in ALL_ELEMENTS:
                z = group.mul(group.mul(yp, x), ypi)
                expected[_index(*x), _index(*y)] = _index(*z)
                expected_div[_index(*z), _index(*y)] = _index(*x)
        assert np.array_equal(table, expected)
        assert np.array_equal(div, expected_div)


def test_division_rejects_non_invertible_table():
    table = np.tile(np.arange(64)[:, None], (1, 64))
    table[5, 9] = 6  # column 9 now hits 6 twice and misses 5
    with pytest.raises(ValueError, match="not right-invertible"):
        _solve_division(table)


def _row(index, k):
    indptr, values = index
    return values[indptr[k]:indptr[k + 1]].tolist()


def test_solve_indexes_list_every_solution(group, bq):
    for k in (0, 1):                                   # circ, star
        t = bq.tables[k].tolist()
        idx = bq.solve_indexes(k)
        assert bq.solve_indexes(k) is idx              # built once
        for x in range(64):
            for z in range(64):
                assert _row(idx.over, x * 64 + z) == \
                    [y for y in range(64) if t[x][y] == z]
            assert _row(bq.solve_indexes(k ^ 2).diagonal, x) == \
                [y for y in range(64) if t[x][y] == y]
            assert _row(idx.diagonal, x) == [y for y in range(64) if t[y][y] == x]
    # table 4 is f, t[x, y] = f(x): its diagonal index lists preimages
    pre = bq.solve_indexes(4).diagonal
    for y in ALL_ELEMENTS:
        assert [ALL_ELEMENTS[i] for i in _row(pre, _index(*y))] == \
            list(bq.f.preimages(y))


def test_operation_diagonals_are_the_identity(group):
    # idempotence: an R1 kink's t[y, y] = z on an operation table solves
    # to y = z alone, so it never fans out
    for n in range(1, 8):
        bq = Biquandle(group, n)
        for k in range(4):
            diagonal = bq.solve_indexes(k).diagonal
            for z in range(64):
                assert _row(diagonal, z) == [z], (n, k, z)


def test_f_roundtrip_is_the_collision_verdict(group):
    # f has a two-sided inverse exactly when it is injective: the audit's
    # f-roundtrip line restates bijective and collision_witness
    rng = np.random.default_rng(29)
    perm = rng.permutation(64)
    squashed = rng.integers(0, 64, size=64)
    candidates = [
        make_f(group, FKind.SHEAR),
        make_f(group, FKind.SUBSTITUTION),
        select_f_candidate(group, 2),
        make_f(group, FKind.TABLE, name="permutation", table={
            g: ALL_ELEMENTS[perm[i]] for i, g in enumerate(ALL_ELEMENTS)}),
        make_f(group, FKind.TABLE, name="squashed", table={
            g: ALL_ELEMENTS[squashed[i]] for i, g in enumerate(ALL_ELEMENTS)}),
    ]
    assert [c.bijective for c in candidates] == [True, False, False, True, False]
    rng64 = np.arange(64)
    for cand in candidates:
        inv = np.argsort(cand.table)
        assert cand.bijective == (np.array_equal(cand.table[inv], rng64)
                                  and np.array_equal(inv[cand.table], rng64))
        report = audit(Biquandle(group, 2).attach_f(cand))
        (roundtrip,) = [r for r in report.results if r.axiom_id == "f-roundtrip"]
        assert roundtrip.passed == cand.bijective, cand.name
        witness = cand.collision_witness
        assert roundtrip.counterexample == (
            None if witness is None else {"x": witness[0], "y": witness[1]})


def test_f_candidates_compare_by_identity(group):
    a, b = make_f(group, FKind.SHEAR), make_f(group, FKind.SHEAR)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_audit_text_golden(group):
    # full reports pinned line by line: every verdict, and every failure's
    # counterexample is the first mismatch in C order
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    candidates = {
        "n=1 f=shear": (1, make_f(group, FKind.SHEAR)),
        "n=2 f=calibrated": (2, select_f_candidate(group, 2)),
        "n=3 f=substitution": (3, make_f(group, FKind.SUBSTITUTION)),
    }
    assert set(candidates) == set(golden["audit"])
    for key, (n, cand) in candidates.items():
        report = audit(Biquandle(group, n).attach_f(cand))
        assert report.to_text().splitlines() == golden["audit"][key], key
