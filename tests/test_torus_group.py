import itertools

import numpy as np
import pytest

import oracle
from biqknot import torus_group
from biqknot.group_words import eval_text
from biqknot.torus_group import (
    ALL_ELEMENTS,
    ORDER,
    ColPhase,
    CompositionOrder,
    Convention,
    ConventionInconsistent,
    GroupElement,
    ParityReport,
    RowPhase,
    SeamTwist,
    TorusGroup,
    Vertex,
    _anchors,
    _index,
    _stated_parity_value,
    _verify_group,
    all_conventions,
    build_group,
    calibrate_convention,
)

E = GroupElement(0, 0)
A = GroupElement(1, 0)
B = GroupElement(0, 1)


def twisted_law(g, h, twist=True):
    # independent closed-form oracle for the calibrated multiplication;
    # twist=False is the flat law
    k, l = g
    m, n = h
    kk = (k + m * (-1) ** l) % 8
    ll = (l * (-1) ** m + n + (4 if (twist and l % 2 and m % 2) else 0)) % 8
    return GroupElement(kk, ll)


def test_calibration_freezes_first_twisted_variant():
    cal = calibrate_convention()
    assert cal.convention == Convention(
        CompositionOrder.WORD, RowPhase.EVEN_RIGHT, ColPhase.EVEN_UP,
        SeamTwist.CENTRAL_B4)
    # all eight twisted variants match, none of the flat ones do
    assert len(cal.matches) == 8
    assert all(c.seam_twist is SeamTwist.CENTRAL_B4 for c in cal.matches)
    flat = [c for c in all_conventions() if c.seam_twist is SeamTwist.FLAT]
    for c in flat:
        assert not cal.reports[c].matches


def test_flat_model_misses_the_anchors():
    # the literal path model yields the swapped products and a different
    # conjugated value; this is the negative control for the seam twist
    cal = calibrate_convention()
    rep = cal.reports[Convention(seam_twist=SeamTwist.FLAT)]
    assert rep.a_comm == GroupElement(3, 6)
    assert rep.comm_a == GroupElement(3, 2)
    assert rep.alpha == GroupElement(7, 2)


def test_order_and_unique_normal_forms(group):
    assert len(group) == 64
    assert len(set(group.elements)) == 64
    # normal form <-> vertex is a bijection
    verts = {group.vertex_of(g) for g in ALL_ELEMENTS}
    assert len(verts) == 64
    for g in ALL_ELEMENTS:
        assert oracle.element_at(group, group.vertex_of(g)) == g


def test_word_a_lands_on_vertex_1_0(group):
    # lowest row oriented right: the first a-step moves +x
    assert group.vertex_of(group.generator_a) == Vertex(1, 0)


def test_identity_laws(group):
    for g in ALL_ELEMENTS:
        assert group.mul(E, g) == g
        assert group.mul(g, E) == g


def test_inverse_laws(group):
    for g in ALL_ELEMENTS:
        gi = group.inv(g)
        assert group.mul(g, gi) == E
        assert group.mul(gi, g) == E
    assert group.inv(E) == E
    assert group.inv(A) == GroupElement(7, 0)
    assert group.inv(GroupElement(3, 2)) == GroupElement(5, 2)


def test_associativity_exhaustive(group):
    t = group.mul_table
    assert np.array_equal(t[t], t[:, t])


def test_regular_action(group):
    t = group.mul_table
    ar = np.arange(ORDER)
    for i in range(ORDER):
        assert np.array_equal(np.sort(t[i]), ar)
        assert np.array_equal(np.sort(t[:, i]), ar)


def test_multiplication_matches_closed_form_oracle(group):
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            assert group.mul(g, h) == twisted_law(g, h)


def test_generator_orders(group):
    assert group.order_of(A) == 8
    assert group.order_of(B) == 8
    assert group.order_of(E) == 1
    assert group.order_of(group.mul(A, B)) == 4


def test_simple_products(group):
    assert group.mul(GroupElement(3, 0), GroupElement(0, 2)) == GroupElement(3, 2)
    assert group.mul(B, A) == GroupElement(7, 3)
    assert group.power(B, 8) == E
    assert group.power(B, -2) == group.power(B, 6)


def test_commutator_basics(group):
    for g in ALL_ELEMENTS[::7]:
        assert group.commutator(g, g) == E
        assert group.commutator(g, E) == E
    assert group.commutator(A, B) == GroupElement(2, 2)


def test_known_noncentral_commutator_products(group):
    comm = group.commutator(A, B)
    left = group.mul(A, comm)
    right = group.mul(comm, A)
    assert left == GroupElement(3, 2)
    assert right == GroupElement(3, 6)
    assert left != right
    assert not group.is_central(comm)


def test_square_commutators_are_central(group):
    center = group.center()
    found_nontrivial = False
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            c = group.commutator(x, group.mul(y, y))
            assert c in center
            if c != E:
                found_nontrivial = True
    assert found_nontrivial
    assert group.commutator(A, group.mul(B, B)) == GroupElement(0, 4)


def test_center_golden(group):
    assert group.center() == frozenset({
        GroupElement(0, 0), GroupElement(4, 0),
        GroupElement(0, 4), GroupElement(4, 4)})


def test_parity_report(group):
    rep = group.parity_table()
    assert rep.all_constant
    assert rep.all_central
    assert rep.has_nontrivial
    assert rep.mismatches == []
    a4 = frozenset({GroupElement(4, 0)})
    b4 = frozenset({GroupElement(0, 4)})
    ident = frozenset({E})
    for key in itertools.product((0, 1), repeat=4):
        pi, pj, pk, pl = key
        if pi == 1 and pj == 0 and pl == 1:
            assert rep.value_of(key) == a4
        elif pi == 0 and pj == 1 and pk == 1:
            assert rep.value_of(key) == b4
        else:
            assert rep.value_of(key) == ident


def test_every_convention_builds_a_group():
    for conv in all_conventions():
        g = build_group(conv)
        assert len(g) == 64
        t = g.mul_table
        assert np.array_equal(t[t], t[:, t])


def test_flat_group_has_involutive_ab():
    g = build_group(Convention(seam_twist=SeamTwist.FLAT))
    ab = g.mul(A, B)
    assert g.order_of(ab) == 2


def test_power_is_iterated_multiplication(group):
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = ALL_ELEMENTS[rng.integers(0, 64)]
        n = int(rng.integers(-16, 17))
        acc = E
        step = g if n >= 0 else group.inv(g)
        for _ in range(abs(n)):
            acc = group.mul(acc, step)
        assert group.power(g, n) == acc


@pytest.mark.parametrize("conv", all_conventions(), ids=Convention.describe)
def test_every_convention_matches_closed_form_law(conv):
    g = build_group(conv)
    twist = conv.seam_twist is SeamTwist.CENTRAL_B4
    expected = np.array([[_index(*twisted_law(x, y, twist)) for y in ALL_ELEMENTS]
                         for x in ALL_ELEMENTS])
    assert np.array_equal(g.mul_table, expected)
    assert g.mul_table.dtype == np.int64   # verification reads a uint8 copy
    # the grid walk of this convention gives the same table and vertices
    walked, vertex_of = oracle.grid_walk(conv)
    assert np.array_equal(g.mul_table, walked)
    assert g.mul_table.dtype == walked.dtype
    assert {x: g.vertex_of(x) for x in ALL_ELEMENTS} == vertex_of
    for x, v in vertex_of.items():
        assert oracle.element_at(g, v) == x
    assert eval_text("b^-2", g) == GroupElement(0, 6)
    ar = np.arange(ORDER)
    assert np.array_equal(g.mul_table[ar, g.inv_table], np.zeros(ORDER))


def _parity_report_by_loop(group):
    """The pairwise sweep the table gather replaced."""
    center = group.center()
    values = {}
    has_nontrivial, all_central = False, True
    for y in ALL_ELEMENTS:
        y2 = group.mul(y, y)
        for w in ALL_ELEMENTS:
            a_val = group.commutator(w, y2)
            key = (y.k % 2, y.l % 2, w.k % 2, w.l % 2)
            values.setdefault(key, set()).add(a_val)
            has_nontrivial |= a_val != E
            all_central &= a_val in center
    frozen = {key: frozenset(vals) for key, vals in values.items()}
    mismatches = []
    for key, vals in sorted(frozen.items()):
        stated = _stated_parity_value(key)
        if vals != frozenset({stated}):
            mismatches.append((key, vals, stated))
    return ParityReport(
        values=frozen,
        all_constant=all(len(vals) == 1 for vals in frozen.values()),
        all_central=all_central, has_nontrivial=has_nontrivial,
        mismatches=mismatches)


def test_parity_report_matches_loop(group):
    groups = [group]
    for conv in all_conventions()[::4]:
        try:
            groups.append(build_group(conv))
        except ConventionInconsistent:
            pass
    # a relabeled copy (identity kept at index 0) breaks the pattern
    rng = np.random.default_rng(5)
    sigma = np.concatenate([[0], 1 + rng.permutation(ORDER - 1)])
    relabeled = np.empty_like(group.mul_table)
    relabeled[sigma[:, None], sigma[None, :]] = sigma[group.mul_table]
    groups.append(TorusGroup(group.convention, relabeled))
    assert groups[-1].parity_table().mismatches
    for g in groups:
        rep = g.parity_table()
        assert rep == _parity_report_by_loop(g)
        assert list(rep.values) == sorted(rep.values)


# -- calibration: one verification per distinct table --------------------------


def _calibrate_per_variant():
    """Reference sweep: build, verify and anchor every variant separately."""
    reports, matches = {}, []
    for conv in all_conventions():
        try:
            rep = _anchors(build_group(conv))
        except ConventionInconsistent:
            continue
        reports[conv] = rep
        if rep.matches:
            matches.append(conv)
    return matches, reports


def test_calibration_equals_per_variant_reference():
    matches, reports = _calibrate_per_variant()
    cal = calibrate_convention()
    assert cal.convention == matches[0]
    assert cal.matches == matches
    assert list(cal.reports) == list(reports)
    assert len(cal.reports) == 16
    for conv, rep in reports.items():
        assert cal.reports[conv] == rep, conv.describe()


def test_calibration_verifies_each_distinct_table_once(monkeypatch):
    distinct = {oracle.grid_walk(conv)[0].tobytes() for conv in all_conventions()}
    assert len(distinct) == 2
    calls = []

    def spy(table, convention):
        calls.append((table.tobytes(), convention.seam_twist))
        return _verify_group(table, convention)

    monkeypatch.setattr(torus_group, "_verify_group", spy)
    calibrate_convention()
    # once per seam model, on the walk's two distinct tables
    assert sorted(seam.value for _, seam in calls) == sorted(
        seam.value for seam in SeamTwist)
    assert sorted(table for table, _ in calls) == sorted(distinct)


def _cyclic_table():
    """Z/64 with element i at index i: a group in which b has order 64."""
    ar = np.arange(ORDER)
    return (ar[:, None] + ar[None, :]) % ORDER


def _loop_table():
    """Z/64 with one intercalate swapped: a Latin square with identity 0
    that is not associative."""
    t = _cyclic_table()
    t[[1, 1, 33, 33], [2, 34, 2, 34]] = t[[1, 1, 33, 33], [34, 2, 34, 2]]
    return t


def test_calibration_skips_a_variant_that_fails_verification(monkeypatch):
    matches, reports = _calibrate_per_variant()
    law = torus_group._law

    def patched(seam):
        return _loop_table() if seam is SeamTwist.FLAT else law(seam)

    monkeypatch.setattr(torus_group, "_law", patched)
    cal = calibrate_convention()
    flat = [c for c in all_conventions() if c.seam_twist is SeamTwist.FLAT]
    assert len(flat) == 8
    for conv in flat:
        assert conv not in cal.reports
        del reports[conv]
    assert cal.reports == reports
    assert list(cal.reports) == list(reports)
    assert cal.convention == Convention()
    assert cal.matches == matches and len(cal.matches) == 8


# -- _verify_group rejections ----------------------------------------------------


def _rejection(table):
    with pytest.raises(ConventionInconsistent) as err:
        _verify_group(table, Convention())
    return str(err.value)


def test_verify_rejects_a_non_neutral_identity(group):
    t = group.mul_table.copy()
    t[[0, 1]] = t[[1, 0]]           # still a Latin square
    assert _rejection(t) == "identity is not two-sided neutral"


def test_verify_rejects_non_permutation_translations(group):
    t = group.mul_table.copy()
    t[5, 6] = t[5, 7]
    assert _rejection(t) == "translations are not permutations"
    t = group.mul_table.copy()
    t[5, 6] += 256                  # out of range, but equal after a uint8 cast
    assert _rejection(t) == "translations are not permutations"


def _first_non_associative_triple(t):
    """int64 oracle: the lexicographically first (i, j, k), (ij)k != i(jk)."""
    for i in range(ORDER):
        bad = np.argwhere(t[t[i]] != t[i][t])
        if len(bad):
            return (i, *(int(x) for x in bad[0]))
    return None


def test_verify_rejects_non_associativity_with_first_witness():
    t = _loop_table()
    witness = _first_non_associative_triple(t)
    assert witness is not None
    assert _rejection(t) == f"associativity fails at triple {witness}"


def test_verify_rejects_a_generator_of_wrong_order():
    assert _rejection(_cyclic_table()) == (
        f"generator order 64 != 8 under {Convention().describe()}")
