"""Acceptance suite: one test per criterion, every sweep at full domain.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from biqknot.biquandle import Biquandle, FKind, audit, make_f
from biqknot.coloring import (
    distinguish,
    reference_right_chain,
    select_f_candidate,
    solve,
)
from biqknot.diagram import builtin_trefoil, parse_diagram, serialize
from biqknot.group_words import eval_text, format_normal, parse_word, WordSyntaxError
from biqknot.torus_group import (
    ALL_ELEMENTS,
    ORDER,
    GroupElement,
    calibrate_convention,
)
from conftest import make_random_diagram

A = GroupElement(1, 0)
B = GroupElement(0, 1)


def test_criterion_1_group_construction(group):
    assert len(group) == 64
    t = group.mul_table
    ar = np.arange(ORDER)
    # regular action: left and right translations are permutations
    for i in range(ORDER):
        assert np.array_equal(np.sort(t[i]), ar)
        assert np.array_equal(np.sort(t[:, i]), ar)
    # element <-> vertex bijection
    assert len({group.vertex_of(g) for g in ALL_ELEMENTS}) == 64
    # associativity over all 64^3 triples
    assert np.array_equal(t[t], t[:, t])
    assert group.order_of(A) == 8
    assert group.order_of(B) == 8
    print("ACCEPTANCE 1 (group construction): PASS")


def test_criterion_2_noncentral_commutator(group):
    comm = group.commutator(A, B)
    left = group.mul(A, comm)
    right = group.mul(comm, A)
    assert left != right
    assert {left, right} == {GroupElement(3, 2), GroupElement(3, 6)}
    # calibrated assignment is the stated one, not the swap
    assert left == GroupElement(3, 2) and right == GroupElement(3, 6)
    print("ACCEPTANCE 2 (commutator products a^3 b^2 / a^3 b^6, "
          "unswapped): PASS")


def test_criterion_3_square_commutators_central(group):
    center = group.center()
    nontrivial = None
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            c = group.commutator(x, group.mul(y, y))
            assert c in center
            if c != group.identity and nontrivial is None:
                nontrivial = (x, y, c)
    assert nontrivial is not None
    print(f"ACCEPTANCE 3 (all [x, y^2] central; nontrivial witness "
          f"[{format_normal(nontrivial[0])}, ({format_normal(nontrivial[1])})^2]"
          f" = {format_normal(nontrivial[2])}): PASS")


def test_criterion_4_parity_table(group):
    rep = group.parity_table()
    assert rep.all_central
    assert rep.all_constant
    assert rep.has_nontrivial
    assert rep.mismatches == []
    print("ACCEPTANCE 4 (parity table central, constant, matches the "
          "stated pattern cell by cell, 0 errata): PASS")


def test_criterion_5_word_evaluations(group):
    alpha = eval_text("(ab)^-3 a (ab)^3", group)
    assert alpha == GroupElement(7, 6)
    beta_literal = eval_text("(ab^3)^3 (ab) (ab^3)^-3", group)
    beta_derived = eval_text("(ab^3)^3 (ab^2) (ab^3)^-3", group)
    assert alpha != beta_literal
    assert alpha != beta_derived
    print(f"ACCEPTANCE 5 (alpha = a^7 b^6 exactly; beta readings "
          f"{format_normal(beta_literal)} and {format_normal(beta_derived)}, "
          f"alpha != beta under both): PASS")


def test_criterion_6_right_trefoil_chain(group, bq):
    chain = reference_right_chain(group)
    expected = tuple(eval_text(w, group) for w in
                     ("a", "a b^-1", "a^2 b^-1 a^-1", "(ab)^2 a^-1", "a b^2"))
    assert chain == expected
    r = solve(builtin_trefoil("right"), bq, A)
    assert r.colorings == oracle.colorings(builtin_trefoil("right"), bq, A)
    assert chain in r.colorings
    print("ACCEPTANCE 6 (right trefoil admits the exact arc chain "
          "(a, a b^-1, a^2 b^-1 a^-1, (ab)^2 a^-1, a b^2)): PASS")


def test_criterion_7_left_trefoil_empty_and_distinguished(group, bq):
    end = eval_text("a b^2", group)
    pinned = solve(builtin_trefoil("left"), bq, A, end=end)
    brute = oracle.colorings(builtin_trefoil("left"), bq, A, end=end)
    assert pinned.count == 0 and len(brute) == 0
    assert pinned.colorings == brute == ()
    verdict = distinguish(builtin_trefoil("right"), builtin_trefoil("left"),
                          bq, A)
    assert verdict.verdict == "DISTINGUISHED"
    print("ACCEPTANCE 7 (left trefoil end-pinned empty via the solver and "
          "the brute-force oracle; "
          "DISTINGUISHED): PASS")


def test_criterion_8_axiom_audit(group):
    bq2 = Biquandle(group, 2)
    report = audit(bq2)
    by_id = {r.axiom_id: r for r in report.results}
    full = []
    for opname in ("circ", "star"):
        full.append(f"idempotence-{opname}")
        full.append(f"right-invert-{opname}-div-after")
        full.append(f"right-invert-{opname}-div-before")
    ops = ("circ", "star", "circ_div", "star_div")
    for dia in ops:
        for bullet in ops:
            full.append(f"self-distributivity-{dia}-over-{bullet}")
        full.append(f"strange-I-{dia}")
        full.append(f"strange-II-{dia}")
    for axiom_id in full:
        assert by_id[axiom_id].passed, axiom_id
    bq1 = Biquandle(group, 1)
    rep1 = audit(bq1)
    strange_failures = [r for r in rep1.failures()
                        if r.axiom_id.startswith("strange")]
    assert strange_failures
    cx = strange_failures[0].counterexample
    assert cx is not None
    print(f"ACCEPTANCE 8 (twist-2 axioms PASS on full domains; twist-1 "
          f"strange relations FAIL, e.g. {strange_failures[0].axiom_id} at "
          f"x={format_normal(cx['x'])}, a={format_normal(cx['a'])}, "
          f"b={format_normal(cx['b'])}): PASS")


def test_criterion_9_f_candidate_verdicts(group):
    runs = []
    for _ in range(2):
        sub = make_f(group, FKind.SUBSTITUTION)
        shear = make_f(group, FKind.SHEAR)
        table = select_f_candidate(group)
        runs.append(tuple(
            (c.name, c.bijective, c.multiplicative,
             c.mult_witness, c.collision_witness)
            for c in (sub, shear, table)))
    assert runs[0] == runs[1]  # stable across runs
    sub, shear, table = runs[0]
    assert sub[1] is False and sub[2] is False
    assert shear[1] is True and shear[2] is False
    assert table[1] is False and table[2] is False
    print("ACCEPTANCE 9 (f verdicts definitive and stable: substitution "
          "not bijective / not multiplicative; shear bijective / not "
          "multiplicative; patched table not bijective): PASS")


def test_criterion_10_property_suites(group, bq):
    # normal-form round trips over all 64 elements
    for g in ALL_ELEMENTS:
        assert eval_text(format_normal(g), group) == g
    # word-parser totality fuzz
    rng = random.Random(1)
    for _ in range(200):
        text = "".join(rng.choice("ab e^-()012345$")
                       for _ in range(rng.randint(0, 12)))
        try:
            parse_word(text)
        except WordSyntaxError as exc:
            assert 0 <= exc.offset <= len(text)
    # longknot round trips on random diagrams
    for i in range(100):
        d = make_random_diagram(rng, max_breaks=7, name=f"roundtrip{i}")
        assert serialize(parse_diagram(serialize(d))) == serialize(d)
    # solver and brute-force oracle agree on >= 100 random instances
    checked = 0
    for i in range(110):
        d = make_random_diagram(rng, max_breaks=3, name=f"eq{i}")
        start = ALL_ELEMENTS[rng.randrange(64)]
        assert solve(d, bq, start).colorings == \
            oracle.colorings(d, bq, start)
        checked += 1
    # include instances at the two-virtual-crossing cap
    for i in range(4):
        d = make_random_diagram(rng, max_classical=0, max_virtual=2,
                                max_breaks=4, name=f"eqv{i}")
        while len(oracle.virtual_ids(d)) < 2:
            d = make_random_diagram(rng, max_classical=0, max_virtual=2,
                                    max_breaks=4, name=f"eqv{i}")
        start = ALL_ELEMENTS[rng.randrange(64)]
        assert solve(d, bq, start).colorings == \
            oracle.colorings(d, bq, start)
        checked += 1
    assert checked >= 100
    print("ACCEPTANCE 10 (parser round trips, solver = oracle on "
          f"{checked} random diagrams, normal-form round trips): PASS")


def test_calibration_is_reported(group):
    cal = calibrate_convention()
    assert cal.convention == group.convention
    assert len(cal.matches) == 8
    print(f"CALIBRATION: frozen {cal.convention.describe()} "
          f"({len(cal.matches)} matching variants)")


def test_demos_print_golden_output():
    # each demo's stdout, byte for byte
    root = Path(__file__).parent.parent
    golden = json.loads((root / "tests" / "golden.json").read_text())
    demos = sorted(p.name for p in (root / "demos").glob("*.py"))
    assert demos == sorted(golden["demos"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    for name in demos:
        out = subprocess.run([sys.executable, str(root / "demos" / name)],
                             capture_output=True, text=True, env=env,
                             check=True, timeout=60)
        assert out.stdout == golden["demos"][name], name
