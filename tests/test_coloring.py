import ast
import functools
import gc
import hashlib
import inspect
import random
import time
from collections import Counter

import numpy as np
import pytest

import oracle
from biqknot import coloring, diagram
from biqknot.biquandle import Biquandle, FKind, MissingF, make_f
from biqknot.coloring import (
    ClassicalRelation,
    HasVirtualPasses,
    VirtualRelation,
    build_constraints,
    distinguish,
    reference_right_chain,
    select_f_candidate,
    solve,
)
from biqknot.diagram import (LongDiagram, Pass, PassKind, arcs,
                             builtin_trefoil, classify, parse_diagram)
from biqknot.group_words import eval_text
from biqknot.torus_group import (ALL_ELEMENTS, Convention, GroupElement,
                                 all_conventions, build_group)
from conftest import make_random_diagram

A = GroupElement(1, 0)
AB2 = GroupElement(1, 2)


def test_unknot_single_coloring(group, bq):
    d = parse_diagram("longknot unknot\n")
    for g in (A, GroupElement(5, 3)):
        r = solve(d, bq, g)
        assert r.colorings == oracle.colorings(d, bq, g)
        assert r.count == 1
        assert r.colorings == ((g,),)
        assert r.end_colors == frozenset({g})


def test_empty_diagram_has_no_constraints(group, bq):
    cs = build_constraints(parse_diagram("longknot unknot\n"), bq)
    assert cs.relations == ()
    assert cs.arc_count == 1


def test_right_trefoil_constraints(group, bq):
    cs = build_constraints(builtin_trefoil("right"), bq)
    classical = [r for r in cs.relations if isinstance(r, ClassicalRelation)]
    virtual = [r for r in cs.relations if isinstance(r, VirtualRelation)]
    assert len(classical) == 2 and len(virtual) == 2
    assert all(r.op == "circ" for r in classical)  # both early-over
    assert [v.direction for v in virtual] == ["inv", "fwd"]


def test_left_trefoil_constraint_chain(group, bq):
    # the left encoding carries the reference equations: under relations
    # at arcs 1->2 (over 4) and 3->4 (over 5) with star, and the virtual
    # pair 2->3 (inverse), 4->5 (forward)
    cs = build_constraints(builtin_trefoil("left"), bq)
    rels = list(cs.relations)
    assert rels[0] == ClassicalRelation("1", "star", 1, 2, 4)
    assert rels[1] == VirtualRelation("1", 1, "inv", 2, 3)
    assert rels[2] == ClassicalRelation("2", "star", 3, 4, 5)
    assert rels[3] == VirtualRelation("1", 2, "fwd", 4, 5)


def test_right_trefoil_reference_chain(group, bq):
    chain = reference_right_chain(group)
    assert chain == (
        eval_text("a", group),
        eval_text("a b^-1", group),
        eval_text("a^2 b^-1 a^-1", group),
        eval_text("(ab)^2 a^-1", group),
        eval_text("a b^2", group),
    )
    assert chain == (A, GroupElement(1, 7), GroupElement(3, 5),
                     GroupElement(7, 4), AB2)
    r = solve(builtin_trefoil("right"), bq, A)
    assert r.colorings == oracle.colorings(builtin_trefoil("right"), bq, A)
    assert chain in r.colorings
    assert r.count == 4
    assert r.colorings[0] == chain  # sorts first
    assert AB2 in r.end_colors
    assert r.end_colors == frozenset({AB2, GroupElement(7, 4)})


def test_left_trefoil_excludes_reference_end(group, bq):
    r = solve(builtin_trefoil("left"), bq, A)
    assert r.colorings == oracle.colorings(builtin_trefoil("left"), bq, A)
    assert AB2 not in r.end_colors
    pinned = solve(builtin_trefoil("left"), bq, A, end=AB2)
    assert pinned.colorings == oracle.colorings(builtin_trefoil("left"), bq,
                                                A, end=AB2)
    assert pinned.count == 0
    assert pinned.colorings == ()


def test_distinguish_trefoils(group, bq):
    d = distinguish(builtin_trefoil("right"), builtin_trefoil("left"), bq, A)
    assert d.verdict == "DISTINGUISHED"
    same = distinguish(builtin_trefoil("right"), builtin_trefoil("right"),
                       bq, A)
    assert same.verdict == "INCONCLUSIVE"
    assert same.first.to_json() == same.second.to_json()


def test_distinguish_right_vs_unknot(group, bq):
    unknot = parse_diagram("longknot unknot\n")
    d = distinguish(builtin_trefoil("right"), unknot, bq, A)
    assert d.second.end_colors == frozenset({A})
    assert d.verdict == "DISTINGUISHED"


def test_missing_f(group):
    bare = Biquandle(group, 2)
    with pytest.raises(MissingF):
        build_constraints(builtin_trefoil("right"), bare)
    with pytest.raises(MissingF):
        oracle.colorings(builtin_trefoil("right"), bare, A)


def test_missing_f_in_solve(group, bq):
    # constraints built with an f, solved by a biquandle without one: the
    # planner refuses the virtual equations
    d = builtin_trefoil("right")
    with pytest.raises(MissingF):
        solve(d, Biquandle(group, 2), A, constraints=build_constraints(d, bq))


def test_reattached_f_solves_like_a_fresh_biquandle(group, bq):
    # solving with the shear f builds table 4's preimage index; attaching
    # the calibrated f must replace it and table 4's bytes
    rng = random.Random(25)
    diagrams = [builtin_trefoil("right"), builtin_trefoil("left")]
    while len(diagrams) < 12:
        d = make_random_diagram(rng, max_classical=4, max_virtual=3,
                                max_breaks=8, name=f"re{len(diagrams)}")
        if d.has_virtual():
            diagrams.append(d)
    starts = [A, AB2, GroupElement(3, 5)]
    reused = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    for d in diagrams:
        for s in starts:
            solve(d, reused, s)
    assert 4 in reused._solve_indexes
    reused.attach_f(bq.f)
    # f's bytes are compared directly: no solve reads them, because a fold
    # stalls at every virtual pass (forward, a first visit lacks its out
    # arc; backward, a second visit lacks its in arc)
    assert reused.flat == bq.flat
    for d in diagrams:
        for s in starts:
            assert solve(d, reused, s) == solve(d, bq, s)


def test_colorings_are_sound(group, bq):
    # every returned coloring re-checks against the raw tables
    r = solve(builtin_trefoil("right"), bq, A)
    cs = build_constraints(builtin_trefoil("right"), bq)
    for col in r.colorings:
        assert col[0] == A
        values = {i + 1: g for i, g in enumerate(col)}
        for rel in cs.relations:
            if isinstance(rel, ClassicalRelation):
                assert oracle.op(bq, rel.op, values[rel.in_arc],
                                 values[rel.over_arc]) == values[rel.out_arc]
            elif rel.direction == "fwd":
                assert bq.f(values[rel.in_arc]) == values[rel.out_arc]
            else:
                assert bq.f(values[rel.out_arc]) == values[rel.in_arc]


def test_prebuilt_constraints_reused(group, bq):
    d = builtin_trefoil("right")
    cs = build_constraints(d, bq)
    r1 = solve(d, bq, A, constraints=cs)
    r2 = solve(d, bq, A)
    assert r1 == r2


def test_determinism(group, bq):
    r1 = solve(builtin_trefoil("right"), bq, A)
    r2 = solve(builtin_trefoil("right"), bq, A)
    assert r1 == r2
    assert r1.colorings == tuple(sorted(r1.colorings))


def test_classical_mode(group, bq):
    with pytest.raises(HasVirtualPasses):
        solve(builtin_trefoil("right"), bq, A, quandle_only=True)
    empty = parse_diagram("longknot unknot\n")
    assert solve(empty, bq, A, quandle_only=True).count == 1
    # early-under crossing still uses circ in classical mode
    d = parse_diagram("longknot classical\nU1+ O1+\n")
    cs = build_constraints(d, bq, quandle_only=True)
    assert all(r.op == "circ" for r in cs.relations)
    r = solve(d, bq, A, quandle_only=True)
    assert r.colorings == oracle.colorings(d, bq, A, quandle_only=True)
    for col in r.colorings:
        assert oracle.circ(bq, col[0], col[1]) == col[1]


def test_trefoil_colorings_with_other_starts(group, bq):
    # start pinning is honored for any start color
    g0 = GroupElement(2, 3)
    r = solve(builtin_trefoil("right"), bq, g0)
    assert r.colorings == oracle.colorings(builtin_trefoil("right"), bq, g0)
    for col in r.colorings:
        assert col[0] == g0


def test_oracle_agreement_randomized(group, bq):
    rng = random.Random(20260808)
    shear = make_f(group, FKind.SHEAR)
    bq_shear = Biquandle(group, 2).attach_f(shear)
    checked = 0
    for i in range(120):
        d = make_random_diagram(rng, max_breaks=3, name=f"rand{i}")
        b = bq if i % 2 == 0 else bq_shear
        start = ALL_ELEMENTS[rng.randrange(64)]
        end = ALL_ELEMENTS[rng.randrange(64)] if rng.random() < 0.3 else None
        r = solve(d, b, start, end=end)
        assert r.colorings == oracle.colorings(d, b, start, end=end), \
            f"solver and oracle disagree on {d}"
        checked += 1
    assert checked >= 100


def test_oracle_agreement_larger_free_count(group, bq):
    rng = random.Random(7)
    for i in range(3):
        d = make_random_diagram(rng, max_breaks=4, name=f"big{i}")
        assert solve(d, bq, A).colorings == oracle.colorings(d, bq, A)


def _satisfies(bq, cs, col):
    values = {i + 1: g for i, g in enumerate(col)}
    for rel in cs.relations:
        if isinstance(rel, ClassicalRelation):
            if oracle.op(bq, rel.op, values[rel.in_arc],
                         values[rel.over_arc]) != values[rel.out_arc]:
                return False
        elif rel.direction == "fwd":
            if bq.f(values[rel.in_arc]) != values[rel.out_arc]:
                return False
        elif bq.f(values[rel.out_arc]) != values[rel.in_arc]:
            return False
    return True


def test_seven_break_diagram_solves(group, bq):
    # 3 classical + 2 virtual = 7 breaks: too many free arcs for the oracle
    d = parse_diagram(
        "longknot big\nO1+ U1+ O2+ U2+ O3+ U3+ V1 V1 V2 V2\n")
    with pytest.raises(ValueError):
        oracle.colorings(d, bq, A)
    r = solve(d, bq, A)
    cs = build_constraints(d, bq)
    assert r.count > 0
    for col in r.colorings:
        assert col[0] == A
        assert _satisfies(bq, cs, col)


def test_split_frontier_matches_oracle(group, bq, monkeypatch):
    # with a tiny row cap every expansion of more than one row is split
    # and its pieces wait on the stack
    splits = []
    expand = coloring._expand

    def spy(step, cols, i, stack):
        out = expand(step, cols, i, stack)
        splits.append(out is None)
        return out

    monkeypatch.setattr(coloring, "ROW_CAP", 8)
    monkeypatch.setattr(coloring, "_expand", spy)
    rng = random.Random(88)
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    for i in range(60):
        d = make_random_diagram(rng, max_breaks=3, name=f"cap{i}")
        b = bq if i % 2 == 0 else shear
        start = ALL_ELEMENTS[rng.randrange(64)]
        end = ALL_ELEMENTS[rng.randrange(64)] if rng.random() < 0.3 else None
        assert solve(d, b, start, end=end).colorings == \
            oracle.colorings(d, b, start, end=end), f"disagree on {d}"
    assert any(splits)


@pytest.mark.parametrize("kink", ["U9+ O9+", "U9- O9-", "O9+ U9+",
                                  "O9- U9-", "V9 V9"])
def test_r1_kinks_match_oracle(group, bq, kink):
    # a relation that repeats an arc (over arc = out arc, over arc = in
    # arc) or a virtual kink, at every position of small diagrams
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    rng = random.Random(kink)
    bases = [make_random_diagram(rng, max_breaks=2, name=f"base{i}")
             for i in range(6)]
    bases.append(parse_diagram("longknot unknot\n"))
    kink_passes = parse_diagram(f"longknot k\n{kink}\n").passes
    for base in bases:
        for pos in range(len(base.passes) + 1):
            passes = base.passes[:pos] + kink_passes + base.passes[pos:]
            d = LongDiagram(name="kinked", passes=passes)
            # pin the end of the longer ones, so the oracle sweeps at
            # most three free arcs
            end = (ALL_ELEMENTS[rng.randrange(64)] if d.arc_count >= 4
                   else None)
            for b in (bq, shear):
                start = ALL_ELEMENTS[rng.randrange(64)]
                assert solve(d, b, start, end=end).colorings == \
                    oracle.colorings(d, b, start, end=end), f"disagree on {d}"


def test_constraints_match_reference(bq):
    # arcs, classify and build_constraints against the walk-per-map
    # reference: early-under crossings, virtual passes and R1 kinks
    rng = random.Random(8)
    kinks = [parse_diagram(f"longknot k\n{k}\n").passes
             for k in ("U8+ O8+", "O9- U9-", "V9 V9")]
    for i in range(300):
        d = make_random_diagram(rng, max_classical=6, max_virtual=3,
                                max_breaks=12)
        for kink in rng.sample(kinks, rng.randint(0, 3)):
            pos = rng.randint(0, len(d.passes))
            d = LongDiagram(name=d.name,
                            passes=d.passes[:pos] + kink + d.passes[pos:])
        asg = arcs(d)
        _, arc_count, over_arcs = oracle.arcs(d)
        assert asg.arc_count == arc_count
        assert asg.over_arcs == over_arcs
        assert asg.classes == classify(d) == oracle.classify(d)
        for quandle_only in (False, True):
            try:
                expected = oracle.constraints(d, quandle_only=quandle_only)
            except HasVirtualPasses:
                with pytest.raises(HasVirtualPasses):
                    build_constraints(d, bq, quandle_only=quandle_only)
                continue
            cs = build_constraints(d, bq, quandle_only=quandle_only)
            relations, arc_count = expected
            assert cs.arc_count == arc_count
            assert ([(type(r), tuple(r)) for r in cs.relations]
                    == [(type(r), tuple(r)) for r in relations])
            assert list(cs.equations) == oracle.equations(relations)


def _early_over_chain(rng, crossings):
    """Every over pass precedes its under; an under closes a random open
    crossing."""
    passes, open_, nxt = [], [], 1
    while nxt <= crossings or open_:
        if nxt <= crossings and (not open_ or rng.random() < 0.5):
            sign = rng.choice("+-")
            passes.append(Pass(PassKind.OVER, str(nxt), sign))
            open_.append((str(nxt), sign))
            nxt += 1
        else:
            cid, sign = open_.pop(rng.randrange(len(open_)))
            passes.append(Pass(PassKind.UNDER, cid, sign))
    return LongDiagram(name=f"chain{crossings}", passes=tuple(passes))


def test_long_early_over_chain(group, bq):
    d = _early_over_chain(random.Random(10000), 10000)
    cs = build_constraints(d, bq)
    start = GroupElement(3, 5)
    t0 = time.perf_counter()
    r = solve(d, bq, start, constraints=cs)
    elapsed = time.perf_counter() - t0
    assert r.count == 1
    # the fold along the chain: each under pass applies its table
    tables = {"circ": bq.tables[0].tolist(), "star": bq.tables[1].tolist()}
    arc = [None, 3 * 8 + 5]
    for rel in cs.relations:
        arc.append(tables[rel.op][arc[rel.in_arc]][arc[rel.over_arc]])
    assert [8 * g.k + g.l for g in r.colorings[0]] == arc[1:]
    assert elapsed < 2.0, f"10 000-crossing chain took {elapsed:.2f} s"


def test_long_branching_blocks(group, bq):
    # each block U(2k-1) U(2k) O(2k-1) O(2k) guesses the over arc of its
    # first under pass (64 columns) and filters back to one column at
    # its second: 1 000 expansions and filters of a 2 001-row frontier
    blocks = " ".join(f"U{2 * k - 1}+ U{2 * k}+ O{2 * k - 1}+ O{2 * k}+"
                      for k in range(1, 1001))
    d = parse_diagram(f"longknot blocks\n{blocks}\n")
    cs = build_constraints(d, bq)
    t0 = time.perf_counter()
    r = solve(d, bq, GroupElement(1, 0), constraints=cs)
    elapsed = time.perf_counter() - t0
    assert r.count == 1
    assert elapsed < 1.0, f"2 000-crossing blocks took {elapsed:.2f} s"


# sha256 of the count and colorings of every solve in
# test_seeded_solves_digest.  A change that alters outputs on purpose
# records the new digest and says so.
SOLVES_DIGEST = "43eb72a2a9f1878a9ead990ac76019203cd6589bf5b6ab0a392060b0b9b1b759"


def test_seeded_solves_digest(group, bq):
    # about 4 000 seeded solves: random diagrams with 0-5 classical and
    # 0-2 virtual crossings under the calibrated and the shear f, 30 %
    # pinned to an end, the classical ones also in quandle mode; then
    # early-over chains of 100-450 crossings
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    rng = random.Random(16)
    digest = hashlib.sha256()
    solves = 0

    def feed(r):
        nonlocal solves
        solves += 1
        digest.update(repr((r.count, [[8 * g.k + g.l for g in col]
                                      for col in r.colorings])).encode())

    for i in range(1500):
        d = make_random_diagram(rng, max_classical=5, max_virtual=2,
                                max_breaks=9, name=f"d{i}")
        for b in (bq, shear):
            start = ALL_ELEMENTS[rng.randrange(64)]
            end = ALL_ELEMENTS[rng.randrange(64)] if rng.random() < 0.3 else None
            feed(solve(d, b, start, end=end))
            if not d.has_virtual():
                feed(solve(d, b, start, end=end, quandle_only=True))
    for crossings in range(100, 451, 25):
        d = _early_over_chain(rng, crossings)
        for b in (bq, shear):
            feed(solve(d, b, ALL_ELEMENTS[rng.randrange(64)]))
    assert solves == 4062
    assert digest.hexdigest() == SOLVES_DIGEST


def test_solve_builds_no_arc_steps(group, bq, monkeypatch):
    # the front end walks the passes themselves, after one arcs call made
    # through the module global a tracer can wrap
    d = _early_over_chain(random.Random(1000), 1000)
    calls = []

    def spy(diagram_):
        calls.append(diagram_)
        return arcs(diagram_)

    monkeypatch.setattr(coloring, "arcs", spy)
    r = solve(d, bq, GroupElement(3, 5))
    assert r.count == 1
    assert calls == [d]


def test_parsed_chain_solves_from_its_walk(group, bq, monkeypatch):
    # text -> pairing walk -> equations -> solve: no Pass and no relation
    # record is built, and arcs is called once, through the module global
    text = diagram.serialize(_early_over_chain(random.Random(1000), 1000))
    calls, built = [], []

    def spy_arcs(d):
        calls.append(d)
        return arcs(d)

    def spy_build(*args, **kwargs):
        built.append(build_constraints(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(coloring, "arcs", spy_arcs)
    monkeypatch.setattr(coloring, "build_constraints", spy_build)
    kinds = (Pass, ClassicalRelation, VirtualRelation)
    # with the collector off, every new tuple stays on gc's list while
    # it lives; d and the captured constraints keep theirs alive
    gc.disable()
    try:
        old = [o for o in gc.get_objects() if type(o) in kinds]
        seen = {id(o) for o in old}

        def new_records():
            return Counter(type(o) for o in gc.get_objects()
                           if type(o) in kinds and id(o) not in seen)

        d = parse_diagram(text)
        r = solve(d, bq, GroupElement(3, 5))
        assert new_records() == {}
        assert len(calls) == 1 and calls[0] is d
        assert r.count == 1
        # the records appear only when read
        passes, relations = d.passes, built[0].relations
        assert new_records() == {Pass: 2000, ClassicalRelation: 1000}
        assert len(passes) == 2000 and len(relations) == 1000
    finally:
        gc.enable()


def test_early_under_chain_equations(bq):
    # every U before its O: each over arc is filled in when its O arrives
    chain = _early_over_chain(random.Random(7), 300)
    swap = {"O": "U", "U": "O"}
    text = "longknot reversed\n" + " ".join(
        f"{swap[p.kind.value]}{p.crossing_id}{p.sign}" for p in chain.passes)
    d = parse_diagram(text)
    assert set(classify(d).values()) == {diagram.CrossingClass.EARLY_UNDER}
    for quandle_only in (False, True):
        cs = build_constraints(d, bq, quandle_only=quandle_only)
        assert list(cs.equations) == oracle.equations(
            oracle.constraints(d, quandle_only=quandle_only)[0])


def test_relations_are_a_view_of_the_equations(bq):
    d = parse_diagram("longknot k\nu1+ V1 O2- o1+ V1 U2-\n")
    cs = build_constraints(d, bq)
    assert cs.relations == cs.relations
    assert [(type(r), tuple(r)) for r in cs.relations] == [
        (type(r), tuple(r)) for r in oracle.constraints(d)[0]]
    assert {r.op for r in cs.relations
            if isinstance(r, ClassicalRelation)} == {"circ", "star"}
    classical = parse_diagram("longknot c\nU1+ O2- O1+ U2-\n")
    cs = build_constraints(classical, bq, quandle_only=True)
    assert cs.relations == cs.relations
    assert [r.op for r in cs.relations] == ["circ", "circ"]


def test_random_pairs_distinguish_quickly(group, bq):
    # 200 seeded random pairs (d, its crossing change), 8 classical and
    # 0-2 virtual crossings each
    rng = random.Random(8)
    swap = {PassKind.OVER: PassKind.UNDER, PassKind.UNDER: PassKind.OVER,
            PassKind.VIRTUAL: PassKind.VIRTUAL}
    pairs = []
    for i in range(200):
        passes = []
        for c in range(1, 9):
            sign = rng.choice("+-")
            passes += [Pass(PassKind.OVER, str(c), sign),
                       Pass(PassKind.UNDER, str(c), sign)]
        for v in range(1, rng.randint(0, 2) + 1):
            passes += [Pass(PassKind.VIRTUAL, str(v), None)] * 2
        rng.shuffle(passes)
        d = LongDiagram(name=f"pair{i}", passes=tuple(passes))
        changed = LongDiagram(name=f"{d.name}-changed", passes=tuple(
            Pass(swap[p.kind], p.crossing_id, p.sign) for p in d.passes))
        pairs.append((d, changed))
    t0 = time.perf_counter()
    for d, changed in pairs:
        distinguish(d, changed, bq, A)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"200 pairs took {elapsed:.2f} s"


def _calls(fn):
    return {node.func.id for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_coloring_does_not_recurse():
    # the call graph among the module's functions has no cycle
    tree = ast.parse(inspect.getsource(coloring))
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    graph = {name: _calls(fn) & funcs.keys() for name, fn in funcs.items()}
    state = {}

    def acyclic_from(name):
        stack = [(name, iter(graph[name]))]
        state[name] = "open"
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = "done"
                stack.pop()
            elif state.get(nxt) == "open":
                return False
            elif nxt not in state:
                state[nxt] = "open"
                stack.append((nxt, iter(graph[nxt])))
        return True

    assert all(acyclic_from(name) for name in graph if name not in state)


_cached_group = functools.cache(build_group)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("conv", all_conventions(), ids=Convention.describe)
def test_f_candidate_selection(conv, n):
    # every twist residue (elements have order <= 8) under every convention
    group = _cached_group(conv)
    chain = reference_right_chain(group)
    # total candidates do not reproduce the reference chain
    for kind in (FKind.SUBSTITUTION, FKind.SHEAR):
        b = Biquandle(group, n).attach_f(make_f(group, kind))
        r = solve(builtin_trefoil("right"), b, chain[0])
        assert chain not in r.colorings
    # the calibrated f is the substitution map with the one-entry patch
    cand = select_f_candidate(group, n)
    assert cand.kind is FKind.TABLE
    assert cand.name == "substitution+chain-patch"
    assert cand.patched_entries == ((chain[2], chain[3]),)
    sub = make_f(group, FKind.SUBSTITUTION)
    diffs = [g for g in ALL_ELEMENTS if cand(g) != sub(g)]
    assert diffs == [chain[2]]


def test_result_serialization(group, bq):
    r = solve(builtin_trefoil("right"), bq, A)
    payload = r.to_json()
    assert payload["count"] == 4
    assert payload["start"] == "a"
    assert "a b^2" in payload["end_colors"]
    assert payload["colorings"][0] == ["a", "a b^7", "a^3 b^5", "a^7 b^4",
                                       "a b^2"]
    text = r.to_text()
    assert "count:   4" in text
    assert "a b^2" in text


# -- the planner's fold ------------------------------------------------------------


def _fold_cases(group, bq, count, seed):
    """Seeded small diagrams, alternately with the calibrated and the
    shear f; about 40 % pinned to an end, half of those to an end some
    coloring reaches and half to a random color (mostly a contradiction)."""
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    rng = random.Random(seed)
    for i in range(count):
        b = bq if i % 2 == 0 else shear
        start = ALL_ELEMENTS[rng.randrange(64)]
        if rng.random() < 0.4:
            d = make_random_diagram(rng, max_breaks=3, name=f"pin{i}")
            ends = sorted(solve(d, b, start).end_colors)
            if ends and rng.random() < 0.5:
                end = rng.choice(ends)
            else:
                end = ALL_ELEMENTS[rng.randrange(64)]
        else:
            d = make_random_diagram(rng, max_breaks=2, name=f"free{i}")
            end = None
        yield d, b, start, end


def test_fold_matches_oracle(group, bq):
    counts = {"pinned": 0, "contradicted": 0}
    for d, b, start, end in _fold_cases(group, bq, 1000, 1111):
        r = solve(d, b, start, end=end)
        assert r.colorings == oracle.colorings(d, b, start, end=end), \
            f"solver and oracle disagree on {d} from {start} to {end}"
        if end is not None:
            counts["pinned"] += 1
            counts["contradicted"] += r.count == 0
    assert 300 <= counts["pinned"] <= 500
    assert counts["contradicted"] >= 100


def test_fold_pins_against_folded_end(group, bq):
    # an all-early-over chain folds to one coloring: pinned to any other
    # end, a folded relation is a failing check
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    rng = random.Random(12)
    for b, crossings in ((bq, 2), (shear, 3), (bq, 3)):
        d = _early_over_chain(rng, crossings)
        start = ALL_ELEMENTS[rng.randrange(64)]
        (only,) = solve(d, b, start).colorings
        for end in ALL_ELEMENTS:
            r = solve(d, b, start, end=end)
            assert r.colorings == oracle.colorings(d, b, start, end=end)
            assert r.count == (end == only[-1])


def test_fold_unknot_pinned(group, bq):
    d = parse_diagram("longknot unknot\n")
    assert solve(d, bq, A, end=A).colorings == ((A,),)
    assert solve(d, bq, A, end=AB2).colorings == ()
    assert oracle.colorings(d, bq, A, end=AB2) == ()


def test_fold_quandle_only_matches_oracle(group, bq):
    rng = random.Random(13)
    for i in range(150):
        d = make_random_diagram(rng, max_virtual=0, max_breaks=3,
                                name=f"classical{i}")
        start = ALL_ELEMENTS[rng.randrange(64)]
        end = ALL_ELEMENTS[rng.randrange(64)] if i % 3 == 0 else None
        assert solve(d, bq, start, end=end, quandle_only=True).colorings == \
            oracle.colorings(d, bq, start, end=end, quandle_only=True), \
            f"disagree on {d}"


def test_fold_skips_numpy_until_a_branch(group, bq, monkeypatch):
    plans = []
    execute = coloring._execute

    def spy(steps, first):
        plans.append(steps)
        return execute(steps, first)

    monkeypatch.setattr(coloring, "_execute", spy)
    d = _early_over_chain(random.Random(14), 40)
    r = solve(d, bq, GroupElement(3, 5))
    assert r.count == 1 and plans == []
    # the under pass of crossing 1 meets over arc 3, colored by nothing
    # before it: a guess of all 64 colors
    d = parse_diagram("longknot guess\nU1+ U2+ O1+ O2+\n")
    r = solve(d, bq, A)
    assert r.colorings == oracle.colorings(d, bq, A)
    assert len(plans) == 1
    assert any(step[0] == coloring._EXPAND and step[2] is coloring._ALL_COLORS
               for step in plans[0])


def test_multi_row_start_does_not_fold(group, bq):
    # every start color at once: a (m + 1, 64) start frontier is planned
    # without folding, and its columns are the union of the one-start
    # solves
    shear = Biquandle(group, 2).attach_f(make_f(group, FKind.SHEAR))
    rng = random.Random(15)
    for i in range(40):
        d = make_random_diagram(rng, max_breaks=4, name=f"all{i}")
        b = bq if i % 2 == 0 else shear
        cs = build_constraints(d, b)
        steps, front = coloring._plan(cs, b, {1: range(64)})
        assert front.shape == (cs.arc_count + 1, 64)
        assert front.dtype == np.intp and front.flags.c_contiguous
        assert front[1].tolist() == list(range(64))
        # the rows of arcs not yet known hold zeros
        assert not np.delete(front, 1, axis=0).any()
        rows = set()
        for piece in coloring._execute(steps, front):
            rows.update(map(tuple, piece[1:].T.tolist()))
        expected = {tuple(8 * g.k + g.l for g in col)
                    for start in ALL_ELEMENTS
                    for col in solve(d, b, start, constraints=cs).colorings}
        assert rows == expected, f"disagree on {d}"
