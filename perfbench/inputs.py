"""Seeded inputs for every workload.

All randomness comes from one ``random.Random(seed)`` per run, so a seed
fixes the inputs exactly.  Each workload is a number of whole rounds;
the number of rounds follows from ``--seconds`` and a nominal round
length, never from the clock, so every run attempts a fixed list.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Dict, List, Tuple

import reference as ref

# Nominal wall time of one round on a 2-core x86 VM with Python 3.11;
# only used to turn --seconds into a whole number of rounds.
ROUND_SECONDS = {"cli-cold": 6.8, "distinguish-random": 10.0, "solve-long": 0.75}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# -- diagrams --------------------------------------------------------------------


def random_diagram(rng: random.Random, classical: int, virtual: int) -> List[ref.Token]:
    toks: List[ref.Token] = []
    for i in range(1, classical + 1):
        sign = rng.choice("+-")
        toks += [("O", str(i), sign), ("U", str(i), sign)]
    for j in range(1, virtual + 1):
        toks += [("V", str(j), None)] * 2
    rng.shuffle(toks)
    return toks


def crossing_change(toks: List[ref.Token]) -> List[ref.Token]:
    """Over and under exchanged at every classical crossing."""
    swap = {"O": "U", "U": "O", "V": "V"}
    return [(swap[k], cid, sign) for k, cid, sign in toks]


def longknot(name: str, toks: List[ref.Token]) -> str:
    body = " ".join(f"{k}{cid}{sign or ''}" for k, cid, sign in toks)
    return f"longknot {name}\n{body}\n"


def early_over_chain(rng: random.Random, crossings: int) -> List[ref.Token]:
    """Every over pass precedes its under pass; unders close a random open crossing."""
    toks: List[ref.Token] = []
    open_: List[Tuple[str, str]] = []
    nxt = 1
    while nxt <= crossings or open_:
        if nxt <= crossings and (not open_ or rng.random() < 0.5):
            sign = rng.choice("+-")
            toks.append(("O", str(nxt), sign))
            open_.append((str(nxt), sign))
            nxt += 1
        else:
            cid, sign = open_.pop(rng.randrange(len(open_)))
            toks.append(("U", cid, sign))
    return toks


# -- distinguish-random: strata of search size ------------------------------

# The cost of a pair is its traversal search: nodes of d plus d', as
# counted by reference.traversal_search.  Random pairs cluster in search
# size, since each over-arc reached uncolored multiplies the search by 64
# and each f-preimage branch by at most 4.  SIZE_SHARES is the measured
# share of random draws per tenth of a decade of size (key: floor of
# 10 * log10(nodes)), from 20 000 draws; `python3 perfbench/inputs.py
# shares 20000` measures it again.  Draws above NODE_CAP (1.7 % of them, about 1.3 s of
# solving at the cap and some over 20 s) are left out.  Adjacent tenths
# are merged into strata of at least MIN_STRATUM_SHARE, and every round
# holds each stratum's share of PAIRS_PER_ROUND pairs, so every run has
# the same make-up, that of random draws.
SIZE_SHARES = {
    21: 0.0461, 22: 0.0450, 23: 0.0081, 24: 0.0347, 25: 0.0550, 26: 0.0299,
    27: 0.0415, 28: 0.0367, 29: 0.0333, 30: 0.0380, 31: 0.0413, 32: 0.0221,
    33: 0.0169, 34: 0.0102, 35: 0.0050, 36: 0.0824, 37: 0.0130, 38: 0.0022,
    39: 0.0744, 40: 0.0147, 41: 0.0351, 42: 0.0735, 43: 0.0282, 44: 0.0269,
    45: 0.0453, 46: 0.0172, 47: 0.0268, 48: 0.0168, 49: 0.0096, 50: 0.0052,
    51: 0.0034, 52: 0.0014, 53: 0.0010, 54: 0.0193, 55: 0.0010, 56: 0.0001,
    57: 0.0184, 58: 0.0005, 59: 0.0049, 60: 0.0150,
}
NODE_CAP = 1_200_000
MIN_STRATUM_SHARE = 0.01
PAIRS_PER_ROUND = 200


def search_size(pair, ops1, f) -> Tuple[int, List]:
    """Nodes of the reference search of both diagrams of a pair, and each
    side's colorings; raises ref.SearchTooLarge above NODE_CAP."""
    nodes, sides = 0, []
    for t in pair:
        rels, m = ref.relations(t)
        n, cols = ref.traversal_search(rels, m, ref.A, ops1, f, NODE_CAP - nodes)
        nodes += n
        sides.append(cols)
    return nodes, sides


def strata() -> Dict[int, Tuple[int, int]]:
    """Tenth of a decade -> (stratum, its pairs per round)."""
    of, shares, acc = {}, [], 0.0
    for tenth in sorted(SIZE_SHARES):
        of[tenth] = len(shares)
        acc += SIZE_SHARES[tenth]
        if acc >= MIN_STRATUM_SHARE:
            shares.append(acc)
            acc = 0.0
    if acc:                                     # a thin top end joins the last stratum
        of = {t: min(s, len(shares) - 1) for t, s in of.items()}
        shares[-1] += acc
    # largest remainder, so the quotas add up to PAIRS_PER_ROUND
    raw = [x * PAIRS_PER_ROUND / sum(shares) for x in shares]
    quota = [int(x) for x in raw]
    for s in sorted(range(len(raw)), key=lambda s: quota[s] - raw[s])[:PAIRS_PER_ROUND - sum(quota)]:
        quota[s] += 1
    return {t: (s, quota[s]) for t, s in of.items()}


def distinguish_pairs(rng: random.Random, rounds: int) -> List[Dict]:
    """Random pairs (d, crossing change of d), drawn until every stratum holds
    its quota, with each side's coloring count and end colors from the
    reference search."""
    ops1 = ref.operations(2)
    f = ref.calibrated_f()
    where = strata()
    need = {s: q * rounds for s, q in where.values()}
    found: List[Dict] = []
    draws = 0
    while any(need.values()):
        draws += 1
        toks = random_diagram(rng, rng.randint(2, 6), rng.randint(0, 2))
        partner = crossing_change(toks)
        try:
            nodes, sides = search_size((toks, partner), ops1, f)
        except ref.SearchTooLarge:
            continue
        stratum = where[min(max(int(10 * math.log10(nodes)), min(where)), max(where))][0]
        if not need[stratum]:
            continue
        need[stratum] -= 1
        found.append({"d1": longknot(f"r{draws}", toks),
                      "d2": longknot(f"r{draws}x", partner),
                      "tokens": [toks, partner],
                      "expected": [(len(cols), sorted({int(c[-1]) for c in cols}))
                                   for cols in sides]})
    rng.shuffle(found)
    return found


def measure_shares(rng: random.Random, draws: int) -> Dict[int, float]:
    """Share of random draws within NODE_CAP per tenth of a decade of search size."""
    ops1 = ref.operations(2)
    f = ref.calibrated_f()
    tenths: List[int] = []
    for _ in range(draws):
        toks = random_diagram(rng, rng.randint(2, 6), rng.randint(0, 2))
        try:
            nodes = search_size((toks, crossing_change(toks)), ops1, f)[0]
            tenths.append(int(10 * math.log10(nodes)))
        except ref.SearchTooLarge:
            pass
    return {t: round(tenths.count(t) / len(tenths), 4) for t in sorted(set(tenths))}


# -- solve-long -----------------------------------------------------------------

CHAIN_MIN, CHAIN_MAX, CHAINS_PER_ROUND = 100, 450, 20


def long_chains(rng: random.Random, rounds: int) -> List[Dict]:
    """Lengths are stratified over [CHAIN_MIN, CHAIN_MAX) within each round.
    Starts are non-central: from a central start every arc has the same color."""
    out = []
    span = CHAIN_MAX - CHAIN_MIN
    for _ in range(rounds):
        for i in range(CHAINS_PER_ROUND):
            n = CHAIN_MIN + int(span * (i + rng.random()) / CHAINS_PER_ROUND)
            toks = early_over_chain(rng, n)
            out.append({"text": longknot(f"chain{n}", toks), "tokens": toks,
                        "start": rng.choice(ref.NONCENTRAL)})
    rng.shuffle(out)
    return out


# -- cli-cold -------------------------------------------------------------------


def random_word(rng: random.Random, depth: int = 3) -> Tuple[str, int]:
    """A word over a, b, e with parentheses and exponents, and its value."""
    texts, value = [], ref.E
    for _ in range(rng.randint(1, 3)):
        if depth and rng.random() < 0.4:
            inner, v = random_word(rng, depth - 1)
            text = f"({inner})"
        else:
            text = rng.choice("abe")
            v = {"a": ref.A, "b": ref.B, "e": ref.E}[text]
        if rng.random() < 0.5:
            p = rng.randint(-9, 9)
            text += f"^{p}"
            v = ref.power(v, p)
        texts.append(text)
        value = ref.mul(value, v)
    return rng.choice(("", " ")).join(texts), value


CLI_FILE_NODE_CAP = 2000


def cli_commands(rng: random.Random, rounds: int, workdir: str) -> Tuple[List[Dict], Dict[str, str]]:
    """The README command mix, one round per pass; returns ops and files to write."""
    ops1 = ref.operations(2)
    f = ref.calibrated_f()
    chain_end = ref.fmt(ref.reference_chain()[-1])
    ops, files = [], {}
    for r in range(rounds):
        w1, v1 = random_word(rng)
        w2, v2 = random_word(rng)
        while True:
            toks = random_diagram(rng, rng.randint(2, 4), rng.randint(0, 1))
            rels, m = ref.relations(toks)
            try:
                _, cols = ref.traversal_search(rels, m, ref.A, ops1, f, CLI_FILE_NODE_CAP)
                break
            except ref.SearchTooLarge:
                continue
        path = f"{workdir}/diagram{r}.longknot"
        files[path] = longknot(f"file{r}", toks)
        right, left = "builtin:right-trefoil", "builtin:left-trefoil"
        ops += [
            {"check": "eval", "argv": ["group", "eval", w1], "value": v1},
            {"check": "eval", "argv": ["--format", "json", "group", "eval", w2], "value": v2},
            {"check": "right", "argv": ["color", right, "--start", "a"]},
            {"check": "right", "argv": ["--format", "json", "color", right, "--start", "a"]},
            {"check": "left-pinned", "argv": ["color", left, "--start", "a", "--end", chain_end]},
            {"check": "left-pinned", "argv": ["--format", "json", "color", left,
                                              "--start", "a", "--end", chain_end]},
            {"check": "distinguish", "argv": ["distinguish", right, left, "--start", "a"]},
            {"check": "audit", "argv": ["audit", "--n", "2"]},
            {"check": "file", "argv": ["--format", "json", "color", path, "--start", "a"],
             "colorings": cols.tolist()},
        ]
    return ops, files


if __name__ == "__main__" and sys.argv[1:2] == ["shares"]:
    print(measure_shares(random.Random("shares"), int(sys.argv[2])))
