import random

import pytest

from biqknot.diagram import LongDiagram, Pass, PassKind
from biqknot.torus_group import build_default_group
from biqknot.coloring import calibrated_biquandle


@pytest.fixture(scope="session")
def group():
    return build_default_group()


@pytest.fixture(scope="session")
def bq(group):
    return calibrated_biquandle(group)


def make_random_diagram(rng: random.Random, max_classical=3, max_virtual=2,
                        max_breaks=3, name="random") -> LongDiagram:
    """A random pairing-valid long diagram.

    max_breaks caps unders + virtual passes so the brute-force oracle
    (tests/oracle.py) stays affordable (free arcs = breaks when nothing is pinned).
    """
    while True:
        c = rng.randint(0, max_classical)
        v = rng.randint(0, max_virtual)
        if c + 2 * v <= max_breaks:
            break
    tokens = []
    for i in range(1, c + 1):
        sign = rng.choice("+-")
        tokens.append(Pass(PassKind.OVER, str(i), sign))
        tokens.append(Pass(PassKind.UNDER, str(i), sign))
    for j in range(1, v + 1):
        tokens.append(Pass(PassKind.VIRTUAL, f"v{j}", None))
        tokens.append(Pass(PassKind.VIRTUAL, f"v{j}", None))
    rng.shuffle(tokens)
    return LongDiagram(name=name, passes=tuple(tokens))
