"""Shared fixtures: model surfaces and their known Killing fields."""

from itertools import combinations
import os
import random

import pytest
from hypothesis import settings

from affkit.killing import VectorField
from affkit.paperchecks import sphere_killing_triple
from affkit.surface import GAMMA_KEYS, sphere, type_a
from affkit.symexpr import parse

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")

SEED = int(os.environ.get("AFFKIT_SEED", "0"))

# Translations and the radial field -x1 d1 - x2 d2 (Killing on every A/x1
# surface).
D1 = VectorField(parse("1"), parse("0"))
D2 = VectorField(parse("0"), parse("1"))
RADIAL = VectorField(parse("-x1"), parse("-x2"))

# Flat surfaces with torsion whose constraints vanish at the basepoint for
# the first rounds, with their Killing dimension from the degree-8 series
# oracle: the jet space plateaus at 6 before the constraints bite.
LATE_CONSTRAINTS = [({"211": "x2^4"}, 3), ({"121": "x1^5"}, 2),
                    ({"112": "1", "121": "x1^5"}, 1), ({"221": "1", "211": "x2^6"}, 3)]

# Surfaces on which two stagnant rounds are not the answer: the solver
# stops at dimension 4 (history [4, 4, 4]), while the degree-8 series
# oracle gives these dimensions.
EARLY_STOPS = [({"122": "1", "211": "x2^5"}, 1), ({"221": "x1", "211": "x2^6"}, 3)]

# Sparse constant symbols: every one-symbol pattern with value 1 and every
# two-symbol pattern with values (1, 2), (1, -2) and (1, -1).
SPARSE_PATTERNS = ([{key: 1} for key in GAMMA_KEYS]
                   + [{k1: 1, k2: v} for k1, k2 in combinations(GAMMA_KEYS, 2)
                      for v in (2, -2, -1)])


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def sphere_surface():
    return sphere()


@pytest.fixture(scope="session")
def sphere_fields():
    """The rotation triple: cos(x2) d1 + tan(x1)sin(x2) d2, its quarter-turn
    partner, and d2; exponentials encode the x2 trig functions."""
    return sphere_killing_triple()


@pytest.fixture(scope="session")
def flat_surface():
    return type_a({})


@pytest.fixture(scope="session")
def type_b_radial_fields():
    """d2 and -x1 d1 - x2 d2, Killing on every A/x1 surface."""
    return (D2, RADIAL)


def random_type_a(rand, nonflat=False):
    while True:
        s = type_a({k: rand.randint(-2, 2) for k in GAMMA_KEYS})
        if not nonflat or any(not s.gamma[k].is_zero for k in GAMMA_KEYS):
            return s
