"""Shared fixtures: model surfaces and their known Killing fields."""

import os
import random

import pytest
from hypothesis import settings

from affkit.killing import VectorField
from affkit.paperchecks import sphere_killing_triple
from affkit.surface import GAMMA_KEYS, sphere, type_a, type_b
from affkit.symexpr import parse

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")

SEED = int(os.environ.get("AFFKIT_SEED", "0"))


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
    return (VectorField(parse("0"), parse("1")),
            VectorField(parse("-x1"), parse("-x2")))


def random_type_a(rand, nonflat=False):
    while True:
        s = type_a({k: rand.randint(-2, 2) for k in GAMMA_KEYS})
        if not nonflat or any(not s.gamma[k].is_zero for k in GAMMA_KEYS):
            return s
