"""Surface constructors and tensor calculus against independent oracles."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp
from hypothesis import given, settings
import hypothesis.strategies as st

from affkit.surface import (
    GAMMA_KEYS, AffineSurface, BadBasepoint, SurfaceError, curvature, is_flat,
    load_surface, make_surface, nabla_ricci, ricci, sphere, surface_from_json, surface_to_json,
    torsion, type_a, type_b,
)
from affkit.symexpr import Expr, NotExactlyEvaluable, parse

from helpers_oracle import gamma_sympy, sym_nabla_ricci, sym_ricci, to_sympy
from test_symexpr import exprs

rational_consts = st.integers(min_value=-2, max_value=2)
gamma_dicts = st.fixed_dictionaries({k: rational_consts for k in GAMMA_KEYS})


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_surface_flat():
    s = make_surface({}, (0, 0))
    assert all(s.gamma[k].is_zero for k in GAMMA_KEYS)


def test_make_surface_sphere_gammas_valid():
    s = make_surface(sphere().gamma, (0, 0))
    assert s.g(1, 2, 2) == parse("-tan(x1)")


def test_make_surface_rejects_pole_at_basepoint():
    with pytest.raises(BadBasepoint) as err:
        make_surface({"111": parse("1/x1")}, (0, 0))
    assert "Gamma_111" in str(err.value)
    assert "order 0" in str(err.value)


def test_make_surface_rejects_trig_at_nonzero_basepoint():
    with pytest.raises(BadBasepoint):
        make_surface({"111": parse("sin(x1)")}, (Fraction(1, 10), 0))


def evaluable_to_order(e: Expr, bp, order: int) -> bool:
    """Reference: every mixed x1/x2 derivative up to ``order`` evaluates
    exactly at bp (the sweep make_surface once ran to order 8)."""
    column = e
    for n1 in range(order + 1):
        d = column
        for _ in range(order + 1 - n1):
            try:
                d.eval_exact(bp)
            except NotExactlyEvaluable:
                return False
            d = d.diff("x2")
        column = column.diff("x1")
    return True


@settings(max_examples=60)
@given(exprs(max_terms=3),
       st.sampled_from([(0, 0), (0, Fraction(1, 2)), (Fraction(-1, 3), 0), (2, Fraction(-3, 2))]))
def test_order_zero_evaluability_settles_every_derivative(e, bp):
    try:
        make_surface({"111": e}, bp)
        accepted = True
    except BadBasepoint:
        accepted = False
    assert accepted == evaluable_to_order(e, bp, 4)


@pytest.mark.parametrize("note, bounds", [
    ("", (-math.inf, math.inf)),
    ("x1 > 0", (0.0, math.inf)),
    ("x1>-1/2", (-0.5, math.inf)),
    ("x1 < 3", (-math.inf, 3.0)),
    ("-1/2 < x1 < 2", (-0.5, 2.0)),
    ("0 < x1 < pi", (0.0, math.pi)),
    ("|x1| < pi/2", (-math.pi / 2, math.pi / 2)),
    ("abs(x1)<pi/2", (-math.pi / 2, math.pi / 2)),
])
def test_domain_note_grammar(note, bounds):
    assert make_surface({}, (1, 0), note).domain_bounds() == bounds


@pytest.mark.parametrize("note", [
    "x1 >= 0", "x2 > 0", "x1", "0 < x1", "3 < x1 < 1", "x1 > a",
    "|x1| < 1", "x1 > 0 and x1 < 2",
])
def test_unknown_domain_note_is_rejected(note):
    with pytest.raises(SurfaceError, match="domain note"):
        make_surface({}, (1, 0), note)
    with pytest.raises(SurfaceError):
        AffineSurface(type_a({}).gamma, (Fraction(1), Fraction(0)), note).domain_bounds()


def test_load_surface_names_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"gamma": {"111": ' + "[" * 100_000 + "]" * 100_000 + "}}")
    with pytest.raises(SurfaceError, match="nested too deeply"):
        load_surface(path)


@pytest.mark.parametrize("note, basepoint", [
    ("x1 > 0", (-1, 0)), ("x1 > 0", (0, 0)), ("x1 < 3", (3, 0)),
    ("|x1| < pi/2", (Fraction(8, 5), 0)),
])
def test_basepoint_outside_domain_is_rejected(note, basepoint):
    with pytest.raises(SurfaceError, match="outside the domain"):
        make_surface({}, basepoint, note)


def test_type_a_constructor():
    s = type_a({"112": 1})
    assert s.basepoint == (0, 0)
    assert s.g(1, 1, 2) == Expr.const(1)
    assert s.g(2, 2, 2).is_zero
    flat = type_a({})
    assert is_flat(flat)


def test_type_a_torsion_example():
    s = type_a({"121": 1, "211": -1})
    t = torsion(s)
    assert t[(1, 2, 1)] == Expr.const(2)
    assert t[(2, 1, 1)] == Expr.const(-2)


def test_type_b_constructor():
    s = type_b({"111": -1})
    assert s.basepoint == (1, 0)
    assert s.g(1, 1, 1) == parse("-1/x1")
    assert s.domain_bounds()[0] == 0.0
    assert is_flat(type_b({}))


@given(gamma_dicts)
@settings(max_examples=20)
def test_type_b_scaling_identity(vals):
    # Gamma + x1 * Gamma' vanishes identically for every A tensor.
    s = type_b(vals)
    x1 = Expr.monomial(parse("1").terms[0].coeff, p1=1)
    for k in GAMMA_KEYS:
        assert (s.gamma[k] + x1 * s.gamma[k].diff("x1")).is_zero


def test_sphere_fixture():
    s = sphere()
    assert s.g(1, 2, 1).is_zero
    assert s.g(1, 2, 2) == parse("-tan(x1)")
    assert s.g(2, 1, 2) == parse("-tan(x1)")
    assert s.g(2, 2, 1) == parse("cos(x1)*sin(x1)")
    assert torsion(s).is_zero
    assert not is_flat(s)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def test_torsion_flat_and_sphere_vanish():
    assert torsion(type_a({})).is_zero
    assert torsion(sphere()).is_zero


def test_torsion_type_b_example():
    s = type_b({"122": 1, "212": 2})
    t = torsion(s)
    assert t[(1, 2, 2)] == parse("-1/x1")
    assert t[(2, 1, 2)] == parse("1/x1")


@given(gamma_dicts)
@settings(max_examples=20)
def test_torsion_antisymmetry(vals):
    t = torsion(type_a(vals))
    for i, j, k in product((1, 2), repeat=3):
        assert (t[(i, j, k)] + t[(j, i, k)]).is_zero


def test_curvature_flat_zero():
    assert curvature(type_a({})).is_zero


def test_curvature_sphere_component():
    r = curvature(sphere())
    assert r[(1, 2, 2, 1)] == parse("cos(x1)^2")


@given(gamma_dicts)
@settings(max_examples=20)
def test_curvature_antisymmetry(vals):
    r = curvature(type_a(vals))
    for i, j, k, l in product((1, 2), repeat=4):
        assert (r[(i, j, k, l)] + r[(j, i, k, l)]).is_zero
        if i == j:
            assert r[(i, j, k, l)].is_zero


def test_ricci_sphere_exact():
    rho = ricci(sphere())
    assert rho[(1, 1)] == Expr.const(1)
    assert rho[(2, 2)] == parse("cos(x1)^2")
    assert rho[(1, 2)].is_zero
    assert rho[(2, 1)].is_zero


def test_ricci_flat_zero():
    assert ricci(type_a({})).is_zero


def test_ricci_type_a_frozen_oracle_value():
    # Computed with the independent sympy index-expansion oracle:
    # rho = [[0, -1], [-1, 0]] for Gamma_11^2 = 1, Gamma_22^1 = 1.
    rho = ricci(type_a({"112": 1, "221": 1}))
    assert rho[(1, 1)].is_zero
    assert rho[(2, 2)].is_zero
    assert rho[(1, 2)] == Expr.const(-1)
    assert rho[(2, 1)] == Expr.const(-1)


@given(gamma_dicts)
@settings(max_examples=10, deadline=None)
def test_ricci_matches_sympy_oracle(vals):
    s = type_a(vals)
    ours = ricci(s)
    oracle = sym_ricci(gamma_sympy(s))
    for j, k in product((1, 2), repeat=2):
        assert sp.simplify(oracle[(j, k)] - to_sympy(str(ours[(j, k)]))) == 0


def test_ricci_symmetric_iff_antisymmetrization_vanishes():
    # For torsion-free Type A surfaces compare rho_12 - rho_21 against the
    # sympy oracle's antisymmetrization.
    rng = random.Random(7)
    for _ in range(5):
        vals = {k: rng.randint(-2, 2) for k in GAMMA_KEYS}
        vals["211"], vals["212"] = vals["121"], vals["122"]
        s = type_a(vals)
        rho = ricci(s)
        diff = rho[(1, 2)] - rho[(2, 1)]
        oracle = sym_ricci(gamma_sympy(s))
        want = sp.simplify(oracle[(1, 2)] - oracle[(2, 1)])
        assert sp.simplify(want - to_sympy(str(diff))) == 0


def test_nabla_ricci_sphere_vanishes():
    nr = nabla_ricci(sphere())
    assert nr.is_zero
    assert len(nr.components) == 8


def test_nabla_ricci_flat_zero():
    assert nabla_ricci(type_a({})).is_zero


def test_nabla_ricci_matches_oracle_at_points():
    rng = random.Random(11)
    vals = {k: rng.randint(-2, 2) for k in GAMMA_KEYS}
    s = type_a(vals)
    ours = nabla_ricci(s)
    oracle = sym_nabla_ricci(gamma_sympy(s))
    for _ in range(5):
        p = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        import sympy
        subs = {sympy.Symbol("x1"): p[0], sympy.Symbol("x2"): p[1]}
        for idx in product((1, 2), repeat=3):
            want = float(oracle[idx].subs(subs))
            got = ours[idx].eval_numeric(p).real
            assert abs(want - got) < 1e-6


@pytest.mark.parametrize("make", [sphere, lambda: type_b({"111": -1, "122": 2, "221": 1})])
def test_ricci_chain_from_a_given_curvature(make):
    # A caller holding R passes it on; the results are those built from s.
    s = make()
    rho = ricci(s, curvature(s))
    assert rho == ricci(s)
    assert nabla_ricci(s, rho) == nabla_ricci(s)


def test_is_flat_examples():
    assert is_flat(type_a({}))
    assert not is_flat(sphere())
    assert is_flat(type_b({}))


def test_type_b_tensor_scaling():
    # Tensors of A/x1 surfaces scale like x1^(-p), p = covariant excess.
    s = type_b({"111": -1, "122": 2, "221": 1})
    rho = ricci(s)      # p = 2
    tor = torsion(s)    # p = 1
    lam = 3.0
    for idx in product((1, 2), repeat=2):
        v1 = rho[idx].eval_numeric((0.7, 0.3)).real
        v2 = rho[idx].eval_numeric((lam * 0.7, 0.3)).real
        assert abs(v2 - v1 / lam**2) < 1e-10
    for idx in product((1, 2), repeat=3):
        v1 = tor[idx].eval_numeric((0.7, 0.3)).real
        v2 = tor[idx].eval_numeric((lam * 0.7, 0.3)).real
        assert abs(v2 - v1 / lam) < 1e-10


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_surface_json_roundtrip():
    s = sphere()
    data = surface_to_json(s)
    assert data["gamma"]["122"] == "-sin(x1)*cos(x1)^-1"
    assert data["basepoint"] == ["0", "0"]
    back = surface_from_json(data)
    assert back.gamma == s.gamma
    assert back.basepoint == s.basepoint


def test_surface_json_defaults_missing_gammas_to_zero():
    s = surface_from_json({"gamma": {"112": "1"}, "basepoint": ["0", "0"]})
    assert s.g(1, 1, 2) == Expr.const(1)
    assert s.g(2, 2, 2).is_zero


def test_surface_json_rational_basepoint():
    s = surface_from_json({"gamma": {"111": "x1"}, "basepoint": ["1/2", "-2/3"]})
    assert s.basepoint == (Fraction(1, 2), Fraction(-2, 3))
