"""Killing residuals, the exact jet solver, and numeric jet extension."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affkit.killing import (
    Jet1, JetField, KillingError, OutsideDomain, VectorField, extend_jet,
    is_killing, jet_of, killing_jet_space, prolongation, residuals,
)
from affkit.numeric import default_grid
from affkit.scalars import ONE, ZERO, Scalar
from affkit.surface import GAMMA_KEYS, make_surface, sphere, type_a, type_b
from affkit.symexpr import Expr, parse

from conftest import random_type_a
from helpers_oracle import taylor_killing_dim

gamma_vals = st.fixed_dictionaries({k: st.integers(-2, 2) for k in GAMMA_KEYS})

D2 = VectorField(parse("0"), parse("1"))


def combine(a, X, b, Y):
    return VectorField(X.a1 * a + Y.a1 * b, X.a2 * a + Y.a2 * b)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

@given(gamma_vals)
def test_d2_translation_is_killing_for_x2_independent_gamma(vals):
    s = type_a(vals)
    assert all(e.is_zero for e in residuals(s, D2).values())


def test_d2_not_killing_when_gamma_depends_on_x2():
    s = make_surface({"111": parse("x2")}, (0, 0))
    res = residuals(s, D2)
    assert not res["111"].is_zero
    # Both directions: d2 is Killing iff every dGamma/dx2 vanishes.
    assert is_killing(s, D2) == all(
        s.gamma[k].diff("x2").is_zero for k in s.gamma)


def test_x2_d2_killing_on_alpha_zero_family():
    # Only G_12^2, G_21^2 nonzero constants: x2 d2 is then Killing.
    s = type_a({"122": 2, "212": -1})
    x2d2 = VectorField(parse("0"), parse("x2"))
    assert all(e.is_zero for e in residuals(s, x2d2).values())


@given(gamma_vals)
def test_radial_field_killing_on_every_type_b(vals):
    s = type_b(vals)
    radial = VectorField(parse("-x1"), parse("-x2"))
    assert all(e.is_zero for e in residuals(s, radial).values())
    assert all(e.is_zero for e in residuals(s, D2).values())


@given(gamma_vals, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=20)
def test_residuals_are_linear_in_the_field(vals, a, b):
    s = type_a(vals)
    X = VectorField(parse("x1*x2"), parse("sin(x1)"))
    Y = VectorField(parse("x2^2"), parse("exp(1*x2)"))
    combo = combine(a, X, b, Y)
    rx, ry, rc = residuals(s, X), residuals(s, Y), residuals(s, combo)
    for key in rc:
        assert rc[key] == rx[key] * a + ry[key] * b


def test_exponential_vertical_family_criterion():
    # With only G_12^2, G_21^2 constant and G_22^2 = -alpha, the field
    # e^{alpha x2} v(x1) d2 has a single nontrivial residual
    # K_11^2 = e^{alpha x2} ((G_12^2 + G_21^2) v' + v''), so it is Killing
    # exactly when that ODE holds.
    for g12, g21, alpha in ((1, 0, 2), (2, -1, 0), (0, 0, 1)):
        s = type_a({"122": g12, "212": g21, "222": -alpha})
        c = Expr.const(g12 + g21)
        expo = Expr.monomial(ONE, freq=Scalar.of(alpha))
        for v in (parse("1"), parse("x1"), parse("sin(x1)")):
            X = VectorField(Expr.zero(), expo * v)
            res = residuals(s, X)
            expected = expo * (c * v.diff("x1") + v.diff("x1").diff("x1"))
            assert res["112"] == expected
            for key in res:
                if key != "112":
                    assert res[key].is_zero
            assert is_killing(s, X) == expected.is_zero


# ---------------------------------------------------------------------------
# is_killing on the sphere
# ---------------------------------------------------------------------------

def test_sphere_rotation_fields_are_killing(sphere_surface, sphere_fields):
    for f in sphere_fields:
        assert is_killing(sphere_surface, f)


def test_sphere_radial_scaling_is_not_killing(sphere_surface):
    bad = VectorField(parse("x1"), parse("0"))
    assert not is_killing(sphere_surface, bad)
    res = residuals(sphere_surface, bad)
    assert abs(res["122"].eval_numeric((0.3, 0.2))) > 1e-3


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

def test_prolongation_flat_structure():
    m1, m2, c0 = prolongation(type_a({}), (0, 0))
    assert m1[0][2] == ONE and m1[1][4] == ONE
    assert m2[0][3] == ONE and m2[1][5] == ONE
    for row in m1[2:] + m2[2:]:
        assert all(x.is_zero for x in row)
    for row in c0:
        assert all(x.is_zero for x in row)


def test_prolongation_sphere_exact_at_origin():
    # Hand evaluation: at (0,0) tan -> 0, d(tan) -> 1, d(cos sin) -> 1, so
    # the only nonzero second-derivative couplings are through the a1 slot.
    m1, m2, _ = prolongation(sphere(), (0, 0))
    assert m1[5][0] == ONE            # d1 (d2 a2) = a1
    assert m2[3][0] == -ONE           # d2 (d2 a1) = -a1
    assert m2[4][0] == ONE            # d2 (d1 a2) = a1
    for r in (2, 3, 4):
        assert all(x.is_zero for x in m1[r])
    assert all(x.is_zero for x in m2[2])
    assert all(x.is_zero for x in m2[5])


@given(gamma_vals, gamma_vals)
@settings(max_examples=10)
def test_prolongation_type_b_entries_linear_in_constants(va, vb):
    sums = {k: va[k] + vb[k] for k in va}
    pa = prolongation(type_b(va), (1, 0))
    pb = prolongation(type_b(vb), (1, 0))
    p0 = prolongation(type_b({}), (1, 0))
    ps = prolongation(type_b(sums), (1, 0))
    for block in range(3):
        for r, row in enumerate(ps[block]):
            for c, want in enumerate(row):
                got = pa[block][r][c] + pb[block][r][c] - p0[block][r][c]
                assert got == want


# ---------------------------------------------------------------------------
# jet space dimensions
# ---------------------------------------------------------------------------

def test_flat_attains_dimension_bound(flat_surface):
    ks = killing_jet_space(flat_surface)
    assert ks.dim == 6
    assert ks.constraint_history[-1] == ks.constraint_history[-2]


def test_sphere_killing_dimension_is_three(sphere_surface):
    assert killing_jet_space(sphere_surface).dim == 3


def test_type_b_dim_matches_series_oracle():
    s = type_b({"111": -1})
    exact = killing_jet_space(s).dim
    assert exact == taylor_killing_dim(s, deg=6)
    assert exact == 6  # frozen oracle value: this surface is flat


@given(gamma_vals)
@settings(max_examples=30)
def test_dimension_bound_and_monotone_history(vals):
    ks = killing_jet_space(type_a(vals))
    assert 0 <= ks.dim <= 6
    hist = ks.constraint_history
    assert all(hist[i] >= hist[i + 1] for i in range(len(hist) - 1))


def test_random_sample_matches_series_oracle(rng):
    for _ in range(3):
        s = random_type_a(rng, nonflat=True)
        assert killing_jet_space(s).dim == taylor_killing_dim(s, deg=6)


def test_high_order_vanishing_constraints_still_bite():
    # The curvature obstruction of this surface vanishes to third order in
    # x1 at the basepoint, so the dimension plateaus at 6 for two rounds
    # before the constraints appear; the solver must keep deriving.  The
    # frozen expected value 0 matches the degree-8 series oracle.
    s = make_surface({"111": parse("exp(2*x2)*x1^3"), "222": parse("x2^2")},
                     (0, 0))
    ks = killing_jet_space(s)
    assert ks.dim == 0
    assert ks.constraint_history[1] == 6  # the early plateau was real


def test_no_stabilization_is_reported_for_ultra_degenerate_input(monkeypatch):
    # Obstructions vanishing to order beyond the round cap cannot be
    # resolved at the basepoint; the solver must say so rather than
    # return the flat-only dimension 6 for a curved surface.
    import affkit.killing as mod
    from affkit.killing import NoStabilization
    monkeypatch.setattr(mod, "STABILIZATION_CAP", 4)
    s = make_surface({"111": parse("x1^13*exp(2*x2)")}, (0, 0))
    with pytest.raises(NoStabilization):
        mod.killing_jet_space(s)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_of_examples(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    assert jet_of(sphere_surface, x_field).as_vector() == [
        ONE, ZERO, ZERO, ZERO, ZERO, ZERO]
    assert jet_of(sphere_surface, D2).as_vector() == [
        ZERO, ONE, ZERO, ZERO, ZERO, ZERO]
    x2d2 = VectorField(parse("0"), parse("x2"))
    assert jet_of(sphere_surface, x2d2).as_vector() == [
        ZERO, ZERO, ZERO, ZERO, ZERO, ONE]


def test_killing_jets_span_rotation_jets(sphere_surface, sphere_fields):
    from affkit.linalg import in_span
    ks = killing_jet_space(sphere_surface)
    basis = [j.as_vector() for j in ks.basis]
    for f in sphere_fields:
        assert in_span(basis, jet_of(sphere_surface, f).as_vector())


# ---------------------------------------------------------------------------
# jet extension
# ---------------------------------------------------------------------------

def test_extend_jet_constant_field(flat_surface):
    jet = Jet1(ZERO, ONE, ZERO, ZERO, ZERO, ZERO)
    full = extend_jet(flat_surface, jet, (0.7, -0.4))
    assert full[0] == pytest.approx(0.0, abs=1e-12)
    assert full[1] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(v) for v in full[2:]) < 1e-12


def test_extend_jet_matches_closed_form_on_sphere(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    jet = jet_of(sphere_surface, x_field)
    q = (0.3, 0.7)
    got = extend_jet(sphere_surface, jet, q, step=1e-3)
    want = x_field.eval_real(q)
    assert abs(got[0] - want[0]) < 1e-6
    assert abs(got[1] - want[1]) < 1e-6
    d1a2 = x_field.a2.diff("x1").eval_numeric(q).real
    assert abs(got[4] - d1a2) < 1e-6


def test_extend_jet_is_fourth_order(sphere_surface, sphere_fields):
    _, y_field, _ = sphere_fields
    jet = jet_of(sphere_surface, y_field)
    q = (0.9, 1.2)
    ref = y_field.eval_real(q)

    def err(step):
        got = extend_jet(sphere_surface, jet, q, step=step)
        return max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    e1, e2 = err(0.05), err(0.025)
    assert e1 / e2 == pytest.approx(16.0, rel=0.6)


def test_jet_field_wrapper(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    jf = JetField(sphere_surface, jet_of(sphere_surface, x_field))
    v = jf.value((0.2, 0.1))
    want = x_field.eval_real((0.2, 0.1))
    assert abs(v[0] - want[0]) < 1e-7 and abs(v[1] - want[1]) < 1e-7


def test_jets_at_matches_closed_form_on_sphere_stencil(sphere_surface, sphere_fields):
    # A 5x5 grid with the five-point stencil of each grid point, extended in
    # one batch, against the closed-form triple and its first derivatives.
    grid = default_grid(sphere_surface, n=5, half_width=0.2, center=(0.1, 0.3))
    h = 1e-4
    offsets = np.array([(0, 0), (h, 0), (-h, 0), (0, h), (0, -h)])
    pts = (grid.points()[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    for f in sphere_fields:
        jets = JetField(sphere_surface, jet_of(sphere_surface, f)).jets_at(pts)
        assert jets.shape == (len(pts), 6)
        parts = [f.a1, f.a2, f.a1.diff("x1"), f.a1.diff("x2"),
                 f.a2.diff("x1"), f.a2.diff("x2")]
        for p, got in zip(pts, jets):
            want = [e.eval_numeric(p).real for e in parts]
            assert np.max(np.abs(got - want)) < 1e-6


def test_jets_at_rows_match_one_row_extensions(sphere_surface, sphere_fields):
    jf = JetField(sphere_surface, jet_of(sphere_surface, sphere_fields[1]))
    pts = [(0.3, 0.7), (-0.2, 0.1), (0.0, 0.0), (0.5, -0.4)]
    batch = jf.jets_at(pts)
    for p, row in zip(pts, batch):
        assert np.max(np.abs(row - np.array(jf.jet_at(p)))) < 1e-9
        assert tuple(row) == pytest.approx(extend_jet(sphere_surface, jf.jet, p), abs=1e-9)


def test_extend_jet_rejects_targets_outside_the_domain(sphere_surface, sphere_fields,
                                                      type_b_radial_fields):
    # |x1| < pi/2 on the sphere: past the pole of tan the integration used to
    # return a huge jet without complaint.
    jet = jet_of(sphere_surface, sphere_fields[0])
    with pytest.raises(OutsideDomain):
        extend_jet(sphere_surface, jet, (1.6, 0.0))
    with pytest.raises(OutsideDomain):
        JetField(sphere_surface, jet).jets_at([(0.2, 0.1), (-1.6, 0.1)])
    # x1 > 0 on A/x1 surfaces: the x1 leg would cross the pole at x1 = 0.
    s = type_b({"111": 1, "122": -1, "212": 2})
    radial = type_b_radial_fields[1]
    assert is_killing(s, radial)
    with pytest.raises(OutsideDomain):
        extend_jet(s, jet_of(s, radial), (-0.5, 0.3))
    assert issubclass(OutsideDomain, KillingError)
    full = extend_jet(s, jet_of(s, radial), (0.5, 0.3))
    assert full[:2] == pytest.approx((-0.5, -0.3), abs=1e-9)
