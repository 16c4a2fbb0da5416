"""Integrators and the numeric Killing oracles."""

import math
import time

import numpy as np
import pytest

import affkit.numeric
from affkit.coords import commuting_chart, normalize_chart, type_b_chart
from affkit.killing import Jet1, JetField, VectorField, jet_of, killing_jet_space, residuals
from affkit.numeric import (
    FD_STENCIL, MAX_RK4_STEPS, DomainExit, Grid, NumericError, _rk4, default_grid, fd_residuals,
    field_fn, flow, flow_batch, flow_preserves_connection, geodesic_endpoints, stencil,
    symbols_fn,
)
from affkit.scalars import Scalar
from affkit.surface import surface_from_json, type_a, type_b
from affkit.symexpr import parse

from conftest import D1, D2, RADIAL
from helpers_reference import assert_bitwise, compile_exprs_reference, rk4_reference

ZERO_FIELD = VectorField(parse("0"), parse("0"))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_flow_of_translation():
    assert flow(D2, (0.0, 0.0), 1.0) == pytest.approx((0.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("t, step", [(1e300, 1e-3), (1.0, 1e-300), (1.01 * MAX_RK4_STEPS, 1.0),
                                     (1.0, -1e-3)])
def test_flow_past_the_step_bound_raises_before_stepping(t, step):
    # A negative step took no step at all and returned the start point.
    start = time.perf_counter()
    with pytest.raises(NumericError, match="MAX_RK4_STEPS"):
        flow(D2, (0.0, 0.0), t, step)
    assert time.perf_counter() - start < 1.0


def test_flow_at_the_step_bound_runs():
    assert flow(D2, (0.0, 0.0), MAX_RK4_STEPS * 1e-4, 1e-4)[1] == pytest.approx(1.0)


def test_flow_of_linear_field_matches_exponential():
    xd1 = VectorField(parse("x1"), parse("0"))
    for t in (0.5, 1.0, -0.7):
        q = flow(xd1, (1.0, 0.0), t, step=1e-3)
        assert abs(q[0] - math.exp(t)) < 1e-8
        assert q[1] == 0.0


def test_flow_step_halving_self_consistency(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    coarse = flow(x_field, (0.0, 0.0), 0.2, step=2e-3)
    fine = flow(x_field, (0.0, 0.0), 0.2, step=1e-3)
    assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-9


def test_flow_measured_convergence_order():
    # Quartic convergence against the closed form e^t.
    xd1 = VectorField(parse("x1"), parse("0"))
    errs = []
    for step in (0.2, 0.1, 0.05):
        q = flow(xd1, (1.0, 0.0), 2.0, step=step)
        errs.append(abs(q[0] - math.exp(2.0)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 3.8 and order2 >= 3.8


def test_flow_batch_distinct_times():
    xd1 = VectorField(parse("x1"), parse("0"))
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    out = flow_batch(field_fn(xd1), pts, np.array([0.3, -0.4, 0.1]), step=1e-3)
    assert abs(out[0, 0] - math.exp(0.3)) < 1e-10
    assert abs(out[1, 0] - math.exp(-0.4)) < 1e-10
    assert abs(out[2, 0] - 2 * math.exp(0.1)) < 1e-10


def test_rk4_with_zero_spans_returns_the_state_without_calling_rhs():
    def rhs(t, y):
        raise AssertionError("rhs called")

    y = np.array([[0.3, -1.0], [2.0, 0.5]])
    assert np.array_equal(_rk4(rhs, y, np.zeros(2), 1e-3), y)


def test_rk4_writes_only_its_own_buffers():
    # The stages live in reused buffers; the caller's state and every array
    # the right-hand side hands back must come out as they went in.
    rng = np.random.default_rng(1)
    y, fixed = rng.standard_normal((2, 3, 7))
    y_before, fixed_before = y.copy(), fixed.copy()
    spans = np.linspace(-0.3, 0.2, 7)
    returned = []

    def fresh(t, v):
        out = np.sin(v) + t * fixed
        returned.append((out, out.copy()))
        return out

    assert_bitwise(_rk4(fresh, y, spans, 1e-2), rk4_reference(fresh, y, spans, 1e-2))
    assert len(returned) == 2 * 4 * 30
    assert all(np.array_equal(out, copy) for out, copy in returned)
    # an array of the caller's, returned on every call
    assert_bitwise(_rk4(lambda t, v: fixed, y, spans, 1e-2),
                   rk4_reference(lambda t, v: fixed, y, spans, 1e-2))
    assert np.array_equal(fixed, fixed_before) and np.array_equal(y, y_before)
    # its own argument, i.e. _rk4's stage buffer: the result is still exact
    assert_bitwise(_rk4(lambda t, v: v, y, spans, 1e-2),
                   rk4_reference(lambda t, v: v, y, spans, 1e-2))
    # a complex right-hand side on a real state promotes the state
    assert_bitwise(_rk4(lambda t, v: 1j * v - t, y, spans, 1e-2),
                   rk4_reference(lambda t, v: 1j * v - t, y, spans, 1e-2))
    assert np.array_equal(y, y_before)


def on_reference_kernel(monkeypatch, run):
    """``run()`` with numeric on the reference RK4 loop and evaluator
    (``helpers_reference``)."""
    with monkeypatch.context() as m:
        m.setattr(affkit.numeric, "_rk4", rk4_reference)
        m.setattr(affkit.numeric, "compile_exprs", compile_exprs_reference)
        return run()


@pytest.mark.parametrize("which", ["X", "Y", "d2", "d1", "radial", "control"])
def test_flow_batch_is_bit_identical_to_the_reference_kernel(monkeypatch, sphere_fields, which):
    fields = dict(zip(("X", "Y", "d2"), sphere_fields), d1=D1, radial=RADIAL,
                  control=VectorField(parse("x1^2"), parse("x2^2")))
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0.2, 0.6, 40), rng.uniform(-0.5, 0.5, 40)])
    times = rng.uniform(-0.3, 0.3, 40)
    run = lambda: flow_batch(field_fn(fields[which]), pts, times)
    assert_bitwise(run(), on_reference_kernel(monkeypatch, run))


def test_geodesics_and_jets_are_bit_identical_to_the_reference_kernel(monkeypatch, sphere_surface):
    rng = np.random.default_rng(3)
    p0 = rng.uniform(-0.4, 0.4, (30, 2))
    v0 = rng.standard_normal((30, 2))
    times = rng.uniform(0.0, 0.5, 30)
    run = lambda: geodesic_endpoints(sphere_surface, symbols_fn(sphere_surface), p0, v0, times)
    assert_bitwise(run(), on_reference_kernel(monkeypatch, run))
    jet = killing_jet_space(sphere_surface).basis[1]
    run = lambda: JetField(sphere_surface, jet).jets_at(p0)
    assert_bitwise(run(), on_reference_kernel(monkeypatch, run))


@pytest.mark.parametrize("build", [
    lambda sph: normalize_chart(sph, D2, center=(0.1, 0.3), n=5),
    lambda sph: commuting_chart(type_a({"112": 1, "221": -1}), D1, D2, center=(0.2, -0.1), n=5),
    lambda sph: type_b_chart(type_b({"111": -1, "122": 2}), RADIAL, D2, n=5),
], ids=["normalize", "commuting", "type_b"])
def test_chart_reports_are_bit_identical_to_the_reference_kernel(monkeypatch, sphere_surface,
                                                                 build):
    run = lambda: build(sphere_surface).report
    assert run() == on_reference_kernel(monkeypatch, run)


def test_numeric_checks_reject_a_non_real_field():
    # The imaginary part used to be dropped, so this field checked as 0.0.
    s = type_a({})
    field = VectorField(parse("i*x1^2"), parse("0"))
    with pytest.raises(NumericError):
        fd_residuals(s, field)
    with pytest.raises(NumericError):
        flow_preserves_connection(s, field, 0.1)


def test_numeric_checks_reject_non_real_symbols():
    # With G_11^1 = i dropped to its real part, the flow check read 0.18127 and
    # normalize_chart passed, exactly as on the surface without G_11^1.
    s = surface_from_json({"gamma": {"111": "i", "221": "1"}, "basepoint": ["0", "0"]})
    for check in (lambda: flow_preserves_connection(s, VectorField(parse("x1"), parse("0")), 0.2),
                  lambda: geodesic_endpoints(s, symbols_fn(s), np.zeros((1, 2)),
                                             np.array([[1.0, 0.0]]), 0.1),
                  lambda: fd_residuals(s, D1),
                  lambda: normalize_chart(s, D1)):
        with pytest.raises(NumericError, match="connection symbols are not real"):
            check()


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def endpoints(s, p, v, times, step):
    """Endpoints of the one geodesic from p with velocity v at each time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return geodesic_endpoints(s, symbols_fn(s), np.repeat([p], len(times), axis=0),
                              np.repeat([v], len(times), axis=0), times, step=step)


def test_flat_geodesics_are_straight(flat_surface):
    end, mid = endpoints(flat_surface, (0.1, -0.2), (0.3, 0.5), [1.0, 0.5], step=1e-2)
    assert np.allclose(end, [0.1 + 0.3, -0.2 + 0.5], atol=1e-12)
    assert np.allclose(mid, [0.1 + 0.15, -0.2 + 0.25], atol=1e-12)


def test_sphere_meridian_is_a_geodesic(sphere_surface):
    times = np.linspace(0.0, 0.5, 11)
    pts = endpoints(sphere_surface, (0.0, 0.0), (1.0, 0.0), times, step=1e-3)
    assert np.allclose(pts[:, 0], times, atol=1e-12)
    assert np.max(np.abs(pts[:, 1])) < 1e-14


def test_geodesic_measured_convergence_order(sphere_surface):
    # Generic initial data; self-convergence via Richardson triples.
    def endpoint(step):
        return endpoints(sphere_surface, (0.1, 0.0), (0.6, 0.8), 1.0, step=step)[0]

    e_h = np.linalg.norm(endpoint(0.04) - endpoint(0.02))
    e_h2 = np.linalg.norm(endpoint(0.02) - endpoint(0.01))
    assert math.log2(e_h / e_h2) >= 3.8


def test_geodesic_torsion_drops_out():
    # Antisymmetric parts of the symbols do not affect geodesics.
    sym = type_a({"121": 1, "211": 1})
    twisted = type_a({"121": 2, "211": 0})
    p1 = endpoints(sym, (0.0, 0.0), (0.4, 0.3), 1.0, step=1e-2)
    p2 = endpoints(twisted, (0.0, 0.0), (0.4, 0.3), 1.0, step=1e-2)
    assert np.allclose(p1, p2, atol=1e-13)


def test_geodesic_endpoints_match_sampled_geodesics(sphere_surface):
    # A batch runs each row as it would run alone.
    p0 = np.array([[0.1, 0.0], [-0.2, 0.5], [0.3, -0.1]])
    v0 = np.array([[0.6, 0.8], [1.0, 0.0], [-0.3, 0.4]])
    ends = geodesic_endpoints(sphere_surface, symbols_fn(sphere_surface), p0, v0, 0.7,
                              step=1e-2)
    for p, v, end in zip(p0, v0, ends):
        assert np.allclose(end, endpoints(sphere_surface, p, v, 0.7, step=1e-2)[0],
                           rtol=0, atol=1e-13)


def test_type_b_geodesic_domain_exit():
    s = type_b({})
    with pytest.raises(DomainExit):
        endpoints(s, (0.5, 0.0), (-1.0, 0.0), 1.0, step=1e-2)


# ---------------------------------------------------------------------------
# the fourth-order stencil
# ---------------------------------------------------------------------------

STENCIL_PTS = np.array([[0.0, 0.0], [0.3, -0.2], [-0.45, 0.4], [0.5, 0.5]])


def _closed_form(maps):
    """Stack per-component (f, d1 f, d2 f, d11 f, d12 f, d22 f) like stencil."""
    vals = np.stack([m[0] for m in maps], axis=-1)
    grad = np.stack([np.stack(m[1:3], axis=-1) for m in maps], axis=-1)
    hess = np.stack([np.stack([np.stack(m[3:5], axis=-1), np.stack(m[4:6], axis=-1)],
                              axis=-2) for m in maps], axis=-1)
    return vals, grad, hess


def _polynomial(q):
    # Degree 4: every stencil formula is exact, only rounding is left.
    x, y = q[:, 0], q[:, 1]
    return np.stack([x**4 - 2 * x**2 * y + x * y**3 + 3,
                     y**4 - x**3 * y + x,
                     x**2 * y**2 - 5 * y], axis=1)


def _polynomial_derivs(x, y):
    return _closed_form([
        (x**4 - 2 * x**2 * y + x * y**3 + 3, 4 * x**3 - 4 * x * y + y**3,
         -2 * x**2 + 3 * x * y**2, 12 * x**2 - 4 * y, -4 * x + 3 * y**2, 6 * x * y),
        (y**4 - x**3 * y + x, -3 * x**2 * y + 1, 4 * y**3 - x**3,
         -6 * x * y, -3 * x**2, 12 * y**2),
        (x**2 * y**2 - 5 * y, 2 * x * y**2, 2 * x**2 * y - 5,
         2 * y**2, 4 * x * y, 2 * x**2),
    ])


def _transcendental(q):
    x, y = q[:, 0], q[:, 1]
    return np.stack([np.sin(x) * np.exp(y), np.cos(x * y), np.exp(x - y**2)], axis=1)


def _transcendental_derivs(x, y):
    e, c, s, g = np.exp(y), np.cos(x * y), np.sin(x * y), np.exp(x - y**2)
    return _closed_form([
        (np.sin(x) * e, np.cos(x) * e, np.sin(x) * e,
         -np.sin(x) * e, np.cos(x) * e, np.sin(x) * e),
        (c, -y * s, -x * s, -y**2 * c, -s - x * y * c, -x**2 * c),
        (g, g, -2 * y * g, g, -2 * y * g, (4 * y**2 - 2) * g),
    ])


def test_stencil_is_exact_on_quartic_polynomials():
    val, grad, hess = stencil(_polynomial, STENCIL_PTS)
    want_val, want_grad, want_hess = _polynomial_derivs(*STENCIL_PTS.T)
    # Only the rounding of values of size <= 4, divided by 12 h and 12 h^2,
    # is left; a second-order stencil would be off by about h^2 f_xxxx / 12,
    # i.e. 2e-6.
    ulp = 4 * np.finfo(float).eps
    assert np.array_equal(val, want_val)
    assert np.max(np.abs(grad - want_grad)) < 5 * ulp / FD_STENCIL
    assert np.max(np.abs(hess - want_hess)) < 20 * ulp / FD_STENCIL**2
    assert np.array_equal(hess[:, 0, 1], hess[:, 1, 0])


def test_stencil_matches_closed_form_derivatives_of_trig_exp_map():
    val, grad, hess = stencil(_transcendental, STENCIL_PTS)
    want_val, want_grad, want_hess = _transcendental_derivs(*STENCIL_PTS.T)
    assert np.array_equal(val, want_val)
    assert np.max(np.abs(grad - want_grad)) < 1e-8
    assert np.max(np.abs(hess - want_hess)) < 1e-8


# ---------------------------------------------------------------------------
# connection preservation through flows
# ---------------------------------------------------------------------------

def test_translation_preserves_sphere_connection(sphere_surface):
    assert flow_preserves_connection(sphere_surface, D2, 0.3) < 1e-6


def test_rotation_field_preserves_sphere_connection(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    grid = Grid((0.1, 0.1), (0.2, 0.2), 5)
    assert flow_preserves_connection(sphere_surface, x_field, 0.2, grid) < 1e-5


def test_non_killing_field_breaks_connection(sphere_surface):
    bad = VectorField(parse("x1"), parse("0"))
    grid = Grid((0.1, 0.1), (0.2, 0.2), 5)
    assert flow_preserves_connection(sphere_surface, bad, 0.2, grid) > 1e-2


def test_flow_check_rejects_a_stencil_outside_the_domain():
    # The grid reaches x1 = 0 and its stencil crosses it, while d1 moves
    # every image into x1 > 0: only the check on the flow's input fires.
    s = type_b({})
    with pytest.raises(DomainExit):
        flow_preserves_connection(s, D1, 0.2, Grid((0.2, 0.0), (0.2, 0.2), 5))


def test_flow_check_rejects_images_outside_the_domain():
    s = type_b({})
    back = VectorField(parse("-1"), parse("0"))
    with pytest.raises(DomainExit):
        flow_preserves_connection(s, back, 0.5, Grid((0.5, 0.0), (0.2, 0.2), 5))


# ---------------------------------------------------------------------------
# finite-difference residuals
# ---------------------------------------------------------------------------

def test_fd_residuals_of_symbolic_killing_fixture(sphere_surface, sphere_fields):
    for f in sphere_fields:
        assert fd_residuals(sphere_surface, f) < 1e-5


def test_fd_residuals_zero_field(sphere_surface):
    assert fd_residuals(sphere_surface, ZERO_FIELD) < 1e-15


def test_fd_residuals_negative_control(sphere_surface):
    bad = VectorField(parse("x1"), parse("0"))
    assert fd_residuals(sphere_surface, bad) > 1e-2


@pytest.mark.parametrize("a1, a2", [("x1", "0"), ("x1^2", "x2^2"),
                                    ("sin(x1)*x2", "cos(x1)")])
def test_fd_residuals_match_exact_residuals_of_non_killing_fields(sphere_surface, a1, a2):
    field = VectorField(parse(a1), parse(a2))
    grid = Grid((0.1, 0.1), (0.2, 0.2), 5)
    exact = max(abs(e.eval_numeric(tuple(p)))
                for e in residuals(sphere_surface, field).values() for p in grid.points())
    assert exact > 0.5
    assert abs(fd_residuals(sphere_surface, field, grid) - exact) < 1e-8


def test_extended_jet_basis_has_small_residuals(sphere_surface):
    # Every basis jet, extended numerically to a 5x5 grid, still satisfies
    # the Killing equations to finite-difference accuracy.
    ks = killing_jet_space(sphere_surface)
    grid = default_grid(sphere_surface, n=5, half_width=0.2)
    for jet in ks.basis:
        field = JetField(sphere_surface, jet, step=1e-3)
        assert fd_residuals(sphere_surface, field, grid) < 1e-5


def test_jet_branch_of_the_sphere_triple_is_at_rounding_level(sphere_surface, sphere_fields):
    for f in sphere_fields:
        field = JetField(sphere_surface, jet_of(sphere_surface, f), step=1e-3)
        assert fd_residuals(sphere_surface, field) < 1e-10


@pytest.mark.parametrize("jet", [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)])
def test_jets_outside_the_killing_space_have_large_residuals(sphere_surface, jet):
    field = JetField(sphere_surface, Jet1(*(Scalar.of(x) for x in jet)))
    assert fd_residuals(sphere_surface, field) > 1e-2


def test_default_grid_shrinks_near_boundary():
    s = type_b({})
    g = default_grid(s, n=5, half_width=2.0)
    assert g.half_width[0] <= 0.8 * 1.0
    assert g.half_width[1] == 2.0
    pts = g.points()
    assert np.all(pts[:, 0] > 0)


def test_default_grid_leaves_room_for_the_stencil():
    # Centred 0.005 from the edge of x1 > 0, the grid's stencil stays inside
    # the domain, so the flow check and both residual branches run.
    s = type_b({})
    grid = default_grid(s, center=(0.005, 0.0))
    assert np.min(grid.points()[:, 0]) - 2 * FD_STENCIL > 0
    assert flow_preserves_connection(s, D2, 0.1, grid) < 1e-9
    assert fd_residuals(s, D2, grid) < 1e-9
    assert fd_residuals(s, JetField(s, jet_of(s, D2)), grid) < 1e-9


def test_symbolic_residuals_reject_a_stencil_outside_the_domain():
    # The grid stops at x1 = 0.001, but its stencil reaches x1 = -0.001.
    with pytest.raises(DomainExit):
        fd_residuals(type_b({}), D2, Grid((0.005, 0.0), (0.004, 0.2), 5))
