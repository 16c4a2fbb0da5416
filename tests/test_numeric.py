"""Integrators and the numeric Killing oracles."""

import math

import numpy as np
import pytest

from affkit.killing import JetField, VectorField, killing_jet_space
from affkit.numeric import (
    DomainExit, Grid, default_grid, fd_residuals, flow, flow_batch,
    flow_preserves_connection, geodesic, geodesic_endpoints,
)
from affkit.surface import type_a, type_b
from affkit.symexpr import parse

D2 = VectorField(parse("0"), parse("1"))
ZERO_FIELD = VectorField(parse("0"), parse("0"))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_flow_of_translation():
    assert flow(D2, (0.0, 0.0), 1.0) == pytest.approx((0.0, 1.0), abs=1e-12)


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
    out = flow_batch(xd1, pts, np.array([0.3, -0.4, 0.1]), step=1e-3)
    assert abs(out[0, 0] - math.exp(0.3)) < 1e-10
    assert abs(out[1, 0] - math.exp(-0.4)) < 1e-10
    assert abs(out[2, 0] - 2 * math.exp(0.1)) < 1e-10


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_flat_geodesics_are_straight(flat_surface):
    _, pts = geodesic(flat_surface, (0.1, -0.2), (0.3, 0.5), 1.0, step=1e-2)
    assert np.allclose(pts[-1], [0.1 + 0.3, -0.2 + 0.5], atol=1e-12)
    mid = pts[len(pts) // 2]
    assert np.allclose(mid, [0.1 + 0.15, -0.2 + 0.25], atol=1e-12)


def test_sphere_meridian_is_a_geodesic(sphere_surface):
    _, pts = geodesic(sphere_surface, (0.0, 0.0), (1.0, 0.0), 0.5, step=1e-3)
    assert np.allclose(pts[-1], [0.5, 0.0], atol=1e-12)
    assert np.max(np.abs(pts[:, 1])) < 1e-14


def test_geodesic_measured_convergence_order(sphere_surface):
    # Generic initial data; self-convergence via Richardson triples.
    def endpoint(step):
        _, pts = geodesic(sphere_surface, (0.1, 0.0), (0.6, 0.8), 1.0, step=step)
        return pts[-1]

    e_h = np.linalg.norm(endpoint(0.04) - endpoint(0.02))
    e_h2 = np.linalg.norm(endpoint(0.02) - endpoint(0.01))
    assert math.log2(e_h / e_h2) >= 3.8


def test_geodesic_torsion_drops_out():
    # Antisymmetric parts of the symbols do not affect geodesics.
    sym = type_a({"121": 1, "211": 1})
    twisted = type_a({"121": 2, "211": 0})
    _, p1 = geodesic(sym, (0.0, 0.0), (0.4, 0.3), 1.0, step=1e-2)
    _, p2 = geodesic(twisted, (0.0, 0.0), (0.4, 0.3), 1.0, step=1e-2)
    assert np.allclose(p1[-1], p2[-1], atol=1e-13)


def test_geodesic_endpoints_match_sampled_geodesics(sphere_surface):
    # One right-hand side and one integrator behind both entry points.
    p0 = np.array([[0.1, 0.0], [-0.2, 0.5], [0.3, -0.1]])
    v0 = np.array([[0.6, 0.8], [1.0, 0.0], [-0.3, 0.4]])
    ends = geodesic_endpoints(sphere_surface, p0, v0, 0.7, step=1e-2)
    for p, v, end in zip(p0, v0, ends):
        _, pts = geodesic(sphere_surface, p, v, 0.7, step=1e-2)
        assert np.allclose(end, pts[-1], rtol=0, atol=1e-13)


def test_type_b_geodesic_domain_exit():
    s = type_b({})
    with pytest.raises(DomainExit):
        geodesic(s, (0.5, 0.0), (-1.0, 0.0), 1.0, step=1e-2)


# ---------------------------------------------------------------------------
# connection preservation through flows
# ---------------------------------------------------------------------------

def test_translation_preserves_sphere_connection(sphere_surface):
    rep = flow_preserves_connection(sphere_surface, D2, 0.3)
    assert rep.max_gamma_deviation < 1e-6


def test_rotation_field_preserves_sphere_connection(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    grid = Grid((0.1, 0.1), (0.2, 0.2), 5)
    rep = flow_preserves_connection(sphere_surface, x_field, 0.2, grid)
    assert rep.max_gamma_deviation < 1e-5


def test_non_killing_field_breaks_connection(sphere_surface):
    bad = VectorField(parse("x1"), parse("0"))
    grid = Grid((0.1, 0.1), (0.2, 0.2), 5)
    rep = flow_preserves_connection(sphere_surface, bad, 0.2, grid)
    assert rep.max_gamma_deviation > 1e-2


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


def test_extended_jet_basis_has_small_residuals(sphere_surface):
    # Every basis jet, extended numerically to a 5x5 grid, still satisfies
    # the Killing equations to finite-difference accuracy.
    ks = killing_jet_space(sphere_surface)
    grid = default_grid(sphere_surface, n=5, half_width=0.2)
    for jet in ks.basis:
        field = JetField(sphere_surface, jet, step=1e-3)
        assert fd_residuals(sphere_surface, field, grid) < 1e-5


def test_default_grid_shrinks_near_boundary():
    s = type_b({})
    g = default_grid(s, n=5, half_width=2.0)
    assert g.half_width[0] <= 0.8 * 1.0
    assert g.half_width[1] == 2.0
    pts = g.points()
    assert np.all(pts[:, 0] > 0)
