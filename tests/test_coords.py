"""Chart construction, pullback transformation, and grid verification."""

import numpy as np
import pytest

import affkit.coords
import affkit.numeric
from affkit.coords import (
    Chart, ChartError, ChartVerificationError, NotCommuting, NotEffective,
    NotKilling, ZeroAtBasepoint, commuting_chart, normalize_chart,
    pullback_gamma, pullback_gamma_batch, type_b_chart,
)
from affkit.killing import JetField, VectorField, jet_of
from affkit.liealg import classify
from affkit.numeric import (Grid, NumericError, SingularMap, fd_residuals,
                            flow_preserves_connection, symbols_fn)
from affkit.surface import type_a, type_b
from affkit.symexpr import parse

from conftest import D1, D2, RADIAL


def identity_chart(grid=None):
    return Chart(lambda pts: np.asarray(pts, dtype=float),
                 grid or Grid((0.0, 0.0), (0.2, 0.2), 5))


# ---------------------------------------------------------------------------
# pullback through elementary maps
# ---------------------------------------------------------------------------

def test_pullback_identity_chart(sphere_surface):
    got = pullback_gamma(sphere_surface, identity_chart(), (0.2, 0.1))
    for key, expr in sphere_surface.gamma.items():
        want = expr.eval_numeric((0.2, 0.1)).real
        assert abs(got[key] - want) < 1e-8


def test_pullback_translation_chart(sphere_surface):
    # x2-translations leave x2-independent symbols alone.
    chart = Chart(lambda pts: pts + np.array([0.0, 1.0]),
                  Grid((0.0, 0.0), (0.2, 0.2), 5))
    got = pullback_gamma(sphere_surface, chart, (0.15, -0.3))
    for key, expr in sphere_surface.gamma.items():
        want = expr.eval_numeric((0.15, -0.3)).real
        assert abs(got[key] - want) < 1e-8


def test_pullback_homothety_fixes_type_b():
    # Simultaneous scaling of both coordinates preserves A/x1 symbols.
    s = type_b({"111": -1, "221": 2, "122": 1})
    lam = 1.7
    chart = Chart(lambda pts: lam * np.asarray(pts, dtype=float),
                  Grid((1.0, 0.0), (0.2, 0.2), 5))
    got = pullback_gamma(s, chart, (1.1, 0.2))
    for key, expr in s.gamma.items():
        want = expr.eval_numeric((1.1, 0.2)).real
        assert abs(got[key] - want) < 1e-8


def test_degenerate_chart_map_raises_singular_map(sphere_surface):
    # T(x1, x2) = (x1, x1) collapses the plane onto a line.
    chart = Chart(lambda pts: np.stack([pts[:, 0], pts[:, 0]], axis=1),
                  Grid((0.0, 0.0), (0.2, 0.2), 5))
    with pytest.raises(SingularMap):
        pullback_gamma(sphere_surface, chart, (0.1, 0.2))
    assert issubclass(SingularMap, NumericError)   # the CLI exits with code 2


# ---------------------------------------------------------------------------
# normalize_chart
# ---------------------------------------------------------------------------

def test_normalize_sphere_translation(sphere_surface):
    chart = normalize_chart(sphere_surface, D2, tol=1e-4)
    assert chart.report["gamma_111_max"] < 1e-6
    assert chart.report["gamma_112_max"] < 1e-6
    assert chart.report["x2_dependence"] < 1e-6


def test_normalize_flat_diagonal_field(flat_surface):
    xi = VectorField(parse("1"), parse("1"))
    chart = normalize_chart(flat_surface, xi, n=11, tol=1e-4)
    assert max(chart.report["gamma_111_max"], chart.report["gamma_112_max"],
               chart.report["x2_dependence"]) < 1e-5


def test_normalize_sphere_rotation_field_off_center(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    chart = normalize_chart(sphere_surface, x_field, center=(0.1, 0.0),
                            half_width=0.15, tol=1e-4)
    assert max(chart.report["gamma_111_max"], chart.report["gamma_112_max"],
               chart.report["x2_dependence"]) < 1e-4


def test_normalize_rejects_non_killing(sphere_surface):
    with pytest.raises(NotKilling):
        normalize_chart(sphere_surface, VectorField(parse("x1"), parse("0")))


def test_normalize_rejects_vanishing_field(flat_surface):
    xi = VectorField(parse("x1"), parse("x2"))  # Killing on flat, zero at P
    with pytest.raises(ZeroAtBasepoint):
        normalize_chart(flat_surface, xi)


def test_charts_reject_a_field_that_is_not_real_at_the_centre():
    # Realness is decided exactly, by the field's compiled evaluator, as for
    # its flows; a float tolerance on its value at the centre no longer does.
    gaussian = VectorField(parse("i"), parse("1"))
    with pytest.raises(NumericError, match="is not real"):
        normalize_chart(type_a({}), gaussian)
    with pytest.raises(NumericError, match="is not real"):
        commuting_chart(type_a({}), gaussian, D2)


def test_failed_verification_raises_with_report(sphere_surface):
    with pytest.raises(ChartVerificationError) as err:
        normalize_chart(sphere_surface, D2, tol=1e-13)
    assert "gamma_111_max" in err.value.report


def test_chart_jacobian_of_near_identity_chart(sphere_surface):
    chart = normalize_chart(sphere_surface, D2, tol=1e-4)
    jac = chart.jacobian((0.05, 0.1))
    assert np.allclose(jac, np.eye(2), atol=1e-9)


# ---------------------------------------------------------------------------
# commuting_chart
# ---------------------------------------------------------------------------

def test_commuting_flat_translations(flat_surface):
    chart = commuting_chart(flat_surface, D1, D2, tol=1e-6)
    assert chart.report["gamma_spread"] < 1e-8


def test_commuting_constant_gamma_already_constant():
    chart = commuting_chart(type_a({"112": 1}), D1, D2, tol=1e-6)
    assert chart.report["gamma_spread"] < 1e-8


def test_commuting_on_half_plane_model():
    # A/x1 with A = 0 is flat on x1 > 0 and also carries the abelian pair,
    # exhibiting that the branch structures are not exclusive.
    s = type_b({})
    res = classify(s)
    assert {"TypeA", "TypeB"} <= set(res.kinds())
    chart = commuting_chart(s, D1, D2, half_width=0.15, tol=1e-4)
    assert chart.report["gamma_spread"] < 1e-8


def test_commuting_rejects_non_commuting_pair(flat_surface):
    X = VectorField(parse("x1"), parse("0"))
    with pytest.raises(NotCommuting):
        commuting_chart(flat_surface, X, D1)


def test_commuting_rejects_parallel_pair(flat_surface):
    X = VectorField(parse("2"), parse("0"))
    with pytest.raises(NotEffective):
        commuting_chart(flat_surface, X, D1)


# ---------------------------------------------------------------------------
# type_b_chart
# ---------------------------------------------------------------------------

def test_type_b_chart_recovers_constants():
    s = type_b({"111": -1})
    chart = type_b_chart(s, RADIAL, D2, tol=1e-4)
    assert chart.report["scaled_gamma_spread"] < 1e-4
    consts = chart.report["constants"]
    assert abs(consts["111"] - (-1.0)) < 1e-3
    for key, val in consts.items():
        if key != "111":
            assert abs(val) < 1e-3


def test_type_b_chart_on_flat_plane(flat_surface):
    # The radial pair vanishes at the origin; anchor the chart at (1, 0).
    chart = type_b_chart(flat_surface, RADIAL, D2, center=(1.0, 0.0),
                         half_width=0.15, tol=1e-4)
    assert chart.report["scaled_gamma_spread"] < 1e-6
    assert max(abs(v) for v in chart.report["constants"].values()) < 1e-6


def test_type_b_chart_on_constant_gamma_surface():
    # A constant-symbol surface that also carries a [X,Y] = Y pair: the
    # radial chart realizes the A/x1 form on it end to end.
    s = type_a({"222": -1})
    res = classify(s)
    assert "TypeB" in res.kinds()
    X = VectorField(parse("1"), parse("1"))
    Y = VectorField(parse("0"), parse("exp(1*x2)"))
    chart = type_b_chart(s, X, Y, half_width=0.1, tol=1e-3)
    assert chart.report["scaled_gamma_spread"] < 1e-3


def test_type_b_chart_map_is_the_model_chart():
    # On an A/x1 surface with X = -x1 d1 - x2 d2 and Y = d2 the chart is
    # Phi^Y_x2(Phi^X_{-ln x1}(c)) = (c1 x1, c2 x1 + x2) in closed form.
    s = type_b({"111": 1, "122": -2, "221": 2})
    chart = type_b_chart(s, RADIAL, D2, center=(1.1, 0.2))
    pts = chart.grid.points()
    want = np.stack([1.1 * pts[:, 0], 0.2 * pts[:, 0] + pts[:, 1]], axis=1)
    assert np.max(np.abs(chart.forward(pts) - want)) < 1e-12


def test_type_b_chart_map_on_constant_gamma_surface():
    # X = d1 + d2 moves (0, 0) to (-ln x1, -ln x1), and the flow of
    # Y = exp(x2) d2 solves exp(-x2) = exp(-x2(0)) - t, so the chart is
    # (-ln x1, -ln(x1 - x2)).
    s = type_a({"222": -1})
    X = VectorField(parse("1"), parse("1"))
    Y = VectorField(parse("0"), parse("exp(1*x2)"))
    chart = type_b_chart(s, X, Y, half_width=0.1, tol=1e-3)
    pts = chart.grid.points()
    want = np.stack([-np.log(pts[:, 0]), -np.log(pts[:, 0] - pts[:, 1])], axis=1)
    assert np.max(np.abs(chart.forward(pts) - want)) < 1e-12


def test_type_b_chart_needs_positive_x1():
    # half_width = 1 puts the grid's left edge on x1 = 0, where -ln x1 ends.
    with pytest.raises(ChartError, match="x1 must stay positive"):
        type_b_chart(type_b({"111": -1}), RADIAL, D2, half_width=1.0)


def test_type_b_chart_rejects_wrong_relation(flat_surface):
    from affkit.coords import BadRelation
    with pytest.raises(BadRelation):
        type_b_chart(flat_surface, D1, D2)


# ---------------------------------------------------------------------------
# chart inverse roundtrip
# ---------------------------------------------------------------------------

def _newton_inverse(chart, seed_map, iters=8, h=1e-6):
    def inverse(targets):
        q = seed_map(np.asarray(targets, dtype=float))
        for _ in range(iters):
            f0 = chart.forward(q)
            e1 = np.array([h, 0.0])
            e2 = np.array([0.0, h])
            j0 = (chart.forward(q + e1) - chart.forward(q - e1)) / (2 * h)
            j1 = (chart.forward(q + e2) - chart.forward(q - e2)) / (2 * h)
            jac = np.stack([j0, j1], axis=-1)
            rhs = targets - f0
            q = q + np.linalg.solve(jac, rhs[..., None])[..., 0]
        return q
    return inverse


def test_pullback_through_chart_and_inverse_returns_gamma(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    chart = normalize_chart(sphere_surface, x_field, center=(0.1, 0.0),
                            half_width=0.15, tol=1e-4)
    origin = chart.point((0.0, 0.0))
    seed = lambda targets: targets - np.asarray(origin)
    inverse = _newton_inverse(chart, seed)
    composed = lambda pts: chart.forward(inverse(pts))

    qs = np.array([[0.12, 0.02], [0.05, -0.04]])
    pulled = pullback_gamma_batch(sphere_surface, symbols_fn(sphere_surface), composed, qs)
    for row, q in enumerate(qs):
        for key, expr in sphere_surface.gamma.items():
            i, j, k = (int(ch) for ch in key)
            want = expr.eval_numeric(tuple(q)).real
            assert abs(pulled[row, i - 1, j - 1, k - 1] - want) < 1e-6


# ---------------------------------------------------------------------------
# one evaluator per expression list
# ---------------------------------------------------------------------------

def test_each_builder_and_check_compiles_each_expression_list_once(
        sphere_surface, sphere_fields, monkeypatch):
    # Per call: every field flowed or evaluated once, the symbols once, and
    # each axis of a JetField once; the charts' legs and center values share
    # one evaluator per field.  Every flow leg of a chart is one call of the
    # public ``numeric.flow_batch``.
    calls, flows = [], []
    monkeypatch.setattr(affkit.numeric, "compile_exprs",
                        lambda exprs, compile=affkit.numeric.compile_exprs:
                        calls.append(exprs) or compile(exprs))
    monkeypatch.setattr(affkit.coords, "flow_batch",
                        lambda *args, flow=affkit.coords.flow_batch: flows.append(args) or flow(*args))

    def compiles(run):
        calls.clear()
        flows.clear()
        run()
        return len(calls)

    sph, sa = sphere_surface, type_a({"112": 1, "221": -1})
    grid = Grid((0.1, 0.2), (0.2, 0.2), 5)
    control = VectorField(parse("x1^2"), parse("x2^2"))
    assert compiles(lambda: normalize_chart(sph, D2, n=5)) == 2
    assert len(flows) == 1
    assert compiles(lambda: commuting_chart(sa, D1, D2, n=5)) == 3
    assert len(flows) == 2
    assert compiles(lambda: type_b_chart(type_b({"111": -1}), RADIAL, D2, n=5)) == 3
    assert len(flows) == 2
    for s, field in ((sph, sphere_fields[0]), (sa, D1), (sa, control)):
        assert compiles(lambda: flow_preserves_connection(s, field, 0.2, grid)) == 2
    assert compiles(lambda: fd_residuals(sph, sphere_fields[1], grid)) == 2
    jet = jet_of(sph, sphere_fields[0])
    assert compiles(lambda: fd_residuals(sph, JetField(sph, jet, step=1e-2),
                                         Grid((0.1, 0.2), (0.2, 0.2), 3))) == 3
