"""Distinguished coordinate charts, built from flows and verified on grids.

Three constructions:

* ``normalize_chart``: geodesic coordinate transverse to the flow of a
  nonvanishing Killing field; in the result the x1-lines are affinely
  parametrized geodesics (G_11^k = 0) and nothing depends on x2.

* ``commuting_chart``: simultaneous flow-box for a commuting effective
  Killing pair; the pulled-back symbols are constant.

* ``type_b_chart``: for an effective pair with [X, Y] = Y: flow-box for Y,
  a shear removing the inhomogeneous part of X, then a radial coordinate
  turning X into -x1 d1 - x2 d2; the pulled-back symbols times x1 are
  constant.

All verification is numeric on a grid.  Chart maps are built from batched
fixed-step RK4 integrations (every stencil point advances with the same
step count, keeping roundoff correlated; a leg that depends on one chart
coordinate only is integrated once per distinct value), and the pullback
here uses fourth-order stencils at h = 1e-3, whose rounding floor (~1e-9)
sits well below every report threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .killing import VectorField, is_killing
from .liealg import bracket_fields
from .numeric import (Grid, _check_domain, _gamma_array_fn, _rk4, flow_batch,
                      geodesic_endpoints)
from .surface import AffineSurface
from .symexpr import compile_exprs

FD_CHART = 1e-3


class ChartError(Exception):
    pass


class NotKilling(ChartError):
    pass


class ZeroAtBasepoint(ChartError):
    pass


class NotCommuting(ChartError):
    pass


class NotEffective(ChartError):
    pass


class BadRelation(ChartError):
    pass


class ShearSingular(ChartError):
    """u vanishes on the requested range."""


class ChartVerificationError(ChartError):
    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


@dataclass
class Chart:
    mode: str
    forward: Callable[[np.ndarray], np.ndarray]
    grid: Grid
    report: dict = field(default_factory=dict)

    def point(self, q) -> tuple[float, float]:
        out = self.forward(np.array([q], dtype=float))
        return (float(out[0, 0]), float(out[0, 1]))

    def jacobian(self, q, h: float = FD_CHART) -> np.ndarray:
        """Finite-difference differential dT at a chart point (2x2)."""
        q = np.asarray(q, dtype=float)
        cols = []
        for axis in (0, 1):
            offs = np.zeros((4, 2))
            offs[:, axis] = [-2 * h, -h, h, 2 * h]
            vals = self.forward(q[None, :] + offs)
            cols.append(np.einsum("k,kc->c", _W1, vals) / h)
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# fourth-order pullback of the symbols through an arbitrary map
# ---------------------------------------------------------------------------

_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0     # offsets -2h, -h, +h, +2h
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # with center


def _stencil_offsets(h: float) -> np.ndarray:
    axis = [-2 * h, -h, h, 2 * h]
    pts = [(0.0, 0.0)]
    pts += [(a, 0.0) for a in axis]
    pts += [(0.0, a) for a in axis]
    pts += [(a, b) for a in axis for b in axis]
    return np.array(pts)


def pullback_gamma_batch(s: AffineSurface, transport, qs: np.ndarray,
                         h: float = FD_CHART) -> np.ndarray:
    """Pulled-back symbols (N,2,2,2) at chart points qs (N,2)."""
    gamma = _gamma_array_fn(s)
    offsets = _stencil_offsets(h)
    n_pts = qs.shape[0]
    stencil = (qs[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    mapped = transport(stencil)
    _check_domain(s, mapped)
    mapped = mapped.reshape(n_pts, len(offsets), 2)

    center = mapped[:, 0]
    ax1 = mapped[:, 1:5]    # -2h, -h, +h, +2h along axis 1
    ax2 = mapped[:, 5:9]
    cross = mapped[:, 9:].reshape(n_pts, 4, 4, 2)

    jac = np.empty((n_pts, 2, 2))
    jac[:, :, 0] = np.einsum("k,nkc->nc", _W1, ax1) / h
    jac[:, :, 1] = np.einsum("k,nkc->nc", _W1, ax2) / h

    djac = np.empty((n_pts, 2, 2, 2))  # [n, i, c, j] = d_i J^c_j
    with_c1 = np.concatenate([ax1[:, :2], center[:, None, :], ax1[:, 2:]], axis=1)
    with_c2 = np.concatenate([ax2[:, :2], center[:, None, :], ax2[:, 2:]], axis=1)
    djac[:, 0, :, 0] = np.einsum("k,nkc->nc", _W2, with_c1) / h**2
    djac[:, 1, :, 1] = np.einsum("k,nkc->nc", _W2, with_c2) / h**2
    mixed = np.einsum("a,b,nabc->nc", _W1, _W1, cross) / h**2
    djac[:, 0, :, 1] = mixed
    djac[:, 1, :, 0] = mixed

    det = np.linalg.det(jac)
    if np.min(np.abs(det)) < 1e-6:
        raise ChartError("chart Jacobian is singular on the grid")
    jinv = np.linalg.inv(jac)
    pulled = np.einsum("nkc,nicj->nijk", jinv, djac)
    pulled += np.einsum("nkc,nabc,nai,nbj->nijk", jinv, gamma(center), jac, jac)
    return pulled


def pullback_gamma(s: AffineSurface, chart: Chart, q) -> dict[str, float]:
    """The eight pulled-back symbols at one chart point."""
    pulled = pullback_gamma_batch(s, chart.forward, np.array([q], dtype=float))
    return {f"{i}{j}{k}": float(pulled[0, i - 1, j - 1, k - 1])
            for i, j, k in product((1, 2), repeat=3)}


# ---------------------------------------------------------------------------
# chart constructions
# ---------------------------------------------------------------------------

def _transverse_axis(direction: tuple[float, float]) -> np.ndarray:
    # Coordinate axis maximizing |det(axis, direction)|.
    if abs(direction[1]) >= abs(direction[0]):
        return np.array([1.0, 0.0])
    return np.array([0.0, 1.0])


def _chart_grid(center: tuple[float, float], n: int, half_width: float) -> Grid:
    return Grid(center, (half_width, half_width), n)


def _finalize(mode, forward, grid, report, tol) -> Chart:
    checks = {k: v for k, v in report.items() if isinstance(v, float)}
    report["pass"] = all(v < tol for v in checks.values())
    report["tol"] = tol
    chart = Chart(mode, forward, grid, report)
    if not report["pass"]:
        raise ChartVerificationError(
            f"{mode} chart failed verification: {checks}", report)
    return chart


def normalize_chart(s: AffineSurface, xi: VectorField, *,
                    center: tuple[float, float] | None = None,
                    n: int = 11, half_width: float = 0.2,
                    tol: float = 1e-4, step: float = 1e-3) -> Chart:
    """Chart T(x1, x2) = (flow of xi for time x2)(geodesic(x1)).

    Requires xi Killing with xi nonzero at the chart center.  The report
    checks G~_11^1 and G~_11^2 on the grid and the x2-independence of all
    eight pulled-back symbols.
    """
    if not is_killing(s, xi):
        raise NotKilling("the supplied field does not satisfy the Killing equations")
    c = center or (float(s.basepoint[0]), float(s.basepoint[1]))
    xi_at_c = xi.eval_real(c)
    if math.hypot(*xi_at_c) < 1e-9:
        raise ZeroAtBasepoint("the field vanishes at the chart center")
    v0 = _transverse_axis(xi_at_c)

    def forward(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        u, inverse = np.unique(pts[:, 0], return_inverse=True)
        base = np.repeat([c], len(u), axis=0)
        vel = np.repeat([v0], len(u), axis=0)
        sigma = geodesic_endpoints(s, base, vel, u, step)[inverse]
        return flow_batch(xi, sigma, pts[:, 1], step)

    grid = _chart_grid((0.0, 0.0), n, half_width)
    pulled = pullback_gamma_batch(s, forward, grid.points())
    report = {
        "gamma_111_max": float(np.max(np.abs(pulled[:, 0, 0, 0]))),
        "gamma_112_max": float(np.max(np.abs(pulled[:, 0, 0, 1]))),
        "x2_dependence": _column_spread(pulled, n),
    }
    return _finalize("normalize", forward, grid, report, tol)


def _column_spread(pulled: np.ndarray, n: int) -> float:
    """Max variation of any symbol along the x2 grid direction."""
    cube = pulled.reshape(n, n, 2, 2, 2)  # [x1 index, x2 index, i, j, k]
    return float(np.max(cube.max(axis=1) - cube.min(axis=1)))


def _total_spread(pulled: np.ndarray) -> float:
    return float(np.max(pulled.max(axis=0) - pulled.min(axis=0)))


def commuting_chart(s: AffineSurface, X: VectorField, Y: VectorField, *,
                    center: tuple[float, float] | None = None,
                    n: int = 11, half_width: float = 0.2,
                    tol: float = 1e-4, step: float = 1e-3) -> Chart:
    """Simultaneous flow-box T(x1, x2) = Phi^X_x1(Phi^Y_x2(P)).

    For a commuting effective Killing pair the pulled-back symbols are
    constant; the report carries their total spread over the grid.
    """
    for f in (X, Y):
        if not is_killing(s, f):
            raise NotKilling("both fields must satisfy the Killing equations")
    br = bracket_fields(X, Y)
    if not (br.a1.is_zero and br.a2.is_zero):
        raise NotCommuting("[X, Y] != 0")
    c = center or (float(s.basepoint[0]), float(s.basepoint[1]))
    xv, yv = X.eval_real(c), Y.eval_real(c)
    if abs(xv[0] * yv[1] - xv[1] * yv[0]) < 1e-9:
        raise NotEffective("X(P) and Y(P) do not span the tangent plane")

    def forward(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        w2, inverse = np.unique(pts[:, 1], return_inverse=True)
        mid = flow_batch(Y, np.repeat([c], len(w2), axis=0), w2, step)[inverse]
        return flow_batch(X, mid, pts[:, 0], step)

    grid = _chart_grid((0.0, 0.0), n, half_width)
    pulled = pullback_gamma_batch(s, forward, grid.points())
    report = {"gamma_spread": _total_spread(pulled)}
    return _finalize("commuting", forward, grid, report, tol)


# ---------------------------------------------------------------------------
# shear ODE (public sampled form) and the radial chart
# ---------------------------------------------------------------------------

def solve_shear_ode(u, v, x_range: tuple[float, float], step: float = 1e-3,
                    eps0: float | None = None):
    """Sampled solution of u * eps' = eps - v on x_range.

    Integration starts at the midpoint x0 with eps(x0) = v(x0) unless an
    explicit initial value is supplied.  Returns (xs, eps) arrays.
    """
    x0 = 0.5 * (x_range[0] + x_range[1])
    if abs(float(u(x0))) < 1e-12:
        raise ShearSingular("u vanishes at the anchor point")
    e0 = float(v(x0)) if eps0 is None else float(eps0)

    def march(x_stop):
        span = x_stop - x0
        n = max(1, math.ceil(abs(span) / step))

        def rhs(tau, e):
            x = x0 + tau * span
            uu = float(u(x))
            if abs(uu) < 1e-12:
                raise ShearSingular(f"u vanishes at x = {x}")
            return span * (e - float(v(x))) / uu

        es = _rk4(rhs, np.array([e0]), n, path=True)[:, 0]
        return x0 + span * np.arange(n + 1) / n, es

    left_x, left_e = march(x_range[0])
    right_x, right_e = march(x_range[1])
    xs = np.concatenate([left_x[::-1], right_x[1:]])
    es = np.concatenate([left_e[::-1], right_e[1:]])
    return xs, es


def type_b_chart(s: AffineSurface, X: VectorField, Y: VectorField, *,
                 center: tuple[float, float] | None = None,
                 n: int = 11, half_width: float = 0.2,
                 tol: float = 1e-4, step: float = 1e-3) -> Chart:
    """Radial chart for an effective Killing pair with [X, Y] = Y.

    Compose a flow-box for Y, the shear that removes the x1-dependent
    vertical part of X, and the radial coordinate solving u d1 = -x1 d1;
    afterwards x1 times every pulled-back symbol is constant.  The report
    carries the spread of those products and their mean values.
    """
    for f in (X, Y):
        if not is_killing(s, f):
            raise NotKilling("both fields must satisfy the Killing equations")
    br = bracket_fields(X, Y)
    if not ((br.a1 - Y.a1).is_zero and (br.a2 - Y.a2).is_zero):
        raise BadRelation("[X, Y] != Y")
    c = center or (float(s.basepoint[0]), float(s.basepoint[1]))
    c = np.asarray(c, dtype=float)
    xv, yv = X.eval_real(c), Y.eval_real(c)
    if abs(xv[0] * yv[1] - xv[1] * yv[0]) < 1e-9:
        raise NotEffective("X(P) and Y(P) do not span the tangent plane")
    axis = _transverse_axis(yv)

    # In flow-box coordinates (w1, w2): F(w1, w2) = Phi^Y_w2(P + w1 axis),
    # and on the w2 = 0 slice dF = [axis | Y], so the components of X are
    # closed-form: (u, v0)(w1) = dF^{-1} X at P + w1 axis.
    components = compile_exprs([X.a1, X.a2, Y.a1, Y.a2])

    def x_components(w1: np.ndarray):
        x1, x2, y1, y2 = components(c[0] + w1 * axis[0], c[1] + w1 * axis[1]).real
        det = axis[0] * y2 - axis[1] * y1
        if np.min(np.abs(det)) < 1e-12:
            raise NotEffective("transversal degenerates along the slice")
        u = (x1 * y2 - x2 * y1) / det
        v0 = (axis[0] * x2 - axis[1] * x1) / det
        return u, v0

    u_anchor, _ = x_components(np.zeros(1))
    if abs(float(u_anchor[0])) < 1e-9:
        raise ShearSingular("u vanishes at the chart center")

    def shear_eps(w1_targets: np.ndarray) -> np.ndarray:
        # eps' = -(eps + v0)/u with eps(0) = 0: among the valid shears
        # (they differ by a homogeneous solution) this one fixes the slice
        # w2 = 0, so the chart origin lands exactly on the center point.
        eps = np.zeros(len(w1_targets))
        spans = np.asarray(w1_targets, dtype=float)
        tmax = float(np.max(np.abs(spans)))
        if tmax == 0.0:
            return eps
        n_steps = max(1, math.ceil(tmax / step))

        def rhs(tau, e):
            uu, vv = x_components(tau * spans)
            if np.min(np.abs(uu)) < 1e-12:
                raise ShearSingular("u vanishes along the shear range")
            return -(e + vv) / uu * spans

        return _rk4(rhs, eps, n_steps)

    def radial_inverse(xhat: np.ndarray) -> np.ndarray:
        # d w1 / d xhat = -u(w1)/xhat, w1(1) = 0, marched in unit time.
        spans = np.asarray(xhat, dtype=float) - 1.0
        if np.min(np.asarray(xhat, dtype=float)) <= 0:
            raise ChartError("radial coordinate must stay positive")
        w = np.zeros(len(spans))
        tmax = float(np.max(np.abs(spans)))
        if tmax == 0.0:
            return w
        n_steps = max(1, math.ceil(tmax / step))

        def rhs(tau, y):
            uu, _ = x_components(y)
            if np.min(np.abs(uu)) < 1e-12:
                raise ShearSingular("u vanishes along the radial range")
            return -(uu / (1.0 + tau * spans)) * spans

        return _rk4(rhs, w, n_steps)

    def forward(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        xhat, inverse = np.unique(pts[:, 0], return_inverse=True)
        w1 = radial_inverse(xhat)
        w2 = pts[:, 1] - shear_eps(w1)[inverse]
        base = c[None, :] + w1[inverse, None] * axis[None, :]
        return flow_batch(Y, base, w2, step)

    grid = _chart_grid((1.0, 0.0), n, half_width)
    pts = grid.points()
    pulled = pullback_gamma_batch(s, forward, pts)
    scaled = pulled * pts[:, 0][:, None, None, None]
    constants = {f"{i}{j}{k}": float(np.mean(scaled[:, i - 1, j - 1, k - 1]))
                 for i, j, k in product((1, 2), repeat=3)}
    report = {
        "scaled_gamma_spread": _total_spread(scaled),
        "constants": constants,
    }
    return _finalize("type-b", forward, grid, report, tol)
