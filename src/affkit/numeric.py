"""Floating-point oracles: RK4 flows, geodesics, grid residuals.

These routines deliberately avoid the symbolic layer except to evaluate
expressions pointwise, so they can serve as independent checks of the
exact computations: a field is Killing iff pulling the connection back
through its time-t flow reproduces the Christoffel symbols, and iff the
finite-difference residuals of the Killing equations vanish on a grid.

Finite-difference steps are 1e-5 for first derivatives and 1e-4 for
second derivatives, balancing truncation against double rounding.
All integration (flows, geodesics, jet extension) is the one fixed-step
RK4 loop ``_rk4``; a batch shares one step count, so roundoff correlates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .killing import VectorField
from .surface import GAMMA_KEYS, AffineSurface
from .symexpr import compile_exprs

FD_FIRST = 1e-5
FD_SECOND = 1e-4


class NumericError(Exception):
    pass


class DomainExit(NumericError):
    """A trajectory or grid left the surface's validity domain."""


@dataclass(frozen=True)
class Grid:
    center: tuple[float, float]
    half_width: tuple[float, float]
    n: int

    def points(self) -> np.ndarray:
        xs = np.linspace(self.center[0] - self.half_width[0],
                         self.center[0] + self.half_width[0], self.n)
        ys = np.linspace(self.center[1] - self.half_width[1],
                         self.center[1] + self.half_width[1], self.n)
        return np.array([(x, y) for x in xs for y in ys])


def default_grid(s: AffineSurface, n: int = 5, half_width: float = 0.2,
                 center: tuple[float, float] | None = None) -> Grid:
    """Grid around the basepoint, shrunk near the domain boundary."""
    c = center or (float(s.basepoint[0]), float(s.basepoint[1]))
    lo, hi = s.domain_bounds()
    hw = half_width
    margin = 0.8
    if math.isfinite(lo):
        hw = min(hw, margin * (c[0] - lo))
    if math.isfinite(hi):
        hw = min(hw, margin * (hi - c[0]))
    if hw <= 0:
        raise DomainExit("grid center too close to the domain boundary")
    return Grid(c, (hw, half_width), n)


@dataclass(frozen=True)
class FlowReport:
    max_gamma_deviation: float
    t: float
    step: float


# ---------------------------------------------------------------------------
# field evaluation helpers
# ---------------------------------------------------------------------------

def _field_array_fn(field: VectorField) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(x1, x2) -> (2, N) evaluator of a VectorField."""
    components = compile_exprs([field.a1, field.a2])
    return lambda x1, x2: components(x1, x2).real


def _gamma_array_fn(s: AffineSurface):
    """(..., 2) -> (..., 2, 2, 2) evaluator of the symbols, indexed [i, j, k]."""
    symbols = compile_exprs([s.gamma[key] for key in GAMMA_KEYS])

    def gamma(pts: np.ndarray) -> np.ndarray:
        out = np.moveaxis(symbols(pts[..., 0], pts[..., 1]).real, 0, -1)
        return out.reshape(pts.shape[:-1] + (2, 2, 2))

    return gamma


def _check_domain(s: AffineSurface, pts: np.ndarray) -> None:
    lo, hi = s.domain_bounds()
    x1 = np.atleast_2d(pts)[..., 0]
    if np.any(x1 <= lo) or np.any(x1 >= hi):
        raise DomainExit(f"x1 leaves ({lo}, {hi})")


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def _rk4(rhs, y: np.ndarray, n_steps: int, path: bool = False) -> np.ndarray:
    """Classical RK4 over unit pseudo-time with n_steps fixed steps.

    The state update is compensated (Kahan) so that roundoff does not
    accumulate over steps; stencil differences of flowed points then sit
    at the single-rounding floor.  With ``path`` the states after every
    step are returned too, stacked (n_steps + 1, ...) from the initial one.
    """
    h = 1.0 / n_steps
    t = 0.0
    comp = np.zeros_like(y)
    states = [y]
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        dy = (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4) - comp
        y_next = y + dy
        comp = (y_next - y) - dy
        y = y_next
        t += h
        if path:
            states.append(y)
    return np.stack(states) if path else y


def flow_batch(field, points: np.ndarray, t, step: float = 1e-3) -> np.ndarray:
    """Flow many points for (possibly distinct) times with a shared step count.

    Each row integrates d y / d tau = t_row * X(y) over unit pseudo-time, so
    all rows advance in lockstep and finish exactly at their target times.
    The step count is ceil(max|t| / step) for the whole batch, so a row's
    result depends on the largest time in its batch.
    """
    f = _field_array_fn(field)
    times = np.broadcast_to(np.asarray(t, dtype=float), (points.shape[0],))
    tmax = float(np.max(np.abs(times)))
    if tmax == 0.0:
        return points.copy()
    n = max(1, math.ceil(tmax / step))
    rows = np.ascontiguousarray(points.T, dtype=float)  # (2, N): x1 and x2 rows
    return _rk4(lambda _, y: times * f(y[0], y[1]), rows, n).T


def flow(field, p, t: float, step: float = 1e-3):
    """Flow a single point for time t along the field."""
    out = flow_batch(field, np.array([p], dtype=float), t, step)
    return (float(out[0, 0]), float(out[0, 1]))


def _geodesic_rhs(s: AffineSurface):
    """Geodesic equation on states (4, N): rows x1, x2, v1, v2.

    The acceleration -G_ij^k v^i v^j is one two-operand contraction of
    (v x v) (4, N) with the symbols reshaped (4, 2, N).  Only the symmetric
    part of the connection acts; torsion drops out of the quadratic form.
    """
    symbols = compile_exprs([s.gamma[key] for key in GAMMA_KEYS])

    def rhs(_, y):
        vel = y[2:]
        vv = (vel[:, None, :] * vel[None, :, :]).reshape(4, -1)
        g = symbols(y[0], y[1]).real.reshape(4, 2, -1)
        return np.concatenate([vel, -np.einsum("mn,mkn->kn", vv, g)])

    return rhs


def geodesic_endpoints(s: AffineSurface, p0: np.ndarray, v0: np.ndarray,
                       times, step: float = 1e-3) -> np.ndarray:
    """Endpoint of the geodesic from each p0 with velocity v0 at parameter t.

    Affine reparametrization folds the time into the initial velocity, so a
    batch with distinct times shares one step count, ceil(max|t| / step),
    and a row's endpoint depends on the largest time in its batch.
    """
    times = np.broadcast_to(np.asarray(times, dtype=float), (p0.shape[0],))
    tmax = float(np.max(np.abs(times)))
    if tmax == 0.0:
        return p0.copy()
    n = max(1, math.ceil(tmax / step))
    state = np.concatenate([p0.T, (v0 * times[:, None]).T]).astype(float)
    out = _rk4(_geodesic_rhs(s), state, n)[:2].T
    _check_domain(s, out)
    return out


def geodesic(s: AffineSurface, p, v, s_max: float, step: float = 1e-3):
    """Sampled geodesic path: returns (parameters, points (N,2))."""
    n = max(1, math.ceil(abs(s_max) / step))
    state = np.array([[p[0]], [p[1]], [v[0] * s_max], [v[1] * s_max]], dtype=float)
    pts = _rk4(_geodesic_rhs(s), state, n, path=True)[:, :2, 0]
    _check_domain(s, pts)
    return np.linspace(0.0, s_max, n + 1), pts


# ---------------------------------------------------------------------------
# connection preservation through a flow
# ---------------------------------------------------------------------------

def _pullback_deviation(s: AffineSurface, transport, grid_pts: np.ndarray) -> float:
    """Max deviation between the symbols and their pullback through the map.

    ``transport`` maps a stacked stencil (N,2) -> (N,2).  The Jacobian uses
    first central differences at 1e-5, its derivative second differences at
    1e-4, then the standard transformation rule.
    """
    gamma = _gamma_array_fn(s)
    h1, h2 = FD_FIRST, FD_SECOND
    offsets = np.array([
        (0.0, 0.0),
        (h1, 0.0), (-h1, 0.0), (0.0, h1), (0.0, -h1),
        (h2, 0.0), (-h2, 0.0), (0.0, h2), (0.0, -h2),
        (h2, h2), (h2, -h2), (-h2, h2), (-h2, -h2),
    ])
    n_pts = grid_pts.shape[0]
    stencil = (grid_pts[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    _check_domain(s, stencil)
    mapped = transport(stencil)
    _check_domain(s, mapped)
    mapped = mapped.reshape(n_pts, len(offsets), 2)

    center = mapped[:, 0]
    jac = np.empty((n_pts, 2, 2))
    jac[:, :, 0] = (mapped[:, 1] - mapped[:, 2]) / (2 * h1)
    jac[:, :, 1] = (mapped[:, 3] - mapped[:, 4]) / (2 * h1)
    djac = np.empty((n_pts, 2, 2, 2))  # [n, i, c, j] = d_i J^c_j
    djac[:, 0, :, 0] = (mapped[:, 5] - 2 * center + mapped[:, 6]) / h2**2
    djac[:, 1, :, 1] = (mapped[:, 7] - 2 * center + mapped[:, 8]) / h2**2
    mixed = (mapped[:, 9] - mapped[:, 10] - mapped[:, 11] + mapped[:, 12]) / (4 * h2**2)
    djac[:, 0, :, 1] = mixed
    djac[:, 1, :, 0] = mixed

    g_at_image = gamma(center)
    g_at_pts = gamma(grid_pts)
    jinv = np.linalg.inv(jac)
    pulled = np.einsum("nkc,nicj->nijk", jinv, djac)
    pulled += np.einsum("nkc,nabc,nai,nbj->nijk", jinv, g_at_image, jac, jac)
    return float(np.max(np.abs(pulled - g_at_pts)))


def flow_preserves_connection(s: AffineSurface, X, t: float,
                              grid: Grid | None = None,
                              step: float = 1e-3) -> FlowReport:
    """Pull the symbols back through the time-t flow of X and compare.

    Killing fields give deviations at rounding level; fields that fail the
    Killing equations show O(t) deviations.
    """
    g = grid or default_grid(s)
    deviation = _pullback_deviation(
        s, lambda pts: flow_batch(X, pts, t, step), g.points())
    return FlowReport(deviation, t, step)


# ---------------------------------------------------------------------------
# finite-difference Killing residuals
# ---------------------------------------------------------------------------

def _gamma_and_derivs(s: AffineSurface, pts: np.ndarray):
    gamma = _gamma_array_fn(s)
    h = FD_SECOND
    g0 = gamma(pts)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    dg = np.stack([
        (gamma(pts + e1) - gamma(pts - e1)) / (2 * h),
        (gamma(pts + e2) - gamma(pts - e2)) / (2 * h),
    ], axis=1)  # [n, l, i, j, k]
    return g0, dg


def fd_residuals(s: AffineSurface, field, grid: Grid | None = None) -> float:
    """Max |K_ij^k| over the grid by finite differences.

    For symbolic fields the second derivatives come from second central
    differences of the values (h = 1e-4).  For jet-extended numeric fields
    (anything exposing ``jets_at``) the integrated first derivatives are
    differenced once instead, which is much better conditioned; all 5N
    stencil points are extended in one batch.
    """
    g = grid or default_grid(s)
    pts = g.points()
    h = FD_SECOND

    if hasattr(field, "jets_at"):
        offsets = np.array([(0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)])
        stencil = (offsets[:, None, :] + pts[None, :, :]).reshape(-1, 2)
        jc, jp1, jm1, jp2, jm2 = field.jets_at(stencil).reshape(5, len(pts), -1)
        a = jc[:, 0:2]
        # jet layout (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2); da[n, l, k] = d_l a^k
        da = jc[:, 2:].reshape(-1, 2, 2).transpose(0, 2, 1)
        dda = np.empty((len(pts), 2, 2, 2))  # [n, i, j, k]
        for k, (c1, c2) in enumerate(((2, 3), (4, 5))):
            dda[:, 0, 0, k] = (jp1[:, c1] - jm1[:, c1]) / (2 * h)
            dda[:, 1, 1, k] = (jp2[:, c2] - jm2[:, c2]) / (2 * h)
            m = (jp2[:, c1] - jm2[:, c1]) / (2 * h)
            dda[:, 0, 1, k] = m
            dda[:, 1, 0, k] = m
    else:
        field_rows = _field_array_fn(field)
        f = lambda q: field_rows(q[:, 0], q[:, 1]).T
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        vc = f(pts)
        vp1, vm1 = f(pts + e1), f(pts - e1)
        vp2, vm2 = f(pts + e2), f(pts - e2)
        vpp = f(pts + e1 + e2)
        vpm = f(pts + e1 - e2)
        vmp = f(pts - e1 + e2)
        vmm = f(pts - e1 - e2)
        a = vc
        da = np.stack([(vp1 - vm1) / (2 * h), (vp2 - vm2) / (2 * h)], axis=1)
        dda = np.empty((len(pts), 2, 2, 2))
        dda[:, 0, 0, :] = (vp1 - 2 * vc + vm1) / h**2
        dda[:, 1, 1, :] = (vp2 - 2 * vc + vm2) / h**2
        mixed = (vpp - vpm - vmp + vmm) / (4 * h**2)
        dda[:, 0, 1, :] = mixed
        dda[:, 1, 0, :] = mixed

    g0, dg = _gamma_and_derivs(s, pts)
    res = dda.copy()
    res += np.einsum("nl,nlijk->nijk", a, dg)
    res -= np.einsum("nijl,nlk->nijk", g0, da)
    res += np.einsum("nilk,njl->nijk", g0, da)
    res += np.einsum("nljk,nil->nijk", g0, da)
    return float(np.max(np.abs(res)))
