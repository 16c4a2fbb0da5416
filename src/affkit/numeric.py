"""Floating-point oracles: RK4 flows, geodesics, jet transport, grid residuals.

These routines deliberately avoid the symbolic layer except to evaluate
expressions pointwise, so they can serve as independent checks of the
exact computations: a field is Killing iff pulling the connection back
through its time-t flow reproduces the Christoffel symbols, and iff the
finite-difference residuals of the Killing equations vanish on a grid.

Every derivative comes from one 17-point fourth-order stencil at
h = 1e-3 (``stencil``), whose rounding floor (~1e-9) sits well below
every report threshold: the pullback of the symbols through flows and
chart maps (``pullback_gamma_batch``) and every derivative in
``fd_residuals``.  Every integration (flows, geodesics, jet transport,
chart legs) is one call of the fixed-step RK4 loop ``_rk4``, which alone
sets the step count from the spans of its batch.  Its stages run in reused
buffers, in the textbook loop's operation order, so every result is
bit-identical to that loop's.  Fields and symbols are compiled only by
``field_fn`` and ``symbols_fn``, and a jet system's M1, M2 only by
``jet_transport``; ``flow_batch``, ``geodesic_endpoints`` and
``pullback_gamma_batch`` take those evaluators, so a caller compiles each
once and shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .surface import GAMMA_KEYS, AffineSurface
from .symexpr import compile_exprs

FD_STENCIL = 1e-3
# The most steps one ``_rk4`` call may take: max|span| / step.  The tests
# reach 1 000 and the benchmark pools 226; past the bound a flow or chart
# raises NumericError before its first step instead of running for ages.
MAX_RK4_STEPS = 10_000


class NumericError(Exception):
    pass


class DomainExit(NumericError):
    """A trajectory or grid left the surface's validity domain."""


class SingularMap(NumericError):
    """A map's Jacobian is singular where symbols are pulled back."""


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


def float_basepoint(s: AffineSurface) -> tuple[float, float]:
    """The exact basepoint rounded to floats; NumericError when a
    coordinate lies beyond the float range."""
    try:
        return float(s.basepoint[0]), float(s.basepoint[1])
    except OverflowError:
        raise NumericError("the basepoint lies beyond the float range of the numeric "
                           "layer") from None


def default_grid(s: AffineSurface, n: int = 5, half_width: float = 0.2,
                 center: tuple[float, float] | None = None) -> Grid:
    """Grid around the basepoint, shrunk near the domain boundary so that
    the reach of ``stencil`` (2 * FD_STENCIL) stays inside the domain."""
    c = center or float_basepoint(s)
    lo, hi = s.domain_bounds()
    room = min(c[0] - lo, hi - c[0]) - 2 * FD_STENCIL
    hw = min(half_width, 0.8 * room)
    if hw <= 0:
        raise DomainExit("grid center too close to the domain boundary")
    return Grid(c, (hw, half_width), n)


# ---------------------------------------------------------------------------
# field evaluation helpers
# ---------------------------------------------------------------------------

def _real_array_fn(exprs, message: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``compile_exprs`` evaluator of expressions that must be real.

    The evaluator's dtype is the exact compile-time verdict: it is complex
    iff some expression differs from its own conjugate, so it takes
    non-real values at real points, and dropping their imaginary part
    would check another field or connection.
    """
    evaluate = compile_exprs(exprs)
    if evaluate.dtype != float:
        raise NumericError(message)
    return evaluate


def field_fn(field) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(x1, x2) -> (2, N) evaluator of a real ``killing.VectorField``."""
    return _real_array_fn([field.a1, field.a2], f"field ({field.a1}, {field.a2}) is not real")


def symbols_fn(s: AffineSurface) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(x1, x2) -> (8, ...) evaluator of the real symbols in GAMMA_KEYS order."""
    return _real_array_fn([s.gamma[key] for key in GAMMA_KEYS], "connection symbols are not real")


def _gamma_at(symbols, pts: np.ndarray) -> np.ndarray:
    """The symbols at points (..., 2) as (..., 2, 2, 2), indexed [i, j, k],
    from a ``symbols_fn`` evaluator."""
    out = np.moveaxis(symbols(pts[..., 0], pts[..., 1]), 0, -1)
    return out.reshape(pts.shape[:-1] + (2, 2, 2))


def _check_domain(s: AffineSurface, pts: np.ndarray) -> None:
    lo, hi = s.domain_bounds()
    x1 = np.atleast_2d(pts)[..., 0]
    if np.any(x1 <= lo) or np.any(x1 >= hi):
        raise DomainExit(f"x1 leaves ({lo}, {hi})")


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def _rk4(rhs, y: np.ndarray, spans, step: float) -> np.ndarray:
    """Classical RK4 over unit pseudo-time, one step count for the batch.

    ``rhs(tau, y)`` integrates a batch whose rows cover lengths ``spans``
    (time, path parameter or coordinate span) scaled onto tau in [0, 1].
    The step rule lives here only: ceil(max|span| / step) fixed steps for
    every row, so a row's result depends on the largest span in its batch;
    when every span is zero, ``y`` comes back unchanged and ``rhs`` is never
    called.  A negative step, a non-finite span or more than MAX_RK4_STEPS
    steps raise NumericError before the first step.  The state update is
    compensated (Kahan) so that roundoff does not accumulate over steps;
    stencil differences of flowed points then sit at the single-rounding
    floor.

    The stage states and the weighted sum k1 + 2 k2 + 2 k3 + k4 live in two
    buffers that every step reuses.  Each value is computed by the same
    operations in the same order as the textbook loop, so results are
    bit-identical to it.  Only those buffers are written: never the
    caller's ``y``, nor an array that ``rhs`` returns unless it is the stage
    buffer ``rhs`` was handed (whose result is exact all the same).
    """
    ratio = float(np.max(np.abs(spans))) / step
    if not 0 <= ratio <= MAX_RK4_STEPS:
        raise NumericError(f"integration needs span / step = {ratio:.3g} RK4 steps; the step "
                           f"must be positive and the steps at most MAX_RK4_STEPS = "
                           f"{MAX_RK4_STEPS}")
    n_steps = math.ceil(ratio)
    h = 1.0 / max(n_steps, 1)
    t = 0.0
    comp = np.zeros_like(y)
    stage = acc = None
    for _ in range(n_steps):
        k1 = rhs(t, y)
        if acc is None:
            dtype = np.result_type(y, k1)
            stage, acc = np.empty(y.shape, dtype), np.empty(y.shape, dtype)
        np.multiply(k1, h / 2, out=stage)
        stage += y
        k2 = rhs(t + h / 2, stage)
        np.multiply(k2, 2, out=acc)
        acc += k1
        np.multiply(k2, h / 2, out=stage)
        stage += y
        k3 = rhs(t + h / 2, stage)
        # (h / 2) * (2 k3) is h k3 exactly, as both factors are exact; the
        # stage buffer holds 2 k3 first, so k3 may share its memory.
        np.multiply(k3, 2, out=stage)
        acc += stage
        stage *= h / 2
        stage += y
        k4 = rhs(t + h, stage)
        acc += k4
        acc *= h / 6
        dy = acc - comp
        y_next = y + dy
        comp = (y_next - y) - dy
        y = y_next
        t += h
    return y


def flow_batch(f, points: np.ndarray, t, step: float = 1e-3) -> np.ndarray:
    """Flow many points for (possibly distinct) times in lockstep along the
    field whose ``field_fn`` evaluator is f.

    Each row integrates d y / d tau = t_row * X(y) over unit pseudo-time
    with ``_rk4``, so all rows finish exactly at their target times.
    """
    times = np.broadcast_to(np.asarray(t, dtype=float), (points.shape[0],))
    rows = np.array(points.T, dtype=float, order="C")  # (2, N) copy: x1 and x2 rows
    return _rk4(lambda _, y: times * f(y[0], y[1]), rows, times, step).T


def flow(field, p, t: float, step: float = 1e-3):
    """Flow a single point for time t along the field."""
    out = flow_batch(field_fn(field), np.array([p], dtype=float), t, step)
    return (float(out[0, 0]), float(out[0, 1]))


def _geodesic_rhs(symbols):
    """Geodesic equation on states (4, N): rows x1, x2, v1, v2.

    The acceleration -G_ij^k v^i v^j is one two-operand contraction of
    (v x v) (4, N) with the symbols (a ``symbols_fn`` evaluator) reshaped
    (4, 2, N).  Only the symmetric part of the connection acts; torsion
    drops out of the quadratic form.
    """
    def rhs(_, y):
        vel = y[2:]
        vv = (vel[:, None, :] * vel[None, :, :]).reshape(4, -1)
        g = symbols(y[0], y[1]).reshape(4, 2, -1)
        return np.concatenate([vel, -np.einsum("mn,mkn->kn", vv, g)])

    return rhs


def geodesic_endpoints(s: AffineSurface, symbols, p0: np.ndarray, v0: np.ndarray,
                       times, step: float = 1e-3) -> np.ndarray:
    """Endpoint of the geodesic from each p0 with velocity v0 at parameter t,
    for the surface whose ``symbols_fn`` evaluator is ``symbols``.

    Affine reparametrization folds the time into the initial velocity, so
    a batch with distinct times runs as one ``_rk4`` call.
    """
    times = np.broadcast_to(np.asarray(times, dtype=float), (p0.shape[0],))
    state = np.concatenate([p0.T, (v0 * times[:, None]).T]).astype(float)
    out = _rk4(_geodesic_rhs(symbols), state, times, step)[:2].T
    _check_domain(s, out)
    return out


def jet_transport(s: AffineSurface, matrices, step: float = 1e-3):
    """Transport (jet (n,), points (N, 2)) -> jets (N, n) of the linear system
    d_i v = M_i(x) v from the basepoint, for ``matrices`` M1, M2 (n x n
    ``Expr``), whose nonzero entries must be real (NumericError).  All rows
    run in lockstep: the (n, N) state integrates d v / d tau = span * M_i v
    with ``_rk4``, along x1, then along x2.  The domain constrains x1 only,
    so checking the targets (DomainExit) covers every path."""
    legs = []   # per axis: M_i's nonzero entries, compiled, and their (n, nnz) scatter
    for m in matrices:
        rows, cols = np.nonzero([[not e.is_zero for e in row] for row in m])
        scatter = np.zeros((len(m), len(rows)))
        scatter[rows, np.arange(len(rows))] = 1.0
        entries = _real_array_fn([m[r][c] for r, c in zip(rows, cols)],
                                 "jet extension needs a real jet system")
        legs.append((cols, scatter, entries))
    base = float_basepoint(s)

    def transport(jet, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        _check_domain(s, pts)
        state = np.repeat(np.asarray(jet, dtype=float)[:, None], len(pts), axis=1)
        for axis, (cols, scatter, entries) in enumerate(legs):
            spans = pts[:, axis] - base[axis]
            fixed = np.full(len(pts), base[1]) if axis == 0 else pts[:, 0]

            def rhs(tau, v):
                moving = base[axis] + tau * spans
                vals = entries(moving, fixed) if axis == 0 else entries(fixed, moving)
                return spans * (scatter @ (vals * v[cols]))

            state = _rk4(rhs, state, spans, step)
        return state.T

    return transport


# ---------------------------------------------------------------------------
# the fourth-order stencil and the pullback of the symbols through a map
# ---------------------------------------------------------------------------

# Offsets in units of FD_STENCIL: the centre, -2h, -h, +h, +2h on each axis,
# then the diagonals (+-h, +-h) and (+-2h, +-2h).
_OFFSETS = FD_STENCIL * np.array(
    [(0, 0)] + [(a, 0) for a in (-2, -1, 1, 2)] + [(0, a) for a in (-2, -1, 1, 2)]
    + [(r * a, r * b) for r in (1, 2) for a in (1, -1) for b in (1, -1)], dtype=float)
_AXES = ([1, 2, 0, 3, 4], [5, 6, 0, 7, 8])  # rows at -2h, -h, 0, +h, +2h
_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0])     # times 1 / (12 h)
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])  # times 1 / (12 h^2)


def stencil(f, pts: np.ndarray):
    """Value (M, m), gradient (M, 2, m) and Hessian (M, 2, 2, m) of a map.

    ``f`` maps stacked points (K, 2) -> (K, m) and is called once on all
    17M stencil points.  The gradient is [n, i, c] = d_i f^c and the
    Hessian [n, i, j, c] = d_i d_j f^c; the mixed derivative is
    (16 S(h) - S(2h)) / (48 h^2) with S(h) = f(h, h) - f(h, -h) - f(-h, h)
    + f(-h, -h).  Every entry is exact for polynomials of degree 4.
    """
    h = FD_STENCIL
    vals = f((pts[:, None, :] + _OFFSETS).reshape(-1, 2)).reshape(len(pts), len(_OFFSETS), -1)
    grad = np.stack([np.einsum("k,nkc->nc", _W1, vals[:, axis]) for axis in _AXES],
                    axis=1) / (12 * h)
    hess = np.empty((len(pts), 2, 2, vals.shape[2]))
    for i, axis in enumerate(_AXES):
        hess[:, i, i] = np.einsum("k,nkc->nc", _W2, vals[:, axis]) / (12 * h**2)
    s1, s2 = (vals[:, r] - vals[:, r + 1] - vals[:, r + 2] + vals[:, r + 3] for r in (9, 13))
    hess[:, 0, 1] = hess[:, 1, 0] = (16 * s1 - s2) / (48 * h**2)
    return vals[:, 0], grad, hess


def pullback_gamma_batch(s: AffineSurface, symbols, transport, qs: np.ndarray) -> np.ndarray:
    """Symbols pulled back through ``transport``, (N, 2, 2, 2) at points qs (N, 2).

    ``symbols`` is the surface's ``symbols_fn`` evaluator.  ``transport``
    maps stacked points (K, 2) -> (K, 2); its images must lie in the domain
    (DomainExit) and its Jacobian must be invertible (SingularMap).  The
    transformation rule is
    G~_ij^k = (dT^-1)^k_c (d_i d_j T^c + G_ab^c(T) d_i T^a d_j T^b).
    """
    def mapped(pts):
        out = transport(pts)
        _check_domain(s, out)
        return out

    image, d, dd = stencil(mapped, qs)   # d[n, i, c] = d_i T^c
    if np.min(np.abs(np.linalg.det(d))) < 1e-6:
        raise SingularMap("map Jacobian is singular on the grid")
    jinv = np.linalg.inv(d.transpose(0, 2, 1))
    pulled = np.einsum("nkc,nijc->nijk", jinv, dd)
    pulled += np.einsum("nkc,nabc,nia,njb->nijk", jinv, _gamma_at(symbols, image), d, d)
    return pulled


def flow_preserves_connection(s: AffineSurface, X, t: float,
                              grid: Grid | None = None,
                              step: float = 1e-3) -> float:
    """Max deviation of the symbols pulled back through the time-t flow of
    X from the symbols themselves, over the grid.

    Killing fields give deviations at rounding level; fields that fail the
    Killing equations show O(t) deviations.
    """
    pts = (grid or default_grid(s)).points()
    symbols, f = symbols_fn(s), field_fn(X)

    def transport(q):
        _check_domain(s, q)
        return flow_batch(f, q, t, step)

    pulled = pullback_gamma_batch(s, symbols, transport, pts)
    return float(np.max(np.abs(pulled - _gamma_at(symbols, pts))))


# ---------------------------------------------------------------------------
# finite-difference Killing residuals
# ---------------------------------------------------------------------------

def fd_residuals(s: AffineSurface, field, grid: Grid | None = None) -> float:
    """Max |K_ij^k| over the grid by finite differences.

    One ``stencil`` call differentiates the symbols and the field together.
    A symbolic field takes its first and second derivatives from the
    stencil's gradient and Hessian.  A jet-extended field (anything exposing
    ``jets_at``) carries its first derivatives in the jet, so they are read
    at the centre points and only differentiated once more, which is much
    better conditioned; all 17N stencil points are extended in one batch.
    """
    pts = (grid or default_grid(s)).points()
    symbols = symbols_fn(s)
    jets = hasattr(field, "jets_at")
    if jets:
        columns = field.jets_at
    else:
        field_rows = field_fn(field)

        def columns(q):
            _check_domain(s, q)
            return field_rows(q[:, 0], q[:, 1]).T

    vals, grad, hess = stencil(
        lambda q: np.hstack([symbols(q[:, 0], q[:, 1]).T, columns(q)]), pts)
    g0 = vals[:, :8].reshape(-1, 2, 2, 2)
    dg = grad[:, :, :8].reshape(-1, 2, 2, 2, 2)  # [n, l, i, j, k] = d_l G_ij^k
    a = vals[:, 8:10]
    if jets:
        # jet layout (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2): column 10 + 2k + j is d_j a^k
        da = vals[:, 10:].reshape(-1, 2, 2).transpose(0, 2, 1)  # [n, l, k] = d_l a^k
        dda = grad[:, :, 10:].reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2)  # [n, i, j, k]
    else:
        da, dda = grad[:, :, 8:], hess[..., 8:]
    res = dda.copy()
    res += np.einsum("nl,nlijk->nijk", a, dg)
    res -= np.einsum("nijl,nlk->nijk", g0, da)
    res += np.einsum("nilk,njl->nijk", g0, da)
    res += np.einsum("nljk,nil->nijk", g0, da)
    return float(np.max(np.abs(res)))
