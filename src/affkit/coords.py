"""Distinguished coordinate charts, built from flows and verified on grids.

Three constructions:

* ``normalize_chart``: geodesic coordinate transverse to the flow of a
  nonvanishing Killing field; in the result the x1-lines are affinely
  parametrized geodesics (G_11^k = 0) and nothing depends on x2.

* ``commuting_chart``: simultaneous flow-box for a commuting effective
  Killing pair; the pulled-back symbols are constant.

* ``type_b_chart``: for an effective pair with [X, Y] = Y, the two Killing
  flows T(x1, x2) = Phi^Y_x2(Phi^X_{-ln x1}(P)).  T sends (1, 0) to P and
  reads X = -x1 d1 - x2 d2, Y = d2; it is the only chart that does, since
  the model flows (x1, x2 + s) and (l x1, l x2) act simply transitively on
  x1 > 0.  The pulled-back symbols times x1 are constant.

All verification is numeric on a grid.  Every chart map is two legs: the
first depends on one chart coordinate only and runs once per distinct
value, the second is one ``numeric.flow_batch`` over every stencil point.
Each builder compiles every field it flows, and the symbols, once (with
``numeric.field_fn`` and ``numeric.symbols_fn``), and its legs share them.
The symbols are pulled back by ``numeric.pullback_gamma_batch``, the same
17-point fourth-order stencil at h = 1e-3 that checks Killing flows, and
``Chart.jacobian`` reads the gradient of that stencil, ``numeric.stencil``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .killing import VectorField, bracket_fields, is_killing
from .numeric import (Grid, field_fn, float_basepoint, flow_batch, geodesic_endpoints,
                      pullback_gamma_batch, stencil, symbols_fn)
from .surface import AffineSurface
from .symexpr import Expr


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


class ChartVerificationError(ChartError):
    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


@dataclass
class Chart:
    forward: Callable[[np.ndarray], np.ndarray]
    grid: Grid
    report: dict = field(default_factory=dict)

    def point(self, q) -> tuple[float, float]:
        out = self.forward(np.array([q], dtype=float))
        return (float(out[0, 0]), float(out[0, 1]))

    def jacobian(self, q) -> np.ndarray:
        """Finite-difference differential dT at a chart point (2x2), [c, j] = d_j T^c."""
        _, grad, _ = stencil(self.forward, np.array([q], dtype=float))
        return grad[0].T


def pullback_gamma(s: AffineSurface, chart: Chart, q) -> dict[str, float]:
    """The eight pulled-back symbols at one chart point."""
    pulled = pullback_gamma_batch(s, symbols_fn(s), chart.forward, np.array([q], dtype=float))
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


def _value_at(field: VectorField, c):
    """The field's evaluator, which its flows share, and its value at c.
    The evaluator's dtype decides exactly that the field is real; a field
    that is not raises NumericError."""
    f = field_fn(field)
    v = f(*c)
    return f, (float(v[0]), float(v[1]))


def _finalize(mode, forward, grid, report, tol) -> Chart:
    checks = {k: v for k, v in report.items() if isinstance(v, float)}
    report["pass"] = all(v < tol for v in checks.values())
    report["tol"] = tol
    if not report["pass"]:
        raise ChartVerificationError(
            f"{mode} chart failed verification: {checks}", report)
    return Chart(forward, grid, report)


def _two_legs(first, col: int, second, step: float):
    """Chart map T(q) = Phi^second_{q[1 - col]}(first(q[col])), with the
    first leg run once per distinct value of the chart coordinate q[col];
    ``second`` is the evaluator of the second leg's field."""
    def forward(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        vals, inverse = np.unique(pts[:, col], return_inverse=True)
        return flow_batch(second, first(vals)[inverse], pts[:, 1 - col], step)

    return forward


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
    c = center or float_basepoint(s)
    f, xi_at_c = _value_at(xi, c)
    if math.hypot(*xi_at_c) < 1e-9:
        raise ZeroAtBasepoint("the field vanishes at the chart center")
    v0 = _transverse_axis(xi_at_c)
    symbols = symbols_fn(s)

    def geodesic_leg(u: np.ndarray) -> np.ndarray:
        return geodesic_endpoints(s, symbols, np.repeat([c], len(u), axis=0),
                                  np.repeat([v0], len(u), axis=0), u, step)

    forward = _two_legs(geodesic_leg, 0, f, step)
    grid = Grid((0.0, 0.0), (half_width, half_width), n)
    pulled = pullback_gamma_batch(s, symbols, forward, grid.points())
    report = {
        "gamma_111_max": float(np.max(np.abs(pulled[:, 0, 0, 0]))),
        "gamma_112_max": float(np.max(np.abs(pulled[:, 0, 0, 1]))),
        # the largest spread of a symbol along an x2 grid line
        "x2_dependence": float(np.max(np.ptp(pulled.reshape(n, n, 8), axis=1))),
    }
    return _finalize("normalize", forward, grid, report, tol)


def _effective_pair(s: AffineSurface, X: VectorField, Y: VectorField,
                    center, bracket: VectorField, bad_relation: ChartError):
    """Chart center P and the evaluators of X and Y, once X and Y are
    Killing, [X, Y] equals ``bracket`` exactly (else ``bad_relation``) and
    X(P), Y(P) span the tangent plane."""
    for f in (X, Y):
        if not is_killing(s, f):
            raise NotKilling("both fields must satisfy the Killing equations")
    br = bracket_fields(X, Y)
    if not ((br.a1 - bracket.a1).is_zero and (br.a2 - bracket.a2).is_zero):
        raise bad_relation
    c = center or float_basepoint(s)
    (fx, xv), (fy, yv) = _value_at(X, c), _value_at(Y, c)
    if abs(xv[0] * yv[1] - xv[1] * yv[0]) < 1e-9:
        raise NotEffective("X(P) and Y(P) do not span the tangent plane")
    return c, fx, fy


def commuting_chart(s: AffineSurface, X: VectorField, Y: VectorField, *,
                    center: tuple[float, float] | None = None,
                    n: int = 11, half_width: float = 0.2,
                    tol: float = 1e-4, step: float = 1e-3) -> Chart:
    """Simultaneous flow-box T(x1, x2) = Phi^X_x1(Phi^Y_x2(P)).

    For a commuting effective Killing pair the pulled-back symbols are
    constant; the report carries their total spread over the grid.
    """
    zero = VectorField(Expr.zero(), Expr.zero())
    c, fx, fy = _effective_pair(s, X, Y, center, zero, NotCommuting("[X, Y] != 0"))

    def y_leg(w2: np.ndarray) -> np.ndarray:
        return flow_batch(fy, np.repeat([c], len(w2), axis=0), w2, step)

    forward = _two_legs(y_leg, 1, fx, step)
    grid = Grid((0.0, 0.0), (half_width, half_width), n)
    pulled = pullback_gamma_batch(s, symbols_fn(s), forward, grid.points())
    report = {"gamma_spread": float(np.max(np.ptp(pulled, axis=0)))}
    return _finalize("commuting", forward, grid, report, tol)


def type_b_chart(s: AffineSurface, X: VectorField, Y: VectorField, *,
                 center: tuple[float, float] | None = None,
                 n: int = 11, half_width: float = 0.2,
                 tol: float = 1e-4, step: float = 1e-3) -> Chart:
    """Chart T(x1, x2) = Phi^Y_x2(Phi^X_{-ln x1}(P)) for [X, Y] = Y, on x1 > 0.

    The pair must be Killing and effective at P.  T sends (1, 0) to P,
    d2 T = Y, and [X, Y] = Y gives Phi^X_t o T(x1, x2) = T(e^-t x1, e^-t x2),
    so T pulls X back to -x1 d1 - x2 d2 and Y to d2.  It is the only such
    chart: two of them differ by a map that fixes (1, 0) and commutes with
    the model flows (x1, x2 + s) and (l x1, l x2), l > 0; these act simply
    transitively on x1 > 0, so that map is the identity.  In this chart x1
    times every pulled-back symbol is constant (Gamma = C / x1); the report
    carries the spread of those products and their mean values C.
    """
    c, fx, fy = _effective_pair(s, X, Y, center, Y, BadRelation("[X, Y] != Y"))

    def x_leg(x1: np.ndarray) -> np.ndarray:
        if np.min(x1) <= 0:
            raise ChartError("the chart coordinate x1 must stay positive")
        return flow_batch(fx, np.repeat([c], len(x1), axis=0), -np.log(x1), step)

    forward = _two_legs(x_leg, 0, fy, step)
    grid = Grid((1.0, 0.0), (half_width, half_width), n)
    pts = grid.points()
    pulled = pullback_gamma_batch(s, symbols_fn(s), forward, pts)
    scaled = pulled * pts[:, 0][:, None, None, None]
    constants = {f"{i}{j}{k}": float(np.mean(scaled[:, i - 1, j - 1, k - 1]))
                 for i, j, k in product((1, 2), repeat=3)}
    report = {
        "scaled_gamma_spread": float(np.max(np.ptp(scaled, axis=0))),
        "constants": constants,
    }
    return _finalize("type-b", forward, grid, report, tol)
