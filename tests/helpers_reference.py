"""Reference copies of the flow kernel's textbook forms.

``rk4_reference`` is the RK4 loop before its stages moved into reused
buffers, and ``compile_exprs_reference`` the evaluator that dispatched on
each factor's name per call.  Both are kept verbatim (renamed only) so that
tests can demand bit-identical results from ``numeric._rk4`` and
``symexpr.compile_exprs``.
"""

import math
from typing import Callable

import numpy as np

from affkit.scalars import I, ZERO, Scalar
from affkit.symexpr import EvaluationPoleError


def rk4_reference(rhs, y: np.ndarray, spans, step: float) -> np.ndarray:
    """Classical RK4 over unit pseudo-time, one step count for the batch.

    ``rhs(tau, y)`` integrates a batch whose rows cover lengths ``spans``
    (time, path parameter or coordinate span) scaled onto tau in [0, 1].
    The step rule lives here only: ceil(max|span| / step) fixed steps for
    every row, so a row's result depends on the largest span in its batch;
    when every span is zero, ``y`` comes back unchanged and ``rhs`` is never
    called.  The state update is compensated (Kahan) so that roundoff does
    not accumulate over steps; stencil differences of flowed points then
    sit at the single-rounding floor.
    """
    n_steps = math.ceil(float(np.max(np.abs(spans))) / step)
    h = 1.0 / max(n_steps, 1)
    t = 0.0
    comp = np.zeros_like(y)
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
    return y


def compile_exprs_reference(exprs) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized evaluator ``f(x1, x2) -> (len(exprs),) + shape`` for a list
    of expressions, ``shape`` being the broadcast shape of x1 and x2.

    Real basis: at compile time each factor exp((a+ib)*x2) is expanded as
    e^(a*x2) * (cos(|b|*x2) + i*sign(b)*sin(|b|*x2)), and the coefficients
    are folded exactly into a real-part and an imaginary-part matrix over
    shared real columns.  The output is float64 exactly when every
    imaginary coefficient cancels, which happens iff every expression
    equals its own conjugate (conjugate pairs such as the sphere's
    exp(+-i*x2) give real cos and sin); otherwise it is complex.
    ``f.dtype`` carries this verdict.

    Straight-line plan: the base factors (powers of x1, sin(x1), powers of
    cos(x1), powers of x2, exp(a*x2), cos and sin of beta*x2) are fixed at
    compile time, each column is a tuple of factor indices, and one matrix
    product sums the columns; constant terms fold into one vector, and an
    all-constant list returns it before any factor is computed.  Poles as in
    ``eval_numeric``: EvaluationPoleError at x1 = 0 with a negative power
    of x1, or at |cos(x1)| < 1e-12 with a negative power of cos(x1).
    """
    n_rows = len(exprs)
    acc: dict[tuple, Scalar] = {}   # (column, row) -> exact coefficient
    x1_pole = cos_pole = False
    for row, e in enumerate(exprs):
        for t in e.terms:
            x1_pole = x1_pole or t.p1 < 0
            cos_pole = cos_pole or t.c < 0
            # a column is the tuple of its base factors, (kind, power or rate)
            base = tuple(f for f in (("x1", t.p1), ("sin1", t.s), ("cos1", t.c),
                                     ("x2", t.p2), ("exp", t.freq.re)) if f[1])
            b = t.freq.im
            parts = [(base, t.coeff)] if not b else [
                ((*base, ("cos", abs(b))), t.coeff),
                ((*base, ("sin", abs(b))), t.coeff * (I if b > 0 else -I))]
            for column, coeff in parts:
                acc[column, row] = acc.get((column, row), ZERO) + coeff

    acc = {key: coeff for key, coeff in acc.items() if not coeff.is_zero}
    real = all(coeff.is_real for coeff in acc.values())
    dtype = np.dtype(float if real else complex)
    columns_used = list(dict.fromkeys(column for column, _ in acc if column))
    specs = list(dict.fromkeys(f for column in columns_used for f in column))
    plan = [tuple(specs.index(f) for f in column) for column in columns_used]
    const = np.zeros(n_rows, dtype=dtype)
    coeffs = np.zeros((2 * n_rows, len(plan)))   # real parts over imaginary parts
    for (column, row), coeff in acc.items():
        if column:
            j = columns_used.index(column)
            coeffs[row, j], coeffs[n_rows + row, j] = float(coeff.re), float(coeff.im)
        else:
            const[row] = float(coeff.re) if real else complex(coeff)
    if real:
        coeffs = coeffs[:n_rows]
    has_const = bool(const.any())
    factors = [(kind, float(p) if kind in ("exp", "cos", "sin") else p) for kind, p in specs]
    need_sin = ("sin1", 1) in specs
    need_cos = any(kind == "cos1" for kind, _ in specs)

    def evaluate(x1, x2) -> np.ndarray:
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        if x1.shape != x2.shape:
            x1, x2 = np.broadcast_arrays(x1, x2)
        shape = (n_rows,) + x1.shape
        if not plan:
            out = np.empty((n_rows, x1.size), dtype=dtype)
            out[...] = const[:, None]
            return out.reshape(shape)
        x1, x2 = x1.reshape(-1), x2.reshape(-1)
        if x1_pole and (x1 == 0.0).any():
            raise EvaluationPoleError("negative power of x1 at x1 = 0")
        sin1 = np.sin(x1) if need_sin else None
        cos1 = np.cos(x1) if need_cos else None
        if cos_pole and np.abs(cos1).min() < 1e-12:
            raise EvaluationPoleError("negative power of cos(x1) at a zero of cos")
        values = [_factor_reference(kind, p, x1, x2, sin1, cos1) for kind, p in factors]
        columns = np.empty((len(plan), x1.size))
        for column, idx in zip(columns, plan):
            column[...] = values[idx[0]]
            for k in idx[1:]:
                column *= values[k]
        # np.dot, not @: with a single column matmul skips BLAS and is 4x slower
        out = np.dot(coeffs, columns)
        if not real:
            out = out[:n_rows] + 1j * out[n_rows:]
        if has_const:
            out += const[:, None]
        return out.reshape(shape)

    evaluate.dtype = dtype
    return evaluate


def _factor_reference(kind: str, p, x1, x2, sin1, cos1):
    """Values of one base factor of ``compile_exprs`` at the points."""
    if kind == "sin1":
        return sin1
    if kind == "exp":
        return np.exp(p * x2)
    if kind == "cos":
        return np.cos(p * x2)
    if kind == "sin":
        return np.sin(p * x2)
    v = {"x1": x1, "cos1": cos1, "x2": x2}[kind]
    return v if p == 1 else v ** p


def assert_bitwise(got, want):
    """Same dtype, shape and bytes: equal floats down to the sign of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
