"""Affine surfaces and their tensor calculus.

An affine surface is a coordinate patch carrying eight Christoffel symbols
G[i][j][k] (stored under string keys "ijk", indices in {1,2}) together with
a rational basepoint at which all symbols and their derivatives evaluate
exactly.  Torsion is permitted throughout: the symbols are not assumed
symmetric in the lower indices.

Conventions (pinned by the sphere fixture):
    torsion     T_ij^k = G_ij^k - G_ji^k
    curvature   R_ijk^l = d_i G_jk^l - d_j G_ik^l
                          + sum_m (G_im^l G_jk^m - G_jm^l G_ik^m)
    ricci       rho_jk = R_ijk^i  (trace over the first lower index)
    nabla ricci (D_i rho)_jk = d_i rho_jk - G_ij^m rho_mk - G_ik^m rho_jm
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .scalars import DIGIT_LIMIT, DIGIT_LIMIT_HINT, ONE, as_fraction
from .symexpr import Expr, NotExactlyEvaluable, parse

GAMMA_KEYS = ("111", "112", "121", "122", "211", "212", "221", "222")

# Domain notes: "", "x1 > a", "x1 < b", "a < x1 < b" and "|x1| < pi/2" (or
# "abs(x1) < pi/2"); a bound is a rational p/q or pi/q, either signed.
_BOUND = r"(-?(?:\d+(?:/\d+)?|pi(?:/\d+)?))"
_DOMAIN_FORMS = [re.compile(form) for form in
                 (rf"x1>{_BOUND}()", rf"()x1<{_BOUND}", rf"{_BOUND}<x1<{_BOUND}")]


class SurfaceError(Exception):
    pass


class BadBasepoint(SurfaceError):
    """A Christoffel symbol is not exactly evaluable at the basepoint."""


@dataclass(frozen=True)
class TensorField:
    """Components of a tensor, keyed by index tuples with entries in {1,2}."""

    components: dict[tuple[int, ...], Expr]

    def __getitem__(self, idx: tuple[int, ...]) -> Expr:
        return self.components[idx]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.components.values())


@dataclass(frozen=True)
class AffineSurface:
    gamma: dict[str, Expr]
    basepoint: tuple[Fraction, Fraction]
    domain_note: str = ""

    def g(self, i: int, j: int, k: int) -> Expr:
        return self.gamma[f"{i}{j}{k}"]

    def domain_bounds(self) -> tuple[float, float]:
        """Open x1-interval of validity parsed from the domain note."""
        return parse_domain(self.domain_note)


def parse_domain(note: str) -> tuple[float, float]:
    """The open x1-interval of a domain note; SurfaceError for any other note."""
    text = note.replace(" ", "")
    text = "-pi/2<x1<pi/2" if text in ("|x1|<pi/2", "abs(x1)<pi/2") else text
    if not text:
        return (-math.inf, math.inf)
    for form in _DOMAIN_FORMS:
        if match := form.fullmatch(text):
            lo, hi = (_bound(g) if g else default
                      for g, default in zip(match.groups(), (-math.inf, math.inf)))
            if lo < hi:
                return (lo, hi)
    raise SurfaceError(f"unsupported domain note {note!r}: use x1 > a, x1 < b, "
                       "a < x1 < b or |x1| < pi/2")


def _bound(text: str) -> float:
    """A matched bound p/q or pi/q; a zero q, or a bound beyond the float
    range, is named as the note wrote it."""
    den = text.partition("/")[2]
    if den and not den.strip("0"):
        raise ValueError(f"zero denominator in {text!r}")
    try:
        return float(as_fraction(text.replace("pi", "1"))) * (math.pi if "pi" in text else 1)
    except OverflowError:
        raise ValueError(f"domain bound {text[:20]!r}... of {len(text)} characters lies "
                         "beyond the float range") from None


def make_surface(gamma: dict[str, Expr], basepoint, domain_note: str = "") -> AffineSurface:
    """Validate and build a surface.

    Every symbol must evaluate exactly at the basepoint; the error names
    the offending symbol.  Its derivatives then do too: each term's
    condition (trig: x1 = 0, exp: x2 = 0, x1^-k: x1 != 0) survives or
    vanishes under d/dx1 and d/dx2, and none is added.  The domain note must
    parse (``parse_domain``) and its interval must contain the basepoint.
    """
    bp = (as_fraction(basepoint[0]), as_fraction(basepoint[1]))
    lo, hi = parse_domain(domain_note)
    if not lo < bp[0] < hi:
        raise SurfaceError(
            f"basepoint ({bp[0]}, {bp[1]}) lies outside the domain {domain_note!r}")
    full = {key: gamma.get(key, Expr.zero()) for key in GAMMA_KEYS}
    for key, expr in full.items():
        try:
            expr.eval_exact(bp)
        except NotExactlyEvaluable as exc:
            raise BadBasepoint(f"Gamma_{key} derivative order 0 not exactly "
                               f"evaluable at basepoint {bp}: {exc}") from exc
    return AffineSurface(full, bp, domain_note)


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

def type_a(constants: dict[str, object] | None = None) -> AffineSurface:
    """Constant Christoffel symbols; basepoint (0, 0)."""
    vals = constants or {}
    gamma = {key: Expr.const(as_fraction(vals.get(key, 0))) for key in GAMMA_KEYS}
    return AffineSurface(gamma, (Fraction(0), Fraction(0)), "")


def type_b(constants: dict[str, object] | None = None) -> AffineSurface:
    """Symbols A_ijk / x1 on the half plane x1 > 0; basepoint (1, 0)."""
    vals = constants or {}
    inv_x1 = Expr.monomial(ONE, p1=-1)
    gamma = {key: Expr.const(as_fraction(vals.get(key, 0))) * inv_x1 for key in GAMMA_KEYS}
    return AffineSurface(gamma, (Fraction(1), Fraction(0)), "x1>0")


def sphere() -> AffineSurface:
    """The round-sphere connection in polar-type coordinates.

    Nonzero symbols: G_12^2 = G_21^2 = -tan(x1), G_22^1 = cos(x1)sin(x1);
    valid for |x1| < pi/2, basepoint (0, 0).
    """
    gamma = {key: Expr.zero() for key in GAMMA_KEYS}
    gamma["122"] = parse("-tan(x1)")
    gamma["212"] = parse("-tan(x1)")
    gamma["221"] = parse("cos(x1)*sin(x1)")
    return AffineSurface(gamma, (Fraction(0), Fraction(0)), "|x1| < pi/2")


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def torsion(s: AffineSurface) -> TensorField:
    comps = {(i, j, k): s.g(i, j, k) - s.g(j, i, k)
             for i, j, k in product((1, 2), repeat=3)}
    return TensorField(comps)


def curvature(s: AffineSurface) -> TensorField:
    comps: dict[tuple[int, ...], Expr] = {}
    for i, j, k, l in product((1, 2), repeat=4):
        e = s.g(j, k, l).diff(f"x{i}") - s.g(i, k, l).diff(f"x{j}")
        for m in (1, 2):
            e = e + s.g(i, m, l) * s.g(j, k, m) - s.g(j, m, l) * s.g(i, k, m)
        comps[(i, j, k, l)] = e
    return TensorField(comps)


def ricci(s: AffineSurface, r: TensorField | None = None) -> TensorField:
    """rho of ``s``, contracted from ``r``, which must be ``curvature(s)``
    when given (a caller that already holds R passes it to skip a rebuild)."""
    r = curvature(s) if r is None else r
    comps = {(j, k): r[(1, j, k, 1)] + r[(2, j, k, 2)]
             for j, k in product((1, 2), repeat=2)}
    return TensorField(comps)


def nabla_ricci(s: AffineSurface, rho: TensorField | None = None) -> TensorField:
    """nabla rho of ``s``, from ``rho``, which must be ``ricci(s)`` when given."""
    rho = ricci(s) if rho is None else rho
    comps: dict[tuple[int, ...], Expr] = {}
    for i, j, k in product((1, 2), repeat=3):
        e = rho[(j, k)].diff(f"x{i}")
        for m in (1, 2):
            e = e - s.g(i, j, m) * rho[(m, k)] - s.g(i, k, m) * rho[(j, m)]
        comps[(i, j, k)] = e
    return TensorField(comps)


def is_flat(s: AffineSurface) -> bool:
    return curvature(s).is_zero


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def surface_to_json(s: AffineSurface) -> dict:
    return {
        "gamma": {key: str(e) for key, e in sorted(s.gamma.items()) if not e.is_zero},
        "basepoint": [str(s.basepoint[0]), str(s.basepoint[1])],
        "domain": s.domain_note,
    }


def surface_from_json(data) -> AffineSurface:
    """A surface from its file's JSON; a malformed or unknown key raises
    SurfaceError naming it."""
    if not isinstance(data, dict):
        raise SurfaceError(f"a surface file must hold a JSON object, not a {type(data).__name__}")
    unknown = set(data) - {"gamma", "basepoint", "domain"}
    if unknown:
        raise SurfaceError(f"unknown surface keys: {sorted(unknown)} "
                           "(allowed: gamma, basepoint, domain)")
    texts = data.get("gamma", {})
    if not isinstance(texts, dict):
        raise SurfaceError('"gamma" must map symbol keys to expression strings')
    for key, text in texts.items():
        if not isinstance(text, str):
            raise SurfaceError(f'"gamma" key {key!r} must be an expression string, not {text!r}')
    gamma = {key: parse(text) for key, text in texts.items()}
    unknown = set(gamma) - set(GAMMA_KEYS)
    if unknown:
        raise SurfaceError(f"unknown gamma keys: {sorted(unknown)}")
    bp = data.get("basepoint", ["0", "0"])
    if not (isinstance(bp, list) and len(bp) == 2
            and all(isinstance(x, (str, int)) and not isinstance(x, bool) for x in bp)):
        raise SurfaceError(f'"basepoint" must be two rationals ("p/q" strings or integers), '
                           f"not {bp!r}")
    domain = data.get("domain", "")
    if not isinstance(domain, str):
        raise SurfaceError(f'"domain" must be a string, not {domain!r}')
    return make_surface(gamma, (as_fraction(bp[0]), as_fraction(bp[1])), domain)


def read_json(path, error: type[Exception], what: str):
    """A JSON file's content.  JSON nested too deeply, or an integer longer
    than Python reads, raises ``error`` naming the ``what`` file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise error(f"{what} JSON is nested too deeply to read") from None
        except ValueError as exc:
            if DIGIT_LIMIT not in str(exc):
                raise
            raise error(f"{what} holds an integer longer than Python reads "
                        f"{DIGIT_LIMIT_HINT}") from None


def load_surface(path) -> AffineSurface:
    return surface_from_json(read_json(path, SurfaceError, "surface file"))
