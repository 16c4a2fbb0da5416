"""Killing residuals, the exact jet solver, and numeric jet extension."""

from fractions import Fraction
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affkit.killing import (
    Jet1, JetField, KillingError, VectorField, is_killing, jet_of,
    killing_jet_space, prolongation_symbolic, residuals,
)
from affkit.linalg import rank
from affkit.numeric import DomainExit, NumericError, default_grid
from affkit.scalars import ONE, ZERO, Scalar
from affkit.surface import (GAMMA_KEYS, is_flat, make_surface, sphere, surface_from_json,
                            type_a, type_b)
from affkit.symexpr import Expr, parse

from conftest import D2, EARLY_STOPS, LATE_CONSTRAINTS, RADIAL, SPARSE_PATTERNS, random_type_a
from helpers_oracle import X1, X2, gamma_sympy, sym_killing_residuals, taylor_killing_dim, to_sympy

gamma_vals = st.fixed_dictionaries({k: st.integers(-2, 2) for k in GAMMA_KEYS})


def combine(a, X, b, Y):
    return VectorField(X.a1 * a + Y.a1 * b, X.a2 * a + Y.a2 * b)


def prolongation_at(s, p):
    """M1, M2 and the consistency rows, exactly evaluated at p."""
    point = (Fraction(p[0]), Fraction(p[1]))
    system = prolongation_symbolic(s)
    return tuple([[e.eval_exact(point) for e in row] for row in rows]
                 for rows in (system.m1, system.m2, system.c0))


def extend(s, jet, q, step=1e-3):
    """The six floats (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2) at q."""
    return tuple(JetField(s, jet, step).jets_at([q])[0])


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
    assert all(e.is_zero for e in residuals(s, RADIAL).values())
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


# Mixed real, imaginary and complex exp frequencies, as the printer writes
# them: exp(-1+1*i*x2) is exp((-1+i)*x2).
FREQS = [ZERO, Scalar.of(1), Scalar.of(-1, 1), Scalar.of(0, 2), Scalar.of(Fraction(1, 2), -2)]
COEFFS = [Scalar.of(1), Scalar.of(-2), Scalar.of(Fraction(1, 2)), Scalar.of(0, 1), Scalar.of(1, -1)]


def random_trig_exp(rng, terms=2):
    return sum((Expr.monomial(rng.choice(COEFFS), p1=rng.randint(0, 2), p2=rng.randint(0, 1),
                              s=rng.randint(0, 1), c=rng.randint(0, 1), freq=rng.choice(FREQS))
                for _ in range(terms)), Expr.zero())


def test_residuals_and_consistency_rows_match_sympy_oracle(rng):
    # The independent sympy residuals, compared at points: every K_ij^k,
    # and the consistency rows against K_12^k - K_21^k.
    def assert_close(ours, theirs):
        for p in ((0.3, -0.2), (-0.4, 0.5)):
            want = complex(theirs.subs({X1: p[0], X2: p[1]}).evalf())
            assert abs(ours.eval_numeric(p) - want) < 1e-9 * (1 + abs(want))

    for _ in range(4):
        s = make_surface({k: random_trig_exp(rng) for k in rng.sample(GAMMA_KEYS, 4)}, (0, 0))
        g = gamma_sympy(s)
        c0 = prolongation_symbolic(s).c0
        for _ in range(2):
            X = VectorField(random_trig_exp(rng), random_trig_exp(rng))
            want = sym_killing_residuals(g, to_sympy(str(X.a1)), to_sympy(str(X.a2)))
            got = residuals(s, X)
            for (i, j, k), w in want.items():
                assert_close(got[f"{i}{j}{k}"], w)
            jet = [X.a1, X.a2, X.a1.diff("x1"), X.a1.diff("x2"), X.a2.diff("x1"), X.a2.diff("x2")]
            for k in (1, 2):
                assert_close(sum((c * v for c, v in zip(c0[k - 1], jet)), Expr.zero()),
                             want[(1, 2, k)] - want[(2, 1, k)])


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
    m1, m2, c0 = prolongation_at(type_a({}), (0, 0))
    assert m1[0][2] == ONE and m1[1][4] == ONE
    assert m2[0][3] == ONE and m2[1][5] == ONE
    for row in m1[2:] + m2[2:]:
        assert all(x.is_zero for x in row)
    for row in c0:
        assert all(x.is_zero for x in row)


def test_prolongation_sphere_exact_at_origin():
    # Hand evaluation: at (0,0) tan -> 0, d(tan) -> 1, d(cos sin) -> 1, so
    # the only nonzero second-derivative couplings are through the a1 slot.
    m1, m2, _ = prolongation_at(sphere(), (0, 0))
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
    pa = prolongation_at(type_b(va), (1, 0))
    pb = prolongation_at(type_b(vb), (1, 0))
    p0 = prolongation_at(type_b({}), (1, 0))
    ps = prolongation_at(type_b(sums), (1, 0))
    for block in range(3):
        for r, row in enumerate(ps[block]):
            for c, want in enumerate(row):
                got = pa[block][r][c] + pb[block][r][c] - p0[block][r][c]
                assert got == want


@pytest.mark.parametrize("s", [type_a({"111": 1, "122": -2}), type_b({"221": 1}), sphere()],
                         ids=["type_a", "type_b", "sphere"])
def test_prolongation_evaluates_nothing(s, monkeypatch):
    # M1 and M2 are the only second-order data: the Lie layer evaluates them
    # at P where it extends a jet, so building the system evaluates nothing.
    calls = []
    original = Expr.eval_exact
    monkeypatch.setattr(Expr, "eval_exact", lambda e, *a: calls.append(e) or original(e, *a))
    prolongation_symbolic(s)
    assert calls == []


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
    # return dimension 6, which needs a flat torsion-free surface.  The
    # second surface is flat but has torsion.
    import affkit.killing as mod
    from affkit.killing import NoStabilization
    monkeypatch.setattr(mod, "STABILIZATION_CAP", 4)
    for gamma in ({"111": "x1^13*exp(2*x2)"}, {"211": "x2^13"}):
        s = make_surface({k: parse(v) for k, v in gamma.items()}, (0, 0))
        with pytest.raises(NoStabilization):
            mod.killing_jet_space(s)


@pytest.mark.parametrize("gamma, dim", LATE_CONSTRAINTS)
def test_flat_surfaces_with_late_constraints_match_series_oracle(gamma, dim):
    # Flat but with torsion, so dimension 6 is impossible: the plateau at 6
    # must not be accepted, whatever the curvature says.
    s = make_surface({k: parse(v) for k, v in gamma.items()}, (0, 0))
    assert is_flat(s)
    assert killing_jet_space(s).dim == dim == taylor_killing_dim(s, deg=8)


@pytest.mark.parametrize("gamma, dim", EARLY_STOPS)
def test_early_stop_surfaces_match_series_oracle(gamma, dim):
    s = make_surface({k: parse(v) for k, v in gamma.items()}, (0, 0))
    assert taylor_killing_dim(s, deg=8) == dim


@pytest.mark.xfail(strict=True, reason="two stagnant rounds below 6 are taken as the answer")
@pytest.mark.parametrize("gamma, dim", EARLY_STOPS)
def test_stagnation_rule_stops_early(gamma, dim):
    s = make_surface({k: parse(v) for k, v in gamma.items()}, (0, 0))
    assert killing_jet_space(s).dim == dim


def digest_surfaces(group):
    """The surfaces of one jet-solver digest: the sparse Type A or A/x1
    patterns of the CLI digest test, the sphere with {112: i, 222: -2},
    60 dense Type A surfaces (seed 0) or the late-constraint surfaces."""
    if group in ("type_a", "type_b"):
        return [(type_a if group == "type_a" else type_b)(g) for g in SPARSE_PATTERNS]
    if group == "special":
        return [sphere(), surface_from_json({"gamma": {"112": "i", "222": "-2"}})]
    if group == "dense":
        rand = random.Random(0)
        return [random_type_a(rand) for _ in range(60)]
    return [make_surface({k: parse(v) for k, v in g.items()}, (0, 0)) for g, _ in LATE_CONSTRAINTS]


# (dim, constraint_history, basis) of each group, recorded before the
# constraint rows went through one feeding path.
JET_SPACE_SHA256 = {
    "type_a": "a6e84aa40f1a981b1818a509e9ab1ec876e31a553fa19a4e655fca4fd417e022",
    "type_b": "9d0125ca91c777bc20eb3afd5aa13098d51f0596b361f1afb2afe508562ee94d",
    "special": "57cb1464da91f7a9783ebc95ac451a33133dba85240115c2f49cd7fc5de1d752",
    "dense": "94139babac4b55f21fb7acef97f22890aebc93beb852ce718246430a1b96f1ed",
    "late": "c6798fe0aea4b5af764c1fdcffc7e67cef665edddca5585e879342f33fc2a765",
}


@pytest.mark.parametrize("group", JET_SPACE_SHA256)
def test_jet_solver_matches_recorded_digest(group):
    digest = hashlib.sha256()
    for s in digest_surfaces(group):
        ks = killing_jet_space(s)
        basis = [[str(x) for x in jet.as_vector()] for jet in ks.basis]
        digest.update(f"{ks.dim}|{ks.constraint_history}|{basis}\n".encode())
    assert digest.hexdigest() == JET_SPACE_SHA256[group]


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
    ks = killing_jet_space(sphere_surface)
    basis = [j.as_vector() for j in ks.basis]
    for f in sphere_fields:
        assert rank(basis + [jet_of(sphere_surface, f).as_vector()]) == rank(basis)


# ---------------------------------------------------------------------------
# jet extension
# ---------------------------------------------------------------------------

def test_extend_jet_constant_field(flat_surface):
    jet = Jet1(ZERO, ONE, ZERO, ZERO, ZERO, ZERO)
    full = extend(flat_surface, jet, (0.7, -0.4))
    assert full[0] == pytest.approx(0.0, abs=1e-12)
    assert full[1] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(v) for v in full[2:]) < 1e-12


def test_extend_jet_matches_closed_form_on_sphere(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    jet = jet_of(sphere_surface, x_field)
    q = (0.3, 0.7)
    got = extend(sphere_surface, jet, q, step=1e-3)
    want = [x_field.component(k).eval_numeric(q) for k in (1, 2)]
    assert abs(got[0] - want[0]) < 1e-6
    assert abs(got[1] - want[1]) < 1e-6
    d1a2 = x_field.a2.diff("x1").eval_numeric(q).real
    assert abs(got[4] - d1a2) < 1e-6


def test_extend_jet_is_fourth_order(sphere_surface, sphere_fields):
    _, y_field, _ = sphere_fields
    jet = jet_of(sphere_surface, y_field)
    q = (0.9, 1.2)
    ref = [y_field.component(k).eval_numeric(q) for k in (1, 2)]

    def err(step):
        got = extend(sphere_surface, jet, q, step=step)
        return max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    e1, e2 = err(0.05), err(0.025)
    assert e1 / e2 == pytest.approx(16.0, rel=0.6)


def test_jet_field_wrapper(sphere_surface, sphere_fields):
    x_field, _, _ = sphere_fields
    jf = JetField(sphere_surface, jet_of(sphere_surface, x_field))
    v = jf.jets_at([(0.2, 0.1)])[0][:2]
    want = [x_field.component(k).eval_numeric((0.2, 0.1)) for k in (1, 2)]
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
        assert np.max(np.abs(row - jf.jets_at([p])[0])) < 1e-9


def test_jet_field_compiles_its_system_once(sphere_surface, sphere_fields, monkeypatch):
    import affkit.numeric as mod
    calls = []
    compile_exprs = mod.compile_exprs
    monkeypatch.setattr(mod, "compile_exprs",
                        lambda exprs: calls.append(exprs) or compile_exprs(exprs))
    jf = JetField(sphere_surface, jet_of(sphere_surface, sphere_fields[0]))
    first = jf.jets_at([(0.3, 0.7), (-0.2, 0.1)])
    assert np.array_equal(jf.jets_at([(0.3, 0.7), (-0.2, 0.1)]), first)
    assert len(calls) == 2   # one per axis, in the constructor


def test_jet_field_rejects_a_jet_with_a_tiny_imaginary_part(sphere_surface):
    # Realness is decided exactly: 10^-12 i is as non-real as i, where a
    # tolerance on the extended jet's imaginary part let it through.
    v = killing_jet_space(sphere_surface).basis[0].as_vector()
    v[0] = v[0] + Scalar.of(0, Fraction(1, 10**12))
    with pytest.raises(KillingError, match="real jet"):
        JetField(sphere_surface, Jet1(*v))


def test_jet_field_rejects_a_non_real_connection():
    # A real jet of a non-real connection: the dtype of the compiled M_i
    # evaluator decides, at construction, before any integration.
    s = surface_from_json({"gamma": {"112": "i", "222": "-2"}})
    jet = killing_jet_space(s).basis[0]
    assert all(x.is_real for x in jet.as_vector())
    with pytest.raises(NumericError, match="real jet system"):
        JetField(s, jet)


def test_extend_jet_rejects_targets_outside_the_domain(sphere_surface, sphere_fields,
                                                      type_b_radial_fields):
    # |x1| < pi/2 on the sphere: past the pole of tan the integration used to
    # return a huge jet without complaint.
    jet = jet_of(sphere_surface, sphere_fields[0])
    with pytest.raises(DomainExit):
        extend(sphere_surface, jet, (1.6, 0.0))
    with pytest.raises(DomainExit):
        JetField(sphere_surface, jet).jets_at([(0.2, 0.1), (-1.6, 0.1)])
    # x1 > 0 on A/x1 surfaces: the x1 leg would cross the pole at x1 = 0.
    s = type_b({"111": 1, "122": -1, "212": 2})
    radial = type_b_radial_fields[1]
    assert is_killing(s, radial)
    with pytest.raises(DomainExit):
        extend(s, jet_of(s, radial), (-0.5, 0.3))
    full = extend(s, jet_of(s, radial), (0.5, 0.3))
    assert full[:2] == pytest.approx((-0.5, -0.3), abs=1e-9)
