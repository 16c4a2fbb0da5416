"""Brackets, structure constants, the Killing form, grading, classification."""

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import cache
import hashlib
from itertools import combinations, product

import pytest
from hypothesis import given
import hypothesis.strategies as st

import affkit.liealg as liealg
from affkit.killing import (Jet1, VectorField, bracket_fields, jet_of, killing_jet_space,
                            prolongation_symbolic)
from affkit.liealg import (
    IntJets, LieAlgebraPresentation, NotHomogeneousCandidate, SolveFailure, classify,
    effective, jacobi_residual, structure_constants,
)
from affkit.linalg import (clear_denominators, gauss_bilinear, gauss_column, gauss_row,
                           int_mat_vec, rank, solve, to_scalars)
from affkit.scalars import I, ONE, ZERO, Scalar
from affkit.surface import (GAMMA_KEYS, make_surface, nabla_ricci, ricci, sphere,
                            surface_from_json, torsion, type_a, type_b)
from affkit.symexpr import Expr, parse

from conftest import D1, D2, SPARSE_PATTERNS, random_type_a
from helpers_oracle import ad_reference, bracket_reference, grading_reference, mat_mul_reference


def presentation_from_table(dim, table):
    """Build a bare presentation from {(i,j): {k: value}} bracket data, over
    zero jets with zero second derivatives."""
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), targets in table.items():
        for k, val in targets.items():
            sc = val if isinstance(val, Scalar) else Scalar.of(val)
            c[i][j][k] = sc
            c[j][i][k] = -sc
    zero_jets = IntJets(1, ([[0] * dim for _ in range(14)], None))
    return LieAlgebraPresentation(dim, c, zero_jets)


SO3 = presentation_from_table(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
SL2 = presentation_from_table(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))            # [f_a, f_b] = f_c
SPHERE_FRAME = [[ZERO, ONE, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ONE]]


def coeffs_of(L, s, X):
    """Coefficient vector of a symbolic Killing field in the jet basis."""
    target = jet_of(s, X).as_vector()
    basis = killing_jet_space(s).basis
    cols = [[basis[k].as_vector()[r] for k in range(L.dim)] for r in range(6)]
    out = solve(cols, target)
    assert out is not None
    return out


# ---------------------------------------------------------------------------
# brackets of symbolic fields
# ---------------------------------------------------------------------------

def test_bracket_with_translation_scales_exponential_eigenfield():
    v = parse("sin(x1)+x1^2")
    for alpha in (0, 2, -1):
        w = Expr.monomial(ONE, freq=Scalar.of(alpha)) * v
        X = VectorField(Expr.zero(), w)
        br = bracket_fields(D2, X)
        assert br.a1.is_zero
        assert br.a2 == w * alpha


@given(st.sampled_from(["x1*x2", "sin(x1)", "exp(1*x2)+x1", "x2^2"]))
def test_bracket_is_alternating(text):
    X = VectorField(parse(text), parse("x1") * parse(text))
    br = bracket_fields(X, X)
    assert br.a1.is_zero and br.a2.is_zero


def test_killing_fields_close_under_bracket():
    # The bracket of two Killing fields is Killing, symbolically.
    from affkit.killing import is_killing
    s = type_a({"222": -1})
    fields = [D1, D2,
              VectorField(Expr.zero(), parse("exp(1*x2)")),
              VectorField(Expr.zero(), parse("x1*exp(1*x2)"))]
    for f in fields:
        assert is_killing(s, f)
    for U, V in combinations(fields, 2):
        assert is_killing(s, bracket_fields(U, V))


def test_sphere_triple_closes_with_rotation_relations(sphere_fields):
    x_f, y_f, z_f = sphere_fields
    xy = bracket_fields(x_f, y_f)
    assert xy.a1 == z_f.a1 and xy.a2 == z_f.a2
    yz = bracket_fields(y_f, z_f)
    assert yz.a1 == x_f.a1 and yz.a2 == x_f.a2
    zx = bracket_fields(z_f, x_f)
    assert zx.a1 == y_f.a1 and zx.a2 == y_f.a2


# ---------------------------------------------------------------------------
# jet brackets
# ---------------------------------------------------------------------------

def reference_bracket(s, jx, jy) -> list:
    """Jet vector of [X, Y] from two jets, by the field-level oracle."""
    return bracket_reference(prolongation_symbolic(s), s.basepoint, jx.as_vector(),
                             jy.as_vector())


def test_jet_bracket_of_translations_vanishes(flat_surface):
    j1 = jet_of(flat_surface, D1)
    j2 = jet_of(flat_surface, D2)
    assert all(x.is_zero for x in reference_bracket(flat_surface, j1, j2))


def test_jet_bracket_flat_scaling(flat_surface):
    j1 = jet_of(flat_surface, D1)
    jx = jet_of(flat_surface, VectorField(parse("x1"), parse("0")))
    assert reference_bracket(flat_surface, j1, jx) == j1.as_vector()


def test_jet_bracket_matches_field_bracket_on_sphere(sphere_surface, sphere_fields):
    x_f, y_f, z_f = sphere_fields
    br = reference_bracket(sphere_surface, jet_of(sphere_surface, x_f),
                           jet_of(sphere_surface, y_f))
    assert br == jet_of(sphere_surface, z_f).as_vector()
    assert br == [ZERO, ONE, ZERO, ZERO, ZERO, ZERO]


def test_jet_bracket_commutes_with_jet_of(sphere_surface, sphere_fields):
    for U, V in combinations(sphere_fields, 2):
        lhs = reference_bracket(sphere_surface, jet_of(sphere_surface, U),
                                jet_of(sphere_surface, V))
        assert lhs == jet_of(sphere_surface, bracket_fields(U, V)).as_vector()


BRACKET_SURFACES = {
    "sphere": sphere,
    # fractional constants: the second-derivative rows have denominator 6
    "type-b": lambda: type_b({"221": "1/2", "122": "-2/3"}),
    "non-real": lambda: constant_surface({"112": I, "222": Scalar.of(-2)}),
}


@cache
def surface_and_system(name):
    s = BRACKET_SURFACES[name]()
    return s, prolongation_symbolic(s)


GAUSSIAN_RATIONAL = st.builds(lambda a, b, q: Scalar.of(Fraction(a, q), Fraction(b, q)),
                              st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 7))
GAUSSIAN_JET = st.lists(GAUSSIAN_RATIONAL, min_size=6, max_size=6).filter(
    lambda v: any(not x.is_real for x in v))


@pytest.mark.parametrize("name", sorted(BRACKET_SURFACES))
@given(GAUSSIAN_JET, GAUSSIAN_JET)
def test_integer_bracket_matches_the_field_reference(name, x, y):
    # The integer kernel that ``structure_constants`` brackets basis jets
    # with, on two arbitrary Gaussian jets extended the same way.
    s, system = surface_and_system(name)
    ints = liealg._int_jets([Jet1.from_vector(x), Jet1.from_vector(y)], system, s.basepoint)
    br = gauss_bilinear(liealg._bracket_kernel, gauss_column(ints.ext, 0),
                        gauss_column(ints.ext, 1))
    assert to_scalars(br, ints.den ** 2) == bracket_reference(system, s.basepoint, x, y)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_classify_builds_the_prolongation_once(flat_surface, monkeypatch):
    import affkit.killing as killing
    built = []
    original = killing.prolongation_symbolic
    monkeypatch.setattr(killing, "prolongation_symbolic",
                        lambda s: built.append(s) or original(s))
    result = classify(flat_surface)
    assert result.dim == 6 and len(built) == 1


def test_flat_structure_constants_match_hand_table(flat_surface):
    # Basis jets are d1, d2, x1 d1, x2 d1, x1 d2, x2 d2 in that order;
    # the nonzero brackets below were computed by hand.
    L = structure_constants(flat_surface)
    assert L.dim == 6
    expected = {
        (0, 2): {0: 1}, (0, 4): {1: 1},
        (1, 3): {0: 1}, (1, 5): {1: 1},
        (2, 3): {3: -1}, (2, 4): {4: 1},
        (3, 4): {2: -1, 5: 1}, (3, 5): {3: -1},
        (4, 5): {4: 1},
    }
    for i in range(6):
        for j in range(i + 1, 6):
            want = expected.get((i, j), {})
            for k in range(6):
                assert L.c[i][j][k] == Scalar.of(want.get(k, 0))


def test_structure_constants_antisymmetric_and_jacobi(rng):
    for surface in (sphere(), type_b({"221": 1}), random_type_a(rng)):
        L = structure_constants(surface)
        for i in range(L.dim):
            for j in range(L.dim):
                for k in range(L.dim):
                    assert (L.c[i][j][k] + L.c[j][i][k]).is_zero
        assert all(x.is_zero for x in jacobi_residual(L))


def test_sphere_algebra_is_three_dimensional(sphere_surface):
    assert structure_constants(sphere_surface).dim == 3


def test_structure_constants_name_the_pair_that_escapes(flat_surface, monkeypatch):
    # Drop x2 d2 from the flat basis (hand table above): the first pair
    # whose bracket needs it is [x2 d1, x1 d2] = x2 d2 - x1 d1.
    ks = killing_jet_space(flat_surface)
    cut = replace(ks, basis=ks.basis[:5])
    monkeypatch.setattr(liealg, "killing_jet_space", lambda s: cut)
    with pytest.raises(SolveFailure, match="basis jets 3,4 "):
        structure_constants(flat_surface)


# str(L.c) and L.den over the sparse surfaces of the CLI digest test (Type A,
# then A/x1), the sphere and {112: i, 222: -2}; recorded while the extended
# jets still carried a second denominator for their second derivatives.
STRUCTURE_CONSTANTS_SHA256 = "76a6e15f8b769d32e1ceee4d91772016fb8c97d62db68506c416579378c56472"


@cache
def digest_algebras():
    surfaces = [build(gamma) for build, gamma in product((type_a, type_b), SPARSE_PATTERNS)]
    surfaces += [sphere(), surface_from_json({"gamma": {"112": "i", "222": "-2"}})]
    return [structure_constants(s) for s in surfaces]


def basis_jets(L):
    """The canonical jet basis: rows 0-5 of ``L.int_jets.ext`` over its den."""
    return [to_scalars(gauss_column(L.int_jets.ext, k), L.int_jets.den)[:6]
            for k in range(L.dim)]


def test_structure_constants_match_recorded_digest():
    digest = hashlib.sha256()
    for L in digest_algebras():
        digest.update(f"{L.c}|{L.den}\n".encode())
    assert len(digest_algebras()) == 186
    assert digest.hexdigest() == STRUCTURE_CONSTANTS_SHA256


def test_jet_basis_is_canonical_at_its_last_entries():
    # The readout of bracket coordinates relies on it: basis jet k is 1 at
    # its last nonzero entry f_k, and every other basis jet is 0 there.
    for L in digest_algebras():
        jets = basis_jets(L)
        for k, jet in enumerate(jets):
            f = max(r for r, x in enumerate(jet) if not x.is_zero)
            assert jet[f] == ONE
            assert all(other[f].is_zero for m, other in enumerate(jets) if m != k)


def test_read_off_constants_match_a_solve_against_the_basis():
    for L in digest_algebras():
        cols = [[jet[r] for jet in basis_jets(L)] for r in range(6)]
        ext = [gauss_column(L.int_jets.ext, k) for k in range(L.dim)]
        for i, j in combinations(range(L.dim), 2):
            bracket = gauss_bilinear(liealg._bracket_kernel, ext[i], ext[j])
            assert solve(cols, to_scalars(bracket, L.int_jets.den ** 2)) == list(L.c[i][j])


def jet_bracket_coords(L, u, v):
    """[u, v] computed from the jets: u = u'/d and v = v'/d over Z[i] extend
    to ext.u' and ext.v' over den * d, whose bracket is read off the basis
    over (den * d)^2."""
    d, cleared = clear_denominators([u, v])
    x, y = (gauss_bilinear(int_mat_vec, L.int_jets.ext, gauss_row(cleared, r)) for r in (0, 1))
    coords = liealg._read_off(L.int_jets, gauss_bilinear(liealg._bracket_kernel, x, y))
    assert coords is not None
    return to_scalars(coords, (L.int_jets.den * d) ** 2)


@given(GAUSSIAN_JET, GAUSSIAN_JET)
def test_table_brackets_equal_jet_brackets(x, y):
    # The jet bracket is bilinear and every basis bracket was read off the
    # jets, so the Z[i] tables answer every later bracket exactly; this is
    # the property that stands in for re-bracketing witnesses' jets.  The
    # Gaussian algebra goes first, so a failure there shrinks quickly.
    for L in sorted(digest_algebras(), key=lambda L: L.ad_im is None):
        u, v = x[:L.dim], y[:L.dim]
        assert L.bracket_coeffs(u, v) == jet_bracket_coords(L, u, v)


# ---------------------------------------------------------------------------
# metamorphic invariance of the algebra
# ---------------------------------------------------------------------------

def algebra_invariants(s):
    """(Killing dimension, Jacobi holds, derived dimension, Killing-form rank)."""
    L = structure_constants(s)
    derived = rank([L.c[i][j] for i, j in combinations(range(L.dim), 2)])
    return (L.dim, all(x.is_zero for x in jacobi_residual(L)), derived,
            rank(L.killing_form()))


def constant_surface(symbols):
    """Type A surface with constant (possibly Gaussian) symbols."""
    return make_surface({key: Expr.const(val) for key, val in symbols.items()}, (0, 0))


def linear_pushforward(symbols, a):
    """Symbols in the coordinates y = a x: G'_ij^k = a^k_c G_ab^c b^a_i b^b_j,
    b = a^-1 (a linear change has no second-derivative term)."""
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    b = [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
    g = {key: symbols.get(key, ZERO) for key in GAMMA_KEYS}
    out = {}
    for i, j, k in product((1, 2), repeat=3):
        acc = ZERO
        for p, q, c in product((1, 2), repeat=3):
            acc = acc + g[f"{p}{q}{c}"] * (a[k - 1][c - 1] * b[p - 1][i - 1] * b[q - 1][j - 1])
        out[f"{i}{j}{k}"] = acc
    return out


SPARSE_SYMBOLS = st.dictionaries(st.sampled_from(GAMMA_KEYS),
                                 st.integers(-2, 2).map(Scalar.of), max_size=3)
GAUSSIAN_SYMBOLS = st.dictionaries(
    st.sampled_from(GAMMA_KEYS),
    st.builds(Scalar.of, st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3)
GL2 = st.lists(st.lists(st.integers(-2, 2).map(Fraction), min_size=2, max_size=2),
               min_size=2, max_size=2).filter(lambda a: a[0][0] * a[1][1] != a[0][1] * a[1][0])


@given(SPARSE_SYMBOLS, GL2)
def test_algebra_invariants_survive_linear_coordinate_change(symbols, a):
    # The search for witnesses depends on the basis, so only basis-free
    # invariants are compared, never the branch kinds.
    before = algebra_invariants(constant_surface(symbols))
    assert before[1]
    assert algebra_invariants(constant_surface(linear_pushforward(symbols, a))) == before


@given(GAUSSIAN_SYMBOLS)
def test_algebra_invariants_survive_complex_conjugation(symbols):
    before = algebra_invariants(constant_surface(symbols))
    assert before[1]
    conj = {key: val.conjugate() for key, val in symbols.items()}
    assert algebra_invariants(constant_surface(conj)) == before


# ---------------------------------------------------------------------------
# the Killing form and the grading
# ---------------------------------------------------------------------------

GAUSSIAN_CONSTANTS = st.builds(
    lambda a, b, q: Scalar.of(Fraction(a, q), Fraction(b, q)),
    st.integers(-3, 3), st.one_of(st.just(0), st.integers(-3, 3)), st.integers(1, 6))


def tables_with(vectors):
    """(n, bracket table with GAUSSIAN_CONSTANTS, vectors(n)) for n in 1-4."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: ij[0] < ij[1]), st.dictionaries(st.integers(0, n - 1), GAUSSIAN_CONSTANTS)),
        vectors(n)))


def int_lists(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n)


@given(tables_with(lambda n: st.tuples(int_lists(n), st.one_of(st.none(), int_lists(n)))))
def test_integer_ad_tables_scale_ad(case):
    # den * ad(x) from the integer tables equals den times the Scalar ad(x),
    # for x over Z[i].
    n, table, (x_re, x_im) = case
    L = presentation_from_table(n, table)
    re, im = L.int_ad((x_re, x_im))
    want = ad_reference(L.c, [Scalar.of(a, 0 if x_im is None else x_im[k])
                              for k, a in enumerate(x_re)])
    assert (im is None) == (x_im is None and all(
        c.is_real for plane in L.c for row in plane for c in row))
    im = im or [[0] * n for _ in range(n)]
    assert all(Scalar.of(re[k][j], im[k][j]) == want[k][j] * L.den
               for k in range(n) for j in range(n))


@given(tables_with(lambda n: st.lists(st.one_of(st.just(ZERO), GAUSSIAN_CONSTANTS),
                                      min_size=n, max_size=n)))
def test_spectra_and_killing_form_match_the_field_reference(case):
    # The Killing form is tr(ad(e_i) ad(e_j)) in Scalars.
    n, table, _ = case
    L = presentation_from_table(n, table)
    ads = [ad_reference(L.c, [ONE if j == i else ZERO for j in range(n)]) for i in range(n)]
    trace = lambda m: sum((m[k][k] for k in range(n)), ZERO)
    assert L.killing_form() == [[trace(mat_mul_reference(a, b)) for b in ads] for a in ads]


def test_grading_follows_from_jacobi_on_the_digest_algebras():
    # verify-paper's eigenspace-grading item is the Jacobi verdict: under
    # Jacobi the semisimple part of every ad(xi) is a derivation, so
    # [E(a), E(b)] lies in E(a+b).  Explicit eigenspaces confirm it for every
    # basis xi, over Q(i) and over irrational spectra alike.
    for L in digest_algebras():
        assert all(x.is_zero for x in jacobi_residual(L))
        for i in range(L.dim):
            assert grading_reference(L, [ONE if j == i else ZERO for j in range(L.dim)]), (L, i)


# [e0, e1] = 2 e2, [e0, e2] = e1: Jacobi holds, ad(e0) has eigenvalues 0 and
# +-sqrt(2), and the algebra is solvable.
SQRT2 = presentation_from_table(3, {(0, 1): {2: 2}, (0, 2): {1: 1}})


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} called on an exact path")


def corrupted(L, entries):
    """A copy of L with c[i][j][k] = value for each ((i, j, k), value)."""
    c = [[list(row) for row in plane] for plane in L.c]
    for (i, j, k), value in entries:
        c[i][j][k] = value
    return replace(L, c=c)


def test_presentation_is_frozen_and_rederives_its_tables():
    with pytest.raises(FrozenInstanceError):
        SO3.c = SO3.c
    with pytest.raises(TypeError):
        SO3.c[2][0][2] = ONE
    # A corrupted copy derives its integer ad tables from its own constants.
    broken = corrupted(SO3, [((2, 0, 2), Scalar.of(Fraction(1, 3))),
                             ((0, 2, 2), Scalar.of(Fraction(-1, 3)))])
    assert SO3.den == 1 and broken.den == 3
    re, _ = broken.int_ad(([0, 0, 1], None))
    assert re[2][0] == 1 and SO3.int_ad(([0, 0, 1], None))[0][2][0] == 0


# ---------------------------------------------------------------------------
# effectivity
# ---------------------------------------------------------------------------

def test_effective_examples(flat_surface):
    L = structure_constants(flat_surface)
    e = lambda i: [ONE if j == i else ZERO for j in range(6)]
    assert effective(L, [e(0), e(1)])            # d1, d2
    assert not effective(L, [e(1), e(5)])        # d2, x2 d2 collinear at P
    assert not effective(L, [e(2), e(3)])        # both vanish at P


def test_effective_sphere_pair(sphere_surface, sphere_fields):
    x_f, _, z_f = sphere_fields
    L = structure_constants(sphere_surface)
    cx = coeffs_of(L, sphere_surface, x_f)
    cz = coeffs_of(L, sphere_surface, z_f)
    assert effective(L, [cx, cz])


def flat_vec(a, b):
    """Flat basis d1, d2, x1 d1, ...: the coefficients (a, b, 0, ...), whose
    field has the value (a, b) at P."""
    return [x if isinstance(x, Scalar) else Scalar.of(x) for x in (a, b)] + [ZERO] * 4


def test_effective_rational_and_gaussian_coefficients(flat_surface):
    L = structure_constants(flat_surface)
    third = Fraction(1, 3)
    assert effective(L, [flat_vec(third, 0), flat_vec(0, Fraction(2, 7))])
    assert effective(L, [flat_vec(I, 0), flat_vec(0, third)])  # det = i/3
    assert effective(L, [flat_vec(I, 0), flat_vec(0, Scalar.of(third, 1))])
    assert not effective(L, [flat_vec(I, ONE), flat_vec(ONE, -I)])  # (i, 1) = i (1, -i)
    assert effective(L, [flat_vec(I, ONE), flat_vec(ONE, I)])


def test_effective_determinant_cancels_after_clearing(flat_surface):
    # (1/3, 2/7) and (2/9, 4/21) are parallel: over 21 and 63 they are
    # (7, 6) and (14, 12), and 7*12 - 6*14 = 0 exactly.  A perturbation of
    # 1e-12, invisible to a float determinant, must be seen.
    L = structure_constants(flat_surface)
    u = flat_vec(Fraction(1, 3), Fraction(2, 7))
    assert not effective(L, [u, flat_vec(Fraction(2, 9), Fraction(4, 21))])
    assert effective(L, [u, flat_vec(Fraction(2, 9), Fraction(4, 21) + Fraction(1, 10**12))])


def test_effective_needs_a_pair(flat_surface):
    L = structure_constants(flat_surface)
    assert not effective(L, [])
    assert not effective(L, [flat_vec(1, 1)])


@cache
def presentation(name):
    return structure_constants(surface_and_system(name)[0])


@pytest.mark.parametrize("name", ["type-b", "non-real"])
@given(st.data())
def test_effective_agrees_with_the_scalar_determinant(name, data):
    # v is independent of u, or a Gaussian-rational multiple of it.
    L = presentation(name)
    coeffs = st.lists(GAUSSIAN_RATIONAL, min_size=L.dim, max_size=L.dim)
    u = data.draw(coeffs)
    if data.draw(st.booleans()):
        v = data.draw(coeffs)
    else:
        k = data.draw(GAUSSIAN_RATIONAL)
        v = [k * x for x in u]
    value = lambda c: [sum((ck * jet[r] for ck, jet in zip(c, basis_jets(L))), ZERO)
                       for r in (0, 1)]
    (u1, u2), (v1, v2) = value(u), value(v)
    assert effective(L, [u, v]) == (not (u1 * v2 - u2 * v1).is_zero)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_flat_has_abelian_branch(flat_surface):
    res = classify(flat_surface)
    assert "TypeA" in res.kinds()
    wa = next(w for w in res.branches if w.kind == "TypeA")
    assert wa.relations == "[X,Y]=0"


def test_classify_sphere_is_exactly_so3(sphere_surface):
    res = classify(sphere_surface)
    assert res.kinds() == ["so3"]
    assert res.dim == 3
    w = res.branches[0]
    assert w.elements == SPHERE_FRAME
    assert w.relations == "[X,Y]=Z, [Y,Z]=X, [Z,X]=Y"
    jets = basis_jets(res.algebra)
    jet = lambda coeffs: [sum((x * j[r] for x, j in zip(coeffs, jets)), ZERO) for r in range(6)]
    system = prolongation_symbolic(sphere_surface)
    for a, b, c in CYCLE:
        br = bracket_reference(system, sphere_surface.basepoint, jet(w.elements[a]),
                               jet(w.elements[b]))
        assert br == jet(w.elements[c])


def test_classify_type_b_surface(type_b_radial_fields):
    res = classify(type_b({"111": -1}))
    assert "TypeB" in res.kinds()
    wb = next(w for w in res.branches if w.kind == "TypeB")
    assert wb.relations == "[X,Y]=Y"


def test_verify_paper_builds_the_sphere_jet_system_once(monkeypatch):
    # The sphere is classified once; the dimension item reads that result,
    # and the fixture loop reuses its algebra instead of solving again.  The
    # flat plane is solved once too: the bound reads its fixture's algebra.
    import affkit.killing as killing
    from affkit.paperchecks import verify_paper
    built = []
    original = killing.prolongation_symbolic

    def counting(s):
        built.append(s)
        return original(s)

    monkeypatch.setattr(killing, "prolongation_symbolic", counting)
    assert all(item.passed for item in verify_paper(sweep_size=1))
    assert sum(s == sphere() for s in built) == 1
    assert sum(s == type_a({}) for s in built) == 1


def test_classify_rejects_rigid_surface():
    s = make_surface({"111": parse("x1"), "122": parse("x2"),
                      "222": parse("x1*x2")}, (0, 0))
    with pytest.raises(NotHomogeneousCandidate):
        classify(s)


def test_classify_witness_relations_reverify(sphere_surface):
    # The TypeB witness on a random A/x1 surface must satisfy [X,Y] = Y
    # through the jet bracket, not merely through the c tensor.
    s = type_b({"221": 1, "122": -2})
    res = classify(s)
    wb = next(w for w in res.branches if w.kind == "TypeB")
    L = res.algebra
    x, y = wb.elements
    got = L.bracket_coeffs(x, y)
    assert all((got[k] - y[k]).is_zero for k in range(L.dim))


def test_type_b_witness_with_fractional_coefficients():
    # The first candidate with an eigenvalue gives x / 2, so the jet check
    # of [X, Y] = Y clears a denominator before it brackets.
    s = type_b({"122": -1, "112": 1})
    res = classify(s)
    wb = next(w for w in res.branches if w.kind == "TypeB")
    x, y = wb.elements
    half = Scalar.of(Fraction(1, 2))
    assert x == [ZERO, half, ZERO, ZERO] and y == [half, ZERO, ONE, ZERO]
    assert res.algebra.bracket_coeffs(x, y) == y


def test_sphere_admits_no_two_dimensional_subalgebra(sphere_surface):
    # Every pair in the algebra either fails to close or fails effectivity.
    L = structure_constants(sphere_surface)
    res = classify(sphere_surface)
    assert "TypeA" not in res.kinds() and "TypeB" not in res.kinds()
    kf = L.killing_form()
    # Killing form negative definite: alternating principal minors.
    m1 = kf[0][0]
    m2 = kf[0][0] * kf[1][1] - kf[0][1] * kf[1][0]
    assert m1.is_real and m1.re < 0
    assert m2.is_real and m2.re > 0


def test_classify_flat_also_finds_affine_branch(flat_surface):
    # Branches are not exclusive: the flat plane carries both an abelian
    # pair and a [X,Y] = Y pair (radial scaling with a translation).
    res = classify(flat_surface)
    assert "TypeA" in res.kinds() and "TypeB" in res.kinds()


def test_witness_candidate_stream_is_pinned():
    # The stream decides which witness each search reports first, so its
    # order is part of the output: dimensions 2-5 end by themselves, and only
    # dimension 6 (7448 primitive candidates) is cut at the budget.
    streams = {n: list(liealg._search_candidates(n)) for n in range(1, 7)}
    assert [len(streams[n]) for n in range(1, 7)] == [1, 8, 49, 272, 1441, 4000]
    assert streams[2] == [(1, 0), (0, 1), (1, 1), (2, 1), (2, -1), (1, -1), (1, 2), (1, -2)]
    assert hashlib.sha256(repr(streams[6]).encode()).hexdigest() == (
        "77505de965f7d266c11f010e154cd6c726247089805c85edf717e36ec26323f0")


# ---------------------------------------------------------------------------
# the rotation branch
# ---------------------------------------------------------------------------

def killing_pairing(L, u, v):
    """u^T B v for the Killing form B of L."""
    kf = L.killing_form()
    return sum((u[i] * kf[i][j] * v[j] for i in range(L.dim) for j in range(L.dim)), ZERO)


def in_basis(L, p):
    """L written in the basis whose i-th vector has coefficients p[i]."""
    cols = [[p[k][r] for k in range(L.dim)] for r in range(L.dim)]
    table = {(i, j): dict(enumerate(solve(cols, L.bracket_coeffs(p[i], p[j]))))
             for i, j in combinations(range(L.dim), 2)}
    return presentation_from_table(L.dim, table)


def test_so3_branch_makes_no_numpy_call(sphere_surface, monkeypatch):
    L = structure_constants(sphere_surface)
    monkeypatch.setattr(liealg, "np", _NoNumpy())
    w = liealg._find_so3(L)
    assert w.kind == "so3" and w.elements == SPHERE_FRAME
    assert w.relations == "[X,Y]=Z, [Y,Z]=X, [Z,X]=Y"


RATIONAL = st.builds(lambda a, q: Scalar.of(Fraction(a, q)), st.integers(-3, 3), st.integers(1, 3))
RATIONAL_BASES = st.lists(RATIONAL, min_size=9, max_size=9).map(
    lambda xs: [xs[0:3], xs[3:6], xs[6:9]]).filter(lambda p: rank(p) == 3)


@given(RATIONAL_BASES)
def test_so3_frame_in_random_rational_bases(p):
    # The frame is B-orthogonal and each cyclic bracket is a positive
    # multiple of the third vector, whatever basis so(3) is written in.
    L = in_basis(SO3, p)
    f, ks = liealg._so3_frame(L)
    assert all(killing_pairing(L, f[a], f[b]).is_zero for a, b in combinations(range(3), 2))
    for (a, b, c), k in zip(CYCLE, ks):
        assert k.is_real and k.re > 0
        assert L.bracket_coeffs(f[a], f[b]) == [k * x for x in f[c]]


def test_so3_frame_rejects_indefinite_degenerate_and_broken_algebras():
    assert liealg._so3_frame(SL2) is None           # sl(2, R): B is indefinite
    assert liealg._so3_frame(SQRT2) is None         # solvable: B is degenerate
    broken = corrupted(SO3, [((2, 0, 2), ONE), ((0, 2, 2), -ONE)])
    # B stays negative definite (minors -1, 2, -3), so only the relation
    # test can reject it: [f1, f2] is no multiple of f3.
    assert broken.killing_form() == [[Scalar.of(x) for x in row]
                                     for row in ((-1, 0, 0), (0, -2, 1), (0, 1, -2))]
    assert liealg._so3_frame(broken) is None
    assert liealg._find_so3(broken) is None


@pytest.mark.parametrize("k, printed", [(2, "2X"), (Fraction(1, 2), "(1/2)X")])
def test_so3_relations_print_a_coefficient_other_than_one(k, printed):
    L = presentation_from_table(3, {(0, 1): {2: 1}, (1, 2): {0: Scalar.of(k)}, (2, 0): {1: 1}})
    w = liealg._find_so3(L)
    assert w.relations == f"[X,Y]=Z, [Y,Z]={printed}, [Z,X]=Y"


# Torsion-free surfaces with parallel Ricci tensor and Killing dimension 3,
# with rho(P) and their branches: the sphere, a Type B surface with
# rho(P) = -I and its Lorentzian twin.
PARALLEL_RICCI = [
    (sphere(), ((1, 0), (0, 1)), ["so3"]),
    (type_b({"111": -1, "221": 1, "122": -1, "212": -1}), ((-1, 0), (0, -1)), ["TypeB"]),
    (type_b({"111": -1, "221": -1, "122": -1, "212": -1}), ((-1, 0), (0, 1)), ["TypeB"]),
]


@pytest.mark.parametrize("s, rho_p, kinds", PARALLEL_RICCI)
def test_so3_branch_exactly_when_ricci_is_positive_definite(s, rho_p, kinds):
    # The geometric certificate of the rotation branch: with T = 0 and
    # nabla rho = 0, the algebra is so(3) exactly when rho(P) is positive
    # definite.
    assert torsion(s).is_zero and nabla_ricci(s).is_zero
    rho = ricci(s)
    r = [[rho[(i, j)].eval_exact(s.basepoint) for j in (1, 2)] for i in (1, 2)]
    assert r == [[Scalar.of(x) for x in row] for row in rho_p]
    definite = r[0][0].re > 0 and (r[0][0] * r[1][1] - r[0][1] * r[1][0]).re > 0
    res = classify(s)
    assert res.dim == 3 and res.kinds() == kinds
    assert ("so3" in res.kinds()) == definite
