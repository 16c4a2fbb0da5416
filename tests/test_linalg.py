"""Exact linear algebra sanity checks."""

from fractions import Fraction

from hypothesis import given
import hypothesis.strategies as st
import sympy as sp

from affkit.linalg import (
    Echelon, clear_denominators, float_coeffs, gauss_mul, int_charpoly, is_root, nullspace,
    rank, solve,
)
from affkit.scalars import ONE, ZERO, Scalar

from helpers_oracle import (
    charpoly_reference, mat_mul_reference, poly_eval_reference, rref_reference,
)

# Sparse Gaussian-rational entries: about half zero, the rest real,
# imaginary or general, as in ad matrices and constraint rows.
ENTRIES = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(lambda a: Scalar.of(a), st.integers(-3, 3)),
    st.builds(lambda b: Scalar.of(0, b), st.integers(-3, 3)),
    st.builds(lambda a, b, q: Scalar.of(Fraction(a, q), Fraction(b, q)),
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)))


def sparse_matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def to_sympy(z: Scalar):
    return sp.Rational(z.re.numerator, z.re.denominator) + sp.I * sp.Rational(
        z.im.numerator, z.im.denominator)


def S(x):
    return Scalar.of(Fraction(x))


def M(rows):
    return [[S(x) for x in row] for row in rows]


def charpoly(a):
    """[c_0, ..., c_n] of det(t*I - A) from ``int_charpoly`` of B = d*A:
    c_k(A) = c_k(B) / d^(n-k)."""
    n = len(a)
    d, (re, im) = clear_denominators(a)
    cr, ci = int_charpoly(re, im)
    return [Scalar.of(Fraction(cr[k], d ** (n - k)), Fraction(ci[k], d ** (n - k)))
            for k in range(n + 1)]


def test_rref_and_rank():
    assert rank(M([[1, 2], [3, 4]])) == 2


@st.composite
def ranked_rows(draw):
    """Up to 6 sparse Gaussian-rational rows of width 6, plus rows that are
    small integer combinations of them, in a random order: any rank 0-6."""
    base = draw(st.integers(0, 6).flatmap(lambda r: sparse_matrices(r, 6)))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                    max_size=len(base)), max_size=3))
    rows = base + [[sum((base[r][c] * Scalar.of(k) for r, k in enumerate(ks)), ZERO)
                    for c in range(6)] for ks in combos]
    return draw(st.permutations(rows))


@given(ranked_rows())
def test_echelon_matches_column_major_reference(rows):
    want = rref_reference(rows)
    assert rank(rows) == len(want[1])
    # Row by row: the rank of every prefix, and the same unique form.
    form = Echelon(6)
    for k, row in enumerate(rows):
        form.add(row)
        assert form.rank == len(rref_reference(rows[:k + 1])[1])
    assert (form.rows, form.pivots) == (want[0][:form.rank], want[1])
    assert form.nullspace() == nullspace(rows, n_cols=6)


def test_nullspace_known_kernel():
    ns = nullspace(M([[1, 1, 0], [0, 0, 1]]))
    assert len(ns) == 1
    assert ns[0] == [-ONE, ONE, ZERO]


def test_nullspace_of_empty_rowset_is_identity():
    ns = nullspace([], n_cols=3)
    assert ns == [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]


def test_solve_consistent_and_inconsistent():
    x = solve(M([[1, 1], [1, -1]]), [S(3), S(1)])
    assert x == [S(2), S(1)]
    assert solve(M([[1, 1], [1, 1]]), [S(0), S(1)]) is None


def test_charpoly_of_rotation_generator():
    # [[0, -1], [1, 0]] has characteristic polynomial t^2 + 1.
    coeffs = charpoly(M([[0, -1], [1, 0]]))
    assert coeffs == [ONE, ZERO, ONE]
    assert int_charpoly([[0, -1], [1, 0]]) == ([1, 0, 1], [0, 0, 0])


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    m = M(rows)
    for v in nullspace(m):
        assert all(sum((x * y for x, y in zip(row, v)), ZERO).is_zero for row in m)
    assert rank(m) + len(nullspace(m)) == 3


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_cayley_hamilton(rows):
    a = M(rows)
    coeffs = charpoly(a)
    acc = [[ZERO] * 3 for _ in range(3)]
    power = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    for ck in coeffs:
        for i in range(3):
            for j in range(3):
                acc[i][j] = acc[i][j] + ck * power[i][j]
        power = mat_mul_reference(power, a)
    assert all(x.is_zero for row in acc for x in row)


def gauss_matrices(rows, cols):
    """Sparse (re, im or None) int matrices over Z[i]."""
    part = st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)
    return st.tuples(part, st.one_of(st.none(), part))


@st.composite
def gauss_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(gauss_matrices(n, k)), draw(gauss_matrices(k, m))


@given(gauss_pairs())
def test_gauss_mul_matches_naive_complex_product(pair):
    # Small integers: every complex float product and sum below is exact.
    a, b = pair
    as_complex = lambda g: [[complex(x, 0 if g[1] is None else g[1][i][j])
                             for j, x in enumerate(row)] for i, row in enumerate(g[0])]
    ca, cb = as_complex(a), as_complex(b)
    naive = [[sum(ca[i][t] * cb[t][j] for t in range(len(cb)))
              for j in range(len(cb[0]))] for i in range(len(ca))]
    re, im = gauss_mul(a, b)
    assert (im is None) == (a[1] is None and b[1] is None)
    assert as_complex((re, im)) == naive


@given(st.integers(0, 6).flatmap(lambda n: sparse_matrices(n, n)))
def test_charpoly_matches_sympy(a):
    n = len(a)
    t = sp.Symbol("t")
    want = sp.Matrix(n, n, [to_sympy(x) for row in a for x in row]).charpoly(t)
    got = charpoly(a)
    assert len(got) == n + 1
    for ours, theirs in zip(reversed(got), want.all_coeffs()):
        assert sp.expand(to_sympy(ours) - theirs) == 0


# Gaussian rationals with mixed denominators up to 10^6, real or complex.
BIG_DENOMINATORS = st.integers(1, 10**6)
REAL_ENTRIES = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, q: Scalar.of(Fraction(a, q)), st.integers(-9, 9), BIG_DENOMINATORS))
COMPLEX_ENTRIES = st.one_of(
    REAL_ENTRIES,
    st.builds(lambda a, q, b, r: Scalar.of(Fraction(a, q), Fraction(b, r)),
              st.integers(-9, 9), BIG_DENOMINATORS, st.integers(-9, 9), BIG_DENOMINATORS))


def square_matrices(entries, max_n=6):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@given(st.one_of(square_matrices(REAL_ENTRIES), square_matrices(COMPLEX_ENTRIES)))
def test_charpoly_matches_field_reference(a):
    assert charpoly(a) == charpoly_reference(a)


@given(st.one_of(square_matrices(REAL_ENTRIES), square_matrices(COMPLEX_ENTRIES)))
def test_float_coeffs_round_the_exact_coefficients(a):
    # The np.roots input must equal complex() of each exact coefficient,
    # bit for bit, highest degree first.
    d, (re, im) = clear_denominators(a)
    assert (float_coeffs(int_charpoly(re, im), d)
            == [complex(c) for c in reversed(charpoly_reference(a))])


@given(square_matrices(COMPLEX_ENTRIES, max_n=4))
def test_clear_denominators_is_exact(a):
    d, (re, im) = clear_denominators(a)
    assert (im is None) == all(x.is_real for row in a for x in row)
    im = im or [[0] * len(row) for row in re]
    assert all(Scalar.of(Fraction(r, d), Fraction(i, d)) == x
               for row_a, row_r, row_i in zip(a, re, im)
               for x, r, i in zip(row_a, row_r, row_i))


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


GAUSSIAN_ROOTS = st.builds(
    lambda p, pi, q: Scalar.of(Fraction(p, q), Fraction(pi, q)),
    st.integers(-30, 30), st.one_of(st.just(0), st.integers(-30, 30)), st.integers(1, 10**6))
PRIME = 2**61 - 1   # coprime to every scaled root met below


@given(GAUSSIAN_ROOTS, st.integers(1, 10**6), st.integers(-3, 3), st.integers(1, 50),
       st.booleans())
def test_root_test_agrees_with_field_evaluation(r0, q2, p3, q3, rotate):
    # (t - r0)(t^2 - 2)(t^2 + 2), or (t - r0)(t^2 - 2i)(t^2 + 2i), with an
    # extra block 1/q2 that puts factors into den which r0 does not have.
    two = Scalar.of(0, 2) if rotate else Scalar.of(2)
    a = _block_diag([[r0]], [[ZERO, two], [ONE, ZERO]], [[ZERO, -two], [ONE, ZERO]],
                    [[Scalar.of(Fraction(1, q2))]])
    ref = charpoly_reference(a)
    d, (re, im) = clear_denominators(a)
    poly = int_charpoly(re, im)
    scaled = r0 * d
    candidates = [
        r0, r0.conjugate(), -r0, r0 + Scalar.of(Fraction(p3, q3)),
        Scalar.of(Fraction(p3, q3)), Scalar.of(Fraction(1, q2)), Scalar.of(Fraction(2, q2)),
        # d * candidate = (d * r0) / PRIME: its numerators equal those of d * r0
        Scalar.of(Fraction(scaled.re, d * PRIME), Fraction(scaled.im, d * PRIME)),
        Scalar.of(Fraction(665857, 470832)), Scalar.of(0, Fraction(665857, 470832)),
        Scalar.of(1, 1), Scalar.of(-1, -1),
    ]
    for cand in candidates:
        assert is_root(poly, d, cand) == poly_eval_reference(ref, cand).is_zero, cand
    assert is_root(poly, d, r0)

