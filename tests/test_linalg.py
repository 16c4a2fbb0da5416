"""Exact linear algebra sanity checks."""

from fractions import Fraction

from hypothesis import given
import hypothesis.strategies as st
import sympy as sp

from affkit.linalg import (
    Echelon, clear_denominators, gauss_mul, int_charpoly, nullspace, rank, rational_eigenvalues,
    solve,
)
from affkit.scalars import ONE, ZERO, Scalar

from helpers_oracle import (
    charpoly_reference, mat_mul_reference, rref_reference,
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
def test_rational_eigenvalues_have_eigenvectors(a):
    # Each eigenvalue is nonzero, real, given once, and has a nonzero kernel
    # of a - lam*I, which is (m - d*lam*I) / d.
    d, m = clear_denominators(a)
    found = [lam for _, lam in rational_eigenvalues(m, d) if lam is not None]
    assert len(set(found)) == len(found)
    for lam in found:
        assert lam.is_real and not lam.is_zero
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert nullspace(shifted), lam


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


def _jordan(lam: Scalar, k: int):
    return [[lam if i == j else ONE if j == i + 1 else ZERO for j in range(k)]
            for i in range(k)]


def _eigenvalues(a) -> list[Fraction]:
    d, m = clear_denominators(a)
    got = rational_eigenvalues(m, d)
    assert all(lam is not None for _, lam in got), got
    return sorted(lam.re for _, lam in got)


def test_rational_eigenvalues_keep_a_double_root():
    # (t-1)^2 (t-2): np.roots puts the double root 1 about 3e-8 off the real axis.
    assert _eigenvalues(_block_diag(_jordan(S(1), 2), [[S(2)]])) == [1, 2]


def test_rational_eigenvalues_keep_a_triple_root():
    # (t-1)^3 (t+1/2)^2 t over d = 2: np.roots puts the triple root's one
    # real proposal 5.5e-6 off 1 and gives -1/2 twice, each about 1e-8 off.
    a = _block_diag(_jordan(S(1), 3), _jordan(S(Fraction(-1, 2)), 2), [[ZERO]])
    assert clear_denominators(a)[0] == 2
    assert _eigenvalues(a) == [Fraction(-1, 2), 1]


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
                max_size=8),
       st.sampled_from([1, 2, 3]))
def test_rational_eigenvalues_give_each_distinct_eigenvalue_once(eigs, moves, d):
    # m = U diag(eigs) U^-1 for a unimodular U, one elementary move at a time
    # (row i += c row j, then column j -= c column i), so m / d has the
    # distinct eigenvalues eigs / d; the zero eigenvalue is never given.
    n = len(eigs)
    m = [[e if i == j else 0 for j in range(n)] for i, e in enumerate(eigs)]
    for i, j, c in moves:
        i, j = i % n, j % n
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
    got = rational_eigenvalues((m, None), d)
    assert sorted(lam.re for _, lam in got) == sorted(Fraction(e, d) for e in eigs if e)
