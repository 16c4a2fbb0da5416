"""Exact linear algebra sanity checks."""

from fractions import Fraction

from hypothesis import given
import hypothesis.strategies as st
import sympy as sp

from affkit.linalg import (
    charpoly, identity, in_span, mat_mul, mat_pow, mat_vec, nullspace,
    poly_deflate, poly_eval, rank, rref, solve,
)
from affkit.scalars import ONE, ZERO, Scalar

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


def test_rref_and_rank():
    m, pivots = rref(M([[1, 2], [2, 4]]))
    assert pivots == [0]
    assert m[1] == [ZERO, ZERO]
    assert rank(M([[1, 2], [3, 4]])) == 2


def test_nullspace_known_kernel():
    ns = nullspace(M([[1, 1, 0], [0, 0, 1]]))
    assert len(ns) == 1
    assert ns[0] == [-ONE, ONE, ZERO]


def test_nullspace_of_empty_rowset_is_identity():
    ns = nullspace([], n_cols=3)
    assert ns == identity(3)


def test_solve_consistent_and_inconsistent():
    x = solve(M([[1, 1], [1, -1]]), [S(3), S(1)])
    assert x == [S(2), S(1)]
    assert solve(M([[1, 1], [1, 1]]), [S(0), S(1)]) is None


def test_in_span():
    basis = [[ONE, ZERO], [ZERO, ONE]]
    assert in_span(basis, [S(5), S(-2)])
    assert not in_span([[ONE, ZERO]], [S(0), S(1)])
    assert in_span([], [ZERO, ZERO])


def test_charpoly_of_rotation_generator():
    # [[0, -1], [1, 0]] has characteristic polynomial t^2 + 1.
    coeffs = charpoly(M([[0, -1], [1, 0]]))
    assert coeffs == [ONE, ZERO, ONE]
    assert poly_eval(coeffs, Scalar.of(0, 1)).is_zero
    deflated = poly_deflate(coeffs, Scalar.of(0, 1))
    assert poly_eval(deflated, Scalar.of(0, -1)).is_zero


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    m = M(rows)
    for v in nullspace(m):
        assert all(x.is_zero for x in mat_vec(m, v))
    assert rank(m) + len(nullspace(m)) == 3


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_cayley_hamilton(rows):
    a = M(rows)
    coeffs = charpoly(a)
    acc = [[ZERO] * 3 for _ in range(3)]
    power = identity(3)
    for ck in coeffs:
        for i in range(3):
            for j in range(3):
                acc[i][j] = acc[i][j] + ck * power[i][j]
        power = mat_mul(power, a)
    assert all(x.is_zero for row in acc for x in row)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(sparse_matrices(n, k)), draw(sparse_matrices(k, m))


@given(product_pairs())
def test_sparse_mat_mul_matches_naive_triple_loop(pair):
    a, b = pair
    naive = [[ZERO] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for t in range(len(b)):
                naive[i][j] = naive[i][j] + a[i][t] * b[t][j]
    assert mat_mul(a, b) == naive


@given(st.integers(0, 6).flatmap(lambda n: sparse_matrices(n, n)))
def test_charpoly_matches_sympy(a):
    n = len(a)
    t = sp.Symbol("t")
    want = sp.Matrix(n, n, [to_sympy(x) for row in a for x in row]).charpoly(t)
    got = charpoly(a)
    assert len(got) == n + 1
    for ours, theirs in zip(reversed(got), want.all_coeffs()):
        assert sp.expand(to_sympy(ours) - theirs) == 0


@given(st.integers(1, 4).flatmap(lambda n: sparse_matrices(n, n)), st.integers(0, 4))
def test_mat_pow_matches_repeated_products(a, k):
    want = identity(len(a))
    for _ in range(k):
        want = mat_mul(want, a)
    assert mat_pow(a, k) == want
