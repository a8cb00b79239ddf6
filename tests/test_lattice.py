"""Unit tests for the exact integer linear algebra layer.

Ranks are checked against the oracle's dense Fraction elimination, which
shares no code with the sparse echelon under test, and Smith invariant
factors against the gcds of the minors.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric.errors import DimensionError, NonIntegralError
from hypertoric.lattice import (
    IncrementalEchelon,
    _column_hermite,
    as_int,
    column_kernel,
    dot,
    hyperplane_normals,
    int_inverse,
    int_kernel_basis,
    primitive,
    smith_invariant_factors,
    sparse_echelon,
    sparse_rref,
    vec_neg,
    vec_sub,
    xgcd,
)
from hypertoric.oracle import _dense_rank

ints = st.integers(-30, 30)
small_vec = st.lists(ints, min_size=1, max_size=5).map(tuple)


def dense_rank(mat) -> int:
    return _dense_rank([list(row) for row in mat])


def det(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def determinantal_divisors(mat) -> list[int]:
    """gcd of the k x k minors for k = 1, 2, ..., while it is nonzero."""
    ncols = len(mat[0]) if mat else 0
    divisors = []
    for k in range(1, min(len(mat), ncols) + 1):
        g = 0
        for rows in combinations(mat, k):
            for cols in combinations(range(ncols), k):
                g = gcd(g, det([[row[j] for j in cols] for row in rows]))
        if not g:
            break
        divisors.append(g)
    return divisors


def small_matrix(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c).map(tuple),
            min_size=1,
            max_size=max_rows,
        )
    )


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


@given(small_vec)
def test_content_divides(v):
    # the content primitive divides by: gcd of the entries, 0 only for zero
    c = gcd(*v)
    if not any(v):
        assert c == 0
        return
    assert c > 0
    assert all(x % c == 0 for x in v)
    # v is its content times its primitive form, up to sign
    p = primitive(v)
    assert v in (tuple(c * x for x in p), tuple(-c * x for x in p))


@given(small_vec)
def test_primitive_normalization(v):
    if not any(v):
        with pytest.raises(ValueError):
            primitive(v)
        return
    p = primitive(v)
    assert gcd(*p) == 1
    first = next(x for x in p if x)
    assert first > 0
    # sign-insensitive and scale-insensitive
    assert primitive(vec_neg(v)) == p
    assert primitive(tuple(3 * x for x in v)) == p


def test_vector_ops_dimension_guard():
    with pytest.raises(DimensionError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(DimensionError):
        vec_sub((1, 2, 3), (1, 2))
    with pytest.raises(DimensionError):
        int_inverse([(1, 0), (0,)])


@given(small_matrix())
def test_sparse_rank_matches_dense(mat):
    sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
    assert len(sparse_echelon(sparse)) == dense_rank(mat)


@given(small_matrix())
def test_int_kernel_basis_annihilates(mat):
    ncols = len(mat[0])
    basis = int_kernel_basis(mat, ncols)
    assert len(basis) == ncols - dense_rank(mat)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        for row in mat:
            assert dot(row, v) == 0


def test_int_kernel_basis_saturated():
    # kernel of (2 4) is generated by (2, -1), not (4, -2)
    basis = int_kernel_basis([(2, 4)], 2)
    assert len(basis) == 1
    assert gcd(*basis[0]) == 1


def test_int_inverse_roundtrip():
    m = ((2, 1), (1, 1))
    inv = int_inverse(m)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_int_inverse_rejects_non_unimodular():
    with pytest.raises(Exception):
        int_inverse(((2, 0), (0, 1)))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def elementary_products(draw):
    """A unimodular matrix built from random elementary row operations."""
    n = draw(st.integers(1, 4))
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            mat[i] = [-x for x in mat[i]]
        elif draw(st.booleans()):
            mat[i], mat[j] = mat[j], mat[i]
        else:
            k = draw(st.integers(-3, 3))
            mat[i] = [x + k * y for x, y in zip(mat[i], mat[j])]
    return mat


@given(elementary_products(), st.data())
def test_int_inverse_elementary_products(mat, data):
    n = len(mat)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = int_inverse(mat)
    assert matmul(mat, inv) == matmul(inv, mat) == identity
    i = data.draw(st.integers(0, n - 1))
    doubled = [[2 * x for x in row] if r == i else row for r, row in enumerate(mat)]
    with pytest.raises(ValueError, match="not unimodular"):
        int_inverse(doubled)
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(-3, 3))
    dependent = [[k * x for x in mat[j]] if r == i else row for r, row in enumerate(mat)]
    if i == j:
        dependent[i] = [0] * n
    with pytest.raises(ValueError, match="singular"):
        int_inverse(dependent)


def test_smith_invariant_factors_known():
    assert smith_invariant_factors([(1, 0), (0, 1)]) == (1, 1)
    assert smith_invariant_factors([(2, 0), (0, 3)]) == (1, 6)
    assert smith_invariant_factors([(2, 0), (0, 2)]) == (2, 2)
    assert smith_invariant_factors([(1,), (1,)]) == (1,)
    # one pass over adjacent pairs would leave (2, 1, 2): the 1 must reach
    # the front past both 2s
    assert smith_invariant_factors([(2, 0, 0), (0, 2, 0), (0, 0, 1)]) == (1, 2, 2)
    # eliminating by the smallest pivot grows the first's entries past 4,300
    # digits and runs for over 15 s on the second
    square = [
        (-6, 3, 5, 9, -9), (-8, 4, 4, 9, -6), (9, 9, 8, 6, 7),
        (-9, -6, -7, -7, -8), (-8, 6, 8, -2, -7),
    ]
    assert smith_invariant_factors(square) == (1, 1, 1, 1, 19378)
    tall = [
        (8, -9, -9, 5, -4), (-6, -8, -6, 8, -8), (7, 9, -1, 9, -6),
        (2, 8, -9, 9, 9), (6, -5, 3, 7, -4), (1, 2, -9, -6, 1),
    ]
    assert smith_invariant_factors(tall) == (1, 1, 1, 1, 2)


def test_empty_matrices():
    # no rows, and rows of length 0
    assert smith_invariant_factors([]) == smith_invariant_factors([(), ()]) == ()
    assert int_kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert int_kernel_basis([(), ()], 0) == []
    assert int_inverse([]) == []


@given(small_matrix(max_rows=3, max_cols=3))
def test_smith_divisibility_chain(mat):
    factors = smith_invariant_factors(mat)
    assert len(factors) == dense_rank(mat)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # d_1 d_2 ... d_k is the gcd of the k x k minors
    products = [1]
    for d in factors:
        products.append(products[-1] * d)
    assert products[1:] == determinantal_divisors(mat)


@given(small_matrix(max_rows=4, max_cols=4))
def test_column_hermite_form(mat):
    ncols = len(mat[0])
    h, u, rank = _column_hermite(mat, ncols)
    assert h == matmul(mat, u)
    assert abs(det(u)) == 1
    assert rank == dense_rank(mat)
    # pivot columns first, each pivot positive with zeros above it and the
    # entries left of it in [0, pivot); the other columns are zero
    last = -1
    for j in range(ncols):
        column = [row[j] for row in h]
        if j >= rank:
            assert not any(column)
            continue
        i = next(i for i, x in enumerate(column) if x)
        assert i > last and h[i][j] > 0
        assert all(0 <= x < h[i][j] for x in h[i][:j])
        last = i


def test_hyperplane_normals_hexagon():
    normals = hyperplane_normals([(1, 0), (0, 1), (1, 1)], 2)
    assert list(normals) == [(0, 1), (1, -1), (1, 0)]


def test_hyperplane_normals_low_dim():
    # in rank 1 the origin is the one hyperplane, spanned by no vectors
    assert list(hyperplane_normals([(1,), (1,)], 1)) == [(1,)]
    assert list(hyperplane_normals([(1,)], 1)) == [(1,)]
    assert list(hyperplane_normals([(), ()], 0)) == []
    # parallel generators spanning one flat
    assert list(hyperplane_normals([(1, 1), (2, 2), (-1, -1)], 2)) == [(1, -1)]


def test_sparse_echelon_pivot_signs():
    rows = sparse_echelon([{0: -2, 1: 4}])
    assert rows[0][0] > 0


@given(small_matrix(), st.lists(st.integers(1, 6), min_size=4, max_size=4))
def test_column_kernel_annihilates(mat, denominators):
    # column j is mat's column j over a positive denominator d_j, so the
    # kernel must be taken after one common multiplier, not column by column
    ncols = len(mat[0])
    columns = [
        ({r: row[j] for r, row in enumerate(mat) if row[j]}, denominators[j])
        for j in range(ncols)
    ]
    kernel = column_kernel(columns)
    assert len(kernel) == ncols - dense_rank(mat)
    # back-substitution keeps every pivot entry positive, and each pivot
    # column in its own row only
    reduced = sparse_rref({j: x for j, x in enumerate(row) if x} for row in mat)
    for j, row in reduced.items():
        assert row[j] > 0
        assert not any(c in reduced for c in row if c != j)
    for vec in kernel:
        # primitive: the quiver relations are not divided by their content
        assert gcd(*vec.values()) == 1
        for row in mat:
            assert sum(Fraction(row[j] * c, denominators[j]) for j, c in vec.items()) == 0


@settings(max_examples=50)
@given(small_matrix())
def test_incremental_echelon_tracks_rank(mat):
    ech = IncrementalEchelon()
    for row in mat:
        ech.add({j: x for j, x in enumerate(row) if x})
    assert ech.rank == dense_rank(mat)


def test_incremental_echelon_dependent_row_returns_none():
    ech = IncrementalEchelon()
    assert ech.add({0: 1, 1: 2}) is not None
    assert ech.add({0: 2, 1: 4}) is None
    assert ech.add({}) is None
    assert ech.rank == 1


def test_as_int_refuses_what_int_cannot_read():
    for x in ("x", None):
        with pytest.raises(NonIntegralError, match=repr(x)):
            as_int(x)


def test_ragged_and_mixed_length_input():
    with pytest.raises(DimensionError, match="ragged"):
        _column_hermite([[1, 2], [3]], 2)
    with pytest.raises(DimensionError, match="mixed"):
        hyperplane_normals([(1, 0), (1,)], 2)
