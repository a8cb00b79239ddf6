"""Exact integer linear algebra for small dense and sparse systems.

Everything runs on Python ints.  Kernel lattice bases, unimodular inverses
and Smith invariant factors come from one column Hermite form of a dense
matrix; ranks, echelon forms and kernels over Q come from one sparse
integer echelon that keeps its rows primitive.  All downstream predicates
(membership, rank, genericity) are therefore exact equality tests.  Dense
matrices are lists of rows, sparse rows are {column: value} dicts, vectors
are tuples.  Nothing here touches floating point.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionError, NonIntegralError

IntVec = tuple[int, ...]


def as_int(x) -> int:
    """x as an int when it equals one (True, Fraction(2) and 2.0 do).

    Anything else raises NonIntegralError naming x, instead of being
    truncated as int() would truncate 1.7.
    """
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or x != n:
        raise NonIntegralError(f"{x!r} is not an integer")
    return n


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: IntVec, v: IntVec) -> IntVec:
    if len(u) != len(v):
        raise DimensionError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: IntVec) -> IntVec:
    return tuple(-a for a in u)


def content(v: Sequence[int]) -> int:
    """Gcd of the absolute values of the entries (0 for the zero vector)."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive(v: Sequence[int]) -> IntVec:
    """Divide by the content and make the first nonzero entry positive."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    w = tuple(a // g for a in v)
    for a in w:
        if a:
            return w if a > 0 else vec_neg(w)
    raise AssertionError("unreachable")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# integer lattice computations


def _column_hermite(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[list[int]], int]:
    """Column Hermite form (h, u, rank) of an integer matrix, with h = rows @ u.

    Row by row, the first nonzero entry at or right of the next pivot column
    is combined with each later nonzero entry by xgcd, leaving their gcd, and
    its column is swapped into the pivot position.  The pivot is then made
    positive and the entries left of it reduced into [0, pivot) by multiples
    of its column.  u is unimodular; those last two steps touch only the
    first rank columns, so the last ncols - rank columns of u are the same
    kernel basis the column reduction alone gives.
    """
    h = [list(r) for r in rows]
    for r in h:
        if len(r) != ncols:
            raise DimensionError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    both = h + u  # the same row lists: a column operation updates h and u
    lead = 0
    for row in h:
        for piv in range(lead, ncols):
            if row[piv]:
                break
        else:
            continue
        for j in range(piv + 1, ncols):
            if row[j]:
                # col_piv, col_j <- (x*col_piv + y*col_j, -(b/g)*col_piv + (a/g)*col_j)
                a, b = row[piv], row[j]
                g, x, y = xgcd(a, b)
                p, q = -(b // g), a // g
                for r in both:
                    c0, c1 = r[piv], r[j]
                    r[piv] = x * c0 + y * c1
                    r[j] = p * c0 + q * c1
        if piv != lead or row[piv] < 0:
            sign = -1 if row[piv] < 0 else 1
            for r in both:
                r[piv], r[lead] = r[lead], sign * r[piv]
        pivot = row[lead]
        for j in range(lead):
            k = row[j] // pivot
            if k:
                for r in both:
                    r[j] -= k * r[lead]
        lead += 1
    return h, u, lead


def int_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[IntVec]:
    """Lattice basis of the integer kernel {u in Z^ncols : row . u = 0}.

    The non-pivot columns of the column Hermite transform span the saturated
    kernel sublattice, so a one-dimensional kernel yields a primitive vector.
    """
    _, u, rank = _column_hermite(rows, ncols)
    return [tuple(r[j] for r in u) for j in range(rank, ncols)]


def int_inverse(mat: Sequence[Sequence[int]]) -> list[IntVec]:
    """Inverse of a unimodular integer matrix, as integer rows.

    The column Hermite form of a unimodular matrix is the identity, so its
    transform is the inverse.
    """
    n = len(mat)
    for r in mat:
        if len(r) != n:
            raise DimensionError("inverse of non-square matrix")
    h, u, rank = _column_hermite(mat, n)
    if rank < n:
        raise ValueError("matrix is singular")
    if any(h[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return [tuple(r) for r in u]


def smith_invariant_factors(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Column Hermite forms of the matrix and of its transpose alternate until
    every pivot is alone in its row and column.  Each form's first pivot
    divides the one before; when it stays, the rest of its column lies in
    the lattice of the later pivot columns, which reduce it to zero.  So the
    loop ends, and every form keeps its entries reduced against its pivots.
    """
    h, ncols = mat, len(mat[0]) if mat else 0
    while True:
        h, _, rank = _column_hermite(h, ncols)
        factors = [x for row in h for x in row if x]
        if len(factors) == rank:
            break
        h, ncols = list(zip(*h)), len(h)
    # the divisibility chain: each pair i < j keeps its gcd at i and its lcm
    # at j, which sorts every prime's exponents, as a selection sort would
    for i, j in combinations(range(len(factors)), 2):
        x, y = factors[i], factors[j]
        factors[i], factors[j] = gcd(x, y), lcm(x, y)
    return tuple(factors)


def hyperplane_normals(vectors: Sequence[IntVec], dim: int) -> list[IntVec]:
    """Canonical primitive normals of every hyperplane spanned by the input.

    A hyperplane counts when some dim-1 of the vectors span it, that is when
    their integer kernel is one line.  In dim 1 that is the origin, spanned
    by no vectors, with normal (1,); dim 0 has no hyperplanes.
    """
    for v in vectors:
        if len(v) != dim:
            raise DimensionError("mixed vector lengths")
    if dim == 0:
        return []
    dirs = sorted({primitive(v) for v in vectors if any(v)})
    normals = set()
    for sub in combinations(dirs, dim - 1):
        ker = int_kernel_basis(sub, dim)
        if len(ker) == 1:
            normals.add(primitive(ker[0]))
    return sorted(normals)


# ---------------------------------------------------------------------------
# sparse integer elimination (rows are dicts {column: value})

SparseRow = dict[int, int]


def _normalize_sparse(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: SparseRow, pivot_row: SparseRow, col: int) -> SparseRow:
    a, b = pivot_row[col], row[col]
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        elif c in out:
            del out[c]
    return _normalize_sparse(out)


class IncrementalEchelon:
    """Echelon form that accepts rows one at a time.

    add() reduces the row against the pivots collected so far; a nonzero
    remainder is stored as a new pivot row and returned, a full reduction
    returns None.  Pivots are chosen at the smallest column index.
    """

    def __init__(self):
        self.pivots: dict[int, SparseRow] = {}

    def add(self, row: SparseRow) -> SparseRow | None:
        r = {c: v for c, v in row.items() if v}
        while r:
            j = min(r)
            if j in self.pivots:
                r = _eliminate(r, self.pivots[j], j)
            else:
                r = _normalize_sparse(r)
                if r[j] < 0:
                    r = {c: -v for c, v in r.items()}
                self.pivots[j] = r
                return r
        return None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def sparse_echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Row echelon form of sparse integer rows; returns {pivot column: row}.

    With lexicographically sorted column labels the eliminated columns are
    the lex-earliest ones.
    """
    echelon = IncrementalEchelon()
    for row in rows:
        echelon.add(row)
    return echelon.pivots


def sparse_rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Fully reduced echelon form: each pivot column occurs in one row only.

    The echelon is back-substituted in place, from the last pivot up.  A
    step multiplies the row by a later pivot's entry, which is positive, and
    subtracts a multiple of that pivot row, which is zero in this row's pivot
    column; so every pivot entry stays as positive as the echelon made it.
    """
    piv = sparse_echelon(rows)
    for j in sorted(piv, reverse=True):
        row = piv[j]
        targets = [c for c in row if c != j and c in piv]
        for c in sorted(targets):
            row = _eliminate(row, piv[c], c)
        piv[j] = row
    return piv


def column_kernel(columns: Sequence[tuple[SparseRow, int]]) -> list[SparseRow]:
    """Basis of the kernel of the matrix whose j-th column is row_j / denominator_j.

    All columns take one common multiplier: scaling them apart would change
    the kernel.  Each vector, 1 at a free column, is scaled to coprime ints.
    """
    common = lcm(*(d for _, d in columns))
    rows: dict[int, SparseRow] = {}
    for j, (column, d) in enumerate(columns):
        f = common // d
        for r, v in column.items():
            rows.setdefault(r, {})[j] = v * f
    piv = sparse_rref(rows.values())
    basis = []
    for free in range(len(columns)):
        if free in piv:
            continue
        hits = [(p, row) for p, row in piv.items() if free in row]
        scale = lcm(*(row[p] // gcd(row[p], row[free]) for p, row in hits))
        vec: SparseRow = {free: scale}
        for p, row in hits:
            vec[p] = -row[free] * scale // row[p]
        basis.append(vec)
    return basis
