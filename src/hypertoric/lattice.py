"""Exact integer linear algebra for small dense and sparse systems.

Everything runs on Python ints.  Lattice bases and Smith invariant factors
come from unimodular row and column operations on dense matrices; ranks,
inverses, echelon forms and kernels over Q come from one sparse integer
echelon that keeps its rows primitive.  All downstream predicates
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


def int_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[IntVec]:
    """Lattice basis of the integer kernel {u in Z^ncols : row . u = 0}.

    Column reduction by unimodular operations; the result is a basis of the
    saturated kernel sublattice, so a one-dimensional kernel yields a
    primitive vector.
    """
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != ncols:
            raise DimensionError("kernel of ragged matrix")
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def combine(j0: int, j1: int, a: int, b: int):
        # col_j0, col_j1 <- (x*col_j0 + y*col_j1, -(b/g)*col_j0 + (a/g)*col_j1)
        g, x, y = xgcd(a, b)
        p, q = -(b // g), a // g
        for m in (mat, u):
            for row in m:
                c0, c1 = row[j0], row[j1]
                row[j0] = x * c0 + y * c1
                row[j1] = p * c0 + q * c1

    lead = 0
    for i in range(len(mat)):
        piv = None
        for j in range(lead, ncols):
            if mat[i][j]:
                piv = j
                break
        if piv is None:
            continue
        for j in range(piv + 1, ncols):
            if mat[i][j]:
                combine(piv, j, mat[i][piv], mat[i][j])
        if piv != lead:
            for m in (mat, u):
                for row in m:
                    row[piv], row[lead] = row[lead], row[piv]
        lead += 1
    basis = []
    for j in range(lead, ncols):
        basis.append(tuple(u[i][j] for i in range(ncols)))
    return basis


def smith_invariant_factors(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    factors: list[int] = []
    top = 0
    while top < min(m, n):
        # find the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column by division steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
        factors.append(abs(a[top][top]))
        top += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            if y % x:
                g = gcd(x, y)
                factors[i], factors[i + 1] = g, x * y // g
                changed = True
    return tuple(f for f in factors if f)


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

    The echelon is back-substituted in place, from the last pivot up.
    """
    piv = sparse_echelon(rows)
    for j in sorted(piv, reverse=True):
        row = piv[j]
        targets = [c for c in row if c != j and c in piv]
        for c in sorted(targets):
            row = _eliminate(row, piv[c], c)
        if row[j] < 0:
            row = {c: -v for c, v in row.items()}
        piv[j] = row
    return piv


def rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank over Q of integer vectors of one length."""
    rows = [tuple(v) for v in vectors]
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionError("rank of ragged matrix")
    return len(sparse_echelon(dict(enumerate(r)) for r in rows))


def int_inverse(mat: Sequence[Sequence[int]]) -> list[IntVec]:
    """Inverse of a unimodular integer matrix, as integer rows.

    Fully reduces [mat | I].  Reduced rows are primitive, so the inverse is
    integral exactly when every pivot is 1.
    """
    n = len(mat)
    for r in mat:
        if len(r) != n:
            raise DimensionError("inverse of non-square matrix")
    piv = sparse_rref(
        {**dict(enumerate(row)), n + i: 1} for i, row in enumerate(mat)
    )
    if any(j not in piv for j in range(n)):
        raise ValueError("matrix is singular")
    if any(piv[j][j] != 1 for j in range(n)):
        raise ValueError("matrix is not unimodular")
    return [tuple(piv[j].get(n + c, 0) for c in range(n)) for j in range(n)]


def sparse_kernel(rows: Iterable[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of {x : row . x = 0 for all rows}, one vector per free column.

    Each vector is the rational one with a 1 at its free column, scaled by
    the lcm of its denominators to integers, so its entries are coprime.
    """
    piv = sparse_rref(rows)
    basis = []
    for free in range(ncols):
        if free in piv:
            continue
        hits = [(p, row) for p, row in piv.items() if free in row]
        scale = lcm(*(row[p] // gcd(row[p], row[free]) for p, row in hits))
        vec: SparseRow = {free: scale}
        for p, row in hits:
            vec[p] = -row[free] * scale // row[p]
        basis.append(vec)
    return basis


def column_kernel(columns: Sequence[tuple[SparseRow, int]]) -> list[SparseRow]:
    """sparse_kernel of the matrix whose j-th column is row_j / denominator_j.

    All columns are brought to one common multiplier: scaling them
    separately would change the kernel.
    """
    common = lcm(*(d for _, d in columns))
    rows: dict[int, SparseRow] = {}
    for j, (column, d) in enumerate(columns):
        f = common // d
        for r, v in column.items():
            rows.setdefault(r, {})[j] = v * f
    return sparse_kernel(rows.values(), len(columns))
