"""Minimal graded resolutions of vertex simples and Koszulity diagnostics.

Works entirely inside the truncated window algebra: syzygies are computed
one (degree, vertex) slice at a time, and minimal generators are read off by
reducing each syzygy slice against the multiples of the generators already
chosen.  Two independent signals are produced: the degrees in the generator
ledger (linear resolution or not) and the sign pattern of the inverted
Hilbert series.

Each projective is generated in one degree.  A Koszul algebra's simples
have linear resolutions, with P_k generated in degree k, and the walk
stops at the first step that finds a generator anywhere else; so while it
goes on, P_k is the direct sum of the vertex row-modules of its
generators, all shifted by k, and is held as the list of their vertices.
P_0 maps to zero, so in positive degrees step 1's syzygies, the radical of
P_0, come from the same kernel as every later step's.

All arithmetic is on integers.  A table per (degree, vertex) slice of a
projective gives its basis labels and, per summand, the quotient piece that
products land in; a product of a basis monomial by an algebra monomial is
that piece's reduce, an integer row over a denominator.  Span rows may be
rescaled freely, while a differential's kernel is taken by
lattice.column_kernel, which brings its columns to one common multiplier.
Tables live only while their slice is resolved.
Because each step's generators span its syzygies in every slice up to the
bound, the syzygy dimensions of the next step follow from the previous
ones, and a differential's kernel is only formed in the slices where the
multiples of the generators chosen so far fall short of that dimension.

Most slices are certified without forming a product, by counting leading
columns (the leading-term argument of Green's noncommutative Groebner
bases).  A slice's columns are (summand, representative), the
representatives in lex order, and lex order is translation-invariant.  A
reduced monomial is supported on representatives that come after it
(QuotientPiece.reduce).  So if an element's smallest label is (t, m) and
m + lam is a representative of summand t's piece, the product by lam has
its smallest column at (t, m + lam): one tuple add and one lookup
(_Slice.leading_column).  Rows with distinct smallest columns are
independent, and the multiples of syzygies are syzygies, so as many
distinct columns as the syzygy dimension prove that the multiples span the
slice.  Where the count falls short the products are formed as before, and
the pivot rows of that span whose columns were not counted join the
elements counted in the later slices of the step.  They are multiples of
the generators, so the ledger does not depend on them.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul
from typing import NamedTuple

from .algebra import GradedQuiverAlgebra, Monomial, QuotientPiece
from .errors import MalformedAlgebraError
from .lattice import IncrementalEchelon, SparseRow, column_kernel
from .reps import SymplecticRep

# an element of a projective is a tuple of terms (summand index, monomial,
# coefficient), one summand per generator
Term = tuple[int, Monomial, int]


class StepGenerator(NamedTuple):
    """An element of a projective at (vertex, degree), terms in column order.

    A resolution step holds its generators and the pivot rows carried
    forward for the leading-column count in this form.
    """

    vertex: int
    degree: int
    terms: tuple[Term, ...]


class VertexResolution(NamedTuple):
    """Generator ledger of a minimal resolution of one vertex simple.

    steps[k] lists (vertex, degree) for the generators of the k-th
    projective.  status is "linear" when every step-k generator sits in
    degree k, "violation" as soon as one does not, and "truncation_limited"
    when the next step would need degrees beyond the algebra bound.
    exhausted means the final syzygy module had no nonzero slice up to the
    bound, so the resolution stops there as far as the truncation can see.
    """

    vertex: int
    steps: tuple[tuple[tuple[int, int], ...], ...]
    status: str
    violation: tuple[int, int] | None
    exhausted: bool

    @property
    def betti_counts(self) -> tuple[int, ...]:
        return tuple(len(step) for step in self.steps)


class _Slice:
    """The vertex-u slice of a projective at piece degree d.

    The projective is generated in one degree k, one summand per vertex in
    vertices, so its slice of total degree k + d is made of the pieces
    alg.piece(v_t, u, d).  labels lists the basis as (summand index,
    representative monomial), in column order; targets[t] is summand t's
    piece and the column of its first representative.
    """

    __slots__ = ("labels", "targets")

    def __init__(self, alg: GradedQuiverAlgebra, vertices: list[int], d: int, u: int):
        self.labels: list[tuple[int, Monomial]] = []
        self.targets: list[tuple[QuotientPiece, int]] = []
        for t, vt in enumerate(vertices):
            piece = alg.piece(vt, u, d)
            self.targets.append((piece, len(self.labels)))
            self.labels.extend((t, mono) for mono in piece.representatives)

    def element(self, row: SparseRow) -> tuple[Term, ...]:
        """A sparse row of this slice as terms in column order."""
        return tuple((*self.labels[c], v) for c, v in sorted(row.items()))

    def leading_column(self, terms: tuple[Term, ...], lam: Monomial) -> int | None:
        """The smallest column of times(terms, lam), or None if not predicted.

        terms[0] is the smallest label (t, m); the product has its smallest
        column at (t, m + lam) whenever m + lam is a representative there.
        """
        t, mono, _ = terms[0]
        piece, offset = self.targets[t]
        p = piece.position(tuple(map(add, mono, lam)))
        return None if p is None else offset + p

    def times(self, terms: tuple[Term, ...], lam: Monomial) -> tuple[SparseRow, int]:
        """Right-multiply an element by lam into this slice: (row, scale).

        The product is row / scale; scale is the lcm of the denominators
        of the reductions the product passed through.
        """
        out: SparseRow = {}
        scale = 1
        for t, mono, coeff in terms:
            piece, offset = self.targets[t]
            row, d = piece.reduce(tuple(map(add, mono, lam)))
            if scale % d:
                up = d // gcd(scale, d)
                out = {c: v * up for c, v in out.items()}
                scale *= up
            f = coeff * (scale // d)
            for p, v in row.items():
                c = offset + p
                w = out.get(c, 0) + f * v
                if w:
                    out[c] = w
                else:
                    out.pop(c, None)
        return out, scale


def _leading_columns(
    alg: GradedQuiverAlgebra,
    dom: _Slice,
    elements: list[StepGenerator],
    n: int,
    u: int,
    dim: int,
) -> set[int]:
    """Distinct predicted smallest columns of the multiples of elements.

    The count stops at dim, which certifies the slice.
    """
    counted: set[int] = set()
    for g in elements:
        for lam in alg.basis(g.vertex, u, n - g.degree):
            c = dom.leading_column(g.terms, lam)
            if c is not None:
                counted.add(c)
                if len(counted) == dim:
                    return counted
    return counted


def minimal_resolution(
    alg: GradedQuiverAlgebra, vertex_index: int, depth: int
) -> VertexResolution:
    """Resolve the simple at one vertex by minimal projectives.

    Slices are scanned degree-outer then vertex-inner, so the generator
    ledger is deterministic.  The walk stops at the requested depth, at the
    first non-linear step, when a syzygy module vanishes inside the
    truncation window, or when the window is too short to continue.
    """
    bound = alg.degree_bound
    nv = alg.num_vertices
    steps: list[tuple[tuple[int, int], ...]] = [((vertex_index, 0),)]
    status = "linear"
    violation: tuple[int, int] | None = None
    exhausted = False

    # state describing d: P_{step-1} -> P_{step-2}, each projective the
    # vertices of its generators; P_0 maps to zero
    p_vertices = [vertex_index]
    map_gens = [StepGenerator(vertex_index, 0, ())]
    pp_vertices: list[int] = []
    # syzygy slice dimensions of the previous step; its generators span
    # those syzygies in every slice up to the bound, so they are the ranks
    # of the current differential
    image_dims: dict[tuple[int, int], int] = {}

    for step in range(1, depth + 1):
        if step > bound:
            status = "truncation_limited"
            break
        found: list[StepGenerator] = []
        # elements of the span of found whose multiples are counted
        counted_from: list[StepGenerator] = []
        syzygy_dims: dict[tuple[int, int], int] = {}
        # syzygies start in degree step: in degree step - 1, P_{step-1} is
        # spanned by its generators, which d maps to independent minimal
        # generators (for step 1, P_0 -> simple is an isomorphism there)
        for n in range(step, bound + 1):
            for u in range(nv):
                dom = _Slice(alg, p_vertices, n - step + 1, u)
                dim = len(dom.labels) - image_dims.get((n, u), 0)
                if not dim:
                    continue
                syzygy_dims[n, u] = dim
                counted = _leading_columns(alg, dom, counted_from, n, u, dim)
                if len(counted) == dim:
                    continue
                # span of the multiples of generators chosen so far; what is
                # left over in this slice needs new generators.  Multiples of
                # syzygies are syzygies, so a span of the syzygy dimension
                # is the whole syzygy slice.
                span = IncrementalEchelon()
                multiples = (
                    dom.times(g.terms, lam)[0]
                    for g in found
                    for lam in alg.basis(g.vertex, u, n - g.degree)
                )
                for row in multiples:
                    if span.rank == dim:
                        break
                    span.add(row)
                if span.rank < dim:
                    cod = _Slice(alg, pp_vertices, n - step + 2, u)
                    syzygies = column_kernel(
                        [cod.times(map_gens[t].terms, lam) for t, lam in dom.labels]
                    )
                    for vec in syzygies:
                        if span.rank < dim and span.add(vec):
                            found.append(StepGenerator(u, n, dom.element(vec)))
                counted_from.extend(
                    StepGenerator(u, n, dom.element(row))
                    for c, row in span.pivots.items()
                    if c not in counted
                )
        if not found:
            exhausted = True
            break
        steps.append(tuple((g.vertex, g.degree) for g in found))
        bad = next((g for g in found if g.degree != step), None)
        if bad is not None:
            status = "violation"
            violation = (step, bad.degree)
            break
        image_dims = syzygy_dims
        pp_vertices = p_vertices
        map_gens = found
        p_vertices = [g.vertex for g in found]

    return VertexResolution(
        vertex=vertex_index,
        steps=tuple(steps),
        status=status,
        violation=violation,
        exhausted=exhausted,
    )


# ---------------------------------------------------------------------------
# package-level diagnostics


class KoszulReport(NamedTuple):
    depth: int
    degree_bound: int
    resolutions: tuple[VertexResolution, ...]
    status: str
    first_violation: tuple[int, int, int] | None

    @property
    def all_exhausted(self) -> bool:
        return all(r.exhausted for r in self.resolutions)


def default_depth(rep: SymplecticRep) -> int:
    """The resolution depth 2(e - s), the variety's dimension, between 2 and 4."""
    e, s = rep.num_pairs, rep.torus_rank
    return min(max(2 * e - 2 * s, 2), 4)


def koszul_check(alg: GradedQuiverAlgebra, depth: int) -> KoszulReport:
    """Resolve every vertex simple and aggregate the linearity verdicts."""
    resolutions = tuple(
        minimal_resolution(alg, v, depth) for v in range(alg.num_vertices)
    )
    violating = next((r for r in resolutions if r.status == "violation"), None)
    first_violation = None
    if violating is not None:
        status = "violation"
        first_violation = (violating.vertex, *violating.violation)
    elif any(r.status == "truncation_limited" for r in resolutions):
        status = "truncation_limited"
    else:
        status = "linear"
    return KoszulReport(
        depth=depth,
        degree_bound=alg.degree_bound,
        resolutions=resolutions,
        status=status,
        first_violation=first_violation,
    )


def hilbert_inverse_coefficients(
    matrices: list[tuple[tuple[int, ...], ...]]
) -> list[list[list[int]]]:
    """Coefficients P_n of the formal inverse of sum_n H_n (-t)^n.

    The degree-0 block must be the identity; the recursion is
    P_n = sum_{k>=1} (-1)^(k+1) H_k P_{n-k}.
    """
    if not matrices:
        raise MalformedAlgebraError("no degree-0 block given")
    v = range(len(matrices[0]))
    coeffs = [[[int(i == j) for j in v] for i in v]]
    if [list(r) for r in matrices[0]] != coeffs[0]:
        raise MalformedAlgebraError("degree-0 block of the algebra is not the identity")
    for n in range(1, len(matrices)):
        # P_n is the block row (H_1, -H_2, H_3, ...) times the block
        # column (P_{n-1}, P_{n-2}, ..., P_0)
        block_row = [
            [(-1) ** (k + 1) * h for k in range(1, n + 1) for h in matrices[k][i]] for i in v
        ]
        columns = list(zip(*(row for k in range(1, n + 1) for row in coeffs[n - k])))
        coeffs.append([[sum(map(mul, row, col)) for col in columns] for row in block_row])
    return coeffs


class NumericalKoszulReport(NamedTuple):
    upto: int
    consistent: bool
    first_negative: tuple[int, int, int, int] | None


def numerical_koszul_consistency(matrices) -> NumericalKoszulReport:
    """Sign test on the inverse Hilbert series.

    For an algebra with linear resolutions the inverse of sum_n H_n (-t)^n
    has nonnegative coefficient matrices; a negative entry certifies that no
    such resolutions exist.  Nonnegativity alone proves nothing, so the
    result is only "consistent".
    """
    coeffs = hilbert_inverse_coefficients(list(matrices))
    first_negative = next(
        (
            (n, i, j, val)
            for n, mat in enumerate(coeffs)
            for i, row in enumerate(mat)
            for j, val in enumerate(row)
            if val < 0
        ),
        None,
    )
    return NumericalKoszulReport(
        upto=len(coeffs) - 1,
        consistent=first_negative is None,
        first_negative=first_negative,
    )
