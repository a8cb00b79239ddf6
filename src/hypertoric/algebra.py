"""Bigraded slices of the coordinate ring and the truncated window algebra.

The polynomial ring on a symplectic representation carries two gradings:
total degree, and torus weight (x_i carries beta_i, y_i carries -beta_i).
All computations happen in one (degree, weight) slice at a time, where the
moment-map quadrics impose finitely many linear relations on monomials.  An
algebra is assembled from the slices whose weights are differences of window
characters, with one vertex per window point.

Inside a ring a monomial is one integer (Bachmann-Schoenemann, "Monomial
representations for Groebner bases computations").  Each of the 2e
exponents of x^a y^b gets a field of W = P.bit_length() bits, P the ring's
degree bound: a_1 in the most significant field, then the rest of a, then
b.  Integer order is lex order, and a product within the bound is one
addition: no exponent of a monomial of degree <= P reaches 2^W, so no field
carries.  The exponent tables, the slice joins, the relation rows and
QuotientPiece.monomials all hold packed integers.  Exponent tuples appear
only at a piece's boundary (representatives, and the monomials that
position and reduce take), decoded on first read through a table that a
ring shares with its ambient() (_Packing).

A slice lists only its own monomials.  A monomial x^a y^b has degree
|a| + |b| and weight beta.a - beta.b, so the degree-n, weight-w slice is the
join, over d <= n, of the exponent vectors a of degree d and weight u with
the exponent vectors b of degree n - d and weight u - w.  The ring keeps one
table per degree d of the packed vectors in N^e, grouped by weight and in
lex order inside each group, and builds a table only when a slice reaches
its degree.  Each weight is packed into one integer too, sum_j u_j B^j: a
ring holds slices up to its degree bound P, and the base
B = 2 P max|beta_ij| + 1 keeps every key and every difference u - w that a
join looks up apart, once weights beyond reach are answered empty.  C[x,y]
is also free over C[z], z_i = x_i y_i (Hausel-Sturmfels); a closed form for
the quotient slices would rest on it.

Everything here is integer arithmetic.  A slice's relations are the
quadric multiples that land in it (_relation_rows).  Building a slice
eliminates them to echelon form, keeps only the pivot columns and drops
the rows: the Hilbert blocks and the regular-sequence scan only count
a slice, and its dimension is its monomials less its rank.  The
representatives, the non-pivot monomials, are listed on their first read
(the quiver, the minimal resolutions, reduce).  The first
QuotientPiece.reduce that needs a relation forms the relations again and
fully reduces them once; from then on reduce writes any monomial of the
slice as an integer row over the representatives and a denominator.  The
quiver relations are the kernel of those products (lattice.column_kernel),
the same product and kernel that the minimal resolutions use.
"""

from __future__ import annotations

from math import comb
from operator import add, itemgetter
from typing import NamedTuple

from .errors import (
    DimensionError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from .lattice import (
    IntVec,
    SparseRow,
    column_kernel,
    sparse_echelon,
    sparse_rref,
    vec_sub,
)
from .reps import MomentQuadric, SymplecticRep, moment_quadrics, signed_sum
from .zonotope import CharacterWindow

Monomial = tuple[int, ...]


class _Packing:
    """Exponent vectors packed into fields of width bits, and their tuples.

    An e-field vector v_1..v_e packs to sum_k v_k 2^(width (e - k)); a
    monomial x^a y^b packs to (a << width e) + b.  pairs[i] is the packed
    x_i y_i.  The decode table is views, which maps each packed slice whose
    monomials were read as tuples to its exponent tuples, and halves, which
    maps the packed x- and y-parts met there to theirs.  A ring and its
    ambient() share it, so their pieces share the tuples.
    """

    __slots__ = ("width", "fields", "pairs", "views", "halves")

    def __init__(self, width: int, fields: int):
        self.width = width
        self.fields = fields
        self.pairs = [(1 << width * (2 * fields - 1 - i)) + (1 << width * (fields - 1 - i))
                      for i in range(fields)]
        self.views: dict[tuple[int, ...], tuple[Monomial, ...]] = {}
        self.halves: dict[int, Monomial] = {}

    def pack(self, mono: Monomial) -> int:
        packed, width = 0, self.width
        for v in mono:
            packed = (packed << width) + v
        return packed

    def _half(self, v: int) -> Monomial:
        width, mask = self.width, (1 << self.width) - 1
        vec = self.halves[v] = tuple([v >> width * k & mask for k in range(self.fields - 1, -1, -1)])
        return vec

    def view(self, packed: tuple[int, ...]) -> tuple[Monomial, ...]:
        """A packed slice as exponent tuples, decoded on its first read."""
        view = self.views.get(packed)
        if view is None:
            shift = self.width * self.fields
            low, get, half = (1 << shift) - 1, self.halves.get, self._half
            view = self.views[packed] = tuple([
                (get(m >> shift) or half(m >> shift)) + (get(m & low) or half(m & low))
                for m in packed
            ])
        return view


def _relation_rows(
    quadrics: tuple[MomentQuadric, ...],
    pairs: list[int],
    bases: tuple[int, ...],
    monomials: tuple[int, ...],
):
    """Each quadric times each base monomial, as a sparse row over monomials.

    A quadric has weight zero, so its multiples in a degree-n slice come
    from the degree n-2 monomials of the same weight.  All monomials are
    packed: the column of x_i y_i * base is that of base + pairs[i].
    """
    if not bases:
        return
    index = dict(zip(monomials, range(len(monomials))))
    # each quadric's nonzero (pair, coefficient) terms; distinct pairs give
    # distinct monomials, so a row has one entry per term
    terms = []
    for q in quadrics:
        at = [i for i, c in enumerate(q.coefficients) if c]
        if at:
            terms.append((at, [q.coefficients[i] for i in at]))
    for base in bases:
        cols = [index[base + xy] for xy in pairs]
        column = cols.__getitem__
        for at, coeffs in terms:
            yield dict(zip(map(column, at), coeffs))


class QuotientPiece:
    """One (degree, weight) slice of the ring modulo the quadric relations.

    monomials is the full ambient basis, packed, in ascending (lex) order.
    Building the slice keeps only the pivot columns of its relations, which
    is all that dim and relation_rank read.  representatives, the non-pivot
    monomials in lex order as exponent tuples, descend to a basis of the
    quotient slice; they and the index that position() looks them up in
    are formed together on the first read of either, from the decode
    table, and then the positions tell the pivot columns apart.  _quadrics
    and _bases (the packed degree n-2 monomials of the same weight)
    regenerate the relations.  _relations stays None until a reduce first
    needs a relation; then it maps every packed pivot monomial to its fully
    reduced relation, as (row over representative positions, denominator).
    Pieces compare by identity: a ring builds each slice once.
    """

    __slots__ = (
        "degree", "weight", "monomials", "relation_rank", "_pivots",
        "_representatives", "_positions", "_quadrics", "_bases", "_packing", "_relations",
    )

    def __init__(
        self,
        degree: int,
        weight: IntVec,
        monomials: tuple[int, ...],
        pivots: tuple[int, ...],
        quadrics: tuple[MomentQuadric, ...],
        bases: tuple[int, ...],
        packing: _Packing,
    ):
        self.degree = degree
        self.weight = weight
        self.monomials = monomials
        self.relation_rank = len(pivots)
        self._pivots = pivots
        self._positions: dict[Monomial, int] | None = None
        self._quadrics = quadrics
        self._bases = bases
        self._packing = packing
        self._relations: dict[int, tuple[SparseRow, int]] | None = None

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials)

    @property
    def dim(self) -> int:
        return len(self.monomials) - self.relation_rank

    @property
    def representatives(self) -> tuple[Monomial, ...]:
        if self._positions is None:
            self._index()
        return self._representatives

    def _index(self) -> dict[Monomial, int]:
        """Form the representatives and their positions; drop the pivot columns."""
        reps = self._packing.view(self.monomials)
        if self._pivots:
            pivots = set(self._pivots)
            reps = tuple([m for c, m in enumerate(reps) if c not in pivots])
        self._pivots = None
        self._representatives = reps
        positions = self._positions = dict(zip(reps, range(len(reps))))
        return positions

    def position(self, mono: Monomial) -> int | None:
        """The index of mono among the representatives; None if it is none."""
        positions = self._positions
        if positions is None:
            positions = self._index()
        return positions.get(mono)

    def reduce(self, mono: Monomial) -> tuple[SparseRow, int]:
        """A monomial of this slice as (row, denominator) over the representatives.

        The monomial equals the sum of row[p] * representatives[p], divided
        by the denominator.  A pivot monomial's row is supported on
        representatives that come after it in lex order.  Relation rows
        are shared: do not modify them.
        """
        pos = self.position(mono)
        if pos is not None:
            return {pos: 1}, 1
        rels, packing = self._relations, self._packing
        if rels is None:
            rels = self._relations = {}
            mons, positions = self.monomials, self._positions
            view = packing.view(mons)
            rows = _relation_rows(self._quadrics, packing.pairs, self._bases, mons)
            for c, row in sparse_rref(rows).items():
                denominator = row.pop(c)
                rels[mons[c]] = ({positions[view[k]]: -v for k, v in row.items()}, denominator)
        return rels[packing.pack(mono)]


class SliceRing:
    """Slice-by-slice model of the polynomial ring modulo quadric relations.

    Monomials are packed integers (see the module docstring); _packed(n, w)
    lists a slice's, and monomials(n, w) is its exponent-tuple view.  Only
    homogeneous quadrics (shift zero) define a graded quotient; a nonzero
    shift raises UnsupportedShiftError.  A slice beyond max_degree raises
    ResourceBudgetError.
    """

    def __init__(
        self,
        rep: SymplecticRep,
        quadrics: tuple[MomentQuadric, ...] = (),
        *,
        max_degree: int,
    ):
        for q in quadrics:
            if q.shift != 0:
                raise UnsupportedShiftError(
                    "graded slices need homogeneous quadrics; "
                    f"quadric {q.index} has shift {q.shift}"
                )
            if len(q.coefficients) != rep.num_pairs:
                raise DimensionError(
                    f"quadric {q.index} has {len(q.coefficients)} coefficients "
                    f"for {rep.num_pairs} coordinate pairs"
                )
        self.rep = rep
        self.quadrics = tuple(quadrics)
        self.max_degree = max_degree
        self._reach = max((abs(v) for beta in rep.half_weights for v in beta), default=0)
        self._base = 2 * max_degree * self._reach + 1
        self._steps = [self._key(beta) for beta in rep.half_weights]
        self._packing = _Packing(max_degree.bit_length(), rep.num_pairs)
        self._tables: dict[int, dict[int, list[int]]] = {}
        self._monomials: dict[tuple[int, IntVec], tuple[int, ...]] = {}
        self._pieces: dict[tuple[int, IntVec], QuotientPiece] = {}

    # -- monomial bookkeeping ------------------------------------------------

    def _key(self, w: IntVec) -> int:
        return sum(v * self._base**j for j, v in enumerate(w))

    def _table(self, d: int) -> dict[int, list[int]]:
        """Every packed v in N^e with |v|_1 = d by packed weight, lex order in each group."""
        table = self._tables.get(d)
        if table is None:
            table = self._tables[d] = {}
            steps, last, width = self._steps, len(self._steps) - 1, self._packing.width
            # depth first over (packed head, its length, packed weight, degree left)
            stack = [(0, 0, 0, d)]
            while stack:
                head, i, key, left = stack.pop()
                if i > last:
                    if not left:  # left over only when there are no pairs
                        table.setdefault(key, []).append(head)
                    continue
                # the last coordinate takes what is left; pushed from high to
                # low, so popped in lex order
                for v in range(left, -1, -1) if i < last else (left,):
                    stack.append(((head << width) + v, i + 1, key + v * steps[i], left - v))
        return table

    def _packed(self, n: int, w: IntVec) -> tuple[int, ...]:
        """The packed degree-n, weight-w monomials in ascending (lex) order."""
        if n > self.max_degree:
            raise ResourceBudgetError(
                f"slice degree {n} exceeds the configured bound {self.max_degree}"
            )
        w = tuple(w)
        cached = self._monomials.get((n, w))
        if cached is None:
            cached = self._monomials[(n, w)] = self._enumerate(n, w)
        return cached

    def monomials(self, n: int, w: IntVec) -> tuple[Monomial, ...]:
        """The degree-n, weight-w monomials in lex order, as exponent tuples."""
        return self._packing.view(self._packed(n, w))

    def _enumerate(self, n: int, w: IntVec) -> tuple[int, ...]:
        """x^a y^b for a of degree d and weight u, b of degree n - d and weight u - w.

        Each degree d joins T(d) and T(n - d) from whichever has fewer
        weight groups.  An x-part a fixes its degree and weight, so the
        heads (a, bs) have distinct a; sorted by a, they give the slice in
        ascending order as (a << W e) + b for b in their ascending y-list bs.
        """
        # answered before packing: the key of an unreachable weight may alias
        if any(abs(c) > n * self._reach for c in w):
            return ()
        key = self._key(w)
        shift = self._packing.width * len(self._steps)
        heads = []
        for d in range(n + 1):
            xt, yt = self._table(d), self._table(n - d)
            if len(xt) <= len(yt):
                for u, xs in xt.items():
                    bs = yt.get(u - key)
                    if bs:
                        heads.extend([(a << shift, bs) for a in xs])
            else:
                for v, bs in yt.items():
                    xs = xt.get(v + key)
                    if xs:
                        heads.extend([(a << shift, bs) for a in xs])
        heads.sort(key=itemgetter(0))
        return tuple([a + b for a, bs in heads for b in bs])

    def ambient_dim(self, n: int, w: IntVec) -> int:
        return len(self._packed(n, w))

    # -- quotient slices -----------------------------------------------------

    def piece(self, n: int, w: IntVec) -> QuotientPiece:
        w = tuple(w)
        key = (n, w)
        cached = self._pieces.get(key)
        if cached is not None:
            return cached
        mons = self._packed(n, w)
        bases = self._packed(n - 2, w) if self.quadrics and n >= 2 else ()
        pivots = sparse_echelon(_relation_rows(self.quadrics, self._packing.pairs, bases, mons))
        piece = QuotientPiece(
            degree=n,
            weight=w,
            monomials=mons,
            pivots=tuple(pivots),
            quadrics=self.quadrics,
            bases=bases,
            packing=self._packing,
        )
        self._pieces[key] = piece
        return piece

    def dim(self, n: int, w: IntVec) -> int:
        return self.piece(n, w).dim

    def ambient(self) -> SliceRing:
        """The ring without relations, on this ring's tables, monomials and decode table."""
        ring = SliceRing(self.rep, max_degree=self.max_degree)
        ring._packing = self._packing
        ring._tables = self._tables
        ring._monomials = self._monomials
        return ring


def hom_dimension(rep: SymplecticRep, n: int, w: IntVec) -> int:
    """Monomials of total degree n and torus weight w in the full ring.

    The benchmark's oracle check (bench/checks.py) is its caller."""
    return SliceRing(rep, max_degree=n).ambient_dim(n, tuple(w))


# ---------------------------------------------------------------------------
# regular-sequence verification


class RegSeqFailure(NamedTuple):
    degree: int
    weight: IntVec
    got: int
    expected: int


class RegSeqReport(NamedTuple):
    passed: bool
    upto: int
    num_quadrics: int
    weights: tuple[IntVec, ...]
    first_failure: RegSeqFailure | None


def verify_regular_sequence(alg: GradedQuiverAlgebra) -> RegSeqReport:
    """Compare the algebra's slice dimensions against the regular-sequence target.

    If the quadrics form a regular sequence, each weight-w Hilbert series of
    the quotient equals the ambient one times (1 - t^2)^q.  The scan covers
    every block weight up to the degree bound and reads both counts from the
    algebra's ring.  It runs degree-outer so the reported failure is at the
    first impossible degree.
    """
    ring = alg.ring
    q = len(ring.quadrics)
    weights = sorted({vec_sub(b, a) for a in alg.vertices for b in alg.vertices})
    failure = None
    for n in range(alg.degree_bound + 1):
        for w in weights:
            expected = sum(
                (-1) ** k * comb(q, k) * ring.ambient_dim(n - 2 * k, w)
                for k in range(min(q, n // 2) + 1)
            )
            got = ring.dim(n, w)
            if got != expected:
                failure = RegSeqFailure(degree=n, weight=w, got=got, expected=expected)
                break
        if failure is not None:
            break
    return RegSeqReport(
        passed=failure is None,
        upto=alg.degree_bound,
        num_quadrics=q,
        weights=tuple(weights),
        first_failure=failure,
    )


# ---------------------------------------------------------------------------
# the truncated window algebra


class GradedQuiverAlgebra:
    """Finite-window endomorphism algebra, one vertex per window character.

    The block from vertex i to vertex j in degree n is the quotient slice of
    degree n and weight points[j] - points[i]; composition is multiplication
    of monomial representatives followed by reduction.
    """

    def __init__(
        self,
        rep: SymplecticRep,
        window: CharacterWindow,
        degree_bound: int,
        quadrics: tuple[MomentQuadric, ...] | None = None,
    ):
        if degree_bound < 2:
            raise ResourceBudgetError("degree bound must be at least 2")
        if quadrics is None:
            quadrics = moment_quadrics(rep)
        self.rep = rep
        self.window = window
        self.degree_bound = degree_bound
        self.ring = SliceRing(rep, quadrics, max_degree=degree_bound)
        pts = window.points
        self._weights = [[vec_sub(b, a) for b in pts] for a in pts]

    @property
    def quadrics(self) -> tuple[MomentQuadric, ...]:
        return self.ring.quadrics

    def ambient(self) -> GradedQuiverAlgebra:
        """The same window algebra without relations, sharing the monomials."""
        amb = GradedQuiverAlgebra(self.rep, self.window, self.degree_bound, ())
        amb.ring = self.ring.ambient()
        return amb

    @property
    def vertices(self) -> tuple[IntVec, ...]:
        return self.window.points

    @property
    def num_vertices(self) -> int:
        return len(self.window.points)

    def piece(self, i: int, j: int, n: int) -> QuotientPiece:
        return self.ring.piece(n, self._weights[i][j])

    def basis(self, i: int, j: int, n: int) -> tuple[Monomial, ...]:
        return self.piece(i, j, n).representatives

    def dim(self, i: int, j: int, n: int) -> int:
        return self.piece(i, j, n).dim

    def hilbert_matrix(self, n: int) -> tuple[tuple[int, ...], ...]:
        v = self.num_vertices
        return tuple(
            tuple(self.dim(i, j, n) for j in range(v)) for i in range(v)
        )

    def hilbert_matrices(self) -> list[tuple[tuple[int, ...], ...]]:
        return [self.hilbert_matrix(n) for n in range(self.degree_bound + 1)]


# ---------------------------------------------------------------------------
# quiver presentation by arrows and quadratic relations


def _variable_label(rep: SymplecticRep, mono: Monomial) -> str:
    e = rep.num_pairs
    pos = next(i for i, v in enumerate(mono) if v)
    return f"x{pos + 1}" if pos < e else f"y{pos - e + 1}"


class Arrow(NamedTuple):
    source: int
    target: int
    label: str
    monomial: Monomial


class Relation(NamedTuple):
    """Integer combination of length-2 paths that vanishes in the algebra.

    Each term is (coefficient, (first arrow index, second arrow index)),
    the path reading left to right.
    """

    source: int
    target: int
    terms: tuple[tuple[int, tuple[int, int]], ...]

    def as_string(self, arrows: tuple[Arrow, ...]) -> str:
        return signed_sum(
            (coeff, f"{arrows[a].label}*{arrows[b].label}")
            for coeff, (a, b) in self.terms
        )


class QuiverPresentation(NamedTuple):
    vertices: tuple[IntVec, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]


def quiver_presentation(alg: GradedQuiverAlgebra) -> QuiverPresentation:
    """Arrows from the degree-1 blocks, relations from the degree-2 kernel."""
    v = alg.num_vertices
    arrows: list[Arrow] = []
    for i in range(v):
        for j in range(v):
            for mono in alg.basis(i, j, 1):
                arrows.append(Arrow(i, j, _variable_label(alg.rep, mono), mono))
    outgoing: dict[int, list[int]] = {i: [] for i in range(v)}
    for idx, a in enumerate(arrows):
        outgoing[a.source].append(idx)
    relations: list[Relation] = []
    for i in range(v):
        for k in range(v):
            paths = [
                (a, b)
                for a in outgoing[i]
                for b in outgoing[arrows[a].target]
                if arrows[b].target == k
            ]
            if not paths:
                continue
            piece = alg.piece(i, k, 2)
            columns = [
                piece.reduce(tuple(map(add, arrows[a].monomial, arrows[b].monomial)))
                for a, b in paths
            ]
            # kernel vectors are primitive; only the sign is normalised
            for vec in column_kernel(columns):
                sign = -1 if vec[min(vec)] < 0 else 1
                terms = tuple((sign * vec[c], paths[c]) for c in sorted(vec))
                relations.append(Relation(i, k, terms))
    return QuiverPresentation(
        vertices=alg.vertices,
        arrows=tuple(arrows),
        relations=tuple(relations),
    )

