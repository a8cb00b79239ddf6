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
carries.  The exponent tables, the slice joins, the relation rows and a
piece's pivots all hold packed integers.  Exponent tuples appear only at a
piece's boundary (representatives, and the monomials that position and
reduce take), decoded on first read through a table in the ring's store
(_MonomialStore), which a ring shares with its ambient().

A slice lists only its own monomials.  A monomial x^a y^b has degree
|a| + |b| and weight beta.a - beta.b, so the degree-n, weight-w slice is the
join, over d <= n, of the exponent vectors a of degree d and weight u with
the exponent vectors b of degree n - d and weight u - w.  The store keeps
one table per degree d of the packed vectors in N^e, grouped by weight and
in lex order inside each group, and builds a table only when a slice
reaches its degree.  Each weight is packed into one integer too,
sum_j u_j B^j: a ring holds slices up to its degree bound P, and the base
B = 2 P max|beta_ij| + 1 keeps every key and every difference u - w that a
join looks up apart, once weights beyond reach are answered empty.  A
slice is counted without listing it: its size is a coefficient of the
ring's Hilbert series prod_i 1/((1 - t z^beta_i)(1 - t z^-beta_i)), which
the store expands once, on the same keys.

Everything here is integer arithmetic.  In z_i = x_i y_i the moment
quadrics are linear forms (Hausel-Sturmfels), and a ring brings them to
reduced echelon form once (_substitutions), with the pivots on the last
pairs.  Their leading monomials x_p y_p are pairwise coprime, so they are
a Groebner basis (Buchberger's first criterion): for any number of
quadrics, a slice's pivots are its monomials b + x_p y_p, b a base, a
degree n-2 monomial of the slice's weight, and p a pivot pair.  So the
quadrics are a regular sequence exactly when the echelon keeps all of
them, which is what verify_regular_sequence tests.  A piece is built with
two counts, its monomials and its rank, and the Hilbert blocks read no
more: its dimension is the one less the other.  With at most one quadric
piece() counts both and lists nothing: C[x,y] is a domain, so the
multiples q*b are independent and the rank is the number of bases, or 0
for a zero quadric or none.  With two or more quadrics piece() lists the
slice and still eliminates its relations, the quadric multiples that land
in it (_relation_rows), but only for their rank (sparse_echelon).  A
piece's representatives, the slice's monomials less its pivots, are formed
in one step on their first read (the quiver, the minimal resolutions,
reduce), from the listed slice and the pivots b + x_p y_p.
QuotientPiece.reduce substitutes the ring's reduced quadrics for the pivot
factors z_p and so writes any monomial of the slice as an integer row over
the representatives and a denominator, with no relation rows and no
elimination.  The quiver relations are the kernel of those products
(lattice.column_kernel), the same product and kernel that the minimal
resolutions use.
"""

from __future__ import annotations

from math import gcd
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


class _MonomialStore:
    """A ring's monomials, packed, listed, counted and decoded, slice by slice.

    An e-field vector v_1..v_e packs to sum_k v_k 2^(width (e - k)); a
    monomial x^a y^b packs to (a << width e) + b.  pairs[i] is the packed
    x_i y_i, and key(w) packs a weight; it raises DimensionError for a
    weight whose length is not the torus rank, which every slice or count
    not yet cached passes through.  tables holds the exponent tables
    by degree, slices each listed slice, series the counts of every slice
    up to max_degree once one is asked for, and keys the packed key of each
    weight counted.  The decode table is views, which maps each packed
    slice whose monomials were read as tuples to its exponent tuples, and
    halves, which maps the packed x- and y-parts met there to theirs.  A
    ring, its ambient() and the pieces of both hold one store; it holds no
    ring and no piece, so a piece that lists its slice later makes no
    reference cycle.
    """

    __slots__ = (
        "max_degree", "rank", "width", "fields", "pairs", "reach", "base", "steps",
        "tables", "slices", "series", "keys", "views", "halves",
    )

    def __init__(self, rep: SymplecticRep, max_degree: int):
        e = rep.num_pairs
        self.max_degree = max_degree
        self.rank = rep.torus_rank
        self.width = width = max_degree.bit_length()
        self.fields = e
        self.pairs = [(1 << width * (2 * e - 1 - i)) + (1 << width * (e - 1 - i)) for i in range(e)]
        self.reach = max((abs(v) for beta in rep.half_weights for v in beta), default=0)
        self.base = 2 * max_degree * self.reach + 1
        self.steps = [self.key(beta) for beta in rep.half_weights]
        self.tables: dict[int, dict[int, list[int]]] = {}
        self.slices: dict[tuple[int, IntVec], tuple[int, ...]] = {}
        self.series: list[dict[int, int]] | None = None
        self.keys: dict[IntVec, int | None] = {}
        self.views: dict[tuple[int, ...], tuple[Monomial, ...]] = {}
        self.halves: dict[int, Monomial] = {}

    def key(self, w: IntVec) -> int:
        """A weight packed to one integer; a weight of another length would alias."""
        if len(w) != self.rank:
            raise DimensionError(f"weight {tuple(w)} of length {len(w)} for torus rank {self.rank}")
        return sum(v * self.base**j for j, v in enumerate(w))

    def _bound(self, n: int) -> None:
        if n > self.max_degree:
            raise ResourceBudgetError(
                f"slice degree {n} exceeds the configured bound {self.max_degree}"
            )

    def table(self, d: int) -> dict[int, list[int]]:
        """Every packed v in N^e with |v|_1 = d by packed weight, lex order in each group."""
        table = self.tables.get(d)
        if table is None:
            table = self.tables[d] = {}
            steps, last, width = self.steps, len(self.steps) - 1, self.width
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

    def packed(self, n: int, w: IntVec) -> tuple[int, ...]:
        """The packed degree-n, weight-w monomials in ascending (lex) order."""
        self._bound(n)
        w = tuple(w)
        cached = self.slices.get((n, w))
        if cached is None:
            cached = self.slices[(n, w)] = self._enumerate(n, w)
        return cached

    def _enumerate(self, n: int, w: IntVec) -> tuple[int, ...]:
        """x^a y^b for a of degree d and weight u, b of degree n - d and weight u - w.

        Each degree d joins T(d) and T(n - d) from whichever has fewer
        weight groups.  An x-part a fixes its degree and weight, so the
        heads (a, bs) have distinct a; sorted by a, they give the slice in
        ascending order as (a << W e) + b for b in their ascending y-list bs.
        """
        key = self.key(w)
        # an unreachable weight is answered empty: its key may alias
        if any(abs(c) > n * self.reach for c in w):
            return ()
        shift = self.width * self.fields
        heads = []
        for d in range(n + 1):
            xt, yt = self.table(d), self.table(n - d)
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

    def count(self, n: int, w: IntVec) -> int:
        """The number of degree-n, weight-w monomials, listing none.

        It is the coefficient of t^n z^w in the Hilbert series
        prod_i 1/((1 - t z^beta_i)(1 - t z^-beta_i)), expanded once up to
        t^max_degree on the packed weight keys: each factor 1/(1 - t z^s)
        adds z^s A[d - 1] to A[d], for d ascending.  Each weight's key is
        packed once, and is None beyond max_degree * reach, where a key may
        alias.  Within it the balanced base keeps keys apart, and series[n]
        holds only weights that degree n reaches, so one lookup answers.
        """
        try:
            key = self.keys[w]
        except KeyError:
            limit, key = self.max_degree * self.reach, self.key(w)
            key = self.keys[w] = None if any(abs(c) > limit for c in w) else key
        if not 0 <= n <= self.max_degree:
            self._bound(n)
            return 0
        series = self.series
        if series is None:
            top = self.max_degree
            series = self.series = [{0: 1}] + [{} for _ in range(top)]
            for step in self.steps:
                for s in (step, -step):
                    for d in range(1, top + 1):
                        row = series[d]
                        get = row.get
                        for k, c in series[d - 1].items():
                            k += s
                            row[k] = get(k, 0) + c
        return series[n].get(key, 0)

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

    ambient_dim counts the slice's monomials and relation_rank its pivots,
    which is all that dim reads; a piece is built with these counts and
    lists nothing more.  representatives, the non-pivot monomials in lex
    order as exponent tuples, descend to a basis of the quotient slice.
    They and the index that position() looks them up in are formed in one
    step on the first read of representatives, position or reduce: the
    store lists the slice, packed, and it is decoded through the store's
    view less its pivots.  These are b + x_p y_p over the degree n-2
    monomials b of the weight and the pivot pairs p of _substitutions, the
    ring's reduced quadrics, whatever their number; they are not kept, and
    the positions tell them apart.  The piece keeps no relations:
    _substitutions is all that reduce reads.  Pieces compare by identity:
    a ring builds each slice once.
    """

    __slots__ = (
        "degree", "weight", "ambient_dim", "relation_rank",
        "_representatives", "_positions", "_substitutions", "_store",
    )

    def __init__(
        self,
        degree: int,
        weight: IntVec,
        ambient_dim: int,
        relation_rank: int,
        store: _MonomialStore,
        substitutions: tuple[tuple[int, int, tuple[tuple[Monomial, int], ...]], ...],
    ):
        self.degree = degree
        self.weight = weight
        self.ambient_dim = ambient_dim
        self.relation_rank = relation_rank
        self._positions: dict[Monomial, int] | None = None
        self._substitutions = substitutions
        self._store = store

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.relation_rank

    @property
    def representatives(self) -> tuple[Monomial, ...]:
        if self._positions is None:
            self._index()
        return self._representatives

    def _index(self) -> dict[Monomial, int]:
        """Form the representatives and their positions."""
        store, n, w = self._store, self.degree, self.weight
        mons = store.packed(n, w)
        bases = store.packed(n - 2, w) if self._substitutions and n >= 2 else ()
        pivots = {b + store.pairs[p] for p, _, _ in self._substitutions for b in bases}
        reps = store.view(mons)
        if pivots:
            reps = tuple([m for p, m in zip(mons, reps) if p not in pivots])
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
        by the denominator; the row is fresh, and primitive together with
        the denominator, which is positive.  A monomial that is no
        representative is written as a representative times
        prod z_p^k_p over the pivot pairs p, k_p = min(a_p, b_p), and each
        z_p is substituted by the ring's reduced quadric,
        -(sum_j c_j z_j) / lead over the free pairs j.  The normal form is
        unique, so these are the integers that a full sparse_rref of the
        slice's relations gives.  The free pairs come before p, so the row
        is supported on representatives that come after the monomial in
        lex order.
        """
        pos = self.position(mono)
        if pos is not None:
            return {pos: 1}, 1
        e = len(mono) // 2
        head, factors, denominator = list(mono), [], 1
        for p, lead, free in self._substitutions:
            k = min(mono[p], mono[e + p])
            if k:
                head[p] -= k
                head[e + p] -= k
                factors.extend([free] * k)
                denominator *= lead**k
        terms = {tuple(head): 1}
        for free in factors:
            product: dict[Monomial, int] = {}
            for m, v in terms.items():
                for z, c in free:
                    mz = tuple(map(add, m, z))
                    product[mz] = product.get(mz, 0) - c * v
            terms = product
        positions = self._positions
        row = {positions[m]: v for m, v in terms.items() if v}
        g = gcd(denominator, *row.values())
        return {p: v // g for p, v in row.items()}, denominator // g


class SliceRing:
    """Slice-by-slice model of the polynomial ring modulo quadric relations.

    Monomials are packed integers held by the ring's store (see the module
    docstring); monomials(n, w) is a slice's exponent-tuple view.  Only
    homogeneous quadrics (shift zero) define a graded quotient; a nonzero
    shift raises UnsupportedShiftError.  A slice beyond max_degree raises
    ResourceBudgetError, and a weight whose length is not the torus rank
    DimensionError.  ambient() passes its store, which no other
    caller does.
    """

    def __init__(
        self,
        rep: SymplecticRep,
        quadrics: tuple[MomentQuadric, ...] = (),
        *,
        max_degree: int,
        store: _MonomialStore | None = None,
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
        self._store = _MonomialStore(rep, max_degree) if store is None else store
        # the quadrics' coefficient rows in reduced echelon form, pair i in
        # column e-1-i so that the pivots land on the last pairs; for each
        # pivot pair p, lead z_p + sum_j c_j z_j = 0 over the free pairs j,
        # kept as (p, lead, ((z_j exponents, c_j), ...)) for reduce
        e = rep.num_pairs
        z = [tuple([int(k % e == i) for k in range(2 * e)]) for i in range(e)]
        echelon = sparse_rref(
            {e - 1 - i: c for i, c in enumerate(q.coefficients)} for q in self.quadrics
        )
        self._substitutions = tuple(
            (e - 1 - col, row[col], tuple((z[e - 1 - j], c) for j, c in row.items() if j != col))
            for col, row in sorted(echelon.items())
        )
        self._pieces: dict[tuple[int, IntVec], QuotientPiece] = {}

    def monomials(self, n: int, w: IntVec) -> tuple[Monomial, ...]:
        """The degree-n, weight-w monomials in lex order, as exponent tuples."""
        return self._store.view(self._store.packed(n, w))

    def ambient_dim(self, n: int, w: IntVec) -> int:
        return self._store.count(n, w)

    # -- quotient slices -----------------------------------------------------

    def piece(self, n: int, w: IntVec) -> QuotientPiece:
        """The degree-n, weight-w quotient slice, built once per ring.

        Its pivots follow one rule in every ring (QuotientPiece); the one
        branch here counts its rank.  With at most one quadric q nothing is
        listed: the rows q*b over the degree n-2 bases b are independent, so
        the rank is the number of bases, or 0 for a zero quadric or none.
        With two or more quadrics the slice and its bases are listed, and
        the rank is that of the relations' echelon form (sparse_echelon).
        """
        w = tuple(w)
        key = (n, w)
        cached = self._pieces.get(key)
        if cached is not None:
            return cached
        store, subs = self._store, self._substitutions
        if len(self.quadrics) <= 1:
            size, rank = store.count(n, w), len(subs) * store.count(n - 2, w)
        else:
            mons = store.packed(n, w)
            bases = store.packed(n - 2, w) if n >= 2 else ()
            size = len(mons)
            rank = len(sparse_echelon(_relation_rows(self.quadrics, store.pairs, bases, mons)))
        piece = self._pieces[key] = QuotientPiece(n, w, size, rank, store, subs)
        return piece

    def dim(self, n: int, w: IntVec) -> int:
        return self.piece(n, w).dim

    def ambient(self) -> SliceRing:
        """The ring without relations, on this ring's monomial store."""
        return SliceRing(self.rep, max_degree=self.max_degree, store=self._store)


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
    """Test the algebra's quadrics for a regular sequence by their rank.

    In z_i = x_i y_i the quadrics are linear forms, and the ring's reduced
    echelon of them has r rows with pairwise coprime leading monomials
    x_p y_p, a Groebner basis (Buchberger's first criterion).  So they are
    a regular sequence, and each weight-w Hilbert series of the quotient is
    the ambient one times (1 - t^2)^q, exactly when r = q; this reads no
    slice.  Otherwise the series first differ at degree 2 and weight 0,
    which is always a block weight: that slice's rank is r where the
    target subtracts q, so the report's failure is there and its got,
    read from the ring, exceeds the expected dimension by q - r.
    """
    ring = alg.ring
    q, r = len(ring.quadrics), len(ring._substitutions)
    weights = sorted({vec_sub(b, a) for a in alg.vertices for b in alg.vertices})
    failure = None
    if r < q:
        zero = (0,) * alg.rep.torus_rank
        got = ring.dim(2, zero)
        failure = RegSeqFailure(degree=2, weight=zero, got=got, expected=got + r - q)
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
        """The same window algebra without relations, on its ring's ambient()."""
        amb = object.__new__(GradedQuiverAlgebra)
        vars(amb).update(vars(self), ring=self.ring.ambient())
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

