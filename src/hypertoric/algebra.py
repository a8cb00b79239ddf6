"""Bigraded slices of the coordinate ring and the truncated window algebra.

The polynomial ring on a symplectic representation carries two gradings:
total degree, and torus weight (x_i carries beta_i, y_i carries -beta_i).
All computations happen in one (degree, weight) slice at a time, where the
moment-map quadrics impose finitely many linear relations on monomials.  An
algebra is assembled from the slices whose weights are differences of window
characters, with one vertex per window point.

Inside a ring a monomial is one integer (Bachmann-Schoenemann, "Monomial
representations for Groebner bases computations").  Each of the 2e
exponents of x^a y^b gets a field of W = max(P, 2).bit_length() bits, P
the ring's degree bound: a_1 in the most significant field, then the rest
of a, then b.  Integer order is lex order, and a product within the bound
is one addition: no exponent of a monomial of degree <= P reaches 2^W, so
no field carries.  W is at least 2, so the variables and the z_i = x_i y_i
decode in a ring of every degree bound.  The exponent tables, the slice
joins, the relation rows, a piece's pivots and the quiver's path products
all hold packed integers.
One store (_MonomialStore), which a ring shares with its ambient(), owns
the layout: it packs the variables (units) and the z_i = x_i y_i (pairs),
and its view is the one decode from packed integers to exponent tuples.
Those appear only at a piece's boundary (representatives, and the
monomials that position and reduce take), in the ring's z's and in the
quiver's arrows.

A slice lists only its own monomials.  A monomial x^a y^b has degree
|a| + |b| and weight beta.a - beta.b, so the degree-n, weight-w slice is the
join, over d <= n, of the exponent vectors a of degree d and weight u with
the exponent vectors b of degree n - d and weight u - w.  The store keeps
one table per degree d of the packed vectors in N^e, grouped by weight and
in lex order inside each group, and builds a table only when a slice
reaches its degree.  Each weight is packed into one integer too,
sum_j u_j B^j: a ring holds slices up to its degree bound P, and the base
B = 2 P max|beta_ij| + 1 keeps every key and every difference u - w that a
join looks up apart, once weights beyond reach are answered empty.  One
gate (_MonomialStore.key) packs the weight of every slice that is listed
or counted, and answers the weights beyond reach.  A slice is counted
without listing it: its size is a coefficient of the ring's Hilbert
series prod_i 1/((1 - t z^beta_i)(1 - t z^-beta_i)), which the store
expands once, on the same keys.

Everything here is integer arithmetic.  In z_i = x_i y_i the moment
quadrics are linear forms (Hausel-Sturmfels), and a ring brings them to
reduced echelon form once (_substitutions), with the pivots on the last
pairs.  Their leading monomials x_p y_p are pairwise coprime, so they are
a Groebner basis (Buchberger's first criterion): for any number of
quadrics, a slice's pivots are its monomials b + x_p y_p, b a base, a
degree n-2 monomial of the slice's weight, and p a pivot pair.  So the
quadrics are a regular sequence exactly when the echelon keeps all of
them, which is what verify_regular_sequence tests.  A piece is built with
two counts, its monomials and its rank, and its dimension is the one less
the other.  With at most one quadric both are counted and nothing is
listed: C[x,y] is a domain, so the multiples q*b are independent and the
rank is the number of bases, or 0 for a zero quadric or none.  So there
each block weight's dimensions are one series, amb(n, w) - r amb(n - 2, w),
which the Hilbert blocks read with no piece built.  With two or more
quadrics the blocks read each piece's dimension, and piece() lists the
slice and still eliminates its relations, the quadric multiples that land
in it (_relation_rows, on packed columns), but only for their rank
(sparse_echelon).  A piece's representatives, the slice's monomials less
its pivots, are formed in one step on their first read (the minimal
resolutions, reduce), from the listed slice and the pivots b + x_p y_p.
QuotientPiece.reduce substitutes the ring's reduced quadrics for the pivot
factors z_p and so writes any monomial of the slice as an integer row over
the representatives and a denominator, with no relation rows and no
elimination.  The quiver reads no slice and builds no piece.  Its arrows
are the variables, placed by their half-weights, and a product of two
arrows that is no z_j = x_j y_j is a representative of its own, so its
relations are binomials.  Only in a block where some product is a pivot
monomial x_p y_p, which has weight 0, do the products that are some z_j
take their kernel (lattice.column_kernel, which the minimal resolutions
use too), over the columns that reduce gives them: the reduced quadrics
read off _substitutions.
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
    vec_neg,
    vec_sub,
)
from .reps import MomentQuadric, SymplecticRep, moment_quadrics, signed_sum
from .zonotope import CharacterWindow

Monomial = tuple[int, ...]


class _MonomialStore:
    """A ring's monomials, packed, listed, counted and decoded, slice by slice.

    An e-field vector v_1..v_e packs to sum_k v_k 2^(width (e - k)); a
    monomial x^a y^b packs to (a << width e) + b.  units lists the packed
    variables x_1 .. x_e, y_1 .. y_e, and pairs[i] = units[i] + units[e + i]
    is the packed x_i y_i.  view decodes packed monomials in one pass, field
    by field from the most significant; it keeps nothing.  key(w, n) is the
    gate that every slice listed or counted passes through.  tables holds
    the exponent tables by degree, slices each listed slice, and series the
    counts of every slice up to max_degree once one is asked for.  A ring,
    its ambient() and the pieces of both hold one store; it holds no ring
    and no piece, so a piece that lists its slice later makes no reference
    cycle.
    """

    __slots__ = (
        "max_degree", "rank", "width", "fields", "units", "pairs", "reach", "base", "steps",
        "tables", "slices", "series",
    )

    def __init__(self, rep: SymplecticRep, max_degree: int):
        e = rep.num_pairs
        self.max_degree = max_degree
        self.rank = rep.torus_rank
        self.width = width = max(max_degree, 2).bit_length()
        self.fields = e
        self.units = units = [1 << width * k for k in range(2 * e - 1, -1, -1)]
        self.pairs = [units[i] + units[e + i] for i in range(e)]
        self.reach = max((abs(v) for beta in rep.half_weights for v in beta), default=0)
        self.base = 2 * max_degree * self.reach + 1
        self.steps = [self.key(beta, 1) for beta in rep.half_weights]
        self.tables: dict[int, dict[int, list[int]]] = {}
        self.slices: dict[tuple[int, IntVec], tuple[int, ...]] = {}
        self.series: list[dict[int, int]] | None = None

    def key(self, w: IntVec, n: int) -> int | None:
        """The packed key of weight w in degree n, or None if no monomial reaches it.

        A weight whose length is not the torus rank raises DimensionError,
        and one with a coordinate beyond n * reach is answered None: no
        degree-n monomial has it, and its key may alias.  Every other
        weight packs to sum_j w_j B^j.
        """
        if len(w) != self.rank:
            raise DimensionError(f"weight {tuple(w)} of length {len(w)} for torus rank {self.rank}")
        limit = n * self.reach
        if any(abs(c) > limit for c in w):
            return None
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
        key = self.key(w, n)
        if key is None:
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

    def expansion(self) -> list[dict[int, int]]:
        """The Hilbert series prod_i 1/((1 - t z^beta_i)(1 - t z^-beta_i)).

        Its coefficients by degree up to t^max_degree, each a map from the
        packed weight keys, expanded once: each factor 1/(1 - t z^s) adds
        z^s A[d - 1] to A[d], for d ascending.  Within reach the balanced
        base keeps keys apart, and series[n] holds only weights that degree
        n reaches, so one lookup of a gated key answers; the key None of a
        weight beyond reach is in no degree.
        """
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
        return series

    def count(self, n: int, w: IntVec) -> int:
        """The number of degree-n, weight-w monomials, listing none.

        It is the coefficient of t^n z^w in the expansion.  The key is read
        through the gate before the degree is checked, so a weight of the
        wrong length raises at any degree.
        """
        key = self.key(w, n)
        if not 0 <= n <= self.max_degree:
            self._bound(n)
            return 0
        return self.expansion()[n].get(key, 0)

    def view(self, packed: tuple[int, ...]) -> tuple[Monomial, ...]:
        """Packed monomials as exponent tuples, each field read from the most significant."""
        mask = (1 << self.width) - 1
        shifts = [self.width * k for k in range(2 * self.fields - 1, -1, -1)]
        return tuple([tuple([m >> s & mask for s in shifts]) for m in packed])


def _relation_rows(quadrics: tuple[MomentQuadric, ...], pairs: list[int], bases: tuple[int, ...]):
    """Each quadric times each base monomial, as a sparse row over packed monomials.

    A quadric has weight zero, so its multiples in a degree-n slice come
    from the degree n-2 monomials of the same weight.  The column of
    x_i y_i * base is the packed monomial base + pairs[i]; packed order is
    lex order, and a rank does not depend on how the columns are labelled.
    """
    # each quadric's nonzero (packed x_i y_i, coefficient) terms; distinct
    # pairs give distinct monomials, so a row has one entry per term, and a
    # zero quadric's empty rows add nothing to the echelon
    terms = [[(xy, c) for xy, c in zip(pairs, q.coefficients) if c] for q in quadrics]
    for base in bases:
        for term in terms:
            yield {base + xy: c for xy, c in term}


class QuotientPiece:
    """One (degree, weight) slice of the ring modulo the quadric relations.

    ambient_dim counts the slice's monomials and relation_rank its pivots,
    which is all that dim reads; a piece is built with these counts and
    lists nothing more.  representatives, the non-pivot monomials in lex
    order as exponent tuples, descend to a basis of the quotient slice.
    They and the index that position() looks them up in are formed in one
    step on the first read of representatives, position or reduce: the
    store lists the slice, packed, its pivots are dropped, and the store's
    view decodes the rest.  The pivots are b + x_p y_p over the degree n-2
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
        if pivots:
            mons = tuple([m for m in mons if m not in pivots])
        reps = self._representatives = store.view(mons)
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
        # kept as (p, lead, ((z_j exponents, c_j), ...)) for reduce and the
        # quiver, the z's decoded from the store's pairs
        e, store = rep.num_pairs, self._store
        z = store.view(tuple(store.pairs))
        echelon = sparse_rref(
            {e - 1 - i: c for i, c in enumerate(q.coefficients)} for q in self.quadrics
        )
        self._substitutions = tuple(
            (e - 1 - col, row[col], tuple((z[e - 1 - j], c) for j, c in row.items() if j != col))
            for col, row in sorted(echelon.items())
        )
        self._pieces: dict[tuple[int, IntVec], QuotientPiece] = {}
        self._counted: dict[IntVec, list[tuple[int, int]]] = {}

    def monomials(self, n: int, w: IntVec) -> tuple[Monomial, ...]:
        """The degree-n, weight-w monomials in lex order, as exponent tuples."""
        return self._store.view(self._store.packed(n, w))

    def ambient_dim(self, n: int, w: IntVec) -> int:
        return self._store.count(n, w)

    # -- quotient slices -----------------------------------------------------

    def _counts(self, w: IntVec) -> list[tuple[int, int]]:
        """(monomials, relation rank) of the weight-w slices by degree, counted.

        For a ring with at most one quadric q, degrees 0 .. max_degree,
        formed once per weight, and nothing is listed.  amb(n, w) is the
        store's count of the degree-n slice; the rows q*b over the degree
        n-2 bases b are independent, so the rank is r amb(n - 2, w), r = 1,
        or 0 for a zero quadric or none.
        """
        counts = self._counted.get(w)
        if counts is None:
            amb = [self._store.count(n, w) for n in range(self.max_degree + 1)]
            r = len(self._substitutions)
            counts = self._counted[w] = [
                (a, r * amb[n - 2] if n >= 2 else 0) for n, a in enumerate(amb)
            ]
        return counts

    def series(self, w: IntVec) -> list[int]:
        """The quotient's weight-w dimensions in degrees 0 .. max_degree.

        With at most one quadric they are read off the counts (_counts):
        amb(n, w) - r amb(n - 2, w), and no piece is built and no slice
        listed.  With two or more quadrics each degree's piece is built.
        """
        if len(self.quadrics) <= 1:
            return [size - rank for size, rank in self._counts(w)]
        return [self.piece(n, w).dim for n in range(self.max_degree + 1)]

    def piece(self, n: int, w: IntVec) -> QuotientPiece:
        """The degree-n, weight-w quotient slice, built once per ring.

        Its pivots follow one rule in every ring (QuotientPiece); the one
        branch here counts its rank.  With at most one quadric nothing is
        listed: the size and rank are the weight's counts (_counts).  With
        two or more quadrics the slice and its bases are listed, and the
        rank is that of the relations' echelon form (sparse_echelon).
        """
        w = tuple(w)
        key = (n, w)
        cached = self._pieces.get(key)
        if cached is not None:
            return cached
        store, subs = self._store, self._substitutions
        if len(self.quadrics) <= 1:
            counts = self._counts(w)
            store._bound(n)
            size, rank = counts[n] if n >= 0 else (0, 0)
        else:
            mons = store.packed(n, w)
            bases = store.packed(n - 2, w) if n >= 2 else ()
            size = len(mons)
            rank = len(sparse_echelon(_relation_rows(self.quadrics, store.pairs, bases)))
        piece = self._pieces[key] = QuotientPiece(n, w, size, rank, store, subs)
        return piece

    def ambient(self) -> SliceRing:
        """The ring without relations, on this ring's monomial store."""
        return SliceRing(self.rep, max_degree=self.max_degree, store=self._store)


def hom_dimension(rep: SymplecticRep, n: int, w: IntVec) -> int:
    """Monomials of total degree n and torus weight w in the full ring.

    They are counted by a monomial store of degree bound n, with no ring.
    The benchmark's oracle check (bench/checks.py) is its caller."""
    return _MonomialStore(rep, n).count(n, w)


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
    the ambient one times (1 - t^2)^q, exactly when r = q.  Otherwise the
    series first differ at degree 2 and weight 0, which is always a block
    weight: that slice's rank is r where the target subtracts q, so the
    report's failure is there, with got = amb(2, 0) - r, read from the
    counts, exceeding the expected dimension by q - r.  Either way no
    piece is built and no slice listed.
    """
    ring = alg.ring
    q, r = len(ring.quadrics), len(ring._substitutions)
    weights = sorted({w for row in alg._weights for w in row})
    failure = None
    if r < q:
        zero = (0,) * alg.rep.torus_rank
        got = ring.ambient_dim(2, zero) - r
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

    def hilbert_matrices(self) -> list[tuple[tuple[int, ...], ...]]:
        """The Hilbert blocks: matrices[n][i][j] = dim(i, j, n), n = 0 .. degree_bound.

        A block's dimensions depend on its weight alone, so the ring gives
        each distinct block weight's dimensions in every degree at once
        (SliceRing.series), and the matrices are laid out from them.
        """
        weights = dict.fromkeys(w for row in self._weights for w in row)
        series = {w: self.ring.series(w) for w in weights}
        rows = [[series[w] for w in row] for row in self._weights]
        degrees = range(self.degree_bound + 1)
        return [tuple(tuple(dims[n] for dims in row) for row in rows) for n in degrees]


# ---------------------------------------------------------------------------
# quiver presentation by arrows and quadratic relations


class Arrow(NamedTuple):
    source: int
    target: int
    label: str
    monomial: Monomial


class PathTerm(NamedTuple):
    """One term of a relation: coefficient times the path (first arrow, second arrow)."""

    coefficient: int
    path: tuple[int, int]


class Relation(NamedTuple):
    """Integer combination of length-2 paths that vanishes in the algebra.

    The record is the relation as the report writes it: each term is a
    PathTerm, the path reading left to right, and string is the terms in
    the arrows' labels, as signed_sum writes them.
    """

    source: int
    target: int
    terms: tuple[PathTerm, ...]
    string: str


class QuiverPresentation(NamedTuple):
    vertices: tuple[IntVec, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]


def quiver_presentation(alg: GradedQuiverAlgebra) -> QuiverPresentation:
    """Arrows from the half-weights, relations from the reduced quadrics.

    The degree-1 block i -> j holds the variables of weight
    points[j] - points[i], in the slice's lex order: descending position,
    y_e .. y_1, x_e .. x_1, each arrow's monomial decoded from the store's
    units.  Each length-2 path multiplies to one degree-2 monomial, keyed
    here by its packed form, the sum of its arrows' units (a degree bound
    of at least 2 gives fields of at least 2 bits, so the sum never
    carries), and the only degree-2 monomials that are no representative
    are the pivot products x_p y_p of the ring's reduced quadrics.  So a
    product that is no z_j = x_j y_j is a representative that no other
    product's column touches, and the kernel pairs each path whose product
    an earlier path has with the first such path: first - this.  In a
    block with no pivot product every product is written so.  A block with
    one has weight 0, so it lies on the diagonal; there the paths whose
    product is some z_j take their kernel (column_kernel) over the free
    z's, with the columns that reduce gives: e_j for a free pair,
    -(sum_j c_j e_j) / lead for a pivot pair.  The kernel basis is one
    primitive vector per free column, zero at the other free columns, so
    it splits along the disjoint rows, and the block's relations are
    merged in free-column order as one kernel lists them.  No slice is
    listed and no piece built.  The presentation is the report's quiver
    section: relation() makes each Relation, its string included, once.
    """
    rep, e, store = alg.rep, alg.rep.num_pairs, alg.ring._store
    exponents = store.view(tuple(store.units))
    variables: dict[IntVec, list[tuple[int, str]]] = {}
    for pos in range(2 * e - 1, -1, -1):
        beta = rep.half_weights[pos % e]
        weight, label = (beta, f"x{pos + 1}") if pos < e else (vec_neg(beta), f"y{pos - e + 1}")
        variables.setdefault(weight, []).append((pos, label))
    arrows: list[Arrow] = []
    codes: list[int] = []  # each arrow's unit: a path's product is the sum of two
    outgoing: list[range] = []
    for i, row in enumerate(alg._weights):
        start = len(arrows)
        for j, w in enumerate(row):
            for pos, label in variables.get(w, ()):
                arrows.append(Arrow(i, j, label, exponents[pos]))
                codes.append(store.units[pos])
        outgoing.append(range(start, len(arrows)))

    def relation(i: int, k: int, terms) -> Relation:
        terms = tuple(map(PathTerm._make, terms))
        words = ((c, f"{arrows[a].label}*{arrows[b].label}") for c, (a, b) in terms)
        return Relation(i, k, terms, signed_sum(words))

    # each z_j's column over the free z's, by its packed x_j y_j
    zs = {store.pairs[j]: ({j: 1}, 1) for j in range(e)}
    pivots = set()
    for p, lead, free in alg.ring._substitutions:
        zs[store.pairs[p]] = ({z.index(1): -c for z, c in free}, lead)
        pivots.add(store.pairs[p])
    relations: list[Relation] = []
    for i, sources in enumerate(outgoing):
        ends: dict[int, list[tuple[int, int]]] = {}
        for a in sources:
            for b in outgoing[arrows[a].target]:
                ends.setdefault(arrows[b].target, []).append((a, b))
        for k in sorted(ends):
            paths = ends[k]
            products = [codes[a] + codes[b] for a, b in paths]
            # with a pivot product, the z_j products go to the kernel
            taken = () if pivots.isdisjoint(products) else zs
            block, first = [], {}
            for c, m in enumerate(products):
                if m not in taken:
                    earlier = first.setdefault(m, c)
                    if earlier != c:
                        block.append((c, relation(i, k, ((1, paths[earlier]), (-1, paths[c])))))
            kernel = [c for c, m in enumerate(products) if m in taken]
            if kernel:
                # kernel vectors are primitive and positive at their free
                # column, the last; only the sign is normalised
                for vec in column_kernel([zs[products[c]] for c in kernel]):
                    sign = -1 if vec[min(vec)] < 0 else 1
                    terms = [(sign * vec[c], paths[kernel[c]]) for c in sorted(vec)]
                    block.append((kernel[max(vec)], relation(i, k, terms)))
                block.sort(key=itemgetter(0))
            relations.extend([r for _, r in block])
    return QuiverPresentation(
        vertices=alg.vertices,
        arrows=tuple(arrows),
        relations=tuple(relations),
    )

