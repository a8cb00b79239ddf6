"""Graded slices, Hilbert blocks, regular sequences, quiver presentations."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric import (
    GradedQuiverAlgebra,
    SymplecticRep,
    build_zonotope,
    enumerate_window,
    hom_dimension,
    oracle_block_dimension,
    quiver_presentation,
    verify_regular_sequence,
)
from hypertoric.algebra import (
    RegSeqFailure,
    RegSeqReport,
    SliceRing,
    _MonomialStore,
    _relation_rows,
)
from hypertoric.corpus import DEFAULT_SEED, fixed_corpus
from hypertoric.errors import (
    DimensionError,
    MalformedAlgebraError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from hypertoric.koszul import hilbert_inverse_coefficients
from hypertoric.lattice import column_kernel, sparse_echelon, sparse_rref, vec_sub
from hypertoric.oracle import _dense_rank, _monomials_by_weight
from hypertoric.reps import MomentQuadric, moment_quadrics, signed_sum
from hypertoric.zonotope import find_generic_direction


def quotient_ring(rep, upto=8):
    return SliceRing(rep, moment_quadrics(rep), max_degree=upto)


def weight_box(rep, n):
    """Every weight a degree-n monomial can have, and a margin of absent ones."""
    reach = [n * max(abs(b[t]) for b in rep.half_weights) for t in range(rep.torus_rank)]
    return list(product(*(range(-r - 1, r + 2) for r in reach)))


# -- ambient slices ----------------------------------------------------------


def test_ambient_dims_conifold(rep_a):
    ring = SliceRing(rep_a, max_degree=2)
    assert ring.ambient_dim(0, (0,)) == 1
    assert ring.ambient_dim(1, (1,)) == 2
    assert ring.ambient_dim(2, (0,)) == 4
    assert hom_dimension(rep_a, 2, (0,)) == 4


@pytest.mark.parametrize("n", range(5))
def test_bucket_counts_every_monomial(rep_b, n):
    ring = SliceRing(rep_b, max_degree=n)
    slices = [ring.monomials(n, w) for w in weight_box(rep_b, n)]
    assert all(sum(m) == n for ms in slices for m in ms)
    total = sum(len(ms) for ms in slices)
    assert total == len({m for ms in slices for m in ms})
    assert total == comb(n + 2 * rep_b.num_pairs - 1, 2 * rep_b.num_pairs - 1)


def test_bucket_respects_degree_budget(rep_a):
    ring = SliceRing(rep_a, max_degree=3)
    ring.monomials(3, (1,))
    with pytest.raises(ResourceBudgetError):
        ring.monomials(4, (0,))
    with pytest.raises(ResourceBudgetError):
        ring.ambient().monomials(4, (2,))


def test_monomial_weight(rep_b):
    ring = SliceRing(rep_b, max_degree=3)
    # x1 * y3^2 has weight (1,0) - 2*(1,1)
    assert (1, 0, 0, 0, 0, 2) in ring.monomials(3, (-1, -2))
    assert (1, 0, 0, 0, 0, 2) not in ring.monomials(3, (1, 2))


def test_monomials_match_oracle(rep_a, rep_b, corpus):
    """The table join lists exactly the oracle's weight groups."""
    repeated = SymplecticRep(2, ((1, 0), (1, 0), (0, 1)))
    for rep in [rep_a, rep_b, repeated] + [entry.rep for entry in corpus]:
        ring = SliceRing(rep, max_degree=6)
        for n in range(7):
            oracle = _monomials_by_weight(rep, n)
            box = weight_box(rep, n)
            assert set(oracle) <= set(box)
            for w in box:
                assert ring.monomials(n, w) == tuple(sorted(oracle.get(w, ())))
    conifold = SliceRing(rep_a, max_degree=2)
    assert conifold.monomials(1, (0,)) == ()  # parity mismatch
    assert conifold.monomials(2, (4,)) == ()  # weight out of reach
    assert conifold.monomials(2, (2,)) == ((0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0))


# rank 2 with entries +-2: the weights of +-k e_1 sit at the packing bound
EDGE_REP = SymplecticRep(2, ((2, -2), (-2, 1), (1, 2), (0, -1)))
NAMED_REPS = [
    SymplecticRep(2, ((1, 0), (0, 1), (1, 1), (1, -1))),  # four-pair
    SymplecticRep(1, ((1,), (1,), (1,))),  # three-pair
    SymplecticRep(2, ((1, 0), (0, 1), (1, 1))),  # hexagon
    EDGE_REP,
]


def test_hom_dimension_matches_oracle(rep_a, rep_b, corpus):
    """Every weight of the box, one weight step beyond reach, against the oracle.

    One ring per (rep, n): SliceRing(rep, max_degree=n) packs weights on the
    same base as hom_dimension(rep, n, .), which is called itself at n = 0
    (base 1) and n = 6, at weight zero and at the box's far corner.
    """
    for rep in [rep_a, rep_b, NAMED_REPS[0]] + [entry.rep for entry in corpus]:
        zero = (0,) * rep.torus_rank
        for n in range(7):
            ring = SliceRing(rep, max_degree=n)
            box = weight_box(rep, n)
            for w in box:
                want = oracle_block_dimension(rep, zero, w, n, False)
                assert ring.ambient_dim(n, w) == want, (rep, n, w)
            if n in (0, 6):
                for w in (zero, box[-1]):
                    assert hom_dimension(rep, n, w) == ring.ambient_dim(n, w), (rep, n, w)


def unpacked(packed, width, fields):
    """The width-bit fields of a packed exponent vector, most significant first."""
    mask = (1 << width) - 1
    return tuple(packed >> width * k & mask for k in reversed(range(fields)))


def packed_of(mono, width):
    """An exponent vector packed into width-bit fields, its first entry most significant."""
    return sum(v << width * k for k, v in enumerate(reversed(mono)))


def packed_weight(w, base):
    """A weight packed as sum_j w_j base^j, its first entry least significant."""
    return sum(v * base**j for j, v in enumerate(w))


def brute_exponent_tables(rep, top):
    """Every v in N^e with |v|_1 = d <= top, by degree and weight, in lex order."""
    by_degree = [{} for _ in range(top + 1)]
    columns = list(zip(*rep.half_weights))
    for v in product(range(top + 1), repeat=rep.num_pairs):
        if sum(v) <= top:
            w = tuple(sum(map(mul, v, col)) for col in columns)
            by_degree[sum(v)].setdefault(w, []).append(v)
    return by_degree


def test_exponent_tables_match_brute_force(corpus):
    top = 10
    empty = SymplecticRep(0, ())  # no pairs: only the empty vector, of degree 0
    for rep in NAMED_REPS + [entry.rep for entry in corpus] + [empty]:
        ring = SliceRing(rep, max_degree=top)
        store, e = ring._store, rep.num_pairs
        for d, want in enumerate(brute_exponent_tables(rep, top)):
            got = {key: [unpacked(v, store.width, e) for v in vs] for key, vs in store.table(d).items()}
            assert got == {packed_weight(w, store.base): vs for w, vs in want.items()}, (rep, d)
    bare = SliceRing(empty, max_degree=0)
    assert bare._store.table(0) == {0: [0]} and bare.monomials(0, ()) == ((),)


def test_bounded_ring_answers_degrees_out_of_order():
    """Degrees asked out of order from one ring, each within its bound, match the oracle."""
    for rep in NAMED_REPS:
        ring = SliceRing(rep, max_degree=6)
        for n in (1, 4, 2, 6):
            oracle = _monomials_by_weight(rep, n)
            # the box reaches one step beyond every reachable weight
            for w in weight_box(rep, n):
                assert ring.monomials(n, w) == tuple(sorted(oracle.get(w, ()))), (rep, n, w)


def test_packing_decodes_orders_and_adds(corpus):
    """Packed monomials decode back, sort in lex order and add without carries.

    Every slice of the named reps up to N=8 (W = 4 bits; N=6 on four
    pairs, W = 3), of the corpus up to N=4 (W = 3) and of the named reps at
    N=0 (W = 2, the one monomial 1), against the oracle's monomials: a
    second store decodes them back, packed order is tuple lex order, and
    adding the packed pure power x_i^(N-n) or y_i^(N-n) to a degree-n slice
    decodes to the exponent sums.  Those sums sit at the bound, where one
    field holds up to N (x_1^N from n = 0).  Every store, and one on five
    pairs at N=16 (W = 5), decodes its units to the unit vectors, its pairs
    to the z_i = x_i y_i and its units times N to the pure powers at the
    bound: W = max(N, 2).bit_length() leaves room for all three.
    """
    five = SymplecticRep(1, ((1,), (2,), (3,), (1,), (2,)))
    cases = [(rep, 6 if rep.num_pairs == 4 else 8) for rep in NAMED_REPS]
    cases += [(entry.rep, 4) for entry in corpus] + [(rep, 0) for rep in NAMED_REPS]
    for rep, top in cases + [(five, 16)]:
        fresh, e = _MonomialStore(rep, top), rep.num_pairs
        units = tuple(tuple(int(k == i) for k in range(2 * e)) for i in range(2 * e))
        assert fresh.view(tuple(fresh.units)) == units, rep
        zs = tuple(tuple(map(add, units[i], units[e + i])) for i in range(e))
        assert fresh.view(tuple(fresh.pairs)) == zs, rep
        tops = tuple(tuple(top * v for v in u) for u in units)
        assert fresh.view(tuple(top * u for u in fresh.units)) == tops, rep
        if rep is five:
            continue
        ring = SliceRing(rep, max_degree=top)
        packing, fields = ring._store, 2 * e
        assert packing.width == max(top, 2).bit_length()
        for n in range(top + 1):
            powers = [tuple(top - n if j == i else 0 for j in range(fields)) for i in range(fields)]
            for w, mons in _monomials_by_weight(rep, n).items():
                mons = tuple(sorted(mons))
                packed = ring._store.packed(n, w)
                encoded = tuple(packed_of(m, packing.width) for m in mons)
                assert packed == tuple(sorted(packed)) == encoded, (rep, w)
                assert fresh.view(packed) == mons, (rep, w)
                for p in powers:
                    step = packed_of(p, packing.width)
                    want = tuple(tuple(map(add, m, p)) for m in mons)
                    assert fresh.view(tuple(m + step for m in packed)) == want, (rep, w, p)


def test_exponent_tables_bound_the_work():
    """The blocks of both sides build each exponent vector of degree <= N once."""
    four_pair = NAMED_REPS[0]
    quo = GradedQuiverAlgebra(four_pair, enumerate_window(build_zonotope(four_pair), (3, 1)), 8)
    amb = quo.ambient()
    quo.hilbert_matrices()
    amb.hilbert_matrices()
    assert amb.ring._store is quo.ring._store
    tables = quo.ring._store.tables.values()
    assert sum(len(vs) for table in tables for vs in table.values()) <= comb(8 + 4, 4)


def test_nonzero_shift_rejected_in_graded_ring(rep_a):
    shifted = moment_quadrics(rep_a, xi=(1,))
    with pytest.raises(UnsupportedShiftError):
        SliceRing(rep_a, shifted, max_degree=2)


def test_quadric_of_the_wrong_length_rejected(rep_b):
    with pytest.raises(DimensionError, match="2 coefficients for 3 coordinate pairs"):
        SliceRing(rep_b, (MomentQuadric(0, (1, 1)),), max_degree=2)


# -- quotient slices ---------------------------------------------------------


def test_hilbert_blocks_conifold(rep_a):
    ring = quotient_ring(rep_a)
    assert [ring.piece(n, (0,)).dim for n in range(7)] == [1, 0, 3, 0, 5, 0, 7]
    assert [ring.piece(n, (1,)).dim for n in range(7)] == [0, 2, 0, 4, 0, 6, 0]


def test_reduce_collapses_quadric(rep_a):
    piece = quotient_ring(rep_a).piece(2, (0,))
    x1y1 = (1, 0, 1, 0)
    x2y2 = (0, 1, 0, 1)
    at = piece.representatives.index(x1y1)
    assert x2y2 not in piece.representatives
    assert piece.reduce(x2y2) == ({at: -1}, 1)
    # a second call substitutes again and gives the same fresh row
    assert piece.reduce(x2y2) == ({at: -1}, 1)
    assert piece.reduce(x1y1) == ({at: 1}, 1)


def test_reduce_idempotent_on_representatives(rep_b):
    ring = quotient_ring(rep_b, upto=4)
    for n in range(4):
        for w in weight_box(rep_b, n):
            piece = ring.piece(n, w)
            for pos, mono in enumerate(piece.representatives):
                assert piece.reduce(mono) == ({pos: 1}, 1)


def quadric_multiples(rep, n, w, columns):
    """Every moment quadric times every degree n-2 monomial of weight w, as dense rows."""
    e = rep.num_pairs
    index = {m: c for c, m in enumerate(columns)}
    rows = []
    for base in _monomials_by_weight(rep, n - 2).get(w, ()) if n >= 2 else ():
        for j in range(rep.torus_rank):
            row = [0] * len(columns)
            for i in range(e):
                prod = list(base)
                prod[i] += 1
                prod[e + i] += 1
                row[index[tuple(prod)]] += rep.half_weights[i][j]
            rows.append(row)
    return rows


def test_reduce_matches_oracle(rep_a, rep_b, corpus):
    """d * m - sum_p row[p] * rep_p lies in the quadric span, for every monomial."""
    four_pair = SymplecticRep(2, ((1, 0), (0, 1), (1, 1), (1, -1)))
    checked = 0
    for rep in [rep_a, rep_b, four_pair] + [entry.rep for entry in corpus]:
        ring = quotient_ring(rep, upto=5)
        for n in range(6):
            for w, mons in _monomials_by_weight(rep, n).items():
                columns = sorted(mons)
                piece = ring.piece(n, w)
                span = quadric_multiples(rep, n, w, columns)
                residuals = []
                for m in columns:
                    row, d = piece.reduce(m)
                    assert d > 0 and gcd(d, *row.values()) == 1
                    assert set(row) <= set(range(piece.dim))
                    res = [d if c == m else 0 for c in columns]
                    for p, v in row.items():
                        res[columns.index(piece.representatives[p])] -= v
                    residuals.append(res)
                to_fraction = [[Fraction(v) for v in r] for r in span]
                assert _dense_rank(to_fraction + [[Fraction(v) for v in r] for r in residuals]) \
                    == _dense_rank(to_fraction), (rep, n, w)
                checked += len(columns)
    assert checked > 10000


def test_reduce_deep_slice_matches_rref():
    """reduce gives the rows of a full sparse_rref of the slice's relations."""
    rep = SymplecticRep(1, ((1,), (1,), (1,)))
    ring = quotient_ring(rep, upto=16)
    piece, monomials = ring.piece(16, (0,)), ring.monomials(16, (0,))
    rows = [
        {c: v for c, v in enumerate(row) if v}
        for row in quadric_multiples(rep, 16, (0,), monomials)
    ]
    position = {m: p for p, m in enumerate(piece.representatives)}
    got = {c: piece.reduce(m) for c, m in enumerate(monomials) if m not in position}
    pivots = sparse_rref(rows)
    assert piece.relation_rank == len(pivots) == len(got) > 1000
    for c, row in pivots.items():
        expected = {position[monomials[k]]: -v for k, v in row.items() if k != c}
        assert got[c] == (expected, row[c])


def substitution_rings():
    """Rings whose reduce is compared with an elimination, as (rep, quadrics)."""
    four_pair, three_pair, hexagon = NAMED_REPS[:3]
    hexagon_quadrics = moment_quadrics(hexagon)
    cases = [(four_pair, moment_quadrics(four_pair)), (hexagon, hexagon_quadrics)]
    cases += [
        (entry.rep, moment_quadrics(entry.rep))
        for seed in (DEFAULT_SEED, 7)
        for entry in fixed_corpus(24, seed)
        if entry.rep.torus_rank == 2
    ]
    # rank 2 < q = 3
    cases.append((hexagon, hexagon_quadrics + (hexagon_quadrics[0]._replace(index=2),)))
    # a zero quadric beside a nonzero one
    cases.append((hexagon, (hexagon_quadrics[0], MomentQuadric(1, (0, 0, 0)))))
    # x_2 y_2 = 0: every pivot monomial reduces to zero
    cases.append((three_pair, (MomentQuadric(0, (0, 1, 0)),)))
    # 2 z_3 + 3 z_1 and 3 z_2 + 2 z_1: z_2 z_3 = 6 z_1^2 / 6, a gcd to divide out
    cases.append((hexagon, (MomentQuadric(0, (3, 0, 2)), MomentQuadric(1, (2, 3, 0)))))
    return cases


def test_reduce_substitution_matches_rref():
    """reduce equals a full sparse_rref of the slice's relations on every pivot.

    Every non-representative monomial up to N=6 of each ring of
    substitution_rings(): the row over the representatives and its positive
    denominator are the integers of the eliminated relation.  The relation
    rows' columns are packed monomials, decoded here field by field.
    """
    cases = substitution_rings()
    assert len(cases) == 2 + 6 + 6 + 4
    checked = 0
    for rep, quadrics in cases:
        ring = SliceRing(rep, quadrics, max_degree=6)
        store, fields = ring._store, 2 * rep.num_pairs
        one_term = len(quadrics) == 1 and sum(map(bool, quadrics[0].coefficients)) == 1
        for n in range(7):
            for w in sorted(_monomials_by_weight(rep, n)):
                piece, view = ring.piece(n, w), ring.monomials(n, w)
                bases = store.packed(n - 2, w) if n >= 2 else ()
                pivots = sparse_rref(_relation_rows(quadrics, store.pairs, bases))
                position = {m: p for p, m in enumerate(piece.representatives)}
                assert piece.relation_rank == len(pivots) == len(view) - len(position)
                for c, row in pivots.items():
                    mono = unpacked(c, store.width, fields)
                    want = ({
                        position[unpacked(k, store.width, fields)]: -v
                        for k, v in row.items() if k != c
                    }, row[c])
                    got = piece.reduce(mono)
                    assert got == want, (rep, quadrics, n, w, mono)
                    assert not one_term or got == ({}, 1)
                checked += len(pivots)
    assert checked > 5000


def test_multiply_respects_relations(rep_a):
    piece = quotient_ring(rep_a).piece(2, (0,))
    x1, x2 = (1, 0, 0, 0), (0, 1, 0, 0)
    y1, y2 = (0, 0, 1, 0), (0, 0, 0, 1)
    at = piece.representatives.index((1, 0, 1, 0))
    assert piece.reduce(tuple(map(add, x1, y1))) == ({at: 1}, 1)
    assert piece.reduce(tuple(map(add, x2, y2))) == ({at: -1}, 1)


def echelon_representatives(ring, n, w):
    """The slice's monomials outside the echelon pivot columns of its relations.

    The columns are packed monomials; the ones left are decoded field by field.
    """
    store = ring._store
    bases = store.packed(n - 2, w) if n >= 2 else ()
    pivots = sparse_echelon(_relation_rows(ring.quadrics, store.pairs, bases))
    fields = 2 * ring.rep.num_pairs
    reps = tuple(unpacked(m, store.width, fields) for m in store.packed(n, w) if m not in pivots)
    return reps, len(pivots)


def test_piece_rank_accounting(rep_b):
    ring = quotient_ring(rep_b, upto=4)
    for n in range(5):
        for w in weight_box(rep_b, n):
            piece = ring.piece(n, w)
            fields = 2 * rep_b.num_pairs
            assert ring.monomials(n, w) == tuple(
                unpacked(m, ring._store.width, fields) for m in ring._store.packed(n, w)
            )
            assert piece.ambient_dim == len(ring.monomials(n, w))
            assert piece.dim == piece.ambient_dim - piece.relation_rank
            assert piece.dim == len(piece.representatives)
            want, rank = echelon_representatives(ring, n, w)
            assert piece.representatives == want and piece.relation_rank == rank


def test_counting_lists_no_representatives():
    """The Hilbert blocks and the regular-sequence test count slices without listing a basis.

    Four-pair at N=8: after both, and after reading what the benchmark's
    slice count reads of every piece, no piece has listed its
    representatives; the quiver then lists those of degree <= 2 only.
    """
    four_pair = NAMED_REPS[0]
    alg = GradedQuiverAlgebra(four_pair, enumerate_window(build_zonotope(four_pair), (3, 1)), 8)
    alg.hilbert_matrices()
    verify_regular_sequence(alg)
    pieces = list(alg.ring._pieces.values())
    assert max(piece.degree for piece in pieces) == 8
    for piece in pieces:
        assert piece.dim == piece.ambient_dim - piece.relation_rank
    assert all(piece._positions is None for piece in pieces)
    quiver_presentation(alg)
    assert all(piece._positions is None for piece in pieces if piece.degree >= 3)


def one_quadric_rings():
    """Conifold, three-pair, every rank-one corpus entry of two seeds, and zero quadrics."""
    conifold, three_pair = SymplecticRep(1, ((1,), (1,))), NAMED_REPS[1]
    reps = [conifold, three_pair] + [
        entry.rep
        for seed in (DEFAULT_SEED, 7)
        for entry in fixed_corpus(24, seed)
        if entry.rep.torus_rank == 1
    ]
    for rep in reps:
        yield rep, moment_quadrics(rep)
    for rep in (conifold, three_pair):
        yield rep, (MomentQuadric(0, (0,) * rep.num_pairs),)


def test_pivots_equal_the_echelon():
    """A slice's pivots are read off its base monomials, for any number of quadrics.

    The reduced quadrics' leading monomials x_p y_p are a Groebner basis, so
    the pivots are b + x_p y_p over the degree n-2 bases b and the pivot
    pairs p; these are the columns sparse_echelon picks, so the rule and
    the elimination agree on every slice up to N=8.  The rings are
    one_quadric_rings(), with entries whose last pair has weight zero and
    a zero quadric, which has rank 0, and every ring of
    substitution_rings(), with two or more quadrics, a duplicated quadric
    (r = 2 < q = 3) and a zero quadric beside a nonzero one.  The rank is
    the inclusion-exclusion count over the r pivot pairs; a piece of a ring
    with at most one quadric counts it before it lists anything, and its
    representatives are the monomials outside those columns.
    """
    rings = list(one_quadric_rings()) + substitution_rings()
    assert len(rings) == 2 + 18 + 18 + 2 + 2 + 6 + 6 + 4
    assert sum(rep.half_weights[-1] == (0,) for rep, _ in rings) == 5
    assert sum(len(quadrics) >= 2 for _, quadrics in rings) == 2 + 6 + 6 + 3
    for rep, quadrics in rings:
        counted = len(quadrics) <= 1
        ring = SliceRing(rep, quadrics, max_degree=8)
        r = len(ring._substitutions)
        for n in range(9):
            for w in weight_box(rep, n):
                piece = ring.piece(n, w)
                rank = piece.relation_rank
                assert not counted or (n, w) not in ring._store.slices, (rep, quadrics, n, w)
                want, pivots = echelon_representatives(ring, n, w)
                assert piece.representatives == want, (rep, quadrics, n, w)
                formula = sum(
                    (-1) ** (k + 1) * comb(r, k) * ring.ambient_dim(n - 2 * k, w)
                    for k in range(1, r + 1)
                )
                assert rank == pivots == formula, (rep, quadrics, n, w)


def counted_rings():
    """Rings whose slices are counted, with the weights to check at each degree.

    Conifold, three-pair, a zero quadric, the pairless rep, a zero
    half-weight and the ambient() of four-pair and hexagon over their weight
    boxes, which reach one step beyond every reachable weight (where keys
    would alias at the bound); every rank-one fixed_corpus(24) entry of two
    seeds, and the ambient() of the others, over their reachable weights.
    """
    conifold, three_pair = SymplecticRep(1, ((1,), (1,))), NAMED_REPS[1]
    four_pair, hexagon = NAMED_REPS[0], NAMED_REPS[2]
    zero_half_weight = SymplecticRep(1, ((1,), (2,), (0,)))
    for rep, quadrics in [
        (conifold, moment_quadrics(conifold)),
        (three_pair, moment_quadrics(three_pair)),
        (three_pair, (MomentQuadric(0, (0, 0, 0)),)),
        (SymplecticRep(0, ()), ()),
        (zero_half_weight, moment_quadrics(zero_half_weight)),
    ]:
        yield SliceRing(rep, quadrics, max_degree=8), weight_box
    for rep in (four_pair, hexagon):
        yield SliceRing(rep, moment_quadrics(rep), max_degree=8).ambient(), weight_box
    for seed in (DEFAULT_SEED, 7):
        for entry in fixed_corpus(24, seed):
            ring = SliceRing(entry.rep, moment_quadrics(entry.rep), max_degree=8)
            yield (ring if entry.rep.torus_rank == 1 else ring.ambient()), reachable_weights


def reachable_weights(rep, n):
    return sorted(_monomials_by_weight(rep, n))


def test_counts_equal_the_listings():
    """A counted slice agrees with its listing on every slice up to N=8.

    ambient_dim, read off the ring's Hilbert series, is the number of
    listed monomials; a piece lists nothing until its representatives are
    read, its counted relation_rank is the number of echelon pivots of the
    slice's relations, and its representatives, as many as its counted
    dim, are the monomials outside them.
    """
    rings = list(counted_rings())
    assert len(rings) == 5 + 2 + 24 + 24
    slices = 0
    for ring, weights in rings:
        store = ring._store
        for n in range(9):
            for w in weights(ring.rep, n):
                piece = ring.piece(n, w)
                counted = (ring.ambient_dim(n, w), piece.relation_rank, piece.dim)
                assert (n, w) not in store.slices, (ring.rep, n, w)
                reps = piece.representatives
                assert counted[0] == store.count(n, w) == len(store.packed(n, w)), (ring.rep, n, w)
                want, pivots = echelon_representatives(ring, n, w)
                listed = (len(store.packed(n, w)), pivots, len(reps))
                assert counted == listed, (ring.rep, ring.quadrics, n, w)
                assert reps == want, (ring.rep, ring.quadrics, n, w)
                slices += 1
    assert slices > 15000


def test_counted_blocks_list_nothing():
    """Blocks, regular-sequence test, the bench's slice count and the quiver list nothing.

    Three-pair at N=8 and the ambient side of four-pair: after the Hilbert
    blocks, the regular-sequence test and reading ambient_dim,
    relation_rank and dim of every block piece (what bench/tracing.py's
    count_slices reads), the store holds no exponent table and no listed
    slice, and the quiver lists none either.
    """
    four_pair, three_pair = NAMED_REPS[0], NAMED_REPS[1]
    quotient = GradedQuiverAlgebra(three_pair, enumerate_window(build_zonotope(three_pair), (1,)), 8)
    ambient = GradedQuiverAlgebra(
        four_pair, enumerate_window(build_zonotope(four_pair), (3, 1)), 8
    ).ambient()
    for alg in (quotient, ambient):
        alg.hilbert_matrices()
        verify_regular_sequence(alg)
        v = alg.num_vertices
        for n in range(alg.degree_bound + 1):
            for i in range(v):
                for j in range(v):
                    piece = alg.piece(i, j, n)
                    assert piece.dim == piece.ambient_dim - piece.relation_rank
        store = alg.ring._store
        assert store.tables == {} and store.slices == {}, alg.rep
        assert store.series is not None
        quiver_presentation(alg)
        assert store.tables == {} and store.slices == {}, alg.rep


# SHA-256 of repr((n, w, representatives)) over every nonempty slice, and of
# repr((monomial, sorted row items, denominator)) over one deep slice: a
# change to the quotient bases, their order or the reductions shows here
REPRESENTATIVES_SHA256 = "e88edd43f15bd4ec38e562a01c339fcc6478a923b6a02c49303376d016243a7b"
DEEP_REDUCE_SHA256 = "73a51c818160e78d29396ea4d9b1a2c9c8f307394e97a7f509b947610a9e5a68"


def test_representatives_and_reductions_pinned(corpus):
    digest = hashlib.sha256()
    cases = [(NAMED_REPS[0], 8), (NAMED_REPS[2], 8)] + [(entry.rep, 6) for entry in corpus]
    for rep, top in cases:
        ring = quotient_ring(rep, upto=top)
        for n in range(top + 1):
            for w in sorted(_monomials_by_weight(rep, n)):
                piece = ring.piece(n, w)
                reps = piece.representatives
                assert all(piece.position(m) == k for k, m in enumerate(reps))
                digest.update(repr((n, w, reps)).encode())
    assert digest.hexdigest() == REPRESENTATIVES_SHA256
    ring = quotient_ring(NAMED_REPS[0], upto=12)
    piece = ring.piece(12, (0, 0))
    digest = hashlib.sha256()
    for m in ring.monomials(12, (0, 0)):
        row, d = piece.reduce(m)
        digest.update(repr((m, sorted(row.items()), d)).encode())
    assert (piece.ambient_dim, piece.relation_rank) == (384, 305)
    assert digest.hexdigest() == DEEP_REDUCE_SHA256


# -- regular sequence check --------------------------------------------------


def test_regular_sequence_conifold(rep_a, window_a):
    report = verify_regular_sequence(GradedQuiverAlgebra(rep_a, window_a, 8))
    assert report.passed
    assert report.first_failure is None
    assert report.num_quadrics == 1
    assert report.weights == ((-1,), (0,), (1,))


def test_regular_sequence_hexagon(rep_b, window_b):
    report = verify_regular_sequence(GradedQuiverAlgebra(rep_b, window_b, 6))
    assert report.passed
    assert report.upto == 6
    diffs = {
        tuple(a - b for a, b in zip(p, q))
        for p in window_b.points
        for q in window_b.points
    }
    assert set(report.weights) == diffs


def test_duplicated_quadric_fails_at_first_impossible_degree(rep_b, window_b):
    """A dependent cut cannot stay regular; degree 2 already overcounts."""
    qs = moment_quadrics(rep_b)
    alg = GradedQuiverAlgebra(rep_b, window_b, 6, quadrics=qs + (qs[0],))
    report = verify_regular_sequence(alg)
    assert not report.passed
    f = report.first_failure
    assert (f.degree, f.weight) == (2, (0, 0))
    assert (f.got, f.expected) == (1, 0)


def scanned_regular_sequence(alg):
    """The slice scan that the rank test replaced, kept as its reference.

    Every block weight, degree-outer up to the degree bound: the quotient
    slice's dimension against sum_k (-1)^k C(q, k) amb(n - 2k, w), the
    target of a regular sequence of q quadrics; the first slice that
    differs is the failure.
    """
    ring = alg.ring
    q = len(ring.quadrics)
    weights = tuple(sorted({vec_sub(b, a) for a in alg.vertices for b in alg.vertices}))
    for n in range(alg.degree_bound + 1):
        for w in weights:
            expected = sum(
                (-1) ** k * comb(q, k) * ring.ambient_dim(n - 2 * k, w)
                for k in range(min(q, n // 2) + 1)
            )
            got = ring.piece(n, w).dim
            if got != expected:
                failure = RegSeqFailure(n, w, got, expected)
                return RegSeqReport(False, alg.degree_bound, q, weights, failure)
    return RegSeqReport(True, alg.degree_bound, q, weights, None)


def quadric_variants(rep, rng):
    """The moment quadrics, with a duplicate, with a zero one, scaled, and random integer ones."""
    qs = moment_quadrics(rep)
    e = rep.num_pairs
    yield qs
    yield qs + (qs[0]._replace(index=len(qs)),)
    yield qs + (MomentQuadric(len(qs), (0,) * e),)
    yield tuple(q._replace(coefficients=tuple((q.index + 2) * c for c in q.coefficients))
                for q in qs)
    count = rng.randint(1, e + 1)
    yield tuple(MomentQuadric(k, tuple(rng.randint(-2, 2) for _ in range(e))) for k in range(count))


def test_rank_test_equals_the_slice_scan():
    """verify_regular_sequence gives the scan's record on regular and dependent quadrics.

    fixed_corpus(24) of three seeds, four-pair, three-pair, conifold and
    hexagon, each with the variants of quadric_variants at N = 2, 3 and 5:
    the rank test and the scan of every slice of every block weight agree
    on the whole record, the first failure's got and expected included.
    """
    rng = random.Random(20261020)
    cases = [(SymplecticRep(1, ((1,), (1,))), (1,))]
    cases += zip(NAMED_REPS[:3], [(3, 1), (1,), (2, 1)])
    cases += [(e.rep, e.epsilon) for seed in (DEFAULT_SEED, 7, 11) for e in fixed_corpus(24, seed)]
    outcomes = []
    for rep, eps in cases:
        window = enumerate_window(build_zonotope(rep), eps)
        for quadrics in quadric_variants(rep, rng):
            for upto in (2, 3, 5):
                got = verify_regular_sequence(GradedQuiverAlgebra(rep, window, upto, quadrics))
                want = scanned_regular_sequence(GradedQuiverAlgebra(rep, window, upto, quadrics))
                assert got == want, (rep, quadrics, upto)
                outcomes.append((got.passed, len(quadrics)))
    assert len(outcomes) == 76 * 5 * 3
    assert sum(passed for passed, _ in outcomes) > 300
    # failures with several quadrics read got from an eliminated slice
    assert sum(not passed and q >= 2 for passed, q in outcomes) > 300


@pytest.mark.parametrize("upto", [4, 6])
def test_quotient_series_is_ambient_times_euler_factor(rep_b, window_b, upto):
    # H_quot(n) = sum_k (-1)^k C(s,k) H_amb(n-2k), blockwise
    s = rep_b.torus_rank
    quo = GradedQuiverAlgebra(rep_b, window_b, upto)
    amb = quo.ambient()
    for n in range(upto + 1):
        want = [
            [
                sum(
                    (-1) ** k * comb(s, k) * amb.dim(i, j, n - 2 * k)
                    for k in range(s + 1)
                    if n - 2 * k >= 0
                )
                for j in range(amb.num_vertices)
            ]
            for i in range(amb.num_vertices)
        ]
        got = [list(row) for row in quo.hilbert_matrices()[n]]
        assert got == want


def series_cases():
    """(rep, epsilon, quadrics) for the Hilbert-series tests.

    Every ring of substitution_rings(), each on its generic direction;
    fixed_corpus(24) on two seeds; the named reps and the looped rep; a
    zero half-weight; and four pairs of weight 1, whose window spans three
    steps, so its corner blocks' weight lies beyond reach in degrees 0..2.
    """
    cases = [
        (rep, find_generic_direction(build_zonotope(rep)), quadrics)
        for rep, quadrics in substitution_rings()
    ]
    cases += [
        (entry.rep, entry.epsilon, moment_quadrics(entry.rep))
        for seed in (DEFAULT_SEED, 7) for entry in fixed_corpus(24, seed)
    ]
    epsilons = [(3, 1), (1,), (2, 1), (-1, -1), (-1, 1)]
    cases += [
        (rep, epsilon, moment_quadrics(rep))
        for rep, epsilon in zip(NAMED_REPS + [LOOPED_REP], epsilons)
    ]
    for rep in (SymplecticRep(1, ((1,), (2,), (0,))), SymplecticRep(1, ((1,),) * 4)):
        cases.append((rep, (1,), moment_quadrics(rep)))
    return cases


def test_hilbert_series_equals_the_pieces():
    """hilbert_matrices() equals each block's piece, and lists nothing with one quadric.

    series_cases() at N=6, the quotient and its ambient(), each on a fresh
    algebra: every block of every degree is piece(n, w).dim, which is the
    number of representatives that the piece lists.  Before the pieces are
    read, a ring with at most one quadric has built no piece and listed no
    slice.
    """
    cases = series_cases()
    assert len(cases) == 18 + 48 + 5 + 2
    beyond = 0
    for rep, epsilon, quadrics in cases:
        window = enumerate_window(build_zonotope(rep), epsilon)
        quotient = GradedQuiverAlgebra(rep, window, 6, quadrics)
        for alg in (quotient, GradedQuiverAlgebra(rep, window, 6, quadrics).ambient()):
            ring = alg.ring
            matrices = alg.hilbert_matrices()
            if len(ring.quadrics) <= 1:
                assert ring._pieces == {} and ring._store.slices == {}, (rep, quadrics)
            v = alg.num_vertices
            assert len(matrices) == 7
            for n, matrix in enumerate(matrices):
                assert len(matrix) == v and all(len(row) == v for row in matrix)
                for i, j in product(range(v), repeat=2):
                    piece = alg.piece(i, j, n)
                    assert matrix[i][j] == piece.dim == len(piece.representatives), (
                        rep, quadrics, n, i, j,
                    )
                    reach = n * ring._store.reach
                    beyond += n > 0 and max(map(abs, piece.weight), default=0) > reach
    assert beyond > 0


def test_pieces_compare_by_identity(rep_b):
    # a ring builds each slice once; two rings' equal slices stay distinct
    first, second = quotient_ring(rep_b, 4), quotient_ring(rep_b, 4)
    a, b = first.piece(4, (0, 0)), second.piece(4, (0, 0))
    assert a is first.piece(4, (0, 0))
    assert (a.ambient_dim, a.representatives, a.relation_rank) == (
        b.ambient_dim, b.representatives, b.relation_rank
    )
    assert a != b and a == a


def test_wrong_length_weight_is_refused():
    """A weight whose length is not the torus rank raises DimensionError.

    Its packed key would alias a slice of the right length: on hexagon,
    (0,) and (0, 0, 0) would read the (0, 0) slice.  piece and series (of
    the ring, which eliminates, and of its ambient(), which counts),
    monomials, ambient_dim and hom_dimension each refuse them in degrees 0
    and 2, also once (0, 0) is cached, and no piece is built for them.  A weight given as a list reads the slice of its
    tuple: each read, and the piece's ambient_dim, count 3 for [0, 0] in
    degree 2.
    """
    hexagon = NAMED_REPS[2]
    ring = quotient_ring(hexagon, 4)
    ambient = ring.ambient()
    reads = [
        ring.piece, ambient.piece, ring.monomials, ring.ambient_dim,
        lambda n, w: ring.series(w), lambda n, w: ambient.series(w),
        lambda n, w: hom_dimension(hexagon, n, w),
    ]
    for n in (0, 2):
        for read in reads:
            read(n, (0, 0))
            for w in ((0,), (0, 0, 0)):
                with pytest.raises(DimensionError):
                    read(n, w)
    listed = [0, 0]
    assert ring.ambient_dim(2, listed) == ring.piece(2, listed).ambient_dim == 3
    assert len(ring.monomials(2, listed)) == hom_dimension(hexagon, 2, listed) == 3
    assert {w for _, w in ring._pieces} == {w for _, w in ambient._pieces} == {(0, 0)}


def test_ambient_algebra_shares_monomials(rep_b, window_b):
    quo = GradedQuiverAlgebra(rep_b, window_b, 4)
    amb = quo.ambient()
    assert amb.quadrics == ()
    assert quo.quadrics == moment_quadrics(rep_b)
    fresh = GradedQuiverAlgebra(rep_b, window_b, 4, quadrics=())
    assert amb.hilbert_matrices() == fresh.hilbert_matrices()
    assert amb.ring._store is quo.ring._store
    for n in range(5):
        for w in weight_box(rep_b, n):
            assert amb.ring._store.packed(n, w) is quo.ring._store.packed(n, w)


# -- window algebra and its quiver ------------------------------------------


def test_algebra_vertices_and_weights(rep_b, window_b):
    alg = GradedQuiverAlgebra(rep_b, window_b, 4)
    assert alg.vertices == ((0, 0), (1, 0), (1, 1))
    assert alg.num_vertices == 3
    assert alg.piece(0, 2, 0).weight == (1, 1)
    assert alg.piece(2, 0, 0).weight == (-1, -1)


def test_algebra_requires_quadratic_visibility(rep_a, window_a):
    with pytest.raises(ResourceBudgetError):
        GradedQuiverAlgebra(rep_a, window_a, 1)


def test_hilbert_matrices_conifold(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    mats = alg.hilbert_matrices()
    assert mats[0] == ((1, 0), (0, 1))
    assert mats[1] == ((0, 2), (2, 0))
    assert mats[2] == ((3, 0), (0, 3))
    assert [mats[n][0][n % 2] for n in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_quiver_presentation_conifold(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    pres = quiver_presentation(alg)
    assert pres.vertices == ((0,), (1,))
    assert [(a.source, a.target, a.label) for a in pres.arrows] == [
        (0, 1, "x2"),
        (0, 1, "x1"),
        (1, 0, "y2"),
        (1, 0, "y1"),
    ]
    rendered = [(r.source, r.target, r.string) for r in pres.relations]
    assert rendered == [
        (0, 0, "x2*y2 + x1*y1"),
        (1, 1, "y2*x2 + y1*x1"),
    ]


def test_quiver_presentation_hexagon(rep_b, window_b):
    alg = GradedQuiverAlgebra(rep_b, window_b, 6)
    pres = quiver_presentation(alg)
    assert [(a.source, a.target, a.label) for a in pres.arrows] == [
        (0, 1, "x1"),
        (0, 2, "x3"),
        (1, 0, "y1"),
        (1, 2, "x2"),
        (2, 0, "y3"),
        (2, 1, "y2"),
    ]
    assert len(pres.relations) == 3
    assert {(r.source, r.target) for r in pres.relations} == {(0, 0), (1, 1), (2, 2)}


def test_quiver_presentation_frozen_pivot_two():
    """Rank one, three pairs: the quadric's degree-2 pivots are 2, not 1."""
    rep = SymplecticRep(1, ((-1,), (1,), (2,)))
    alg = GradedQuiverAlgebra(rep, enumerate_window(build_zonotope(rep), (-1,)), 2)
    pres = quiver_presentation(alg)
    assert len(pres.arrows) == 16
    rendered = [(r.source, r.target, r.string) for r in pres.relations]
    assert rendered == [
        (0, 0, "y1*x1 - x2*y2 - 2*x3*y3"),
        (0, 2, "y1*x2 - x2*y1"),
        (0, 3, "y1*x3 - x3*y1"),
        (0, 3, "x2*x3 - x3*x2"),
        (1, 1, "y2*y1 - y1*y2"),
        (1, 1, "x1*y1 - y1*x1"),
        (1, 1, "y2*x2 - x2*y2"),
        (1, 1, "x1*x2 - x2*x1"),
        (1, 1, "y2*x2 - x1*y1 + 2*x3*y3"),
        (1, 2, "y2*x3 - x3*y2"),
        (1, 2, "x1*x3 - x3*x1"),
        (1, 3, "y1*x2 - x2*y1"),
        (2, 0, "y2*x1 - x1*y2"),
        (2, 1, "y3*y1 - y1*y3"),
        (2, 1, "y3*x2 - x2*y3"),
        (2, 2, "2*y3*x3 + y2*x2 - x1*y1"),
        (2, 2, "y2*y1 - y1*y2"),
        (2, 2, "2*y3*x3 + y2*x2 - y1*x1"),
        (2, 2, "y2*x2 - x2*y2"),
        (2, 2, "x1*x2 - x2*x1"),
        (3, 0, "y3*y2 - y2*y3"),
        (3, 0, "y3*x1 - x1*y3"),
        (3, 1, "y2*x1 - x1*y2"),
        (3, 3, "2*y3*x3 + y2*x2 - x1*y1"),
    ]


def relation_vanishes(alg, pres, rel):
    piece = alg.piece(rel.source, rel.target, 2)
    products = []
    for coeff, (a_idx, b_idx) in rel.terms:
        first = pres.arrows[a_idx]
        second = pres.arrows[b_idx]
        assert first.target == second.source
        row, d = piece.reduce(tuple(map(add, first.monomial, second.monomial)))
        products.append((coeff, row, d))
    common = lcm(*(d for _, _, d in products))
    total: dict = {}
    for coeff, row, d in products:
        for pos, c in row.items():
            total[pos] = total.get(pos, 0) + coeff * c * (common // d)
    return all(c == 0 for c in total.values())


def test_relations_vanish_in_quotient(rep_a, rep_b, window_a, window_b):
    rep_c = SymplecticRep(1, ((-1,), (1,), (2,)))
    window_c = enumerate_window(build_zonotope(rep_c), (-1,))
    for rep, window in ((rep_a, window_a), (rep_b, window_b), (rep_c, window_c)):
        alg = GradedQuiverAlgebra(rep, window, 4)
        pres = quiver_presentation(alg)
        for rel in pres.relations:
            assert relation_vanishes(alg, pres, rel)


def test_arrow_count_matches_degree_one_blocks(rep_b, window_b):
    alg = GradedQuiverAlgebra(rep_b, window_b, 4)
    pres = quiver_presentation(alg)
    expected = sum(
        alg.dim(i, j, 1)
        for i in range(alg.num_vertices)
        for j in range(alg.num_vertices)
    )
    assert len(pres.arrows) == expected


def kernel_relations(alg, arrows):
    """The quiver relations of every block with paths, each the kernel of its reduced products.

    The reference: column_kernel over piece.reduce of every path's product,
    each kernel vector signed so that its first term is positive.  Returns
    the relations, each a plain (source, target, terms) tuple with terms of
    (coefficient, path), and, for each block with a product that is no
    representative, in block order, the number of its paths whose product
    is some z_j = x_j y_j.
    """
    relations, blocks = [], []
    v, e = alg.num_vertices, alg.rep.num_pairs
    for i in range(v):
        for k in range(v):
            paths = [
                (a, b)
                for a, first in enumerate(arrows) if first.source == i
                for b, second in enumerate(arrows)
                if second.source == first.target and second.target == k
            ]
            if not paths:
                continue
            piece = alg.piece(i, k, 2)
            products = [tuple(map(add, arrows[a].monomial, arrows[b].monomial)) for a, b in paths]
            if any(piece.position(m) is None for m in products):
                blocks.append(sum(m[:e] == m[e:] for m in products))
            for vec in column_kernel([piece.reduce(m) for m in products]):
                sign = -1 if vec[min(vec)] < 0 else 1
                relations.append((i, k, tuple((sign * vec[c], paths[c]) for c in sorted(vec))))
    return relations, blocks


def assert_relations_equal(pres, want, case):
    """pres.relations equal want, kernel_relations' tuples, in terms and in string.

    Each relation's string is signed_sum of the reference terms, each path
    written with the labels of pres.arrows.
    """
    assert [(r.source, r.target, r.terms) for r in pres.relations] == want, case
    labels = [a.label for a in pres.arrows]
    strings = [
        signed_sum((c, f"{labels[a]}*{labels[b]}") for c, (a, b) in terms)
        for _, _, terms in want
    ]
    assert [r.string for r in pres.relations] == strings, case


# zero and repeated half-weights: x2 and y2 are loops, x1 and x3 parallel arrows
LOOPED_REP = SymplecticRep(2, ((1, 0), (0, 0), (1, 0), (0, 1), (1, 1)))


def quiver_cases():
    """(rep, epsilon, ambient) for the quiver tests.

    Corpus entries for two seeds, the named reps, the looped rep, conifold
    and the conifold's ambient algebra.
    """
    cases = [
        (entry.rep, entry.epsilon, False)
        for seed in (DEFAULT_SEED, 7) for entry in fixed_corpus(24, seed)
    ]
    epsilons = [(3, 1), (1,), (2, 1), (-1, -1), (-1, 1)]
    cases += [(rep, epsilon, False) for rep, epsilon in zip(NAMED_REPS + [LOOPED_REP], epsilons)]
    conifold = SymplecticRep(1, ((1,), (1,)))
    return cases + [(conifold, (1,), False), (conifold, (1,), True)]


def test_arrows_are_the_degree_one_bases():
    """The arrows are the degree-1 bases of a fresh algebra: order, monomials and labels.

    quiver_cases(): the arrows of each block i -> j, blocks in row-major
    order, are alg.basis(i, j, 1) in its order, each labelled by the
    variable it is.
    """
    for rep, epsilon, ambient in quiver_cases():
        window = enumerate_window(build_zonotope(rep), epsilon)
        alg, reference = GradedQuiverAlgebra(rep, window, 2), GradedQuiverAlgebra(rep, window, 2)
        if ambient:
            alg, reference = alg.ambient(), reference.ambient()
        e, v = rep.num_pairs, reference.num_vertices
        want = []
        for i, j in product(range(v), repeat=2):
            for mono in reference.basis(i, j, 1):
                pos = mono.index(1)
                want.append((i, j, f"x{pos + 1}" if pos < e else f"y{pos - e + 1}", mono))
        assert list(quiver_presentation(alg).arrows) == want, rep


def test_binomial_relations_equal_the_kernel(monkeypatch):
    """Every quiver relation equals the kernel's, and only pivot blocks take a kernel.

    quiver_cases(): the quiver lists no slice and builds no piece.  A
    block with a pivot product takes one kernel, over the columns of its
    paths whose product is some z_j, and every other block and product is
    written as binomials.  A product of two variables comes from at most
    two paths, u*v and v*u, so pairing a repeated product with its first
    path or with the previous one gives the same relation; that variant
    is equivalent.
    """
    kernels = []

    def counted_kernel(columns):
        kernels.append(columns)
        return column_kernel(columns)

    monkeypatch.setattr("hypertoric.algebra.column_kernel", counted_kernel)
    pivot_blocks = 0
    for rep, epsilon, ambient in quiver_cases():
        window = enumerate_window(build_zonotope(rep), epsilon)
        alg, reference = GradedQuiverAlgebra(rep, window, 2), GradedQuiverAlgebra(rep, window, 2)
        if ambient:
            alg, reference = alg.ambient(), reference.ambient()
        kernels.clear()
        pres = quiver_presentation(alg)
        assert alg.ring._pieces == {} and alg.ring._store.slices == {}, rep
        want, blocks = kernel_relations(reference, pres.arrows)
        assert_relations_equal(pres, want, rep)
        assert [len(columns) for columns in kernels] == blocks, rep
        pivot_blocks += len(blocks)
    assert pivot_blocks > 0 and blocks == []


def test_custom_quadric_relations_equal_the_kernel():
    """The quiver of every ring of substitution_rings() equals the kernel's.

    GradedQuiverAlgebra(rep, window, n, quadrics) at n = 2 and 4: rank
    r < q, a zero quadric, x_2 y_2 = 0 (a pivot pair with no free term)
    and reduced quadrics with a gcd to divide out, beside the moment
    quadrics of the named and corpus reps.
    """
    pivot_blocks = 0
    for rep, quadrics in substitution_rings():
        window = enumerate_window(build_zonotope(rep), find_generic_direction(build_zonotope(rep)))
        for n in (2, 4):
            pres = quiver_presentation(GradedQuiverAlgebra(rep, window, n, quadrics))
            want, blocks = kernel_relations(
                GradedQuiverAlgebra(rep, window, n, quadrics), pres.arrows
            )
            assert_relations_equal(pres, want, (rep, quadrics))
            pivot_blocks += len(blocks)
    assert pivot_blocks > 0


# -- inverse Hilbert series --------------------------------------------------


def test_inverse_series_conifold_is_koszul_polynomial(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    coeffs = hilbert_inverse_coefficients(alg.hilbert_matrices())
    assert coeffs[0] == [[1, 0], [0, 1]]
    assert coeffs[1] == [[0, 2], [2, 0]]
    assert coeffs[2] == [[1, 0], [0, 1]]
    for n in (3, 4, 5, 6):
        assert coeffs[n] == [[0, 0], [0, 0]]


def test_inverse_series_requires_identity_in_degree_zero():
    with pytest.raises(MalformedAlgebraError):
        hilbert_inverse_coefficients([((1, 1), (0, 1))])
    with pytest.raises(MalformedAlgebraError):
        hilbert_inverse_coefficients([])


# -- property: block dimension is monotone under window restriction ----------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4))
def test_diagonal_blocks_positive(rep_b, window_b, n):
    alg = GradedQuiverAlgebra(rep_b, window_b, 6)
    if n % 2 == 0:
        for i in range(alg.num_vertices):
            assert alg.dim(i, i, n) > 0


def test_custom_quadrics_accepted(rep_a, window_a):
    q = MomentQuadric(0, (1, 1), 0)
    alg = GradedQuiverAlgebra(rep_a, window_a, 4, quadrics=(q,))
    assert alg.hilbert_matrices()[2] == ((3, 0), (0, 3))
