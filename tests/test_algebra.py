"""Graded slices, Hilbert blocks, regular sequences, quiver presentations."""

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
from hypertoric.algebra import SliceRing, hilbert_inverse_coefficients
from hypertoric.errors import (
    MalformedAlgebraError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from hypertoric.lattice import sparse_rref
from hypertoric.oracle import _dense_rank, _monomials_by_weight
from hypertoric.reps import MomentQuadric, moment_quadrics


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
    """One ring bounded at n per call, from n = 0 (base 1), one weight step beyond reach."""
    for rep in [rep_a, rep_b, NAMED_REPS[0]] + [entry.rep for entry in corpus]:
        zero = (0,) * rep.torus_rank
        for n in range(7):
            for w in weight_box(rep, n):
                want = oracle_block_dimension(rep, zero, w, n, False)
                assert hom_dimension(rep, n, w) == want, (rep, n, w)


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
        for d, want in enumerate(brute_exponent_tables(rep, top)):
            assert ring._table(d) == {ring._key(w): vs for w, vs in want.items()}, (rep, d)
    assert SliceRing(empty, max_degree=0)._table(0) == {0: [()]}


def test_bounded_ring_answers_degrees_out_of_order():
    """Degrees asked out of order from one ring, each within its bound, match the oracle."""
    for rep in NAMED_REPS:
        ring = SliceRing(rep, max_degree=6)
        for n in (1, 4, 2, 6):
            oracle = _monomials_by_weight(rep, n)
            # the box reaches one step beyond every reachable weight
            for w in weight_box(rep, n):
                assert ring.monomials(n, w) == tuple(sorted(oracle.get(w, ()))), (rep, n, w)


def test_exponent_tables_bound_the_work():
    """The blocks of both sides build each exponent vector of degree <= N once."""
    four_pair = NAMED_REPS[0]
    quo = GradedQuiverAlgebra(four_pair, enumerate_window(build_zonotope(four_pair), (3, 1)), 8)
    amb = quo.ambient()
    quo.hilbert_matrices()
    amb.hilbert_matrices()
    assert amb.ring._tables is quo.ring._tables
    tables = quo.ring._tables.values()
    assert sum(len(vs) for table in tables for vs in table.values()) <= comb(8 + 4, 4)


def test_nonzero_shift_rejected_in_graded_ring(rep_a):
    shifted = moment_quadrics(rep_a, xi=(1,))
    with pytest.raises(UnsupportedShiftError):
        SliceRing(rep_a, shifted, max_degree=2)


# -- quotient slices ---------------------------------------------------------


def test_hilbert_blocks_conifold(rep_a):
    ring = quotient_ring(rep_a)
    assert [ring.dim(n, (0,)) for n in range(7)] == [1, 0, 3, 0, 5, 0, 7]
    assert [ring.dim(n, (1,)) for n in range(7)] == [0, 2, 0, 4, 0, 6, 0]


def test_reduce_collapses_quadric(rep_a):
    piece = quotient_ring(rep_a).piece(2, (0,))
    x1y1 = (1, 0, 1, 0)
    x2y2 = (0, 1, 0, 1)
    at = piece.representatives.index(x1y1)
    assert x2y2 not in piece.representatives
    assert piece.reduce(x2y2) == ({at: -1}, 1)
    # the second call reads the relation row re-keyed by the first
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
    piece = quotient_ring(rep, upto=16).piece(16, (0,))
    rows = [
        {c: v for c, v in enumerate(row) if v}
        for row in quadric_multiples(rep, 16, (0,), piece.monomials)
    ]
    position = {m: p for p, m in enumerate(piece.representatives)}
    got = {c: piece.reduce(m) for c, m in enumerate(piece.monomials) if m not in position}
    pivots = sparse_rref(rows)
    assert piece.relation_rank == len(pivots) == len(got) > 1000
    for c, row in pivots.items():
        expected = {position[piece.monomials[k]]: -v for k, v in row.items() if k != c}
        assert got[c] == (expected, row[c])


def test_multiply_respects_relations(rep_a):
    piece = quotient_ring(rep_a).piece(2, (0,))
    x1, x2 = (1, 0, 0, 0), (0, 1, 0, 0)
    y1, y2 = (0, 0, 1, 0), (0, 0, 0, 1)
    at = piece.representatives.index((1, 0, 1, 0))
    assert piece.reduce(tuple(map(add, x1, y1))) == ({at: 1}, 1)
    assert piece.reduce(tuple(map(add, x2, y2))) == ({at: -1}, 1)


def test_piece_rank_accounting(rep_b):
    ring = quotient_ring(rep_b, upto=4)
    for n in range(5):
        for w in weight_box(rep_b, n):
            piece = ring.piece(n, w)
            assert piece.monomials is ring.monomials(n, w)
            assert piece.ambient_dim == len(piece.monomials)
            assert piece.dim == piece.ambient_dim - piece.relation_rank
            assert piece.dim == len(piece.representatives)


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
        got = [list(row) for row in quo.hilbert_matrix(n)]
        assert got == want


def test_pieces_compare_by_identity(rep_b):
    # a ring builds each slice once; two rings' equal slices stay distinct
    first, second = quotient_ring(rep_b, 4), quotient_ring(rep_b, 4)
    a, b = first.piece(4, (0, 0)), second.piece(4, (0, 0))
    assert a is first.piece(4, (0, 0))
    assert (a.monomials, a.representatives, a.relation_rank) == (
        b.monomials, b.representatives, b.relation_rank
    )
    assert a != b and a == a


def test_ambient_algebra_shares_monomials(rep_b, window_b):
    quo = GradedQuiverAlgebra(rep_b, window_b, 4)
    amb = quo.ambient()
    assert amb.quadrics == ()
    assert quo.quadrics == moment_quadrics(rep_b)
    fresh = GradedQuiverAlgebra(rep_b, window_b, 4, quadrics=())
    assert amb.hilbert_matrices() == fresh.hilbert_matrices()
    for n in range(5):
        for w in weight_box(rep_b, n):
            assert amb.ring.monomials(n, w) is quo.ring.monomials(n, w)


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
    rendered = [(r.source, r.target, r.as_string(pres.arrows)) for r in pres.relations]
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
    rendered = [(r.source, r.target, r.as_string(pres.arrows)) for r in pres.relations]
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
    assert alg.hilbert_matrix(2) == ((3, 0), (0, 3))
