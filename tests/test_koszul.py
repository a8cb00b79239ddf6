"""Minimal graded resolutions of vertex simples and linearity verdicts."""

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from hypertoric import (
    GradedQuiverAlgebra,
    SymplecticRep,
    build_zonotope,
    enumerate_window,
    koszul,
    koszul_check,
    quiver_presentation,
)
from hypertoric.koszul import (
    default_depth,
    hilbert_inverse_coefficients,
    minimal_resolution,
    numerical_koszul_consistency,
)
from hypertoric.zonotope import find_generic_direction


def euler_identity_holds(alg, res, upto):
    """Alternating sum of shifted block series telescopes to the simple."""
    if res.exhausted:
        n_max = upto
    else:
        n_max = max(f for _, f in res.steps[-1])
    for n in range(n_max + 1):
        for vtx in range(alg.num_vertices):
            total = 0
            for k, step in enumerate(res.steps):
                for v, f in step:
                    if n - f >= 0:
                        total += (-1) ** k * alg.dim(v, vtx, n - f)
            want = 1 if (n == 0 and vtx == res.vertex) else 0
            if total != want:
                return False
    return True


def test_default_depth_formula(rep_a, rep_b, window_a, window_b, corpus):
    assert default_depth(GradedQuiverAlgebra(rep_a, window_a, 4)) == 2
    assert default_depth(GradedQuiverAlgebra(rep_b, window_b, 4)) == 2
    # four pairs, rank 1: 2(e - s) = 6 is capped at 4
    entry = next(x for x in corpus if (x.rep.num_pairs, x.rep.torus_rank) == (4, 1))
    window = enumerate_window(build_zonotope(entry.rep), entry.epsilon)
    assert default_depth(GradedQuiverAlgebra(entry.rep, window, 4)) == 4


def test_quotient_resolution_conifold(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    res = minimal_resolution(alg, 0, 4)
    assert res.status == "linear"
    assert res.exhausted
    assert res.steps == (((0, 0),), ((1, 1), (1, 1)), ((0, 2),))
    assert res.betti_counts == (1, 2, 1)


def test_quotient_resolution_conifold_other_vertex(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    res = minimal_resolution(alg, 1, 4)
    assert res.steps == (((1, 0),), ((0, 1), (0, 1)), ((1, 2),))
    assert res.status == "linear" and res.exhausted


def test_ambient_resolution_conifold_violates(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6, quadrics=())
    res = minimal_resolution(alg, 0, 4)
    assert res.status == "violation"
    assert res.violation == (2, 3)
    assert res.steps[2] == ((1, 3), (1, 3))
    assert not res.exhausted


def test_koszul_check_quotient_conifold(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    report = koszul_check(alg, depth=4)
    assert report.status == "linear"
    assert report.first_violation is None
    assert report.all_exhausted
    assert len(report.resolutions) == 2


def test_koszul_check_ambient_conifold(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6, quadrics=())
    report = koszul_check(alg, depth=4)
    assert report.status == "violation"
    assert report.first_violation == (0, 2, 3)


def test_koszul_check_quotient_hexagon(rep_b, window_b):
    alg = GradedQuiverAlgebra(rep_b, window_b, 6)
    report = koszul_check(alg, depth=4)
    assert report.status == "linear" and report.all_exhausted


def test_koszul_check_ambient_hexagon(rep_b, window_b):
    # the ambient window algebra is not even generated in degree one here
    alg = GradedQuiverAlgebra(rep_b, window_b, 6, quadrics=())
    report = koszul_check(alg, depth=4)
    assert report.status == "violation"
    assert report.first_violation == (0, 1, 2)


def test_truncation_limited_status(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 2)
    report = koszul_check(alg, depth=4)
    assert report.status == "truncation_limited"
    for res in report.resolutions:
        assert res.status == "truncation_limited"
        assert not res.exhausted
        assert res.betti_counts == (1, 2, 1)


def test_euler_identity_frozen_cases(rep_a, rep_b, window_a, window_b):
    for rep, window in ((rep_a, window_a), (rep_b, window_b)):
        quo = GradedQuiverAlgebra(rep, window, 6)
        for res in koszul_check(quo, depth=4).resolutions:
            assert euler_identity_holds(quo, res, 6)
        amb = quo.ambient()
        for res in koszul_check(amb, depth=4).resolutions:
            assert euler_identity_holds(amb, res, 6)


def test_numeric_consistency_quotient(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6)
    report = numerical_koszul_consistency(alg.hilbert_matrices())
    assert report.consistent
    assert report.first_negative is None
    assert report.upto == 6


def test_numeric_inconsistency_ambient(rep_a, window_a):
    alg = GradedQuiverAlgebra(rep_a, window_a, 6, quadrics=())
    report = numerical_koszul_consistency(alg.hilbert_matrices())
    assert not report.consistent
    assert report.first_negative == (3, 0, 1, -2)


def test_series_inverse_is_an_inverse(rep_a, rep_b, window_a, window_b, corpus):
    """sum_{k<=n} (-1)^k H_k P_{n-k} is I at n = 0 and zero above, for the
    quotient and the ambient algebra."""
    cases = [(rep_a, window_a), (rep_b, window_b)] + [
        (entry.rep, enumerate_window(build_zonotope(entry.rep), entry.epsilon))
        for entry in corpus
    ]
    for rep, window in cases:
        quotient = GradedQuiverAlgebra(rep, window, 6)
        for alg in (quotient, quotient.ambient()):
            series = alg.hilbert_matrices()
            inverse = hilbert_inverse_coefficients(series)
            assert len(series) == len(inverse) == 7
            size = range(alg.num_vertices)
            for n in range(7):
                product = [
                    [
                        sum(
                            (-1) ** k * series[k][i][t] * inverse[n - k][t][j]
                            for k in range(n + 1)
                            for t in size
                        )
                        for j in size
                    ]
                    for i in size
                ]
                assert product == [[int(n == 0 and i == j) for j in size] for i in size], (
                    rep,
                    alg.quadrics,
                    n,
                )


# Ledgers of the rank-2 four-pair rep at N=6, depth 4 (the pipeline's window
# for chi (3, 1), whose epsilon comes from find_generic_direction).  Its
# quotient slices have relation pivots 2, 4 and 8, never 1, so any change
# that rescales the columns of one differential separately shows up here.
# Quotient: the vertices of each step's generators; step k sits in degree k.
FOUR_PAIR_QUOTIENT = (
    ((0,), (1, 3, 4), (0, 4, 5, 6), (1, 3, 4), (0,)),
    ((1,), (0, 2, 3, 4, 5), (1, 1, 1, 3, 4, 4, 5, 6), (0, 2, 3, 4, 5), (1,)),
    ((2,), (1, 4, 5), (2, 3, 4, 6), (1, 4, 5), (2,)),
    ((3,), (0, 1, 4, 6), (1, 2, 3, 3, 4, 5), (0, 1, 4, 6), (3,)),
    ((4,), (0, 1, 2, 3, 5, 6), (0, 1, 1, 2, 3, 4, 4, 4, 4, 5), (0, 1, 2, 3, 5, 6), (4,)),
    ((5,), (1, 2, 4, 6), (0, 1, 3, 4, 5, 5), (1, 2, 4, 6), (5,)),
    ((6,), (3, 4, 5), (0, 1, 2, 6), (3, 4, 5), (6,)),
)
# Ambient: (vertex, degree) of every generator, and the violation per vertex.
FOUR_PAIR_AMBIENT = (
    ((((0, 0),), ((1, 1), (3, 1), (4, 1), (0, 2))), (1, 2)),
    ((((1, 0),), ((0, 1), (2, 1), (3, 1), (4, 1), (5, 1)),
      ((1, 2), (3, 2), (4, 2), (4, 2), (5, 2), (6, 2),
       (0, 3), (2, 3), (3, 3), (4, 3), (4, 3), (5, 3))), (2, 3)),
    ((((2, 0),), ((1, 1), (4, 1), (5, 1), (2, 2))), (1, 2)),
    ((((3, 0),), ((0, 1), (1, 1), (4, 1), (6, 1)),
      ((1, 2), (2, 2), (4, 2), (5, 2), (0, 3), (1, 3), (4, 3), (6, 3))), (2, 3)),
    ((((4, 0),), ((0, 1), (1, 1), (2, 1), (3, 1), (5, 1), (6, 1)),
      ((0, 2), (1, 2), (1, 2), (2, 2), (3, 2), (4, 2), (4, 2), (5, 2),
       (0, 3), (1, 3), (1, 3), (2, 3), (3, 3), (5, 3), (6, 3))), (2, 3)),
    ((((5, 0),), ((1, 1), (2, 1), (4, 1), (6, 1)),
      ((0, 2), (1, 2), (3, 2), (4, 2), (1, 3), (2, 3), (4, 3), (6, 3))), (2, 3)),
    ((((6, 0),), ((3, 1), (4, 1), (5, 1), (6, 2))), (1, 2)),
)


FOUR_PAIR = SymplecticRep(2, ((1, 0), (0, 1), (1, 1), (1, -1)))
THREE_PAIR = SymplecticRep(1, ((1,), (1,), (1,)))


def generic_window(rep):
    zono = build_zonotope(rep)
    return enumerate_window(zono, find_generic_direction(zono))


def test_four_pair_frozen_ledgers():
    quo = GradedQuiverAlgebra(FOUR_PAIR, generic_window(FOUR_PAIR), 6)

    quotient = koszul_check(quo, depth=4)
    assert quotient.status == "linear" and quotient.first_violation is None
    for res, vertices in zip(quotient.resolutions, FOUR_PAIR_QUOTIENT, strict=True):
        assert res.status == "linear" and not res.exhausted
        assert res.steps == tuple(
            tuple((v, k) for v in step) for k, step in enumerate(vertices)
        )

    ambient = koszul_check(quo.ambient(), depth=4)
    assert ambient.status == "violation"
    assert ambient.first_violation == (0, 1, 2)
    for res, (steps, violation) in zip(ambient.resolutions, FOUR_PAIR_AMBIENT, strict=True):
        assert res.status == "violation" and not res.exhausted
        assert (res.steps, res.violation) == (steps, violation)


# Ledgers of three-pair [[1], [1], [1]] at N=8, depth 4, recorded before
# resolution slices were certified by counting leading columns.
# Quotient: the vertices of each step's generators; step k sits in degree k.
THREE_PAIR_QUOTIENT = (
    ((0,), (1,) * 3, (0, 2, 2, 2), (1,) * 3, (0,)),
    ((1,), (0,) * 3 + (2,) * 3, (1,) * 10, (0,) * 3 + (2,) * 3, (1,)),
    ((2,), (1,) * 3, (0, 0, 0, 2), (1,) * 3, (2,)),
)
# Ambient: (vertex, degree) of every generator; each violates at (3, 4).
THREE_PAIR_AMBIENT = (
    (((0, 0),), ((1, 1),) * 3, ((2, 2),) * 3, ((2, 4),) * 3),
    (((1, 0),), ((0, 1),) * 3 + ((2, 1),) * 3, ((1, 2),) * 9, ((1, 4),) * 9),
    (((2, 0),), ((1, 1),) * 3, ((0, 2),) * 3, ((0, 4),) * 3),
)


def test_three_pair_frozen_ledgers_and_product_count(monkeypatch):
    products = 0
    times = koszul._Slice.times

    def counting(self, terms, lam):
        nonlocal products
        products += 1
        return times(self, terms, lam)

    monkeypatch.setattr(koszul._Slice, "times", counting)
    quo = GradedQuiverAlgebra(THREE_PAIR, generic_window(THREE_PAIR), 8)

    quotient = koszul_check(quo, depth=4)
    assert quotient.status == "linear" and quotient.first_violation is None
    for res, vertices in zip(quotient.resolutions, THREE_PAIR_QUOTIENT, strict=True):
        assert res.status == "linear" and not res.exhausted
        assert res.steps == tuple(
            tuple((v, k) for v in step) for k, step in enumerate(vertices)
        )

    ambient = koszul_check(quo.ambient(), depth=4)
    assert ambient.status == "violation"
    assert ambient.first_violation == (0, 3, 4)
    for res, steps in zip(ambient.resolutions, THREE_PAIR_AMBIENT, strict=True):
        assert res.status == "violation" and not res.exhausted
        assert (res.steps, res.violation) == (steps, (3, 4))

    # every product spans a slice the leading-column count left open; the
    # resolutions formed 20,283 before that count existed
    assert products < 1000


def det(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def zonotope_lattice_points(rep):
    """Sum of |det B| over the s-subsets B of half-weights."""
    return sum(abs(det(b)) for b in combinations(rep.half_weights, rep.torus_rank))


def window_fingerprint(rep, window):
    """Which of the tilting window's four identities hold at N = d + 2.

    The window algebra is a non-commutative crepant resolution, Calabi-Yau
    of global dimension d = 2(e - s).  So the coefficients P_n of H(-t)^-1,
    the block dimensions of its Koszul dual, vanish above d but not at d,
    satisfy P_{d-n} = P_n transposed, and are nonnegative.  The window holds
    the lattice points of a half-open zonotope, so its size is the sum of
    |det B| over the s-subsets B of half-weights.
    """
    d = 2 * (rep.num_pairs - rep.torus_rank)
    p = hilbert_inverse_coefficients(GradedQuiverAlgebra(rep, window, d + 2).hilbert_matrices())
    nonzero = [any(map(any, block)) for block in p]
    return {
        "size": len(window.points) == zonotope_lattice_points(rep),
        "vanishing": nonzero[d] and not any(nonzero[d + 1:]),
        "symmetry": all(p[d - n] == [list(c) for c in zip(*p[n])] for n in range(d + 1)),
        "sign": all(x >= 0 for block in p for row in block for x in row),
    }


def test_window_fingerprint(rep_a, rep_b, window_a, window_b, corpus):
    cases = [(rep_a, window_a), (rep_b, window_b)]
    cases += [(rep, generic_window(rep)) for rep in (THREE_PAIR, FOUR_PAIR)]
    cases += [(e.rep, enumerate_window(build_zonotope(e.rep), e.epsilon)) for e in corpus]
    for rep, window in cases:
        fingerprint = window_fingerprint(rep, window)
        assert all(fingerprint.values()), (rep, fingerprint)


def test_window_size_for_seeded_generic_tilts(rep_a, rep_b, corpus):
    """Every generic tilt's window holds sum |det B| points, not only the entry's own."""
    rng = random.Random(27)
    for rep in [rep_a, rep_b, THREE_PAIR, FOUR_PAIR] + [e.rep for e in corpus]:
        zono = build_zonotope(rep)
        want = zonotope_lattice_points(rep)
        tilts = 0
        while tilts < 3:
            epsilon = tuple(rng.randint(-9, 9) for _ in range(rep.torus_rank))
            if zono.generic_witness(epsilon) is None:
                assert len(enumerate_window(zono, epsilon).points) == want, (rep, epsilon)
                tilts += 1


def lemma_algebras(rep_a, rep_b, window_a, window_b, corpus, degree_bound):
    """Conifold, hexagon, four-pair and the corpus, quotient then ambient."""
    cases = [(rep_a, window_a), (rep_b, window_b), (FOUR_PAIR, generic_window(FOUR_PAIR))]
    cases += [(e.rep, enumerate_window(build_zonotope(e.rep), e.epsilon)) for e in corpus]
    for rep, window in cases:
        quo = GradedQuiverAlgebra(rep, window, degree_bound)
        yield quo
        yield quo.ambient()


def test_first_syzygies_are_the_degree_one_radical(rep_a, rep_b, window_a, window_b, corpus):
    """Step 1 takes every degree-1 element of P_0 as a minimal generator.

    The radical starts in degree 1, so nothing there is a multiple of a
    lower generator: at vertex j the step-1 generators of degree 1 number
    dim(i, j, 1), quotient and ambient side alike.
    """
    for alg in lemma_algebras(rep_a, rep_b, window_a, window_b, corpus, 4):
        for i in range(alg.num_vertices):
            steps = minimal_resolution(alg, i, 1).steps
            first = steps[1] if len(steps) > 1 else ()
            for j in range(alg.num_vertices):
                assert first.count((j, 1)) == alg.dim(i, j, 1)


def test_reduce_supported_after_its_monomial(rep_a, rep_b, window_a, window_b, corpus):
    """Representatives are in lex order and a reduced monomial lives on later ones."""
    for alg in lemma_algebras(rep_a, rep_b, window_a, window_b, corpus, 5):
        seen = set()
        for i in range(alg.num_vertices):
            for j in range(alg.num_vertices):
                for n in range(6):
                    piece = alg.piece(i, j, n)
                    if id(piece) in seen:
                        continue
                    seen.add(id(piece))
                    reps = piece.representatives
                    assert list(reps) == sorted(set(reps))
                    for mono in alg.ring.monomials(n, piece.weight):
                        row, _ = piece.reduce(mono)
                        pos = piece.position(mono)
                        if pos is None:
                            assert all(reps[p] > mono for p in row)
                        else:
                            assert reps[pos] == mono and row == {pos: 1}


def test_leading_column_is_smallest_column_of_product(
    monkeypatch, rep_a, rep_b, window_a, window_b, corpus
):
    """Every column the resolutions count is the product's smallest column."""
    checked = multi_term = 0
    leading_column = koszul._Slice.leading_column

    def checking(self, terms, lam):
        nonlocal checked, multi_term
        c = leading_column(self, terms, lam)
        if c is not None:
            row, _ = self.times(terms, lam)
            assert min(row) == c
            checked += 1
            multi_term += len(terms) > 1
        return c

    monkeypatch.setattr(koszul._Slice, "leading_column", checking)
    for alg in lemma_algebras(rep_a, rep_b, window_a, window_b, corpus, 5):
        koszul_check(alg, depth=4)
    assert checked and multi_term


def test_slice_product_drops_a_cancelled_column():
    """times leaves out a column whose terms cancel, not a zero entry.

    On three pairs of weight 1, z1 + z2 + z3 = 0 in the quotient, so
    (x2 x3 y2 - x1 x3 y1) * y3 = (z2 - z1) z3 = z1^2 - z2^2: the z1 z2
    column that both terms reach cancels.
    """
    alg = GradedQuiverAlgebra(THREE_PAIR, generic_window(THREE_PAIR), 4)
    dom = koszul._Slice(alg, [0], 4, 0)
    # exponents (x1, x2, x3, y1, y2, y3)
    terms = ((0, (0, 1, 1, 0, 1, 0), 1), (0, (1, 0, 1, 1, 0, 0), -1))
    row, scale = dom.times(terms, (0, 0, 0, 0, 0, 1))
    assert scale == 1
    assert {dom.labels[c]: v for c, v in row.items()} == {
        (0, (2, 0, 0, 2, 0, 0)): 1,
        (0, (0, 2, 0, 0, 2, 0)): -1,
    }


def pair_symmetry_cases(rep_a, rep_b, corpus):
    """The golden reps and the corpus, each with its window's tilt."""
    yield rep_a, (1,)  # conifold, as window_a
    yield rep_b, (2, 1)  # hexagon, as window_b
    for entry in corpus:
        yield entry.rep, entry.epsilon


@cache
def verdicts(rep, epsilon, upto, depth):
    """What the symmetry test compares, read from the algebra of rep's window."""
    quo = GradedQuiverAlgebra(rep, enumerate_window(build_zonotope(rep), epsilon), upto)
    relations = Counter((r.source, r.target) for r in quiver_presentation(quo).relations)
    ledgers = [
        (report.status, [(r.steps, r.status, r.exhausted) for r in report.resolutions])
        for report in (koszul_check(quo, depth), koszul_check(quo.ambient(), depth))
    ]
    return quo.vertices, quo.hilbert_matrices(), relations, ledgers


def test_pair_permutations_and_flips_keep_every_verdict(rep_a, rep_b, corpus):
    """Reordering the pairs and swapping x_i with y_i changes no verdict.

    Permuting the half-weights and negating some of them leaves the
    zonotope (the sums of c_i beta_i, c_i in [-1, 1]) and so the window as
    they were.  The ring map x_i -> x_pi(i), or x_i -> y_pi(i) and
    y_i -> -x_pi(i) where the sign flips, preserves the weights and the
    span of the moment quadrics, but it reorders every slice's lex basis.
    So the Hilbert matrices, the relations per block and both ledgers must
    agree, at N=4 and depth 4.
    """
    rng = random.Random(20261019)
    checked = 0
    for rep, epsilon in pair_symmetry_cases(rep_a, rep_b, corpus):
        e = rep.num_pairs
        perm = rng.sample(range(e), e)
        signs = [rng.choice((1, -1)) for _ in range(e)]
        moved = SymplecticRep(
            rep.torus_rank,
            tuple(tuple(sign * v for v in rep.half_weights[i]) for i, sign in zip(perm, signs)),
        )
        assert verdicts(moved, epsilon, 4, 4) == verdicts(rep, epsilon, 4, 4), (rep, perm, signs)
        checked += perm != sorted(perm) or -1 in signs
    assert checked >= 20


def unimodular(rng, s):
    """A seeded s x s integer matrix of determinant +-1, never the identity.

    A signed permutation matrix, then 2(s - 1) elementary row operations
    row_i += +-row_k; an identity draw has its first row negated.
    """
    g = [[0] * s for _ in range(s)]
    for i, k in enumerate(rng.sample(range(s), s)):
        g[i][k] = rng.choice((1, -1))
    for _ in range(2 * (s - 1)):
        i, k = rng.sample(range(s), 2)
        f = rng.choice((1, -1))
        g[i] = [a + f * b for a, b in zip(g[i], g[k])]
    if all(g[i][k] == (i == k) for i in range(s) for k in range(s)):
        g[0] = [-v for v in g[0]]
    return g


def test_lattice_automorphisms_keep_every_verdict(rep_a, rep_b, corpus):
    """A unimodular change of the character lattice changes no verdict.

    g in GL_s(Z) maps the half-weights, chi and epsilon to g beta_i, g chi
    and g epsilon.  The zonotope and its flats move by g, so the window
    moves by g up to a translation t, and chi stays generic exactly when
    it was.  The moment quadrics of g beta are the rows of g times those of
    beta, the same span over Q, so every slice (n, w) is the slice (n, g w)
    of the same quotient.  After relabelling vertex i as the position of
    g p_i + t in the new window, the Hilbert matrices, the relations per
    block and both ledgers, with their statuses, must agree, at N=4 and
    depth 4.  The original side's verdicts are shared with the pair test
    above.
    """
    rng = random.Random(20261019)
    checked = 0
    for rep, epsilon in pair_symmetry_cases(rep_a, rep_b, corpus):
        s = rep.torus_rank
        g = unimodular(rng, s)

        def act(v):
            return tuple(sum(a * b for a, b in zip(row, v)) for row in g)

        moved = SymplecticRep(s, tuple(act(beta) for beta in rep.half_weights))
        zono, moved_zono = build_zonotope(rep), build_zonotope(moved)
        for chi in (epsilon, rep.half_weights[0]):
            assert (zono.generic_witness(chi) is None) == \
                (moved_zono.generic_witness(act(chi)) is None), (rep, g, chi)
        points, hilbert, relations, ledgers = verdicts(rep, epsilon, 4, 4)
        moved_points, moved_hilbert, moved_relations, moved_ledgers = verdicts(
            moved, act(epsilon), 4, 4
        )
        images = [act(p) for p in points]
        t = tuple(a - b for a, b in zip(min(moved_points), min(images)))
        images = [tuple(map(sum, zip(p, t))) for p in images]
        assert sorted(images) == list(moved_points), (rep, g)
        label = [moved_points.index(p) for p in images]
        v = len(points)
        for mat, moved_mat in zip(hilbert, moved_hilbert, strict=True):
            assert all(moved_mat[label[i]][label[j]] == mat[i][j]
                       for i in range(v) for j in range(v)), (rep, g)
        assert moved_relations == Counter(
            {(label[i], label[j]): c for (i, j), c in relations.items()}
        ), (rep, g)
        for (status, resolutions), (moved_status, moved_resolutions) in zip(
            ledgers, moved_ledgers, strict=True
        ):
            assert moved_status == status, (rep, g)
            for i, (steps, res_status, exhausted) in enumerate(resolutions):
                relabelled = [sorted((label[u], f) for u, f in step) for step in steps]
                moved_steps, moved_res_status, moved_exhausted = moved_resolutions[label[i]]
                assert [sorted(step) for step in moved_steps] == relabelled, (rep, g, i)
                assert (moved_res_status, moved_exhausted) == (res_status, exhausted), (rep, g, i)
        checked += 1
    assert checked == 2 + len(corpus)
