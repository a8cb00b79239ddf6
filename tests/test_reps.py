"""Weight data validation, genericity, reduction, quadrics, codimension."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import SymplecticRep
from hypertoric.errors import (
    DimensionError,
    HypertoricError,
    NonFaithfulError,
    NonIntegralError,
    ReductionError,
)
from hypertoric.oracle import _dense_rank
from hypertoric.reps import (
    STANDING_ASSUMPTIONS,
    moment_quadrics,
    nongeneric_pair,
    reduce_to_generic,
    require_valid,
    singular_codim_estimate,
    validate,
)


@st.composite
def strict_reps(draw):
    s = draw(st.integers(1, 2))
    e = draw(st.integers(s, 3))
    weights = tuple(
        tuple(draw(st.integers(-2, 2)) for _ in range(s)) for _ in range(e)
    )
    rep = SymplecticRep(s, weights)
    assume(validate(rep).strictly_faithful)
    return rep


def test_validate_conifold(rep_a):
    v = validate(rep_a)
    assert v.faithful and v.strictly_faithful
    assert v.weight_rank == 1 and v.kernel_rank == 0
    assert v.invariant_factors == (1,)


def test_validate_hexagon(rep_b):
    v = validate(rep_b)
    assert v.faithful and v.strictly_faithful
    assert v.weight_rank == 2
    assert v.invariant_factors == (1, 1)


def test_validate_non_faithful():
    rep = SymplecticRep(2, ((1, 0), (2, 0)))
    v = validate(rep)
    assert not v.faithful
    assert v.kernel_rank == 1
    with pytest.raises(NonFaithfulError):
        require_valid(rep)


def test_validate_faithful_but_not_strict():
    # index-2 sublattice action: faithful on the torus, not on characters
    rep = SymplecticRep(1, ((2,),))
    v = validate(rep)
    assert v.faithful
    assert not v.strictly_faithful
    assert v.invariant_factors == (2,)


def test_validate_weight_rank_matches_oracle(corpus):
    # every corpus rep has full rank; dropping a pair can lose it
    for entry in corpus:
        rep = entry.rep
        hw = rep.half_weights
        dropped = [
            SymplecticRep(rep.torus_rank, hw[:i] + hw[i + 1:]) for i in range(len(hw))
        ]
        for r in [rep] + dropped:
            rows = [[Fraction(x) for x in w] for w in r.half_weights]
            assert validate(r).weight_rank == _dense_rank(rows)


def test_standing_assumptions_documented():
    assert len(STANDING_ASSUMPTIONS) == 2
    assert all(isinstance(a, str) and a for a in STANDING_ASSUMPTIONS)


def test_rep_weights_come_in_opposite_pairs(rep_b):
    ws = rep_b.weights
    e = rep_b.num_pairs
    assert len(ws) == 2 * e
    for i in range(e):
        assert ws[e + i] == tuple(-x for x in ws[i])


def test_rep_rejects_bad_shapes():
    with pytest.raises(Exception):
        SymplecticRep(2, ((1, 0), (1,)))
    with pytest.raises(Exception):
        SymplecticRep(-1, ())


def test_rep_is_an_immutable_value():
    # the oracle's caches key on reps, and ProblemFile.rep builds a new one
    # on each access
    rep = SymplecticRep(2, [[1, 0], (True, Fraction(2))])
    assert rep.half_weights == ((1, 0), (1, 2))
    assert all(type(x) is int for w in rep.half_weights for x in w)
    assert type(rep.half_weights) is tuple and type(rep.half_weights[1]) is tuple
    twin = SymplecticRep(2, ((1, 0), (1, 2)))
    assert rep is not twin and rep == twin and hash(rep) == hash(twin)
    assert {rep: "cached"}[twin] == "cached"
    assert rep != SymplecticRep(2, ((1, 0), (1, 3)))
    assert rep != (2, ((1, 0), (1, 2)))
    assert repr(rep) == "SymplecticRep(torus_rank=2, half_weights=((1, 0), (1, 2)))"
    with pytest.raises(DimensionError):
        SymplecticRep(2, ((1, 0), (1, 2, 3)))
    # the rank is normalised as the entries are
    for rank in (1.0, True, Fraction(1)):
        line = SymplecticRep(rank, [[1]])
        assert type(line.torus_rank) is int and line == SymplecticRep(1, [[1]])
    with pytest.raises(AttributeError):
        rep.torus_rank = 3
    with pytest.raises(AttributeError):
        del rep.half_weights
    assert rep == twin


def test_rep_refuses_non_integral_half_weights():
    # int() would truncate these to ((0,), (1,))
    with pytest.raises(NonIntegralError, match="Fraction") as info:
        SymplecticRep(1, [[Fraction(1, 2)], [1.7]])
    assert isinstance(info.value, ValueError) and isinstance(info.value, HypertoricError)
    assert info.value.exit_code == 3
    with pytest.raises(NonIntegralError, match="1.7"):
        SymplecticRep(1, [[1], [1.7]])
    # so is the torus rank; a string is not an integer either
    for rank in ("1", 1.5):
        with pytest.raises(NonIntegralError, match=repr(rank)) as info:
            SymplecticRep(rank, [[1]])
        assert info.value.exit_code == 3


# -- moment map quadrics ----------------------------------------------------


def test_quadric_strings_conifold(rep_a):
    (q,) = moment_quadrics(rep_a)
    assert q.coefficients == (1, 1)
    assert q.shift == 0
    assert q.as_string() == "x1*y1 + x2*y2"


def test_quadric_strings_hexagon(rep_b):
    q1, q2 = moment_quadrics(rep_b)
    assert q1.as_string() == "x1*y1 + x3*y3"
    assert q2.as_string() == "x2*y2 + x3*y3"


def test_quadric_level_shift(rep_a):
    (q,) = moment_quadrics(rep_a, xi=(3,))
    assert q.shift == 3
    assert q.as_string() == "x1*y1 + x2*y2 - 3"


def test_quadric_fractional_shift_kept_exact(rep_a):
    (q,) = moment_quadrics(rep_a, xi=(Fraction(1, 2),))
    assert q.shift == Fraction(1, 2)
    # integral rational levels normalize back to int
    (q2,) = moment_quadrics(rep_a, xi=(Fraction(4, 2),))
    assert q2.shift == 2 and isinstance(q2.shift, int)


# -- pair-deletion genericity and reduction ---------------------------------


def test_generic_w_frozen(rep_a, rep_b):
    assert nongeneric_pair(rep_a) is None
    assert nongeneric_pair(rep_b) is None


def test_nongeneric_pair_detects_split():
    rep = SymplecticRep(2, ((1, 0), (1, 0), (0, 1)))
    hit = nongeneric_pair(rep)
    assert hit is not None
    normal, index = hit
    assert index == 2
    assert normal == (0, 1)


def assert_split_invariants(rep, red):
    """Every split removes a half-weight pairing to 1 with its normal, and
    drops the torus rank by one."""
    current = rep
    for step in red.steps:
        removed = current.half_weights[step.removed_pair]
        assert sum(b * n for b, n in zip(removed, step.normal)) == 1
        assert len(step.projection) == current.torus_rank - 1
        current = SymplecticRep(
            current.torus_rank - 1,
            (
                tuple(sum(w * u for w, u in zip(beta, row)) for row in step.projection)
                for j, beta in enumerate(current.half_weights)
                if j != step.removed_pair
            ),
        )
    assert current == red.reduced


def test_reduce_to_generic_frozen_example():
    rep = SymplecticRep(2, ((1, 0), (1, 0), (0, 1)))
    red = reduce_to_generic(rep, chi=(1, 1), epsilon=(1, 2))
    assert len(red.steps) == 1
    assert_split_invariants(rep, red)
    step = red.steps[0]
    assert step.removed_pair == 2
    assert step.normal == (0, 1)
    assert step.projection == ((1, 0),)
    assert step.window_level == 0
    assert step.lift == ((1, 0), (0, 1))
    assert red.reduced.half_weights == ((1,), (1,))
    assert red.chi == (1,)
    assert red.epsilon == (1,)
    # lifting a reduced window point lands on the original lattice
    assert red.lift_point((0,)) == (0, 0)
    assert red.lift_point((1,)) == (1, 0)
    # int() would truncate 0.9 to 0 and lift it to (0, 0)
    with pytest.raises(NonIntegralError, match="0.9"):
        red.lift_point((0.9,))


def test_reduce_trivial_on_generic(rep_b):
    red = reduce_to_generic(rep_b, chi=(2, 1), epsilon=(2, 1))
    assert red.is_trivial
    assert red.steps == ()
    assert red.reduced == rep_b
    assert red.chi == (2, 1)


def test_reduce_requires_strict_faithfulness():
    rep = SymplecticRep(1, ((2,),))
    with pytest.raises(ReductionError):
        reduce_to_generic(rep)


def test_reduce_single_pair_to_rank_zero():
    red = reduce_to_generic(SymplecticRep(1, ((1,),)))
    assert red.reduced.torus_rank == 0
    assert red.reduced.num_pairs == 0
    assert len(red.steps) == 1


@settings(max_examples=40)
@given(strict_reps())
def test_reduce_always_reaches_generic(rep):
    red = reduce_to_generic(rep)
    assert nongeneric_pair(red.reduced) is None
    assert red.reduced.torus_rank <= rep.torus_rank
    assert len(red.steps) == rep.num_pairs - red.reduced.num_pairs
    assert_split_invariants(rep, red)


@settings(max_examples=40)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_reduction_lift_respects_projection(firsts):
    """Projecting a lifted point recovers the reduced point, step by step.

    Weights of the form (a, 0) plus a lone (0, 1) are never generic, so
    every drawn rep actually reduces.
    """
    assume(any(a in (-1, 1) for a in firsts))
    rep = SymplecticRep(2, tuple((a, 0) for a in firsts) + ((0, 1),))
    assume(validate(rep).strictly_faithful)
    red = reduce_to_generic(rep)
    assert red.steps
    zero = (0,) * red.reduced.torus_rank
    lifted = red.lift_point(zero)
    assert len(lifted) == rep.torus_rank
    current = lifted
    for step in red.steps:
        current = tuple(
            sum(r * x for r, x in zip(row, current)) for row in step.projection
        )
    assert current == zero


# -- codimension of the non-free locus --------------------------------------


def test_codim_frozen(rep_a, rep_b):
    est_a = singular_codim_estimate(rep_a)
    assert (est_a.estimate, est_a.fiber_dim) == (3, 3)
    est_b = singular_codim_estimate(rep_b)
    assert (est_b.estimate, est_b.fiber_dim) == (3, 4)
    assert est_b.bad_subset == (0,)


def test_codim_nonzero_level_skips_missed_strata(rep_a):
    # no deficient stratum passes through a generic level
    est = singular_codim_estimate(rep_a, xi=(1,))
    assert est.estimate is None
    assert est.bad_subset is None


def test_codim_fractional_level(rep_b):
    half = Fraction(1, 2)
    est = singular_codim_estimate(rep_b, xi=(half, half))
    assert (est.estimate, est.bad_subset, est.bad_rank) == (3, (2,), 1)
    assert singular_codim_estimate(rep_b, xi=(half, Fraction(1, 3))).estimate is None


def test_codim_trivial_rep():
    est = singular_codim_estimate(SymplecticRep(0, ()))
    assert est.estimate is None
    assert est.fiber_dim == 0


def subset_scan_codim(rep, xi):
    """Brute-force reference: of all 2^e pair subsets of deficient rank whose
    span holds xi, the first, by size then lex, of least codimension."""
    s, e = rep.torus_rank, rep.num_pairs
    fiber_dim, best = 2 * e - s, None
    vecs = [[Fraction(x) for x in w] for w in rep.half_weights]
    for size in range(e + 1):
        for subset in combinations(range(e), size):
            rows = [vecs[i] for i in subset]
            r = _dense_rank(rows)
            if r < s and (not any(xi) or _dense_rank(rows + [list(xi)]) == r):
                if best is None or fiber_dim - (2 * size - r) < best[0]:
                    best = (fiber_dim - (2 * size - r), subset, r)
    return (None, fiber_dim, None, None) if best is None else (best[0], fiber_dim, *best[1:])


def test_codim_flat_pass_matches_subset_scan():
    rng = random.Random(20261019)
    checked = 0
    while checked < 300:
        s = rng.randint(0, 4)
        hw = []
        for _ in range(rng.randint(s, s + 3)):
            roll = rng.random()
            if roll < 0.15 and hw:  # parallel to an earlier weight
                hw.append(tuple(rng.choice((-2, -1, 2)) * x for x in rng.choice(hw)))
            elif roll < 0.25:
                hw.append((0,) * s)
            else:
                hw.append(tuple(rng.randint(-2, 2) for _ in range(s)))
        rep = SymplecticRep(s, hw)
        if not validate(rep).faithful:
            continue
        # xi zero, in the span of a few half-weights, or anywhere
        inside = [w for w in hw if rng.random() < 0.3]
        xi = rng.choice((
            (Fraction(0),) * s,
            tuple(sum(Fraction(rng.randint(-3, 3), 2) * w[j] for w in inside) for j in range(s)),
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(s)),
        ))
        assert tuple(singular_codim_estimate(rep, xi)) == subset_scan_codim(rep, xi)
        checked += 1



def test_codim_many_pairs():
    # thirteen pairs; every hyperplane flat holds one pair, the first is (0,)
    rep = SymplecticRep(2, [(1, 0), (0, 1)] + [(1, k) for k in range(1, 12)])
    est = singular_codim_estimate(rep)
    assert (est.estimate, est.fiber_dim, est.bad_subset, est.bad_rank) == (23, 24, (0,), 1)
