"""Brute-force reference answers: cube projection and dense rank counts.

The oracle deliberately shares no machinery with the engine, so agreement
here is meaningful evidence rather than a tautology.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import (
    GradedQuiverAlgebra,
    SymplecticRep,
    build_zonotope,
    enumerate_window,
    oracle,
    oracle_block_dimension,
    oracle_lattice_points,
    quiver_presentation,
)
from hypertoric.errors import DimensionError, ResourceBudgetError
from hypertoric.oracle import _dense_rank, oracle_admits, oracle_quiver_problems
from hypertoric.reps import validate


def test_dense_rank_of_integer_rows():
    # the pivot's inverse is exact: 1 / 3 in floating point left [[3, 5], [9, 15]]
    # at rank 2
    assert _dense_rank([[3, 5], [9, 15]]) == 1
    for a in range(1, 30):
        for b in range(1, 30):
            for c in range(2, 9):
                assert _dense_rank([[a, b], [c * a, c * b]]) == 1, (a, b, c)
    assert _dense_rank([[3, 5], [9, 16]]) == 2


def test_budget_defaults():
    assert oracle.MAX_RANK == 3
    assert oracle.MAX_PAIRS == 5
    assert oracle.MAX_DEGREE == 8


def test_budget_rank_guard():
    rep = SymplecticRep(4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
    with pytest.raises(ResourceBudgetError):
        oracle_lattice_points(rep, (1, 1, 1, 1))


def test_budget_pairs_guard():
    rep = SymplecticRep(1, ((1,),) * 6)
    with pytest.raises(ResourceBudgetError):
        oracle_lattice_points(rep, (1,))


def test_budget_radius_guard():
    # the box radius is (17 + 17) // 2 = 17, one over the limit
    with pytest.raises(ResourceBudgetError, match="radius 17 exceeds 16"):
        oracle_lattice_points(SymplecticRep(1, ((17,), (17,))), (1,))
    assert oracle_admits(SymplecticRep(1, ((16,), (16,))), (1,)) == [16]


@pytest.mark.parametrize("rep, epsilon, error", [
    (SymplecticRep(4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4))),
     (1, 1, 1, 1), ResourceBudgetError),
    (SymplecticRep(1, ((1,),) * 6), (1,), ResourceBudgetError),
    (SymplecticRep(1, ((17,), (17,))), (1,), ResourceBudgetError),
    (SymplecticRep(2, ((1, 0), (0, 1), (1, 1))), (1,), DimensionError),
])
def test_admission_refuses_what_enumeration_refuses(rep, epsilon, error):
    with pytest.raises(error) as admitted:
        oracle_admits(rep, epsilon)
    with pytest.raises(error) as enumerated:
        oracle_lattice_points(rep, epsilon)
    assert type(admitted.value) is type(enumerated.value)
    assert str(admitted.value) == str(enumerated.value)


def test_budget_degree_guard(rep_a):
    with pytest.raises(ResourceBudgetError):
        oracle_block_dimension(rep_a, (0,), (0,), 9, True)


def test_frozen_windows(rep_a, rep_b):
    assert oracle_lattice_points(rep_a, (1,)) == {(0,), (1,)}
    assert oracle_lattice_points(rep_a, (-1,)) == {(-1,), (0,)}
    assert oracle_lattice_points(rep_b, (2, 1)) == {(0, 0), (1, 0), (1, 1)}


def test_frozen_block_dimensions(rep_a):
    assert oracle_block_dimension(rep_a, (0,), (0,), 4, True) == 5
    assert oracle_block_dimension(rep_a, (0,), (1,), 1, False) == 2
    assert oracle_block_dimension(rep_a, (1,), (1,), 0, True) == 1


def test_trivial_rep():
    rep = SymplecticRep(0, ())
    assert oracle_lattice_points(rep, ()) == {()}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_window_negation_symmetry(data):
    s = data.draw(st.integers(1, 2))
    e = data.draw(st.integers(s, 3))
    weights = tuple(
        tuple(data.draw(st.integers(-2, 2)) for _ in range(s)) for _ in range(e)
    )
    rep = SymplecticRep(s, weights)
    assume(validate(rep).faithful)
    eps = tuple(data.draw(st.integers(-2, 2)) for _ in range(s))
    try:
        pts = oracle_lattice_points(rep, eps)
    except Exception:
        assume(False)
    neg = oracle_lattice_points(rep, tuple(-x for x in eps))
    assert neg == {tuple(-x for x in p) for p in pts}


def test_matches_engine_on_explicit_reps(rep_a, rep_b):
    for rep, eps in ((rep_a, (1,)), (rep_a, (-1,)), (rep_b, (2, 1)), (rep_b, (-1, 1))):
        window = enumerate_window(build_zonotope(rep), eps)
        assert set(window.points) == oracle_lattice_points(rep, eps)


def test_block_dims_match_engine_spot(rep_b, window_b):
    quo = GradedQuiverAlgebra(rep_b, window_b, 4)
    amb = GradedQuiverAlgebra(rep_b, window_b, 4, quadrics=())
    for i, mu in enumerate(window_b.points):
        for j, mup in enumerate(window_b.points):
            for n in range(5):
                assert quo.dim(i, j, n) == oracle_block_dimension(rep_b, mu, mup, n, True)
                assert amb.dim(i, j, n) == oracle_block_dimension(rep_b, mu, mup, n, False)


def test_quiver_presentation_matches_oracle(rep_a, rep_b, corpus):
    four_pair = SymplecticRep(2, ((1, 0), (0, 1), (1, 1), (1, -1)))
    three_pair = SymplecticRep(1, ((1,), (1,), (1,)))
    cases = [(rep_a, (1,)), (rep_b, (2, 1)), (four_pair, (3, 1)), (three_pair, (1,))]
    for rep, eps in cases + [(entry.rep, entry.epsilon) for entry in corpus]:
        alg = GradedQuiverAlgebra(rep, enumerate_window(build_zonotope(rep), eps), 4)
        assert oracle_quiver_problems(rep, eps, quiver_presentation(alg)) == [], (rep, eps)


def test_quiver_oracle_rejects_a_flipped_sign_and_a_dropped_relation(rep_b, window_b):
    pres = quiver_presentation(GradedQuiverAlgebra(rep_b, window_b, 4))
    first, *others = pres.relations
    (coeff, path), *terms = first.terms
    flipped = first._replace(terms=((-coeff, path), *terms))
    assert oracle_quiver_problems(rep_b, (2, 1), pres._replace(relations=(flipped, *others)))
    assert oracle_quiver_problems(rep_b, (2, 1), pres._replace(relations=tuple(others)))
