"""Zonotope facets, tilted membership, and lattice character windows."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import SymplecticRep, build_zonotope, enumerate_window
from hypertoric.errors import NonFaithfulError, NonGenericError, NonIntegralError
from hypertoric.lattice import dot
from hypertoric.reps import validate
from hypertoric.zonotope import CharacterWindow, find_generic_direction


@st.composite
def faithful_reps(draw):
    s = draw(st.integers(1, 2))
    e = draw(st.integers(s, 3))
    weights = tuple(
        tuple(draw(st.integers(-2, 2)) for _ in range(s)) for _ in range(e)
    )
    rep = SymplecticRep(s, weights)
    assume(validate(rep).faithful)
    return rep


def brute_support(rep, direction):
    # max of n.x over the folded cube image, attained at a sign pattern
    best = 0
    for signs in itertools.product((-1, 1), repeat=rep.num_pairs):
        val = sum(c * dot(direction, b) for c, b in zip(signs, rep.half_weights))
        best = max(best, val)
    return best


def test_segment_facets(rep_a):
    z = build_zonotope(rep_a)
    assert z.dimension == 1
    assert z.flat_normals == ((1,),)
    assert [(f.normal, f.offset) for f in z.facets] == [((-1,), 2), ((1,), 2)]
    assert z.contains((2,)) and z.contains((-2,))
    assert not z.contains((3,))


def test_hexagon_facets(rep_b):
    z = build_zonotope(rep_b)
    assert z.flat_normals == ((0, 1), (1, -1), (1, 0))
    assert len(z.facets) == 6
    assert all(f.offset == 2 for f in z.facets)
    normals = {f.normal for f in z.facets}
    assert normals == {(0, 1), (0, -1), (1, -1), (-1, 1), (1, 0), (-1, 0)}


def test_degenerate_weights_rejected():
    # weights that do not span act with a stabilizer, and their zonotope is flat
    with pytest.raises(NonFaithfulError):
        build_zonotope(SymplecticRep(2, ((1, 0), (2, 0))))


def test_point_zonotope():
    z = build_zonotope(SymplecticRep(0, ()))
    assert z.dimension == 0
    assert z.facets == ()
    assert z.contains(())


@settings(max_examples=40)
@given(faithful_reps())
def test_support_matches_vertex_scan(rep):
    """Each facet's offset is the zonotope's support in its normal direction."""
    z = build_zonotope(rep)
    for f in z.facets:
        assert f.offset == brute_support(rep, f.normal)


@settings(max_examples=40)
@given(faithful_reps(), st.lists(st.integers(-4, 4), min_size=1, max_size=2))
def test_contains_is_centrally_symmetric(rep, point):
    assume(len(point) == rep.torus_rank)
    z = build_zonotope(rep)
    p = tuple(point)
    assert z.contains(p) == z.contains(tuple(-x for x in p))


def test_tilted_membership_boundary(rep_a):
    z = build_zonotope(rep_a)
    # the +2 endpoint survives only when the tilt pushes its facet outward
    assert z.perturbed_contains((2,), (1,))
    assert not z.perturbed_contains((2,), (-1,))
    assert z.perturbed_contains((-2,), (-1,))
    # interior points survive any generic tilt
    assert z.perturbed_contains((0,), (1,)) and z.perturbed_contains((0,), (-1,))


def test_tilt_rejects_non_generic_direction(rep_b):
    z = build_zonotope(rep_b)
    with pytest.raises(NonGenericError) as info:
        enumerate_window(z, (1, 1))
    assert info.value.witness == (1, -1)


def test_window_refuses_non_integral_tilt(rep_a):
    # int() would truncate the tilt to (1,)
    with pytest.raises(NonIntegralError, match="1.9"):
        enumerate_window(build_zonotope(rep_a), (1.9,))


def test_generic_witness_table(rep_b):
    z = build_zonotope(rep_b)
    assert z.generic_witness((1, 0)) == (0, 1)
    assert z.generic_witness((0, 1)) == (1, 0)
    assert z.generic_witness((1, 1)) == (1, -1)
    assert z.generic_witness((2, 1)) is None


def test_window_frozen_segment(rep_a):
    z = build_zonotope(rep_a)
    assert enumerate_window(z, (1,)).points == ((0,), (1,))
    assert enumerate_window(z, (-1,)).points == ((-1,), (0,))


def test_window_frozen_hexagon(rep_b):
    z = build_zonotope(rep_b)
    w = enumerate_window(z, (2, 1))
    assert w.points == ((0, 0), (1, 0), (1, 1))
    # a one-field record: the points are all a window holds
    assert w == CharacterWindow(points=((0, 0), (1, 0), (1, 1)))
    assert w._fields == ("points",)


def test_window_requires_generic_direction(rep_b):
    z = build_zonotope(rep_b)
    with pytest.raises(NonGenericError):
        enumerate_window(z, (1, 1))


def test_window_point_rep():
    z = build_zonotope(SymplecticRep(0, ()))
    assert enumerate_window(z, ()).points == ((),)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_window_negation_symmetry(data):
    rep = data.draw(faithful_reps())
    z = build_zonotope(rep)
    eps = data.draw(
        st.tuples(*(st.integers(-3, 3) for _ in range(rep.torus_rank)))
    )
    assume(z.generic_witness(eps) is None)
    w_pos = set(enumerate_window(z, eps).points)
    w_neg = set(enumerate_window(z, tuple(-x for x in eps)).points)
    assert w_neg == {tuple(-x for x in p) for p in w_pos}
    assert (0,) * rep.torus_rank in w_pos


def test_find_generic_direction_frozen(rep_a, rep_b):
    assert find_generic_direction(build_zonotope(rep_a)) == (-1,)
    assert find_generic_direction(build_zonotope(rep_b)) == (-1, 1)


@settings(max_examples=40)
@given(faithful_reps())
def test_find_generic_direction_is_generic(rep):
    z = build_zonotope(rep)
    assert z.generic_witness(find_generic_direction(z)) is None
