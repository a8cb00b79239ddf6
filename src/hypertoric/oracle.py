"""Brute-force reference implementations, deliberately simple and slow.

Everything here is recomputed from first principles: membership in the
weight zonotope is decided by exact feasibility of the defining cube system
(projected once by Fourier-Motzkin elimination with the point kept
symbolic), tilted membership by testing the concretely shifted point
x - r*epsilon at a certified radius, and block dimensions by dense row
reduction over Fractions.  No code is shared with the engine beyond scalar
types and the representation container.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import DimensionError, ResourceBudgetError
from .lattice import IntVec
from .reps import SymplecticRep


# hard limits; the oracle refuses anything beyond them
MAX_RANK = 3
MAX_PAIRS = 5
MAX_DEGREE = 8
MAX_RADIUS = 16
MAX_ROWS = 50000


def _check_rep(rep: SymplecticRep):
    if rep.torus_rank > MAX_RANK:
        raise ResourceBudgetError(
            f"oracle limit: torus rank {rep.torus_rank} > {MAX_RANK}"
        )
    if rep.num_pairs > MAX_PAIRS:
        raise ResourceBudgetError(
            f"oracle limit: {rep.num_pairs} coordinate pairs > {MAX_PAIRS}"
        )


# ---------------------------------------------------------------------------
# zonotope membership by projection of the cube system
#
# x lies in the zonotope iff the system  sum_i a_i w_i = x,  a in [-1, 0]^(2e)
# over all 2e weights w_i is feasible.  Rows are pairs (coeffs on a, affine
# form in x): coeffs . a <= b_0 + sum_k b_k x_k, all integer.

_Row = tuple[tuple[int, ...], tuple[int, ...]]


def _norm_row(a: tuple[int, ...], b: tuple[int, ...]) -> _Row:
    g = 0
    for v in a + b:
        g = gcd(g, abs(v))
    if g > 1:
        a = tuple(v // g for v in a)
        b = tuple(v // g for v in b)
    return a, b


def _is_trivial(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(a) and not any(b[1:]) and b[0] >= 0


@lru_cache(maxsize=None)
def _zonotope_conditions(rep: SymplecticRep) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Affine conditions 0 <= b_0 + b . x equivalent to zonotope membership."""
    s = rep.torus_rank
    weights = rep.weights
    nv = len(weights)
    rows: set[_Row] = set()

    def unit(i: int, sign: int) -> tuple[int, ...]:
        return tuple(sign if j == i else 0 for j in range(nv))

    zero_b = (0,) * (s + 1)
    for i in range(nv):
        rows.add((unit(i, 1), zero_b))  # a_i <= 0
        rows.add((unit(i, -1), (1,) + (0,) * s))  # -a_i <= 1
    for k in range(s):
        coeffs = tuple(w[k] for w in weights)
        bpos = tuple(1 if j == k + 1 else 0 for j in range(s + 1))
        bneg = tuple(-1 if j == k + 1 else 0 for j in range(s + 1))
        rows.add(_norm_row(coeffs, bpos))
        rows.add(_norm_row(tuple(-c for c in coeffs), bneg))

    for j in range(nv):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        keep = {r for r in rows if r[0][j] == 0}
        for (pa, pb) in pos:
            for (na, nb) in neg:
                cp, cn = -na[j], pa[j]
                a = tuple(cp * x + cn * y for x, y in zip(pa, na))
                b = tuple(cp * x + cn * y for x, y in zip(pb, nb))
                a, b = _norm_row(a, b)
                if not _is_trivial(a, b):
                    keep.add((a, b))
            if len(keep) > MAX_ROWS:
                raise ResourceBudgetError(f"projection produced more than {MAX_ROWS} rows")
        rows = keep
    return tuple(sorted((b[0], b[1:]) for a, b in rows))


def _certified_radius(conditions, epsilon: IntVec) -> Fraction:
    """A shift radius below every scale at which any condition can flip.

    Conditions are integer, so at an integer point each value is 0 or at
    least 1 in absolute value; a shift by r*epsilon moves a value by at most
    r * |b . epsilon|.
    """
    worst = 1
    for _, b in conditions:
        pairing = abs(sum(x * y for x, y in zip(b, epsilon)))
        worst = max(worst, pairing + 1)
    return Fraction(1, worst)


def oracle_admits(rep: SymplecticRep, epsilon: IntVec) -> list[int]:
    """Refuse what oracle_lattice_points refuses, without enumerating the window.

    Checks the rank and pair limits, the tilt length, the projection's row
    limit (building the cached conditions) and the box radius, in that
    order, raising as the enumeration would; returns the box radii.
    """
    _check_rep(rep)
    s = rep.torus_rank
    if len(epsilon) != s:
        raise DimensionError(f"tilt has length {len(epsilon)}, expected {s}")
    _zonotope_conditions(rep)
    bounds = [sum(abs(w[k]) for w in rep.half_weights) // 2 for k in range(s)]
    for bnd in bounds:
        if bnd > MAX_RADIUS:
            raise ResourceBudgetError(f"bounding box radius {bnd} exceeds {MAX_RADIUS}")
    return bounds


def oracle_lattice_points(rep: SymplecticRep, epsilon: IntVec) -> set[IntVec]:
    """Reference enumeration of the tilted half-zonotope lattice points."""
    bounds = oracle_admits(rep, epsilon)
    conditions = _zonotope_conditions(rep)
    r = _certified_radius(conditions, epsilon)
    points: set[IntVec] = set()
    for p in product(*(range(-b, b + 1) for b in bounds)):
        shifted = [2 * c - r * eps for c, eps in zip(p, epsilon)]
        ok = True
        for b0, b in conditions:
            if b0 + sum(x * y for x, y in zip(b, shifted)) < 0:
                ok = False
                break
        if ok:
            points.add(p)
    return points


# ---------------------------------------------------------------------------
# block dimensions by explicit monomial enumeration and row reduction


def _exponent_vectors(n: int, k: int):
    if k == 0:
        if n == 0:
            yield ()
        return
    for last in range(n + 1):
        for head in _exponent_vectors(n - last, k - 1):
            yield head + (last,)


def _monomial_weight(rep: SymplecticRep, mono: tuple[int, ...]) -> IntVec:
    e = rep.num_pairs
    acc = [0] * rep.torus_rank
    for i in range(e):
        c = mono[i] - mono[e + i]
        if c:
            for k, b in enumerate(rep.half_weights[i]):
                acc[k] += c * b
    return tuple(acc)


@lru_cache(maxsize=64)
def _monomials_by_weight(rep: SymplecticRep, n: int) -> dict[IntVec, tuple]:
    """Degree-n exponent vectors grouped by weight, in enumeration order."""
    groups: dict[IntVec, list] = {}
    for m in _exponent_vectors(n, 2 * rep.num_pairs):
        groups.setdefault(_monomial_weight(rep, m), []).append(m)
    return {w: tuple(ms) for w, ms in groups.items()}


def _dense_rank(rows: list[list[Fraction]]) -> int:
    """Rank by forward elimination; each step touches only the pivot row's nonzeros."""
    mat = [row[:] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        pivot = [(k, v * inv) for k, v in enumerate(mat[r]) if v]
        for row in mat[r + 1:]:
            f = row[col]
            if f:
                for k, v in pivot:
                    row[k] -= f * v
        r += 1
        if r == len(mat):
            break
    return r


@lru_cache(maxsize=4096)
def _quadric_span_rank(rep: SymplecticRep, w: IntVec, n: int) -> int:
    """Rank of the moment-quadric multiples inside the degree-n, weight-w monomials."""
    e = rep.num_pairs
    index = {m: c for c, m in enumerate(_monomials_by_weight(rep, n).get(w, ()))}
    rows: list[list[Fraction]] = []
    for base in _monomials_by_weight(rep, n - 2).get(w, ()):
        for j in range(rep.torus_rank):
            row = [Fraction(0)] * len(index)
            for i in range(e):
                c = rep.half_weights[i][j]
                if c == 0:
                    continue
                prod = list(base)
                prod[i] += 1
                prod[e + i] += 1
                row[index[tuple(prod)]] += c
            if any(row):
                rows.append(row)
    return _dense_rank(rows)


def oracle_block_dimension(
    rep: SymplecticRep,
    mu: IntVec,
    mu_prime: IntVec,
    n: int,
    with_quadrics: bool,
) -> int:
    """Dimension of the degree-n block between two window characters.

    Counts monomials of weight mu_prime - mu; in quotient mode the span of
    all moment-quadric multiples is removed by dense row reduction.
    """
    _check_rep(rep)
    if n > MAX_DEGREE:
        raise ResourceBudgetError(f"oracle limit: degree {n} > {MAX_DEGREE}")
    if n < 0:
        return 0
    s = rep.torus_rank
    if len(mu) != s or len(mu_prime) != s:
        raise DimensionError("window characters must match the torus rank")
    w = tuple(b - a for a, b in zip(mu, mu_prime))
    mons = _monomials_by_weight(rep, n).get(w, ())
    if not with_quadrics:
        return len(mons)
    return len(mons) - _quadric_span_rank(rep, w, n)


# ---------------------------------------------------------------------------
# the quiver presentation, its relations read as polynomials and as paths


def _spans(rows: list[dict], poly: dict) -> bool:
    """Whether the polynomial lies in the span of the rows, by dense rank."""
    columns = sorted({m for row in rows + [poly] for m in row})
    dense = [[Fraction(row.get(m, 0)) for m in columns] for row in rows]
    return _dense_rank(dense + [[Fraction(poly.get(m, 0)) for m in columns]]) == _dense_rank(dense)


def oracle_quiver_problems(rep: SymplecticRep, epsilon: IntVec, presentation) -> list[str]:
    """What is wrong with a quiver presentation of the window algebra; [] if nothing.

    Reads only the presentation's vertices, the arrows' (source, target,
    monomial) and the relations' (source, target, terms).  The vertices must
    be the window's lattice points.  Per (source, target) block, each
    relation, read as a polynomial, lies in the span of the moment quadrics
    sum_i beta_ik x_i y_i when the block weight is 0 and is 0 otherwise; the
    relations are independent as combinations of paths (as polynomials,
    commuting paths such as y1*x1 - x1*y1 vanish); and they number the
    length-2 paths minus the block's degree-2 dimension, so none is missing.
    """
    _check_rep(rep)
    e, points, arrows = rep.num_pairs, presentation.vertices, presentation.arrows
    problems = []
    if set(points) != oracle_lattice_points(rep, epsilon):
        problems.append(f"vertices {points} are not the window's lattice points")
    quadrics = []
    for k in range(rep.torus_rank):
        quadric = {}
        for i, beta in enumerate(rep.half_weights):
            if beta[k]:
                quadric[tuple(int(j in (i, e + i)) for j in range(2 * e))] = beta[k]
        quadrics.append(quadric)
    paths: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, first in enumerate(arrows):
        for b, second in enumerate(arrows):
            if first.target == second.source:
                paths.setdefault((first.source, second.target), []).append((a, b))
    relations: dict[tuple[int, int], list] = {}
    for rel in presentation.relations:
        relations.setdefault((rel.source, rel.target), []).append(rel)
    for i, mu in enumerate(points):
        for k, mu_prime in enumerate(points):
            block, rels = paths.get((i, k), []), relations.get((i, k), [])
            index = {p: c for c, p in enumerate(block)}
            rows = []
            for rel in rels:
                poly: dict[tuple[int, ...], int] = {}
                row = [Fraction(0)] * len(block)
                for coeff, (a, b) in rel.terms:
                    if (a, b) not in index:
                        problems.append(f"block ({i}, {k}): path {(a, b)} is not in the block")
                        continue
                    row[index[(a, b)]] += coeff
                    mono = tuple(map(sum, zip(arrows[a].monomial, arrows[b].monomial)))
                    poly[mono] = poly.get(mono, 0) + coeff
                rows.append(row)
                poly = {m: c for m, c in poly.items() if c}
                if poly and not (mu == mu_prime and _spans(quadrics, poly)):
                    problems.append(f"block ({i}, {k}): relation {rel.terms} is not zero in degree 2")
            if _dense_rank(rows) < len(rels):
                problems.append(f"block ({i}, {k}): the relations are dependent as paths")
            want = len(block) - oracle_block_dimension(rep, mu, mu_prime, 2, True)
            if len(rels) != want:
                problems.append(f"block ({i}, {k}): {len(rels)} relations, expected {want}")
    return problems
