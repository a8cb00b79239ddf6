"""Symplectic torus representations given by integer half-weight vectors.

A rank-s torus acting on C^(2e) in paired coordinates (x_i, y_i) is encoded
by e half-weights beta_i in Z^s; the action on x_i has weight beta_i and on
y_i weight -beta_i.  This module validates such data, produces the moment-map
quadrics, tests the weight configuration for genericity, splits off the
non-generic directions, and bounds the codimension of the non-free locus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, NamedTuple

from .errors import (
    DimensionError,
    NonFaithfulError,
    ReductionError,
    ResourceBudgetError,
)
from .lattice import (
    IntVec,
    as_int,
    dot,
    int_inverse,
    int_kernel_basis,
    primitive,
    rank,
    smith_invariant_factors,
    vec_neg,
)


class ValueRecord:
    """A record of the fields named in _fields, each set once by __init__.

    Immutable, and equal and hashed by value; an instance equals only an
    instance of its own class, never a plain tuple.  _replace builds the
    copy through __init__, so the copy is checked as the original was.
    """

    __slots__ = _fields = ()

    def _set_fields(self, *values) -> None:
        for key, value in zip(self._fields, values):
            object.__setattr__(self, key, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class SymplecticRep(ValueRecord):
    """Weight data of a torus action on a symplectic vector space.

    torus_rank: rank s of the acting torus.
    half_weights: e vectors in Z^s; the full weight list is these followed
        by their negatives.

    A ValueRecord; the rank is normalised to an int and the half-weights to
    tuples of ints on construction.
    """

    __slots__ = _fields = ("torus_rank", "half_weights")

    def __init__(self, torus_rank: int, half_weights: Iterable[IntVec]):
        torus_rank = as_int(torus_rank)
        if torus_rank < 0:
            raise DimensionError("torus rank must be nonnegative")
        hw = tuple(tuple(as_int(x) for x in w) for w in half_weights)
        for w in hw:
            if len(w) != torus_rank:
                raise DimensionError(
                    f"half-weight {w} has length {len(w)}, expected {torus_rank}"
                )
        self._set_fields(torus_rank, hw)

    @property
    def num_pairs(self) -> int:
        return len(self.half_weights)

    @property
    def weights(self) -> tuple[IntVec, ...]:
        """All 2e weights: beta_1..beta_e, then -beta_1..-beta_e."""
        return self.half_weights + tuple(vec_neg(w) for w in self.half_weights)


class ValidationReport(NamedTuple):
    torus_rank: int
    num_pairs: int
    weight_rank: int
    kernel_rank: int
    faithful: bool
    invariant_factors: tuple[int, ...]
    strictly_faithful: bool
    assumptions: tuple[str, ...]


# Conventions baked into every analysis; repeated in reports so downstream
# consumers see them without reading the source.
STANDING_ASSUMPTIONS = (
    "weights come in opposite pairs (beta_i, -beta_i), so only the half-weights are stored",
    "genericity of the weight configuration is decided by deleting whole coordinate pairs",
)


def validate(rep: SymplecticRep) -> ValidationReport:
    s = rep.torus_rank
    inv = smith_invariant_factors(rep.half_weights)
    wr = len(inv)
    strict = (wr == s) and all(f == 1 for f in inv)
    return ValidationReport(
        torus_rank=s,
        num_pairs=rep.num_pairs,
        weight_rank=wr,
        kernel_rank=s - wr,
        faithful=(wr == s),
        invariant_factors=inv,
        strictly_faithful=strict,
        assumptions=STANDING_ASSUMPTIONS,
    )


def require_valid(rep: SymplecticRep) -> ValidationReport:
    report = validate(rep)
    if not report.faithful:
        raise NonFaithfulError(report.kernel_rank)
    return report


# ---------------------------------------------------------------------------
# moment-map quadrics


def signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Render sum c*word over (c, word) pairs, skipping zero coefficients.

    The first term carries its sign; later ones are joined by " + " or
    " - ".  A coefficient of magnitude 1 is not written.
    """
    parts: list[str] = []
    for c, word in terms:
        if not c:
            continue
        mag = abs(c)
        term = word if mag == 1 else f"{mag}*{word}"
        if parts:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
        else:
            parts.append(term if c > 0 else f"-{term}")
    return " ".join(parts)


class MomentQuadric(NamedTuple):
    """One coordinate of the quadratic moment map: sum_i c_i x_i y_i - shift."""

    index: int
    coefficients: IntVec
    shift: int | Fraction = 0

    def as_string(self) -> str:
        text = signed_sum(
            (c, f"x{i + 1}*y{i + 1}") for i, c in enumerate(self.coefficients)
        )
        if self.shift:
            if not text:
                return str(-self.shift)
            text += f" {'-' if self.shift > 0 else '+'} {abs(self.shift)}"
        return text or "0"


def moment_quadrics(rep: SymplecticRep, xi: IntVec | None = None) -> tuple[MomentQuadric, ...]:
    """The s quadrics cutting out the fiber of the moment map over xi."""
    s = rep.torus_rank
    if xi is None:
        xi = (0,) * s
    if len(xi) != s:
        raise DimensionError(f"moment value has length {len(xi)}, expected {s}")

    def norm(v):
        f = Fraction(v)
        return int(f) if f.denominator == 1 else f

    return tuple(
        MomentQuadric(
            index=j,
            coefficients=tuple(w[j] for w in rep.half_weights),
            shift=norm(xi[j]),
        )
        for j in range(s)
    )


# ---------------------------------------------------------------------------
# genericity of the weight configuration


def nongeneric_pair(rep: SymplecticRep) -> tuple[IntVec, int] | None:
    """Find a coordinate pair whose deletion drops the weight span rank.

    Returns (normal, i) where the primitive normal annihilates every
    half-weight except beta_i, or None when no such pair exists (deleting
    any single pair keeps the weights spanning).
    """
    s = rep.torus_rank
    for i in range(rep.num_pairs):
        others = [w for j, w in enumerate(rep.half_weights) if j != i]
        kernel = int_kernel_basis(others, s)
        if kernel:
            return min(primitive(v) for v in kernel), i
    return None


# ---------------------------------------------------------------------------
# splitting off a non-generic pair


class ReductionStep(NamedTuple):
    """One split: coordinate pair removed_pair separates from the rest.

    normal is oriented so that it pairs to +1 with the removed half-weight.
    projection has s-1 rows; a character chi of the big torus restricts to
    chi' with chi'_k = chi . projection[k].  lift is the inverse change of
    basis: a window point p' of the reduced problem, extended by the fixed
    window_level in the split-off direction, returns to original coordinates
    as the row-vector product (p', window_level) @ lift.
    """

    removed_pair: int
    normal: IntVec
    projection: tuple[IntVec, ...]
    window_level: int
    lift: tuple[IntVec, ...]


class ReductionResult(NamedTuple):
    reduced: SymplecticRep
    steps: tuple[ReductionStep, ...]
    chi: IntVec | None = None
    epsilon: IntVec | None = None

    @property
    def is_trivial(self) -> bool:
        return not self.steps

    def lift_point(self, point: IntVec) -> IntVec:
        """Map a window point of the reduced problem to original coordinates."""
        p = tuple(as_int(x) for x in point)
        if len(p) != self.reduced.torus_rank:
            raise DimensionError(
                f"point has length {len(p)}, expected {self.reduced.torus_rank}"
            )
        for step in reversed(self.steps):
            p = p + (step.window_level,)
            n = len(p)
            p = tuple(sum(p[r] * step.lift[r][c] for r in range(n)) for c in range(n))
        return p


def project_vec(v: IntVec, projection: tuple[IntVec, ...]) -> IntVec:
    return tuple(dot(v, u) for u in projection)


def reduce_to_generic(
    rep: SymplecticRep,
    chi: IntVec | None = None,
    epsilon: IntVec | None = None,
) -> ReductionResult:
    """Split off non-generic coordinate pairs until the weights are generic.

    Each split needs the half-weights to generate the full character lattice
    (all Smith invariant factors 1); otherwise the split direction cannot be
    made an exact lattice factor and ReductionError is raised.
    """
    require_valid(rep)
    steps: list[ReductionStep] = []
    current = rep
    while True:
        found = nongeneric_pair(current)
        if found is None:
            break
        report = validate(current)
        if not report.strictly_faithful:
            raise ReductionError(
                "cannot split off a non-generic pair: the half-weights do not "
                "generate the character lattice "
                f"(invariant factors {report.invariant_factors})"
            )
        normal, i = found
        beta = current.half_weights[i]
        # the half-weights generate Z^s and the primitive normal kills all but
        # beta, so beta . normal = +-1; in particular beta is nonzero
        if dot(beta, normal) < 0:
            normal = vec_neg(normal)
        s = current.torus_rank
        complement = int_kernel_basis([beta], s)
        # change of basis with columns (complement..., normal); unimodular
        # because the removed half-weight pairs to 1 with the last column
        basis_cols = list(complement) + [normal]
        change = [tuple(basis_cols[c][r] for c in range(s)) for r in range(s)]
        lift = int_inverse(change)
        projection = tuple(complement)
        new_weights = tuple(
            project_vec(w, projection)
            for j, w in enumerate(current.half_weights)
            if j != i
        )
        steps.append(
            ReductionStep(
                removed_pair=i,
                normal=normal,
                projection=projection,
                window_level=0,
                lift=tuple(lift),
            )
        )
        current = SymplecticRep(s - 1, new_weights)
        if chi is not None:
            chi = project_vec(chi, projection)
        if epsilon is not None:
            epsilon = project_vec(epsilon, projection)
    return ReductionResult(
        reduced=current,
        steps=tuple(steps),
        chi=chi,
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# codimension bound for the locus with nontrivial stabilizer


class CodimEstimate(NamedTuple):
    """Lower bound on the codimension of the non-free locus in the fiber.

    estimate is None when no pair subset produces a degenerate stratum, in
    which case the fiber has no such locus at all.
    """

    estimate: int | None
    fiber_dim: int
    bad_subset: tuple[int, ...] | None
    bad_rank: int | None


# the estimate enumerates 2^e pair subsets; more pairs than this is over budget
MAX_CODIM_PAIRS = 12


def singular_codim_estimate(
    rep: SymplecticRep,
    xi: IntVec | None = None,
    max_pairs: int = MAX_CODIM_PAIRS,
) -> CodimEstimate:
    """Minimize fiber_dim - (2|S| - rank S) over pair subsets S of deficient rank.

    A subset S of coordinate pairs is deficient when its half-weights fail to
    span; the stratum supported exactly on S then meets the fiber over xi in
    dimension at most 2|S| - rank(S), provided xi lies in the span (otherwise
    the stratum misses the fiber and is skipped).
    """
    require_valid(rep)
    e = rep.num_pairs
    s = rep.torus_rank
    if e > max_pairs:
        raise ResourceBudgetError(
            f"codimension estimate enumerates 2^{e} subsets; limit is max_pairs={max_pairs}"
        )
    if xi is None:
        xi = (0,) * s
    if len(xi) != s:
        raise DimensionError(f"moment value has length {len(xi)}, expected {s}")
    fiber_dim = 2 * e - s
    # row scaling keeps ranks, so xi enters the span test as an integer row
    scale = lcm(*(x.denominator for x in xi))
    xi = tuple(int(x * scale) for x in xi)
    best: tuple[int, tuple[int, ...], int] | None = None
    for size in range(e + 1):
        for subset in combinations(range(e), size):
            vecs = [rep.half_weights[i] for i in subset]
            r = rank(vecs)
            if r >= s:
                continue
            if any(xi) and rank(vecs + [xi]) != r:
                continue
            codim = fiber_dim - (2 * size - r)
            if best is None or codim < best[0]:
                best = (codim, subset, r)
    if best is None:
        return CodimEstimate(estimate=None, fiber_dim=fiber_dim, bad_subset=None, bad_rank=None)
    return CodimEstimate(
        estimate=best[0],
        fiber_dim=fiber_dim,
        bad_subset=best[1],
        bad_rank=best[2],
    )
