"""Exception types shared across the package.

Each class declares the command line's exit code and stderr label for it:
every HypertoricError exits 3 unless a subclass says otherwise.
"""

from __future__ import annotations


class HypertoricError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    label = "input invalid"


class DimensionError(HypertoricError, ValueError):
    """Vectors or matrices with inconsistent shapes."""


class NonFaithfulError(HypertoricError, ValueError):
    """Weight matrix has a positive-dimensional common stabilizer."""

    def __init__(self, kernel_rank: int):
        self.kernel_rank = kernel_rank
        super().__init__(
            f"action is not faithful: the stabilizer subtorus has rank {kernel_rank}"
        )


class NonGenericError(HypertoricError, ValueError):
    """A character or tilt direction lies on a forbidden flat."""

    def __init__(self, subject: str, witness: tuple[int, ...]):
        self.subject = subject
        self.witness = witness
        super().__init__(f"{subject} is annihilated by the flat normal {witness}")


class DegenerateZonotopeError(HypertoricError, ValueError):
    """Weights do not span the character space, so the zonotope is lower-dimensional."""


class ReductionError(HypertoricError, ValueError):
    """The splitting step of the reduction is not available for this input."""


class ResourceBudgetError(HypertoricError, RuntimeError):
    """A configured size or work budget would be exceeded."""

    exit_code = 4
    label = "budget exceeded"


class MalformedAlgebraError(HypertoricError, ValueError):
    """A graded algebra violates a structural assumption (e.g. degree-0 not identity)."""


class UnsupportedShiftError(HypertoricError, ValueError):
    """Graded quotient computations are only implemented for the zero moment value."""


class ProblemFormatError(HypertoricError, ValueError):
    """A problem file fails schema or consistency validation."""

    label = "input error"

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        loc = f" (field: {field})" if field else ""
        super().__init__(f"{message}{loc}")
