"""Exact combinatorics and homological checks for symplectic torus actions.

The package follows one pipeline: validate a weight matrix, build the weight
zonotope and its tilted lattice window, form the moment-map quadrics, verify
that they cut the coordinate ring regularly, assemble the truncated window
algebra with its quiver presentation, and test the quotient for linear
(Koszul-type) resolutions.  Everything runs over exact integers and
rationals.
"""

__version__ = "0.1.0"

# the names of the README's library tour; every other name is imported from
# its module (hypertoric.reps, hypertoric.pipeline, ...)
from .reps import SymplecticRep
from .zonotope import build_zonotope, enumerate_window
from .algebra import GradedQuiverAlgebra, quiver_presentation, verify_regular_sequence
from .koszul import koszul_check

# read from the package by the benchmark's oracle check (bench/checks.py)
from .algebra import hom_dimension
from .oracle import oracle_block_dimension, oracle_lattice_points
