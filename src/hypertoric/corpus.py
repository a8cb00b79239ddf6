"""Seeded corpus of small representations for the property-test suite.

Entries are drawn from a fixed pseudo-random stream and admitted only when
they are strictly faithful and cheap enough for both the engine and the
brute-force oracle, so the corpus is reproducible and every entry is usable
by every cross-check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .errors import ResourceBudgetError
from .lattice import IntVec
from .oracle import oracle_lattice_points
from .reps import SymplecticRep, validate
from .zonotope import build_zonotope, enumerate_window, find_generic_direction

DEFAULT_SEED = 20260815


class CorpusEntry(NamedTuple):
    rep: SymplecticRep
    epsilon: IntVec


@lru_cache(maxsize=8)
def fixed_corpus(count: int = 24, seed: int = DEFAULT_SEED) -> tuple[CorpusEntry, ...]:
    """Strictly faithful reps with s <= 2, e <= 4, entries in [-2, 2].

    The draw order is fixed by the seed; candidates are skipped when they
    are not strictly faithful, when their window is empty or has more than
    8 points, when the oracle refuses them, or when they repeat an accepted
    weight matrix.
    """
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []
    seen: set[tuple] = set()
    draws = 0
    while len(entries) < count:
        draws += 1
        if draws > 20000:
            raise RuntimeError("corpus generation did not converge")
        s = rng.choice((1, 2))
        e = rng.randint(s, 4)
        hw = tuple(tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(e))
        if hw in seen:
            continue
        rep = SymplecticRep(s, hw)
        if not validate(rep).strictly_faithful:
            continue
        zono = build_zonotope(rep)
        epsilon = find_generic_direction(zono)
        window = enumerate_window(zono, epsilon)
        if not 1 <= len(window.points) <= 8:
            continue
        try:
            oracle_lattice_points(rep, epsilon)
        except ResourceBudgetError:
            continue
        seen.add(hw)
        entries.append(CorpusEntry(rep=rep, epsilon=epsilon))
    return tuple(entries)
