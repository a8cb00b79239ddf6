#!/usr/bin/env python3
"""Sweep the random corpus and tabulate window sizes, codimensions, verdicts.

    python3 scripts/corpus_sweep.py [--count N] [--seed S] [--upto K]

Every entry is cross-checked against the brute-force oracle; mismatches are
reported loudly and make the script exit nonzero.
"""

import argparse
import sys
from collections import Counter

from hypertoric import (
    GradedQuiverAlgebra,
    build_zonotope,
    enumerate_window,
    koszul_check,
    oracle_block_dimension,
    oracle_lattice_points,
    verify_regular_sequence,
)
from hypertoric.corpus import DEFAULT_SEED, fixed_corpus
from hypertoric.koszul import default_depth
from hypertoric.oracle import MAX_DEGREE
from hypertoric.reps import reduce_to_generic, singular_codim_estimate


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=positive_int, default=24)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--upto", type=int, default=4, choices=range(2, MAX_DEGREE + 1), metavar="K",
        help=f"degree bound for block checks, 2 to {MAX_DEGREE} (the oracle's limit)",
    )
    args = parser.parse_args(argv)

    entries = fixed_corpus(count=args.count, seed=args.seed)
    statuses: Counter = Counter()
    mismatches = 0

    for k, entry in enumerate(entries):
        rep, eps = entry.rep, entry.epsilon
        zono = build_zonotope(rep)
        window = enumerate_window(zono, eps)
        oracle_pts = oracle_lattice_points(rep, eps)
        window_ok = set(window.points) == oracle_pts

        blocks_ok = True
        alg = GradedQuiverAlgebra(rep, window, args.upto)
        for i, mu in enumerate(window.points):
            for j, mup in enumerate(window.points):
                for n in range(args.upto + 1):
                    if alg.dim(i, j, n) != oracle_block_dimension(rep, mu, mup, n, True):
                        blocks_ok = False

        regseq = verify_regular_sequence(alg)
        reduced = reduce_to_generic(rep).reduced
        codim = singular_codim_estimate(reduced).estimate
        koszul = koszul_check(alg, depth=default_depth(alg))
        statuses[koszul.status] += 1

        ok = window_ok and blocks_ok and regseq.passed
        if not ok:
            mismatches += 1
        print(
            f"[{k:02d}] s={rep.torus_rank} e={rep.num_pairs} "
            f"|window|={len(window.points)} codim={codim} "
            f"regseq={'ok' if regseq.passed else 'FAIL'} "
            f"koszul={koszul.status} "
            f"oracle={'ok' if window_ok and blocks_ok else 'MISMATCH'}"
        )

    print()
    print(f"{len(entries)} entries, koszul statuses: {dict(statuses)}")
    if mismatches:
        print(f"{mismatches} entries disagreed with the oracle or failed")
        return 1
    print("all entries agree with the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
