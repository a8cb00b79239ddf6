#!/usr/bin/env python3
"""Sweep the random corpus and tabulate window sizes, codimensions, verdicts.

    python3 scripts/corpus_sweep.py [--count N] [--seed S] [--upto K]

Every entry is cross-checked against the brute-force oracle: its window,
its Hilbert blocks up to degree K as the report prints them, and its
quiver presentation.  Mismatches are reported loudly and make the script
exit 1.  A count that the corpus cannot reach within its draw cap exits 2
with one line on stderr.
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
    quiver_presentation,
    verify_regular_sequence,
)
from hypertoric.corpus import DEFAULT_SEED, fixed_corpus
from hypertoric.errors import ResourceBudgetError
from hypertoric.koszul import default_depth
from hypertoric.oracle import MAX_DEGREE, oracle_quiver_problems
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

    try:
        entries = fixed_corpus(count=args.count, seed=args.seed)
    except ResourceBudgetError as err:
        print(f"corpus_sweep.py: {err}", file=sys.stderr)
        return 2
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
        matrices = alg.hilbert_matrices()
        for i, mu in enumerate(window.points):
            for j, mup in enumerate(window.points):
                for n in range(args.upto + 1):
                    if matrices[n][i][j] != oracle_block_dimension(rep, mu, mup, n, True):
                        blocks_ok = False

        quiver_ok = not oracle_quiver_problems(rep, eps, quiver_presentation(alg))
        oracle_ok = window_ok and blocks_ok and quiver_ok
        regseq = verify_regular_sequence(alg)
        reduced = reduce_to_generic(rep).reduced
        codim = singular_codim_estimate(reduced).estimate
        koszul = koszul_check(alg, depth=default_depth(alg))
        statuses[koszul.status] += 1

        if not (oracle_ok and regseq.passed):
            mismatches += 1
        print(
            f"[{k:02d}] s={rep.torus_rank} e={rep.num_pairs} "
            f"|window|={len(window.points)} codim={codim} "
            f"regseq={'ok' if regseq.passed else 'FAIL'} "
            f"koszul={koszul.status} "
            f"oracle={'ok' if oracle_ok else 'MISMATCH'}"
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
