#!/usr/bin/env python3
"""Sweep the random corpus and tabulate window sizes, codimensions, verdicts.

    python3 scripts/corpus_sweep.py [--count N] [--seed S] [--upto K]

Each entry runs through pipeline.run once, with every analysis, chi and
epsilon set to the entry's tilt, xi zero, truncation K and the default
depth.  The report's window, its Hilbert blocks up to degree K and its
quiver presentation are checked against the brute-force oracle.
Mismatches are reported loudly and make the script exit 1.  A count that
the corpus cannot reach within its draw cap exits 2 with one line on
stderr.
"""

import argparse
import sys
from collections import Counter

from hypertoric import oracle_block_dimension, oracle_lattice_points
from hypertoric.corpus import DEFAULT_SEED, fixed_corpus
from hypertoric.errors import ResourceBudgetError
from hypertoric.koszul import default_depth
from hypertoric.oracle import MAX_DEGREE, oracle_quiver_problems
from hypertoric.pipeline import ANALYSES, ProblemFile, run


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
        problem = ProblemFile(
            torus_rank=rep.torus_rank, half_weights=rep.half_weights, chi=eps, epsilon=eps,
            xi=(0,) * rep.torus_rank, truncation=args.upto, depth=default_depth(rep),
            analyses=ANALYSES,
        )
        sections = run(problem).sections
        points = sections["window"]["points"]
        matrices = sections["hilbert"]["matrices"]
        window_ok = set(points) == oracle_lattice_points(rep, eps)
        blocks_ok = all(
            matrices[n][i][j] == oracle_block_dimension(rep, mu, mup, n, True)
            for i, mu in enumerate(points)
            for j, mup in enumerate(points)
            for n in range(args.upto + 1)
        )
        quiver_ok = not oracle_quiver_problems(rep, eps, sections["quiver"])
        oracle_ok = window_ok and blocks_ok and quiver_ok
        regseq = sections["regular_sequence"]
        codim = sections["codimension"]["estimate"]
        koszul = sections["koszul"]["quotient"]["status"]
        statuses[koszul] += 1

        if not (oracle_ok and regseq.passed):
            mismatches += 1
        print(
            f"[{k:02d}] s={rep.torus_rank} e={rep.num_pairs} "
            f"|window|={len(points)} codim={codim} "
            f"regseq={'ok' if regseq.passed else 'FAIL'} "
            f"koszul={koszul} "
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
