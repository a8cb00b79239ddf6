"""Command-line driver around the analysis pipeline.

Exit codes: 0 all checks pass, 2 a mathematical check failed (witness in
the report), 3 invalid input, 4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import (
    DegenerateZonotopeError,
    DimensionError,
    NonFaithfulError,
    ProblemFormatError,
    ReductionError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from .pipeline import ANALYSES, Budget, load_problem, run

_BUDGET_KEYS = {
    "truncation": "max_truncation",
    "depth": "max_depth",
    "window": "max_window",
    "codim_pairs": "max_codim_pairs",
    "box": "max_box",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertoric",
        description="Exact zonotope and quiver-algebra analyses of symplectic torus representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the analyses requested by a problem file")
    runp.add_argument("file", help="path to a JSON problem file")
    runp.add_argument(
        "--analyses",
        help="comma-separated subset of: " + ",".join(ANALYSES),
    )
    runp.add_argument(
        "--N", type=int, dest="truncation", metavar="K",
        help="override the truncation degree",
    )
    runp.add_argument(
        "--depth", type=int, metavar="H",
        help="override the homological depth",
    )
    runp.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report format (default json)",
    )
    runp.add_argument(
        "--budget", metavar="K=V,...",
        help="override work limits; keys: " + ",".join(sorted(_BUDGET_KEYS)),
    )
    return parser


def _parse_budget(spec: str) -> Budget:
    overrides = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key not in _BUDGET_KEYS:
            raise ProblemFormatError(
                f"bad budget entry {part!r}; keys: {', '.join(sorted(_BUDGET_KEYS))}"
            )
        try:
            limit = int(value)
        except ValueError:
            raise ProblemFormatError(f"budget value for {key!r} must be an integer")
        if limit < 1:
            raise ProblemFormatError(f"budget value for {key!r} must be positive")
        overrides[_BUDGET_KEYS[key]] = limit
    return Budget(**overrides)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        problem = load_problem(args.file)
        if args.analyses is not None:
            names = (a.strip() for a in args.analyses.split(","))
            problem = replace(problem, analyses=tuple(a for a in names if a))
        if args.truncation is not None:
            problem = replace(problem, truncation=args.truncation)
        if args.depth is not None:
            problem = replace(problem, depth=args.depth)
        budget = _parse_budget(args.budget) if args.budget else Budget()
        report = run(problem, budget)
    except ProblemFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (
        NonFaithfulError,
        ReductionError,
        UnsupportedShiftError,
        DegenerateZonotopeError,
        DimensionError,
    ) as exc:
        print(f"input invalid: {exc}", file=sys.stderr)
        return 3
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    output = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(output)
    return report.exit_code
