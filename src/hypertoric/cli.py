"""Command-line driver around the analysis pipeline.

Exit codes: 0 all checks pass, 2 a mathematical check failed (witness in
the report); an error raised by the engine exits with the code its class
declares in errors.py (3 invalid input, 4 resource budget exceeded).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import cache

from .errors import HypertoricError, ProblemFormatError
from .pipeline import ANALYSES, Budget, load_problem, run

# --budget keys are the Budget fields without their max_ prefix
_BUDGET_KEYS = {f.name.removeprefix("max_"): f.name for f in fields(Budget)}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by main."""
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
        "--budget", metavar="K=V,...", default="",
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
    overrides = {"truncation": args.truncation, "depth": args.depth}
    if args.analyses is not None:
        names = (a.strip() for a in args.analyses.split(","))
        overrides["analyses"] = tuple(a for a in names if a)
    try:
        problem = replace(
            load_problem(args.file),
            **{k: v for k, v in overrides.items() if v is not None},
        )
        report = run(problem, _parse_budget(args.budget))
    except HypertoricError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    output = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(output)
    return report.exit_code
