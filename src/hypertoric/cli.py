"""Command-line driver around the analysis pipeline.

Exit codes: 0 all checks pass, 2 a mathematical check failed (witness in
the report); an error raised by the engine exits with the code its class
declares in errors.py (3 invalid input, 4 resource budget exceeded, 5 the
report cannot be written to stdout).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import NoReturn

from .errors import HypertoricError, OutputError, ProblemFormatError
from .pipeline import ANALYSES, Budget, load_problem, run

# --budget keys are the Budget fields without their max_ prefix
_BUDGET_KEYS = {name.removeprefix("max_"): name for name in Budget._fields}


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
        problem = load_problem(args.file)._replace(
            **{k: v for k, v in overrides.items() if v is not None}
        )
        report = run(problem, _parse_budget(args.budget))
        output = report.to_json() if args.format == "json" else report.to_text()
        if sys.stdout is None:
            raise OutputError("cannot write the report: stdout is closed")
        try:
            sys.stdout.write(output)
            sys.stdout.flush()
        except (OSError, UnicodeEncodeError) as exc:
            raise _stdout_refused(exc)
    except HypertoricError as exc:
        return _fail(exc)
    return report.exit_code


def _fail(exc: HypertoricError) -> int:
    """Write exc's stderr line, if stderr takes it, and return its exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(f"{exc.label}: {exc}\n")
        except OSError:
            pass  # the line is lost; the exit code still says what happened
    return exc.exit_code


def _stdout_refused(exc: OSError | UnicodeEncodeError) -> OutputError:
    """The error for a write or flush that stdout refused, or a report it cannot encode.

    A refused stdout stays unwritable, so file descriptor 1 is pointed at
    os.devnull: what is still buffered then goes nowhere at a later flush
    instead of failing again (Python docs, "Note on SIGPIPE").  A report
    that stdout cannot encode is not buffered at all; its error has no strerror.
    """
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except OSError:
        pass
    return OutputError(f"cannot write the report: {getattr(exc, 'strerror', None) or exc}")


def console() -> NoReturn:
    """The process entry of `hypertoric` and `python -m hypertoric`: main, then exit.

    After main returns, stdout and stderr are flushed and the process ends
    with os._exit, skipping interpreter finalization (module teardown, the
    final collections, freeing every object).  main has flushed a report
    itself, so the stdout flush is for argparse's help text; one that
    stdout refuses ends with OutputError's exit code and stderr line.  A
    stderr that refuses its flush loses the line, not the exit code.  An
    exception out of main takes sys.exit's shutdown instead, which reports
    it as usual.
    """
    code = main()
    if sys.stdout is not None:  # None: main has reported it, or wrote nothing
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = _fail(_stdout_refused(exc))
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    # nothing is left for finalization to do: main registers no atexit
    # handler and has no file open when it returns (load_problem reads
    # under `with`); a file or handler added to a run must keep this true
    os._exit(code)
