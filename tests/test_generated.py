"""Generated problems through the command line, against the oracle and the exit contract.

The pinned corpus draws s <= 2, e <= 4 and strictly faithful reps; the
oracle admits s <= 3 and e <= 5.  Here hypothesis draws problem files
across that whole range, with entries in [-2, 2], random chi, epsilon, xi
and analysis subsets, at truncation <= 4, and runs them in process through
cli.main with a small window budget.  Every run must exit 0, 2, 3 or 4
without a traceback.  On exit 0 within the oracle's admission, the window,
the Hilbert blocks up to degree 3 and the quiver presentation must agree
with the oracle, and the echoed input must run again to the same report.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypertoric.algebra import Arrow, QuiverPresentation, Relation
from hypertoric.cli import main
from hypertoric.errors import DimensionError, ResourceBudgetError
from hypertoric.oracle import (
    oracle_admits,
    oracle_block_dimension,
    oracle_lattice_points,
    oracle_quiver_problems,
)
from hypertoric.pipeline import ANALYSES, parse_problem

ENTRY = st.integers(-2, 2)
XI_ENTRIES = st.sampled_from([0, 0, 0, "0", 1, -1, "1/2", "-3/4"])


def sometimes(draw, value):
    """value one time in four, else None."""
    return value if draw(st.integers(0, 3)) == 3 else None


@st.composite
def generated_runs(draw):
    """A problem file's data and the command-line flags to run it with.

    Most draws are well formed, so that many reach exit 0; an omitted
    epsilon is chosen generic by the engine, and a nonzero xi makes the
    graded analyses exit 3.
    """
    s = draw(st.integers(1, 3))
    e = draw(st.integers(s, 5))

    def vector(entries):
        return draw(st.lists(entries, min_size=s, max_size=s))

    # half the draws start from the unit vectors, which makes a faithful
    # action with a unimodular basis, as the corpus has
    units = [[int(i == j) for j in range(s)] for i in range(s)] if draw(st.booleans()) else []
    data = {
        "torus_rank": s,
        "half_weights": units + [vector(ENTRY) for _ in range(e - len(units))],
        "chi": vector(st.integers(-4, 4)),
        "truncation": draw(st.integers(2, 4)),
        "depth": draw(st.integers(1, 4)),
    }
    optional = {
        "epsilon": sometimes(draw, vector(st.integers(-3, 3))),
        "xi": sometimes(draw, vector(XI_ENTRIES)),
        "analyses": sometimes(
            draw, draw(st.lists(st.sampled_from(ANALYSES), unique=True, min_size=1))
        ),
    }
    data.update((k, v) for k, v in optional.items() if v is not None)
    # a small window keeps the graded analyses quick; larger ones exit 4
    return data, ["--budget", f"window={draw(st.integers(4, 10))}"]


def run_cli(path, flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def check_against_oracle(report: dict):
    """Check an exit-0 report's window, blocks and quiver, where the oracle admits them."""
    problem = parse_problem(report["input"])
    rep, sections = problem.rep, report["sections"]
    epsilon = tuple(sections["window"]["epsilon"]) if "window" in sections else problem.epsilon
    if epsilon is None:
        return
    try:
        oracle_admits(rep, epsilon)
    except (ResourceBudgetError, DimensionError):
        return
    if "window" in sections:
        points = {tuple(p) for p in sections["window"]["points"]}
        assert points == oracle_lattice_points(rep, epsilon)
    if "hilbert" in sections:
        vertices = [tuple(v) for v in sections["hilbert"]["vertices"]]
        for n, matrix in enumerate(sections["hilbert"]["matrices"][:4]):
            for i, a in enumerate(vertices):
                for j, b in enumerate(vertices):
                    assert matrix[i][j] == oracle_block_dimension(rep, a, b, n, True), (n, a, b)
    if "quiver" in sections:
        quiver = sections["quiver"]
        presentation = QuiverPresentation(
            vertices=tuple(tuple(v) for v in quiver["vertices"]),
            arrows=tuple(
                Arrow(a["source"], a["target"], a["label"], tuple(a["monomial"]))
                for a in quiver["arrows"]
            ),
            relations=tuple(
                Relation(r["source"], r["target"], tuple(
                    (t["coefficient"], tuple(t["path"])) for t in r["terms"]
                ))
                for r in quiver["relations"]
            ),
        )
        assert oracle_quiver_problems(rep, epsilon, presentation) == []


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(generated_runs())
def test_generated_problems_keep_the_contract_and_match_the_oracle(tmp_path_factory, case):
    data, flags = case
    path = tmp_path_factory.mktemp("generated") / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(path, flags)
    assert code in (0, 2, 3, 4), (data, flags, code, err)
    assert "Traceback" not in err
    if code in (3, 4):
        assert out == "" and err.count("\n") == 1, (data, flags, err)
    if code != 0:
        return
    report = json.loads(out)
    check_against_oracle(report)
    # the echoed input, overrides and defaults filled in, runs to the same report
    path.write_text(json.dumps(report["input"]), encoding="utf-8")
    assert run_cli(path, flags) == (0, out, err)
