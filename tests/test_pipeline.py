"""Problem parsing, report assembly, exit codes, CLI wiring."""

import argparse
import gc
import json
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertoric import algebra, cli, errors
from hypertoric.cli import main
from hypertoric.corpus import fixed_corpus
from hypertoric.errors import (
    ProblemFormatError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from hypertoric.lattice import dot, hyperplane_normals
from hypertoric.pipeline import (
    ANALYSES,
    PROBLEM_SCHEMA,
    Budget,
    Report,
    load_problem,
    parse_problem,
    run,
)

CONIFOLD = {
    "torus_rank": 1,
    "half_weights": [[1], [1]],
    "chi": [1],
    "epsilon": [1],
}


def conifold_problem(**extra):
    data = dict(CONIFOLD)
    data.update(extra)
    return parse_problem(data)


# -- parsing -----------------------------------------------------------------


def test_parse_defaults():
    p = parse_problem(dict(CONIFOLD))
    assert p.truncation == 6
    assert p.depth == 4
    assert p.analyses == ANALYSES
    assert p.xi == (Fraction(0),)
    assert p.epsilon == (1,)


def test_parse_epsilon_omitted_means_auto():
    data = dict(CONIFOLD)
    del data["epsilon"]
    assert parse_problem(data).epsilon is None
    data["epsilon"] = None
    assert parse_problem(data).epsilon is None


def test_parse_xi_rationals():
    p = conifold_problem(xi=["1/2"])
    assert p.xi == (Fraction(1, 2),)
    p = conifold_problem(xi=[3])
    assert p.xi == (Fraction(3),)


def test_parse_rejects_boolean_xi():
    with pytest.raises(ProblemFormatError):
        conifold_problem(xi=[True])


@pytest.mark.parametrize(
    "mutation",
    [
        {"torus_rank": -1},
        {"half_weights": [[1, 0], [1]]},
        {"chi": [1, 2]},
        {"epsilon": [1, 2]},
        {"xi": [1, 2]},
        {"truncation": 1},
        {"depth": 0},
        {"analyses": ["windows"]},
        {"unknown_field": 1},
        {"chi": ["a"]},
        {"xi": ["1/0"]},
    ],
)
def test_parse_rejects_malformed(mutation):
    data = dict(CONIFOLD)
    data.update(mutation)
    with pytest.raises(ProblemFormatError):
        parse_problem(data)


def test_parse_missing_required():
    with pytest.raises(ProblemFormatError) as info:
        parse_problem({"torus_rank": 1, "half_weights": [[1]]})
    assert "chi" in str(info.value)


def test_analyses_reordered_to_pipeline_order():
    p = conifold_problem(analyses=["window", "validation"])
    assert p.analyses == ("validation", "window")


def test_schema_doc_in_sync(problems_dir):
    with open(problems_dir.parent / "docs" / "problem.schema.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(PROBLEM_SCHEMA))


# -- report assembly ---------------------------------------------------------


def test_validation_only_report():
    report = run(conifold_problem(analyses=["validation"]))
    assert list(report.sections) == ["validation"]
    assert [c["name"] for c in report.checks] == ["faithful"]
    assert report.exit_code == 0


def test_window_only_report():
    report = run(conifold_problem(analyses=["window"]))
    assert list(report.sections) == ["window"]
    assert report.sections["window"]["points"] == [[0], [1]]


def test_auto_epsilon_recorded_but_not_echoed():
    data = dict(CONIFOLD)
    del data["epsilon"]
    report = run(parse_problem(data))
    eps = report.sections["genericity"]["epsilon"]
    assert eps["source"] == "auto"
    assert eps["value"] == [-1]
    echoed = json.loads(report.to_json())["input"]
    assert echoed["epsilon"] is None


def test_report_roundtrip_through_echoed_input():
    report = run(conifold_problem())
    echoed = json.loads(report.to_json())["input"]
    again = run(parse_problem(echoed))
    assert again.to_json() == report.to_json()


def test_failed_genericity_sets_exit_two(rep_b):
    p = parse_problem(
        {
            "torus_rank": 2,
            "half_weights": [[1, 0], [0, 1], [1, 1]],
            "chi": [1, 1],
            "epsilon": [2, 1],
            "analyses": ["validation", "genericity"],
        }
    )
    report = run(p)
    assert report.exit_code == 2
    chi = report.sections["genericity"]["chi"]
    assert not chi["generic"]
    assert chi["witness"] == [1, -1]


def test_nonzero_level_with_graded_analysis_rejected():
    with pytest.raises(UnsupportedShiftError):
        run(conifold_problem(xi=[1]))


def test_nonzero_level_allowed_off_the_graded_path():
    report = run(conifold_problem(xi=[1], analyses=["validation", "quadrics", "codimension"]))
    assert report.sections["quadrics"]["items"][0]["shift"] == 1
    assert report.sections["codimension"]["estimate"] is None
    assert report.exit_code == 0


def test_truncation_budget_guard():
    with pytest.raises(ResourceBudgetError):
        run(conifold_problem(truncation=12), budget=Budget(max_truncation=8))


def test_reduction_section_on_split_rep():
    p = parse_problem(
        {
            "torus_rank": 2,
            "half_weights": [[1, 0], [1, 0], [0, 1]],
            "chi": [1, 1],
            "epsilon": [1, 2],
            "analyses": ["validation", "reduction"],
        }
    )
    report = run(p)
    sec = report.sections["reduction"]
    assert sec["needed"] is True
    assert sec["steps"][0]["removed_pair"] == 2
    assert sec["reduced"]["torus_rank"] == 1
    assert sec["chi_reduced"] == [1]


def test_graded_analyses_build_each_slice_once(problems_dir, monkeypatch):
    """Regular-sequence scan, Hilbert blocks and both resolutions share one ring.

    Each slice is eliminated to echelon form once per ring, and its fully
    reduced relations are formed only when a product first lands on one.
    """
    echelons = []
    enumerations = []
    rrefs = []
    reduced = []
    landed = set()
    sparse_echelon = algebra.sparse_echelon
    sparse_rref = algebra.sparse_rref
    enumerate_slice = algebra.SliceRing._enumerate
    reduce = algebra.QuotientPiece.reduce

    def counting_echelon(rows):
        echelons.append(1)
        return sparse_echelon(rows)

    def counting_rref(rows):
        rrefs.append(1)
        return sparse_rref(rows)

    def counting_enumerate(ring, n, w):
        enumerations.append((n, w))
        return enumerate_slice(ring, n, w)

    def landing_reduce(piece, mono):
        key = (piece.degree, piece.weight)
        if mono not in piece.representatives:
            landed.add(key)
        before = len(rrefs)
        result = reduce(piece, mono)
        reduced.extend([key] * (len(rrefs) - before))
        return result

    monkeypatch.setattr(algebra, "sparse_echelon", counting_echelon)
    monkeypatch.setattr(algebra, "sparse_rref", counting_rref)
    monkeypatch.setattr(algebra.SliceRing, "_enumerate", counting_enumerate)
    monkeypatch.setattr(algebra.QuotientPiece, "reduce", landing_reduce)

    def run_hexagon(*analyses):
        for log in (echelons, enumerations, rrefs, reduced, landed):
            log.clear()
        problem = load_problem(str(problems_dir / "hexagon.json"))
        return run(replace(problem, truncation=8, depth=2, analyses=analyses))

    report = run_hexagon("hilbert", "regular_sequence")
    assert report.sections["regular_sequence"]["passed"]
    points = report.sections["hilbert"]["vertices"]
    weights = {tuple(b - a for a, b in zip(p, q)) for p in points for q in points}
    # the scan and the blocks read ranks only: one echelon per slice, no
    # reduced relations
    assert len(echelons) == 9 * len(weights)
    assert rrefs == []

    # the quiver reduces paths of length two
    run_hexagon("quiver")
    assert reduced and {n for n, _ in reduced} == {2}
    assert len(rrefs) == len(reduced)
    assert sorted(reduced) == sorted(landed)

    report = run_hexagon("hilbert", "regular_sequence", "koszul")
    # each slice of each ring is eliminated once: the quotient and the ambient
    assert len(echelons) == 2 * 9 * len(weights)
    # and its monomials are listed once, for both rings together
    assert sorted(enumerations) == sorted((n, w) for n in range(9) for w in weights)
    # a slice's relations are reduced once, and only if a product landed on one
    assert len(rrefs) == len(reduced)
    assert sorted(reduced) == sorted(landed)
    assert 0 < len(landed) < 9 * len(weights)


def test_pipeline_run_leaves_no_cyclic_garbage(problems_dir):
    """Finished rings are freed by reference counting, not the cyclic collector."""
    problems = [
        replace(
            load_problem(str(problems_dir / f"{name}.json")),
            truncation=6, depth=2, analyses=ANALYSES,
        )
        for name in ("conifold", "hexagon")
    ]
    gc.collect()
    gc.disable()
    try:
        for problem in problems:
            assert run(problem).exit_code == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_window_algebra_independent_of_chi_chamber(problems_dir):
    """The window uses epsilon alone: chi in another generic chamber gives the same algebra."""
    data = json.loads((problems_dir / "hexagon.json").read_text())
    data.update(truncation=4, depth=2)
    normals = hyperplane_normals([tuple(w) for w in data["half_weights"]])
    assert data["epsilon"] == [2, 1]
    chambers = set()
    sections = []
    for chi in ([2, 1], [1, 2], [2, -1]):
        report = run(parse_problem(dict(data, chi=chi)))
        assert report.sections["genericity"]["chi"]["generic"]
        chambers.add(tuple(dot(chi, v) > 0 for v in normals))
        sections.append({k: report.sections[k] for k in ("window", "hilbert", "quiver", "koszul")})
    assert len(chambers) == 3
    assert sections[0] == sections[1] == sections[2]


# check names a single-analysis run reports when chi and epsilon are generic
SINGLE_ANALYSIS_CHECKS = {
    "validation": ["faithful"],
    "genericity": ["chi_generic", "epsilon_generic"],
    "regular_sequence": ["regular_sequence"],
    "koszul": ["koszul_quotient"],
}


def _text_blocks(report, name):
    return [b for b in report.to_text().split("\n\n") if b.startswith(f"== {name} ==")]


@pytest.mark.parametrize(
    "name, drop_epsilon, generic",
    [
        ("conifold", False, True),
        ("hexagon", False, True),
        ("hexagon_bad_chi", False, False),
        ("reduction_pair", False, True),
        ("reduction_pair", True, True),
    ],
    ids=["conifold", "hexagon", "hexagon_bad_chi", "reduction_pair", "reduction_pair-auto-epsilon"],
)
def test_single_analysis_matches_full_run(problems_dir, name, drop_epsilon, generic):
    """An analysis computes the same section whichever others are requested."""
    data = json.loads((problems_dir / f"{name}.json").read_text())
    if drop_epsilon:
        del data["epsilon"]
    data.update(truncation=4, depth=2, analyses=list(ANALYSES))
    full = run(parse_problem(data))
    for analysis in ANALYSES:
        single = run(parse_problem(dict(data, analyses=[analysis])))
        assert single.sections.get(analysis) == full.sections.get(analysis), analysis
        assert _text_blocks(single, analysis) == _text_blocks(full, analysis), analysis
        if generic or analysis == "validation":
            expected = SINGLE_ANALYSIS_CHECKS.get(analysis, [])
        else:
            # the genericity gate stops every analysis but validation
            expected = ["chi_generic", "epsilon_generic"]
        assert [c["name"] for c in single.checks] == expected, analysis
        assert single.exit_code == (0 if generic or analysis == "validation" else 2)


def test_text_rendering_smoke():
    text = run(conifold_problem()).to_text()
    assert "== checks ==" in text
    assert "exit code: 0" in text
    assert "x1*y1 + x2*y2" in text


# -- JSON report writer ------------------------------------------------------


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def report_with(section) -> Report:
    return Report(input={}, engine={}, sections={"s": section}, checks=[], exit_code=0)


awkward_strings = st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ", "😀", "</"]
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 2**63, -(2**64) - 1, 10**30])
    | st.text()
    | awkward_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text() | awkward_strings, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example([[], {}, [[]], {"": {}}, [True, 1, False, 0, None], {"b": 1, "a": [{}]}])
@example({"é": "\U0001f600", "\x7f": "\x00", "k": [-(2**64), "\u2028"]})
def test_report_writer_matches_json_dumps(value):
    report = report_with(value)
    assert report.to_json() == dumps(vars(report))


def test_report_writer_on_corpus_sweep_reports(problems_dir):
    """Every report of a corpus sweep, as bench/problems.py builds it."""
    no_koszul = [a for a in ANALYSES if a != "koszul"]
    problems = [
        parse_problem({
            "name": f"corpus-{k:02d}",
            "torus_rank": entry.rep.torus_rank,
            "half_weights": [list(w) for w in entry.rep.half_weights],
            "chi": list(entry.epsilon),
            "truncation": 8,
            "analyses": no_koszul,
        })
        for k, entry in enumerate(fixed_corpus())
    ]
    for name in ("conifold", "hexagon", "hexagon_bad_chi", "reduction_pair"):
        problems.append(load_problem(str(problems_dir / f"{name}.json")))
    for problem in problems:
        report = run(problem)
        assert report.to_json() == dumps(vars(report))


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", Fraction(1, 2), 1.5])
def test_report_writer_rejects_non_json_values(value):
    # floats are refused too: no report value is a float
    with pytest.raises(TypeError):
        report_with(value).to_json()
    with pytest.raises(TypeError):
        report_with([{"k": value}]).to_json()
    if not isinstance(value, float):
        with pytest.raises(TypeError):
            dumps(value)


# -- CLI ---------------------------------------------------------------------


def test_cli_run_json(problems_dir, capsys):
    rc = main(["run", str(problems_dir / "conifold.json")])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["exit_code"] == 0
    assert payload["input"]["name"] == "conifold"


def test_cli_analyses_flag(problems_dir, capsys):
    rc = main(["run", str(problems_dir / "conifold.json"), "--analyses", "validation"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert list(payload["sections"]) == ["validation"]


def test_cli_overrides(problems_dir, capsys):
    rc = main(["run", str(problems_dir / "conifold.json"), "--N", "4", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H_4" in out and "H_5" not in out


def test_cli_bad_chi_exits_two(problems_dir, capsys):
    rc = main(["run", str(problems_dir / "hexagon_bad_chi.json")])
    assert rc == 2


def test_cli_budget_exceeded_exits_four(problems_dir, capsys):
    rc = main(["run", str(problems_dir / "conifold.json"), "--N", "20"])
    assert rc == 4
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--N", "1"),
        ("--depth", "0"),
        ("--budget", "truncation=0"),
        ("--budget", "window=-1"),
        ("--analyses", ","),
        ("--analyses", ""),
    ],
)
def test_cli_overrides_below_minimum_exit_three(problems_dir, capsys, flags):
    assert main(["run", str(problems_dir / "conifold.json"), *flags]) == 3
    assert "input error" in capsys.readouterr().err


def test_cli_invalid_input_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"torus_rank": 1}')
    assert main(["run", str(bad)]) == 3
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    assert main(["run", str(not_json)]) == 3


@pytest.mark.parametrize(
    "mutation",
    [
        {"truncation": 6.0},
        {"depth": 2.0},
        {"torus_rank": 1.0},
        {"chi": [1.0]},
        {"half_weights": [[1.0], [1]]},
        {"epsilon": [1.0]},
    ],
)
def test_cli_integral_float_exits_three(tmp_path, capsys, mutation):
    # draft-07 counts 6.0 as an integer; the problem format does not, so no
    # float reaches the engine or the report
    data = dict(CONIFOLD)
    data.update(mutation)
    f = tmp_path / "float.json"
    f.write_text(json.dumps(data))
    assert main(["run", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "is not of type 'integer'" in captured.err


def test_cli_non_faithful_exits_three(tmp_path, capsys):
    f = tmp_path / "nf.json"
    f.write_text(json.dumps({"torus_rank": 2, "half_weights": [[1, 0], [2, 0]], "chi": [0, 0]}))
    assert main(["run", str(f)]) == 3
    assert "input invalid" in capsys.readouterr().err


def test_cli_unsplittable_reduction_exits_three(tmp_path, capsys):
    # chi and epsilon are generic, but the half-weights do not generate the
    # character lattice, so the reduction cannot split off its non-generic
    # pair: every run that reduces exits 3, runs that do not reduce pass
    f = tmp_path / "split.json"
    f.write_text(json.dumps({
        "torus_rank": 2,
        "half_weights": [[2, 0], [0, 1], [0, 1]],
        "chi": [1, 1],
        "epsilon": [1, 2],
    }))
    assert main(["run", str(f)]) == 3
    assert "cannot split off a non-generic pair" in capsys.readouterr().err
    assert main(["run", str(f), "--analyses", "genericity,window,hilbert"]) == 0


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.HypertoricError)),
    key=lambda c: c.__name__,
)

# constructor arguments of the classes that take more than a message
ERROR_ARGS = {errors.NonFaithfulError: (1,), errors.NonGenericError: ("chi", (1,))}


def test_error_classes_declare_exit_codes():
    table = {c.__name__: (c.exit_code, c.label) for c in ERROR_CLASSES}
    assert table.pop("ResourceBudgetError") == (4, "budget exceeded")
    assert table.pop("ProblemFormatError") == (3, "input error")
    assert "HypertoricError" in table
    assert set(table.values()) == {(3, "input invalid")}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_maps_every_error_class_to_its_exit_code(problems_dir, capsys, monkeypatch, cls):
    def fail(*args):
        raise cls(*ERROR_ARGS.get(cls, ("boom",)))

    monkeypatch.setattr(cli, "run", fail)
    assert main(["run", str(problems_dir / "conifold.json")]) == cls.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{cls.label}: ")


BUDGET_KEYS = [f.name.removeprefix("max_") for f in fields(Budget)]


@pytest.mark.parametrize("key", BUDGET_KEYS)
def test_cli_every_budget_key_trips(problems_dir, capsys, key):
    assert main(["run", str(problems_dir / "conifold.json"), "--budget", f"{key}=1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded:")


def test_cli_help_lists_budget_keys(capsys):
    assert main(["run", "--help"]) == 0
    listed = re.search(r"keys:\s+(\S+)", capsys.readouterr().out).group(1)
    assert sorted(listed.split(",")) == sorted(BUDGET_KEYS)


def test_cli_box_budget_counts_tested_candidates(tmp_path, capsys):
    # the half-weights sum to 3, so 2p lies in [-3, 3] and the window
    # tests p = -1, 0, 1
    f = tmp_path / "three_pairs.json"
    f.write_text(json.dumps({"torus_rank": 1, "half_weights": [[1], [1], [1]], "chi": [1]}))
    argv = ["run", str(f), "--analyses", "window", "--budget"]
    assert main([*argv, "box=3"]) == 0
    capsys.readouterr()
    assert main([*argv, "box=2"]) == 4
    assert capsys.readouterr().err == (
        "budget exceeded: window bounding box has 3 candidates, budget 2\n"
    )


def test_cli_bad_flags(problems_dir, capsys):
    assert main(["run", str(problems_dir / "conifold.json"), "--analyses", "bogus"]) == 3
    assert main(["run", str(problems_dir / "conifold.json"), "--budget", "nope=1"]) == 3


def test_cli_usage_errors_map_to_three(capsys):
    assert main(["run"]) == 3
    assert main(["--help"]) == 0


def test_cli_main_repeated_in_process(problems_dir, golden_dir, capsys, monkeypatch):
    """A sweep calls main again and again in one process, on one parser."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    conifold = str(problems_dir / "conifold.json")
    golden = (golden_dir / "conifold_report.json").read_text()
    flags = ["--analyses", "window,hilbert", "--N", "4", "--budget", "truncation=10"]
    for _ in range(2):
        assert main(["run", conifold, *flags, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "== hilbert ==" in out and "== quiver ==" not in out
        assert main(["run", conifold]) == 0
        assert capsys.readouterr().out == golden
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hypertoric")
        assert main(["run"]) == 3
        assert "the following arguments are required: file" in capsys.readouterr().err
    assert built == ["hypertoric", "hypertoric run"]


def test_cli_subprocess_entry(problems_dir):
    conifold = str(problems_dir / "conifold.json")
    cases = [
        ((conifold,), 0),
        ((str(problems_dir / "hexagon_bad_chi.json"),), 2),
        ((conifold, "--N", "1"), 3),
        ((conifold, "--N", "20"), 4),
    ]
    for args, code in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "hypertoric", "run", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code < 3:
            assert json.loads(proc.stdout)["exit_code"] == code
        else:
            assert proc.stdout == ""


def test_run_path_imports_no_jsonschema(problems_dir, golden_dir):
    # the runtime has no third-party dependency: jsonschema is test-only
    imported = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypertoric.cli; assert 'jsonschema' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert imported.returncode == 0, imported.stderr
    blocked = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['jsonschema'] = None; from hypertoric import cli; "
         "sys.exit(cli.main(['run', 'problems/conifold.json']))"],
        capture_output=True, text=True, cwd=problems_dir.parent,
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == (golden_dir / "conifold_report.json").read_text()


def test_golden_reports(problems_dir, golden_dir):
    for name in ("conifold", "hexagon"):
        report = run(load_problem(str(problems_dir / f"{name}.json")))
        golden = (golden_dir / f"{name}_report.json").read_text()
        assert report.to_json() == golden


@pytest.mark.parametrize(
    "name", ["conifold", "hexagon", "hexagon_bad_chi", "reduction_pair"]
)
def test_golden_text(problems_dir, golden_dir, name):
    report = run(load_problem(str(problems_dir / f"{name}.json")))
    assert report.to_text() == (golden_dir / f"{name}_report.txt").read_text()
