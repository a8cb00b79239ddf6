"""Problem parsing, report assembly, exit codes, CLI wiring."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertoric import SymplecticRep, algebra, cli, errors, pipeline
from hypertoric.cli import main
from hypertoric.corpus import fixed_corpus
from hypertoric.errors import (
    ProblemFormatError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from hypertoric.koszul import NumericalKoszulReport
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
    # the schema refuses a boolean before any xi entry is read as a number
    message = "True is not of type 'integer', 'string'"
    with pytest.raises(ProblemFormatError, match=message) as info:
        conifold_problem(xi=[True])
    assert info.value.field == "xi.0"


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
        {"xi": ["1/" + "1" * 5000]},  # over the interpreter's integer digit limit
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


def test_problem_overrides_are_checked_and_reordered():
    # a library-side override is held to the rules a parsed file is; with
    # no override the record, immutable, is its own copy
    p = conifold_problem()
    assert p._replace() is p
    q = p._replace(truncation=3, depth=2, analyses=("koszul", "window", "koszul"))
    assert (q.truncation, q.depth, q.analyses) == (3, 2, ("window", "koszul"))
    assert (p.truncation, p.depth, p.analyses) == (6, 4, ANALYSES)
    assert q._replace(truncation=6, depth=4, analyses=ANALYSES) == p
    assert p.rep is not p.rep and p.rep == p.rep and hash(p.rep) == hash(p.rep)
    for bad in ({"truncation": 1}, {"depth": 0}, {"analyses": ()}, {"analyses": ("nope",)}):
        with pytest.raises(ProblemFormatError):
            p._replace(**bad)
    with pytest.raises(AttributeError):
        p.depth = 2


def test_records_refuse_assignment():
    report = run(conifold_problem(analyses=["validation"]))
    for record, field in ((report, "exit_code"), (Budget(), "max_depth")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    assert report.exit_code == 0 and Budget().max_depth == 8


def test_schema_doc_in_sync(problems_dir):
    with open(problems_dir.parent / "docs" / "problem.schema.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(PROBLEM_SCHEMA))


# -- report assembly ---------------------------------------------------------


def decoded_sections(report) -> dict:
    """The report's sections as its JSON text decodes them: plain JSON values."""
    return json.loads(report.to_json())["sections"]


def test_validation_only_report():
    report = run(conifold_problem(analyses=["validation"]))
    assert list(report.sections) == ["validation"]
    assert [c["name"] for c in report.checks] == ["faithful"]
    assert report.exit_code == 0


def test_window_only_report():
    report = run(conifold_problem(analyses=["window"]))
    assert list(report.sections) == ["window"]
    assert decoded_sections(report)["window"]["points"] == [[0], [1]]


def test_auto_epsilon_recorded_but_not_echoed():
    data = dict(CONIFOLD)
    del data["epsilon"]
    report = run(parse_problem(data))
    eps = decoded_sections(report)["genericity"]["epsilon"]
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
    chi = decoded_sections(report)["genericity"]["chi"]
    assert not chi["generic"]
    assert chi["witness"] == [1, -1]


def test_nonzero_level_with_graded_analysis_rejected():
    with pytest.raises(UnsupportedShiftError):
        run(conifold_problem(xi=[1]))


def test_nonzero_level_allowed_off_the_graded_path():
    report = run(conifold_problem(xi=[1], analyses=["validation", "quadrics", "codimension"]))
    sections = decoded_sections(report)
    assert sections["quadrics"]["items"][0]["shift"] == 1
    assert sections["codimension"]["estimate"] is None
    assert report.exit_code == 0
    # a fractional level is written as a "p/q" string in JSON, as p/q in text
    hexagon = {"torus_rank": 2, "half_weights": [[1, 0], [0, 1], [1, 1]], "chi": [1, 2]}
    report = run(parse_problem({**hexagon, "xi": ["1/2", 0], "analyses": ["quadrics"]}))
    section = json.loads(report.to_json())["sections"]["quadrics"]
    assert section["xi"] == ["1/2", 0]
    assert section["items"][0]["shift"] == "1/2"
    assert "q1 = x1*y1 + x3*y3 - 1/2\n" in report.to_text()


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
    sec = decoded_sections(report)["reduction"]
    assert sec["needed"] is True
    assert sec["steps"][0]["removed_pair"] == 2
    assert sec["reduced"]["torus_rank"] == 1
    assert sec["chi_reduced"] == [1]


class SliceWork:
    """What a run spends on slices: rings, pieces, echelons, enumerations, reductions.

    rings logs each SliceRing built, pieces each QuotientPiece built and
    rrefs each sparse_rref; reduced names the slice of each sparse_rref
    that ran inside reduce; landed, the slices where reduce was asked for a
    monomial outside the representatives.
    """

    def __init__(self, problems_dir, monkeypatch):
        self.problems_dir = problems_dir
        self.rings = []
        self.pieces = []
        self.echelons = []
        self.enumerations = []
        self.rrefs = []
        self.reduced = []
        self.landed = set()
        ring_init = algebra.SliceRing.__init__
        piece_init = algebra.QuotientPiece.__init__
        sparse_echelon = algebra.sparse_echelon
        sparse_rref = algebra.sparse_rref
        enumerate_slice = algebra._MonomialStore._enumerate
        reduce = algebra.QuotientPiece.reduce

        def counting_init(ring, *args, **kwargs):
            self.rings.append(1)
            ring_init(ring, *args, **kwargs)

        def counting_piece(piece, degree, weight, *args, **kwargs):
            self.pieces.append((degree, weight))
            piece_init(piece, degree, weight, *args, **kwargs)

        def counting_echelon(rows):
            self.echelons.append(1)
            return sparse_echelon(rows)

        def counting_rref(rows):
            self.rrefs.append(1)
            return sparse_rref(rows)

        def counting_enumerate(store, n, w):
            self.enumerations.append((n, w))
            return enumerate_slice(store, n, w)

        def landing_reduce(piece, mono):
            key = (piece.degree, piece.weight)
            if mono not in piece.representatives:
                self.landed.add(key)
            before = len(self.rrefs)
            result = reduce(piece, mono)
            self.reduced.extend([key] * (len(self.rrefs) - before))
            return result

        monkeypatch.setattr(algebra.SliceRing, "__init__", counting_init)
        monkeypatch.setattr(algebra.QuotientPiece, "__init__", counting_piece)
        monkeypatch.setattr(algebra, "sparse_echelon", counting_echelon)
        monkeypatch.setattr(algebra, "sparse_rref", counting_rref)
        monkeypatch.setattr(algebra._MonomialStore, "_enumerate", counting_enumerate)
        monkeypatch.setattr(algebra.QuotientPiece, "reduce", landing_reduce)

    def run(self, name, *analyses):
        """Run a shipped problem at N=8, depth 2, on fresh logs."""
        logs = (
            self.rings, self.pieces, self.echelons, self.enumerations, self.rrefs, self.reduced,
            self.landed,
        )
        for log in logs:
            log.clear()
        problem = load_problem(str(self.problems_dir / f"{name}.json"))
        return run(problem._replace(truncation=8, depth=2, analyses=analyses))


def test_graded_analyses_build_each_slice_once(problems_dir, monkeypatch):
    """Regular-sequence test, Hilbert blocks and both resolutions share one store.

    Each slice of the two-quadric ring is eliminated to echelon form once;
    the ambient ring, with no quadric, counts its slices and eliminates
    none.  The quadrics are brought to reduced echelon form once per ring,
    and reduce runs no elimination: it substitutes the ring's reduced
    quadrics.  The quiver alone builds no piece and lists no slice.
    """
    work = SliceWork(problems_dir, monkeypatch)
    rings, echelons, enumerations, rrefs = work.rings, work.echelons, work.enumerations, work.rrefs
    reduced, landed = work.reduced, work.landed

    def run_hexagon(*analyses):
        return work.run("hexagon", *analyses)

    sections = decoded_sections(run_hexagon("hilbert", "regular_sequence"))
    assert sections["regular_sequence"]["passed"]
    points = sections["hilbert"]["vertices"]
    weights = {tuple(b - a for a, b in zip(p, q)) for p in points for q in points}
    # the blocks read ranks only: one echelon per slice, and
    # one reduced echelon of the quadrics per ring
    assert len(echelons) == 9 * len(weights)
    assert len(rrefs) == len(rings) > 0
    assert reduced == []

    # the quiver reads the half-weights and the reduced quadrics only
    run_hexagon("quiver")
    assert work.pieces == [] and enumerations == [] and echelons == []
    assert landed == set() and reduced == []
    assert len(rrefs) == len(rings) > 0

    report = run_hexagon("hilbert", "regular_sequence", "koszul")
    # the quotient ring and its ambient(), which shares the store
    assert len(rings) == 2
    # each slice of the quotient is eliminated once, and none of the ambient
    assert len(echelons) == 9 * len(weights)
    # and its monomials are listed once, for both rings together
    assert sorted(enumerations) == sorted((n, w) for n in range(9) for w in weights)
    # products land on some slices, and reduce eliminates on none
    assert len(rrefs) == len(rings)
    assert reduced == []
    assert 0 < len(landed) < 9 * len(weights)


def test_one_quadric_counts_slices_without_elimination(problems_dir, monkeypatch):
    """A rank-one ring counts each slice from the Hilbert series.

    Conifold at N=8: the regular-sequence test and the blocks list no
    monomial and run no echelon; the quiver builds no piece, lists no
    slice and reduces nothing.  The only sparse_rref is the quadrics'
    reduced echelon, once per ring.
    """
    work = SliceWork(problems_dir, monkeypatch)
    report = work.run("conifold", "hilbert", "regular_sequence")
    assert decoded_sections(report)["regular_sequence"]["passed"]
    assert work.enumerations == [] and work.echelons == []
    assert len(work.rrefs) == len(work.rings) > 0

    work.run("conifold", "quiver")
    assert work.pieces == [] and work.enumerations == [] and work.echelons == []
    assert work.landed == set() and work.reduced == []
    assert len(work.rrefs) == len(work.rings) > 0


def test_regular_sequence_alone_reads_no_slice(problems_dir, monkeypatch):
    """The regular-sequence test reads the quadrics' rank and counts, and no slice.

    Hexagon, `regular_sequence` alone at N=8: its two independent quadrics
    pass with no piece built, no slice listed and no echelon.  With the
    first quadric duplicated (rank 2 of 3) the run still builds, lists and
    eliminates nothing; it reports the failure at degree 2 and weight 0,
    in the JSON section and in the text report, and exits 2.
    """
    work = SliceWork(problems_dir, monkeypatch)
    report = work.run("hexagon", "regular_sequence")
    assert decoded_sections(report)["regular_sequence"]["passed"]
    assert work.pieces == [] and work.enumerations == [] and work.echelons == []

    moment_quadrics = pipeline.moment_quadrics

    def duplicated(*args):
        qs = moment_quadrics(*args)
        return qs + (qs[0],)

    monkeypatch.setattr(pipeline, "moment_quadrics", duplicated)
    report = work.run("hexagon", "regular_sequence")
    section = decoded_sections(report)["regular_sequence"]
    assert not section["passed"] and section["num_quadrics"] == 3
    assert section["first_failure"] == {"degree": 2, "weight": [0, 0], "got": 1, "expected": 0}
    assert work.pieces == [] and work.enumerations == [] and work.echelons == []
    assert report.exit_code == 2
    assert (
        "first failure: degree 2, weight (0, 0), dimension 1 vs expected 0" in report.to_text()
    )


def test_pipeline_run_leaves_no_cyclic_garbage(problems_dir):
    """Finished rings are freed by reference counting, not the cyclic collector."""
    problems = [
        load_problem(str(problems_dir / f"{name}.json"))._replace(
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
    normals = hyperplane_normals([tuple(w) for w in data["half_weights"]], 2)
    assert data["epsilon"] == [2, 1]
    chambers = set()
    sections = []
    for chi in ([2, 1], [1, 2], [2, -1]):
        decoded = decoded_sections(run(parse_problem(dict(data, chi=chi))))
        assert decoded["genericity"]["chi"]["generic"]
        chambers.add(tuple(dot(chi, v) > 0 for v in normals))
        sections.append({k: decoded[k] for k in ("window", "hilbert", "quiver", "koszul")})
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
        got = decoded_sections(single).get(analysis)
        assert got == decoded_sections(full).get(analysis), analysis
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


def plain(value):
    """The plain JSON form the writer writes, normalized independently of it.

    A record is any class with a _fields tuple: the named tuples and the
    ValueRecord classes (SymplecticRep, ProblemFile).  Its exact type is
    never tuple, so it becomes an object of its fields, not a list.  A
    Fraction becomes an int or "n/d"; any other value is left for json.dumps.
    """
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:
        return [plain(v) for v in value]
    if kind is dict:
        return {str(k): plain(v) for k, v in value.items()}
    if kind is Fraction:
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    names = getattr(kind, "_fields", None)
    if names is not None:
        return {name: plain(getattr(value, name)) for name in names}
    return value


def dumps(value) -> str:
    return json.dumps(plain(value), sort_keys=True, indent=2) + "\n"


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
    assert report.to_json() == dumps(report._asdict())


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
        assert report.to_json() == dumps(report._asdict())


@pytest.mark.parametrize(
    "value",
    [object(), {1, 2}, b"bytes", 1.5, b"", set(), frozenset(), 0.0],
)
def test_report_writer_rejects_non_json_values(value):
    # floats are refused too: no report value is a float; the empty and
    # zero values are refused by their type, not written as an empty list
    with pytest.raises(TypeError):
        report_with(value).to_json()
    with pytest.raises(TypeError):
        report_with([{"k": value}]).to_json()
    if not isinstance(value, float):
        with pytest.raises(TypeError):
            dumps(value)


class Nested(NamedTuple):
    zeta: tuple
    alpha: Fraction
    middle: dict


@pytest.mark.parametrize(
    "value, plain_value",
    [
        (Fraction(1, 2), "1/2"),
        (Fraction(-3, 4), "-3/4"),
        (Fraction(4, 2), 2),
        (Fraction(0), 0),
        (
            [Nested((Nested((), Fraction(5, 3), {}),), Fraction(-2), {"b": (1,), "a": None})],
            [{
                "alpha": -2,
                "middle": {"a": None, "b": [1]},
                "zeta": [{"alpha": "5/3", "middle": {}, "zeta": []}],
            }],
        ),
        (SymplecticRep(1, [[1], [2]]), {"half_weights": [[1], [2]], "torus_rank": 1}),
    ],
    ids=["half", "negative", "integral", "zero", "nested-record", "value-record"],
)
def test_report_writer_writes_fractions_and_records(value, plain_value):
    """A Fraction is an int or "n/d", a record an object of its fields in sorted order."""
    text = report_with(value).to_json()
    assert text == dumps(report_with(plain_value)._asdict())
    assert json.loads(text)["sections"]["s"] == plain_value


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


def test_cli_truncation_too_small_for_depth_is_inconclusive(problems_dir, capsys):
    # at N=2 the quotient's resolution runs out of degrees before depth 4
    rc = main(["run", str(problems_dir / "conifold.json"), "--N", "2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["exit_code"] == 0
    assert report["sections"]["koszul"]["quotient"]["status"] == "truncation_limited"
    (check,) = [c for c in report["checks"] if c["name"] == "koszul_quotient"]
    assert check == {
        "name": "koszul_quotient",
        "status": "INCONCLUSIVE",
        "detail": "truncation too small for the requested depth",
    }


def test_cli_negative_series_inverse_fails_koszul(problems_dir, capsys, monkeypatch):
    """A negative entry of the inverted Hilbert series fails the koszul check.

    On valid input a linear ledger never meets a negative inverse, so the
    sign test's report is injected on conifold: the ledger stays linear,
    and the check must still FAIL and the run exit 2.
    """
    negative = NumericalKoszulReport(upto=6, consistent=False, first_negative=(2, 0, 0, -1))
    monkeypatch.setattr(pipeline, "numerical_koszul_consistency", lambda matrices: negative)
    rc = main(["run", str(problems_dir / "conifold.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2 and report["exit_code"] == 2
    assert report["sections"]["koszul"]["quotient"]["status"] == "linear"
    (check,) = [c for c in report["checks"] if c["name"] == "koszul_quotient"]
    assert check == {
        "name": "koszul_quotient",
        "status": "FAIL",
        "detail": "resolution not linear",
    }


@pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["missing", "array"])
def test_cli_unreadable_or_non_object_file_exits_three(tmp_path, capsys, content):
    f = tmp_path / "problem.json"
    if content is not None:
        f.write_text(content)
    assert main(["run", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_cli_invalid_input_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"torus_rank": 1}')
    assert main(["run", str(bad)]) == 3
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    assert main(["run", str(not_json)]) == 3


@pytest.mark.parametrize(
    "content",
    [
        b'{"name": "\xff", "torus_rank": 1, "half_weights": [[1]], "chi": [1]}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"torus_rank": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf8", "nested", "digits"],
)
def test_cli_undecodable_file_exits_three(tmp_path, capsys, content):
    f = tmp_path / "undecodable.json"
    f.write_bytes(content)
    assert main(["run", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: invalid JSON: ")


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
    assert table.pop("OutputError") == (5, "output error")
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


BUDGET_KEYS = [name.removeprefix("max_") for name in Budget._fields]


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


def test_cli_box_budget_counts_beyond_machine_sizes(tmp_path, capsys):
    # 2p lies in [-(10^30 + 1), 10^30 + 1]: more candidates than a range's
    # len() can return
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"torus_rank": 1, "half_weights": [[10**30], [1]], "chi": [1]}))
    assert main(["run", str(f), "--analyses", "window"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: window bounding box has {10**30 + 1} candidates, budget 200000\n"
    )


def test_cli_bad_flags(problems_dir, capsys):
    assert main(["run", str(problems_dir / "conifold.json"), "--analyses", "bogus"]) == 3
    assert main(["run", str(problems_dir / "conifold.json"), "--budget", "nope=1"]) == 3
    capsys.readouterr()
    assert main(["run", str(problems_dir / "conifold.json"), "--budget", "window=abc"]) == 3
    assert capsys.readouterr().err == "input error: budget value for 'window' must be an integer\n"


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
    errors = {
        3: "input error: 1 is less than the minimum of 2 (field: truncation)\n",
        4: "budget exceeded: truncation 20 exceeds budget 16\n",
    }
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
            assert proc.stderr == errors[code]


# a child's stdout as a run sees it outside a harness: block-buffered, so
# the end of a report waits in the buffer for the entry's flush
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_cli_entry_writes_the_in_process_bytes(tmp_path, capsys):
    """The process entry flushes a report many write buffers long, to a pipe and to a file."""
    # a rank-one four-pair corpus entry; its report is about 69 KB
    problem = tmp_path / "four_pair.json"
    problem.write_text(json.dumps({
        "torus_rank": 1, "half_weights": [[1], [0], [1], [-2]], "chi": [-1], "truncation": 8,
    }))
    assert main(["run", str(problem)]) == 0
    want = capsys.readouterr().out.encode()
    assert len(want) > 64 * 1024
    argv = [sys.executable, "-m", "hypertoric", "run", str(problem)]
    piped = subprocess.run(argv, capture_output=True, env=BUFFERED_ENV)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == want
    out = tmp_path / "report.json"
    with open(out, "wb") as fh:
        assert subprocess.run(argv, stdout=fh, env=BUFFERED_ENV).returncode == 0
    assert out.read_bytes() == want


# cli.main called in process by a script that exits with its code
IN_PROCESS = ("-c", "import sys; from hypertoric.cli import main; sys.exit(main())")


def entry_with(redirect, flags, entry=("-m", "hypertoric"), **kwargs):
    """Run the process entry with stdout or stderr redirected; return (exit code, stderr).

    "pipe" gives it a pipe whose read end is closed before it writes;
    anything else is a shell redirection such as ">/dev/full" or "2>&-".
    entry is what follows the interpreter: the process entry, or IN_PROCESS.
    """
    argv = [sys.executable, *entry, "run", *flags]
    if redirect == "pipe":
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
        proc.stdout.close()  # before the child writes: its write or flush meets a closed pipe
        with proc.stderr:
            err = proc.stderr.read()
        return proc.wait(), err
    shell = ["sh", "-c", f'exec "$@" {redirect}', "sh", *argv]
    proc = subprocess.run(shell, capture_output=True, **kwargs)
    return proc.returncode, proc.stderr


def refused(redirect):
    reason = {
        "pipe": "Broken pipe", ">/dev/full": "No space left on device", ">&-": "stdout is closed",
    }[redirect]
    return 5, f"output error: cannot write the report: {reason}\n".encode()


@pytest.mark.parametrize("redirect", ["pipe", ">/dev/full", ">&-"], ids=["pipe", "full", "closed"])
def test_cli_entry_unwritable_stdout_exits_with_output_error(problems_dir, redirect):
    """A report that stdout refuses ends with exit 5 and one stderr line, no traceback.

    A pipe or a full file refuses a short report only at its flush in main,
    and hexagon's, past the 8 KiB buffer, already at the write; a closed
    stdout refuses both at the write.  The same holds for a script that
    calls main in process and ends with sys.exit(main()), whose stdout is
    flushed again at interpreter shutdown, outside main.
    """
    for flags in (["conifold.json", "--analyses", "validation"], ["hexagon.json"]):
        flags[0] = str(problems_dir / flags[0])
        for entry in (("-m", "hypertoric"), IN_PROCESS):
            got = entry_with(redirect, flags, entry, env=BUFFERED_ENV)
            assert got == refused(redirect), (flags, entry)


@pytest.mark.parametrize(
    "name, encoding", [("café", "ascii"), ("\ud800", "utf-8")], ids=["ascii", "surrogate"]
)
def test_cli_entry_unencodable_text_report_exits_with_output_error(tmp_path, name, encoding):
    """A text report that stdout's encoding cannot take exits 5, as a refused write does.

    Nothing of it reaches stdout, and the JSON report of the same problem,
    escaped to ASCII, is written as usual.
    """
    problem = tmp_path / "named.json"
    problem.write_text(json.dumps({
        "torus_rank": 1, "half_weights": [[1], [1]], "chi": [1], "name": name,
    }))
    env = dict(BUFFERED_ENV, PYTHONIOENCODING=encoding)
    argv = [sys.executable, "-m", "hypertoric", "run", str(problem)]
    text = subprocess.run([*argv, "--format", "text"], capture_output=True, env=env)
    lines = text.stderr.decode().splitlines()
    assert (text.returncode, text.stdout) == (5, b"")
    assert len(lines) == 1 and lines[0].startswith("output error: cannot write the report: ")
    report = subprocess.run(argv, capture_output=True, env=env)
    assert (report.returncode, report.stderr) == (0, b"")
    assert json.loads(report.stdout)["exit_code"] == 0


def test_cli_entry_flushes_the_help_text():
    """argparse's help text waits in stdout's buffer for the entry's flush.

    main flushes a report itself, so this is what the entry's own flush is
    for: through a pipe the help arrives whole, and into a pipe whose
    reader has gone the run exits 5 with one stderr line.
    """
    argv = [sys.executable, "-m", "hypertoric", "run", "--help"]
    piped = subprocess.run(argv, capture_output=True, env=BUFFERED_ENV)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout.startswith(b"usage: hypertoric run") and b"--budget" in piped.stdout
    assert entry_with("pipe", ["--help"], env=BUFFERED_ENV) == refused("pipe")


@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
def test_cli_entry_unwritable_stderr_keeps_the_exit_code(problems_dir, redirect):
    """An error line that stderr refuses is lost, and the run still exits with its code."""
    conifold = str(problems_dir / "conifold.json")
    for flags, code in [([conifold, "--N", "1"], 3), ([conifold, "--N", "20"], 4)]:
        assert entry_with(redirect, flags) == (code, b""), flags


def test_cli_validation_rank_five_exits_promptly(tmp_path):
    # the Smith factors of these half-weights once grew past 4,300 digits,
    # and the run did not finish in 30 s
    f = tmp_path / "rank5.json"
    f.write_text(json.dumps({
        "torus_rank": 5,
        "half_weights": [[-6, 3, 5, 9, -9], [-8, 4, 4, 9, -6], [9, 9, 8, 6, 7],
                         [-9, -6, -7, -7, -8], [-8, 6, 8, -2, -7]],
        "chi": [0, 0, 0, 0, 0],
        "analyses": ["validation"],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "hypertoric", "run", str(f)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    validation = json.loads(proc.stdout)["sections"]["validation"]
    assert validation["invariant_factors"] == [1, 1, 1, 1, 19378]


@pytest.mark.parametrize("flags", [("--upto", "1"), ("--upto", "9"), ("--count", "0")])
def test_corpus_sweep_rejects_out_of_range_arguments(problems_dir, flags):
    # --upto runs from the quadrics' degree 2 to the oracle's degree limit
    proc = subprocess.run(
        [sys.executable, "scripts/corpus_sweep.py", *flags],
        capture_output=True, text=True, cwd=problems_dir.parent,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and f"argument {flags[0]}" in proc.stderr


def test_run_path_imports_no_jsonschema(problems_dir, golden_dir):
    # the runtime has no third-party dependency: jsonschema is test-only;
    # no record is built through dataclasses, which also loads inspect; and
    # the ambient algebra is built by its constructor, without copy
    imported = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypertoric.cli; "
         "loaded = {'jsonschema', 'dataclasses', 'inspect', 'copy'} & set(sys.modules); "
         "assert not loaded, loaded"],
        capture_output=True, text=True,
    )
    assert imported.returncode == 0, imported.stderr
    blocked = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['jsonschema'] = None; from hypertoric import cli; "
         "code = cli.main(['run', 'problems/conifold.json']); "
         "loaded = {'dataclasses', 'inspect', 'copy'} & set(sys.modules); "
         "assert not loaded, loaded; sys.exit(code)"],
        capture_output=True, text=True, cwd=problems_dir.parent,
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == (golden_dir / "conifold_report.json").read_text()


def test_readme_library_tour_runs(problems_dir, capsys):
    readme = (problems_dir.parent / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    assert lines[1] == (
        "(Relation(source=0, target=0, terms=(PathTerm(coefficient=1, path=(0, 2)), "
        "PathTerm(coefficient=1, path=(1, 3))), string='x2*y2 + x1*y1'), "
        "Relation(source=1, target=1, terms=(PathTerm(coefficient=1, path=(2, 0)), "
        "PathTerm(coefficient=1, path=(3, 1))), string='y2*x2 + y1*x1'))"
    )
    assert lines[2:] == ["linear", "violation"]


def test_package_exports_the_benchmark_names():
    # the benchmark's oracle check imports these from the package itself
    from hypertoric import (  # noqa: F401
        SymplecticRep,
        hom_dimension,
        oracle_block_dimension,
        oracle_lattice_points,
    )


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
