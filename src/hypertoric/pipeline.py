"""Problem files, the analysis pipeline, and deterministic reports.

A problem file is a JSON object naming the representation and the pipeline
parameters.  run() executes the requested analyses in pipeline order, one
row of STAGES each, and returns a Report whose JSON form is canonical
(sorted keys, fixed normalization), so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii as _json_string
from math import prod
from typing import NamedTuple

from . import __version__ as ENGINE_VERSION
from .algebra import (
    GradedQuiverAlgebra,
    quiver_presentation,
    verify_regular_sequence,
)
from .errors import (
    ProblemFormatError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from .koszul import koszul_check, numerical_koszul_consistency
from .lattice import IntVec
from .reps import (
    MomentQuadric,
    ReductionResult,
    SymplecticRep,
    ValueRecord,
    moment_quadrics,
    reduce_to_generic,
    require_valid,
    singular_codim_estimate,
)
from .zonotope import (
    CharacterWindow,
    Zonotope,
    build_zonotope,
    enumerate_window,
    find_generic_direction,
)

# ---------------------------------------------------------------------------
# the stages


class _Context:
    """The intermediates of one run, each computed on first use.

    Every stage reads the intermediates it needs from here, so an analysis
    computes the same thing whichever other analyses were requested.
    """

    def __init__(self, problem: ProblemFile, budget: Budget):
        self.problem = problem
        self.budget = budget
        self.rep = problem.rep
        self.validation = require_valid(self.rep)
        self.checks: list[dict] = []

    def check(self, name: str, status: str, detail: str | None = None):
        self.checks.append({"name": name, "status": status, "detail": detail})

    @cached_property
    def zonotope(self) -> Zonotope:
        return build_zonotope(self.rep)

    @cached_property
    def epsilon(self) -> IntVec:
        if self.problem.epsilon is not None:
            return self.problem.epsilon
        return find_generic_direction(self.zonotope)

    @cached_property
    def witnesses(self) -> dict[str, IntVec | None]:
        """A flat normal annihilating chi and epsilon each; None where generic."""
        return {
            "chi": self.zonotope.generic_witness(self.problem.chi),
            "epsilon": self.zonotope.generic_witness(self.epsilon),
        }

    @cached_property
    def reduction(self) -> ReductionResult:
        return reduce_to_generic(self.rep)

    @cached_property
    def window(self) -> CharacterWindow:
        # Python ints: a range's len() overflows beyond ssize_t
        box = prod(r.stop - r.start for r in self.zonotope.window_ranges())
        if box > self.budget.max_box:
            raise ResourceBudgetError(
                f"window bounding box has {box} candidates, budget {self.budget.max_box}"
            )
        window = enumerate_window(self.zonotope, self.epsilon)
        if len(window.points) > self.budget.max_window:
            raise ResourceBudgetError(
                f"window has {len(window.points)} points, budget {self.budget.max_window}"
            )
        return window

    @cached_property
    def quadrics(self) -> tuple[MomentQuadric, ...]:
        return moment_quadrics(self.rep, self.problem.xi)

    @cached_property
    def algebra(self) -> GradedQuiverAlgebra:
        return GradedQuiverAlgebra(
            self.rep, self.window, self.problem.truncation, self.quadrics
        )


# Each stage has a section builder, which returns the section (records
# allowed; the report writer writes them, field by field) and records its
# checks, and a text renderer, which turns the section, as the report's JSON
# text decodes it, into report lines.


def _validation(ctx: _Context):
    ctx.check("faithful", "PASS")
    return ctx.validation


def _render_validation(sec: dict) -> list[str]:
    return [
        f"faithful: {sec['faithful']}",
        f"weight rank: {sec['weight_rank']} of {sec['torus_rank']}",
        f"invariant factors: {sec['invariant_factors']}",
        f"strictly faithful: {sec['strictly_faithful']}",
    ] + [f"assumes: {a}" for a in sec["assumptions"]]


def _genericity(ctx: _Context):
    section = {}
    for key, value in (("chi", ctx.problem.chi), ("epsilon", ctx.epsilon)):
        witness = ctx.witnesses[key]
        section[key] = {"value": value, "generic": witness is None, "witness": witness}
        if witness is None:
            ctx.check(f"{key}_generic", "PASS")
        else:
            ctx.check(
                f"{key}_generic", "FAIL",
                f"{key} parallel to flat with normal {_fmt_vec(witness)}",
            )
    section["epsilon"]["source"] = "auto" if ctx.problem.epsilon is None else "given"
    return section


def _render_genericity(sec: dict) -> list[str]:
    lines = []
    for key in ("chi", "epsilon"):
        item = sec[key]
        verdict = "generic" if item["generic"] else (
            f"NOT generic, witness flat normal {_fmt_vec(item['witness'])}"
        )
        extra = f" [{item['source']}]" if key == "epsilon" else ""
        lines.append(f"{key} = {_fmt_vec(item['value'])}{extra}: {verdict}")
    return lines


def _reduction(ctx: _Context):
    red = ctx.reduction
    return {
        "needed": not red.is_trivial,
        "steps": red.steps,
        "reduced": red.reduced,
        "chi_reduced": red.project(ctx.problem.chi),
        "epsilon_reduced": red.project(ctx.epsilon),
    }


def _render_reduction(sec: dict) -> list[str]:
    lines = [f"needed: {sec['needed']}"]
    for i, step in enumerate(sec["steps"]):
        lines.append(
            f"step {i}: split pair {step['removed_pair']} along "
            f"{_fmt_vec(step['normal'])}, window level {step['window_level']}"
        )
    red = sec["reduced"]
    lines.append(
        f"reduced: rank {red['torus_rank']}, half-weights "
        + " ".join(_fmt_vec(w) for w in red["half_weights"])
    )
    for key in ("chi", "epsilon"):
        lines.append(f"{key} reduced: {_fmt_vec(sec[f'{key}_reduced'])}")
    return lines


def _zonotope(ctx: _Context):
    zono = ctx.zonotope
    return {
        "dimension": zono.dimension,
        "flat_normals": zono.flat_normals,
        "facets": zono.facets,
    }


def _render_zonotope(sec: dict) -> list[str]:
    normals = " ".join(_fmt_vec(n) for n in sec["flat_normals"]) or "none"
    return [f"dimension: {sec['dimension']}", f"flat normals: {normals}"] + [
        f"facet: {_fmt_vec(f['normal'])} . x <= {f['offset']}" for f in sec["facets"]
    ]


def _window(ctx: _Context):
    points = ctx.window.points
    return {"epsilon": ctx.epsilon, "count": len(points), "points": points}


def _render_window(sec: dict) -> list[str]:
    return [
        f"epsilon: {_fmt_vec(sec['epsilon'])}",
        f"count: {sec['count']}",
        "points: " + (" ".join(_fmt_vec(p) for p in sec["points"]) or "none"),
    ]


def _quadrics(ctx: _Context):
    return {
        "xi": ctx.problem.xi,
        "items": [dict(q._asdict(), string=q.as_string()) for q in ctx.quadrics],
    }


def _render_quadrics(sec: dict) -> list[str]:
    return [f"xi: {_fmt_vec(sec['xi'])}"] + [
        f"q{q['index'] + 1} = {q['string']}" for q in sec["items"]
    ]


def _hilbert(ctx: _Context):
    return {
        "truncation": ctx.problem.truncation,
        "vertices": ctx.window.points,
        "matrices": ctx.algebra.hilbert_matrices(),
    }


def _render_hilbert(sec: dict) -> list[str]:
    lines = ["vertices: " + " ".join(_fmt_vec(p) for p in sec["vertices"])]
    for n, mat in enumerate(sec["matrices"]):
        rows = "; ".join(" ".join(str(x) for x in row) for row in mat)
        lines.append(f"H_{n}: {rows}")
    return lines


def _regular_sequence(ctx: _Context):
    rs = verify_regular_sequence(ctx.algebra)
    if rs.passed:
        ctx.check("regular_sequence", "PASS")
    else:
        ctx.check(
            "regular_sequence", "FAIL",
            f"first failure at degree {rs.first_failure.degree}",
        )
    return rs


def _render_regular_sequence(sec: dict) -> list[str]:
    lines = [f"passed: {sec['passed']} (to degree {sec['upto']})"]
    ff = sec["first_failure"]
    if ff:
        lines.append(
            f"first failure: degree {ff['degree']}, weight {_fmt_vec(ff['weight'])}, "
            f"dimension {ff['got']} vs expected {ff['expected']}"
        )
    return lines


def _codimension(ctx: _Context):
    red = ctx.reduction
    est = singular_codim_estimate(red.reduced, red.project(ctx.problem.xi))
    return dict(est._asdict(), on_reduced=not red.is_trivial)


def _render_codimension(sec: dict) -> list[str]:
    est = sec["estimate"]
    lines = [
        f"estimate: {'unbounded' if est is None else est}",
        f"fiber dimension: {sec['fiber_dim']}",
    ]
    if sec["bad_subset"] is not None:
        lines.append(f"worst subset: {tuple(sec['bad_subset'])} (rank {sec['bad_rank']})")
    lines.append(f"computed on reduced data: {sec['on_reduced']}")
    return lines


def _quiver(ctx: _Context):
    pres = quiver_presentation(ctx.algebra)
    return {
        "vertices": pres.vertices,
        "arrows": pres.arrows,
        "relations": [
            {
                "source": r.source,
                "target": r.target,
                "terms": [{"coefficient": c, "path": path} for c, path in r.terms],
                "string": r.as_string(pres.arrows),
            }
            for r in pres.relations
        ],
    }


def _render_quiver(sec: dict) -> list[str]:
    return (
        [f"vertices: {len(sec['vertices'])}"]
        + [f"arrow {a['label']}: {a['source']} -> {a['target']}" for a in sec["arrows"]]
        + [
            f"relation ({r['source']} -> {r['target']}): {r['string']}"
            for r in sec["relations"]
        ]
    )


def _koszul(ctx: _Context):
    section = {}
    for side, algebra in (("quotient", ctx.algebra), ("ambient", ctx.algebra.ambient())):
        ledger = koszul_check(algebra, depth=ctx.problem.depth)
        numeric = numerical_koszul_consistency(algebra.hilbert_matrices())
        section[side] = dict(ledger._asdict(), all_exhausted=ledger.all_exhausted, numeric=numeric)
    quotient = section["quotient"]
    if quotient["status"] == "violation" or not quotient["numeric"].consistent:
        status, detail = "FAIL", "resolution not linear"
    elif quotient["status"] == "truncation_limited":
        status, detail = "INCONCLUSIVE", "truncation too small for the requested depth"
    else:
        status, detail = "PASS", None
    ctx.check("koszul_quotient", status, detail)
    return section


def _render_koszul(sec: dict) -> list[str]:
    lines = []
    for side in ("quotient", "ambient"):
        data = sec[side]
        fv = data["first_violation"]
        where = f" (vertex {fv[0]}, step {fv[1]} generator of degree {fv[2]})" if fv else ""
        lines.append(f"{side}: {data['status']}{where}")
        neg = data["numeric"]["first_negative"]
        inverse = "nonnegative" if data["numeric"]["consistent"] else (
            f"negative entry {neg[3]} at degree {neg[0]}, block ({neg[1]},{neg[2]})"
        )
        lines.append(f"{side} series inverse: {inverse}")
    return lines


# analysis name -> (section builder, text renderer), in pipeline order
STAGES = {
    "validation": (_validation, _render_validation),
    "genericity": (_genericity, _render_genericity),
    "reduction": (_reduction, _render_reduction),
    "zonotope": (_zonotope, _render_zonotope),
    "window": (_window, _render_window),
    "quadrics": (_quadrics, _render_quadrics),
    "hilbert": (_hilbert, _render_hilbert),
    "regular_sequence": (_regular_sequence, _render_regular_sequence),
    "codimension": (_codimension, _render_codimension),
    "quiver": (_quiver, _render_quiver),
    "koszul": (_koszul, _render_koszul),
}

ANALYSES = tuple(STAGES)

GRADED_ANALYSES = frozenset({"hilbert", "regular_sequence", "quiver", "koszul"})

PROBLEM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "hypertoric problem file",
    "type": "object",
    "additionalProperties": False,
    "required": ["torus_rank", "half_weights", "chi"],
    "properties": {
        "name": {"type": "string"},
        "torus_rank": {"type": "integer", "minimum": 0},
        "half_weights": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "chi": {"type": "array", "items": {"type": "integer"}},
        "epsilon": {
            "type": ["array", "null"],
            "items": {"type": "integer"},
        },
        "xi": {
            "type": "array",
            "items": {
                "type": ["integer", "string"],
                "pattern": "^-?[0-9]+(/[0-9]+)?$",
            },
        },
        "truncation": {"type": "integer", "minimum": 2},
        "depth": {"type": "integer", "minimum": 1},
        "analyses": {
            "type": "array",
            "items": {"type": "string", "enum": list(ANALYSES)},
            "minItems": 1,
        },
    },
}


class Budget(NamedTuple):
    """Work limits for one pipeline run; exceeding any is exit code 4."""

    max_truncation: int = 16
    max_depth: int = 8
    max_window: int = 64
    max_box: int = 200000


class ProblemFile(ValueRecord):
    """A parsed problem file: the representation, chi, epsilon, xi and the
    run parameters.

    A ValueRecord.  Construction checks truncation, depth and analyses
    against their PROBLEM_SCHEMA entries, so a copy made by _replace, such
    as one with command-line overrides, is checked as a parsed file is; the
    analyses are kept once each, in pipeline order.
    """

    __slots__ = _fields = (
        "torus_rank", "half_weights", "chi", "epsilon", "xi",
        "truncation", "depth", "analyses", "name",
    )

    def __init__(
        self,
        torus_rank: int,
        half_weights: tuple[IntVec, ...],
        chi: IntVec,
        epsilon: IntVec | None,
        xi: tuple[Fraction, ...],
        truncation: int,
        depth: int,
        analyses: tuple[str, ...],
        name: str | None = None,
    ):
        requested = list(analyses)
        checked = {"truncation": truncation, "depth": depth, "analyses": requested}
        for key, value in checked.items():
            _check_schema(value, PROBLEM_SCHEMA["properties"][key], (key,))
        analyses = tuple(a for a in ANALYSES if a in requested)
        self._set_fields(
            torus_rank, half_weights, chi, epsilon, xi, truncation, depth, analyses, name
        )

    @property
    def rep(self) -> SymplecticRep:
        return SymplecticRep(self.torus_rank, self.half_weights)


def _parse_xi_entry(raw) -> Fraction:
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ProblemFormatError(f"xi entry {raw!r} has a zero denominator", "xi") from None
    except ValueError as exc:  # a numerator or denominator over the digit limit
        raise ProblemFormatError(f"xi entry: {exc}", "xi") from None


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "null": type(None)}


def _at(path: tuple) -> str | None:
    """The dotted error path of a schema failure, None at the top level."""
    return ".".join(map(str, path)) or None


def _check_schema(value, schema: dict, path: tuple = ()) -> None:
    """Check `value` against the draft-07 keywords that PROBLEM_SCHEMA uses.

    One rule is stricter than draft-07: only an `int` (never a bool, nor an
    integral float such as 6.0) is an integer, so no float reaches the engine.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and (isinstance(value, bool)
                  or not isinstance(value, tuple(_JSON_TYPES[t] for t in types))):
        raise ProblemFormatError(
            f"{value!r} is not of type {', '.join(map(repr, types))}", _at(path)
        )
    if "enum" in schema and value not in schema["enum"]:
        raise ProblemFormatError(f"{value!r} is not one of {schema['enum']!r}", _at(path))
    if "minimum" in schema and isinstance(value, int) and value < schema["minimum"]:
        raise ProblemFormatError(
            f"{value!r} is less than the minimum of {schema['minimum']}", _at(path)
        )
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        raise ProblemFormatError(f"{value!r} does not match {schema['pattern']!r}", _at(path))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ProblemFormatError(f"{value!r} is too short", _at(path))
        for idx, item in enumerate(value):
            _check_schema(item, schema.get("items", {}), path + (idx,))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                raise ProblemFormatError(f"{key!r} is a required property", _at(path))
        extra = [key for key in value if key not in props]
        if extra and schema.get("additionalProperties") is False:
            raise ProblemFormatError(
                f"additional properties are not allowed: {extra!r}", _at(path)
            )
        for key, sub in props.items():
            if key in value:
                _check_schema(value[key], sub, path + (key,))


def parse_problem(data: dict) -> ProblemFile:
    """Validate a decoded problem object and normalize defaults."""
    _check_schema(data, PROBLEM_SCHEMA)
    s = data["torus_rank"]
    vectors = [
        ("half_weights", f"half_weights[{idx}]", row)
        for idx, row in enumerate(data["half_weights"])
    ]
    vectors += [
        (key, key, data[key]) for key in ("chi", "epsilon", "xi") if data.get(key) is not None
    ]
    for field, name, vec in vectors:
        if len(vec) != s:
            raise ProblemFormatError(f"{name} has length {len(vec)}, expected {s}", field)
    epsilon = data.get("epsilon")
    return ProblemFile(
        torus_rank=s,
        half_weights=tuple(tuple(row) for row in data["half_weights"]),
        chi=tuple(data["chi"]),
        epsilon=None if epsilon is None else tuple(epsilon),
        xi=tuple(_parse_xi_entry(v) for v in data.get("xi", (0,) * s)),
        truncation=data.get("truncation", 6),
        depth=data.get("depth", 4),
        analyses=tuple(data.get("analyses", ANALYSES)),
        name=data.get("name"),
    )


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers over the interpreter's digit limit
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    return parse_problem(data)


# ---------------------------------------------------------------------------
# report plumbing


def _json_text(value, indent: str, write) -> None:
    """value's plain form as json.dumps(sort_keys=True, indent=2) writes it, in chunks.

    The plain form is JSON's: a tuple is a list, a Fraction an int or the
    string "n/d", and a record, any class with a _fields tuple (the named
    tuples and the ValueRecord classes), an object of its fields.  A
    record's exact type is never tuple, so it is not written as a list.
    Each chunk goes to write, in order.  indent is a newline and the
    indentation of value's line.  Keys are str.
    """
    kind = type(value)
    if kind is str:
        write(_json_string(value))
    elif kind is int:
        write(repr(value))
    elif kind is bool:
        write("true" if value else "false")
    elif value is None:
        write("null")
    elif kind is list or kind is tuple:
        inner = indent + "  "
        lead = "[" + inner
        for v in value:
            write(lead)
            _json_text(v, inner, write)
            lead = "," + inner
        write(indent + "]" if value else "[]")
    elif kind is Fraction:
        n, d = value.numerator, value.denominator
        write(repr(n) if d == 1 else f'"{n}/{d}"')
    else:
        if kind is dict:
            keys, read = sorted(value), value.__getitem__
        else:
            names = getattr(kind, "_fields", None)
            if names is None:
                raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
            keys, read = sorted(names), partial(getattr, value)
        inner = indent + "  "
        lead = "{" + inner
        for k in keys:
            write(lead + _json_string(k) + ": ")
            _json_text(read(k), inner, write)
            lead = "," + inner
        write(indent + "}" if keys else "{}")


class Report(NamedTuple):
    """A run's report: its fields hold values as the builders return them.

    The input echo is the problem's fields, and each section is as its
    builder returns it, records, tuples and Fractions allowed.  The one
    plain form of a report is its JSON text (to_json), decoded; to_text
    renders from that.
    """

    input: dict
    engine: dict
    sections: dict
    checks: list
    exit_code: int

    def to_json(self) -> str:
        """json.dumps of the report's plain form, sort_keys=True, indent=2, and a newline.

        json.dumps drops to its pure-Python encoder whenever indent is set,
        and would need the plain form built first; _json_text writes the
        same bytes straight from the records, tuples and Fractions of every
        field, as chunks that are joined once.
        """
        chunks: list[str] = []
        _json_text(self._asdict(), "\n", chunks.append)
        chunks.append("\n")
        return "".join(chunks)

    def to_text(self) -> str:
        """The report as text, rendered from its decoded JSON text."""
        report = json.loads(self.to_json())
        given, sections = report["input"], report["sections"]
        lines = [f"hypertoric {report['engine']['version']} report"]
        name = given.get("name")
        if name:
            lines.append(f"problem: {name}")
        lines.append(
            f"torus rank {given['torus_rank']}, "
            f"{len(given['half_weights'])} coordinate pairs"
        )
        for section, (_, render) in STAGES.items():
            if section in sections:
                lines += ["", f"== {section} ==", *render(sections[section])]
        lines.append("")
        lines.append("== checks ==")
        for check in report["checks"]:
            detail = f"  ({check['detail']})" if check.get("detail") else ""
            lines.append(f"{check['name']}: {check['status']}{detail}")
        lines.append(f"exit code: {report['exit_code']}")
        return "\n".join(lines) + "\n"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


# ---------------------------------------------------------------------------
# the pipeline


def _echo_input(problem: ProblemFile) -> dict:
    echo = problem._asdict()
    if problem.name is None:
        del echo["name"]
    return echo


def run(problem: ProblemFile, budget: Budget = Budget()) -> Report:
    """Execute the requested analyses in pipeline order and assemble the report.

    Every analysis except validation presupposes a generic chi and epsilon.
    So when any of them is requested and chi or epsilon is not generic, the
    run adds the genericity section with its witness flat (requested or
    not), stops there, and sets exit code 2; any other failed check also
    sets exit code 2.  Structurally invalid inputs raise instead (exit 3 at
    the CLI), and budget violations raise ResourceBudgetError (exit 4).
    """
    if problem.truncation > budget.max_truncation:
        raise ResourceBudgetError(
            f"truncation {problem.truncation} exceeds budget {budget.max_truncation}"
        )
    if problem.depth > budget.max_depth:
        raise ResourceBudgetError(
            f"depth {problem.depth} exceeds budget {budget.max_depth}"
        )
    requested = set(problem.analyses)
    if requested & GRADED_ANALYSES and any(problem.xi):
        raise UnsupportedShiftError(
            "graded analyses (hilbert, regular_sequence, quiver, koszul) "
            "need xi = 0"
        )

    ctx = _Context(problem, budget)
    gated = bool(requested - {"validation"})
    sections: dict = {}
    for name, (build, _) in STAGES.items():
        stop = (
            name == "genericity" and gated
            and any(w is not None for w in ctx.witnesses.values())
        )
        if name in requested or stop:
            sections[name] = build(ctx)
        if stop:
            break

    exit_code = 2 if any(c["status"] == "FAIL" for c in ctx.checks) else 0
    return Report(
        input=_echo_input(problem),
        engine={"name": "hypertoric", "version": ENGINE_VERSION},
        sections=sections,
        checks=ctx.checks,
        exit_code=exit_code,
    )
