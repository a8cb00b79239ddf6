"""Problem files, the analysis pipeline, and deterministic reports.

A problem file is a JSON object naming the representation and the pipeline
parameters.  run() executes the requested analyses in dependency order and
returns a Report whose JSON form is canonical (sorted keys, fixed
normalization), so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import jsonschema

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
from .lattice import IntVec, dot
from .reps import (
    SymplecticRep,
    moment_quadrics,
    reduce_to_generic,
    require_valid,
    singular_codim_estimate,
)
from .zonotope import build_zonotope, enumerate_window, find_generic_direction

ANALYSES = (
    "validation",
    "genericity",
    "reduction",
    "zonotope",
    "window",
    "quadrics",
    "hilbert",
    "regular_sequence",
    "codimension",
    "quiver",
    "koszul",
)

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


@dataclass(frozen=True)
class Budget:
    """Work limits for one pipeline run; exceeding any is exit code 4."""

    max_truncation: int = 16
    max_depth: int = 8
    max_window: int = 64
    max_codim_pairs: int = 12
    max_box: int = 200000


@dataclass(frozen=True)
class ProblemFile:
    torus_rank: int
    half_weights: tuple[IntVec, ...]
    chi: IntVec
    epsilon: IntVec | None
    xi: tuple[Fraction, ...]
    truncation: int
    depth: int
    analyses: tuple[str, ...]
    name: str | None = None

    def __post_init__(self):
        # the schema minimums also bind values set after parsing, such as
        # command-line overrides
        for key in ("truncation", "depth"):
            low = PROBLEM_SCHEMA["properties"][key]["minimum"]
            if getattr(self, key) < low:
                raise ProblemFormatError(f"{key} must be at least {low}", key)

    @property
    def rep(self) -> SymplecticRep:
        return SymplecticRep(self.torus_rank, self.half_weights)


def _parse_xi_entry(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ProblemFormatError("xi entries must be integers or 'p/q' strings", "xi")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ProblemFormatError(f"xi entry {raw!r} has a zero denominator", "xi") from None


def parse_problem(data: dict) -> ProblemFile:
    """Validate a decoded problem object and normalize defaults."""
    try:
        jsonschema.validate(data, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or None
        raise ProblemFormatError(exc.message, path) from exc
    s = data["torus_rank"]
    hw = tuple(tuple(row) for row in data["half_weights"])
    for idx, row in enumerate(hw):
        if len(row) != s:
            raise ProblemFormatError(
                f"half_weights[{idx}] has length {len(row)}, expected {s}",
                "half_weights",
            )
    chi = tuple(data["chi"])
    if len(chi) != s:
        raise ProblemFormatError(f"chi has length {len(chi)}, expected {s}", "chi")
    epsilon = data.get("epsilon")
    if epsilon is not None:
        epsilon = tuple(epsilon)
        if len(epsilon) != s:
            raise ProblemFormatError(
                f"epsilon has length {len(epsilon)}, expected {s}", "epsilon"
            )
    xi_raw = data.get("xi")
    if xi_raw is None:
        xi = (Fraction(0),) * s
    else:
        if len(xi_raw) != s:
            raise ProblemFormatError(f"xi has length {len(xi_raw)}, expected {s}", "xi")
        xi = tuple(_parse_xi_entry(v) for v in xi_raw)
    analyses = data.get("analyses")
    if analyses is None:
        analyses = ANALYSES
    else:
        # keep pipeline order regardless of the order given
        requested = set(analyses)
        analyses = tuple(a for a in ANALYSES if a in requested)
    return ProblemFile(
        torus_rank=s,
        half_weights=hw,
        chi=chi,
        epsilon=epsilon,
        xi=xi,
        truncation=data.get("truncation", 6),
        depth=data.get("depth", 4),
        analyses=analyses,
        name=data.get("name"),
    )


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    return parse_problem(data)


# ---------------------------------------------------------------------------
# report plumbing


def _jsonify(value):
    """Normalize values for canonical JSON output."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass
class Report:
    input: dict
    engine: dict
    sections: dict
    checks: list
    exit_code: int

    def to_json(self) -> str:
        payload = {
            "engine": self.engine,
            "input": self.input,
            "sections": self.sections,
            "checks": self.checks,
            "exit_code": self.exit_code,
        }
        return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"hypertoric {self.engine['version']} report"]
        name = self.input.get("name")
        if name:
            lines.append(f"problem: {name}")
        lines.append(
            f"torus rank {self.input['torus_rank']}, "
            f"{len(self.input['half_weights'])} coordinate pairs"
        )
        for section in ANALYSES:
            if section not in self.sections:
                continue
            lines.append("")
            lines.append(f"== {section} ==")
            lines.extend(_render_section(section, self.sections[section]))
        lines.append("")
        lines.append("== checks ==")
        for check in self.checks:
            detail = f"  ({check['detail']})" if check.get("detail") else ""
            lines.append(f"{check['name']}: {check['status']}{detail}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _render_section(name: str, sec: dict) -> list[str]:
    lines: list[str] = []
    if name == "validation":
        lines.append(f"faithful: {sec['faithful']}")
        lines.append(f"weight rank: {sec['weight_rank']} of {sec['torus_rank']}")
        lines.append(f"invariant factors: {sec['invariant_factors']}")
        lines.append(f"strictly faithful: {sec['strictly_faithful']}")
        for a in sec["assumptions"]:
            lines.append(f"assumes: {a}")
    elif name == "genericity":
        for key in ("chi", "epsilon"):
            item = sec[key]
            verdict = "generic" if item["generic"] else (
                f"NOT generic, witness flat normal {_fmt_vec(item['witness'])}"
            )
            extra = f" [{item['source']}]" if key == "epsilon" else ""
            lines.append(f"{key} = {_fmt_vec(item['value'])}{extra}: {verdict}")
    elif name == "reduction":
        lines.append(f"needed: {sec['needed']}")
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
        if sec["chi_reduced"] is not None:
            lines.append(f"chi reduced: {_fmt_vec(sec['chi_reduced'])}")
        if sec["epsilon_reduced"] is not None:
            lines.append(f"epsilon reduced: {_fmt_vec(sec['epsilon_reduced'])}")
    elif name == "zonotope":
        lines.append(f"dimension: {sec['dimension']}")
        lines.append(
            "flat normals: " + (" ".join(_fmt_vec(n) for n in sec["flat_normals"]) or "none")
        )
        for f in sec["facets"]:
            lines.append(f"facet: {_fmt_vec(f['normal'])} . x <= {f['offset']}")
    elif name == "window":
        lines.append(f"epsilon: {_fmt_vec(sec['epsilon'])}")
        lines.append(f"count: {sec['count']}")
        lines.append("points: " + (" ".join(_fmt_vec(p) for p in sec["points"]) or "none"))
    elif name == "quadrics":
        lines.append(f"xi: {_fmt_vec(sec['xi'])}")
        for q in sec["items"]:
            lines.append(f"q{q['index'] + 1} = {q['string']}")
    elif name == "hilbert":
        lines.append("vertices: " + " ".join(_fmt_vec(p) for p in sec["vertices"]))
        for n, mat in enumerate(sec["matrices"]):
            rows = "; ".join(" ".join(str(x) for x in row) for row in mat)
            lines.append(f"H_{n}: {rows}")
    elif name == "regular_sequence":
        lines.append(f"passed: {sec['passed']} (to degree {sec['upto']})")
        if sec["first_failure"]:
            ff = sec["first_failure"]
            lines.append(
                f"first failure: degree {ff['degree']}, weight {_fmt_vec(ff['weight'])}, "
                f"dimension {ff['got']} vs expected {ff['expected']}"
            )
    elif name == "codimension":
        est = sec["estimate"]
        lines.append(f"estimate: {'unbounded' if est is None else est}")
        lines.append(f"fiber dimension: {sec['fiber_dim']}")
        if sec["bad_subset"] is not None:
            lines.append(f"worst subset: {tuple(sec['bad_subset'])} (rank {sec['bad_rank']})")
        lines.append(f"computed on reduced data: {sec['on_reduced']}")
    elif name == "quiver":
        lines.append(f"vertices: {len(sec['vertices'])}")
        for a in sec["arrows"]:
            lines.append(f"arrow {a['label']}: {a['source']} -> {a['target']}")
        for r in sec["relations"]:
            lines.append(f"relation ({r['source']} -> {r['target']}): {r['string']}")
    elif name == "koszul":
        for side in ("quotient", "ambient"):
            data = sec[side]
            lines.append(
                f"{side}: {data['status']}"
                + (
                    f" (vertex {data['first_violation'][0]}, step "
                    f"{data['first_violation'][1]} generator of degree "
                    f"{data['first_violation'][2]})"
                    if data["first_violation"]
                    else ""
                )
            )
            numeric = data["numeric"]
            neg = numeric["first_negative"]
            lines.append(
                f"{side} series inverse: "
                + ("nonnegative" if numeric["consistent"] else
                   f"negative entry {neg[3]} at degree {neg[0]}, block ({neg[1]},{neg[2]})")
            )
    return lines


# ---------------------------------------------------------------------------
# the pipeline


def _echo_input(problem: ProblemFile) -> dict:
    echo = {
        "torus_rank": problem.torus_rank,
        "half_weights": [list(w) for w in problem.half_weights],
        "chi": list(problem.chi),
        "epsilon": list(problem.epsilon) if problem.epsilon is not None else None,
        "xi": list(problem.xi),
        "truncation": problem.truncation,
        "depth": problem.depth,
        "analyses": list(problem.analyses),
    }
    if problem.name is not None:
        echo["name"] = problem.name
    return echo


def run(problem: ProblemFile, budget: Budget = Budget()) -> Report:
    """Execute the requested analyses and assemble the report.

    Genericity failures stop the pipeline after the genericity section and
    set exit code 2; structurally invalid inputs raise instead (exit 3 at
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

    rep = problem.rep
    report_sections: dict = {}
    checks: list[dict] = []

    validation = require_valid(rep)
    if "validation" in requested:
        report_sections["validation"] = {
            "torus_rank": validation.torus_rank,
            "num_pairs": validation.num_pairs,
            "weight_rank": validation.weight_rank,
            "kernel_rank": validation.kernel_rank,
            "faithful": validation.faithful,
            "invariant_factors": list(validation.invariant_factors),
            "strictly_faithful": validation.strictly_faithful,
            "assumptions": list(validation.assumptions),
        }
        checks.append({"name": "faithful", "status": "PASS", "detail": None})

    needs_zonotope = requested & {
        "zonotope", "genericity", "window", "hilbert", "regular_sequence",
        "quiver", "koszul",
    }
    zono = build_zonotope(rep) if needs_zonotope else None
    if "zonotope" in requested:
        report_sections["zonotope"] = {
            "dimension": zono.dimension,
            "flat_normals": [list(n) for n in zono.flat_normals],
            "facets": [
                {"normal": list(f.normal), "offset": f.offset} for f in zono.facets
            ],
        }

    epsilon = problem.epsilon
    epsilon_source = "given"
    stop_after_genericity = False
    if zono is not None:
        if epsilon is None:
            epsilon = find_generic_direction(zono)
            epsilon_source = "auto"
        chi_witness = zono.generic_witness(problem.chi)
        eps_witness = zono.generic_witness(epsilon)
        if "genericity" in requested or chi_witness or eps_witness:
            report_sections["genericity"] = {
                "chi": {
                    "value": list(problem.chi),
                    "generic": chi_witness is None,
                    "witness": list(chi_witness) if chi_witness else None,
                },
                "epsilon": {
                    "value": list(epsilon),
                    "source": epsilon_source,
                    "generic": eps_witness is None,
                    "witness": list(eps_witness) if eps_witness else None,
                },
            }
            checks.append({
                "name": "chi_generic",
                "status": "PASS" if chi_witness is None else "FAIL",
                "detail": None if chi_witness is None else
                f"chi parallel to flat with normal {_fmt_vec(chi_witness)}",
            })
            checks.append({
                "name": "epsilon_generic",
                "status": "PASS" if eps_witness is None else "FAIL",
                "detail": None if eps_witness is None else
                f"epsilon parallel to flat with normal {_fmt_vec(eps_witness)}",
            })
        if chi_witness or eps_witness:
            stop_after_genericity = True

    reduction = None
    if not stop_after_genericity and requested & {"reduction", "codimension"}:
        reduction = reduce_to_generic(rep, chi=problem.chi, epsilon=epsilon)
    if reduction is not None and "reduction" in requested:
        report_sections["reduction"] = {
            "needed": not reduction.is_trivial,
            "steps": [
                {
                    "removed_pair": st.removed_pair,
                    "normal": list(st.normal),
                    "projection": [list(u) for u in st.projection],
                    "window_level": st.window_level,
                    "lift": [list(r) for r in st.lift],
                }
                for st in reduction.steps
            ],
            "reduced": {
                "torus_rank": reduction.reduced.torus_rank,
                "half_weights": [list(w) for w in reduction.reduced.half_weights],
            },
            "chi_reduced": list(reduction.chi) if reduction.chi is not None else None,
            "epsilon_reduced": (
                list(reduction.epsilon) if reduction.epsilon is not None else None
            ),
        }

    if not stop_after_genericity:
        window = None
        if requested & {"window", "hilbert", "regular_sequence", "quiver", "koszul"}:
            box = 1
            for k in range(rep.torus_rank):
                box *= sum(abs(w[k]) for w in rep.half_weights) + 1
            if box > budget.max_box:
                raise ResourceBudgetError(
                    f"window bounding box has {box} candidates, budget {budget.max_box}"
                )
            window = enumerate_window(zono, epsilon)
            if len(window.points) > budget.max_window:
                raise ResourceBudgetError(
                    f"window has {len(window.points)} points, budget {budget.max_window}"
                )
        if "window" in requested:
            report_sections["window"] = {
                "epsilon": list(epsilon),
                "count": len(window.points),
                "points": [list(p) for p in window.points],
            }

        quadrics = moment_quadrics(rep, problem.xi)
        if "quadrics" in requested:
            report_sections["quadrics"] = {
                "xi": list(problem.xi),
                "items": [
                    {
                        "index": q.index,
                        "coefficients": list(q.coefficients),
                        "shift": q.shift,
                        "string": q.as_string(),
                    }
                    for q in quadrics
                ],
            }

        alg = None
        if requested & GRADED_ANALYSES:
            alg = GradedQuiverAlgebra(rep, window, problem.truncation, quadrics)

        if "regular_sequence" in requested:
            rs = verify_regular_sequence(alg)
            report_sections["regular_sequence"] = {
                "passed": rs.passed,
                "upto": rs.upto,
                "num_quadrics": rs.num_quadrics,
                "weights": [list(w) for w in rs.weights],
                "first_failure": None if rs.first_failure is None else {
                    "degree": rs.first_failure.degree,
                    "weight": list(rs.first_failure.weight),
                    "got": rs.first_failure.got,
                    "expected": rs.first_failure.expected,
                },
            }
            checks.append({
                "name": "regular_sequence",
                "status": "PASS" if rs.passed else "FAIL",
                "detail": None if rs.passed else (
                    f"first failure at degree {rs.first_failure.degree}"
                ),
            })

        if "codimension" in requested:
            base = reduction.reduced if reduction is not None else rep
            xi_red = problem.xi
            if reduction is not None:
                for st in reduction.steps:
                    xi_red = tuple(dot(xi_red, u) for u in st.projection)
            est = singular_codim_estimate(
                base, xi_red, max_pairs=budget.max_codim_pairs
            )
            report_sections["codimension"] = {
                "on_reduced": reduction is not None and not reduction.is_trivial,
                "estimate": est.estimate,
                "fiber_dim": est.fiber_dim,
                "bad_subset": list(est.bad_subset) if est.bad_subset is not None else None,
                "bad_rank": est.bad_rank,
            }

        if "hilbert" in requested:
            report_sections["hilbert"] = {
                "truncation": problem.truncation,
                "vertices": [list(p) for p in window.points],
                "matrices": [
                    [list(row) for row in mat] for mat in alg.hilbert_matrices()
                ],
            }

        if "quiver" in requested:
            pres = quiver_presentation(alg)
            report_sections["quiver"] = {
                "vertices": [list(p) for p in pres.vertices],
                "arrows": [
                    {
                        "source": a.source,
                        "target": a.target,
                        "label": a.label,
                        "monomial": list(a.monomial),
                    }
                    for a in pres.arrows
                ],
                "relations": [
                    {
                        "source": r.source,
                        "target": r.target,
                        "terms": [
                            {"coefficient": c, "path": list(path)}
                            for c, path in r.terms
                        ],
                        "string": r.as_string(pres.arrows),
                    }
                    for r in pres.relations
                ],
            }

        if "koszul" in requested:
            section = {}
            for side, algebra in (("quotient", alg), ("ambient", alg.ambient())):
                ledger = koszul_check(algebra, depth=problem.depth)
                numeric = numerical_koszul_consistency(algebra.hilbert_matrices())
                section[side] = {
                    "status": ledger.status,
                    "depth": ledger.depth,
                    "degree_bound": ledger.degree_bound,
                    "first_violation": (
                        list(ledger.first_violation) if ledger.first_violation else None
                    ),
                    "all_exhausted": ledger.all_exhausted,
                    "resolutions": [
                        {
                            "vertex": r.vertex,
                            "steps": [
                                [list(g) for g in step] for step in r.steps
                            ],
                            "status": r.status,
                            "violation": list(r.violation) if r.violation else None,
                            "exhausted": r.exhausted,
                        }
                        for r in ledger.resolutions
                    ],
                    "numeric": {
                        "upto": numeric.upto,
                        "consistent": numeric.consistent,
                        "first_negative": (
                            list(numeric.first_negative)
                            if numeric.first_negative else None
                        ),
                    },
                }
            report_sections["koszul"] = section
            quotient = section["quotient"]
            if quotient["status"] == "violation" or not quotient["numeric"]["consistent"]:
                status = "FAIL"
            elif quotient["status"] == "truncation_limited":
                status = "INCONCLUSIVE"
            else:
                status = "PASS"
            checks.append({
                "name": "koszul_quotient",
                "status": status,
                "detail": None if status == "PASS" else (
                    "resolution not linear" if status == "FAIL" else
                    "truncation too small for the requested depth"
                ),
            })

    exit_code = 2 if any(c["status"] == "FAIL" for c in checks) else 0
    return Report(
        input=_echo_input(problem),
        engine={"name": "hypertoric", "version": ENGINE_VERSION},
        sections=report_sections,
        checks=checks,
        exit_code=exit_code,
    )
