"""Problem lists of the benchmark workloads.

Each job is one run of the `hypertoric run` command: a generated problem
file, extra command-line flags, and the exit code the README and the
problem schema promise for it (0 all checks pass, 2 a mathematical check
failed, 3 invalid input).  Expected codes are written here by hand and are
never taken from the program.
"""

from __future__ import annotations

import json
from pathlib import Path

FOUR_PAIR = [[1, 0], [0, 1], [1, 1], [1, -1]]
THREE_PAIR = [[1], [1], [1]]

# every analysis except the minimal resolutions, in pipeline order
NO_KOSZUL = [
    "validation", "genericity", "reduction", "zonotope", "window", "quadrics",
    "hilbert", "regular_sequence", "codimension", "quiver",
]

# shipped problem files and their exit codes; hexagon_bad_chi has a
# non-generic character
SHIPPED = {"conifold": 0, "hexagon": 0, "hexagon_bad_chi": 2, "reduction_pair": 0}
GOLDEN = {"conifold": "conifold_report.json", "hexagon": "hexagon_report.json"}

CLI_WORKLOADS = ("resolve-large", "slice-deep")
WORKLOADS = CLI_WORKLOADS + ("corpus-sweep",)


def _job(job_id: str, path: Path, root: Path, expected: int, flags=()) -> dict:
    return {
        "id": job_id,
        "argv": ["run", str(path.relative_to(root)), *flags],
        "expected_exit": expected,
    }


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _rep(name, rank, half_weights, chi, truncation, analyses=None) -> dict:
    data = {
        "name": name,
        "torus_rank": rank,
        "half_weights": half_weights,
        "chi": chi,
        "truncation": truncation,
        "depth": 4,
    }
    if analyses is not None:
        data["analyses"] = analyses
    return data


def cli_jobs(workload: str, root: Path, work: Path) -> list[dict]:
    """Write the problem files of a command-line workload; return its jobs."""
    if workload == "resolve-large":
        problems = {
            "four-pair-N6": _rep("four-pair", 2, FOUR_PAIR, [3, 1], 6),
            "four-pair-N8": _rep("four-pair", 2, FOUR_PAIR, [3, 1], 8),
            "three-pair-N8": _rep("three-pair", 1, THREE_PAIR, [1], 8),
        }
    elif workload == "slice-deep":
        hexagon = json.loads((root / "problems" / "hexagon.json").read_text(encoding="utf-8"))
        hexagon.update(truncation=16, analyses=NO_KOSZUL)
        problems = {
            "hexagon-N16": hexagon,
            "three-pair-N16": _rep("three-pair", 1, THREE_PAIR, [1], 16, NO_KOSZUL),
            "four-pair-N12": _rep("four-pair", 2, FOUR_PAIR, [3, 1], 12, NO_KOSZUL),
        }
    else:
        raise ValueError(f"not a command-line workload: {workload}")
    return [
        _job(pid, _write(work / f"{pid}.json", data), root, 0)
        for pid, data in problems.items()
    ]


def corpus_jobs(entries, corpus_seed: int, root: Path, work: Path) -> list[dict]:
    """Write the corpus-sweep problem files; return its 31 jobs.

    entries are hypertoric.corpus.fixed_corpus(24, corpus_seed); each runs
    at truncation 8 with every analysis but koszul, chi set to the entry's
    generic direction and epsilon left for the engine to pick.
    """
    jobs = []
    for k, entry in enumerate(entries):
        pid = f"corpus-{corpus_seed}-{k:02d}"
        data = _rep(
            pid, entry.rep.torus_rank, [list(w) for w in entry.rep.half_weights],
            list(entry.epsilon), 8, NO_KOSZUL,
        )
        jobs.append(_job(pid, _write(work / f"{pid}.json", data), root, 0))
    shipped = {}
    for name, expected in SHIPPED.items():
        text = (root / "problems" / f"{name}.json").read_text(encoding="utf-8")
        shipped[name] = work / f"{name}.json"
        shipped[name].write_text(text, encoding="utf-8")
        jobs.append(_job(name, shipped[name], root, expected))
    # contract edges from the ROADMAP: each must be rejected as invalid input
    conifold = json.loads(shipped["conifold"].read_text(encoding="utf-8"))
    conifold["xi"] = ["1/0"]
    zero_den = _write(work / "edge-xi-zero-denominator.json", conifold)
    jobs.append(_job("edge-xi-zero-denominator", zero_den, root, 3))
    jobs.append(_job("edge-N1", shipped["conifold"], root, 3, ("--N", "1")))
    jobs.append(_job("edge-depth0", shipped["conifold"], root, 3, ("--depth", "0")))
    return jobs
