"""Every report the benchmark pins, regenerated in process through cli.main.

bench/problems.py writes the problem files of the benchmark's jobs and
bench/pins.json holds the SHA-256 of each report on the seed engine; the
conifold and hexagon reports are pinned by tests/golden instead, and a job
expected to exit 3 prints nothing.  Both bench files are read, never
changed.  Job paths are relative to the checkout root, so the shipped
problems are copied to a temporary root that the test runs in.
"""

import hashlib
import importlib.util
import json
import pathlib
import shutil

from hypertoric.cli import main
from hypertoric.corpus import fixed_corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the corpus seed whose sweep reports pins.json pins (bench/run.py's default)
CORPUS_SEED = 20260815


def bench_problems():
    spec = importlib.util.spec_from_file_location("bench_problems", ROOT / "bench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_report_regenerates(tmp_path, monkeypatch, capsys, golden_dir):
    problems = bench_problems()
    pins = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))["sha256"]
    for name, golden in problems.GOLDEN.items():
        pins[name] = hashlib.sha256((golden_dir / golden).read_bytes()).hexdigest()
    shutil.copytree(ROOT / "problems", tmp_path / "problems")
    monkeypatch.chdir(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    jobs = problems.corpus_jobs(fixed_corpus(24, CORPUS_SEED), CORPUS_SEED, tmp_path, work)
    for workload in problems.CLI_WORKLOADS:
        jobs += problems.cli_jobs(workload, tmp_path, work)
    assert len(jobs) == 31 + 6
    empty = hashlib.sha256(b"").hexdigest()
    digests = {}
    for job in jobs:
        code = main(job["argv"])
        digests[job["id"]] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert code == job["expected_exit"], job
        assert digests[job["id"]] == pins.get(job["id"], empty), job
    # every pin is checked: 24 corpus reports, four shipped and six command-line
    assert set(pins) <= set(digests) and len(pins) == 24 + 4 + 6
