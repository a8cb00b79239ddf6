#!/usr/bin/env python3
"""Time to verdict of the hypertoric engine, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--corpus-seed S]

Run from the root of a source checkout; the engine is imported from its
src/ directory, and everything the run writes goes under .bench_work/.
NAME is resolve-large, slice-deep, corpus-sweep, or all (one table row per
workload).

The load is a closed loop with one client: one problem at a time, the next
starting when the previous report is back.  A pass runs every problem of the
workload once, in an order drawn from --seed.  The command-line workloads
spawn `python -m hypertoric run FILE` per problem; corpus-sweep starts one
fresh process per pass that calls hypertoric.cli.main for every problem, so
module caches grow as in a real sweep and no pass is warmed by another.

A run makes a fixed number of passes, sized so that one run takes about
--seconds on the seed engine (NOMINAL_PASS_S); a faster engine then does
the same work in less time, and percentiles keep their meaning across
commits.  There are at least enough passes for eleven report times, so the
tail percentile has ten samples beyond it.

End-to-end metrics (untraced passes, --trace 0); times are in seconds at
the host's nominal speed, measured by a reference loop between problem
processes (REF_NOMINAL_S):
  pass_s        wall time of one pass (its problems back to back, without
                the benchmark's own work between them), median over passes
  pass_cpu_s    user+sys CPU of one pass, child processes included
  report_s.p50  time of one problem, pooled over problems and passes
  report_s.tail highest percentile of those with ten samples beyond it
  setup_s       time before the first problem can start, median of
                SETUP_REPEATS fresh processes
  peak_rss_mb   largest problem process's max RSS (corpus-sweep: the sweep
                process's max RSS at the end of its pass), median over passes
failed_ratio is printed in the table and carried by the attempted and
failed fields of the result line.

--trace 1 adds traced passes whose child processes wrap the functions the
pipeline calls (tracing.py) and reports the per-layer metrics instead;
every report must keep its digest under tracing.

Every run is checked after its passes: exit codes, pinned report digests,
golden reports, the oracle and the resolution Euler identity (checks.py).
A run whose exit code or exception breaks the documented contract counts as
failed; a wrong report from a run that ended as expected makes the result
incorrect.  The last line of standard output is the result as JSON; the
full record, with every problem time, goes to .bench_work/.  baseline.json
holds the seed engine's numbers.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

from checks import OracleCheck, load_pins, verdict  # noqa: E402
from problems import CLI_WORKLOADS, WORKLOADS, cli_jobs  # noqa: E402

# one pass on the seed engine, 2 CPUs, spawn costs included
NOMINAL_PASS_S = {"resolve-large": 11.0, "slice-deep": 6.5, "corpus-sweep": 2.5}
SETUP_REPEATS = 7
DEFAULT_CORPUS_SEED = 20260815  # hypertoric.corpus.DEFAULT_SEED at the seed engine
# a run must end within 180 s: no pass starts after PASS_DEADLINE_S, and a
# child still running at CHILD_DEADLINE_S is killed and its problem fails
PASS_DEADLINE_S = 120.0
CHILD_DEADLINE_S = 150.0
COVERAGE_FLOOR = 0.9
# The CPU speed of a shared host drifts by 10-35 % over minutes, more than
# the regressions the bounds must catch.  A fixed reference loop, sharing no
# code with the engine, is timed before and after set-up and after every
# problem process (every pass for corpus-sweep); the run's end-to-end times
# are scaled by REF_NOMINAL_S over the mean reference time, i.e. given in
# seconds at the host's nominal speed.  Raw times stay in the record.
REF_NOMINAL_S = 0.0215
REF_REPEATS = 5

SPAN_METRICS = {
    "cli.startup_s": "cli.startup",
    "pipeline.parse_s": "pipeline.parse",
    "pipeline.render_s": "pipeline.render",
    "reps.validate_s": "reps.validate",
    "reps.codim_s": "reps.codim",
    "zonotope.build_s": "zonotope.build",
    "zonotope.window_s": "zonotope.window",
    "algebra.regseq_s": "algebra.regseq",
    "algebra.hilbert_s": "algebra.hilbert",
    "algebra.ambient_hilbert_s": "algebra.ambient_hilbert",
    "algebra.quiver_s": "algebra.quiver",
    "koszul.quotient_s": "koszul.quotient",
    "koszul.ambient_s": "koszul.ambient",
}
COUNT_METRICS = (
    "pipeline.report_bytes", "zonotope.facets", "zonotope.window_points",
    "algebra.slices", "algebra.ambient_monomials", "algebra.relation_rank",
    "algebra.quotient_dim", "koszul.generators.quotient",
    "koszul.generators.ambient", "koszul.steps",
)
LAYERS = ("cli", "pipeline", "reps", "zonotope", "algebra", "koszul")


def _reference_loop() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        for j in range(1, 40):
            table[i, j] = Fraction(i, j)
            acc += table[i, j] * j
    return acc


def reference_s() -> float:
    """Median time of the reference loop now."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """One workload: set-up, passes, checks and metrics."""

    def __init__(self, workload: str, args):
        self.workload = workload
        self.args = args
        self.started = time.perf_counter()
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.samples: list[dict] = []  # one per problem run, traced ones too
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.generate_s: list[float] = []
        self.reports: dict[str, bytes] = {}  # first stdout of each digest

    # -- child processes ---------------------------------------------------

    def spawn(self, argv: list[str], stem: str) -> dict:
        """Run one child to completion; wall time, status and rusage."""
        out_path = self.work / f"{stem}.out"
        err_path = self.work / f"{stem}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            left = CHILD_DEADLINE_S - (time.perf_counter() - self.started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 0.5))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted, e.g. by SIGTERM: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        exception = None
        if proc.returncode == -signal.SIGKILL:
            exception = "timeout"
        elif b"Traceback (most recent call last)" in stderr:
            exception = stderr.strip().splitlines()[-1].decode(errors="replace")
        return {
            "seconds": end - start,
            "exit": proc.returncode,
            "exception": exception,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out_path.read_bytes(),
        }

    def worker(self, mode: str, *flags: str, stem: str) -> dict:
        argv = [sys.executable, str(BENCH / "worker.py"), mode, *flags]
        if mode == "sweep":
            argv += ["--spawned-at", repr(time.perf_counter())]
        child = self.spawn(argv, stem)
        if child["exit"] != 0:
            raise SystemExit(f"bench worker {mode} failed: {child['exception'] or child['exit']}")
        return child

    # -- set-up ------------------------------------------------------------

    def setup(self) -> list[float]:
        times = []
        if self.workload in CLI_WORKLOADS:
            self.jobs = cli_jobs(self.workload, ROOT, self.work)
            for k in range(SETUP_REPEATS):
                child = self.spawn([sys.executable, "-c", "import hypertoric.cli"], "setup")
                if child["exit"] != 0:
                    raise SystemExit("cannot import hypertoric.cli from src/")
                times.append(child["seconds"])
            return times
        for k in range(SETUP_REPEATS):
            child = self.worker(
                "setup", "--corpus-seed", str(self.args.corpus_seed),
                "--work", str(self.work.relative_to(ROOT)), stem="setup",
            )
            times.append(child["seconds"])
            self.generate_s.append(json.loads(child["stdout"])["generate_s"])
        self.jobs = json.loads((self.work / "jobs.json").read_text(encoding="utf-8"))
        return times

    # -- passes ------------------------------------------------------------

    def plan(self) -> tuple[int, int]:
        """Passes and traced passes; fixed by --seconds, not by speed."""
        least = -(-11 // len(self.jobs))
        passes = max(least, round(self.args.seconds / NOMINAL_PASS_S[self.workload]))
        return passes, max(1, passes // 4) if self.args.trace else 0

    def one_pass(self, order: list[dict], traced: bool) -> dict:
        if self.workload in CLI_WORKLOADS:
            return self._cli_pass(order, traced)
        return self._sweep_pass(order, traced)

    def _cli_pass(self, order, traced):
        runs, spans, counts = [], [], {}
        for job in order:
            if traced:
                jobs_file = self.work / f"job-{job['id']}.json"
                jobs_file.write_text(json.dumps([job]), encoding="utf-8")
                out = self.work / "traced.json"
                child = self.worker(
                    "sweep", "--trace", "--jobs", str(jobs_file.relative_to(ROOT)),
                    "--out", str(out.relative_to(ROOT)), stem="worker",
                )
                record = json.loads(out.read_text(encoding="utf-8"))
                result = record["results"][0]
                child.update(exit=result["exit"], exception=result["exception"],
                             stdout=result["stdout"].encode())
                for span in record["spans"]:
                    span["problem"] = job["id"]
                spans += record["spans"]
                counts.update(record["counts"])
            else:
                child = self.spawn(
                    [sys.executable, "-m", "hypertoric", *job["argv"]], "cli"
                )
            runs.append(self._sample(job, child))
            self.reference.append(reference_s())
        return {
            # the client hands over each problem as the last report is back,
            # so a pass is its problems' times back to back
            "pass_s": sum(r["seconds"] for r in runs),
            "cpu_s": sum(r["cpu_s"] for r in runs),
            "maxrss_kb": max(r["maxrss_kb"] for r in runs),
            "runs": runs,
            "spans": spans,
            "counts": counts,
        }

    def _sweep_pass(self, order, traced):
        jobs_file = self.work / "order.json"
        jobs_file.write_text(json.dumps(order), encoding="utf-8")
        out = self.work / "sweep.json"
        flags = ["--trace"] if traced else []
        self.worker(
            "sweep", *flags, "--jobs", str(jobs_file.relative_to(ROOT)),
            "--out", str(out.relative_to(ROOT)), stem="worker",
        )
        self.reference.append(reference_s())
        record = json.loads(out.read_text(encoding="utf-8"))
        runs = []
        for job, result in zip(order, record["results"]):
            result["stdout"] = result["stdout"].encode()
            runs.append(self._sample(job, result))
        return {
            "pass_s": record["pass_s"],
            "cpu_s": record["cpu_s"],
            "maxrss_kb": record["maxrss_kb"],
            "runs": runs,
            "spans": record.get("spans", []),
            "counts": record.get("counts", {}),
        }

    def _sample(self, job, child) -> dict:
        sample = {
            "id": job["id"],
            "expected_exit": job["expected_exit"],
            "exit": child["exit"],
            "exception": child["exception"],
            "seconds": child["seconds"],
            "sha256": hashlib.sha256(child["stdout"]).hexdigest(),
            "cpu_s": child.get("cpu_s", 0.0),
            "maxrss_kb": child.get("maxrss_kb", 0),
        }
        self.reports.setdefault(sample["sha256"], child["stdout"])
        self.samples.append(sample)
        return sample

    def measure(self):
        self.reference = [reference_s()]
        self.setup_s = self.setup()
        self.reference.append(reference_s())
        passes, traced = self.plan()
        rng = random.Random(self.args.seed)
        for done, count, kind in ((self.passes, passes, False), (self.traced, traced, True)):
            for k in range(count):
                if k and time.perf_counter() - self.started > PASS_DEADLINE_S:
                    break
                order = rng.sample(self.jobs, len(self.jobs))
                done.append(self.one_pass(order, traced=kind))

    # -- checks --------------------------------------------------------------

    def check(self):
        start = time.perf_counter()
        oracle = OracleCheck()
        bad = {}
        for sha, stdout in self.reports.items():
            if not stdout:
                continue
            try:
                found = oracle.problems(stdout.decode())
            except (ValueError, KeyError, TypeError, IndexError) as error:
                found = [f"unreadable report: {error!r}"]
            if found:
                bad[sha] = "; ".join(found[:3])
        self.oracle_s = time.perf_counter() - start
        self.blocks_checked = oracle.blocks_checked
        pins = load_pins(ROOT, BENCH)
        self.failures = []
        self.correct = True
        for sample in self.samples:
            reason = verdict(sample, pins, bad)
            sample["failure"] = reason
            if reason is None:
                continue
            self.failures.append(sample)
            if reason.startswith("wrong output"):
                self.correct = False
        self.notes = sorted({f"{s['id']}: {s['failure']}" for s in self.failures})
        if self.traced and self.workload in CLI_WORKLOADS:
            coverage = self.coverage()
            if coverage < COVERAGE_FLOOR:
                self.correct = False
                self.notes.append(
                    f"spans cover {coverage:.1%} of the problem time, below {COVERAGE_FLOOR:.0%}"
                )

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        """Times in seconds at nominal host speed (see REF_NOMINAL_S)."""
        speed = self.speed()
        times = [r["seconds"] * speed for p in self.passes for r in p["runs"]]
        tail, pct = tail_of(times)
        self.tail_label = f"p{pct:.1f} of {len(times)}"
        return {
            "pass_s": (statistics.median(p["pass_s"] for p in self.passes) * speed, "s"),
            "pass_cpu_s": (statistics.median(p["cpu_s"] for p in self.passes) * speed, "s"),
            "report_s.p50": (statistics.median(times), "s"),
            "report_s.tail": (tail, "s"),
            "setup_s": (statistics.median(self.setup_s) * speed, "s"),
            "peak_rss_mb": (
                statistics.median(p["maxrss_kb"] for p in self.passes) / 1024, "MiB"
            ),
        }

    def speed(self) -> float:
        return REF_NOMINAL_S / statistics.mean(self.reference)

    def coverage(self) -> float:
        """Share of the traced problem time that top-level spans cover.

        Both sides come from the same traced runs: compared with untraced
        runs, the share would move with the machine's speed between runs.
        """
        covered = sum(
            s["end"] - s["start"] for p in self.traced for s in p["spans"]
            if s["parent"] is None and s["problem"] is not None
        )
        return covered / sum(r["seconds"] for p in self.traced for r in p["runs"])

    def per_layer(self) -> dict:
        metrics = {}
        for metric, span in SPAN_METRICS.items():
            metrics[metric] = (statistics.median(
                sum(s["end"] - s["start"] for s in p["spans"] if s["name"] == span)
                for p in self.traced
            ), "s")
        for name in COUNT_METRICS:
            metrics[name] = (statistics.median(
                sum(c.get(name, 0) for c in p["counts"].values()) for p in self.traced
            ), "bytes" if name.endswith("bytes") else "count")
        monomials = metrics["algebra.ambient_monomials"][0]
        metrics["algebra.quotient_ratio"] = (
            metrics["algebra.quotient_dim"][0] / monomials if monomials else 0.0, "ratio"
        )
        self_time = {layer: 0.0 for layer in LAYERS}
        for p in self.traced:
            # span ids restart in every process, and each process of a
            # pass runs its own problems, so (id, problem) names a span
            children: dict[tuple, float] = {}
            for s in p["spans"]:
                if s["parent"] is not None:
                    key = (s["parent"], s["problem"])
                    children[key] = children.get(key, 0.0) + s["end"] - s["start"]
            for s in p["spans"]:
                own = s["end"] - s["start"] - children.get((s["id"], s["problem"]), 0.0)
                self_time[s["name"].split(".")[0]] += own
        total = sum(self_time.values())
        for layer in LAYERS:
            metrics[f"{layer}.share"] = (self_time[layer] / total, "ratio")
        metrics["oracle.check_s"] = (self.oracle_s, "s")
        metrics["oracle.blocks_checked"] = (self.blocks_checked, "count")
        metrics["corpus.generate_s"] = (
            statistics.median(self.generate_s) if self.generate_s else 0.0, "s"
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in self.traced)
            / statistics.median(p["pass_s"] for p in self.passes), "ratio"
        )
        metrics["trace.coverage"] = (self.coverage(), "ratio")
        return metrics

    def result(self) -> dict:
        e2e = self.end_to_end()
        metrics = self.per_layer() if self.args.trace else e2e
        attempted = len(self.samples)
        self.row = {name: value for name, (value, _) in e2e.items()}
        self.row["failed_ratio"] = (
            f"{len(self.failures) / attempted:.4f} ({len(self.failures)}/{attempted})"
        )
        return {
            "correct": self.correct,
            "attempted": attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def record(self, result: dict) -> dict:
        return {
            "workload": self.workload,
            "seed": self.args.seed,
            "corpus_seed": self.args.corpus_seed,
            "seconds": self.args.seconds,
            "passes": len(self.passes),
            "traced_passes": len(self.traced),
            "problems": [j["id"] for j in self.jobs],
            "tail": self.tail_label,
            "problem_s": {
                pid: [r["seconds"] for p in self.passes for r in p["runs"] if r["id"] == pid]
                for pid in (j["id"] for j in self.jobs)
            },
            "notes": self.notes,
            "speed": self.speed(),
            "reference_s": self.reference,
            "raw": {
                "pass_s": [p["pass_s"] for p in self.passes],
                "pass_cpu_s": [p["cpu_s"] for p in self.passes],
                "setup_s": self.setup_s,
            },
            **machine(),
            "result": result,
        }


def tail_of(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypertoric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def table(rows: dict[str, dict], tails: dict[str, str]) -> str:
    head = ("workload", "pass_s", "pass_cpu_s", "report_s.p50", "report_s.tail",
            "setup_s", "peak_rss_mb", "failed_ratio")
    lines = ["times in seconds at nominal host speed",
             "  ".join(f"{h:>14}" for h in head)]
    for workload, row in rows.items():
        cells = [workload]
        for name in head[1:]:
            value = row[name]
            if name == "failed_ratio":
                cells.append(value)
            elif name == "peak_rss_mb":
                cells.append(f"{value:.1f} MiB")
            else:
                cells.append(f"{value:.4f} s")
        lines.append("  ".join(f"{c:>14}" for c in cells) + f"  tail = {tails[workload]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="problem order in each pass")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                        help="fixed_corpus seed of corpus-sweep; digests are pinned "
                             "for the default only")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "hypertoric", ROOT / "problems", ROOT / "tests" / "golden")
               if not p.is_dir()]
    if missing:
        print("not a hypertoric checkout: missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    rows, tails, results = {}, {}, {}
    for workload in workloads:
        run = Run(workload, args)
        run.measure()
        run.check()
        result = run.result()
        record = run.record(result)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (WORK / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
        for note in run.notes:
            print(f"{workload}: {note}")
        print("record " + json.dumps({k: v for k, v in record.items() if k != "result"}))
        rows[workload], tails[workload], results[workload] = run.row, run.tail_label, result
    print(table(rows, tails))
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
