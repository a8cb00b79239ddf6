"""Child process of the benchmark; `run.py` starts a fresh one each time.

    python3 bench/worker.py setup --corpus-seed S --work DIR
        import the command line, generate the corpus and write the
        corpus-sweep problem files; print the corpus generation time.

    python3 bench/worker.py sweep --jobs FILE --out FILE --spawned-at T [--trace]
        call hypertoric.cli.main in this process for every job, one after
        the other, and write per-job exit codes, report digests and times.
        T is the parent's time.perf_counter() at the spawn; the monotonic
        clock it reads is shared by all processes of the machine.

Paths are relative to the checkout root, which is the working directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def setup(args) -> int:
    import hypertoric.cli  # noqa: F401  (part of what a sweep pays before its first problem)
    from hypertoric.corpus import fixed_corpus

    from problems import corpus_jobs

    start = time.perf_counter()
    entries = fixed_corpus(count=24, seed=args.corpus_seed)
    generate_s = time.perf_counter() - start
    root = Path.cwd()
    work = root / args.work
    work.mkdir(parents=True, exist_ok=True)
    jobs = corpus_jobs(entries, args.corpus_seed, root, work)
    (work / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    print(json.dumps({"generate_s": generate_s}))
    return 0


def sweep(args) -> int:
    from hypertoric import cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    if tracer is not None:
        tracer.record("cli.startup", args.spawned_at, ready)
    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    results = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    first = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.problem = job["id"]
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(job["argv"])
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(job["argv"])
            except Exception as error:  # an escaped exception is a failed job
                code, exc = None, type(error).__name__
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.count_slices()
        text = out.getvalue()
        results.append({
            "id": job["id"],
            "exit": code,
            "exception": exc,
            "seconds": seconds,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stdout": text,
        })
    last = time.perf_counter()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "pass_s": last - first,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "maxrss_kb": cpu1.ru_maxrss,
        "startup_s": ready - args.spawned_at,
        "results": results,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = {k: dict(v) for k, v in tracer.counts.items()}
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--corpus-seed", type=int, required=True)
    p_setup.add_argument("--work", required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--jobs", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--trace", action="store_true")
    p_sweep.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    return setup(args) if args.mode == "setup" else sweep(args)


if __name__ == "__main__":
    sys.exit(main())
