"""Spans and counters recorded around the calls `pipeline.run` makes.

The tracer wraps, for the life of one benchmark child process, the public
functions that `hypertoric.pipeline` and `hypertoric.cli` call, so the real
pipeline runs unchanged and produces the real report.  Each wrapper records
a span (name, start, end, parent span, problem id) and, where the result
carries it, a work count read from public attributes.  One deviation from
the untraced call order: before a resolution starts, its algebra's Hilbert
blocks are built inside an `algebra.*` span, so that `koszul.*` spans time
resolutions only.  The pipeline builds those same blocks right after each
resolution anyway, so the traced process does the same work.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = {}
        self.problem: str | None = None
        self._stack: list[int] = []
        self._algebras: list = []

    def record(self, name: str, start: float, end: float | None = None) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "problem": self.problem,
            "start": start,
            "end": end,
        }
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        rec = self.record(name, time.perf_counter())
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int):
        self.counts.setdefault(self.problem, Counter())[name] += value

    def _wrap(self, module, attr: str, name: str, counter=None):
        func = getattr(module, attr)

        @wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                counter(result)
            return result

        setattr(module, attr, traced)

    def install(self):
        """Patch the pipeline's collaborators; lasts until the process exits."""
        from hypertoric import algebra, cli, pipeline

        count = self.count
        self._wrap(cli, "load_problem", "pipeline.parse")
        self._wrap(cli, "run", "pipeline.run")
        self._wrap(pipeline.Report, "to_json", "pipeline.render",
                   lambda text: count("pipeline.report_bytes", len(text.encode())))
        self._wrap(pipeline, "require_valid", "reps.validate")
        self._wrap(pipeline, "moment_quadrics", "reps.quadrics")
        self._wrap(pipeline, "reduce_to_generic", "reps.codim")
        self._wrap(pipeline, "singular_codim_estimate", "reps.codim")
        self._wrap(pipeline, "build_zonotope", "zonotope.build",
                   lambda z: count("zonotope.facets", len(z.facets)))
        self._wrap(pipeline, "find_generic_direction", "zonotope.build")
        self._wrap(pipeline, "enumerate_window", "zonotope.window",
                   lambda w: count("zonotope.window_points", len(w.points)))
        self._wrap(pipeline, "verify_regular_sequence", "algebra.regseq")
        self._wrap(pipeline, "quiver_presentation", "algebra.quiver")
        self._wrap(pipeline, "numerical_koszul_consistency", "koszul.numeric")

        hilbert = algebra.GradedQuiverAlgebra.hilbert_matrices

        @wraps(hilbert)
        def traced_hilbert(alg, *args, **kwargs):
            name = "algebra.hilbert" if alg.quadrics else "algebra.ambient_hilbert"
            with self.span(name):
                result = hilbert(alg, *args, **kwargs)
            if alg.quadrics and not any(a is alg for a in self._algebras):
                self._algebras.append(alg)
            return result

        algebra.GradedQuiverAlgebra.hilbert_matrices = traced_hilbert

        koszul_check = pipeline.koszul_check

        @wraps(koszul_check)
        def traced_koszul(alg, *args, **kwargs):
            alg.hilbert_matrices()
            side = "quotient" if alg.quadrics else "ambient"
            with self.span(f"koszul.{side}"):
                report = koszul_check(alg, *args, **kwargs)
            for res in report.resolutions:
                count(f"koszul.generators.{side}", sum(res.betti_counts))
                count("koszul.steps", len(res.betti_counts))
            return report

        pipeline.koszul_check = traced_koszul

    def count_slices(self):
        """Count the quotient slices behind the Hilbert blocks of this problem.

        Reads only cached slices, through the public QuotientPiece
        attributes, and runs between problems, outside every span.
        """
        for alg in self._algebras:
            seen = set()
            v = alg.num_vertices
            for n in range(alg.degree_bound + 1):
                for i in range(v):
                    for j in range(v):
                        piece = alg.piece(i, j, n)
                        if id(piece) in seen:
                            continue
                        seen.add(id(piece))
                        self.count("algebra.slices", 1)
                        self.count("algebra.ambient_monomials", piece.ambient_dim)
                        self.count("algebra.relation_rank", piece.relation_rank)
                        self.count("algebra.quotient_dim", piece.dim)
        self._algebras.clear()
