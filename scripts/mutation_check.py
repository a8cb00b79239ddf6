#!/usr/bin/env python3
"""Check that tier-1 kills each listed mutation of the engine, its oracle and the sweep.

    python3 scripts/mutation_check.py

The checkout is copied once into a temporary directory (without .git and
caches), and tier-1 runs there unmutated first: a failing baseline would
make every mutation look killed, so it stops the check.  Then each
mutation's old text, which must occur exactly once in its file, is replaced
by its new text, `python -m pytest -x -q` runs with PYTHONPATH pointing at
the copy's src/, and the file is restored.  A mutation is killed when
pytest fails or runs past TIMEOUT_S, and survives when it passes.  A
failed run's line names the first test that pytest's summary lists as
FAILED or ERROR, the test that killed the mutation.

Mutations marked equivalent cannot change any result, for the reason
given, and are expected to survive.  The script exits 1 when a mutation
that is not marked equivalent survives, or when a mutation's old text is
not found exactly once (the list has gone stale); a marked equivalent that
is killed is reported, since its reason no longer holds, but does not fail
the check.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tier-1 takes about 20 s; a mutation that makes it hang counts as killed
TIMEOUT_S = 300
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".benchmarks",
    "*.egg-info",
)


class Mutation(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    equivalent: bool = False


ALGEBRA, KOSZUL = "src/hypertoric/algebra.py", "src/hypertoric/koszul.py"
REPS, LATTICE = "src/hypertoric/reps.py", "src/hypertoric/lattice.py"
ZONOTOPE, PIPELINE = "src/hypertoric/zonotope.py", "src/hypertoric/pipeline.py"
CLI, ORACLE = "src/hypertoric/cli.py", "src/hypertoric/oracle.py"
CORPUS, SWEEP = "src/hypertoric/corpus.py", "scripts/corpus_sweep.py"

MUTATIONS = [
    Mutation(
        "pivot-first-support-pair", ALGEBRA,
        "{b + store.pairs[p] for p, _, _ in self._substitutions for b in bases}",
        "{b + store.pairs[min([p] + [z.index(1) for z, _ in free])]"
        " for p, _, free in self._substitutions for b in bases}",
        "the pivots read from the first pair of each reduced quadric's support, not its pivot pair",
    ),
    Mutation(
        "pivot-last-pair", ALGEBRA,
        "{b + store.pairs[p] for p, _, _ in self._substitutions for b in bases}",
        "{b + store.pairs[-1] for p, _, _ in self._substitutions for b in bases}",
        "the pivots read from the last pair whatever the reduced quadrics' support",
    ),
    Mutation(
        "pivot-first-pair-only", ALGEBRA,
        "for p, _, _ in self._substitutions for b in bases}",
        "for p, _, _ in self._substitutions[:1] for b in bases}",
        "the pivots are read from the first reduced quadric's pivot pair only",
    ),
    Mutation(
        "weight-length-unchecked", ALGEBRA,
        "        if len(w) != self.rank:\n",
        "        if False:\n",
        "a weight whose length is not the torus rank packs to another slice's key",
    ),
    Mutation(
        "series-one-degree-short", ALGEBRA,
        "for d in range(1, top + 1):",
        "for d in range(1, top):",
        "the Hilbert series is expanded one degree short of the ring's bound",
    ),
    Mutation(
        "series-x-variables-only", ALGEBRA,
        "for s in (step, -step):",
        "for s in (step,):",
        "the Hilbert series multiplies in the x-variables only",
    ),
    Mutation(
        "series-rank-one-degree-down", ALGEBRA,
        "(a, r * amb[n - 2] if n >= 2 else 0)",
        "(a, r * amb[n - 1] if n >= 2 else 0)",
        "a counted weight's series, which its pieces read too, subtracts r amb(n - 1, w),"
        " not r amb(n - 2, w)",
    ),
    Mutation(
        "counted-piece-without-rank", ALGEBRA,
        "size, rank = counts[n] if n >= 0 else (0, 0)",
        "size, rank = (counts[n][0], 0) if n >= 0 else (0, 0)",
        "a counted piece reads its monomials off the weight's counts but not its rank",
    ),
    Mutation(
        "pivots-one-degree-down", ALGEBRA,
        "bases = store.packed(n - 2, w) if self._substitutions and n >= 2 else ()",
        "bases = store.packed(n - 1, w) if self._substitutions and n >= 2 else ()",
        "a piece forms its pivots from the degree n-1 slice, not n-2",
    ),
    Mutation(
        "gate-without-reach-guard", ALGEBRA,
        "        if any(abs(c) > limit for c in w):\n            return None\n",
        "        if False:\n            return None\n",
        "the weight gate packs a weight beyond the degree's reach, whose key may alias,"
        " for listing and counting alike",
    ),
    Mutation(
        "quiver-pivot-test-skipped", ALGEBRA,
        "            taken = () if pivots.isdisjoint(products) else zs\n",
        "            taken = ()\n",
        "every quiver block is written as binomials, also one with a pivot product x_p y_p",
    ),
    Mutation(
        "quiver-pivot-product-untaken", ALGEBRA,
        "        pivots.add(store.pairs[p])\n",
        "",
        "the quiver finds no pivot product x_p y_p, so every block is written as binomials",
    ),
    Mutation(
        "quiver-binomial-sign", ALGEBRA,
        "relation(i, k, ((1, paths[earlier]), (-1, paths[c])))",
        "relation(i, k, ((-1, paths[earlier]), (1, paths[c])))",
        "a binomial quiver relation is written this - first, against the kernel's sign rule",
    ),
    Mutation(
        "relation-string-path-reversed", ALGEBRA,
        'words = ((c, f"{arrows[a].label}*{arrows[b].label}") for c, (a, b) in terms)',
        'words = ((c, f"{arrows[b].label}*{arrows[a].label}") for c, (a, b) in terms)',
        "a relation's string writes each path second arrow first, against its terms",
    ),
    Mutation(
        "quiver-arrows-ascending", ALGEBRA,
        "    for pos in range(2 * e - 1, -1, -1):\n",
        "    for pos in range(2 * e):\n",
        "a block's arrows are listed x_1 .. x_e, y_1 .. y_e, against the slice's lex order",
    ),
    Mutation(
        "quiver-free-z-column-doubled", ALGEBRA,
        "({j: 1}, 1) for j in range(e)}",
        "({j: 2}, 1) for j in range(e)}",
        "a free z_j's kernel column is 2 e_j, not the e_j that reduce gives",
    ),
    Mutation(
        "quiver-block-relations-unmerged", ALGEBRA,
        "                block.sort(key=itemgetter(0))\n",
        "",
        "a pivot block's kernel relations follow its binomials, not merged in free-column order",
    ),
    Mutation(
        "resolution-bound-off-by-one", KOSZUL,
        "        if step > bound:",
        "        if step >= bound:",
        "a resolution stops one step early as truncation-limited",
    ),
    Mutation(
        "regseq-rank-from-quadric-count", ALGEBRA,
        "q, r = len(ring.quadrics), len(ring._substitutions)",
        "q, r = len(ring.quadrics), len(ring.quadrics)",
        "the regular-sequence test reads the quadrics' rank as their number",
    ),
    Mutation(
        "regseq-got-without-rank", ALGEBRA,
        "got = ring.ambient_dim(2, zero) - r",
        "got = ring.ambient_dim(2, zero)",
        "a failed regular sequence reports the ambient count as its dimension",
    ),
    Mutation(
        "leading-label-from-last-term", KOSZUL,
        "t, mono, _ = terms[0]",
        "t, mono, _ = terms[-1]",
        "the leading-column prediction reads an element's largest label",
    ),
    Mutation(
        "slice-product-keeps-cancelled-column", KOSZUL,
        "                    out.pop(c, None)\n",
        "                    pass\n",
        "a resolution product keeps a column whose terms cancel as a zero entry",
    ),
    Mutation(
        "certify-at-dim-minus-one", KOSZUL,
        "                if len(counted) == dim:\n                    continue",
        "                if len(counted) >= dim - 1:\n                    continue",
        "a slice is certified one counted column short of its syzygy dimension",
    ),
    Mutation(
        "hilbert-inverse-sign", KOSZUL,
        "[(-1) ** (k + 1) * h for k in range(1, n + 1)",
        "[(-1) ** k * h for k in range(1, n + 1)",
        "the inverse Hilbert series takes the opposite sign in every term",
    ),
    Mutation(
        "strict-faithfulness-ignores-factors", REPS,
        "strict = (wr == s) and all(f == 1 for f in inv)",
        "strict = (wr == s)",
        "strict faithfulness no longer asks for unit invariant factors",
    ),
    Mutation(
        "reduction-projects-first-step-only", REPS,
        "for step in self.steps:\n            v = project_vec(",
        "for step in self.steps[:1]:\n            v = project_vec(",
        "project maps chi, epsilon and xi through the first split only",
    ),
    Mutation(
        "reduction-strictness-unchecked", REPS,
        "if not report.strictly_faithful:",
        "if False:",
        "a rep whose half-weights do not generate the lattice is split anyway",
    ),
    Mutation(
        "violation-only-past-next-degree", KOSZUL,
        "bad = next((g for g in found if g.degree != step), None)",
        "bad = next((g for g in found if g.degree > step + 1), None)",
        "a generator one degree too high is not a violation",
    ),
    Mutation(
        "perturbed-contains-strict-sign", ZONOTOPE,
        "dot(f.normal, epsilon) <= 0",
        "dot(f.normal, epsilon) < 0",
        "enumerate_window first rejects any tilt with n . epsilon = 0 for a flat"
        " normal n, so the pairing is never zero here",
        equivalent=True,
    ),
    Mutation(
        "default-depth-cap", KOSZUL,
        "return min(max(2 * e - 2 * s, 2), 4)",
        "return min(max(2 * e - 2 * s, 2), 5)",
        "a four-pair rank-1 ring resolves to depth 5 where 2(e - s) = 6 was capped at 4",
    ),
    Mutation(
        "codim-tie-break-reversed", REPS,
        "flat = min(flats, key=lambda f: (-len(f), f))",
        "flat = min(flats, key=lambda f: (-len(f), f[::-1]))",
        "the codimension section reports another of the largest flats",
    ),
    Mutation(
        "koszul-ignores-series-sign", PIPELINE,
        'if quotient["status"] == "violation" or not quotient["numeric"].consistent:',
        'if quotient["status"] == "violation":',
        "a negative inverse Hilbert series no longer fails the koszul check",
    ),
    Mutation(
        "column-kernel-without-common-multiplier", LATTICE,
        "        f = common // d\n",
        "        f = 1\n",
        "column_kernel drops the column denominators instead of scaling to a common one",
    ),
    Mutation(
        "smith-without-divisibility-pass", LATTICE,
        "for i, j in combinations(range(len(factors)), 2):",
        "for i, j in ():",
        "the invariant factors skip the divisibility chain",
    ),
    Mutation(
        "smith-adjacent-pairs-only", LATTICE,
        "for i, j in combinations(range(len(factors)), 2):",
        "for i, j in zip(range(len(factors)), range(1, len(factors))):",
        "the divisibility chain takes one pass over adjacent pairs, which moves"
        " a smaller factor forward by one place only",
    ),
    Mutation(
        "packing-one-bit-short", ALGEBRA,
        "self.width = width = max(max_degree, 2).bit_length()",
        "self.width = width = max(max_degree, 2).bit_length() - 1",
        "a packed exponent field one bit narrower, so high exponents carry",
    ),
    Mutation(
        "decode-field-order", ALGEBRA,
        "range(2 * self.fields - 1, -1, -1)",
        "range(2 * self.fields)",
        "the store's view reads a packed monomial's fields from the least significant",
    ),
    Mutation(
        "window-extra-point", ZONOTOPE,
        "    return CharacterWindow(points=tuple(points))",
        "    if abs(epsilon[0]) > 5:\n"
        "        points.append(tuple(r.stop for r in zono.window_ranges()))\n"
        "    return CharacterWindow(points=tuple(points))",
        "the window gains a point outside the zonotope for tilts with |epsilon_1| > 5",
    ),
    Mutation(
        "phantom-leading-column", KOSZUL,
        "            c = dom.leading_column(g.terms, lam)\n",
        "            c = dom.leading_column(g.terms, lam)\n"
        "            if n >= 3 and lam == alg.basis(g.vertex, u, n - g.degree)[-1]:\n"
        "                c = -1 - len(counted)\n",
        "the leading-column count over-counts a phantom column from degree 3",
    ),
    Mutation(
        "reduce-max-power", ALGEBRA,
        "k = min(mono[p], mono[e + p])",
        "k = max(mono[p], mono[e + p])",
        "reduce strips max(a_p, b_p) factors z_p instead of min(a_p, b_p)",
    ),
    Mutation(
        "reduce-no-gcd", ALGEBRA,
        "g = gcd(denominator, *row.values())",
        "g = 1",
        "reduce returns its row and denominator without dividing out their gcd",
    ),
    Mutation(
        "reduced-quadrics-pivots-first", ALGEBRA,
        "{e - 1 - i: c for i, c in enumerate(q.coefficients)} for q in self.quadrics\n"
        "        )\n"
        "        self._substitutions = tuple(\n"
        "            (e - 1 - col, row[col], tuple((z[e - 1 - j], c)",
        "{i: c for i, c in enumerate(q.coefficients)} for q in self.quadrics\n"
        "        )\n"
        "        self._substitutions = tuple(\n"
        "            (col, row[col], tuple((z[j], c)",
        "the reduced quadrics put their pivots on the first pairs",
    ),
    Mutation(
        "writer-empty-before-type", PIPELINE,
        "    elif kind is list or kind is tuple:\n",
        "    elif not value or kind is list or kind is tuple:\n",
        "the report writer tests for emptiness before the type, so an empty set, empty"
        " bytes or 0.0 is written as [] instead of refused, and Fraction(0) as [], not 0",
    ),
    Mutation(
        "writer-record-fields-unsorted", PIPELINE,
        "keys, read = sorted(names), partial(getattr, value)",
        "keys, read = names, partial(getattr, value)",
        "the report writer writes a record's fields in declaration order, not sorted",
    ),
    Mutation(
        "writer-fraction-numerator-only", PIPELINE,
        """write(repr(n) if d == 1 else f'"{n}/{d}"')""",
        "write(repr(n))",
        "the report writer writes a Fraction as its numerator alone",
    ),
    Mutation(
        "sweep-blocks-unchecked", SWEEP,
        "blocks_ok = all(",
        "blocks_ok = True or all(",
        "the corpus sweep passes every reported Hilbert block without asking the oracle",
    ),
    Mutation(
        "oracle-vertices-unchecked", ORACLE,
        "    if set(points) != oracle_lattice_points(rep, epsilon):\n",
        "    if False:\n",
        "the quiver oracle accepts vertices that are not the window's lattice points",
    ),
    Mutation(
        "oracle-foreign-path-accepted", ORACLE,
        '                        problems.append(f"block ({i}, {k}): path {(a, b)}'
        ' is not in the block")\n',
        "",
        "the quiver oracle drops a relation's term whose path is not in its block, unreported",
    ),
    Mutation(
        "oracle-dependent-relations-unchecked", ORACLE,
        "            if _dense_rank(rows) < len(rels):\n",
        "            if False:\n",
        "the quiver oracle accepts relations that are dependent as paths",
    ),
    Mutation(
        "corpus-keeps-oracle-refusals", CORPUS,
        "        except ResourceBudgetError:\n            continue\n",
        "        except ResourceBudgetError:\n            pass\n",
        "the corpus admits a candidate that the oracle refuses",
    ),
    Mutation(
        "cli-main-without-flush", CLI,
        "            sys.stdout.write(output)\n            sys.stdout.flush()\n",
        "            sys.stdout.write(output)\n",
        "main leaves a short report in stdout's buffer, so an in-process caller's"
        " shutdown flush meets a closed pipe outside main",
    ),
    Mutation(
        "cli-exit-without-flush", CLI,
        "        try:\n            sys.stdout.flush()\n        except OSError as exc:\n"
        "            code = _fail",
        "        try:\n            pass\n        except OSError as exc:\n"
        "            code = _fail",
        "the process entry ends without flushing stdout, losing argparse's help text",
    ),
    Mutation(
        "cli-exit-status-zero", CLI,
        "    os._exit(code)",
        "    os._exit(0)",
        "the process entry ends every run with status 0",
    ),
    Mutation(
        "cli-flush-error-escapes", CLI,
        "        except OSError as exc:\n            code = _fail(_stdout_refused(exc))",
        "        except ValueError as exc:\n            code = _fail(_stdout_refused(exc))",
        "the entry's flush of argparse's help into a closed pipe raises out of it"
        " with a traceback",
    ),
    Mutation(
        "cli-write-error-escapes", CLI,
        "        except (OSError, UnicodeEncodeError) as exc:\n"
        "            raise _stdout_refused(exc)",
        "        except UnicodeEncodeError as exc:\n            raise _stdout_refused(exc)",
        "a write that a full stdout refuses raises out of main with a traceback",
    ),
    Mutation(
        "output-encode-error-escapes", CLI,
        "        except (OSError, UnicodeEncodeError) as exc:\n"
        "            raise _stdout_refused(exc)",
        "        except OSError as exc:\n            raise _stdout_refused(exc)",
        "a text report that stdout's encoding cannot take raises out of main with a traceback",
    ),
    Mutation(
        "cli-error-line-to-closed-stderr", CLI,
        "    if sys.stderr is not None:\n        try:\n            sys.stderr.write(",
        "    if True:\n        try:\n            sys.stderr.write(",
        "an error line for a closed stderr raises, and the run exits 1, not with its code",
    ),
    Mutation(
        "cli-refused-stdout-keeps-its-fd", CLI,
        "        os.dup2(null, sys.stdout.fileno())\n",
        "",
        "a report that main's flush could not write stays buffered, so the entry's"
        " flush fails again and a second error line follows",
    ),
]


def tier1(copy: Path) -> tuple[str, float, str | None]:
    """Run tier-1 with -x in the copy; return (passed|failed|timeout, seconds, killer).

    The killer is the first FAILED or ERROR node of pytest's summary, if any.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    killer = next(
        (
            line.split()[1]
            for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ),
        None,
    )
    return ("passed" if done.returncode == 0 else "failed"), seconds, killer


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        where = subprocess.run(
            [sys.executable, "-c", "import hypertoric; print(hypertoric.__file__)"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"tier-1 would import hypertoric from {where}, not the copy", file=sys.stderr)
            return 1
        outcome, seconds, _ = tier1(copy)
        print(f"baseline: tier-1 {outcome} in {seconds:.1f} s", flush=True)
        if outcome != "passed":
            return 1
        bad = []
        for m in MUTATIONS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            count = text.count(m.old)
            if count != 1:
                print(f"STALE     {m.name}: old text found {count} times in {m.file}", flush=True)
                bad.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                outcome, seconds, killer = tier1(copy)
            finally:
                path.write_text(text, encoding="utf-8")
            survived = outcome == "passed"
            if survived and not m.equivalent:
                verdict = "SURVIVED"
                bad.append(m.name)
            elif survived:
                verdict = "equiv"
            else:
                verdict = "KILLED?" if m.equivalent else "killed"
            by = f", by {killer}" if killer else ""
            print(f"{verdict:9} {m.name} ({outcome}, {seconds:.1f} s{by}): {m.why}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTATIONS)} mutations in {total:.0f} s; "
          f"{'unexpected: ' + ', '.join(bad) if bad else 'no unexpected survivor'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
