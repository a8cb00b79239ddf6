"""End-to-end acceptance gate.

One test per criterion; every comparison is exact integer or set equality,
no tolerances anywhere.  Each test records a PASS/FAIL line that the
terminal summary hook in conftest prints after the run.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from math import comb

from hypertoric import (
    GradedQuiverAlgebra,
    SymplecticRep,
    build_zonotope,
    enumerate_window,
    koszul_check,
    moment_quadrics,
    oracle_block_dimension,
    oracle_lattice_points,
    quiver_presentation,
    reduce_to_generic,
    singular_codim_estimate,
    verify_regular_sequence,
)
from hypertoric.koszul import default_depth
from hypertoric.pipeline import load_problem, parse_problem, run


@contextmanager
def criterion(label, log):
    try:
        yield
    except BaseException:
        log.append((label, "FAIL"))
        raise
    log.append((label, "PASS"))


def test_criterion_1_conifold_end_to_end(problems_dir, acceptance_log):
    with criterion("criterion 1: conifold end to end", acceptance_log):
        report = run(load_problem(str(problems_dir / "conifold.json")))
        assert report.exit_code == 0

        window = report.sections["window"]
        assert window["points"] == [[0], [1]]

        quiver = report.sections["quiver"]
        assert len(quiver["vertices"]) == 2
        arrows = [(a["source"], a["target"]) for a in quiver["arrows"]]
        assert arrows.count((0, 1)) == 2 and arrows.count((1, 0)) == 2
        assert len(arrows) == 4
        relations = quiver["relations"]
        assert len(relations) == 2
        for rel in relations:
            assert all(len(t["path"]) == 2 for t in rel["terms"])

        koszul = report.sections["koszul"]
        quo = koszul["quotient"]
        assert (quo["depth"], quo["degree_bound"]) == (4, 6)
        assert quo["status"] == "linear" and quo["all_exhausted"]
        assert quo["numeric"]["consistent"]
        assert {c["name"]: c["status"] for c in report.checks}["koszul_quotient"] == "PASS"

        # the ambient window algebra must show a second-step generator in
        # internal degree three, i.e. fail linearity exactly there
        amb = koszul["ambient"]
        assert amb["first_violation"] == [0, 2, 3]
        assert [1, 3] in amb["resolutions"][0]["steps"][2]


def test_criterion_2_regular_sequences(rep_a, rep_b, window_a, window_b, acceptance_log):
    with criterion("criterion 2: regular sequence verification", acceptance_log):
        for rep, window, upto in ((rep_a, window_a, 8), (rep_b, window_b, 6)):
            quo = GradedQuiverAlgebra(rep, window, upto)
            report = verify_regular_sequence(quo)
            assert report.passed and report.first_failure is None
            diffs = {
                tuple(a - b for a, b in zip(p, q))
                for p in window.points
                for q in window.points
            }
            assert set(report.weights) == diffs

            # blockwise series factorization through the quadric count
            s = rep.torus_rank
            amb = quo.ambient()
            for n in range(upto + 1):
                for i in range(quo.num_vertices):
                    for j in range(quo.num_vertices):
                        want = sum(
                            (-1) ** k * comb(s, k) * amb.dim(i, j, n - 2 * k)
                            for k in range(s + 1)
                            if n - 2 * k >= 0
                        )
                        assert quo.dim(i, j, n) == want

        # control: a duplicated quadric must fail, and at the first degree
        # where the alternating count goes negative or undershoots
        qs = moment_quadrics(rep_b)
        control = verify_regular_sequence(
            GradedQuiverAlgebra(rep_b, window_b, 6, quadrics=qs + (qs[0],))
        )
        assert not control.passed
        assert control.first_failure.degree == 2
        assert control.first_failure.weight == (0, 0)
        assert (control.first_failure.got, control.first_failure.expected) == (1, 0)


def test_criterion_3_oracle_equivalence(corpus, acceptance_log):
    with criterion("criterion 3: oracle equivalence on random corpus", acceptance_log):
        assert len(corpus) >= 20
        for entry in corpus:
            rep, eps = entry.rep, entry.epsilon
            assert rep.torus_rank <= 2 and rep.num_pairs <= 4
            assert all(abs(x) <= 2 for w in rep.half_weights for x in w)

            window = enumerate_window(build_zonotope(rep), eps)
            assert set(window.points) == oracle_lattice_points(rep, eps)

            quo = GradedQuiverAlgebra(rep, window, 6)
            amb = quo.ambient()
            for i, mu in enumerate(window.points):
                for j, mup in enumerate(window.points):
                    for n in range(7):
                        assert quo.dim(i, j, n) == oracle_block_dimension(
                            rep, mu, mup, n, True
                        )
                        assert amb.dim(i, j, n) == oracle_block_dimension(
                            rep, mu, mup, n, False
                        )


def test_criterion_4_genericity_rejection(rep_a, rep_b, acceptance_log):
    with criterion("criterion 4: genericity rejection with witnesses", acceptance_log):
        expected_witness = {
            (1, 0): [0, 1],
            (0, 1): [1, 0],
            (1, 1): [1, -1],
        }
        for chi, witness in expected_witness.items():
            report = run(
                parse_problem(
                    {
                        "torus_rank": 2,
                        "half_weights": [[1, 0], [0, 1], [1, 1]],
                        "chi": list(chi),
                        "epsilon": [2, 1],
                        "analyses": ["validation", "genericity"],
                    }
                )
            )
            assert report.exit_code == 2
            assert report.sections["genericity"]["chi"]["witness"] == witness

        accepted = run(
            parse_problem(
                {
                    "torus_rank": 2,
                    "half_weights": [[1, 0], [0, 1], [1, 1]],
                    "chi": [2, 1],
                    "epsilon": [2, 1],
                    "analyses": ["validation", "genericity"],
                }
            )
        )
        assert accepted.exit_code == 0

        # rank one: the single flat is the origin, so exactly chi = 0 fails
        zono = build_zonotope(rep_a)
        for c in range(-3, 4):
            assert zono.is_generic((c,)) == (c != 0)
        assert zono.generic_witness((0,)) == (1,)


def test_criterion_5_codimension_bound(corpus, acceptance_log):
    with criterion("criterion 5: codimension at least three on corpus", acceptance_log):
        for entry in corpus:
            reduced = reduce_to_generic(entry.rep).reduced
            est = singular_codim_estimate(reduced)
            assert est.estimate is None or est.estimate >= 3


def test_criterion_6_reduction_reconstruction(acceptance_log):
    with criterion("criterion 6: reduction window reconstruction", acceptance_log):
        rep = SymplecticRep(2, ((1, 0), (1, 0), (0, 1)))
        red = reduce_to_generic(rep, chi=(1, 1), epsilon=(1, 2))
        assert red.reduced.half_weights == ((1,), (1,))

        reduced_window = enumerate_window(
            build_zonotope(red.reduced), red.epsilon
        )
        reconstructed = set(red.lift_window(reduced_window.points))
        direct = set(
            enumerate_window(build_zonotope(rep), (1, 2)).points
        )
        assert reconstructed == direct


def test_criterion_7_resolution_ledgers(corpus, acceptance_log):
    with criterion("criterion 7: resolution ledger sanity on corpus", acceptance_log):
        upto = 4
        for entry in corpus:
            window = enumerate_window(build_zonotope(entry.rep), entry.epsilon)
            alg = GradedQuiverAlgebra(entry.rep, window, upto)
            report = koszul_check(alg, depth=min(default_depth(alg), 4))
            for res in report.resolutions:
                prev_max = -1
                for step in res.steps:
                    if not step:
                        continue
                    degrees = [f for _, f in step]
                    assert min(degrees) > prev_max
                    prev_max = max(degrees)

                n_max = upto if res.exhausted else max(f for _, f in res.steps[-1])
                for n in range(n_max + 1):
                    for vtx in range(alg.num_vertices):
                        total = sum(
                            (-1) ** k * alg.dim(v, vtx, n - f)
                            for k, step in enumerate(res.steps)
                            for v, f in step
                            if n - f >= 0
                        )
                        want = 1 if (n == 0 and vtx == res.vertex) else 0
                        assert total == want


def test_criterion_8_cli_determinism(problems_dir, golden_dir, acceptance_log):
    with criterion("criterion 8: deterministic command line output", acceptance_log):
        cmd = [
            sys.executable,
            "-m",
            "hypertoric",
            "run",
            str(problems_dir / "conifold.json"),
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode() == (golden_dir / "conifold_report.json").read_text()
        payload = json.loads(first.stdout)
        assert payload["exit_code"] == 0
