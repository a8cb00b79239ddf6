#!/usr/bin/env python3
"""Walk the smallest interesting example through every stage by hand.

Run from the repository root:

    python3 scripts/conifold_demo.py

Prints the same facts the CLI reports for problems/conifold.json, but via
direct library calls, so it doubles as a usage tour.
"""

from hypertoric import (
    GradedQuiverAlgebra,
    SymplecticRep,
    build_zonotope,
    enumerate_window,
    koszul_check,
    moment_quadrics,
    numerical_koszul_consistency,
    quiver_presentation,
    singular_codim_estimate,
    validate,
    verify_regular_sequence,
)


def main() -> None:
    rep = SymplecticRep(1, ((1,), (1,)))
    print("half-weights:", rep.half_weights)
    v = validate(rep)
    print(f"faithful={v.faithful} strictly_faithful={v.strictly_faithful}")

    zono = build_zonotope(rep)
    print("facets:", [(f.normal, f.offset) for f in zono.facets])

    window = enumerate_window(zono, (1,))
    print("window for epsilon=(1,):", window.points)

    (quadric,) = moment_quadrics(rep)
    print("moment quadric:", quadric.as_string())

    alg = GradedQuiverAlgebra(rep, window, 6)
    regseq = verify_regular_sequence(alg)
    print("regular sequence to degree 6:", regseq.passed)

    print("codimension estimate:", singular_codim_estimate(rep).estimate)

    pres = quiver_presentation(alg)
    print("arrows:")
    for a in pres.arrows:
        print(f"  {a.label}: {a.source} -> {a.target}")
    print("relations:")
    for r in pres.relations:
        print(f"  ({r.source} -> {r.target})  {r.as_string(pres.arrows)}")

    report = koszul_check(alg, depth=4)
    print("quotient resolution status:", report.status)
    for res in report.resolutions:
        print(f"  vertex {res.vertex}: steps {res.steps} exhausted={res.exhausted}")
    numeric = numerical_koszul_consistency(alg.hilbert_matrices())
    print("inverse series nonnegative:", numeric.consistent)

    ambient = alg.ambient()
    amb_report = koszul_check(ambient, depth=4)
    print(
        "ambient resolution status:",
        amb_report.status,
        "first violation:",
        amb_report.first_violation,
    )


if __name__ == "__main__":
    main()
