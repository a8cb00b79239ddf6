"""Output checks, all made outside the timed passes.

Every run of a problem is checked against four things: the exit code its
job expects, the SHA-256 its report had on the seed engine (pins.json, or
the golden report under tests/golden, read only), and, once per distinct
report, the brute-force oracle and the Euler-characteristic identity of
the resolution ledgers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from problems import GOLDEN

ORACLE_DEGREE = 6
EMPTY_SHA = hashlib.sha256(b"").hexdigest()


def load_pins(root: Path, bench: Path) -> dict[str, str]:
    """Pinned report digests by problem id; golden reports pin their problems."""
    pins = json.loads((bench / "pins.json").read_text(encoding="utf-8"))["sha256"]
    for pid, name in GOLDEN.items():
        golden = (root / "tests" / "golden" / name).read_bytes()
        pins[pid] = hashlib.sha256(golden).hexdigest()
    return pins


def verdict(sample: dict, pins: dict, bad_reports: dict) -> str | None:
    """Why a run failed, or None.

    Reasons starting with "wrong output" are wrong answers from a run that
    ended with the expected exit code; the others break the exit-code
    contract.  A run expected to exit 3 must print no report.
    """
    expected_exit = sample["expected_exit"]
    if sample["exception"]:
        return f"uncaught {sample['exception']}"
    if sample["exit"] != expected_exit:
        return f"exit {sample['exit']}, expected {expected_exit}"
    pin = pins.get(sample["id"], EMPTY_SHA if expected_exit == 3 else None)
    if pin is not None and sample["sha256"] != pin:
        return "wrong output: report differs from its pinned digest"
    if sample["sha256"] in bad_reports:
        return "wrong output: " + bad_reports[sample["sha256"]]
    return None


class OracleCheck:
    """Windows and block dimensions against hypertoric.oracle, cached."""

    def __init__(self):
        from hypertoric import (
            SymplecticRep,
            hom_dimension,
            oracle_block_dimension,
            oracle_lattice_points,
        )

        self._rep_type = SymplecticRep
        self._ambient = hom_dimension
        self._block = oracle_block_dimension
        self._points = oracle_lattice_points
        self._dims: dict = {}
        self.blocks_checked = 0

    def _oracle_dim(self, rep, mu, nu, n, quotient):
        key = (rep, tuple(b - a for a, b in zip(mu, nu)), n, quotient)
        if key not in self._dims:
            self._dims[key] = self._block(rep, mu, nu, n, quotient)
        return self._dims[key]

    def problems(self, text: str) -> list[str]:
        """Disagreements of one report with the oracle and with criterion 7."""
        report = json.loads(text)
        sections = report["sections"]
        if "window" not in sections:
            return []
        given = report["input"]
        rep = self._rep_type(
            given["torus_rank"], tuple(tuple(w) for w in given["half_weights"])
        )
        points = [tuple(p) for p in sections["window"]["points"]]
        found = []
        if set(points) != self._points(rep, tuple(sections["window"]["epsilon"])):
            found.append("window differs from the oracle")
        if "hilbert" not in sections:
            return found
        matrices = sections["hilbert"]["matrices"]
        for n in range(min(ORACLE_DEGREE, len(matrices) - 1) + 1):
            for i, mu in enumerate(points):
                for j, nu in enumerate(points):
                    weight = tuple(b - a for a, b in zip(mu, nu))
                    if matrices[n][i][j] != self._oracle_dim(rep, mu, nu, n, True):
                        found.append(f"quotient block ({i},{j}) degree {n} differs from the oracle")
                    if self._ambient(rep, n, weight) != self._oracle_dim(rep, mu, nu, n, False):
                        found.append(f"ambient block ({i},{j}) degree {n} differs from the oracle")
                    self.blocks_checked += 2
        if "koszul" in sections:
            found.extend(euler_problems(sections["koszul"]["quotient"], matrices))
        return found


def euler_problems(ledger: dict, matrices: list) -> list[str]:
    """Criterion 7 on one report: strictly increasing generator degrees and
    sum_k (-1)^k sum_{(v,f) in step k} H_{n-f}[v][u] = [n == 0 and u == vertex]
    for every degree n the ledger determines."""
    found = []
    upto = ledger["degree_bound"]
    for res in ledger["resolutions"]:
        steps = [[tuple(g) for g in step] for step in res["steps"]]
        prev = -1
        for step in steps:
            if not step:
                continue
            if min(f for _, f in step) <= prev:
                found.append(f"vertex {res['vertex']}: generator degrees not increasing")
            prev = max(f for _, f in step)
        n_max = upto if res["exhausted"] else max(f for _, f in steps[-1])
        for n in range(n_max + 1):
            for u in range(len(matrices[0])):
                total = sum(
                    (-1) ** k * matrices[n - f][v][u]
                    for k, step in enumerate(steps)
                    for v, f in step
                    if n - f >= 0
                )
                if total != (1 if n == 0 and u == res["vertex"] else 0):
                    found.append(
                        f"vertex {res['vertex']}: Euler identity fails at degree {n}, vertex {u}"
                    )
    return found
