"""The pinned random corpus: its entries, its admission, its draw cap and its sweep."""

import hashlib
import importlib.util
import json
import re

import pytest

from hypertoric.corpus import DEFAULT_SEED, fixed_corpus
from hypertoric.errors import ResourceBudgetError
from hypertoric.oracle import oracle_admits

# sha256 of the compact JSON list of [torus_rank, half_weights, epsilon]
# over fixed_corpus(24, seed); any drift in the draw or in admission moves it
CORPUS_DIGESTS = {
    DEFAULT_SEED: "e751c2854d9c05935bc5313d5a631f53d9b12429037d47ebf5fe9837a4b7e120",
    0: "376681794c0732c6eb1f80d5c55c6be233e0df9dbe7501bc6538e5980515da41",
    1: "74e6da33752c1bdae35ca62c8db6e7b869bb3a35951377053acd5b6d2d77e8bd",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_is_pinned(seed):
    rows = [
        [e.rep.torus_rank, [list(w) for w in e.rep.half_weights], list(e.epsilon)]
        for e in fixed_corpus(24, seed)
    ]
    assert len(rows) == 24
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == CORPUS_DIGESTS[seed]


def test_every_entry_is_admitted(corpus):
    for entry in corpus:
        oracle_admits(entry.rep, entry.epsilon)


def test_draw_cap_names_the_shortfall(monkeypatch):
    monkeypatch.setattr("hypertoric.corpus.MAX_DRAWS", 40)
    with pytest.raises(ResourceBudgetError, match=r"found \d+ of 3000 entries in 40 draws"):
        fixed_corpus(count=3000, seed=7)


@pytest.fixture
def sweep(problems_dir):
    """scripts/corpus_sweep.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "corpus_sweep", problems_dir.parent / "scripts" / "corpus_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_draw_skips_what_the_oracle_refuses(monkeypatch):
    refused = []

    def refuse_the_first(rep, epsilon):
        if not refused:
            refused.append(rep)
            raise ResourceBudgetError("refused")
        return oracle_admits(rep, epsilon)

    monkeypatch.setattr("hypertoric.corpus.oracle_admits", refuse_the_first)
    entries = fixed_corpus.__wrapped__(3, DEFAULT_SEED)
    assert refused and refused[0] not in [e.rep for e in entries]
    assert [e.rep for e in entries] == [e.rep for e in fixed_corpus(4, DEFAULT_SEED)[1:]]


def test_sweep_agrees_with_the_oracle(sweep, capsys):
    assert sweep.main(["--count", "3", "--upto", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("all entries agree with the oracle\n")
    assert "MISMATCH" not in out


def test_sweep_checks_the_reported_hilbert_blocks(sweep, monkeypatch, capsys):
    run = sweep.run
    calls = []

    def one_block_off(problem):
        # entry 0 reports its degree-1 block (0, 0) one too large
        report = run(problem)
        calls.append(problem)
        if len(calls) == 1:
            hilbert = report.sections["hilbert"]
            h1 = hilbert["matrices"][1]
            h1 = ((h1[0][0] + 1, *h1[0][1:]), *h1[1:])
            matrices = [*hilbert["matrices"][:1], h1, *hilbert["matrices"][2:]]
            report.sections["hilbert"] = dict(hilbert, matrices=matrices)
        return report

    monkeypatch.setattr(sweep, "run", one_block_off)
    assert sweep.main(["--count", "3", "--upto", "3"]) == 1
    assert len(calls) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("oracle=MISMATCH")
    assert not any("MISMATCH" in line for line in lines[1:])
    assert lines[-1] == "1 entries disagreed with the oracle or failed"


def test_sweep_exits_2_at_the_draw_cap(sweep, monkeypatch, capsys):
    monkeypatch.setattr("hypertoric.corpus.MAX_DRAWS", 40)
    assert sweep.main(["--count", "3000", "--seed", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"corpus_sweep\.py: corpus: found \d+ of 3000 entries in 40 draws\n", err)
