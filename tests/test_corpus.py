"""The pinned random corpus: its entries, its admission and its draw cap."""

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


def test_sweep_exits_2_at_the_draw_cap(monkeypatch, capsys, problems_dir):
    spec = importlib.util.spec_from_file_location(
        "corpus_sweep", problems_dir.parent / "scripts" / "corpus_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr("hypertoric.corpus.MAX_DRAWS", 40)
    assert sweep.main(["--count", "3000", "--seed", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"corpus_sweep\.py: corpus: found \d+ of 3000 entries in 40 draws\n", err)
