"""SampleTable, and the data path that runs on its columns without a Sample."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from bfpo import trainer
from bfpo.cli import main
from bfpo.alpha import embed, embed_all, run_alpha_estimation
from bfpo.datagen import (
    GROUPINGS,
    PopulationSpec,
    build_user_dataset,
    generate_population,
    load_corpus,
    save_corpus,
    truncate_history,
)
from bfpo.errors import InputError
from bfpo.evaluation import evaluate_policy
from bfpo.losses import Method
from bfpo.policy import Sample, SampleTable, encode, encode_table

# Ragged rows, two users interleaved: an empty prompt, completions of lengths
# 1 and 5, and both splits.
ROWS = [
    Sample("b", (), (3,)),
    Sample("a", (1, 2), (4, 5, 6, 7, 8), "heldout"),
    Sample("b", (0,), (2, 2, 1, 0, 9)),
    Sample("a", (5, 5, 5), (1,)),
    Sample("b", (7, 1), (6, 6), "heldout"),
]
VOCAB = 10


def _tokens_are_ints(samples) -> bool:
    return all(type(t) is int for s in samples for t in s.x + s.y)


class TestSampleTable:
    def test_of_then_list_gives_the_samples(self):
        table = SampleTable.of(ROWS)
        assert len(table) == len(ROWS)
        assert list(table) == ROWS
        assert [table[i] for i in range(len(ROWS))] == ROWS
        assert table[-1] == ROWS[-1]
        assert _tokens_are_ints(table) and _tokens_are_ints([table[1], table[2]])
        with pytest.raises(IndexError):
            table[len(ROWS)]

    def test_take(self):
        table = SampleTable.of(ROWS)
        assert list(table.take([4, 0, 2])) == [ROWS[4], ROWS[0], ROWS[2]]
        assert list(table.take(np.array([1, 1]))) == [ROWS[1], ROWS[1]]
        assert list(table.take([])) == []
        assert list(table[1:4]) == ROWS[1:4]
        assert list(table[:-1]) == ROWS[:-1]
        for split in ("train", "heldout"):
            assert list(table.split_rows(split)) == [s for s in ROWS if s.split == split]

    def test_concatenation(self):
        table = SampleTable.of(ROWS)
        assert table[:2] + table[2:] == table
        assert list(table[:2] + table[2:]) == ROWS
        # The parts know different users: ("b",) and ("a", "b").
        joined = SampleTable.of(ROWS[:1]) + SampleTable.of(ROWS[1:])
        assert list(joined) == ROWS
        assert list(table[3:] + SampleTable.of(ROWS[:3])) == ROWS[3:] + ROWS[:3]
        assert list(SampleTable.concat([table[3:], table[:0], table[:1]])) == ROWS[3:] + ROWS[:1]
        assert list(SampleTable.concat([])) == []

    def test_equality(self):
        table = SampleTable.of(ROWS)
        assert table == SampleTable.of(list(table))
        # The same rows, their users numbered ("a", "b") instead of ("b", "a").
        renumbered = SampleTable.concat([SampleTable.of(ROWS[1:2]), table])[1:]
        assert renumbered.user_ids != table.user_ids and renumbered == table
        for i, side in ((2, "y"), (4, "x")):
            tokens = list(getattr(ROWS[i], side))
            tokens[-1] += 1
            changed = list(ROWS)
            changed[i] = replace(ROWS[i], **{side: tuple(tokens)})
            assert table != SampleTable.of(changed)
        moved = [ROWS[0], Sample("a", (1,), (2, 4, 5, 6, 7, 8), "heldout"), *ROWS[2:]]
        assert table != SampleTable.of(moved)  # the same tokens, cut at another place
        assert table != SampleTable.of([Sample("c", s.x, s.y, s.split) for s in ROWS])
        assert table != SampleTable.of([Sample(s.user_id, s.x, s.y) for s in ROWS])
        assert table != ROWS  # a table equals only a table

    def test_unknown_split_rejected(self):
        with pytest.raises(InputError, match="split"):
            SampleTable.of([Sample("a", (0,), (1,), "test")])

    def test_encode_table_equals_encode(self):
        table = SampleTable.of(ROWS)
        want = encode([(s.x, s.y) for s in ROWS], 3, VOCAB)
        got = encode_table(table, 3, VOCAB)
        for name in ("rows", "tokens", "cells", "seq", "starts", "lengths"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        with pytest.raises(InputError, match="empty completion"):
            encode_table(SampleTable.of([Sample("a", (0,), ())]), 3, VOCAB)
        with pytest.raises(InputError, match="completion token 9"):
            encode_table(table, 3, 9)
        with pytest.raises(InputError, match="prompt token 7"):
            encode_table(table, 3, 7)

    def test_embed_all_reads_the_columns(self):
        assert embed_all(SampleTable.of(ROWS), VOCAB).tobytes() == (
            np.stack([embed(s, VOCAB) for s in ROWS]).tobytes()
        )

    def test_corpus_roundtrip(self, tmp_path):
        population = {
            uid: SampleTable.of([s for s in ROWS if s.user_id == uid]) for uid in ("a", "b")
        }
        path = tmp_path / "corpus.jsonl"
        save_corpus(population, path)
        loaded = load_corpus(path, VOCAB)
        assert loaded == population
        assert {uid: list(t) for uid, t in loaded.items()} == {
            uid: [s for s in ROWS if s.user_id == uid] for uid in ("a", "b")
        }


@pytest.fixture
def built(monkeypatch):
    """The arguments of every Sample built while the test runs."""
    built = []
    init = Sample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Sample, "__init__", counting_init)
    return built


@pytest.mark.parametrize("method", list(Method))
def test_the_data_path_builds_no_sample(built, method):
    """Generation, selection, truncation, alpha estimation, a run of each
    method (DPO's pair synthesis included) and its evaluation read columns:
    not one Sample is built."""
    spec = PopulationSpec(n_users=6, vocab_size=24, overlap_lambda=0.5, samples_per_user=40,
                          prompt_pool_size=10, seq_len=6, seed=0)
    population = generate_population(spec)
    datasets = [
        build_user_dataset(population, "u000", 1.5, grouping, 0, spec.vocab_size)
        for grouping in GROUPINGS
    ]
    short = truncate_history(datasets[0], 0.5)
    run_alpha_estimation(short.tar_train, short.aux_train, spec.vocab_size, seed=0)
    config = trainer.TrainConfig(method=method, alpha="estimate", epochs=1,
                                 context_size=4, warmstart_epochs=1)
    result = trainer.run(datasets[1], config, spec.vocab_size)
    evaluate_policy(result.policy, result.reference, population, "u000",
                    datasets[1].aux_user_ids, beta=config.beta)
    assert built == []
    population["u000"][0]  # the count does see a Sample when one is built
    assert len(built) == 1


def test_the_cli_builds_no_sample(built, tmp_path):
    """generate, train, evaluate, estimate-alpha, a one-worker sweep and the
    diagnostic dump of a diverging train read columns: not one Sample is
    built."""
    population = {"n_users": 4, "vocab_size": 24, "overlap_lambda": 0.5,
                  "samples_per_user": 20, "prompt_pool_size": 8, "seq_len": 5}
    dataset = {"target_user": "u000", "ratio_x": 1.0, "grouping": "unique"}
    train = {"method": "cbpo", "alpha": "estimate", "epochs": 1, "batch_size_pos": 4,
             "context_size": 4, "warmstart_epochs": 1}
    corpus, run = tmp_path / "corpus", tmp_path / "run"

    def command(name, doc, *flags):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, "seed": 0, **doc}))
        return main([name, "--config", str(path), *flags])

    assert command("generate", {"out_dir": str(corpus), "population": population}) == 0
    assert command("train", {"out_dir": str(run), "corpus_dir": str(corpus),
                             "dataset": dataset, "train": train}) == 0
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                 "--corpus", str(corpus), "--out", str(tmp_path / "eval")]) == 0
    assert command("estimate-alpha", {"out_dir": str(tmp_path / "alpha"),
                                      "corpus_dir": str(corpus), "dataset": dataset}) == 0
    assert command("sweep", {"out_dir": str(tmp_path / "sweep"), "axis": "method",
                             "grid": ["dpo", "kto"], "n_seeds": 1, "population": population,
                             "dataset": dataset, "train": train}, "--workers", "1") == 0
    crash = tmp_path / "crash"
    diverging = {**train, "learning_rate": 1e308, "warmstart_lr": 0.1}
    assert command("train", {"out_dir": str(crash), "corpus_dir": str(corpus),
                             "dataset": dataset, "train": diverging}) == 1
    dump = json.loads((crash / "diagnostic_dump.json").read_text())
    assert dump["pos"] and dump["aux"]
    assert built == []
