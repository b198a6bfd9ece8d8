"""The command surface: exit codes, strict configs, artifacts, reproducibility."""

from __future__ import annotations

import ast
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bfpo import cli, files
from bfpo.cli import main
from bfpo.datagen import load_corpus, save_corpus
from bfpo.errors import NumericError

POPULATION = {
    "n_users": 6,
    "vocab_size": 24,
    "overlap_lambda": 0.5,
    "samples_per_user": 20,
    "prompt_pool_size": 8,
    "seq_len": 5,
}

TRAIN = {
    "method": "cbpo",
    "epochs": 2,
    "batch_size_pos": 4,
    "learning_rate": 0.1,
    "beta": 0.1,
    "alpha": 0.3,
    "context_size": 4,
    "warmstart_epochs": 1,
}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _generate(tmp_path: Path, seed: int = 5, out: str = "corpus", **pop_overrides) -> Path:
    population = {**POPULATION, **pop_overrides}
    cfg = _write(
        tmp_path / f"gen_{out}.json",
        {"schema_version": 1, "seed": seed, "out_dir": str(tmp_path / out),
         "population": population},
    )
    assert main(["generate", "--config", cfg]) == 0
    return tmp_path / out


def _train(tmp_path: Path, corpus: Path, out: str = "run", seed: int = 5,
           train_overrides: dict | None = None, dataset_overrides: dict | None = None) -> Path:
    train = {**TRAIN, **(train_overrides or {})}
    dataset = {"target_user": "u000", "ratio_x": 1.0, "grouping": "random",
               **(dataset_overrides or {})}
    cfg = _write(
        tmp_path / f"train_{out}.json",
        {"schema_version": 1, "seed": seed, "out_dir": str(tmp_path / out),
         "corpus_dir": str(corpus), "dataset": dataset, "train": train},
    )
    assert main(["train", "--config", cfg]) == 0
    return tmp_path / out


class TestGenerate:
    def test_writes_expected_line_count(self, tmp_path):
        out = _generate(tmp_path)
        lines = (out / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == POPULATION["n_users"] * POPULATION["samples_per_user"]
        assert (out / "population_spec.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = _generate(tmp_path, out="c1")
        b = _generate(tmp_path, out="c2")
        assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()

    # sha256 of corpus.jsonl on the default config, written from Sample lists
    # before populations became columns.
    CORPUS_SHA256 = "12795cdafc51d13120d827a691614c72aed8c08e253fc2b0053e8141cf3fcbf3"

    def test_corpus_bytes_pinned(self, tmp_path):
        out = _generate(tmp_path)
        assert hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest() == (
            self.CORPUS_SHA256
        )

    def test_loaded_corpus_saves_the_same_bytes(self, tmp_path):
        out = _generate(tmp_path)
        again = tmp_path / "again.jsonl"
        save_corpus(load_corpus(out / "corpus.jsonl", POPULATION["vocab_size"]), again)
        assert hashlib.sha256(again.read_bytes()).hexdigest() == self.CORPUS_SHA256

    def test_invalid_overlap_exits_2(self, tmp_path):
        cfg = _write(
            tmp_path / "bad.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "o"),
             "population": {**POPULATION, "overlap_lambda": 1.5}},
        )
        assert main(["generate", "--config", cfg]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _write(
            tmp_path / "bad.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "o"),
             "population": POPULATION, "extra": True},
        )
        assert main(["generate", "--config", cfg]) == 2

    def test_missing_schema_version_exits_2(self, tmp_path):
        cfg = _write(
            tmp_path / "bad.json",
            {"seed": 0, "out_dir": str(tmp_path / "o"), "population": POPULATION},
        )
        assert main(["generate", "--config", cfg]) == 2

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 72.8 TiB for an array"),
         "error: out of memory (Unable to allocate 72.8 TiB for an array)"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy_message", "no_message"])
    def test_memory_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                error, line):
        """An allocation that fails is one ``error:`` line and exit 1, not a
        traceback.  A patched generator fails here; a vocab_size of 1e13
        passes every check and fails in numpy."""
        def no_memory(spec):
            raise error

        monkeypatch.setattr(cli, "generate_population", no_memory)
        cfg = _write(tmp_path / "gen.json", {"schema_version": 1, "seed": 5,
                                             "out_dir": str(tmp_path / "c"),
                                             "population": POPULATION})
        capsys.readouterr()
        assert main(["generate", "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [line]


class TestTrain:
    def test_artifacts_and_row_count(self, tmp_path):
        corpus = _generate(tmp_path)
        out = _train(tmp_path, corpus)
        with (out / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # 16 target train samples, batches of 4, 2 epochs.
        assert len(rows) == 8
        assert (out / "checkpoint.json").exists()

    def test_checkpoint_bytes_pinned(self, tmp_path):
        """Checkpoint bytes of a fixed config: the config block, derived from
        the TrainConfig fields, must not drift."""
        out = _train(tmp_path, _generate(tmp_path))
        assert hashlib.sha256((out / "checkpoint.json").read_bytes()).hexdigest() == (
            "d690ba3c21663f9373e30990eb8f09717601904591f0972cd6abd6841d3f3398"
        )

    # sha256 of (checkpoint.json, metrics.csv) per method on the default config.
    PINNED = {
        "sft": (
            "b87ca0b044009a0a91e7b092b04259cffe52b866266dfa693367bd0e8c4b9ca2",
            "7637c6184289c5bc3b7b7981083e7058a6396e6faff524a4f344f297891cadda",
        ),
        "dpo": (
            "bff848890ad5f2f28745e67f3b6e9d21190f7145c99479511d7da00d8f03cde2",
            "d39ca803f9256a8f562b85537443ee24f2627f4176ebcc972755fb62c71afefc",
        ),
        "kto": (
            "5e849947631e99946b47010ee022d3bce9282ed0984724983c544f6a87f23bb6",
            "7ab331ba14524eb02f656e76c88c082d5e27259a68674207831afed9cefce812",
        ),
        "bco": (
            "ad010fd930536f4ec84e715635dc87d3933ff411e5c97530237eb102378862eb",
            "24fa41f0bffd649d0249db746be77a8cd3b04e9da7a4e9207f3efb2c7ccf79e4",
        ),
        "cbpo_raw": (
            "82bda1b4386d8654d1a420d666d9fd9ba3245e6b52063b4692b81d91ba4b8faf",
            "5a1b631ae7873843a1ea39ede3af12c0d79dd02fac2fac77ec398e7aaf7e3457",
        ),
        "cbpo": (
            "d690ba3c21663f9373e30990eb8f09717601904591f0972cd6abd6841d3f3398",
            "de5a26d0d5e0b517b734e4960ec2ed806623fef542ce227f42cc550f350f841e",
        ),
    }

    @pytest.mark.parametrize("method", list(PINNED))
    def test_artifact_bytes_pinned_every_method(self, tmp_path, method):
        """The trained artifacts of every method: a change to batching, the
        kernels or the optimizer that moves a single bit shows here."""
        out = _train(tmp_path, _generate(tmp_path), train_overrides={"method": method})
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("checkpoint.json", "metrics.csv")
        )
        assert got == self.PINNED[method]

    # sha256 of (checkpoint.json, metrics.csv) per (method, warmstart_epochs),
    # with a warm-start lr of 0.05 against the method's 0.1.
    PINNED_WARMSTART = {
        ("sft", 0): (
            "5f4976241b7462fd30e0d417b02cfdcdfeef988e02c004fe4a3258d29e523b37",
            "74609db9ca5252f401103174e9918f7b1064c23fecb8ef4cbc31a7f22d43bc02",
        ),
        ("dpo", 0): (
            "64a2a2f27d982b5139a55a4b6aa9b918788dde3d5ffaa0fb73c1bee711452c79",
            "1088e9529a7614464a9d3a47c258049c29c269ed490abefc12e98d8bd6c5c69b",
        ),
        ("kto", 0): (
            "6139bb5b1451b0cbb812a59539444735ed2dba1f7e14dc6f0d821f051c1af186",
            "9069a2a970f4b92668b8830c2d998438bccf0932ccbd02ea85cd2f31cd67c495",
        ),
        ("bco", 0): (
            "64c6a6dce6b92c3ddd0739fad000ef59078b7922e18b968f90bbf720ed1b7283",
            "fd4de327be42059e489783f749361a7d78da2937112440e5960d695b29a92e5b",
        ),
        ("cbpo_raw", 0): (
            "7fff95737ef9e6b9974d9a21910a8d48093d118b19d747fd8643484bf5faced2",
            "2d7ba02ce4ba009704859c9c53919c42a84dc403eb0d18074b27cf7af7d27051",
        ),
        ("cbpo", 0): (
            "e4dd18bd5cd236de69398e9b3a7511995ecc747b5f786720361b0e1c2fd6aaa0",
            "9805a2275b7762246f661a914246eee49c4749579dc77a7bc2d6d6611ce28229",
        ),
        ("sft", 2): (
            "da4b385e7c2b8805a5f6f94c3c21aaa6fb806a020e24fdb74b807e65b6346780",
            "5867f7fa97c326006d5b179af5453d760d2d69c9d9a77d6a2bc92186260c8818",
        ),
        ("dpo", 2): (
            "e32cef9d5df8beee57451efb0a730598f68a9202f39fe79f24a4d9e293a81a9a",
            "bd5f016a1b923c8a692f57b0eaf41232912f0930d7e7deccfded82ba9824cb37",
        ),
        ("kto", 2): (
            "78585ec215f0c2b0ab8fbadb65782698d325acbc3eadd95aa09818eb539c66d8",
            "5a2dbf92d389589c45a1a4ecb0f393aea6bece1d7006a91e242b65baad962f9d",
        ),
        ("bco", 2): (
            "ac5c0d4c6867f77ea79fed6105bc37ab013822128d6338aae546949637eb9333",
            "e7a7daa026ce03df74dd7ca0224c51acafaec9d408e92f3de1fc6fe1b8914895",
        ),
        ("cbpo_raw", 2): (
            "cb5517a88a5a1fe8560688ead6562e7b36680974a430ab94d9d169604ab518b6",
            "c8b04075b97023bcd6f7c3a9e6f74c1595f1ac8215d313e78a0367054741115c",
        ),
        ("cbpo", 2): (
            "5396f021e86eb4952fc6b5dac414bec1c13d3a53ce300fc1ad01688e40038309",
            "92493afebd69dc34df1ad585d084bd4a829aae0945a0546dadf3d6976f69b030",
        ),
    }

    @pytest.mark.parametrize(
        "method,warmstart_epochs", list(PINNED_WARMSTART), ids=lambda v: str(v)
    )
    def test_artifact_bytes_pinned_warmstart_variants(self, tmp_path, method,
                                                      warmstart_epochs):
        """No warm start, and two warm-start epochs at their own learning rate:
        the warm start's batching, schedule and optimizer state show here."""
        out = _train(tmp_path, _generate(tmp_path), train_overrides={
            "method": method, "warmstart_epochs": warmstart_epochs, "warmstart_lr": 0.05,
        })
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("checkpoint.json", "metrics.csv")
        )
        assert got == self.PINNED_WARMSTART[(method, warmstart_epochs)]

    def test_warmstart_abort_writes_dump(self, tmp_path, capsys):
        """A warm start that diverges exits 1 with a dump of the batch that
        failed, and the one ``aborted:`` line names the warm start."""
        corpus = _generate(tmp_path)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 5, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, "warmstart_lr": 1e308}},
        )
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("aborted:")
        assert re.search(r"warm.start", lines[0])
        dump = json.loads((tmp_path / "crash" / "diagnostic_dump.json").read_text())
        assert (dump["method"], dump["epoch"], dump["step"]) == ("sft", 0, 2)
        assert len(dump["pos"]) == TRAIN["batch_size_pos"]
        assert dump["aux"] == [] and dump["pairs"] == []
        assert all(s["user_id"] != "u000" for s in dump["pos"])
        assert not (tmp_path / "crash" / "checkpoint.json").exists()

    def test_diverging_train_prints_one_line(self, tmp_path):
        """Run as a program, a diverging warm start exits 1 and its stderr is
        the one ``aborted:`` line: no numpy overflow warning before it."""
        corpus = _generate(tmp_path)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 5, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, "warmstart_lr": 1e308}},
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "bfpo.cli", "train", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("aborted:"), proc.stderr

    def test_diverging_dpo_dump_bytes_pinned(self, tmp_path):
        """A DPO run that diverges in the method phase dumps its batch as pairs
        (x, y_w, y_l) with empty sample lists; sha256 recorded before DPO
        pairs became a (preferred, rejected) dataset."""
        corpus = _generate(tmp_path)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 5, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, "method": "dpo", "learning_rate": 1e308,
                       "warmstart_lr": 0.1}},
        )
        assert main(["train", "--config", cfg]) == 1
        path = tmp_path / "crash" / "diagnostic_dump.json"
        dump = json.loads(path.read_text())
        assert (dump["method"], dump["epoch"], dump["step"]) == ("dpo", 0, 2)
        assert len(dump["pairs"]) == TRAIN["batch_size_pos"]
        assert dump["pos"] == [] and dump["aux"] == []
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6ad56f2e3cd40a02478a17f66a36a507f79b49eb59e34477d7368fab532bbde0"
        )

    @pytest.mark.parametrize("train, method, n_aux, digest", [
        ({"warmstart_lr": 1e308}, "sft", 0,
         "fd811340775221c2927049dcac888ebf54ff3c2ef530f47df71653cf2cc559bd"),
        ({"learning_rate": 1e308, "warmstart_lr": 0.1}, "cbpo", TRAIN["batch_size_pos"],
         "be173f80196a5ce2ac44c26731610f8c26ae359d2af397d6322c53417c673538"),
    ], ids=["sft_warm_start", "cbpo_method_phase"])
    def test_diverging_sample_dump_bytes_pinned(self, tmp_path, train, method, n_aux, digest):
        """A diverging SFT warm start dumps its batch's positives (auxiliary
        samples) and no auxiliaries; a diverging cbpo step dumps both sides;
        sha256 recorded while the dump still iterated Sample objects."""
        corpus = _generate(tmp_path)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 5, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, **train}},
        )
        assert main(["train", "--config", cfg]) == 1
        path = tmp_path / "crash" / "diagnostic_dump.json"
        dump = json.loads(path.read_text())
        assert dump["method"] == method and dump["pairs"] == []
        assert (len(dump["pos"]), len(dump["aux"])) == (TRAIN["batch_size_pos"], n_aux)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("train, method, step, n_aux, phase", [
        ({"method": "bco", "epochs": 1, "batch_size_pos": 8, "learning_rate": 1.7e308,
          "warmstart_lr": 0.2, "weight_decay": 100}, "bco", 1, 8, ""),
        ({"method": "bco", "epochs": 1, "batch_size_pos": 100, "warmstart_epochs": 2,
          "warmup_fraction": 1.0, "warmstart_lr": 1.7e308, "weight_decay": 100},
         "sft", 2, 0, "warm start: "),
    ], ids=["method_phase", "warm_start"])
    def test_last_update_divergence_writes_dump(self, tmp_path, capsys, train, method, step,
                                                n_aux, phase):
        """A phase whose last AdamW update overflows (no later step reads the
        policy) exits 1 with one ``aborted:`` line naming the step, and a dump
        of that step's batch, not 2 as a usage error."""
        corpus = _generate(tmp_path, seed=0, n_users=4, samples_per_user=10,
                           prompt_pool_size=4, seq_len=3)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": train},
        )
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(
            f"aborted: {phase}non-finite policy after the update of step {step} (dump at "
        )
        dump = json.loads((tmp_path / "crash" / "diagnostic_dump.json").read_text())
        assert (dump["method"], dump["step"]) == (method, step)
        assert len(dump["aux"]) == n_aux and math.isfinite(dump["breakdown"]["total"])
        assert os.listdir(tmp_path / "crash") == ["diagnostic_dump.json"]

    def test_alpha_estimate_written(self, tmp_path):
        corpus = _generate(tmp_path)
        out = _train(tmp_path, corpus, out="est", train_overrides={"alpha": "estimate"})
        doc = json.loads((out / "alpha_estimate.json").read_text())
        assert 0.0 <= doc["alpha_hat"] <= 0.99
        assert doc["n_aux"] > 0

    def test_alpha_estimate_bytes_pinned(self, tmp_path):
        """sha256 of alpha_estimate.json from the default run with an estimated
        alpha, re-derived when the file gained ``alpha_raw`` and
        ``alpha_clipped``: without those two keys its bytes still hash to the
        digest recorded before DPO pairs became a (preferred, rejected)
        dataset."""
        out = _train(tmp_path, _generate(tmp_path), train_overrides={"alpha": "estimate"})
        raw = (out / "alpha_estimate.json").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "80640d991e16d40da97679db488b18052be0bd0f8b213b4eeeb189c043faa30b"
        )
        doc = json.loads(raw)
        assert doc["alpha_raw"] == doc["alpha_hat"] and doc["alpha_clipped"] is False
        del doc["alpha_raw"], doc["alpha_clipped"]
        assert hashlib.sha256(
            (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        ).hexdigest() == "3e260035cd6a034cdcf341e24081c0d92b408669c1d7678a549ef767af82f442"

    def test_missing_corpus_exits_2(self, tmp_path):
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "o"),
             "corpus_dir": str(tmp_path / "nowhere"),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": TRAIN},
        )
        assert main(["train", "--config", cfg]) == 2

    def test_unknown_train_key_exits_2(self, tmp_path):
        corpus = _generate(tmp_path)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "o"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, "momentum": 0.9}},
        )
        assert main(["train", "--config", cfg]) == 2

    def test_bco_equals_cbpo_alpha_zero(self, tmp_path):
        """Reduction-equality run: the two methods' held-out NLL agree to 1e-9."""
        corpus = _generate(tmp_path)
        nll = {}
        for method in ("bco", "cbpo"):
            out = _train(tmp_path, corpus, out=f"red_{method}",
                         train_overrides={"method": method, "alpha": 0.0})
            eval_dir = tmp_path / f"red_{method}_eval"
            assert main([
                "evaluate", "--checkpoint", str(out / "checkpoint.json"),
                "--corpus", str(corpus), "--out", str(eval_dir),
            ]) == 0
            nll[method] = json.loads(
                (eval_dir / "eval_report.json").read_text()
            )["heldout_nll"]
        assert abs(nll["bco"] - nll["cbpo"]) < 1e-9

    def test_numeric_abort_writes_dump_and_exits_1(self, tmp_path, monkeypatch):
        corpus = _generate(tmp_path)
        import bfpo.cli as cli_mod

        def explode(*args, **kwargs):
            raise NumericError("boom", details={"step": 1, "pos": [], "aux": [],
                                                "pairs": [], "method": "cbpo",
                                                "epoch": 0})

        monkeypatch.setattr(cli_mod, "run", explode)
        cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 0, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": TRAIN},
        )
        assert main(["train", "--config", cfg]) == 1
        assert (tmp_path / "crash" / "diagnostic_dump.json").exists()


class TestEvaluate:
    def test_report_and_determinism(self, tmp_path):
        corpus = _generate(tmp_path)
        out = _train(tmp_path, corpus)
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        for e in (e1, e2):
            assert main([
                "evaluate", "--checkpoint", str(out / "checkpoint.json"),
                "--corpus", str(corpus), "--out", str(e),
            ]) == 0
        r1 = (e1 / "eval_report.json").read_bytes()
        assert r1 == (e2 / "eval_report.json").read_bytes()
        doc = json.loads(r1)
        assert 0.0 <= doc["pref_acc"] <= 1.0
        assert doc["target_user"] == "u000"

    def test_report_bytes_pinned(self, tmp_path):
        """sha256 of the default run's eval_report.json, recorded before DPO
        pairs became a (preferred, rejected) dataset."""
        corpus = _generate(tmp_path)
        out = _train(tmp_path, corpus)
        assert main([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--corpus", str(corpus), "--out", str(tmp_path / "eval"),
        ]) == 0
        report = (tmp_path / "eval" / "eval_report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "492f8a84b1eebc20b8aa5a04da776027a51867035b28ff86e2ae2f2840ace8ec"
        )

    def test_vocab_mismatch_exits_2(self, tmp_path):
        corpus = _generate(tmp_path)
        other = _generate(tmp_path, out="corpus32", vocab_size=32)
        out = _train(tmp_path, corpus)
        assert main([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--corpus", str(other),
        ]) == 2


class TestEstimateAlpha:
    def test_writes_estimate(self, tmp_path):
        corpus = _generate(tmp_path, seed=6)
        cfg = _write(
            tmp_path / "alpha.json",
            {"schema_version": 1, "seed": 6, "out_dir": str(tmp_path / "alpha_out"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "estimator": {"epochs": 40, "lr": 1.0}},
        )
        assert main(["estimate-alpha", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "alpha_out" / "alpha_estimate.json").read_text())
        assert 0.0 <= doc["alpha_hat"] <= 0.99
        assert 0.0 < doc["c_hat"] <= 1.0
        assert doc["alpha_clipped"] is (doc["alpha_raw"] != doc["alpha_hat"])


class TestSweep:
    def _sweep_cfg(self, tmp_path, corpus_unused, axis, grid, out, n_seeds=1,
                   delta_modes=None):
        doc = {
            "schema_version": 1,
            "seed": 3,
            "out_dir": str(tmp_path / out),
            "axis": axis,
            "grid": grid,
            "n_seeds": n_seeds,
            "population": POPULATION,
            "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
            "train": {**TRAIN, "epochs": 1},
        }
        if delta_modes is not None:
            doc["delta_modes"] = delta_modes
        return _write(tmp_path / f"sweep_{out}.json", doc)

    def test_alpha_axis_row_count(self, tmp_path):
        cfg = self._sweep_cfg(tmp_path, None, "alpha", [0.0, 0.5], "sw1", n_seeds=2)
        assert main(["sweep", "--config", cfg]) == 0
        with (tmp_path / "sw1" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["value"] for r in rows} == {"0.0", "0.5"}
        assert all(r["config_hash"] for r in rows)

    def test_grouping_axis_emits_labels(self, tmp_path):
        cfg = self._sweep_cfg(tmp_path, None, "grouping", ["random", "unique"], "sw2")
        assert main(["sweep", "--config", cfg]) == 0
        with (tmp_path / "sw2" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["grouping"] for r in rows] == ["random", "unique"]

    def test_ratio_axis_with_delta_modes(self, tmp_path):
        """The imbalance study: 3 ratios x 2 anchor modes x 1 seed = 6 rows."""
        cfg = self._sweep_cfg(
            tmp_path, None, "ratio_x", [0.5, 1.0, 1.5], "sw3",
            delta_modes=["ema", "batch"],
        )
        assert main(["sweep", "--config", cfg]) == 0
        with (tmp_path / "sw3" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {(r["value"], r["delta_mode"]) for r in rows} == {
            (v, m) for v in ("0.5", "1.0", "1.5") for m in ("ema", "batch")
        }

    def test_bad_axis_exits_2(self, tmp_path):
        cfg = self._sweep_cfg(tmp_path, None, "temperature", [1], "sw4")
        assert main(["sweep", "--config", cfg]) == 2

    def test_config_hash_pinned(self, tmp_path):
        """Config hashes of a fixed sweep: the hashed train block must not drift,
        and the integer alpha 0 hashes as 0.0."""
        cfg = self._sweep_cfg(tmp_path, None, "alpha", [0, "estimate"], "sw9")
        assert main(["sweep", "--config", cfg]) == 0
        with (tmp_path / "sw9" / "sweep.csv").open() as fh:
            hashes = [r["config_hash"] for r in csv.DictReader(fh)]
        assert hashes == ["5274ca184ffc", "812e9d13d972"]

    def test_population_values_are_cast_as_validated(self, tmp_path):
        """A population value the validator casts (here the string "6") reaches
        every task cast, so the sweep runs as it does with the number."""
        cfg1 = self._sweep_cfg(tmp_path, None, "alpha", [0.5], "sw7")
        doc = json.loads(Path(cfg1).read_text())
        doc["population"] = {**POPULATION, "n_users": str(POPULATION["n_users"])}
        doc["out_dir"] = str(tmp_path / "sw8")
        cfg2 = _write(tmp_path / "sweep_sw8.json", doc)
        assert main(["sweep", "--config", cfg1]) == 0
        assert main(["sweep", "--config", cfg2]) == 0
        assert (tmp_path / "sw7" / "sweep.csv").read_bytes() == (
            tmp_path / "sw8" / "sweep.csv"
        ).read_bytes()

    @pytest.mark.parametrize("workers, stack_cells", [(2, None), (3, None), (4, None), (2, 1)])
    def test_workers_match_serial(self, tmp_path, monkeypatch, workers, stack_cells):
        """Six tasks cut into units of ceil(6 / workers) tasks (3/3, 2/2/2,
        2/2/2), or of one task each when a stack holds one run (six units on
        two workers), give the serial sweep's bytes."""
        import bfpo.trainer as trainer_mod

        cfg1 = self._sweep_cfg(tmp_path, None, "alpha", [0.0, 0.5, 0.7], "sw5", n_seeds=2)
        cfg2 = self._sweep_cfg(tmp_path, None, "alpha", [0.0, 0.5, 0.7], "sw6", n_seeds=2)
        assert main(["sweep", "--config", cfg1]) == 0
        if stack_cells is not None:
            monkeypatch.setattr(trainer_mod, "STACK_CELLS", stack_cells)
        assert main(["sweep", "--config", cfg2, "--workers", str(workers)]) == 0
        assert (tmp_path / "sw5" / "sweep.csv").read_bytes() == (
            tmp_path / "sw6" / "sweep.csv"
        ).read_bytes()

    def test_failed_unit_keeps_earlier_rows(self, tmp_path, monkeypatch):
        """A NumericError in a later unit leaves the rows of the units that
        finished before it in sweep_partial.csv."""
        import bfpo.cli as cli_mod
        import bfpo.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "STACK_CELLS", 1)  # one run per unit
        widths = []
        real = cli_mod.run_many

        def fail_third(datasets, configs, vocab_size):
            widths.append(len(configs))
            if len(widths) == 3:
                raise NumericError("boom")
            return real(datasets, configs, vocab_size)

        monkeypatch.setattr(cli_mod, "run_many", fail_third)
        cfg = self._sweep_cfg(tmp_path, None, "alpha", [0.0, 0.5], "sw10", n_seeds=2)
        assert main(["sweep", "--config", cfg]) == 1
        assert widths == [1, 1, 1]
        with (tmp_path / "sw10" / "sweep_partial.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # Units run seed by seed: the first seed's two runs finished.
        assert [(r["seed"], r["value"]) for r in rows] == [("3", "0.0"), ("3", "0.5")]
        assert not (tmp_path / "sw10" / "sweep.csv").exists()

    def _two_worker_sweep(self, tmp_path, monkeypatch, capsys, out, in_parent=None,
                          in_child=None):
        """A two-worker sweep of two units (seed 3 in this process, seed 4 in
        the child) whose ``run_many`` first calls ``in_parent`` here and
        ``in_child`` in the child; its exit code, its stderr lines and the
        rows of sweep_partial.csv.  No sweep.csv is written and no child is
        left running."""
        import multiprocessing

        import bfpo.cli as cli_mod

        parent = os.getpid()
        real = cli_mod.run_many

        def faulty(datasets, configs, vocab_size):
            fault = in_parent if os.getpid() == parent else in_child
            if fault is not None:
                fault()
            return real(datasets, configs, vocab_size)

        monkeypatch.setattr(cli_mod, "run_many", faulty)
        cfg = self._sweep_cfg(tmp_path, None, "alpha", [0.0, 0.5], out, n_seeds=2)
        capsys.readouterr()
        code = main(["sweep", "--config", cfg, "--workers", "2"])
        err = capsys.readouterr().err
        with (tmp_path / out / "sweep_partial.csv").open() as fh:
            rows = [(r["seed"], r["value"]) for r in csv.DictReader(fh)]
        assert not (tmp_path / out / "sweep.csv").exists()
        assert multiprocessing.active_children() == []
        return code, err.splitlines(), rows

    @staticmethod
    def _boom():
        raise NumericError("boom")

    def test_failed_unit_in_a_child_keeps_the_parents_rows(self, tmp_path, monkeypatch, capsys):
        """A NumericError in the child's unit is raised again in this process:
        exit 1 with one ``numeric failure:`` line, and the rows this process
        finished kept in sweep_partial.csv."""
        code, lines, rows = self._two_worker_sweep(
            tmp_path, monkeypatch, capsys, "sw12", in_child=self._boom
        )
        assert code == 1
        assert lines == ["numeric failure: boom"]
        assert rows == [("3", "0.0"), ("3", "0.5")]

    def test_killed_worker_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        """A child that dies (here by ``os._exit``, as a signal or the OOM
        killer would end it) is an EngineError: exit 1 with one ``error:``
        line and no traceback, and sweep_partial.csv kept."""
        code, lines, rows = self._two_worker_sweep(
            tmp_path, monkeypatch, capsys, "sw13", in_child=lambda: os._exit(9)
        )
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert rows == [("3", "0.0"), ("3", "0.5")]

    def test_failed_unit_in_the_parent_stops_the_child(self, tmp_path, monkeypatch, capsys):
        """When this process's own unit fails, a child still at work is
        stopped at once, not waited for."""
        t0 = time.monotonic()
        code, lines, rows = self._two_worker_sweep(
            tmp_path, monkeypatch, capsys, "sw14", in_parent=self._boom,
            in_child=lambda: time.sleep(60),
        )
        assert code == 1
        assert lines == ["numeric failure: boom"]
        assert rows == []
        assert time.monotonic() - t0 < 30

    # sha256 of sweep.csv for one n_seeds 2 sweep per axis, recorded from the
    # commit before sweeps trained their runs in lockstep.
    PINNED_SWEEPS = {
        "alpha": ([0, 0.5, "estimate"], None,
                  "43be5b7fc716ab44a3e3d6caaafcb5c577c4e5770578f2252d38cebc357672cc"),
        "ratio_x": ([0.5, 1.0, 1.5], ["ema", "batch"],
                    "b0463f0fe034789c21f8bc41f18d0c731f6a33b5df349c6a706d09dc79d5276f"),
        "history_fraction": ([0.25, 0.5, 1.0], None,
                             "7b825c3f08f796ea3a794eb27461db9c46dfdf5aace30c64c7593b74ee3f1902"),
        "grouping": (["random", "unique", "non_unique"], None,
                     "13cc0137460bb13a0ca3e1d3935deafa2a57ad00d80efc2d2ddcc7a09c15740f"),
        "method": (["sft", "dpo", "kto", "bco", "cbpo_raw", "cbpo"], None,
                   "266bf26b5daae20ec856d0e2b3a454b49bfa12dd5c3bd74f15df546c007ee65a"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("axis", list(PINNED_SWEEPS))
    def test_sweep_bytes_pinned(self, tmp_path, axis, workers):
        """Every axis, with ragged auxiliary batches (ratio_x), per-run DPO
        pair counts and KTO anchors (method) and estimated alphas: stacking
        the runs moves no byte of sweep.csv."""
        grid, modes, digest = self.PINNED_SWEEPS[axis]
        cfg = self._sweep_cfg(tmp_path, None, axis, grid, "pin", n_seeds=2, delta_modes=modes)
        assert main(["sweep", "--config", cfg, "--workers", str(workers)]) == 0
        assert hashlib.sha256((tmp_path / "pin" / "sweep.csv").read_bytes()).hexdigest() == digest

    def test_units_train_on_the_sweeps_own_builds(self, tmp_path, monkeypatch):
        """The sweep generates each seed's population and builds each dataset
        once, for its checks; the units train on those and build nothing."""
        import bfpo.cli as cli_mod

        calls = {"generate_population": 0, "build_user_dataset": 0}
        for name in calls:
            real = getattr(cli_mod, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli_mod, name, spy)
        in_units = []
        real_unit = cli_mod._sweep_unit

        def unit_spy(unit):
            before = dict(calls)
            rows = real_unit(unit)
            in_units.append({"tasks": len(unit),
                             **{name: calls[name] - before[name] for name in calls}})
            return rows

        monkeypatch.setattr(cli_mod, "_sweep_unit", unit_spy)
        cfg = self._sweep_cfg(tmp_path, None, "ratio_x", [0.5, 1.0], "sw11", n_seeds=2)
        assert main(["sweep", "--config", cfg]) == 0
        assert calls == {"generate_population": 2, "build_user_dataset": 4}
        # One unit of both datasets and both seeds.
        assert in_units == [{"tasks": 4, "generate_population": 0, "build_user_dataset": 0}]

    @staticmethod
    def _spy_phases(monkeypatch):
        """Each ``_train_epochs`` call's phase ("warm" or "method") and run
        count; a warm run is the one without a frozen reference."""
        import bfpo.trainer as trainer_mod

        calls = []
        real = trainer_mod._train_epochs

        def spy(runs, vocab_size):
            calls.append(("warm" if runs[0].reference is None else "method", len(runs)))
            real(runs, vocab_size)

        monkeypatch.setattr(trainer_mod, "_train_epochs", spy)
        return calls

    def test_method_sweep_trains_one_warm_start_per_seed(self, tmp_path, monkeypatch):
        """The six methods of a seed share its warm start: a 6-method x 2-seed
        sweep trains 2 warm runs, and sweep.csv keeps its pinned bytes."""
        calls = self._spy_phases(monkeypatch)
        grid, _, digest = self.PINNED_SWEEPS["method"]
        cfg = self._sweep_cfg(tmp_path, None, "method", grid, "pin", n_seeds=2)
        assert main(["sweep", "--config", cfg, "--workers", "1"]) == 0
        assert sum(n for phase, n in calls if phase == "warm") == 2
        assert hashlib.sha256((tmp_path / "pin" / "sweep.csv").read_bytes()).hexdigest() == digest

    def test_ratio_points_of_a_seed_share_one_stack(self, tmp_path, monkeypatch):
        """The three ratio_x points of one seed differ in their datasets but
        not in their method phase's steps, so that phase trains as one 3-run
        stack."""
        calls = self._spy_phases(monkeypatch)
        cfg = self._sweep_cfg(tmp_path, None, "ratio_x", [0.5, 1.0, 1.5], "sw15")
        assert main(["sweep", "--config", cfg]) == 0
        assert [n for phase, n in calls if phase == "method"] == [3]


class TestCsvCells:
    def test_cells_are_written_as_str_writes_them(self, tmp_path):
        """A float as its repr, a numpy float as the same digits (not its numpy
        repr), and every other value as ``str``."""
        from bfpo.cli import _write_csv

        row = {"a": np.float64(0.1), "b": 0.1, "c": -0.0, "d": float("nan"),
               "e": float("inf"), "f": 1e-300, "g": 3, "h": "x,y", "i": 2 / 3}
        _write_csv(tmp_path / "t.csv", list(row), [list(row.values())])
        assert (tmp_path / "t.csv").read_text() == (
            "a,b,c,d,e,f,g,h,i\n0.1,0.1,-0.0,nan,inf,1e-300,3,\"x,y\",0.6666666666666666\n"
        )


class TestVerify:
    def test_fresh_install_passes(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out), "--fd-cases", "3"]) == 0
        doc = json.loads((out / "verify_report.json").read_text())
        assert doc["all_passed"]
        names = {c["name"] for c in doc["checks"]}
        assert "pu_unbiasedness" in names
        assert "gradient_fd_cbpo" in names
        # One entry per registered property.
        assert len(doc["checks"]) == len(names)

    # sha256 of verify_report.json at two seeds (16 holds the DPO case whose
    # true gradient is zero), recorded from the per-case draws before gradient
    # cases were decoded from raw words and PU estimates taken per block, then
    # re-recorded when the EMA check gained its ``anchor_error`` detail (the
    # report without that key is byte-identical to the one pinned before).
    VERIFY_SHA256 = {
        0: "f9f9ba3a3c4d3842e802438ce39e96a6d56ea7d7efbe60a39ea08a59e3e3f410",
        16: "8c0b9d1f7296b8fa6e72010b3a9477806c8a6e5aa43d3a65b83c2f40c64b9d5e",
    }

    @pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
    def test_report_bytes_pinned(self, tmp_path, seed):
        out = tmp_path / "verify"
        assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
        report = (out / "verify_report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.VERIFY_SHA256[seed]

    def test_timing_is_written_apart(self, tmp_path):
        """Each check's wall seconds and their total go to verify_timing.json,
        in the report's check order; the report holds no time."""
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out), "--fd-cases", "2"]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        timing = json.loads((out / "verify_timing.json").read_text())
        assert [c["name"] for c in timing["checks"]] == [c["name"] for c in report["checks"]]
        seconds = [c["wall_s"] for c in timing["checks"]]
        assert all(s > 0.0 for s in seconds)
        assert timing["total_wall_s"] == sum(seconds)
        assert "wall_s" not in (out / "verify_report.json").read_text()


def _truncate_checkpoint(run: Path, corpus: Path) -> None:
    path = run / "checkpoint.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _rewrite_checkpoint(edit):
    """Apply ``edit`` to the run's checkpoint document, in place."""
    def corrupt(run: Path, corpus: Path) -> None:
        path = run / "checkpoint.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


_drop_ema = _rewrite_checkpoint(lambda doc: doc.pop("ema"))


def _drop_from_checkpoint(block: str, key: str):
    return _rewrite_checkpoint(lambda doc: doc[block].pop(key))


def _widen_checkpoint_tables(doc: dict) -> None:
    """One more column in every table, policy and reference as wide as their
    ``vocab_size`` says, and the top-level ``vocab_size`` left as it is."""
    for block in ("policy", "reference"):
        doc[block]["vocab_size"] += 1
        doc[block]["logits"] = [row + [0.0] for row in doc[block]["logits"]]
    for moment in ("m", "v"):
        doc["optimizer"][moment] = [row + [0.0] for row in doc["optimizer"][moment]]


def _checkpoint_block_as_pairs(block: str):
    """The checkpoint's ``block`` as a list of [key, value] pairs, which
    ``dict()`` would take for the object."""
    return _rewrite_checkpoint(lambda doc: doc.update({block: [*map(list, doc[block].items())]}))


def _edit_corpus_token(side: str, value):
    """Set the first token of the first corpus sample's ``side`` (x or y)."""
    def corrupt(run: Path, corpus: Path) -> None:
        path = corpus / "corpus.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[0])
        row[side] = [value] + row[side][1:]
        path.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
    return corrupt


_corpus_token_past_vocab = _edit_corpus_token("y", POPULATION["vocab_size"])


def _corpus_not_utf8(run: Path, corpus: Path) -> None:
    with (corpus / "corpus.jsonl").open("ab") as fh:
        fh.write(b'{"user_id": "\xff"}\n')


# A config seed holding byte 0xff: the config is written as JSON, then the
# escaped character is replaced by the raw byte, which is not UTF-8.
_NOT_UTF8 = "\xff"

# JSON text the decoder rejects without a JSONDecodeError: arrays nested past
# the recursion limit (RecursionError) and an integer past the digit limit
# for int() (ValueError).
_DEEP_JSON = "[" * 100_000 + "]" * 100_000
_LONG_INT = "1" * 5_000
# Config seeds standing for that text: each is written as JSON, then its
# quoted escape is replaced by the raw text.
_RAW_SEEDS = {"\x01deep": _DEEP_JSON, "\x01digits": _LONG_INT}
_DEEP_SEED, _DIGITS_SEED = _RAW_SEEDS


def _corpus_first_line(line: str):
    def corrupt(run: Path, corpus: Path) -> None:
        path = corpus / "corpus.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([line] + lines[1:]) + "\n")
    return corrupt


def _replace_file(name: str, text: str):
    """Replace the run's (``checkpoint.json``) or the corpus's file ``name``."""
    def corrupt(run: Path, corpus: Path) -> None:
        ((run if name == "checkpoint.json" else corpus) / name).write_text(text)
    return corrupt


def _edit_checkpoint(block: str | None = None, **edits):
    """Update the checkpoint's top level, or its ``block``, with ``edits``."""
    return _rewrite_checkpoint(lambda doc: (doc if block is None else doc[block]).update(edits))


def _corpus_a_directory(run: Path, corpus: Path) -> None:
    (corpus / "corpus.jsonl").unlink()
    (corpus / "corpus.jsonl").mkdir()


def _edit_checkpoint_config(**edits):
    return _edit_checkpoint("config", **edits)


def _edit_checkpoint_logit(table: str, value):
    """Set the first cell of the checkpoint's ``table`` (policy or reference) logits."""
    def edit(doc: dict) -> None:
        doc[table]["logits"][0][0] = value
    return _rewrite_checkpoint(edit)


def _config(command: str, corpus: Path, out: Path, edits: dict) -> dict:
    """A valid config of ``command`` with ``edits`` applied; an edit to a block
    (a dict) is merged into it, any other edit replaces the value."""
    dataset = {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"}
    blocks = {
        "generate": {"population": POPULATION},
        "train": {"corpus_dir": str(corpus), "dataset": dataset, "train": TRAIN},
        "estimate-alpha": {"corpus_dir": str(corpus), "dataset": dataset, "estimator": {}},
        "sweep": {"axis": "alpha", "grid": [0.5], "n_seeds": 1, "population": POPULATION,
                  "dataset": dataset, "train": {**TRAIN, "epochs": 1}},
    }[command]
    doc = {"schema_version": 1, "seed": 5, "out_dir": str(out), **blocks}
    for key, value in edits.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    return doc


class TestMalformedInputExits2:
    """Every malformed input is a usage error: exit 2, one line on stderr, and
    no output directory."""

    @pytest.mark.parametrize(
        "command, corrupt, edits",
        [
            ("evaluate", _truncate_checkpoint, {}),
            ("evaluate", _drop_ema, {}),
            ("train", None, {"dataset": {"ratio_x": "abc"}}),
            ("train", _corpus_token_past_vocab, {}),
            ("generate", None, {"population": {"n_users": 8.7}}),
            ("generate", None, {"population": {"samples_per_user": True}}),
            ("train", None, {"train": {"epochs": 2.7}}),
            ("train", None, {"train": {"learning_rate": True}}),
            ("train", None, {"train": {"momentum_params": [0.9, 0.99]}}),
            ("train", None, {"seed": 2.7}),
            ("generate", None, {"seed": True}),
            ("generate", None, {"out_dir": 5}),
            ("train", None, {"corpus_dir": 5}),
            ("train", None, {"dataset": {"ratio_x": True}}),
            ("estimate-alpha", None, {"estimator": {"epochs": 2.7}}),
            ("estimate-alpha", None, {"estimator": {"lr": "nan"}}),
            ("sweep", None, {"n_seeds": 2.5}),
            ("sweep", None, {"grid": 5}),
            ("sweep", None, {"axis": "ratio_x", "grid": [1.0, "abc"]}),
            ("sweep", None, {"axis": "history_fraction", "grid": [0.5, 1.5]}),
            ("sweep", None, {"axis": "grouping", "grid": ["random", "bogus"]}),
            ("sweep", None, {"train": {"epochs": 2.7}}),
            ("sweep", None, {"dataset": {"target_user": "u999"}}),
            ("sweep", None, {"axis": "ratio_x", "grid": [1.0, 100.0]}),
            ("evaluate", _edit_checkpoint_config(beta=True), {}),
            ("evaluate", _edit_checkpoint_config(beta=-1), {}),
            ("evaluate", _edit_checkpoint_config(method=5), {}),
            ("train", None, {"train": {"warmstart_lr": -0.05}}),
            ("generate", None, {"seed": -1}),
            ("train", None, {"seed": -1}),
            ("estimate-alpha", None, {"seed": -1}),
            ("sweep", None, {"seed": -1}),
            ("train", _edit_corpus_token("x", 1.5), {}),
            ("train", _edit_corpus_token("y", True), {}),
            ("evaluate", _edit_checkpoint(step=2.7), {}),
            ("evaluate", _edit_checkpoint(step=True), {}),
            ("evaluate", _edit_checkpoint("ema", initialized="no"), {}),
            ("evaluate", _edit_checkpoint_logit("policy", True), {}),
            ("evaluate", _edit_checkpoint_logit("reference", "1.5"), {}),
            ("train", _corpus_not_utf8, {}),
            ("generate", None, {"seed": _NOT_UTF8}),
            ("train", None, {"seed": _NOT_UTF8}),
            ("estimate-alpha", None, {"seed": _NOT_UTF8}),
            ("sweep", None, {"seed": _NOT_UTF8}),
            ("train", None, {"train": {"method": "dpo", "dpo_rejection_budget": 0}}),
            ("train", None, {"train": {"method": "dpo", "dpo_rejection_budget": -3}}),
            ("train", None, {"train": {"alpha": "estimate", "alpha_estimator_epochs": 0}}),
            ("train", None, {"train": {"alpha": "estimate", "alpha_estimator_lr": -1}}),
            ("estimate-alpha", None, {"estimator": {"epochs": 0}}),
            ("estimate-alpha", None, {"estimator": {"heldout_fraction": 1.0}}),
            ("estimate-alpha", None, {"estimator": {"lr": -1}}),
            ("train", None, {"dataset": {"ratio_x": 1e-9}}),
            ("train", None, {"dataset": {"ratio_x": 1e-9}, "train": {"warmstart_epochs": 0}}),
            ("train", None, {"dataset": {"history_fraction": 0.01},
                             "train": {"alpha": "estimate"}}),
            ("sweep", None, {"axis": "ratio_x", "grid": [1.0, 1e-9]}),
            ("sweep", None, {"axis": "history_fraction", "grid": [1.0, 0.01],
                             "train": {"alpha": "estimate"}}),
            ("train", _corpus_first_line(_DEEP_JSON), {}),
            ("train", _corpus_first_line(
                f'{{"user_id":"u000","x":[1],"y":[{_LONG_INT}],"split":"train"}}'), {}),
            ("generate", None, {"seed": _DEEP_SEED}),
            ("train", None, {"seed": _DEEP_SEED}),
            ("sweep", None, {"seed": _DIGITS_SEED}),
            ("estimate-alpha", None, {"seed": _DIGITS_SEED}),
            ("evaluate", _replace_file("checkpoint.json", _DEEP_JSON), {}),
            ("evaluate", _replace_file("checkpoint.json", f'{{"step":{_LONG_INT}}}'), {}),
            ("train", _replace_file("population_spec.json", _DEEP_JSON), {}),
            ("sweep", None, {"delta_modes": []}),
            ("train", None, {"train": {"momentum_params": [1.0, 0.999, 1e-8]}}),
            ("train", None, {"train": {"momentum_params": [0.9, 1.0, 1e-8]}}),
            ("train", None, {"train": {"momentum_params": [0.9, 0.999, 0.0]}}),
            ("train", None, {"train": {"momentum_params": [1.5, 0.999, 1e-8]}}),
            ("train", None, {"train": {"momentum_params": [-0.1, 0.999, 1e-8]}}),
            ("train", None, {"train": {"momentum_params": [0.9, -0.5, 1e-8]}}),
            ("train", None, {"train": {"momentum_params": [0.9, 0.999, -1.0]}}),
            ("sweep", None, {"train": {"momentum_params": [0.9, 1.0, 1e-8]}}),
            ("train", None, {"train": {"warmup_fraction": -3.0}}),
            ("train", None, {"train": {"warmup_fraction": 7.0}}),
            ("train", None, {"train": {"weight_decay": -5.0}}),
            ("train", None, {"train": {"lambda_d": -1.0}}),
            ("train", None, {"train": {"lambda_u": -0.5}}),
            ("sweep", None, {"train": {"warmup_fraction": 7.0}}),
            ("sweep", None, {"train": {"weight_decay": -5.0}}),
            ("sweep", None, {"train": {"lambda_d": -1.0}}),
            ("evaluate", _edit_checkpoint(step=-5), {}),
            ("evaluate", _checkpoint_block_as_pairs("config"), {}),
            ("evaluate", _checkpoint_block_as_pairs("dataset_meta"), {}),
            ("evaluate", _drop_from_checkpoint("ema", "decay"), {}),
            ("evaluate", _drop_from_checkpoint("optimizer", "t"), {}),
            ("train", _corpus_a_directory, {}),
            ("generate", None, {"schema_version": True}),
            ("evaluate", _edit_checkpoint(schema_version=True), {}),
            ("evaluate", _rewrite_checkpoint(_widen_checkpoint_tables), {}),
            ("evaluate", _edit_checkpoint("optimizer", m=[[1.0]]), {}),
        ],
        ids=["truncated_checkpoint", "checkpoint_without_ema", "ratio_x_not_a_number",
             "corpus_token_past_vocab", "n_users_not_an_integer", "samples_per_user_bool",
             "epochs_not_an_integer", "learning_rate_bool", "momentum_params_too_short",
             "seed_not_an_integer", "seed_bool", "out_dir_not_a_string",
             "corpus_dir_not_a_string", "ratio_x_bool", "estimator_epochs_not_an_integer",
             "estimator_lr_nan", "sweep_n_seeds_not_an_integer", "sweep_grid_not_a_list",
             "sweep_ratio_x_grid_value_not_a_number", "sweep_history_fraction_grid_value_above_1",
             "sweep_grouping_grid_value_unknown", "sweep_epochs_not_an_integer",
             "sweep_unknown_target_user", "sweep_ratio_x_grid_value_past_the_population",
             "checkpoint_beta_bool", "checkpoint_beta_negative", "checkpoint_method_not_a_name",
             "warmstart_lr_negative", "generate_seed_negative", "train_seed_negative",
             "estimate_alpha_seed_negative", "sweep_seed_negative",
             "corpus_token_not_an_integer", "corpus_token_bool",
             "checkpoint_step_not_an_integer", "checkpoint_step_bool",
             "checkpoint_ema_initialized_not_a_bool", "checkpoint_policy_logit_bool",
             "checkpoint_reference_logit_string", "corpus_not_utf8",
             "generate_config_not_utf8", "train_config_not_utf8",
             "estimate_alpha_config_not_utf8", "sweep_config_not_utf8",
             "dpo_rejection_budget_zero", "dpo_rejection_budget_negative",
             "alpha_estimator_epochs_zero", "alpha_estimator_lr_negative",
             "estimator_epochs_zero", "estimator_heldout_fraction_one",
             "estimator_lr_negative", "train_empty_warm_start_pool",
             "train_empty_auxiliary_split", "train_one_target_sample_to_estimate_alpha",
             "sweep_grid_point_with_empty_warm_start_pool",
             "sweep_grid_point_with_one_target_sample_to_estimate_alpha",
             "corpus_line_nested_deep", "corpus_token_of_5000_digits",
             "generate_config_nested_deep", "train_config_nested_deep",
             "sweep_config_int_of_5000_digits", "estimate_alpha_config_int_of_5000_digits",
             "checkpoint_nested_deep", "checkpoint_int_of_5000_digits",
             "population_spec_nested_deep", "sweep_delta_modes_empty",
             "momentum_b1_one", "momentum_b2_one", "momentum_eps_zero", "momentum_b1_above_1",
             "momentum_b1_negative", "momentum_b2_negative", "momentum_eps_negative",
             "sweep_momentum_b2_one", "warmup_fraction_negative", "warmup_fraction_above_1",
             "weight_decay_negative", "lambda_d_negative", "lambda_u_negative",
             "sweep_warmup_fraction_above_1", "sweep_weight_decay_negative",
             "sweep_lambda_d_negative", "checkpoint_step_negative",
             "checkpoint_config_as_pairs", "checkpoint_dataset_meta_as_pairs",
             "checkpoint_ema_without_decay", "checkpoint_optimizer_without_t",
             "corpus_a_directory", "config_schema_version_bool",
             "checkpoint_schema_version_bool", "checkpoint_tables_wider_than_vocab_size",
             "checkpoint_optimizer_m_not_the_policys_shape"],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, corrupt, edits):
        corpus = _generate(tmp_path)
        run = _train(tmp_path, corpus)
        if corrupt is not None:
            corrupt(run, corpus)
        capsys.readouterr()
        out = tmp_path / "bad"
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                    "--corpus", str(corpus), "--out", str(out)]
        else:
            cfg = _write(tmp_path / "bad.json", _config(command, corpus, out, edits))
            path = Path(cfg)
            if edits.get("seed") == _NOT_UTF8:
                path.write_bytes(path.read_bytes().replace(b"\\u00ff", b"\xff"))
            if edits.get("seed") in _RAW_SEEDS:
                seed = edits["seed"]
                path.write_text(path.read_text().replace(json.dumps(seed), _RAW_SEEDS[seed]))
            argv = [command, "--config", cfg]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if edits.get("seed") == _NOT_UTF8 or edits.get("seed") in _RAW_SEEDS:
            assert "bad.json" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "estimate-alpha", "sweep"])
    def test_config_naming_a_directory(self, tmp_path, capsys, command):
        """A ``--config`` that names a directory is a usage error, as a
        missing file is: exit 2 and one line naming it."""
        directory = tmp_path / "configs"
        directory.mkdir()
        assert main([command, "--config", str(directory)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(directory) in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["generate", "train", "estimate-alpha", "sweep",
                                         "verify"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        """``--seed -1`` over a valid config (and for verify) exits 2 with one
        line and creates no output directory."""
        out = tmp_path / "bad"
        if command == "verify":
            argv = ["verify", "--out", str(out)]
        else:
            corpus = tmp_path / "corpus"
            if command in ("train", "estimate-alpha"):
                corpus = _generate(tmp_path)
            argv = [command, "--config",
                    _write(tmp_path / "ok.json", _config(command, corpus, out, {}))]
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_verify_needs_an_fd_case(self, tmp_path, capsys, cases):
        out = tmp_path / "bad"
        assert main(["verify", "--out", str(out), "--fd-cases", cases]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--fd-cases" in err and err.count("\n") == 1, err
        assert not out.exists()


    def test_sweep_empty_delta_modes_at_two_workers(self, tmp_path, capsys):
        """An empty ``delta_modes`` list is a usage error at any worker count,
        not a process pool of no workers that leaves sweep_partial.csv."""
        out = tmp_path / "bad"
        cfg = _write(tmp_path / "bad.json",
                     _config("sweep", tmp_path / "corpus", out, {"delta_modes": []}))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta_modes" in err and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_needs_a_worker(self, tmp_path, capsys, workers):
        out = tmp_path / "bad"
        cfg = _write(tmp_path / "ok.json", _config("sweep", tmp_path / "corpus", out, {}))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--workers" in err and err.count("\n") == 1, err
        assert not out.exists()


def _rewrite_line_3(corpus: Path, edit) -> None:
    """Rewrite line 3 of the corpus: ``edit`` takes the line's row and returns
    the new line's text."""
    path = corpus / "corpus.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = edit(json.loads(lines[2]))
    path.write_text("\n".join(lines) + "\n")


def _row_with(**edits):
    return lambda row: json.dumps({**row, **edits})


def _row_with_token(side: str, value):
    return lambda row: json.dumps({**row, side: [value] + row[side][1:]})


class TestCorpusFaultNamesTheLine:
    """A corpus fault on line 3 is a usage error whose one line names line 3."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: json.dumps(row)[:-5],
            lambda row: json.dumps({k: v for k, v in row.items() if k != "split"}),
            _row_with_token("x", 1.5),
            _row_with_token("y", True),
            _row_with_token("y", -1),
            _row_with_token("y", POPULATION["vocab_size"]),
            _row_with(y=[]),
            _row_with(split="test"),
            lambda row: json.dumps(row) + json.dumps(row),
            lambda row: json.dumps(row) + "," + json.dumps(row),
            lambda row: json.dumps([row]),
            _row_with(split=["train"]),
        ],
        ids=["invalid_json", "missing_key", "token_float", "token_bool", "token_negative",
             "token_past_vocab", "empty_completion", "bad_split", "two_objects",
             "two_objects_and_a_comma", "not_an_object", "split_not_hashable"],
    )
    def test_exit_2_naming_line_3(self, tmp_path, capsys, edit):
        corpus = _generate(tmp_path)
        _rewrite_line_3(corpus, edit)
        out = tmp_path / "bad"
        cfg = _write(tmp_path / "bad.json", _config("train", corpus, out, {}))
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "line 3" in err, err
        assert not out.exists()

    def test_object_split_across_lines_names_line_1(self, tmp_path, capsys):
        """Line 1 ends inside an object that line 2 closes, and line 3 holds
        two objects: joined by commas the lines are one valid array of the
        same samples, yet line 1 is not a sample."""
        corpus = _generate(tmp_path)
        path = corpus / "corpus.jsonl"
        lines = path.read_text().splitlines()
        cut = lines[0].index(',"split"')
        lines[:3] = [lines[0][:cut], lines[0][cut + 1:], lines[1] + "," + lines[2]]
        assert json.loads("[" + ",".join(lines) + "]") == [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bad"
        cfg = _write(tmp_path / "bad.json", _config("train", corpus, out, {}))
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corpus line 1: invalid JSON") and err.count("\n") == 1, err
        assert not out.exists()


class TestReadmeExamples:
    """The README's JSON config examples cast as their commands cast them, so a
    renamed field or a changed cast rule fails here rather than leaving the
    docs wrong."""

    # Each command's required top-level keys (beyond schema_version and seed)
    # and its optional ones.
    COMMANDS = {
        "generate": ({"population"}, ()),
        "train": ({"corpus_dir", "dataset", "train"}, ()),
        "sweep": ({"axis", "grid", "n_seeds", "population", "dataset", "train"},
                  ("delta_modes",)),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_example_casts(self, tmp_path, command):
        from bfpo.cli import _block, _load_config
        from bfpo.datagen import DatasetConfig, PopulationSpec
        from bfpo.trainer import TrainConfig

        required, optional = self.COMMANDS[command]
        allowed = required | {*optional, "schema_version", "seed", "out_dir"}
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]
        (example,) = [doc for doc in examples if required <= set(doc) <= allowed]
        path = _write(tmp_path / "example.json", example)
        doc, seed = _load_config(path, None, command, required, optional)
        if "population" in doc:
            _block(PopulationSpec, doc["population"], "population", seed=seed)
        if "dataset" in doc:
            _block(DatasetConfig, doc["dataset"], "dataset")
        if "train" in doc:
            _block(TrainConfig, doc["train"], "train", required={"method"}, seed=seed)

    def test_library_use_runs_as_written(self, capsys):
        """The "Library use" snippet runs, and the package root exports
        exactly the names it imports."""
        import bfpo

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Library use", 1)[1]
        (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
        imported = [alias.name for node in ast.walk(ast.parse(snippet))
                    if isinstance(node, ast.ImportFrom) and node.module == "bfpo"
                    for alias in node.names]
        assert bfpo.__all__ == imported
        namespace = {}
        exec(compile(snippet, "README.md", "exec"), namespace)
        report = namespace["report"]
        assert capsys.readouterr().out == f"{report.heldout_nll} {report.delta_logp_aux}\n"
        assert math.isfinite(report.heldout_nll)


class TestAtomicWrites:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, capsys):
        """A write that fails half-way exits 1 with one error line, and leaves
        the old bytes and no temp file."""
        corpus = _generate(tmp_path)
        run = _train(tmp_path, corpus)
        before = (run / "checkpoint.json").read_bytes()

        class HalfWritten(io.BufferedWriter):
            def write(self, data):
                super().write(data[: len(data) // 2])
                self.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(files, "open", lambda fd, mode: HalfWritten(io.FileIO(fd, "w")),
                            raising=False)
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "train_run.json"), "--seed", "6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "No space left on device" in err
        assert (run / "checkpoint.json").read_bytes() == before
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.json", "metrics.csv"]


class TestParser:
    def test_successive_calls_parse_on_their_own(self, tmp_path, capsys):
        """One parser serves every ``main`` call of a process, and each call
        reads only its own arguments: a flag of an earlier call does not
        carry over, and the exit codes stay 0, 1 and 2."""
        assert cli._parser() is cli._parser()
        corpus = _generate(tmp_path)
        cfg = _write(tmp_path / "gen.json", {"schema_version": 1, "seed": 5,
                                             "out_dir": str(tmp_path / "gen"),
                                             "population": POPULATION})
        assert main(["generate", "--config", cfg, "--seed", "6",
                     "--out", str(tmp_path / "seed6")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["train", "--seed", "6"])  # no --config
        assert exc.value.code == 2
        assert main(["generate", "--config", cfg]) == 0  # the config's seed and out_dir
        assert (tmp_path / "gen" / "corpus.jsonl").read_bytes() == (
            corpus / "corpus.jsonl").read_bytes()
        assert main(["generate", "--config", str(tmp_path / "missing.json")]) == 2
        train_cfg = _write(
            tmp_path / "t.json",
            {"schema_version": 1, "seed": 5, "out_dir": str(tmp_path / "crash"),
             "corpus_dir": str(corpus),
             "dataset": {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"},
             "train": {**TRAIN, "warmstart_lr": 1e308}},
        )
        assert main(["train", "--config", train_cfg]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fd-cases", "many"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSeedOverride:
    def test_seed_flag_changes_corpus(self, tmp_path):
        cfg = _write(
            tmp_path / "g.json",
            {"schema_version": 1, "seed": 1, "out_dir": str(tmp_path / "s1"),
             "population": POPULATION},
        )
        assert main(["generate", "--config", cfg]) == 0
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "s2"),
                     "--seed", "2"]) == 0
        assert (tmp_path / "s1" / "corpus.jsonl").read_bytes() != (
            tmp_path / "s2" / "corpus.jsonl"
        ).read_bytes()
