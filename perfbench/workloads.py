"""The four benchmark workloads: seed-derived inputs, timed ops, output checks.

A workload builds its inputs in ``__init__`` (that is the set-up the benchmark
times) and then exposes a fixed list of ops.  ``Op.run`` is the timed call into
bfpo; ``Op.check`` runs untimed afterwards and turns the output into a
fingerprint (compared with ``reference.json`` and with the previous pass) plus a
list of problems.  Every call into bfpo goes through a module attribute
(``trainer.run``, not a name imported here) so that the tracer sees it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bfpo import alpha, cli, datagen, evaluation, trainer, verification
from bfpo.losses import Method

# Frozen directional configuration of the acceptance suite (criteria 7-10).
FROZEN_POPULATION = dict(
    n_users=8, vocab_size=72, samples_per_user=150, prompt_pool_size=20, seq_len=8
)
FROZEN_OVERLAP = 0.8
FROZEN_RATIO = 1.5
FROZEN_TRAIN = dict(
    epochs=14, batch_size_pos=8, learning_rate=0.2, beta=0.075, ema_decay=0.9,
    warmstart_epochs=2, warmstart_lr=0.2, alpha_estimator_epochs=60,
)
# Overlap-recovery configuration of the acceptance suite (criterion 6).
RECOVERY_POPULATION = dict(
    n_users=6, vocab_size=48, samples_per_user=2500, prompt_pool_size=20, seq_len=5
)
RECOVERY_OVERLAPS = (0.2, 0.5, 0.8)
SWEEP_GRID = (0, 0.25, 0.5, 0.75)
SWEEP_SEEDS = 2
SWEEP_WORKERS = 2
FD_CASES = 50
TARGET_USER = "u000"

# Loose enough for a change of reduction order (a last-digit difference grows
# over 250 optimizer steps), tight enough that a wrong formula cannot pass.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# Finite-difference errors are round-off noise; they are compared between the
# passes of one run but not with the recorded reference.
RUN_ONLY_PREFIX = "fd_worst_error."


@dataclass
class Checked:
    """What the untimed check of one op found."""

    fingerprint: dict[str, Any]
    problems: list[str] = field(default_factory=list)
    work: float = 0.0      # units of the workload's throughput metric
    busy_s: float = 0.0    # seconds spent on that work
    facts: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    # Processes the op keeps busy.  The traced pass runs the sweep with one
    # worker, so its children's calls are seen in-process.
    workers: int = 1


class Workload:
    """Inputs built from the seed in ``__init__``; ``ops`` lists what one pass runs."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def prepare_pass(self) -> None:
        """Untimed clean-up before each pass."""

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(float(value))


def _metrics_problems(rows: list[dict], where: str) -> list[str]:
    problems = []
    for row in rows:
        bad = [k for k, v in row.items() if k not in ("method",) and not _finite(float(v))]
        if bad:
            problems.append(f"{where}: non-finite {bad} at step {row['step']}")
            break
    if any(float(r["pure_neg_clamped"]) < 0.0 for r in rows):
        problems.append(f"{where}: pure_neg_clamped < 0")
    return problems


def _report_problems(report: dict, where: str) -> list[str]:
    problems = [
        f"{where}: {k} not finite"
        for k in ("heldout_nll", "pref_acc", "delta_logp_aux") if not _finite(report[k])
    ]
    if not 0.0 <= report["pref_acc"] <= 1.0:
        problems.append(f"{where}: pref_acc outside [0, 1]")
    return problems


def compare_to_reference(fingerprint: dict, reference: dict | None) -> list[str]:
    """Mismatches between an op's fingerprint and its recorded reference."""
    if reference is None:
        return []
    problems = []
    for key, want in reference.items():
        got = fingerprint.get(key)
        if isinstance(want, float):
            ok = _finite(got) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}={got!r}, reference {want!r}")
    return problems


def reference_view(fingerprint: dict) -> dict:
    return {k: v for k, v in fingerprint.items() if not k.startswith(RUN_ONLY_PREFIX)}


# ---------------------------------------------------------------------------
# train_frozen
# ---------------------------------------------------------------------------


class TrainFrozen(Workload):
    """Each method once on the frozen config, plus criterion 10's truncated case."""

    name = "train_frozen"
    # (op name, method, history fraction, delta mode); alpha is always estimated.
    CASES = (
        ("sft", "sft", 1.0, "ema"),
        ("dpo", "dpo", 1.0, "ema"),
        ("kto", "kto", 1.0, "ema"),
        ("bco", "bco", 1.0, "ema"),
        ("cbpo_raw", "cbpo_raw", 1.0, "ema"),
        ("cbpo", "cbpo", 1.0, "ema"),
        ("cbpo_history_0.25_batch", "cbpo", 0.25, "batch"),
    )

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.spec = datagen.PopulationSpec(
            overlap_lambda=FROZEN_OVERLAP, seed=seed, **FROZEN_POPULATION
        )
        self.population = datagen.generate_population(self.spec)
        full = datagen.build_user_dataset(
            self.population, TARGET_USER, FROZEN_RATIO, "random", seed, self.spec.vocab_size
        )
        self.datasets = {
            1.0: full, 0.25: datagen.truncate_history(full, 0.25),
        }

    def ops(self, traced: bool) -> list[Op]:
        return [self._op(*case) for case in self.CASES]

    def _op(self, label: str, method: str, history: float, delta_mode: str) -> Op:
        dataset = self.datasets[history]
        config = trainer.TrainConfig(
            method=Method(method), alpha="estimate", seed=self.seed,
            delta_mode=delta_mode, **FROZEN_TRAIN,
        )
        warm_steps = config.warmstart_epochs * math.ceil(
            len(dataset.aux_train) / config.batch_size_pos
        )

        def run_op():
            t0 = time.perf_counter()
            result = trainer.run(dataset, config, self.spec.vocab_size)
            run_s = time.perf_counter() - t0
            report = evaluation.evaluate_policy(
                result.policy, result.reference, self.population, TARGET_USER,
                dataset.aux_user_ids, beta=config.beta, method=method,
            )
            return result, report, run_s

        def check(out) -> Checked:
            result, report, run_s = out
            report = report.to_dict()
            problems = _metrics_problems(result.metrics, label)
            problems += _report_problems(report, label)
            problems += self._roundtrip_problems(result, config, label)
            fingerprint = {
                "heldout_nll": report["heldout_nll"],
                "pref_acc": report["pref_acc"],
                "delta_logp_aux": report["delta_logp_aux"],
                "alpha_hat": float(result.alpha_resolved),
                "total": float(result.metrics[-1]["total"]),
            }
            return Checked(
                fingerprint, problems,
                work=warm_steps + len(result.metrics), busy_s=run_s,
                facts={"dpo_pairs_skipped": result.dpo_pairs_skipped},
            )

        return Op(label, run_op, check)

    def _roundtrip_problems(self, result, config, label: str) -> list[str]:
        path = self.work_dir / "roundtrip_checkpoint.json"
        trainer.save_checkpoint(path, result, config, self.spec.vocab_size, {})
        loaded = trainer.load_checkpoint(path)
        same = (
            np.array_equal(loaded.policy.logits, result.policy.logits)
            and np.array_equal(loaded.reference.logits, result.reference.logits)
            and np.array_equal(loaded.opt.m, result.opt.m)
            and np.array_equal(loaded.opt.v, result.opt.v)
            and loaded.opt.t == result.opt.t
            and loaded.ema == result.ema
            and loaded.step == len(result.metrics)
        )
        return [] if same else [f"{label}: load_checkpoint does not round-trip the result"]


# ---------------------------------------------------------------------------
# population_alpha
# ---------------------------------------------------------------------------


class PopulationAlpha(Workload):
    """Generate, select (random and unique) and estimate alpha at three overlaps."""

    name = "population_alpha"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.specs = [
            datagen.PopulationSpec(overlap_lambda=lam, seed=seed, **RECOVERY_POPULATION)
            for lam in RECOVERY_OVERLAPS
        ]

    def ops(self, traced: bool) -> list[Op]:
        return [self._op(spec) for spec in self.specs]

    def _op(self, spec) -> Op:
        vocab = spec.vocab_size
        n_samples = spec.n_users * spec.samples_per_user

        def run_op():
            population = datagen.generate_population(spec)
            by_random = datagen.build_user_dataset(
                population, TARGET_USER, 1.0, "random", self.seed, vocab
            )
            by_unique = datagen.build_user_dataset(
                population, TARGET_USER, 1.0, "unique", self.seed, vocab
            )
            estimate = alpha.run_alpha_estimation(
                by_random.tar_train, by_random.aux_train, vocab, seed=self.seed
            )
            return population, by_random, by_unique, estimate

        def check(out) -> Checked:
            population, by_random, by_unique, estimate = out
            label = f"overlap {spec.overlap_lambda}"
            problems = []
            samples = [s for uid in sorted(population) for s in population[uid]]
            if len(samples) != n_samples:
                problems.append(f"{label}: {len(samples)} samples, expected {n_samples}")
            if any(not 0 <= t < vocab for s in samples for t in s.x + s.y):
                problems.append(f"{label}: token out of range")
            if len(by_random.h_aux) != spec.samples_per_user:
                problems.append(f"{label}: random pool has {len(by_random.h_aux)} samples")
            if not 0.0 <= estimate.alpha_hat <= alpha.ALPHA_CAP:
                problems.append(f"{label}: alpha_hat {estimate.alpha_hat} out of range")
            fingerprint = {
                "alpha_hat": estimate.alpha_hat,
                "c_hat": estimate.c_hat,
                "token_checksum": sum(
                    (i % 97 + 1) * t for i, s in enumerate(samples) for t in s.y
                ),
                "random_pool_checksum": sum(sum(s.y) for s in by_random.h_aux),
                "unique_pool_users": ",".join(by_unique.aux_user_ids),
            }
            if not _finite(estimate.alpha_hat) or not _finite(estimate.c_hat):
                problems.append(f"{label}: non-finite estimate")
            return Checked(fingerprint, problems, work=n_samples)

        return Op(f"overlap_{spec.overlap_lambda}", run_op, check)


# ---------------------------------------------------------------------------
# cli_sweep
# ---------------------------------------------------------------------------


class CliSweep(Workload):
    """generate -> train -> evaluate through ``cli.main``, then a two-worker sweep."""

    name = "cli_sweep"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.out = work_dir / "pass"
        population = {**FROZEN_POPULATION, "overlap_lambda": FROZEN_OVERLAP}
        dataset = {"target_user": TARGET_USER, "ratio_x": FROZEN_RATIO, "grouping": "random"}
        train = {"method": "cbpo", "alpha": "estimate", **FROZEN_TRAIN}
        sweep_train = {k: v for k, v in train.items() if k != "alpha"}
        self.configs = {}
        for name, doc in (
            ("gen", {"population": population}),
            ("train", {"corpus_dir": str(self.out / "corpus"), "dataset": dataset,
                       "train": train}),
            ("sweep", {"axis": "alpha", "grid": list(SWEEP_GRID), "n_seeds": SWEEP_SEEDS,
                       "population": population, "dataset": dataset,
                       "train": sweep_train}),
        ):
            path = work_dir / f"{name}.json"
            path.write_text(json.dumps({"schema_version": 1, "seed": seed, **doc}, indent=2))
            self.configs[name] = str(path)
        self.n_tasks = len(SWEEP_GRID) * SWEEP_SEEDS
        n_train = math.ceil(
            (1.0 - datagen.HELDOUT_FRACTION) * FROZEN_POPULATION["samples_per_user"]
        )
        self.n_steps = FROZEN_TRAIN["epochs"] * math.ceil(n_train / FROZEN_TRAIN["batch_size_pos"])

    def prepare_pass(self) -> None:
        if self.out.exists():
            shutil.rmtree(self.out)

    def ops(self, traced: bool) -> list[Op]:
        corpus, run_dir = self.out / "corpus", self.out / "run"
        eval_dir, sweep_dir = self.out / "eval", self.out / "sweep"
        workers = 1 if traced else SWEEP_WORKERS
        return [
            Op("generate", _cli(["generate", "--config", self.configs["gen"],
                                 "--out", str(corpus)]),
               self._check_generate),
            Op("train", _cli(["train", "--config", self.configs["train"],
                              "--out", str(run_dir)]),
               self._check_train),
            Op("evaluate", _cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                                 "--corpus", str(corpus), "--out", str(eval_dir)]),
               self._check_evaluate),
            Op("sweep", _cli(["sweep", "--config", self.configs["sweep"],
                              "--out", str(sweep_dir), "--workers", str(workers)]),
               self._check_sweep, workers=workers),
        ]

    def _check_generate(self, code: int) -> Checked:
        path = self.out / "corpus" / "corpus.jsonl"
        problems = [f"generate exited {code}"] if code != 0 else []
        lines = path.read_text().splitlines() if path.exists() else []
        rows = [json.loads(line) for line in lines]
        expected = FROZEN_POPULATION["n_users"] * FROZEN_POPULATION["samples_per_user"]
        if len(rows) != expected:
            problems.append(f"corpus has {len(rows)} samples, expected {expected}")
        fingerprint = {
            "samples": len(rows),
            "token_checksum": sum((i % 97 + 1) * t for i, r in enumerate(rows) for t in r["y"]),
        }
        return Checked(fingerprint, problems,
                       facts={"corpus_bytes": path.stat().st_size if path.exists() else 0})

    def _check_train(self, code: int) -> Checked:
        run_dir = self.out / "run"
        problems = [f"train exited {code}"] if code != 0 else []
        rows = _read_csv(run_dir / "metrics.csv")
        if len(rows) != self.n_steps:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {self.n_steps}")
        if rows:
            problems += _metrics_problems(rows, "train")
        estimate = run_dir / "alpha_estimate.json"
        checkpoint = run_dir / "checkpoint.json"
        fingerprint = {
            "alpha_hat": (json.loads(estimate.read_text())["alpha_hat"]
                          if estimate.exists() else None),
            "total": float(rows[-1]["total"]) if rows else None,
        }
        size = checkpoint.stat().st_size if checkpoint.exists() else 0
        return Checked(fingerprint, problems, facts={"checkpoint_bytes": size})

    def _check_evaluate(self, code: int) -> Checked:
        path = self.out / "eval" / "eval_report.json"
        problems = [f"evaluate exited {code}"] if code != 0 else []
        if not path.exists():
            return Checked({}, problems + ["eval_report.json missing"])
        report = json.loads(path.read_text())
        problems += _report_problems(report, "evaluate")
        fingerprint = {k: report[k] for k in ("heldout_nll", "pref_acc", "delta_logp_aux")}
        return Checked(fingerprint, problems)

    def _check_sweep(self, code: int) -> Checked:
        problems = [f"sweep exited {code}"] if code != 0 else []
        rows = _read_csv(self.out / "sweep" / "sweep.csv")
        if len(rows) != self.n_tasks:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {self.n_tasks}")
        fingerprint = {}
        for i, row in enumerate(rows):
            for key in ("alpha_resolved", "heldout_nll", "pref_acc", "delta_logp_aux"):
                value = float(row[key])
                if not math.isfinite(value):
                    problems.append(f"sweep row {i}: {key} not finite")
                fingerprint[f"{key}.{i}"] = value
        return Checked(fingerprint, problems, work=len(rows))


def _cli(argv: list[str]) -> Callable[[], int]:
    def call() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return call


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------


class VerifySuite(Workload):
    """The property-check suite behind ``bfpo verify``, one op per registered check."""

    name = "verify_suite"
    # Names of the CheckResults that ``registered_checks`` returns, in order.
    CHECK_NAMES = (
        "pu_unbiasedness", "pu_convergence_rate", "pu_negativity_exposure",
        "ema_batch_invariance", "clamp_negativity_exposure",
    ) + tuple(f"gradient_fd_{m.value}" for m in Method)

    def ops(self, traced: bool) -> list[Op]:
        checks = verification.registered_checks(seed=self.seed, fd_cases=FD_CASES)
        return [Op(name, check, functools.partial(self._check, name))
                for name, check in zip(self.CHECK_NAMES, checks, strict=True)]

    @staticmethod
    def _check(name: str, result) -> Checked:
        problems = [] if result.passed else [f"{result.name} failed: {result.details}"]
        if result.name != name:
            problems.append(f"check {result.name!r} ran where {name!r} was expected")
        fingerprint: dict[str, Any] = {"passed": result.passed}
        if name.startswith("gradient_fd_"):
            fingerprint[f"{RUN_ONLY_PREFIX}relative"] = result.details["worst_relative_error"]
        else:
            fingerprint.update(result.details)
        return Checked(fingerprint, problems, work=1)


WORKLOADS = {w.name: w for w in (TrainFrozen, PopulationAlpha, CliSweep, VerifySuite)}

