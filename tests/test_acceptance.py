"""Acceptance suite: one test per criterion, one pass/fail line each.

Directional experiments share a cached pool of runs (populations are seeded, so
every number here is reproducible bit-for-bit on a given platform).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bfpo.alpha import run_alpha_estimation
from bfpo.cli import main
from bfpo.datagen import (
    PopulationSpec,
    build_user_dataset,
    generate_population,
    truncate_history,
)
from bfpo.losses import LossConfig, Method
from bfpo.evaluation import evaluate_policy
from bfpo.pu import run_convergence_check, run_unbiasedness_check
from bfpo.trainer import TrainConfig, run, run_many
from bfpo.verification import (
    run_clamp_check,
    run_ema_invariance_check,
    run_gradient_fd_check,
)

from conftest import small_population
from oracles import binary_loss

SEEDS = (0, 1, 2, 3, 4)

# Frozen directional-experiment configuration (criteria 7-10).
DIRECTIONAL_POPULATION = dict(
    n_users=8, vocab_size=72, samples_per_user=150, prompt_pool_size=20, seq_len=8
)
DIRECTIONAL_TRAIN = dict(
    epochs=14,
    batch_size_pos=8,
    learning_rate=0.2,
    beta=0.075,
    ema_decay=0.9,
    warmstart_epochs=2,
    warmstart_lr=0.2,
    alpha_estimator_epochs=60,
)
DIRECTIONAL_RATIO = 1.5

# Frozen overlap-recovery configuration (criterion 6).
RECOVERY_POPULATION = dict(
    n_users=6, vocab_size=48, samples_per_user=2500, prompt_pool_size=20, seq_len=5
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


class RunPool:
    """Caches populations and training runs shared across criteria.

    A run's key is (lam, method, alpha, seed, history_fraction, delta_mode);
    :meth:`train` trains every missing key of a list with one
    :func:`bfpo.trainer.run_many` call, which steps runs of one shape in
    lockstep, and :meth:`result` trains a missing key alone.
    """

    def __init__(self) -> None:
        self._populations: dict = {}
        self._runs: dict = {}
        self.all_metrics: list[dict] = []

    def population(self, lam: float, seed: int):
        key = (lam, seed)
        if key not in self._populations:
            spec = PopulationSpec(overlap_lambda=lam, seed=seed, **DIRECTIONAL_POPULATION)
            self._populations[key] = (spec, generate_population(spec))
        return self._populations[key]

    @staticmethod
    def key(lam: float, method: str, alpha, seed: int,
            history_fraction: float = 1.0, delta_mode: str = "ema") -> tuple:
        return (lam, method, alpha, seed, history_fraction, delta_mode)

    def train(self, keys) -> None:
        """Train every key of ``keys`` not pooled yet with one ``run_many``."""
        missing = [k for k in dict.fromkeys(self.key(*k) for k in keys) if k not in self._runs]
        if not missing:
            return
        jobs = []
        for lam, method, alpha, seed, history_fraction, delta_mode in missing:
            spec, population = self.population(lam, seed)
            dataset = build_user_dataset(
                population, "u000", DIRECTIONAL_RATIO, "random", seed, spec.vocab_size
            )
            if history_fraction < 1.0:
                dataset = truncate_history(dataset, history_fraction)
            config = TrainConfig(
                method=Method(method), alpha=alpha, seed=seed,
                delta_mode=delta_mode, **DIRECTIONAL_TRAIN,
            )
            jobs.append((population, dataset, config))
        vocab = DIRECTIONAL_POPULATION["vocab_size"]
        results = run_many([d for _, d, _ in jobs], [c for _, _, c in jobs], vocab)
        for key, (population, dataset, config), result in zip(missing, jobs, results):
            self._runs[key] = evaluate_policy(
                result.policy, result.reference, population, "u000",
                dataset.aux_user_ids, beta=config.beta, method=config.method.value,
            )
            self.all_metrics.extend(result.metrics)

    def result(self, *key, **kw):
        key = self.key(*key, **kw)
        self.train([key])
        return self._runs[key]


@pytest.fixture(scope="module")
def pool() -> RunPool:
    return RunPool()


class TestCriterion1Reduction:
    def test_reduction_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            pos = rng.normal(0, 2, int(rng.integers(1, 9))).tolist()
            aux = rng.normal(0, 2, int(rng.integers(1, 9))).tolist()
            delta = float(rng.normal(0, 1))
            gap = abs(
                binary_loss(Method.CBPO, pos, aux, delta, LossConfig(alpha=0.0)).total
                - binary_loss(Method.BCO, pos, aux, delta, LossConfig()).total
            )
            worst = max(worst, gap)

        spec, pop = small_population(0.5, seed=0, samples_per_user=40)
        ds = build_user_dataset(pop, "u000", 1.0, "random", 0, spec.vocab_size)
        trajectories = {}
        for method in ("bco", "cbpo"):
            config = TrainConfig(
                method=Method(method), alpha=0.0, seed=9, epochs=3,
                context_size=4, learning_rate=0.2, beta=0.1, warmstart_epochs=1,
            )
            trajectories[method] = run(ds, config, spec.vocab_size)
        identical = bool(
            np.array_equal(
                trajectories["bco"].policy.logits, trajectories["cbpo"].policy.logits
            )
        )
        per_step = all(
            ra["total"] == rb["total"] and ra["delta"] == rb["delta"]
            for ra, rb in zip(
                trajectories["bco"].metrics, trajectories["cbpo"].metrics
            )
        )
        elapsed = time.time() - start
        _report(
            1,
            worst < 1e-12 and identical and per_step and elapsed < 60,
            f"max |cbpo(alpha=0) - bco| = {worst:.2e}; trajectories bit-identical = "
            f"{identical and per_step}; runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion2Gradients:
    def test_finite_difference_all_methods(self):
        start = time.time()
        worst = {}
        for method in Method:
            result = run_gradient_fd_check(method, seed=3)
            worst[method.value] = result.details["worst_relative_error"]
        elapsed = time.time() - start
        overall = max(worst.values())
        _report(
            2,
            overall < 1e-4 and elapsed < 120,
            f"worst relative error {overall:.2e} over 50 cases x 6 methods "
            f"(tolerance 1e-4); runtime {elapsed:.1f}s (< 120s)",
        )


class TestCriterion3PuUnbiasedness:
    def test_monte_carlo_and_rate(self):
        start = time.time()
        unbiased = run_unbiasedness_check(seed=0)
        rate = run_convergence_check(seed=1)
        elapsed = time.time() - start
        _report(
            3,
            unbiased.passed and rate.passed and elapsed < 120,
            f"deviation {unbiased.details['deviation_in_se']:.2f} SE (< 4); "
            f"log-log slope {rate.details['slope']:.3f} (-0.5 +/- 0.1); "
            f"runtime {elapsed:.1f}s (< 120s)",
        )


class TestCriterion5EmaInvariance:
    def test_batch_composition(self):
        result = run_ema_invariance_check()
        _report(
            5,
            result.passed,
            f"converged anchor spread {result.details['delta_spread']:.2e} (< 1e-9); "
            f"joint-mean gap error {result.details['worst_joint_gap_error']:.2e} (< 1e-9)",
        )


class TestCriterion6AlphaRecovery:
    def test_overlap_recovery(self):
        start = time.time()
        levels = (0.2, 0.5, 0.8)
        means = []
        for lam in levels:
            estimates = []
            for seed in SEEDS:
                spec = PopulationSpec(overlap_lambda=lam, seed=seed, **RECOVERY_POPULATION)
                population = generate_population(spec)
                dataset = build_user_dataset(
                    population, "u000", 1.0, "random", seed, spec.vocab_size
                )
                est = run_alpha_estimation(
                    dataset.tar_train, dataset.aux_train, spec.vocab_size, seed=seed
                )
                estimates.append(est.alpha_hat)
            means.append(float(np.mean(estimates)))
        monotone = all(means[i] < means[i + 1] for i in range(len(means) - 1))
        max_err = max(abs(m - lam) for m, lam in zip(means, levels))
        elapsed = time.time() - start
        _report(
            6,
            monotone and max_err < 0.15 and elapsed < 180,
            f"alpha_hat means {[f'{m:.3f}' for m in means]} vs overlap {levels}; "
            f"monotone={monotone}; max |error| {max_err:.3f} (< 0.15); "
            f"runtime {elapsed:.1f}s (< 180s)",
        )


class TestCriterion7MethodOrdering:
    METHODS = (("sft", 0.0), ("bco", 0.0), ("cbpo", "estimate"))

    def test_high_overlap_ordering(self, pool):
        start = time.time()
        pool.train([(0.8, m, a, s) for m, a in self.METHODS for s in SEEDS])
        nll = {
            m: [pool.result(0.8, m, a, s).heldout_nll for s in SEEDS]
            for m, a in self.METHODS
        }
        wins = sum(
            1 for i in range(len(SEEDS))
            if nll["cbpo"][i] < nll["sft"][i] < nll["bco"][i]
        )
        elapsed = time.time() - start
        _report(
            7,
            wins >= 4 and elapsed < 900,
            f"overlap 0.8: cbpo < sft < bco in {wins}/5 seeds "
            f"(mean nll cbpo={np.mean(nll['cbpo']):.3f}, sft={np.mean(nll['sft']):.3f}, "
            f"bco={np.mean(nll['bco']):.3f}); runtime {elapsed:.0f}s (< 900s)",
        )

    def test_low_overlap_ordering(self, pool):
        start = time.time()
        pool.train([(0.2, m, a, s) for m, a in self.METHODS for s in SEEDS])
        nll = {
            m: [pool.result(0.2, m, a, s).heldout_nll for s in SEEDS]
            for m, a in self.METHODS
        }
        wins = sum(
            1 for i in range(len(SEEDS))
            if nll["cbpo"][i] <= nll["bco"][i] <= nll["sft"][i]
        )
        elapsed = time.time() - start
        _report(
            7,
            wins >= 4 and elapsed < 900,
            f"overlap 0.2: cbpo <= bco <= sft in {wins}/5 seeds "
            f"(mean nll cbpo={np.mean(nll['cbpo']):.3f}, bco={np.mean(nll['bco']):.3f}, "
            f"sft={np.mean(nll['sft']):.3f}); runtime {elapsed:.0f}s (< 900s)",
        )


class TestCriterion8AlphaSweep:
    def test_optimal_alpha_tracks_overlap(self, pool):
        grid = (0.0, 0.25, 0.5, 0.75)
        levels = (0.2, 0.5, 0.8)
        pool.train([(lam, "cbpo", a, s) for lam in levels for a in grid for s in SEEDS])
        optima = []
        for lam in levels:
            means = [
                float(np.mean([
                    pool.result(lam, "cbpo", a, s).heldout_nll for s in SEEDS
                ]))
                for a in grid
            ]
            optima.append(grid[int(np.argmin(means))])
        non_decreasing = all(optima[i] <= optima[i + 1] for i in range(len(optima) - 1))
        _report(
            8,
            non_decreasing,
            f"NLL-optimal alpha per overlap {levels} = {optima} (non-decreasing)",
        )


class TestCriterion9SharedPreferenceErosion:
    def test_delta_logp_protection(self, pool):
        pool.train([(0.8, m, a, s) for m, a in (("bco", 0.0), ("cbpo", "estimate"))
                    for s in SEEDS])
        dlp = {
            m: [pool.result(0.8, m, a, s).delta_logp_aux for s in SEEDS]
            for m, a in (("bco", 0.0), ("cbpo", "estimate"))
        }
        wins = sum(1 for i in range(len(SEEDS)) if dlp["cbpo"][i] > dlp["bco"][i])
        _report(
            9,
            wins == 5,
            f"overlap 0.8: delta_logp(cbpo) > delta_logp(bco) in {wins}/5 seeds "
            f"(means {np.mean(dlp['cbpo']):.3f} vs {np.mean(dlp['bco']):.3f})",
        )


class TestCriterion10EmaUnderImbalance:
    def test_truncated_history_imbalance(self, pool):
        pool.train([(0.8, "cbpo", "estimate", s, 0.25, mode)
                    for mode in ("ema", "batch") for s in SEEDS])
        nll = {
            mode: [
                pool.result(0.8, "cbpo", "estimate", s,
                            history_fraction=0.25, delta_mode=mode).heldout_nll
                for s in SEEDS
            ]
            for mode in ("ema", "batch")
        }
        wins = sum(1 for i in range(len(SEEDS)) if nll["ema"][i] < nll["batch"][i])
        _report(
            10,
            wins >= 4,
            f"history 0.25, ratio 1.5: nll(ema) < nll(batch) in {wins}/5 seeds "
            f"(means {np.mean(nll['ema']):.3f} vs {np.mean(nll['batch']):.3f})",
        )


class TestCriterion11Reproducibility:
    def test_pipeline_bytes(self, tmp_path):
        def pipeline(tag: str) -> dict[str, bytes]:
            base = tmp_path / tag
            gen_cfg = base / "gen.json"
            base.mkdir()
            gen_cfg.write_text(json.dumps({
                "schema_version": 1, "seed": 17, "out_dir": str(base / "corpus"),
                "population": {"n_users": 6, "vocab_size": 24, "overlap_lambda": 0.5,
                               "samples_per_user": 24, "prompt_pool_size": 8,
                               "seq_len": 5},
            }))
            train_cfg = base / "train.json"
            train_cfg.write_text(json.dumps({
                "schema_version": 1, "seed": 17, "out_dir": str(base / "run"),
                "corpus_dir": str(base / "corpus"),
                "dataset": {"target_user": "u000", "ratio_x": 1.0,
                            "grouping": "random"},
                "train": {"method": "cbpo", "epochs": 2, "batch_size_pos": 4,
                          "learning_rate": 0.1, "beta": 0.1, "alpha": "estimate",
                          "context_size": 4, "warmstart_epochs": 1},
            }))
            assert main(["generate", "--config", str(gen_cfg)]) == 0
            assert main(["train", "--config", str(train_cfg)]) == 0
            assert main([
                "evaluate", "--checkpoint", str(base / "run" / "checkpoint.json"),
                "--corpus", str(base / "corpus"), "--out", str(base / "eval"),
            ]) == 0
            return {
                "corpus": (base / "corpus" / "corpus.jsonl").read_bytes(),
                "spec": (base / "corpus" / "population_spec.json").read_bytes(),
                "checkpoint": (base / "run" / "checkpoint.json").read_bytes(),
                "metrics": (base / "run" / "metrics.csv").read_bytes(),
                "alpha": (base / "run" / "alpha_estimate.json").read_bytes(),
                "report": (base / "eval" / "eval_report.json").read_bytes(),
            }

        first = pipeline("first")
        second = pipeline("second")
        identical = {name: first[name] == second[name] for name in first}
        _report(
            11,
            all(identical.values()),
            "generate->train->evaluate byte-identical across two runs: "
            + ", ".join(f"{k}={v}" for k, v in identical.items()),
        )


class TestCriterion4ClampNecessity:
    """Runs last so the training-step scan covers every pooled run above."""

    def test_negative_exposure_and_training_clamp(self, pool):
        exposure = run_clamp_check(seed=4)
        pool.result(0.8, "cbpo", "estimate", 0)  # ensure at least one run
        rows = pool.all_metrics
        violations = sum(1 for r in rows if r["pure_neg_clamped"] < 0.0)
        _report(
            4,
            exposure.passed and violations == 0 and len(rows) > 0,
            f"negative raw frequency {exposure.details['negative_raw_frequency']:.1%} "
            f"(> 1%) at n=10; clamped term >= 0 in {len(rows) - violations}/{len(rows)} "
            "logged training steps across all experiment runs",
        )
