"""Held-out metrics: exact zero cases, symmetry, determinism."""

from __future__ import annotations

import json

import pytest

from bfpo.datagen import build_user_dataset
from bfpo.errors import InputError
from bfpo.evaluation import evaluate_policy
from bfpo.losses import Method
from bfpo.policy import snapshot_reference, uniform_params
from bfpo.trainer import TrainConfig, run

from conftest import random_params, small_population
from oracles import sft_loss


class TestWarmStartBaseline:
    def test_delta_logp_exactly_zero_for_identical_policies(self, rng):
        spec, pop = small_population(0.5, seed=0)
        policy = random_params(rng, spec.vocab_size, 4)
        report = evaluate_policy(
            policy,
            snapshot_reference(policy),
            pop,
            "u000",
            ["u001", "u002"],
            beta=0.1,
        )
        assert report.delta_logp_aux == 0.0

    def test_pref_acc_exactly_half_for_identical_policies(self):
        """All rewards are zero, so every pair ties and ties count one half."""
        spec, pop = small_population(0.5, seed=1)
        policy = uniform_params(spec.vocab_size, 4)
        report = evaluate_policy(
            policy, snapshot_reference(policy), pop, "u000", ["u001"], beta=0.1
        )
        assert report.pref_acc == 0.5

    def test_pref_acc_near_half_on_symmetric_data(self, rng):
        """A randomly perturbed policy on full-overlap data: no systematic
        preference for the target side over at least 2000 pairs."""
        spec, pop = small_population(
            1.0, seed=2, n_users=6, samples_per_user=120, vocab=24
        )
        policy = uniform_params(spec.vocab_size, 4)
        reference = snapshot_reference(policy)
        policy.logits += rng.normal(0, 0.5, policy.logits.shape)
        report = evaluate_policy(
            policy, reference, pop, "u000",
            [f"u00{i}" for i in range(1, 6)], beta=0.1,
        )
        assert report.n_pairs >= 2000
        assert abs(report.pref_acc - 0.5) < 0.05


class TestReportContents:
    def test_heldout_nll_matches_sft_loss(self, rng):
        spec, pop = small_population(0.5, seed=3)
        policy = random_params(rng, spec.vocab_size, 4)
        report = evaluate_policy(
            policy, snapshot_reference(policy), pop, "u000", ["u001"], beta=0.1
        )
        heldout = [s for s in pop["u000"] if s.split == "heldout"]
        assert report.heldout_nll == sft_loss(policy, heldout)

    def test_counts(self):
        spec, pop = small_population(0.5, seed=4, samples_per_user=20)
        policy = uniform_params(spec.vocab_size, 4)
        report = evaluate_policy(
            policy, snapshot_reference(policy), pop, "u000", ["u001", "u002"], beta=0.1
        )
        assert report.n_tar_heldout == 4
        assert report.n_aux_heldout == 8
        assert report.n_pairs == 32

    def test_missing_users_rejected(self):
        spec, pop = small_population(0.5, seed=5)
        policy = uniform_params(spec.vocab_size, 4)
        with pytest.raises(InputError):
            evaluate_policy(policy, policy, pop, "ghost", ["u001"], beta=0.1)
        with pytest.raises(InputError):
            evaluate_policy(policy, policy, pop, "u000", ["ghost"], beta=0.1)


class TestDeterminism:
    def test_repeated_evaluation_identical(self):
        spec, pop = small_population(0.5, seed=6)
        ds = build_user_dataset(pop, "u000", 1.0, "random", 6, spec.vocab_size)
        config = TrainConfig(
            method=Method.CBPO, epochs=2, alpha=0.3, seed=6,
            context_size=4, warmstart_epochs=1, learning_rate=0.1,
        )
        result = run(ds, config, spec.vocab_size)
        reports = [
            evaluate_policy(
                result.policy, result.reference, pop, "u000",
                ds.aux_user_ids, beta=config.beta,
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert json.dumps(reports[0].to_dict(), sort_keys=True) == json.dumps(
            reports[1].to_dict(), sort_keys=True
        )

    def test_trained_policy_prefers_target(self):
        """After personalization on a low-overlap population, held-out target
        samples should outrank auxiliary ones most of the time."""
        spec, pop = small_population(0.2, seed=7, samples_per_user=60)
        ds = build_user_dataset(pop, "u000", 1.0, "random", 7, spec.vocab_size)
        config = TrainConfig(
            method=Method.BCO, epochs=3, alpha=0.0, seed=7,
            context_size=4, warmstart_epochs=1, learning_rate=0.2, beta=0.1,
        )
        result = run(ds, config, spec.vocab_size)
        report = evaluate_policy(
            result.policy, result.reference, pop, "u000",
            ds.aux_user_ids, beta=config.beta,
        )
        assert report.pref_acc > 0.9
