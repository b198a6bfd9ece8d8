"""Optimization loop: batching, determinism, descent, persistence, aborts."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from bfpo.datagen import UserDataset, build_user_dataset, truncate_history
from bfpo.errors import ConfigError, InputError, NumericError
from bfpo.losses import Batch, DpoPair, Method, Stack, encode_batch, score
from bfpo.policy import (
    Encoded,
    Sample,
    bucket,
    encode,
    ordered_sum,
    sample_completion,
    snapshot_reference,
    stack_codes,
    uniform_params,
)
from bfpo.rewards import ReferenceState
from bfpo.trainer import (
    AdamState,
    METRICS_COLUMNS,
    RunState,
    TrainConfig,
    load_checkpoint,
    make_batches,
    run,
    run_many,
    save_checkpoint,
    stack_batches,
    synth_dpo_pairs,
    train_step,
)

from conftest import random_params, small_population


def _dataset(lam=0.5, seed=0, ratio=1.0, **kw):
    spec, pop = small_population(lam, seed, **kw)
    return spec, build_user_dataset(pop, "u000", ratio, "random", seed, spec.vocab_size)


def _hash(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _codes(ds, cfg, vocab):
    """The trainer's once-per-run encoding: target then auxiliary samples."""
    return encode(((s.x, s.y) for s in ds.tar_train + ds.aux_train), cfg.context_size, vocab)


def _assert_encodes(piece, pairs, context, vocab):
    direct = encode(pairs, context, vocab)
    for name in ("rows", "tokens", "cells", "seq", "starts", "lengths"):
        np.testing.assert_array_equal(getattr(piece, name), getattr(direct, name))


def _run_pieces(stack, context, vocab):
    """Each run's part of a stack's encoding, its row offset taken off."""
    pieces = stack.codes.split(stack.layout.sizes.tolist())
    return [
        Encoded(p.rows - r * context, p.tokens, p.cells - r * context * vocab, p.seq,
                p.starts, p.lengths)
        for r, p in enumerate(pieces)
    ]


def _named_sequences(method, batch):
    pos, aux = batch.samples()
    if method is Method.DPO:
        return [(p.x, p.y_w) for p in pos] + [(p.x, p.y_l) for p in pos]
    return [(s.x, s.y) for s in pos + aux]


class TestMakeBatches:
    def test_batch_count(self):
        spec, ds = _dataset(samples_per_user=12)  # 10 train samples per side
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, alpha=0.0)
        batches = make_batches(ds, cfg, 0)
        assert len(batches) == 5

    def test_fixed_per_batch_ratio(self):
        spec, ds = _dataset(samples_per_user=12)
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, batch_size_aux=3, alpha=0.0)
        for batch in make_batches(ds, cfg, 1):
            assert len(batch.aux) == 3

    def test_epoch_seed_determinism(self):
        spec, ds = _dataset()
        cfg = TrainConfig(method=Method.CBPO, batch_size_pos=4, alpha=0.0)
        codes = _codes(ds, cfg, spec.vocab_size)
        a = make_batches(ds, cfg, 42)
        b = make_batches(ds, cfg, 42)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.pos.tolist() == y.pos.tolist() and x.aux.tolist() == y.aux.tolist()
            assert x.samples() == y.samples()
        stacks = [stack_batches(cfg.method, [e], codes, [0]) for e in (a, b)]
        for x, y in zip(*stacks):
            np.testing.assert_array_equal(x.codes.cells, y.codes.cells)

    def test_dpo_without_pairs_is_config_error(self):
        spec, ds = _dataset()
        cfg = TrainConfig(method=Method.DPO, alpha=0.0)
        with pytest.raises(ConfigError):
            make_batches(ds, cfg, 0)

    def test_aux_cycles_when_short(self):
        spec, ds = _dataset(samples_per_user=12, ratio=0.5)
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, batch_size_aux=4, alpha=0.0)
        batches = make_batches(ds, cfg, 0)
        assert all(len(b.aux) == 4 for b in batches)
        # The auxiliary side runs through one permutation, then starts it again.
        n_aux = len(ds.aux_train)
        cycle = np.concatenate([b.aux for b in batches])
        assert len(cycle) > n_aux
        assert sorted(cycle[:n_aux].tolist()) == list(range(n_aux))
        np.testing.assert_array_equal(cycle, cycle[np.arange(len(cycle)) % n_aux])
        codes = _codes(ds, cfg, spec.vocab_size)
        for b, stack in zip(batches, stack_batches(cfg.method, [batches], codes, [0])):
            _assert_encodes(
                stack.codes, _named_sequences(cfg.method, b), cfg.context_size, spec.vocab_size
            )

    def test_unequal_epochs_cannot_stack(self):
        spec, ds = _dataset(samples_per_user=12)
        cfg = TrainConfig(method=Method.SFT, batch_size_pos=2, alpha=0.0)
        short = TrainConfig(method=Method.SFT, batch_size_pos=5, alpha=0.0)
        codes = _codes(ds, cfg, spec.vocab_size)
        with pytest.raises(ConfigError, match="same number of batches"):
            stack_batches(Method.SFT, [make_batches(ds, cfg, 0), make_batches(ds, short, 0)],
                        stack_codes([codes, codes], cfg.context_size, spec.vocab_size),
                        [0, codes.n])

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("bs_pos, bs_aux, ratio", [(3, None, 1.0), (4, 7, 0.5), (64, 2, 2.0)])
    def test_slices_encode_the_named_samples(self, method, bs_pos, bs_aux, ratio):
        """Each run's part of a step's stacked encoding equals encoding the
        samples (or pairs) its batch names, offset to the run's rows, and the
        positive side is one permutation of the target samples (of the pairs,
        for DPO).  The two runs differ in their auxiliary pools, so their
        auxiliary batches differ in size unless fixed."""
        vocab, context = 24, 5
        runs = []
        for r, run_ratio in enumerate((ratio, 2 * ratio)):
            spec, ds = _dataset(ratio=run_ratio)
            cfg = TrainConfig(method=method, batch_size_pos=bs_pos, batch_size_aux=bs_aux,
                              alpha=0.0, context_size=context)
            pairs = None
            codes = _codes(ds, cfg, vocab)
            if method is Method.DPO:
                pairs, _ = synth_dpo_pairs(ds, uniform_params(vocab, context), seed=2)
                pairs = pairs[: len(pairs) - r]  # a different pair count per run
                codes = encode_batch(Batch.of(pairs=pairs), Method.DPO, context, vocab)
            runs.append((ds, cfg, pairs, codes, make_batches(ds, cfg, 7 + r, pairs)))
        assert len(runs[0][4]) == len(runs[1][4])
        stacked = stack_codes([r[3] for r in runs], context, vocab)
        stacks = stack_batches(method, [r[4] for r in runs], stacked, [0, runs[0][3].n])
        binary = method not in (Method.SFT, Method.DPO)
        for r, (ds, cfg, pairs, _, batches) in enumerate(runs):
            n_pos = len(pairs) if pairs is not None else len(ds.tar_train)
            n_aux = cfg.resolved_aux_batch(ds.ratio_x) if binary else 0
            assert sorted(np.concatenate([b.pos for b in batches]).tolist()) == list(range(n_pos))
            for b, stack in zip(batches, stacks):
                assert stack.batches[r] is b
                assert len(b.aux) == n_aux
                _assert_encodes(_run_pieces(stack, context, vocab)[r],
                                _named_sequences(method, b), context, vocab)


class TestTrainStep:
    def _state(self, method=Method.BCO, lr=0.05, vocab=6, **cfg_kw):
        config = TrainConfig(method=method, learning_rate=lr, alpha=0.0, **cfg_kw)
        policy = uniform_params(vocab, config.context_size)
        return RunState(
            policy=policy,
            reference=snapshot_reference(policy),
            opt=AdamState.zeros(policy.logits.shape),
            config=config,
            alphas=[0.0],
            total_steps=10,
        )

    @staticmethod
    def _stack(state, batch):
        return Stack.of(state.config.method, batch, state.config.context_size,
                        state.policy.vocab_size)

    def test_null_step_at_zero_lr(self):
        state = self._state(lr=0.0)
        before = state.policy.logits.copy()
        batch = Batch.of(pos=[Sample("u", (0,), (1, 2))], aux=[Sample("v", (1,), (3,))])
        _, (breakdown,) = train_step(state, self._stack(state, batch))
        np.testing.assert_array_equal(state.policy.logits, before)
        assert math.isfinite(breakdown.total)

    def test_single_step_descends_positive_loss(self):
        """With the reward below the anchor, one small step lowers the
        positive-label loss of that sample."""
        from bfpo.losses import loss_positive
        from bfpo.rewards import RewardConfig, implicit_reward

        state = self._state(method=Method.CBPO, lr=0.01)
        # Pre-seeded EMA keeps the anchor above the (zero) initial rewards.
        state.ema = [ReferenceState(ema_pos=1.0, ema_aux=1.0, decay=0.99, initialized=True)]
        sample = Sample("u", (0,), (1, 1))
        batch = Batch.of(pos=[sample], aux=[Sample("v", (0,), (2,))])
        rcfg = RewardConfig(beta=state.config.beta)

        def pos_loss():
            r = implicit_reward(state.policy, state.reference, rcfg, sample.x, sample.y)
            return loss_positive(r, state.last_delta[0])

        train_step(state, self._stack(state, batch))
        after_first = pos_loss()
        assert after_first < loss_positive(0.0, state.last_delta[0])

    def test_ema_updated_before_delta_read(self):
        state = self._state(method=Method.BCO)
        batch = Batch.of(pos=[Sample("u", (0,), (1,))], aux=[Sample("v", (0,), (2,))])
        train_step(state, self._stack(state, batch))
        # First step: policy == reference, so rewards are zero and the seeded
        # EMA makes the anchor exactly zero.
        assert state.ema[0].initialized
        assert state.last_delta == [0.0]

    def test_ema_batch_means_add_left_to_right(self):
        """The EMA is seeded with left-to-right batch means; numpy's pairwise
        sum reorders a batch of 8 or more and differs here."""
        rng = np.random.default_rng(7)
        config = TrainConfig(method=Method.BCO, alpha=0.0, beta=1.0, context_size=4)
        reference = random_params(rng, 6, config.context_size)

        def samples(user):
            return [Sample(user, (int(rng.integers(6)),), tuple(rng.integers(6, size=3).tolist()))
                    for _ in range(24)]

        batch = Stack.of(Method.BCO, Batch.of(pos=samples("u"), aux=samples("v")), 4, 6)
        state = RunState(
            policy=random_params(rng, 6, config.context_size), reference=reference,
            opt=AdamState.zeros((4, 6)), config=config, alphas=[0.0], total_steps=1,
        )
        rewards = score(Method.BCO, batch, state.policy, state.reference_log_table, 1.0).rewards
        pos_r, aux_r = rewards[:24], rewards[24:]
        train_step(state, batch)
        assert (state.ema[0].ema_pos, state.ema[0].ema_aux) == (
            ordered_sum(pos_r) / 24, ordered_sum(aux_r) / 24
        )
        assert (float(np.sum(pos_r)), float(np.sum(aux_r))) != (
            ordered_sum(pos_r), ordered_sum(aux_r)
        )

    def test_non_finite_loss_aborts_with_dump(self):
        state = self._state()
        state.policy.logits[0, 0] = 1.0  # make it mutable sanity
        state.policy.logits[:] = np.nan
        batch = Batch.of(pos=[Sample("u", (0,), (1,))], aux=[Sample("v", (0,), (2,))])
        with pytest.raises(NumericError) as err:
            train_step(state, self._stack(state, batch))
        assert err.value.details is not None
        assert err.value.details["pos"][0]["user_id"] == "u"


def _synth_with_sample_completion(ds, policy, seed, budget):
    """The per-token reference: one ``sample_completion`` per candidate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    pairs, skipped = [], 0
    for s in ds.tar_train:
        for _ in range(budget):
            candidate = sample_completion(policy, s.x, len(s.y), rng)
            if candidate != s.y:
                pairs.append(DpoPair(x=s.x, y_w=s.y, y_l=candidate))
                break
        else:
            skipped += 1
    return pairs, skipped, rng


def _synth_with_generator(monkeypatch, ds, policy, seed, budget):
    """synth_dpo_pairs, plus the generator it drew from."""
    made = []
    real = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda *a: made.append(real(*a)) or made[-1])
        pairs, skipped = synth_dpo_pairs(ds, policy, seed, budget)
    (rng,) = made
    return pairs, skipped, rng


class TestSynthDpoPairs:
    @pytest.mark.parametrize("case", range(12))
    def test_one_table_sampling_equals_sample_completion(self, monkeypatch, case):
        """The same pairs, skipped count and generator state afterwards as one
        sample_completion per candidate, on sharp and flat policies where
        rejections, repeats of y_w and exhausted budgets all happen."""
        rng = np.random.default_rng(case)
        vocab, context = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        policy = uniform_params(vocab, context)
        policy.logits[:] = rng.normal(0.0, [0.0, 1.0, 4.0, 30.0][case % 4], (context, vocab))
        samples = [
            Sample("t", tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(0, 3)))),
                   tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, 4)))))
            for _ in range(40)
        ]
        ds = UserDataset(target_user="t", h_tar=samples, h_aux=[], ratio_x=1.0)
        budget = int(rng.integers(1, 4))
        want_pairs, want_skipped, want_rng = _synth_with_sample_completion(
            ds, policy, case, budget
        )
        pairs, skipped, got_rng = _synth_with_generator(monkeypatch, ds, policy, case, budget)
        assert pairs == want_pairs
        assert skipped == want_skipped
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_deterministic_policy_skips_everything(self, monkeypatch):
        shared = Sample("t", (0,), (1, 2))
        ds = UserDataset(
            target_user="t",
            h_tar=[shared] * 6,
            h_aux=[Sample("o", (0,), (3,))] * 6,
            ratio_x=1.0,
        )
        policy = uniform_params(4, 4)
        for t, tok in enumerate(shared.y):
            policy.logits[bucket(shared.x, t, 4), :] = 0.0
            policy.logits[bucket(shared.x, t, 4), tok] = 60.0
        pairs, skipped = synth_dpo_pairs(ds, policy, seed=0, budget=8)
        assert pairs == []
        assert skipped == 6
        want = _synth_with_sample_completion(ds, policy, 0, 8)
        got = _synth_with_generator(monkeypatch, ds, policy, 0, 8)
        assert got[:2] == want[:2]
        assert got[2].bit_generator.state == want[2].bit_generator.state

    def test_uniform_policy_collision_rate(self):
        """vocab 4, |y| = 2: a draw collides with y_w at rate 1/16."""
        rng = np.random.default_rng(0)
        n = 4096
        pop = {
            "t": [Sample("t", (0,), tuple(int(v) for v in rng.integers(0, 4, 2)))
                  for _ in range(n)],
            "o": [Sample("o", (0,), tuple(int(v) for v in rng.integers(0, 4, 2)))
                  for _ in range(n)],
        }
        ds = UserDataset(target_user="t", h_tar=pop["t"], h_aux=pop["o"], ratio_x=1.0)
        policy = uniform_params(4, 2)
        _, skipped = synth_dpo_pairs(ds, policy, seed=1, budget=1)
        rate = skipped / n
        sigma = math.sqrt((1 / 16) * (15 / 16) / n)
        assert abs(rate - 1 / 16) < 4 * sigma

    def test_seed_determinism(self):
        spec, ds = _dataset(samples_per_user=10)
        policy = uniform_params(spec.vocab_size, 4)
        a, _ = synth_dpo_pairs(ds, policy, seed=3)
        b, _ = synth_dpo_pairs(ds, policy, seed=3)
        assert a == b


class TestRun:
    def _config(self, **kw):
        base = dict(
            method=Method.CBPO,
            epochs=2,
            batch_size_pos=4,
            learning_rate=0.1,
            beta=0.1,
            alpha=0.3,
            seed=11,
            warmstart_epochs=1,
            context_size=4,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_reproducible_end_to_end(self):
        spec, ds = _dataset()
        a = run(ds, self._config(), spec.vocab_size)
        b = run(ds, self._config(), spec.vocab_size)
        np.testing.assert_array_equal(a.policy.logits, b.policy.logits)
        assert a.metrics == b.metrics

    def test_metrics_shape(self):
        spec, ds = _dataset(samples_per_user=12)  # 10 train
        result = run(ds, self._config(epochs=3, batch_size_pos=2), spec.vocab_size)
        assert len(result.metrics) == 3 * 5
        assert list(result.metrics[0]) == list(METRICS_COLUMNS)

    def test_first_step_delta_zero(self):
        spec, ds = _dataset()
        result = run(ds, self._config(), spec.vocab_size)
        assert result.metrics[0]["delta"] == 0.0

    def test_reference_is_method_independent(self):
        """The frozen reference only depends on the warm start, not the method."""
        spec, ds = _dataset()
        ref_hashes = set()
        for method in (Method.SFT, Method.BCO, Method.CBPO):
            result = run(ds, self._config(method=method, alpha=0.0), spec.vocab_size)
            ref_hashes.add(_hash(result.reference.logits))
        assert len(ref_hashes) == 1

    def test_cbpo_alpha_zero_matches_bco_trajectory(self):
        spec, ds = _dataset()
        a = run(ds, self._config(method=Method.BCO, alpha=0.0), spec.vocab_size)
        b = run(ds, self._config(method=Method.CBPO, alpha=0.0), spec.vocab_size)
        np.testing.assert_array_equal(a.policy.logits, b.policy.logits)
        for ra, rb in zip(a.metrics, b.metrics):
            for col in METRICS_COLUMNS:
                if col != "method":
                    assert ra[col] == rb[col]

    def test_warm_start_is_sft_through_train_step(self, monkeypatch):
        """The warm start is the SFT method with the auxiliary pool as its
        target history, at the warm-start lr, stepped by ``train_step``."""
        import bfpo.trainer as trainer_mod

        seen = []
        step = trainer_mod.train_step

        def spy(state, batch):
            seen.append((state.config, state.total_steps, batch.batches[0].samples()))
            return step(state, batch)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        spec, ds = _dataset()
        result = run(ds, self._config(warmstart_epochs=2, warmstart_lr=0.05), spec.vocab_size)
        per_epoch = math.ceil(len(ds.aux_train) / 4)
        warm, method = seen[: 2 * per_epoch], seen[2 * per_epoch :]
        assert len(method) == len(result.metrics)
        for config, total, (_, aux) in warm:
            assert (config.method, config.learning_rate, config.epochs) == (Method.SFT, 0.05, 2)
            assert total == 2 * per_epoch and aux == []
        # Each warm-start epoch visits every auxiliary sample once.
        for epoch in range(2):
            steps = warm[epoch * per_epoch : (epoch + 1) * per_epoch]
            visited = [s for _, _, (pos, _) in steps for s in pos]
            assert sorted(map(repr, visited)) == sorted(map(repr, ds.aux_train))
        assert all(c.method is Method.CBPO and c.learning_rate == 0.1 for c, _, _ in method)

    def test_empty_warm_start_pool(self):
        spec, ds = _dataset()
        no_aux = UserDataset(ds.target_user, ds.h_tar, [], ds.ratio_x)
        with pytest.raises(InputError, match="warm-start sample pool is empty"):
            run(no_aux, self._config(method=Method.SFT), spec.vocab_size)
        result = run(no_aux, self._config(method=Method.SFT, warmstart_epochs=0),
                     spec.vocab_size)
        np.testing.assert_array_equal(
            result.reference.logits, uniform_params(spec.vocab_size, 4).logits
        )

    def test_sft_method_runs_and_improves_target_fit(self):
        from bfpo.losses import sft_loss

        spec, ds = _dataset()
        result = run(ds, self._config(method=Method.SFT, epochs=3), spec.vocab_size)
        warm_nll = sft_loss(result.reference, ds.tar_train)
        final_nll = sft_loss(result.policy, ds.tar_train)
        assert final_nll < warm_nll

    def test_dpo_method_end_to_end(self):
        spec, ds = _dataset()
        result = run(ds, self._config(method=Method.DPO, epochs=1), spec.vocab_size)
        assert all(row["method"] == "dpo" for row in result.metrics)

    def test_kto_method_end_to_end(self):
        spec, ds = _dataset()
        result = run(ds, self._config(method=Method.KTO, epochs=1), spec.vocab_size)
        assert all(math.isfinite(row["total"]) for row in result.metrics)

    def test_alpha_estimation_hookup(self):
        spec, ds = _dataset()
        result = run(ds, self._config(alpha="estimate"), spec.vocab_size)
        assert result.alpha_estimate is not None
        assert 0.0 <= result.alpha_resolved <= 0.99
        assert result.alpha_resolved == result.alpha_estimate.alpha_hat

    def test_losses_all_finite(self):
        spec, ds = _dataset()
        result = run(ds, self._config(epochs=3), spec.vocab_size)
        for row in result.metrics:
            for col in METRICS_COLUMNS[3:]:
                assert math.isfinite(row[col])

    def test_clamped_term_never_negative(self):
        spec, ds = _dataset()
        result = run(ds, self._config(alpha=0.8, epochs=3), spec.vocab_size)
        assert all(row["pure_neg_clamped"] >= 0.0 for row in result.metrics)


class TestRunMany:
    """R runs in lockstep: each equals the same run trained alone, bit for bit."""

    @staticmethod
    def _runs(method):
        base = dict(method=method, epochs=2, batch_size_pos=4, learning_rate=0.1, beta=0.1,
                    context_size=4, warmstart_epochs=2, warmstart_lr=0.05,
                    alpha_estimator_epochs=10)
        spec, full0 = _dataset(seed=0)
        _, full1 = _dataset(seed=1)
        _, ragged = _dataset(seed=0, ratio=1.5)
        runs = [
            (full0, dict(seed=0, alpha=0.3)),
            (full1, dict(seed=1, alpha="estimate")),
            (ragged, dict(seed=2, alpha=0.5)),  # more auxiliaries per batch
            (truncate_history(full0, 0.75), dict(seed=3, alpha=0.1)),  # a short last batch
            (truncate_history(full1, 0.25), dict(seed=4, alpha=0.3)),
            (truncate_history(full0, 0.25), dict(seed=5, alpha="estimate")),
            (full0, dict(seed=6, alpha=0.3, warmstart_epochs=0)),
            (full1, dict(seed=7, alpha=0.2, warmstart_epochs=0)),
            (full0, dict(seed=8, alpha=0.3, delta_mode="batch")),
            (ragged, dict(seed=9, alpha="estimate", delta_mode="batch")),
            (full0, dict(seed=10, alpha=0.7)),
        ]
        return spec, [(ds, TrainConfig(**{**base, **kw})) for ds, kw in runs]

    @pytest.mark.parametrize("method", list(Method))
    def test_each_run_equals_run_alone(self, method, monkeypatch):
        import bfpo.trainer as trainer_mod

        spec, runs = self._runs(method)
        alone = [run(ds, cfg, spec.vocab_size) for ds, cfg in runs]
        widths = []
        step = trainer_mod.train_step

        def spy(state, batch):
            warm = state.config.learning_rate == 0.05
            widths.append(("warm" if warm else "method", len(batch.batches)))
            return step(state, batch)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        together = run_many([ds for ds, _ in runs], [cfg for _, cfg in runs], spec.vocab_size)
        for a, b in zip(alone, together):
            for name in ("policy", "reference"):
                assert getattr(a, name).logits.tobytes() == getattr(b, name).logits.tobytes()
            assert a.opt.m.tobytes() == b.opt.m.tobytes()
            assert a.opt.v.tobytes() == b.opt.v.tobytes()
            assert a.opt.t == b.opt.t
            assert repr(a.ema) == repr(b.ema)
            assert repr(a.metrics) == repr(b.metrics)
            assert a.alpha_resolved == b.alpha_resolved
            assert a.dpo_pairs_skipped == b.dpo_pairs_skipped
        if method is Method.DPO:
            # Runs 0 and 3 share a group (8 steps an epoch) with different pair counts.
            pairs = [len(ds.tar_train) - r.dpo_pairs_skipped for (ds, _), r in zip(runs, alone)]
            assert pairs[0] != pairs[3] and len(alone[0].metrics) == len(alone[3].metrics)
        # Both phases stepped several runs at once, in fewer steps than alone.
        assert max(w for phase, w in widths if phase == "warm") >= 3
        assert max(w for phase, w in widths if phase == "method") >= 3
        assert sum(w for phase, w in widths if phase == "method") == sum(
            len(r.metrics) for r in alone
        )
        assert len(widths) < sum(w for _, w in widths)

    def test_warm_start_stacks_across_unread_fields(self, monkeypatch):
        """Runs that differ in the method and in every field an SFT step does
        not read warm up as one stack, and each still equals its run alone."""
        import bfpo.trainer as trainer_mod

        spec, ds = _dataset()
        shared = dict(epochs=2, batch_size_pos=4, learning_rate=0.1, context_size=4,
                      momentum_params=(0.8, 0.99, 1e-7), weight_decay=0.02,
                      warmup_fraction=0.2, warmstart_epochs=2, warmstart_lr=0.05)
        varied = [
            dict(method=Method.CBPO, batch_size_aux=3, beta=0.2, alpha=0.3, ema_decay=0.8,
                 seed=1, pi_n=0.5, lambda_d=0.7, lambda_u=1.3, delta_mode="batch",
                 dpo_rejection_budget=4, alpha_estimator_epochs=5, alpha_estimator_lr=0.3),
            dict(method=Method.KTO, batch_size_aux=5, beta=0.3, alpha=0.5, ema_decay=0.95,
                 seed=2, pi_n=0.8, lambda_d=1.1, lambda_u=0.9, delta_mode="ema",
                 dpo_rejection_budget=8, alpha_estimator_epochs=7, alpha_estimator_lr=0.2),
            dict(method=Method.DPO, batch_size_aux=2, beta=0.05, alpha=0.1, ema_decay=0.7,
                 seed=3, pi_n=0.9, lambda_d=0.8, lambda_u=1.2, delta_mode="ema",
                 dpo_rejection_budget=2, alpha_estimator_epochs=9, alpha_estimator_lr=0.1),
        ]
        configs = [TrainConfig(**{**shared, **kw}) for kw in varied]
        # The warm start at learning_rate 0.05 reads warmstart_lr 0.05 or None.
        configs.append(replace(configs[0], seed=4, learning_rate=0.05, warmstart_lr=None))
        for name in trainer_mod._SFT_UNREAD:
            if name != "warmstart_epochs":  # it is the warm start's epochs
                assert len({repr(getattr(c, name)) for c in configs}) > 1, name
        alone = [run(ds, cfg, spec.vocab_size) for cfg in configs]
        widths = []
        step = trainer_mod.train_step

        def spy(state, batch):
            widths.append((state.config.method, len(batch.batches)))
            return step(state, batch)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        together = run_many([ds] * len(configs), configs, spec.vocab_size)
        assert {w for method, w in widths if method is Method.SFT} == {len(configs)}
        for a, b in zip(alone, together):
            assert a.reference.logits.tobytes() == b.reference.logits.tobytes()
            assert a.policy.logits.tobytes() == b.policy.logits.tobytes()
            assert repr(a.metrics) == repr(b.metrics)

    def test_run_is_run_many_of_one(self):
        spec, runs = self._runs(Method.CBPO)
        ds, cfg = runs[1]
        (many,) = run_many([ds], [cfg], spec.vocab_size)
        one = run(ds, cfg, spec.vocab_size)
        assert repr(one.metrics) == repr(many.metrics)
        assert one.policy.logits.tobytes() == many.policy.logits.tobytes()

    def test_runs_and_configs_must_pair_up(self):
        spec, runs = self._runs(Method.BCO)
        with pytest.raises(ConfigError):
            run_many([runs[0][0]], [], spec.vocab_size)

    def test_stack_size_is_bounded(self, monkeypatch):
        """A group wider than STACK_CELLS allows trains as several stacks."""
        import bfpo.trainer as trainer_mod

        spec, runs = self._runs(Method.BCO)
        runs = [(ds, cfg) for ds, cfg in runs[:2]] * 3
        monkeypatch.setattr(trainer_mod, "STACK_CELLS", 2 * 4 * spec.vocab_size)
        widths = []
        step = trainer_mod.train_step

        def spy(state, batch):
            widths.append(len(batch.batches))
            return step(state, batch)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        results = run_many([ds for ds, _ in runs], [cfg for _, cfg in runs], spec.vocab_size)
        assert max(widths) == 2
        assert repr(results[0].metrics) == repr(results[2].metrics)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(alpha="auto")
        with pytest.raises(ConfigError):
            TrainConfig(delta_mode="average")
        with pytest.raises(ConfigError):
            TrainConfig(ema_decay=0.0)

    def test_negative_warmstart_lr_rejected(self):
        with pytest.raises(ConfigError, match="warmstart_lr"):
            TrainConfig(warmstart_lr=-0.05)
        assert TrainConfig(warmstart_lr=0.0).warmstart_lr == 0.0

    def test_method_coercion(self):
        assert TrainConfig(method="bco").method is Method.BCO


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        spec, ds = _dataset()
        config = TrainConfig(
            method=Method.CBPO, epochs=1, alpha=0.2, seed=3, context_size=4,
            warmstart_epochs=1, learning_rate=0.1,
        )
        result = run(ds, config, spec.vocab_size)
        path = tmp_path / "checkpoint.json"
        meta = {"target_user": ds.target_user, "aux_user_ids": ds.aux_user_ids,
                "ratio_x": ds.ratio_x, "grouping": ds.grouping,
                "history_fraction": 1.0, "config_hash": "abc", "overlap_lambda": 0.5}
        save_checkpoint(path, result, config, spec.vocab_size, meta)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.policy.logits, result.policy.logits)
        np.testing.assert_array_equal(loaded.reference.logits, result.reference.logits)
        assert loaded.ema == result.ema
        np.testing.assert_array_equal(loaded.opt.m, result.opt.m)
        np.testing.assert_array_equal(loaded.opt.v, result.opt.v)
        assert loaded.opt.t == result.opt.t
        assert loaded.step == len(result.metrics)
        assert loaded.config["alpha_resolved"] == result.alpha_resolved
        assert loaded.dataset_meta["target_user"] == "u000"

    def test_byte_stable(self, tmp_path):
        spec, ds = _dataset()
        config = TrainConfig(method=Method.BCO, epochs=1, alpha=0.0, seed=3,
                             context_size=4, warmstart_epochs=1)
        result = run(ds, config, spec.vocab_size)
        meta = {"target_user": "u000", "aux_user_ids": [], "ratio_x": 1.0,
                "grouping": "random", "history_fraction": 1.0,
                "config_hash": "", "overlap_lambda": 0.5}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, result, config, spec.vocab_size, meta)
        save_checkpoint(b, result, config, spec.vocab_size, meta)
        assert a.read_bytes() == b.read_bytes()
