"""Optimization loop: batching, determinism, descent, persistence, aborts."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bfpo.datagen import UserDataset, build_user_dataset, truncate_history
from bfpo.errors import ConfigError, InputError, NumericError
from bfpo.losses import BREAKDOWN_COLUMNS, Batch, Method, Stack, score
from bfpo.policy import (
    Encoded,
    Sample,
    SampleTable,
    bucket,
    encode,
    ordered_sum,
    sample_completion,
    sequence_log_probs,
    snapshot_reference,
    softmax_tables,
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
    lockstep_key,
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
    for name in ("rows", "cells", "seq", "lengths"):
        np.testing.assert_array_equal(getattr(piece, name), getattr(direct, name))


def _run_pieces(stack, context, vocab):
    """Each run's part of a stack's encoding, its row offset taken off."""
    pieces = stack.codes.split(stack.layout.sizes.tolist())
    return [
        Encoded(p.rows - r * context, p.cells - r * context * vocab, p.seq, p.lengths)
        for r, p in enumerate(pieces)
    ]


def _named_sequences(batch):
    pos, aux = batch.samples()
    return [(s.x, s.y) for s in pos + aux]


def _steps(batches):
    """A make_batches plan cut by its counts into one Batch a step, each
    equal to the plan's own ``batch(k)``."""
    def cut(side, counts):
        return np.split(side, np.cumsum(counts)[:-1])

    steps = [Batch(pos, aux, batches.pos_pool, batches.aux_pool)
             for pos, aux in zip(cut(batches.pos, batches.n_pos), cut(batches.aux, batches.n_aux))]
    assert all(_same_batch(batches.batch(k), b) for k, b in enumerate(steps))
    return steps


def _same_batch(got, want):
    return (got.pos.tolist(), got.aux.tolist()) == (want.pos.tolist(), want.aux.tolist()) and (
        got.pos_pool is want.pos_pool and got.aux_pool is want.aux_pool)


class TestMakeBatches:
    def test_batch_count(self):
        spec, ds = _dataset(samples_per_user=12)  # 10 train samples per side
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, alpha=0.0)
        batches = make_batches(ds, cfg, 0)
        assert batches.n_pos.tolist() == [2] * 5 and len(_steps(batches)) == 5

    def test_fixed_per_batch_ratio(self):
        spec, ds = _dataset(samples_per_user=12)
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, batch_size_aux=3, alpha=0.0)
        for batch in _steps(make_batches(ds, cfg, 1)):
            assert len(batch.aux) == 3

    def test_epoch_seed_determinism(self):
        spec, ds = _dataset()
        cfg = TrainConfig(method=Method.CBPO, batch_size_pos=4, alpha=0.0)
        codes = _codes(ds, cfg, spec.vocab_size)
        a = make_batches(ds, cfg, 42)
        b = make_batches(ds, cfg, 42)
        assert len(_steps(a)) == len(_steps(b))
        for x, y in zip(_steps(a), _steps(b)):
            assert _same_batch(x, y)
            assert x.samples() == y.samples()
        stacks = [stack_batches([e], codes, [0], None) for e in (a, b)]
        for x, y in zip(*stacks):
            np.testing.assert_array_equal(x.codes.cells, y.codes.cells)
            assert _same_batch(x.batches[0], y.batches[0])

    def test_dpo_sides_of_unequal_length_are_config_error(self):
        """A DPO dataset pairs its i-th preferred completion with its i-th
        rejected one, so its two sides must be equally long."""
        spec, ds = _dataset(ratio=1.5)
        cfg = TrainConfig(method=Method.DPO, alpha=0.0)
        assert len(ds.aux_train) > len(ds.tar_train)
        with pytest.raises(ConfigError, match="preferred completion"):
            make_batches(ds, cfg, 0)
        pairs, _ = synth_dpo_pairs(
            ds, uniform_params(spec.vocab_size, cfg.context_size), 0, budget=16
        )
        short = replace(pairs, h_aux=pairs.h_aux[:-1])
        with pytest.raises(ConfigError, match="preferred completion"):
            make_batches(short, cfg, 0)

    def test_aux_cycles_when_short(self):
        spec, ds = _dataset(samples_per_user=12, ratio=0.5)
        cfg = TrainConfig(method=Method.BCO, batch_size_pos=2, batch_size_aux=4, alpha=0.0)
        plan = make_batches(ds, cfg, 0)
        batches = _steps(plan)
        assert all(len(b.aux) == 4 for b in batches)
        # The auxiliary side runs through one permutation, then starts it again.
        n_aux = len(ds.aux_train)
        cycle = np.concatenate([b.aux for b in batches])
        assert len(cycle) > n_aux
        assert sorted(cycle[:n_aux].tolist()) == list(range(n_aux))
        np.testing.assert_array_equal(cycle, cycle[np.arange(len(cycle)) % n_aux])
        codes = _codes(ds, cfg, spec.vocab_size)
        for b, stack in zip(batches, stack_batches([plan], codes, [0], None)):
            assert _same_batch(stack.batches[0], b)
            _assert_encodes(stack.codes, _named_sequences(b), cfg.context_size, spec.vocab_size)

    def test_unequal_epochs_cannot_stack(self):
        spec, ds = _dataset(samples_per_user=12)
        cfg = TrainConfig(method=Method.SFT, batch_size_pos=2, alpha=0.0)
        short = TrainConfig(method=Method.SFT, batch_size_pos=5, alpha=0.0)
        codes = _codes(ds, cfg, spec.vocab_size)
        with pytest.raises(ConfigError, match="same number of batches"):
            stack_batches([make_batches(ds, cfg, 0), make_batches(ds, short, 0)],
                        stack_codes([codes, codes], cfg.context_size, spec.vocab_size),
                        [0, codes.n], None)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("bs_pos, bs_aux, ratio", [(3, None, 1.0), (4, 7, 0.5), (64, 2, 2.0)])
    def test_slices_encode_the_named_samples(self, method, bs_pos, bs_aux, ratio):
        """Each run's part of a step's stacked encoding equals encoding the
        samples (or pairs) its batch names, offset to the run's rows, and the
        positive side is one permutation of the target samples (of the pairs,
        for DPO).  The two runs differ in their auxiliary pools, so their
        auxiliary batches differ in size unless fixed.  A step's reference
        slice is the per-sequence values of its own sequences."""
        vocab, context = 24, 5
        runs = []
        for r, run_ratio in enumerate((ratio, 2 * ratio)):
            spec, ds = _dataset(ratio=run_ratio)
            cfg = TrainConfig(method=method, batch_size_pos=bs_pos, batch_size_aux=bs_aux,
                              alpha=0.0, context_size=context)
            if method is Method.DPO:
                ds, _ = synth_dpo_pairs(ds, uniform_params(vocab, context), seed=2, budget=16)
                kept = len(ds.tar_train) - r  # a different pair count per run
                ds = replace(ds, h_tar=ds.h_tar[:kept], h_aux=ds.h_aux[:kept])
            codes = _codes(ds, cfg, vocab)
            runs.append((ds, cfg, codes, make_batches(ds, cfg, 7 + r)))
        assert len(runs[0][3].n_pos) == len(runs[1][3].n_pos)
        stacked = stack_codes([r[2] for r in runs], context, vocab)
        table = np.random.default_rng(0).normal(size=(2 * context, vocab))
        reference = None if method is Method.SFT else sequence_log_probs(table, stacked)
        stacks = stack_batches([r[3] for r in runs], stacked, [0, runs[0][2].n], reference)
        for stack in stacks:
            if method is Method.SFT:
                assert stack.reference is None
            else:
                want = sequence_log_probs(table, stack.codes)
                assert stack.reference.tobytes() == want.tobytes()
        binary = method not in (Method.SFT, Method.DPO)
        for r, (ds, cfg, _, plan) in enumerate(runs):
            n_pos = len(ds.tar_train)
            n_aux = cfg.resolved_aux_batch(ds.ratio_x) if binary else 0
            batches = _steps(plan)
            assert sorted(np.concatenate([b.pos for b in batches]).tolist()) == list(range(n_pos))
            for b, stack in zip(batches, stacks):
                assert len(stack.batches) == 2 and _same_batch(stack.batches[r], b)
                assert _same_batch(stack.batches[r - 2], b)
                if method is Method.DPO:  # each preferred completion's rejected one
                    assert b.aux.tolist() == b.pos.tolist()
                else:
                    assert len(b.aux) == n_aux
                _assert_encodes(_run_pieces(stack, context, vocab)[r],
                                _named_sequences(b), context, vocab)


class TestTrainStep:
    def _state(self, method=Method.BCO, lr=0.05, vocab=6, **cfg_kw):
        config = TrainConfig(method=method, learning_rate=lr, alpha=0.0, **cfg_kw)
        policy = uniform_params(vocab, config.context_size)
        return RunState(
            policy=policy,
            opt=AdamState.zeros(policy.logits.shape),
            config=config,
            alphas=[0.0],
            total_steps=10,
        )

    @staticmethod
    def _stack(state, batch):
        """The batch scored under the state's starting (uniform) policy."""
        reference = uniform_params(state.policy.vocab_size, state.config.context_size)
        return Stack.of(state.config.method, batch, state.policy, reference)

    def test_null_step_at_zero_lr(self):
        state = self._state(lr=0.0)
        before = state.policy.logits.copy()
        batch = Batch.of(pos=[Sample("u", (0,), (1, 2))], aux=[Sample("v", (1,), (3,))])
        _, values = train_step(state, self._stack(state, batch))
        np.testing.assert_array_equal(state.policy.logits, before)
        assert values.shape == (1, len(BREAKDOWN_COLUMNS))
        assert math.isfinite(values[0, BREAKDOWN_COLUMNS.index("total")])

    def test_single_step_descends_positive_loss(self):
        """With the reward below the anchor, one small step lowers the
        positive-label loss of that sample."""
        from bfpo.losses import loss_positive
        from bfpo.rewards import RewardConfig, implicit_reward

        state = self._state(method=Method.CBPO, lr=0.01)
        reference = snapshot_reference(state.policy)
        # Pre-seeded EMA statistics (the run's positive, then auxiliary) keep
        # the anchor above the (zero) initial rewards.
        state.ema = [1.0, 1.0]
        sample = Sample("u", (0,), (1, 1))
        batch = Batch.of(pos=[sample], aux=[Sample("v", (0,), (2,))])
        rcfg = RewardConfig(beta=state.config.beta)

        def pos_loss():
            r = implicit_reward(state.policy, reference, rcfg, sample.x, sample.y)
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
        assert state.ema == [0.0, 0.0]
        assert state.references() == [ReferenceState(0.0, 0.0, 0.9, True)]
        assert state.last_delta == [0.0]

    def test_batch_delta_is_delta_joint(self, rng):
        """delta_mode="batch" anchors a step at delta_joint of its per-sample
        implicit rewards, positives then auxiliaries, bit for bit."""
        from bfpo.rewards import RewardConfig, delta_joint, ema_anchor, implicit_reward

        state = self._state(method=Method.CBPO, delta_mode="batch")
        state.policy = random_params(rng, 6, state.config.context_size)
        reference = random_params(rng, 6, state.config.context_size)

        def samples(user, n):
            return [Sample(user, (int(rng.integers(6)),), tuple(rng.integers(6, size=3).tolist()))
                    for _ in range(n)]

        batch = Batch.of(pos=samples("u", 9), aux=samples("v", 13))
        config = RewardConfig(beta=state.config.beta)
        pos, aux = ([implicit_reward(state.policy, reference, config, s.x, s.y) for s in side]
                    for side in batch.samples())
        train_step(state, Stack.of(Method.CBPO, batch, state.policy, reference))
        assert state.last_delta == [delta_joint(pos, aux)]
        assert state.last_delta != [ema_anchor(*state.ema)]

    def test_ema_batch_means_add_left_to_right(self):
        """The EMA is seeded with left-to-right batch means; numpy's pairwise
        sum reorders a batch of 8 or more and differs here."""
        rng = np.random.default_rng(7)
        config = TrainConfig(method=Method.BCO, alpha=0.0, beta=1.0, context_size=4)
        reference = random_params(rng, 6, config.context_size)

        def samples(user):
            return [Sample(user, (int(rng.integers(6)),), tuple(rng.integers(6, size=3).tolist()))
                    for _ in range(24)]

        state = RunState(
            policy=random_params(rng, 6, config.context_size),
            opt=AdamState.zeros((4, 6)), config=config, alphas=[0.0], total_steps=1,
        )
        batch = Stack.of(Method.BCO, Batch.of(pos=samples("u"), aux=samples("v")),
                         state.policy, reference)
        rewards = score(Method.BCO, batch, state.policy, 1.0).rewards
        pos_r, aux_r = rewards[:24], rewards[24:]
        train_step(state, batch)
        assert tuple(state.ema) == (
            ordered_sum(pos_r) / 24, ordered_sum(aux_r) / 24
        )
        assert (float(np.sum(pos_r)), float(np.sum(aux_r))) != (
            ordered_sum(pos_r), ordered_sum(aux_r)
        )

    @pytest.mark.parametrize("method", [Method.KTO, Method.BCO, Method.CBPO_RAW, Method.CBPO])
    def test_empty_side_is_input_error(self, method):
        """A stack in which a run has no auxiliaries (or no positives) cannot
        take a BCO-family or KTO step; Stack.of refuses such a batch, so the
        stack is put together by hand, as a lone run and inside a lockstep
        stack of two."""
        from bfpo.losses import Layout, encode_batch

        full = Batch.of(pos=[Sample("u", (0,), (1,)), Sample("u", (1,), (2,))],
                        aux=[Sample("v", (0,), (3,))])
        no_aux = Batch.of(pos=[Sample("u", (0,), (1, 2))])
        config = TrainConfig(method=method, alpha=0.0)
        context = config.context_size
        for batches in ([no_aux], [full, no_aux]):
            policy = uniform_params(6, len(batches) * context)
            state = RunState(policy=policy, opt=AdamState.zeros(policy.logits.shape),
                             config=config, alphas=[0.0] * len(batches), total_steps=10)
            codes = stack_codes([encode_batch(b, context, 6) for b in batches], context, 6)
            layout = Layout.of([len(b.pos) for b in batches], [len(b.aux) for b in batches])
            assert not layout.both_sides
            stack = Stack(batches, codes, layout, np.zeros(codes.n))
            with pytest.raises(InputError, match="non-empty positive and auxiliary sides"):
                train_step(state, stack)

    def test_non_finite_rewards_dump_the_run_that_made_them(self):
        """In a lockstep stack of two, NaN logits in run 1's rows abort the
        step before any EMA moves, and the dump holds run 1's batch."""
        from bfpo.losses import Layout, encode_batch

        batches = [Batch.of(pos=[Sample(u, (0,), (1,))], aux=[Sample(v, (0,), (2,))])
                   for u, v in (("u0", "v0"), ("u1", "v1"))]
        config = TrainConfig(method=Method.CBPO, alpha=0.0)
        context = config.context_size
        policy = uniform_params(6, 2 * context)
        policy.logits[context:] = np.nan
        state = RunState(policy=policy, opt=AdamState.zeros(policy.logits.shape),
                         config=config, alphas=[0.0, 0.0], total_steps=10)
        codes = stack_codes([encode_batch(b, context, 6) for b in batches], context, 6)
        stack = Stack(batches, codes, Layout.of([1, 1], [1, 1]), np.zeros(codes.n))
        with pytest.raises(NumericError, match="^non-finite batch rewards at step 1$") as err:
            train_step(state, stack)
        assert state.ema is None
        assert err.value.details["pos"][0]["user_id"] == "u1"
        assert err.value.details["aux"][0]["user_id"] == "v1"

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
    """The per-token reference: one ``sample_completion`` per candidate; each
    pair as (prompt, preferred completion, rejected completion)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    pairs, skipped = [], 0
    for s in ds.tar_train:
        for _ in range(budget):
            candidate = sample_completion(policy, s.x, len(s.y), rng)
            if candidate != s.y:
                pairs.append((s.x, s.y, candidate))
                break
        else:
            skipped += 1
    return pairs, skipped, rng


def _pair_rows(pairs):
    """A pairs dataset's rows as (prompt, preferred, rejected), once its two
    sides are seen to share everything but the completion tokens."""
    preferred, rejected = pairs.h_tar, pairs.h_aux
    for name in ("x_tokens", "x_offsets", "y_offsets", "user", "heldout"):
        np.testing.assert_array_equal(getattr(preferred, name), getattr(rejected, name))
    assert preferred.user_ids == rejected.user_ids
    assert pairs.tar_train == preferred and pairs.aux_train == rejected
    return [(w.x, w.y, lose.y) for w, lose in zip(preferred, rejected)]


def _synth_with_generator(monkeypatch, ds, policy, seed, budget):
    """synth_dpo_pairs, its rows as pairs, plus the generator it drew from."""
    made = []
    real = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda *a: made.append(real(*a)) or made[-1])
        pairs, skipped = synth_dpo_pairs(ds, policy, seed, budget)
    (rng,) = made
    return _pair_rows(pairs), skipped, rng


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
        table = SampleTable.of(samples)
        ds = UserDataset(target_user="t", h_tar=table, h_aux=table[:0], ratio_x=1.0)
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
            h_tar=SampleTable.of([shared] * 6),
            h_aux=SampleTable.of([Sample("o", (0,), (3,))] * 6),
            ratio_x=1.0,
        )
        policy = uniform_params(4, 4)
        for t, tok in enumerate(shared.y):
            policy.logits[bucket(shared.x, t, 4), :] = 0.0
            policy.logits[bucket(shared.x, t, 4), tok] = 60.0
        pairs, skipped = synth_dpo_pairs(ds, policy, seed=0, budget=8)
        assert len(pairs.h_tar) == len(pairs.h_aux) == 0
        assert _pair_rows(pairs) == []
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
        ds = UserDataset(target_user="t", h_tar=SampleTable.of(pop["t"]),
                         h_aux=SampleTable.of(pop["o"]), ratio_x=1.0)
        policy = uniform_params(4, 2)
        _, skipped = synth_dpo_pairs(ds, policy, seed=1, budget=1)
        rate = skipped / n
        sigma = math.sqrt((1 / 16) * (15 / 16) / n)
        assert abs(rate - 1 / 16) < 4 * sigma

    def test_seed_determinism(self):
        spec, ds = _dataset(samples_per_user=10)
        policy = uniform_params(spec.vocab_size, 4)
        a, _ = synth_dpo_pairs(ds, policy, seed=3, budget=16)
        b, _ = synth_dpo_pairs(ds, policy, seed=3, budget=16)
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
            assert total == 2 * per_epoch and len(aux) == 0
        # Each warm-start epoch visits every auxiliary sample once.
        for epoch in range(2):
            steps = warm[epoch * per_epoch : (epoch + 1) * per_epoch]
            visited = [s for _, _, (pos, _) in steps for s in pos]
            assert sorted(map(repr, visited)) == sorted(map(repr, ds.aux_train))
        assert all(c.method is Method.CBPO and c.learning_rate == 0.1 for c, _, _ in method)

    def test_empty_warm_start_pool(self):
        spec, ds = _dataset()
        no_aux = UserDataset(ds.target_user, ds.h_tar, ds.h_aux[:0], ds.ratio_x)
        with pytest.raises(InputError, match="warm-start sample pool is empty"):
            run(no_aux, self._config(method=Method.SFT), spec.vocab_size)
        result = run(no_aux, self._config(method=Method.SFT, warmstart_epochs=0),
                     spec.vocab_size)
        np.testing.assert_array_equal(
            result.reference.logits, uniform_params(spec.vocab_size, 4).logits
        )

    @pytest.mark.parametrize("method, alpha, warm, keep_tar, keep_aux, message", [
        (Method.SFT, 0.3, 1, 0, None, "no target training samples"),
        (Method.SFT, 0.3, 1, None, 0, "warm-start sample pool is empty"),
        (Method.CBPO, "estimate", 0, 1, None, "need at least 2 samples"),
        (Method.CBPO_RAW, "estimate", 0, 1, None, "need at least 2 samples"),
        (Method.KTO, 0.3, 0, None, 0, "auxiliary training split is empty"),
        (Method.BCO, 0.3, 0, None, 0, "auxiliary training split is empty"),
        (Method.CBPO, 0.3, 0, None, 0, "auxiliary training split is empty"),
    ])
    def test_untrainable_dataset_fails_before_any_step(
        self, monkeypatch, method, alpha, warm, keep_tar, keep_aux, message
    ):
        """check_trainable holds run_many's input rules: run_many checks
        every run with it before training any, so a bad second run stops the
        first before its first step."""
        import bfpo.trainer as trainer_mod
        from bfpo.trainer import check_trainable

        spec, ds = _dataset()
        bad = replace(ds, h_tar=ds.h_tar[:keep_tar], h_aux=ds.h_aux[:keep_aux])
        config = self._config(method=method, alpha=alpha, warmstart_epochs=warm)
        with pytest.raises(InputError, match=message):
            check_trainable(bad, config)
        check_trainable(ds, config)
        steps = []
        monkeypatch.setattr(trainer_mod, "train_step", lambda *a: steps.append(a))
        with pytest.raises(InputError, match=message):
            run_many([ds, bad], [config, config], spec.vocab_size)
        assert steps == []

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
        # The warm start's groups are its runs' SFT configs by lockstep_key and
        # steps per epoch over the auxiliary pool.
        warm_groups = Counter(
            (lockstep_key(replace(cfg, method=Method.SFT, epochs=cfg.warmstart_epochs,
                                  learning_rate=cfg.warmstart_lr)),
             math.ceil(len(ds.aux_train) / cfg.batch_size_pos))
            for ds, cfg in runs if cfg.warmstart_epochs > 0
        )
        assert {w for phase, w in widths if phase == "warm"} == set(warm_groups.values())
        assert max(warm_groups.values()) == 2
        assert max(w for phase, w in widths if phase == "method") >= 3
        assert sum(w for phase, w in widths if phase == "method") == sum(
            len(r.metrics) for r in alone
        )
        assert len(widths) < sum(w for _, w in widths)

    @pytest.mark.parametrize("case, warm_widths", [
        ("four_alphas", [1]), ("two_seeds", [2]), ("six_methods", [1]),
    ])
    def test_each_distinct_warm_start_trains_once(self, monkeypatch, case, warm_widths):
        """Runs that agree in their SFT config, seed and dataset share one warm
        start: an alpha sweep's four runs, or the six methods, train one warm
        run (two seeds, two); each result still equals its run alone."""
        import bfpo.trainer as trainer_mod

        spec, runs = self._runs(Method.CBPO)
        ds, base = runs[0]
        if case == "six_methods":
            configs = [replace(base, method=method) for method in Method]
        else:
            seeds = [0, 1] if case == "two_seeds" else [0]
            configs = [replace(base, seed=seed, alpha=alpha)
                       for seed in seeds for alpha in (0.0, 0.25, 0.5, 0.75)]
        alone = [run(ds, cfg, spec.vocab_size) for cfg in configs]
        widths = []
        real = trainer_mod._train_epochs

        def spy(phase_runs, vocab_size):
            if phase_runs[0].config.learning_rate == 0.05:  # the warm start's
                widths.append(len(phase_runs))
            real(phase_runs, vocab_size)

        monkeypatch.setattr(trainer_mod, "_train_epochs", spy)
        together = run_many([ds] * len(configs), configs, spec.vocab_size)
        assert widths == warm_widths
        for a, b in zip(alone, together):
            for name in ("policy", "reference"):
                assert getattr(a, name).logits.tobytes() == getattr(b, name).logits.tobytes()
            assert repr(a.metrics) == repr(b.metrics)
            assert a.alpha_resolved == b.alpha_resolved

    @pytest.mark.parametrize("phase", ["warm", "method"])
    def test_divergent_last_update_raises_numeric_error(self, phase):
        """A phase whose last AdamW update overflows raises NumericError naming
        the step, with a dump of that step's batch, not the InputError of the
        non-finite policy it would build.  Each phase here is one batch an
        epoch; the warm start's second update is its first at the full lr."""
        spec, runs = self._runs(Method.BCO)
        ds, cfg = runs[0]
        if phase == "warm":
            cfg = replace(cfg, warmstart_epochs=2, batch_size_pos=1000, warmup_fraction=1.0,
                          warmstart_lr=1e300, weight_decay=100.0)
            match, method, step, pool = "warm start: non-finite", "sft", 2, ds.aux_train
        else:
            cfg = replace(cfg, epochs=1, batch_size_pos=1000, learning_rate=1.7e308,
                          weight_decay=100.0)
            match, method, step, pool = "non-finite", "bco", 1, ds.tar_train
        with pytest.raises(NumericError, match=f"^{match} policy after the update of step {step}$"
                           ) as err:
            run_many([ds, ds], [cfg, replace(cfg, seed=1)], spec.vocab_size)
        details = err.value.details
        assert (details["method"], details["step"], len(details["pos"])) == (
            method, step, len(pool)
        )

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


class TestFrozenReference:
    """The reference is frozen for a phase, so its log-probabilities are
    computed once per phase stack and sliced per step."""

    def test_one_pass_per_step_and_one_per_method_phase(self, monkeypatch):
        """On the frozen acceptance config (V=72, 210 method steps), a cbpo run
        calls ``sequence_log_probs`` once per warm-start and method step, plus
        once over the method phase's encoding for the reference."""
        import bfpo.losses as losses_mod
        import bfpo.trainer as trainer_mod
        from bfpo.datagen import PopulationSpec, generate_population

        spec = PopulationSpec(n_users=8, vocab_size=72, overlap_lambda=0.8,
                              samples_per_user=150, prompt_pool_size=20, seq_len=8, seed=0)
        ds = build_user_dataset(generate_population(spec), "u000", 1.5, "random", 0,
                                spec.vocab_size)
        config = TrainConfig(method=Method.CBPO, alpha=0.5, seed=0, epochs=14,
                             batch_size_pos=8, learning_rate=0.2, beta=0.075,
                             warmstart_epochs=2, warmstart_lr=0.2)
        calls = []
        steps = []
        real_pass, real_step = losses_mod.sequence_log_probs, trainer_mod.train_step

        def counting(table, codes):
            calls.append(codes.n)
            return real_pass(table, codes)

        def spy(state, batch):
            steps.append(state.config.method)
            return real_step(state, batch)

        for module in (losses_mod, trainer_mod):
            monkeypatch.setattr(module, "sequence_log_probs", counting, raising=False)
        monkeypatch.setattr(trainer_mod, "train_step", spy)
        result = run(ds, config, spec.vocab_size)
        assert len(result.metrics) == steps.count(Method.CBPO) == 210
        assert len(calls) == len(steps) + 1
        assert calls.count(len(ds.tar_train) + len(ds.aux_train)) == 1

    @pytest.mark.parametrize("method", [Method.DPO, Method.KTO, Method.CBPO])
    def test_each_stack_carries_its_runs_reference(self, monkeypatch, method):
        """Three runs with different warm starts, so different references,
        stepped as one stack: every step's ``reference`` is its sequences'
        log-probabilities under their own run's reference, bit for bit; the
        warm start's SFT stacks carry none."""
        import bfpo.trainer as trainer_mod

        spec, ds = _dataset()
        configs = [
            TrainConfig(method=method, epochs=2, batch_size_pos=4, learning_rate=0.1, beta=0.1,
                        alpha=0.3, seed=seed, warmstart_epochs=1, context_size=4)
            for seed in range(3)
        ]
        stacks = []
        step = trainer_mod.train_step

        def spy(state, batch):
            stacks.append(batch)
            return step(state, batch)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        results = run_many([ds] * 3, configs, spec.vocab_size)
        references = [r.reference.logits for r in results]
        assert len({_hash(r) for r in references}) == 3
        ref_table = softmax_tables(np.concatenate(references))[0]
        n_warm = len(stacks) - len(results[0].metrics)
        warm, method_stacks = stacks[:n_warm], stacks[n_warm:]
        assert n_warm > 0 and all(s.reference is None for s in warm)
        for stack in method_stacks:
            assert len(stack.batches) == 3
            want = sequence_log_probs(ref_table, stack.codes)
            assert stack.reference.tobytes() == want.tobytes()


class TestPhasePlan:
    """A phase's batches are drawn and stacked in blocks of about PLAN_TOKENS
    tokens: one block for the whole phase, or one per epoch, steps the same
    stacks as per-epoch make_batches and stack_batches did."""

    @staticmethod
    def _steps(monkeypatch, plan_tokens, datasets, configs, vocab):
        """What train_step saw: per step, its epoch and the fields of its stack
        a step reads; and the number of stack_batches calls."""
        import bfpo.trainer as trainer_mod

        seen, calls = [], []
        step, stack = trainer_mod.train_step, trainer_mod.stack_batches

        def spy_step(state, batch):
            codes = batch.codes
            seen.append((
                state.config.method, state.epoch, [(b.pos.tolist(), b.aux.tolist())
                                                   for b in batch.batches],
                codes.rows.tolist(), codes.cells.tolist(), codes.seq.tolist(),
                codes.lengths.tolist(), codes.n, batch.layout,
                None if batch.reference is None else batch.reference.tobytes(),
            ))
            return step(state, batch)

        def spy_stack(*args):
            calls.append(args[0])
            return stack(*args)

        with monkeypatch.context() as patch:
            patch.setattr(trainer_mod, "PLAN_TOKENS", plan_tokens)
            patch.setattr(trainer_mod, "train_step", spy_step)
            patch.setattr(trainer_mod, "stack_batches", spy_stack)
            results = run_many(datasets, configs, vocab)
        return seen, calls, results

    @pytest.mark.parametrize("method", list(Method))
    def test_blocks_step_the_per_epoch_stacks(self, monkeypatch, method):
        spec, ds = _dataset()
        configs = [
            TrainConfig(method=method, epochs=5, batch_size_pos=4, learning_rate=0.1,
                        beta=0.1, alpha=alpha, seed=seed, warmstart_epochs=2, context_size=4)
            for seed, alpha in ((3, 0.2), (4, 0.5))
        ]
        runs = {}
        for label, plan_tokens in (("per_epoch", 1), ("two_epochs", None), ("phase", 10**9)):
            if plan_tokens is None:  # two epochs of the method phase's encoding a block
                codes = _codes(ds, configs[0], spec.vocab_size)
                plan_tokens = 2 * 2 * len(codes.cells)
            runs[label] = self._steps(monkeypatch, plan_tokens, [ds, ds], configs,
                                      spec.vocab_size)
        per_epoch, _, alone = runs["per_epoch"]
        method_steps = len(alone[0].metrics)
        steps_per_epoch = method_steps // 5
        assert len(per_epoch) == 2 * math.ceil(len(ds.aux_train) / 4) + method_steps
        for seen, calls, results in runs.values():
            assert len(seen) == len(per_epoch)
            for got, want in zip(seen, per_epoch):
                assert got[:-2] == want[:-2] and got[-2] is want[-2] and got[-1] == want[-1]
            for a, b in zip(alone, results):
                assert a.policy.logits.tobytes() == b.policy.logits.tobytes()
                assert repr(a.metrics) == repr(b.metrics)
            # The method phase comes last; each of its epochs is numbered.
            epochs = [e for e in range(5) for _ in range(steps_per_epoch)]
            assert [s[1] for s in seen[-method_steps:]] == epochs
            assert [row["epoch"] for row in results[0].metrics] == epochs
        # stack_batches calls: one per epoch of either phase, some, or one per phase.
        assert len(runs["per_epoch"][1]) == 2 + 5
        assert 2 < len(runs["two_epochs"][1]) < 7
        assert len(runs["phase"][1]) == 2

    def test_each_run_draws_only_its_epoch_seeds(self, monkeypatch):
        """Drawing every epoch before the first step leaves each run's
        generator where the per-epoch loop left it: the method phase of a run
        trained with one block equals its per-epoch training bit for bit."""
        spec, ds = _dataset()
        config = TrainConfig(method=Method.CBPO, epochs=6, batch_size_pos=4, learning_rate=0.1,
                             beta=0.1, alpha="estimate", seed=8, warmstart_epochs=2,
                             context_size=4, alpha_estimator_epochs=10)
        (_, _, (a,)), (_, _, (b,)) = (
            self._steps(monkeypatch, tokens, [ds], [config], spec.vocab_size)
            for tokens in (1, 10**9)
        )
        assert a.opt.m.tobytes() == b.opt.m.tobytes() and a.opt.v.tobytes() == b.opt.v.tobytes()
        assert repr(a.metrics) == repr(b.metrics) and a.alpha_resolved == b.alpha_resolved


class TestFrozenConfigDigests:
    """sha256 of the trained logits, reference, AdamW moments and metrics
    rows of the frozen acceptance config's seven runs at seed 3 (each method,
    and criterion 10's cbpo on a quarter of the history with the batch
    anchor), recorded before the lone run's step path was cut down and its
    phases planned in blocks: any change of arithmetic or order moves one."""

    @pytest.fixture(scope="class")
    def datasets(self):
        from bfpo.datagen import PopulationSpec, generate_population

        spec = PopulationSpec(n_users=8, vocab_size=72, overlap_lambda=0.8,
                              samples_per_user=150, prompt_pool_size=20, seq_len=8, seed=3)
        full = build_user_dataset(generate_population(spec), "u000", 1.5, "random", 3,
                                  spec.vocab_size)
        return spec.vocab_size, {1.0: full, 0.25: truncate_history(full, 0.25)}

    DIGESTS = [
        ("sft", 1.0, "ema",
         "b59d0afb2e41dc400b73fa2fbee788c35c103cc05d519e1a8aeaec6d4e2be918"),
        ("dpo", 1.0, "ema",
         "48e7490acd72ecc616e587b39cb3e137099b593b52f99f09034a79858839cb26"),
        ("kto", 1.0, "ema",
         "879393b3f7e9ccd77629e37c682dba9aedd6323e1fd467a332718f3fe4e21724"),
        ("bco", 1.0, "ema",
         "2f817640c1f234d709a033b6cd9c498286badb569e2a9fa7bfe0de12f9bbb4c9"),
        ("cbpo_raw", 1.0, "ema",
         "4a040bd450b6b8789e80a02c33fa7ccb6a54631bdee61cbb3de5acc3dbce571d"),
        ("cbpo", 1.0, "ema",
         "f170e542e41b9a78c31fb2fefbb52a56b234a261ac2715cf240f45ee2b185595"),
        ("cbpo", 0.25, "batch",
         "d5cb256aea3fa43aa831e4a69e30aa82d31096c4f60c426f2aa1670eb072a0e5"),
    ]

    @staticmethod
    def _config(method, delta_mode):
        return TrainConfig(
            method=Method(method), alpha="estimate", seed=3, delta_mode=delta_mode, epochs=14,
            batch_size_pos=8, learning_rate=0.2, beta=0.075, ema_decay=0.9,
            warmstart_epochs=2, warmstart_lr=0.2, alpha_estimator_epochs=60,
        )

    @staticmethod
    def _digest(result):
        h = hashlib.sha256()
        for table in (result.policy.logits, result.reference.logits, result.opt.m, result.opt.v):
            h.update(table.tobytes())
        h.update(json.dumps(result.metrics).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("method, history, delta_mode, digest", DIGESTS)
    def test_run_digest(self, datasets, method, history, delta_mode, digest):
        vocab, by_history = datasets
        result = run(by_history[history], self._config(method, delta_mode), vocab)
        assert self._digest(result) == digest

    def test_run_many_keeps_every_digest(self, datasets):
        """The seven runs through one run_many call, where the six on the full
        history share one warm start, give the same digests."""
        vocab, by_history = datasets
        results = run_many(
            [by_history[history] for _, history, _, _ in self.DIGESTS],
            [self._config(method, mode) for method, _, mode, _ in self.DIGESTS],
            vocab,
        )
        assert [self._digest(r) for r in results] == [d for *_, d in self.DIGESTS]


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

    @pytest.mark.parametrize("name, value", [
        ("alpha_estimator_epochs", 0), ("alpha_estimator_lr", -1.0),
        ("dpo_rejection_budget", 0), ("dpo_rejection_budget", -3),
    ])
    def test_unusable_estimator_and_dpo_settings_name_the_field(self, name, value):
        """The alpha estimator's fields are checked by its own config's rule,
        under the train config's names."""
        with pytest.raises(ConfigError, match=f"^{name} must be >= "):
            TrainConfig(**{name: value})
        assert TrainConfig(alpha_estimator_lr=0.0).alpha_estimator_lr == 0.0

    @pytest.mark.parametrize("momentum", [
        (math.nan, 0.999, 1e-8), (0.9, math.nan, 1e-8), (0.9, 0.999, math.nan),
        (math.inf, 0.999, 1e-8), (0.9, 0.999, math.inf),
    ])
    def test_nan_momentum_params_rejected(self, momentum):
        """A library call may pass NaN or an infinity (a config cannot: its
        numbers are finite), which each part's rule rejects; the ranges
        themselves are rows of tests/test_cli.py::TestMalformedInputExits2."""
        with pytest.raises(ConfigError, match="^momentum_params "):
            TrainConfig(momentum_params=momentum)

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


class TestObjectBudgets:
    """What a phase builds: its EMAs stay floats, its loss terms are fixed
    once and its metrics stay one table, whose rows are built only when read."""

    @staticmethod
    def _frozen(method="cbpo", history=1.0, delta_mode="ema"):
        from bfpo.datagen import PopulationSpec, generate_population

        spec = PopulationSpec(n_users=8, vocab_size=72, overlap_lambda=0.8,
                              samples_per_user=150, prompt_pool_size=20, seq_len=8, seed=3)
        full = build_user_dataset(generate_population(spec), "u000", 1.5, "random", 3,
                                  spec.vocab_size)
        dataset = full if history == 1.0 else truncate_history(full, history)
        return spec.vocab_size, dataset, TestFrozenConfigDigests._config(method, delta_mode)

    def test_a_lone_run_builds_one_reference_state_a_phase(self, monkeypatch):
        """A lone frozen-config run (210 method steps) makes a ReferenceState
        at the end of its warm start and of its method phase, none a step."""
        vocab, dataset, config = self._frozen()
        made = []
        init = ReferenceState.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReferenceState, "__init__", counting)
        result = run(dataset, replace(config, alpha=0.5), vocab)
        assert len(result.metrics_table) == 210
        assert len(made) == 2 and result.ema.initialized

    def test_binary_terms_once_per_run_a_phase(self, monkeypatch):
        """The BCO family's (alpha, divisor, clamped) is fixed when a phase's
        state is made: once per run, however many steps the phase takes,
        and a config the clamped objective cannot use fails there."""
        import bfpo.losses as losses_mod

        calls = []
        real = losses_mod._binary_terms
        monkeypatch.setattr(losses_mod, "_binary_terms",
                            lambda method, config: calls.append(method) or real(method, config))
        spec, ds = _dataset()
        configs = [TrainConfig(method=method, alpha=0.3, seed=seed, epochs=2, batch_size_pos=4,
                               context_size=4, warmstart_epochs=1)
                   for method in (Method.BCO, Method.CBPO_RAW, Method.CBPO) for seed in (0, 1)]
        results = run_many([ds] * len(configs), configs, spec.vocab_size)
        assert all(len(r.metrics_table) > 1 for r in results)
        assert Counter(calls) == {Method.BCO: 2, Method.CBPO_RAW: 2, Method.CBPO: 2}
        policy = uniform_params(spec.vocab_size, 4)
        with pytest.raises(ConfigError, match="alpha < 1"):
            RunState(policy=policy, opt=AdamState.zeros(policy.logits.shape),
                     config=configs[-1], alphas=[1.0], total_steps=1)

    def test_a_sweep_builds_no_metrics_rows(self, tmp_path, monkeypatch):
        """``bfpo sweep --workers 1`` reads each run's step count, not its
        rows; ``bfpo train`` builds its one table's rows, for metrics.csv."""
        import bfpo.trainer as trainer_mod
        from bfpo.cli import main

        built = []
        rows = trainer_mod.MetricsTable.rows
        monkeypatch.setattr(trainer_mod.MetricsTable, "rows",
                            lambda table: built.append(len(table)) or rows(table))
        population = {"n_users": 4, "vocab_size": 24, "overlap_lambda": 0.5,
                      "samples_per_user": 20, "prompt_pool_size": 8, "seq_len": 5}
        dataset = {"target_user": "u000", "ratio_x": 1.0, "grouping": "unique"}
        train = {"method": "cbpo", "epochs": 2, "batch_size_pos": 4, "context_size": 4,
                 "warmstart_epochs": 1}

        def command(name, doc, *flags):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"schema_version": 1, "seed": 0, **doc}))
            return main([name, "--config", str(path), *flags])

        assert command("sweep", {"out_dir": str(tmp_path / "sweep"), "axis": "alpha",
                                 "grid": [0.0, 0.5], "n_seeds": 2, "population": population,
                                 "dataset": dataset, "train": train}, "--workers", "1") == 0
        assert built == []
        assert command("generate", {"out_dir": str(tmp_path / "corpus"),
                                    "population": population}) == 0
        assert command("train", {"out_dir": str(tmp_path / "run"),
                                 "corpus_dir": str(tmp_path / "corpus"), "dataset": dataset,
                                 "train": {**train, "alpha": 0.5}}) == 0
        assert len(built) == 1 and built[0] > 1

    @pytest.mark.parametrize("method, history, delta_mode",
                             [(m, h, d) for m, h, d, _ in TestFrozenConfigDigests.DIGESTS])
    def test_metrics_rows_equal_the_per_step_dicts(self, monkeypatch, method, history,
                                                   delta_mode):
        """A result's metrics rows equal the dicts a row-per-step log made of
        each method step's step, epoch, loss columns, anchor and EMA pair
        ((0.0, 0.0) before any update), for all six methods and criterion
        10's quarter-history batch-anchor case."""
        import bfpo.trainer as trainer_mod

        vocab, dataset, config = self._frozen(method, history, delta_mode)
        steps = []
        step = trainer_mod.train_step

        def spy(state, batch):
            state, values = step(state, batch)
            ema = (0.0, 0.0) if state.ema is None else tuple(state.ema)
            steps.append((state, state.step, state.epoch, values[0].tolist(),
                          state.last_delta[0], ema))
            return state, values

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        result = run(dataset, config, vocab)
        method_phase = steps[-1][0]
        want = [dict(zip(METRICS_COLUMNS, (n, epoch, method, *row, delta, *ema)))
                for state, n, epoch, row, delta, ema in steps if state is method_phase]
        assert len(want) == len(result.metrics_table) > 0
        assert repr(result.metrics) == repr(want)
        assert result.metrics_table.rows() == [list(row.values()) for row in want]
