"""Objectives: closed forms, reductions, per-sample oracles and gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bfpo.errors import ConfigError, InputError
from bfpo.losses import (
    LossConfig,
    Method,
    loss_terms,
    method_loss,
    method_loss_and_grad,
)
from bfpo.policy import Sample, log_prob, snapshot_reference, uniform_params

from conftest import random_params
from oracles import (
    batch_of,
    binary_loss,
    dpo_loss,
    kto_loss,
    kto_zref,
    loss_negative,
    loss_positive,
    sft_loss,
)

LOG2 = math.log(2.0)


def bco(pos, aux, delta):
    return binary_loss(Method.BCO, pos, aux, delta, LossConfig())


def softplus_inverse(y: float) -> float:
    return math.log(math.expm1(y))


class TestPointwiseLosses:
    def test_at_anchor(self):
        assert loss_positive(0.3, 0.3) == pytest.approx(LOG2, abs=1e-12)
        assert loss_negative(0.3, 0.3) == pytest.approx(LOG2, abs=1e-12)

    def test_unit_margin(self):
        assert loss_positive(1.0, 0.0) == pytest.approx(0.313262, abs=1e-6)
        assert loss_negative(-1.0, 0.0) == pytest.approx(0.313262, abs=1e-6)

    def test_asymptotes(self):
        assert 0.0 < loss_positive(40.0, 0.0) < 1e-15
        assert loss_positive(-40.0, 0.0) == pytest.approx(40.0, rel=1e-12)
        assert 0.0 < loss_negative(-40.0, 0.0) < 1e-15

    def test_reflection_identity(self, rng):
        for _ in range(100):
            r, d = rng.normal(0, 3), rng.normal(0, 3)
            assert loss_negative(r, d) == pytest.approx(
                loss_positive(2 * d - r, d), abs=1e-12
            )

    def test_sum_lower_bound(self, rng):
        """l_pos + l_neg >= 2 log 2, equality exactly at the anchor."""
        assert loss_positive(0.5, 0.5) + loss_negative(0.5, 0.5) == pytest.approx(
            2 * LOG2, abs=1e-12
        )
        for _ in range(100):
            r, d = rng.normal(0, 3), rng.normal(0, 3)
            total = loss_positive(r, d) + loss_negative(r, d)
            assert total >= 2 * LOG2 - 1e-12
            if abs(r - d) > 1e-3:
                assert total > 2 * LOG2

    def test_monotone_and_convex(self):
        grid = np.linspace(-6, 6, 201)
        pos = np.array([loss_positive(r, 0.0) for r in grid])
        neg = np.array([loss_negative(r, 0.0) for r in grid])
        assert np.all(np.diff(pos) < 0)
        assert np.all(np.diff(neg) > 0)
        assert np.all(np.diff(pos, 2) > -1e-12)
        assert np.all(np.diff(neg, 2) > -1e-12)


class TestDpoLoss:
    def test_equal_rewards(self):
        assert dpo_loss(0.2, 0.2) == pytest.approx(LOG2, abs=1e-12)

    def test_shift_invariance(self, rng):
        for _ in range(50):
            rw, rl, c = rng.normal(0, 2, 3)
            assert dpo_loss(rw + c, rl + c) == pytest.approx(dpo_loss(rw, rl), abs=1e-12)

    def test_unit_margin(self):
        assert dpo_loss(1.0, 0.0) == pytest.approx(0.313262, abs=1e-6)


class TestKtoLoss:
    def test_all_zero_initialization(self):
        assert kto_loss([0.0, 0.0, 0.0], [1, -1, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_hand_rolled_oracle(self):
        rewards = [0.5, -0.2, 0.3]
        labels = [1, -1, 1]
        expected = 0.0
        for i, (r, lab) in enumerate(zip(rewards, labels)):
            z = kto_zref(rewards, i)
            v = 1 / (1 + math.exp(-(r - z))) if lab == 1 else 1 / (1 + math.exp(-(z - r)))
            expected += 1.0 - v
        expected /= len(rewards)
        assert kto_loss(rewards, labels) == pytest.approx(expected, abs=1e-12)

    def test_weight_scaling(self):
        rewards = [0.5, -0.2, 0.3]
        labels = [1, -1, 1]
        base = kto_loss(rewards, labels, 1.0, 1.0)
        assert kto_loss(rewards, labels, 2.0, 2.0) == pytest.approx(2 * base, rel=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(InputError):
            kto_loss([0.1], [1])


class TestBcoLoss:
    def test_all_at_anchor(self):
        out = bco([0.2, 0.2], [0.2], delta=0.2)
        assert out.total == pytest.approx(2 * LOG2, abs=1e-12)

    def test_per_sample_oracle(self, rng):
        pos = rng.normal(0, 1, 5).tolist()
        aux = rng.normal(0, 1, 7).tolist()
        delta = 0.3
        out = bco(pos, aux, delta)
        exp_pos = sum(loss_positive(r, delta) for r in pos) / len(pos)
        exp_aux = sum(loss_negative(r, delta) for r in aux) / len(aux)
        assert out.l_pos == pytest.approx(exp_pos, abs=1e-12)
        assert out.l_aux_neg == pytest.approx(exp_aux, abs=1e-12)
        assert out.total == pytest.approx(exp_pos + exp_aux, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            bco([], [0.1], 0.0)


class TestCbpoRawLoss:
    def test_reduces_to_bco(self, rng):
        pos = rng.normal(0, 1, 4).tolist()
        aux = rng.normal(0, 1, 4).tolist()
        raw = binary_loss(Method.CBPO_RAW, pos, aux, 0.1, LossConfig(alpha=0.0, pi_n=1.0))
        assert raw.total == bco(pos, aux, 0.1).total

    def test_anchor_closed_form(self):
        cfg = LossConfig(alpha=0.4, pi_n=0.8)
        out = binary_loss(Method.CBPO_RAW, [0.0, 0.0], [0.0], 0.0, cfg)
        assert out.l_pos == pytest.approx(LOG2, abs=1e-12)
        assert out.total == pytest.approx(LOG2 + (LOG2 - 0.4 * LOG2) / 0.8, abs=1e-12)

    def test_full_overlap_cancellation(self):
        rewards = [0.3, -0.2, 0.7]
        out = binary_loss(Method.CBPO_RAW, rewards, list(rewards), 0.1, LossConfig(alpha=1.0))
        assert out.pure_neg_raw == 0.0
        assert out.total == out.l_pos


class TestCbpoLoss:
    def test_alpha_zero_is_bco_exactly(self, rng):
        for _ in range(100):
            pos = rng.normal(0, 1.5, int(rng.integers(1, 6))).tolist()
            aux = rng.normal(0, 1.5, int(rng.integers(1, 6))).tolist()
            delta = float(rng.normal(0, 1))
            a = binary_loss(Method.CBPO, pos, aux, delta, LossConfig(alpha=0.0))
            b = bco(pos, aux, delta)
            assert a.total == b.total
            assert a.pure_neg_raw == b.pure_neg_raw

    def test_arithmetic_clamp_inactive(self):
        """l_aux=0.6, l_tar=0.8, alpha=0.5 -> raw 0.2, contribution 0.4."""
        r_tar = softplus_inverse(0.8)
        r_aux = softplus_inverse(0.6)
        out = binary_loss(Method.CBPO, [r_tar], [r_aux], 0.0, LossConfig(alpha=0.5))
        assert out.l_tar_neg == pytest.approx(0.8, abs=1e-12)
        assert out.l_aux_neg == pytest.approx(0.6, abs=1e-12)
        assert out.pure_neg_raw == pytest.approx(0.2, abs=1e-12)
        assert out.total == pytest.approx(out.l_pos + 0.4, abs=1e-12)

    def test_arithmetic_clamp_active(self):
        """l_aux=0.3, l_tar=0.8, alpha=0.5 -> raw -0.1 clamps to 0."""
        r_tar = softplus_inverse(0.8)
        r_aux = softplus_inverse(0.3)
        out = binary_loss(Method.CBPO, [r_tar], [r_aux], 0.0, LossConfig(alpha=0.5))
        assert out.pure_neg_raw == pytest.approx(-0.1, abs=1e-12)
        assert out.pure_neg_clamped == 0.0
        assert out.total == out.l_pos

    def test_clamp_invariant(self, rng):
        for _ in range(200):
            pos = rng.normal(0, 2, 3).tolist()
            aux = rng.normal(0, 2, 3).tolist()
            out = binary_loss(Method.CBPO, pos, aux, 0.0, LossConfig(alpha=0.9))
            assert out.pure_neg_clamped >= 0.0
            assert out.pure_neg_raw <= out.pure_neg_clamped

    def test_full_overlap_limit(self):
        """Identical sets and alpha -> 1: the purified term vanishes."""
        rewards = [0.4, -0.1, 0.9]
        out = binary_loss(Method.CBPO, rewards, list(rewards), 0.2, LossConfig(alpha=1 - 1e-9))
        assert abs(out.pure_neg_raw) < 1e-8

    def test_alpha_one_rejected(self):
        with pytest.raises(ConfigError):
            binary_loss(Method.CBPO, [0.1], [0.1], 0.0, LossConfig(alpha=1.0))
        with pytest.raises(ConfigError):
            LossConfig(alpha=1.2)

    @pytest.mark.parametrize("bad", [{"alpha": 1.2}, {"alpha": -0.1}, {"pi_n": 0},
                                     {"pi_n": 1.5}], ids=repr)
    def test_loss_config_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            LossConfig(**bad)


class TestSftLoss:
    def test_uniform_policy(self):
        policy = uniform_params(4, 3)
        batch = [Sample("u", (0,), (1, 2)), Sample("u", (1,), (3,))]
        assert sft_loss(policy, batch) == pytest.approx(math.log(4), abs=1e-12)

    def test_concentrated_policy(self):
        policy = uniform_params(4, 2)
        policy.logits[:, 2] = 40.0
        assert sft_loss(policy, [Sample("u", (0,), (2, 2))]) < 1e-12

    def test_direct_oracle(self, rng):
        policy = random_params(rng, 5, 3)
        batch = [
            Sample("u", (0,), (1, 2, 3)),
            Sample("u", (2,), (4,)),
            Sample("u", (1,), (0, 0)),
        ]
        total_lp = sum(log_prob(policy, s.x, s.y) for s in batch)
        total_tokens = sum(len(s.y) for s in batch)
        assert sft_loss(policy, batch) == pytest.approx(-total_lp / total_tokens, abs=1e-12)

    def test_empty_rejected(self, rng):
        with pytest.raises(InputError):
            sft_loss(random_params(rng, 4, 2), [])


def _random_batch(rng, vocab, n_pos, n_aux):
    def mk(n):
        return [
            Sample(
                "u",
                tuple(int(t) for t in rng.integers(0, vocab, 2)),
                tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, 4)))),
            )
            for _ in range(n)
        ]

    return batch_of(pos=mk(n_pos), aux=mk(n_aux))


def _pairs_batch(pos, aux):
    """A DPO batch pairing each ``pos[i]`` with ``aux[i]``'s completion as the
    rejected one for its prompt (as many pairs as the shorter side)."""
    rejected = [Sample(p.user_id, p.x, a.y) for p, a in zip(pos, aux)]
    return batch_of(pos=pos[: len(rejected)], aux=rejected)


class TestGradients:
    def test_clamp_active_gradient_is_positive_term_only(self):
        """When the purified term clamps, its gradient contribution is zero."""
        # Target tokens strongly favored vs the reference, aux strongly
        # disfavored: l_aux_neg is tiny while alpha * l_tar_neg dominates.
        policy = uniform_params(2, 1)
        policy.logits[0] = [5.0, -5.0]
        reference = uniform_params(2, 1)
        batch = batch_of(pos=[Sample("u", (0,), (0,))], aux=[Sample("u", (0,), (1,))])
        config = LossConfig(beta=1.0, alpha=0.9)
        breakdown, grad = method_loss_and_grad(
            Method.CBPO, batch, policy, reference, config, 0.0
        )
        assert breakdown.pure_neg_raw < 0.0
        from bfpo.losses import _sigmoids
        from bfpo.policy import (
            encode,
            log_prob_grad,
            scatter_grad,
            sequence_log_probs,
            softmax_tables,
        )
        from bfpo.rewards import RewardConfig, implicit_reward

        # The kernel's own pass, with the auxiliary weight zeroed.
        pos, aux = batch.samples()
        samples = pos + aux
        codes = encode([(s.x, s.y) for s in samples], 1, 2)
        log_table, probs = softmax_tables(policy.logits)
        ref_table, _ = softmax_tables(reference.logits)
        rewards = config.beta * (
            sequence_log_probs(log_table, codes) - sequence_log_probs(ref_table, codes)
        )
        pos_weight = -_sigmoids(rewards[:1] - 0.0)[1] / len(batch.pos)
        weights = config.beta * np.concatenate([pos_weight, [0.0]])
        expected = scatter_grad(probs, codes, weights)
        np.testing.assert_array_equal(grad, expected)
        # Independent oracle: the per-sample reward and log_prob_grad.
        rcfg = RewardConfig(beta=config.beta)
        oracle = np.zeros_like(grad)
        for s in pos:
            r = implicit_reward(policy, reference, rcfg, s.x, s.y)
            w = -1.0 / (1.0 + math.exp(r)) / len(batch.pos)  # sigmoid(r) - 1
            oracle += config.beta * w * log_prob_grad(policy, s.x, s.y)
        np.testing.assert_allclose(grad, oracle, rtol=1e-12)
        _, grad_bco = method_loss_and_grad(
            Method.BCO, batch, policy, reference, config, 0.0
        )
        assert not np.array_equal(grad, grad_bco)

    def test_clamped_gradient_ignores_the_auxiliary_completions(self):
        """While the purified term is clamped, a cbpo run's gradient is its
        positives' alone: other auxiliary completions, still clamped, leave it
        unchanged bit for bit, where the unclamped objective's moves."""
        policy = uniform_params(3, 1)
        policy.logits[0] = [3.0, 0.0, 0.0]  # token 0 favored over the reference
        reference = uniform_params(3, 1)
        config = LossConfig(beta=1.0, alpha=0.9)
        pos = [Sample("u", (0,), (0, 0)), Sample("u", (1,), (0,))]
        grads = {}
        for method in (Method.CBPO, Method.CBPO_RAW):
            for aux in ([(1,), (2, 2)], [(2, 1, 2), (1, 1)]):
                batch = batch_of(pos=pos, aux=[Sample("v", (0,), y) for y in aux])
                breakdown, grads[method, aux[0]] = method_loss_and_grad(
                    method, batch, policy, reference, config, 0.0
                )
                assert breakdown.pure_neg_raw < 0.0
        np.testing.assert_array_equal(grads[Method.CBPO, (1,)], grads[Method.CBPO, (2, 1, 2)])
        assert not np.array_equal(grads[Method.CBPO_RAW, (1,)], grads[Method.CBPO_RAW, (2, 1, 2)])

    def test_dpo_antisymmetric_at_equal_rewards(self, rng):
        policy = random_params(rng, 4, 3)
        reference = snapshot_reference(policy)  # all rewards are 0
        long, short = Sample("u", (0,), (1, 2)), Sample("u", (0,), (3,))
        pair = batch_of(pos=[long], aux=[short])
        swapped = batch_of(pos=[short], aux=[long])
        config = LossConfig(beta=1.0)
        _, g1 = method_loss_and_grad(Method.DPO, pair, policy, reference, config, 0.0)
        _, g2 = method_loss_and_grad(Method.DPO, swapped, policy, reference, config, 0.0)
        np.testing.assert_allclose(g1, -g2, atol=1e-14)

    def test_cbpo_step_raises_low_reward_positive(self):
        """A positive sample below the anchor gains log-probability after a step."""
        policy = uniform_params(2, 1)
        reference = uniform_params(2, 1)
        reference.logits[0, 0] = 2.0  # reward(y=0) < 0 under the uniform policy
        sample = Sample("u", (0,), (0,))
        other = Sample("u", (0,), (1,))
        config = LossConfig(beta=1.0, alpha=0.3)
        _, grad = method_loss_and_grad(
            Method.CBPO, batch_of(pos=[sample], aux=[other]), policy, reference, config, 0.5
        )
        before = log_prob(policy, sample.x, sample.y)
        policy.logits -= 0.05 * grad
        assert log_prob(policy, sample.x, sample.y) > before

    def test_finite_difference_all_methods_smoke(self):
        """Small FD sweep per method; the acceptance suite runs the full one."""
        from bfpo.verification import run_gradient_fd_check

        for method in Method:
            result = run_gradient_fd_check(method, seed=11, cases=6)
            assert result.passed, result.details


class TestMethodLoss:
    def test_sft_dispatch_matches_sft_loss(self, rng):
        policy = random_params(rng, 4, 3)
        batch = _random_batch(rng, 4, 3, 0)
        out = method_loss(Method.SFT, batch, policy, policy, LossConfig(), 0.0)
        assert out.total == sft_loss(policy, batch.samples()[0])

    def test_breakdown_fields_finite(self, rng):
        policy = random_params(rng, 4, 3)
        reference = random_params(rng, 4, 3)
        batch = _random_batch(rng, 4, 2, 3)
        for method in (Method.BCO, Method.CBPO, Method.CBPO_RAW, Method.KTO):
            out = method_loss(method, batch, policy, reference, LossConfig(alpha=0.3), 0.1)
            for field in ("l_pos", "l_aux_neg", "l_tar_neg", "pure_neg_raw",
                          "pure_neg_clamped", "total"):
                assert math.isfinite(getattr(out, field))

    @staticmethod
    def _batch(rng, method, n_pos, n_aux):
        batch = _random_batch(rng, 4, n_pos, n_aux)
        if method is Method.DPO:
            pos, aux = _random_batch(rng, 4, n_pos, n_pos).samples()
            batch = _pairs_batch(pos, aux)
        return batch

    @pytest.mark.parametrize("method", list(Method))
    def test_reference_shape_must_match_the_policy(self, rng, method):
        """Every method but SFT, which reads no reference, rejects a reference
        of another shape."""
        policy = random_params(rng, 4, 3)
        reference = random_params(rng, 4, 2)
        batch = self._batch(rng, method, 2, 3)
        config = LossConfig(alpha=0.3)
        if method is Method.SFT:
            out = method_loss(method, batch, policy, reference, config, 0.0)
            assert out.total == sft_loss(policy, batch.samples()[0])
            return
        for loss_fn in (method_loss, method_loss_and_grad):
            with pytest.raises(InputError, match="shapes differ"):
                loss_fn(method, batch, policy, reference, config, 0.0)

    @pytest.mark.parametrize("method", list(Method))
    def test_batch_without_positives_rejected(self, rng, method):
        policy = random_params(rng, 4, 3)
        batch = self._batch(rng, method, 0, 3)
        for loss_fn in (method_loss, method_loss_and_grad):
            with pytest.raises(InputError, match="needs positive samples"):
                loss_fn(method, batch, policy, policy, LossConfig(alpha=0.3), 0.0)

    @pytest.mark.parametrize("method", [Method.BCO, Method.CBPO_RAW, Method.CBPO])
    def test_binary_batch_without_auxiliaries_rejected(self, rng, method):
        policy = random_params(rng, 4, 3)
        batch = self._batch(rng, method, 3, 0)
        for loss_fn in (method_loss, method_loss_and_grad):
            with pytest.raises(InputError, match="needs auxiliary samples"):
                loss_fn(method, batch, policy, policy, LossConfig(alpha=0.3), 0.0)


    def test_dpo_batch_of_unequal_sides_rejected(self, rng):
        """A DPO batch pairs its i-th positive with its i-th auxiliary."""
        policy = random_params(rng, 4, 3)
        batch = _random_batch(rng, 4, 2, 3)
        for loss_fn in (method_loss, method_loss_and_grad):
            with pytest.raises(InputError, match="2 preferred completions for 3 rejected"):
                loss_fn(Method.DPO, batch, policy, policy, LossConfig(), 0.0)


_LAYOUT_SIZES = [
    ([3], [2]), ([3], [0]), ([0], [2]), ([4, 1, 2], [5, 3, 6]), ([4, 1, 2], [5, 0, 6]),
]


class TestLayout:
    @pytest.mark.parametrize("n_pos, n_aux", _LAYOUT_SIZES)
    def test_per_sequence_arrays_follow_the_sides(self, n_pos, n_aux):
        """Each sequence's run, side, bin and bin size, and each run's span,
        as a loop over the runs' positives then auxiliaries gives them."""
        from bfpo.losses import Layout

        layout = Layout.build(n_pos, n_aux)
        run, pos, seg, count, spans = [], [], [], [], []
        for r, (p, a) in enumerate(zip(n_pos, n_aux)):
            spans.append((len(run), len(run) + p + a, p))
            for positive, size in ((True, p), (False, a)):
                run += [r] * size
                pos += [positive] * size
                seg += [2 * r + (0 if positive else 1)] * size
                count += [size] * size
        assert layout.run.tolist() == run and layout.pos.tolist() == pos
        assert layout.seg.tolist() == seg and layout.count.tolist() == count
        assert layout.sides.tolist() == [n for pair in zip(n_pos, n_aux) for n in pair]
        assert layout.sizes.tolist() == [p + a for p, a in zip(n_pos, n_aux)]
        assert layout.spans == tuple(spans)

    @pytest.mark.parametrize("n_pos, n_aux", _LAYOUT_SIZES)
    def test_both_sides_is_every_bin_non_empty(self, n_pos, n_aux):
        """The guard field, computed once per layout, equals ``sides.all()``
        for a layout made afresh and for the cached one."""
        from bfpo.losses import Layout

        for layout in (Layout.build(n_pos, n_aux), Layout.of(n_pos, n_aux)):
            assert layout.both_sides is bool(layout.sides.all())
        assert Layout.of(n_pos, n_aux) is Layout.of(n_pos, n_aux)


class TestKernelLossValues:
    """The kernel's loss values equal the closed forms on per-sample rewards."""

    def test_binary_methods_bit_identical(self, rng):
        from bfpo.rewards import RewardConfig, implicit_reward

        for _ in range(20):
            policy = random_params(rng, 5, 3)
            reference = random_params(rng, 5, 3)
            batch = _random_batch(rng, 5, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            config = LossConfig(beta=0.7, alpha=0.4, pi_n=0.8)
            delta = float(rng.normal(0.0, 0.5))
            rcfg = RewardConfig(beta=config.beta)
            pos_s, aux_s = batch.samples()
            pos = [implicit_reward(policy, reference, rcfg, s.x, s.y) for s in pos_s]
            aux = [implicit_reward(policy, reference, rcfg, s.x, s.y) for s in aux_s]
            closed = {
                method: binary_loss(method, pos, aux, delta, config)
                for method in (Method.BCO, Method.CBPO_RAW, Method.CBPO)
            }
            for method, want in closed.items():
                got = method_loss(method, batch, policy, reference, config, delta)
                assert got == want

    def test_dpo_and_sft_bit_identical(self, rng):
        from bfpo.rewards import RewardConfig, implicit_reward

        policy = random_params(rng, 5, 3)
        reference = random_params(rng, 5, 3)
        pos, aux = _random_batch(rng, 5, 4, 4).samples()
        pairs = _pairs_batch(pos, aux)
        config = LossConfig(beta=0.5)
        rcfg = RewardConfig(beta=config.beta)
        total = 0.0
        for win, lose in zip(*pairs.samples()):
            total += dpo_loss(
                implicit_reward(policy, reference, rcfg, win.x, win.y),
                implicit_reward(policy, reference, rcfg, lose.x, lose.y),
            )
        got = method_loss(Method.DPO, pairs, policy, reference, config, 0.0)
        assert got.total == total / len(pairs.pos)
        total_lp = 0.0
        for s in pos:
            total_lp += log_prob(policy, s.x, s.y)
        tokens = sum(len(s.y) for s in pos)
        assert sft_loss(policy, pos) == -total_lp / tokens

    @pytest.mark.parametrize("method", [Method.SFT, Method.DPO, Method.BCO, Method.CBPO_RAW,
                                        Method.CBPO])
    def test_stacked_runs_equal_per_sample_loops(self, rng, method):
        """Four runs scored as one stack, each with its own table, alpha and
        anchor and 30 to 60 samples a side (where numpy's pairwise sum would
        reorder a mean): every run's breakdown equals its per-sample loops."""
        from bfpo.losses import (
            BREAKDOWN_COLUMNS, LossBreakdown, Layout, Stack, encode_batch, score, scored_loss,
        )
        from bfpo.policy import PolicyParams, sequence_log_probs, softmax_tables, stack_codes
        from bfpo.rewards import RewardConfig, implicit_reward

        vocab, context, beta = 5, 3, 0.7
        policies = [random_params(rng, vocab, context) for _ in range(4)]
        references = [random_params(rng, vocab, context) for _ in range(4)]
        batches = [_random_batch(rng, vocab, int(rng.integers(30, 61)), int(rng.integers(30, 61)))
                   for _ in range(4)]
        if method is Method.DPO:
            batches = [_pairs_batch(*b.samples()) for b in batches]
        configs = [LossConfig(beta=beta, alpha=a, pi_n=0.8) for a in (0.1, 0.45, 0.8, 0.3)]
        deltas = [float(d) for d in rng.normal(0.0, 0.5, 4)]
        codes = [encode_batch(b, context, vocab) for b in batches]
        codes = stack_codes(codes, context, vocab)
        ref_table = softmax_tables(np.concatenate([r.logits for r in references]))[0]
        stack = Stack(batches, codes, Layout.of([len(b.pos) for b in batches],
                                                [len(b.aux) for b in batches]),
                      None if method is Method.SFT else sequence_log_probs(ref_table, codes))
        table = PolicyParams(vocab, 4 * context, np.concatenate([p.logits for p in policies]))
        got, _ = scored_loss(method, score(method, stack, table, beta),
                                 loss_terms(method, configs), deltas)

        rcfg = RewardConfig(beta=beta)
        reordered = False  # whether np.sum would give some mean another value
        for run, (policy, reference, batch, config, delta) in enumerate(
            zip(policies, references, batches, configs, deltas)
        ):
            pos, aux = batch.samples()
            if method is Method.SFT:
                terms = [[log_prob(policy, s.x, s.y) for s in pos]]
                tokens = sum(len(s.y) for s in pos)
                want = LossBreakdown(method, total=-_loop_sum(terms[0]) / tokens)
            elif method is Method.DPO:
                terms = [[dpo_loss(implicit_reward(policy, reference, rcfg, w.x, w.y),
                                   implicit_reward(policy, reference, rcfg, l.x, l.y))
                          for w, l in zip(pos, aux)]]
                want = LossBreakdown(method, total=_loop_sum(terms[0]) / len(pos))
            else:
                r_pos = [implicit_reward(policy, reference, rcfg, s.x, s.y) for s in pos]
                r_aux = [implicit_reward(policy, reference, rcfg, s.x, s.y) for s in aux]
                terms = [[loss_positive(r, delta) for r in r_pos],
                         [loss_negative(r, delta) for r in r_aux],
                         [loss_negative(r, delta) for r in r_pos]]
                sums = [_loop_sum(t) for t in terms]
                l_pos, l_aux_neg, l_tar_neg = (
                    sums[0] / len(r_pos), sums[1] / len(r_aux), sums[2] / len(r_pos)
                )
                alpha, divisor, clamped = {
                    Method.BCO: (0.0, 1.0, False),
                    Method.CBPO_RAW: (config.alpha, config.pi_n, False),
                    Method.CBPO: (config.alpha, 1.0 - config.alpha, True),
                }[method]
                raw = l_aux_neg - alpha * l_tar_neg
                want = LossBreakdown(
                    method, l_pos, l_aux_neg, l_tar_neg, raw, max(0.0, raw),
                    l_pos + (max(0.0, raw) if clamped else raw) / divisor,
                )
            assert got[run].tolist() == [getattr(want, c) for c in BREAKDOWN_COLUMNS], run
            reordered |= any(float(np.sum(t)) != _loop_sum(t) for t in terms)
        assert reordered


def _loop_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _lone_breakdown_row(breakdown):
    from bfpo.losses import BREAKDOWN_COLUMNS

    return [getattr(breakdown, c) for c in BREAKDOWN_COLUMNS]


class TestScoredLossColumns:
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_columns_equal_lone_breakdowns(self, rng, method):
        """Row r of the columns holds run r's breakdown fields, for a lone
        batch (R = 1) and for every run of an R = 3 stack, 0.0 where a field
        does not apply."""
        from bfpo.losses import BREAKDOWN_COLUMNS, Layout, Stack, encode_batch, score, scored_loss
        from bfpo.policy import PolicyParams, sequence_log_probs, softmax_tables, stack_codes

        vocab, context, beta = 5, 3, 0.7
        policies = [random_params(rng, vocab, context) for _ in range(3)]
        references = [random_params(rng, vocab, context) for _ in range(3)]
        batches = [_random_batch(rng, vocab, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                   for _ in range(3)]
        if method is Method.DPO:
            batches = [_pairs_batch(*b.samples()) for b in batches]
        configs = [LossConfig(beta=beta, alpha=a, pi_n=0.8, lambda_d=d, lambda_u=u)
                   for a, d, u in ((0.1, 1.0, 0.5), (0.45, 1.5, 1.0), (0.8, 0.7, 2.0))]
        deltas = [float(d) for d in rng.normal(0.0, 0.5, 3)]
        lone = [method_loss(method, *args) for args in
                zip(batches, policies, references, configs, deltas)]
        unused = len(BREAKDOWN_COLUMNS) - 1 if method in (Method.SFT, Method.DPO, Method.KTO) else 0

        for args, want in zip(zip(batches, policies, references, configs, deltas), lone):
            batch, policy, reference, config, delta = args
            stack = Stack.of(method, batch, policy, reference)
            values, _ = scored_loss(method, score(method, stack, policy, beta),
                                   loss_terms(method, [config]), [delta])
            assert values.shape == (1, len(BREAKDOWN_COLUMNS))
            assert values[0].tolist() == _lone_breakdown_row(want)
            assert values[0, :unused].tolist() == [0.0] * unused

        codes = stack_codes([encode_batch(b, context, vocab) for b in batches], context, vocab)
        ref_table = softmax_tables(np.concatenate([r.logits for r in references]))[0]
        stack = Stack(batches, codes, Layout.of([len(b.pos) for b in batches],
                                                [len(b.aux) for b in batches]),
                      None if method is Method.SFT else sequence_log_probs(ref_table, codes))
        table = PolicyParams(vocab, 3 * context, np.concatenate([p.logits for p in policies]))
        values, _ = scored_loss(method, score(method, stack, table, beta),
                                 loss_terms(method, configs), deltas)
        assert values.shape == (3, len(BREAKDOWN_COLUMNS))
        for row, want in zip(values.tolist(), lone):
            assert row == _lone_breakdown_row(want)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_runs_of_different_context_sizes_and_betas(self, rng, method):
        """Runs whose tables have different row counts (``stack_codes`` with a
        context size per part) and whose configs differ in beta (``score``
        with a beta per sequence) each equal their lone
        ``method_loss_and_grad``: columns and gradient rows bit for bit."""
        from bfpo.losses import Layout, Stack, encode_batch, score, scored_loss
        from bfpo.policy import PolicyParams, sequence_log_probs, softmax_tables, stack_codes

        vocab, contexts, betas = 4, (2, 5, 3), (0.4, 1.3, 0.9)
        policies = [random_params(rng, vocab, c) for c in contexts]
        references = [random_params(rng, vocab, c) for c in contexts]
        batches = [_random_batch(rng, vocab, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
                   for _ in contexts]
        if method is Method.DPO:
            batches = [_pairs_batch(*b.samples()) for b in batches]
        configs = [LossConfig(beta=b, alpha=0.3, pi_n=0.8) for b in betas]
        deltas = [0.2, -0.4, 0.1]
        codes = stack_codes(
            [encode_batch(b, c, vocab) for b, c in zip(batches, contexts)], list(contexts), vocab
        )
        layout = Layout.build([len(b.pos) for b in batches], [len(b.aux) for b in batches])
        ref_table = softmax_tables(np.concatenate([r.logits for r in references]))[0]
        stack = Stack(batches, codes, layout,
                      None if method is Method.SFT else sequence_log_probs(ref_table, codes))
        table = PolicyParams(vocab, sum(contexts), np.concatenate([p.logits for p in policies]))
        scores = score(method, stack, table, np.array(betas)[layout.run])
        values, grad = scored_loss(method, scores, loss_terms(method, configs), deltas,
                                   want_grad=True)
        first = 0
        for run, args in enumerate(zip(batches, policies, references, configs, deltas)):
            want, want_grad = method_loss_and_grad(method, *args)
            assert values[run].tolist() == _lone_breakdown_row(want)
            rows = grad[first:first + contexts[run]]
            assert rows.tobytes() == want_grad.tobytes()
            first += contexts[run]

    def test_clamp_is_python_max(self):
        """The clamped column is max(0.0, raw): 0.0 for a raw of -0.0 or NaN,
        where np.maximum would give -0.0 or NaN."""
        from bfpo.losses import _binary_row

        for l_aux_neg, raw_is in ((-0.0, np.signbit), (float("nan"), np.isnan)):
            row = _binary_row((0.5, 0.5, True), 0.25, l_aux_neg, 0.0)
            assert raw_is(row[3]) and raw_is(np.maximum(0.0, row[3]))
            assert row[4] == 0.0 and not np.signbit(row[4])
            assert row[5] == 0.25
            unclamped = _binary_row((0.5, 0.5, False), 0.25, l_aux_neg, 0.0)
            assert unclamped[4] == 0.0 and not np.signbit(unclamped[4])

    def test_nan_raw_clamps_to_zero(self):
        with np.errstate(invalid="ignore"):  # softplus of a NaN reward
            out = binary_loss(Method.CBPO, [float("nan")], [0.1], 0.0, LossConfig(alpha=0.5))
        assert math.isnan(out.pure_neg_raw)
        assert out.pure_neg_clamped == 0.0 and not math.copysign(1.0, out.pure_neg_clamped) < 0

    def test_kto_values_equal_kto_loss(self, rng):
        """The one-pass KTO value equals :func:`kto_loss`, run by run, bit for
        bit, on random stacks of 1-4 runs, with the anchors computed or given."""
        from bfpo.losses import BREAKDOWN_COLUMNS, Layout, Scores, Stack, scored_loss
        from bfpo.rewards import kto_zrefs

        total = BREAKDOWN_COLUMNS.index("total")
        for trial in range(300):
            runs = int(rng.integers(1, 5))
            n_pos, n_aux = rng.integers(1, 6, runs), rng.integers(1, 6, runs)
            layout = Layout.build(n_pos.tolist(), n_aux.tolist())
            rewards = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])), int(layout.sizes.sum()))
            rewards[rng.random(len(rewards)) < 0.1] = 0.0
            configs = [LossConfig(lambda_d=float(rng.uniform(0.5, 2.0)),
                                  lambda_u=float(rng.uniform(0.5, 2.0))) for _ in range(runs)]
            zrefs = None
            if trial % 2:
                zrefs = rng.normal(0.0, 1.0, len(rewards)).tolist()
            scores = Scores(Stack([], None, layout, None), 1.0, None, None, rewards)
            got = scored_loss(Method.KTO, scores, loss_terms(Method.KTO, configs), [0.0] * runs,
                              zrefs)[0][:, total]
            for (a, b, p), config, value in zip(layout.spans, configs, got.tolist()):
                anchors = kto_zrefs(rewards[a:b]) if zrefs is None else zrefs[a:b]
                want = kto_loss(rewards[a:b].tolist(), [1] * p + [-1] * (b - a - p),
                                config.lambda_d, config.lambda_u, zrefs=list(anchors))
                assert value == want or (math.isnan(value) and math.isnan(want))
