"""Implicit rewards and the three reference-point estimators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bfpo.errors import InputError
from bfpo.policy import bucket, ordered_sum, ordered_sums, snapshot_reference
from bfpo.rewards import (
    ReferenceState,
    RewardConfig,
    ema_anchor,
    ema_fold,
    implicit_reward,
    kto_zrefs,
)

from conftest import random_params
from oracles import delta_joint, kto_zref


class TestImplicitReward:
    def test_identical_policies_reward_zero(self, rng):
        params = random_params(rng, 4, 3)
        frozen = snapshot_reference(params)
        cfg = RewardConfig(beta=1.0)
        for y in [(0,), (1, 2), (3, 3, 0)]:
            assert implicit_reward(params, frozen, cfg, (0,), y) == 0.0

    def test_linear_in_beta(self, rng):
        policy = random_params(rng, 4, 3)
        reference = random_params(rng, 4, 3)
        r1 = implicit_reward(policy, reference, RewardConfig(beta=1.0), (1,), (2, 0))
        r2 = implicit_reward(policy, reference, RewardConfig(beta=2.0), (1,), (2, 0))
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        """Independent per-step softmax computation of both log-probs."""
        policy = random_params(rng, 3, 2)
        reference = random_params(rng, 3, 2)
        beta = 0.7
        x, y = (2,), (0, 1, 2)

        def direct(params):
            total = 0.0
            for t, tok in enumerate(y):
                row = params.logits[bucket(x, t, params.context_size)]
                probs = np.exp(row) / np.exp(row).sum()
                total += math.log(probs[tok])
            return total

        expected = beta * (direct(policy) - direct(reference))
        got = implicit_reward(policy, reference, RewardConfig(beta=beta), x, y)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InputError):
            implicit_reward(
                random_params(rng, 4, 3),
                random_params(rng, 5, 3),
                RewardConfig(),
                (0,),
                (1,),
            )


class TestLeftToRightSum:
    """Batch means add left to right from 0.0, so they do not depend on the
    Python version (3.12's builtin ``sum`` of floats is compensated)."""

    def test_cancellation_is_not_compensated(self):
        values = [1e16, 1.0, -1e16]
        assert ordered_sum(np.array(values)) == 0.0
        assert math.fsum(values) == 1.0
        assert delta_joint(values[:2], values[2:]) == 0.0

    def test_per_group_sums_equal_ordered_sum(self):
        """ordered_sums adds each group's values left to right from 0.0, as
        ordered_sum adds one group's, even with the groups interleaved: equal
        bit for bit through signed zeros, NaN, inf and subnormals, and for a
        group of 24 where numpy's pairwise sum differs."""
        tiny = 5e-324  # the smallest subnormal
        wide = np.random.default_rng(0).normal(size=24).tolist()
        groups = [
            [-0.0], [-0.0, -0.0], [0.0, -0.0], [math.nan, 1.0], [math.inf, -1e308],
            [math.inf, -math.inf], [tiny, tiny, -tiny], [tiny / 2 + tiny, 1e-310],
            [1e16, 1.0, -1e16], wide,
        ]
        # Round-robin over the groups, each group's values in their order.
        values, ids = [], []
        for k in range(max(map(len, groups))):
            for g, group in enumerate(groups):
                if k < len(group):
                    values.append(group[k])
                    ids.append(g)
        got = ordered_sums(np.array(values), np.array(ids), len(groups))
        want = np.array([ordered_sum(np.array(group)) for group in groups])
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[0]) == 1.0  # 0.0 + -0.0 is +0.0
        assert float(np.sum(wide)) != want[-1]


class TestDeltaJoint:
    def test_symmetric_sets_anchor_at_zero(self):
        assert delta_joint([1.0], [-1.0]) == 0.0

    def test_arithmetic(self):
        assert delta_joint([0.4], [0.2]) == pytest.approx(0.3, abs=1e-15)

    def test_duplicating_both_sets_leaves_it(self):
        """Dyadic rewards make every sum exact, so the means agree bit for bit."""
        assert delta_joint([0.5, 0.25], [0.125]) == delta_joint(
            [0.5, 0.25, 0.5, 0.25], [0.125, 0.125]
        )

    def test_dominant_set_pulls_it(self):
        """The pooled mean weights each set by its size: tripling the
        positives moves the anchor from 0 to halfway toward them."""
        assert delta_joint([1.0] * 3, [-1.0]) == 0.5

    @pytest.mark.parametrize(
        "pos, aux", [([], [0.1]), ([0.1], [])], ids=["no_positives", "no_auxiliaries"]
    )
    def test_empty_rejected(self, pos, aux):
        with pytest.raises(InputError):
            delta_joint(pos, aux)


class TestKtoZref:
    def test_leave_one_out(self):
        assert kto_zref([0.5, -0.2, 0.3], 0) == pytest.approx(0.05, abs=1e-12)

    def test_all_zero(self):
        assert kto_zref([0.0, 0.0, 0.0], 1) == 0.0

    def test_clipping_active(self):
        assert kto_zref([-1.0, -1.0, 0.0], 2) == 0.0

    def test_nonnegative_property(self, rng):
        for _ in range(200):
            rewards = rng.normal(0, 2, int(rng.integers(2, 8))).tolist()
            idx = int(rng.integers(len(rewards)))
            assert kto_zref(rewards, idx) >= 0.0

    def test_singleton_rejected(self):
        with pytest.raises(InputError):
            kto_zref([0.5], 0)
        with pytest.raises(InputError):
            kto_zrefs(np.array([0.5]))

    def test_vectorized_anchors_bit_identical(self, rng):
        """kto_zrefs equals kto_zref at every index, bit for bit, from n = 2
        up, with the clip at 0 active on some anchors and not on others."""
        clipped = unclipped = 0
        for _ in range(500):
            rewards = rng.normal(0.0, 2.0, int(rng.integers(2, 25)))
            got = kto_zrefs(rewards)
            want = [kto_zref(rewards.tolist(), i) for i in range(len(rewards))]
            assert got.tolist() == want
            clipped += sum(z == 0.0 for z in want)
            unclipped += sum(z > 0.0 for z in want)
        assert clipped > 0 and unclipped > 0

    @pytest.mark.parametrize(
        "rewards",
        [[0.3, -0.7], [-0.3, 0.7], [-1.0, -2.0], [0.0, -0.0, 0.0], [-0.0, 5e-324, 1.0],
         [float("nan"), 1.0, 2.0], [float("inf"), -1.0, 0.5]],
    )
    def test_vectorized_anchors_edge_cases(self, rewards):
        got = kto_zrefs(np.array(rewards))
        assert got.tolist() == [kto_zref(rewards, i) for i in range(len(rewards))]


class TestEma:
    def test_initialized_update(self):
        assert ema_fold(0.0, 1.0, 0.9) == pytest.approx(0.1, abs=1e-15)

    def test_decay_weights_the_old_statistic(self):
        assert ema_fold(1.0, 0.0, 0.9) == 0.9

    def test_geometric_convergence_oracle(self):
        """Gap shrinks as decay^k: below 1e-6 after ceil(ln 1e-6 / ln decay) steps."""
        decay = 0.9
        ema_pos = ema_aux = 0.0
        for _ in range(math.ceil(math.log(1e-6) / math.log(decay))):
            ema_pos, ema_aux = ema_fold(ema_pos, 1.0, decay), ema_fold(ema_aux, -0.5, decay)
        assert abs(ema_pos - 1.0) < 1e-6
        assert abs(ema_aux + 0.5) < 1e-6

    def test_bad_decay(self):
        with pytest.raises(InputError):
            ReferenceState(decay=1.0)


class TestEmaAnchor:
    def test_symmetry_and_arithmetic(self):
        assert ema_anchor(0.4, -0.4) == 0.0
        assert ema_anchor(0.6, 0.2) == pytest.approx(0.4, abs=1e-15)

    def test_agrees_with_delta_joint_of_one_each(self):
        """With one reward per set the two anchors are the same mean."""
        assert ema_anchor(0.37, -0.11) == delta_joint([0.37], [-0.11])


class TestBatchCompositionInvariance:
    def test_decoupled_vs_joint(self):
        """Identical per-set reward streams under aux:pos ratios 0.5/1.0/1.5:
        the decoupled anchor is ratio-invariant while the joint mean shifts by
        the predictable weighted-mean gap."""
        pos_mean, aux_mean = 0.4, -0.6
        balanced = 0.5 * (pos_mean + aux_mean)
        deltas = []
        for x in (0.5, 1.0, 1.5):
            n_pos, n_aux = 2, round(2 * x)
            # The first step seeds each EMA with its batch mean, as the trainer does.
            ema_pos, ema_aux = pos_mean, aux_mean
            for _ in range(300):
                ema_pos = ema_fold(ema_pos, pos_mean, 0.9)
                ema_aux = ema_fold(ema_aux, aux_mean, 0.9)
            deltas.append(ema_anchor(ema_pos, ema_aux))
            joint = delta_joint([pos_mean] * n_pos, [aux_mean] * n_aux)
            predicted = ((x - 1.0) / (x + 1.0)) * (aux_mean - pos_mean) / 2.0
            assert joint - balanced == pytest.approx(predicted, abs=1e-12)
        assert max(deltas) - min(deltas) < 1e-9
        assert max(abs(d - balanced) for d in deltas) < 1e-9
