"""Implicit rewards and the reference-point ("delta") estimators.

The reward of a completion is the beta-scaled log-ratio of the live policy to a
frozen reference policy.  All binary-feedback objectives anchor that reward to
a scalar reference point delta.  This module provides the leave-one-out
clipped anchor (:func:`kto_zrefs`) and the decoupled-EMA anchor
(:func:`ema_fold` and :func:`ema_anchor`), which stays invariant to
batch-level imbalance between positive and auxiliary samples.  The trainer
folds each run's EMAs as floats with :func:`ema_fold`, and takes the pooled
batch-mean anchor (``delta_mode="batch"``) with per-run sums.
:func:`implicit_reward` is the per-sample reward its kernels are tested
against; the loop forms of the pooled anchor (``delta_joint``) and of the
leave-one-out anchor (``kto_zref``) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .policy import PolicyParams, log_prob
from .schema import Interval, check, declared

__all__ = [
    "ReferenceState",
    "RewardConfig",
    "ema_anchor",
    "ema_fold",
    "implicit_reward",
    "kto_zrefs",
]


# The reward scale, which the loss and train configs take too.
BETA = Interval(0, ends="()")
# The decay of the decoupled EMAs, which the train config takes too.
EMA_DECAY = Interval(0, 1, "()")


@dataclass(frozen=True)
class RewardConfig:
    """Scaling of the policy/reference log-ratio."""

    beta: float = declared(BETA, 1.0)

    def __post_init__(self) -> None:
        check(self, InputError)


@dataclass(frozen=True)
class ReferenceState:
    """Decoupled EMA statistics of positive-set and auxiliary-set rewards, as a
    trained run's result and checkpoint hold them.

    A run that took no binary-feedback step is uninitialized; the first step
    seeds both EMAs with the raw batch means so training does not start from
    an artificial zero anchor.
    """

    ema_pos: float = 0.0
    ema_aux: float = 0.0
    decay: float = declared(EMA_DECAY, 0.99)
    initialized: bool = False

    def __post_init__(self) -> None:
        check(self, InputError)


def implicit_reward(
    policy: PolicyParams,
    reference_policy: PolicyParams,
    config: RewardConfig,
    x: Sequence[int],
    y: Sequence[int],
) -> float:
    """beta * (log p_policy(y|x) - log p_reference(y|x))."""
    if (
        policy.vocab_size != reference_policy.vocab_size
        or policy.context_size != reference_policy.context_size
    ):
        raise InputError(
            "policy and reference shapes differ: "
            f"({policy.context_size}, {policy.vocab_size}) vs "
            f"({reference_policy.context_size}, {reference_policy.vocab_size})"
        )
    return config.beta * (log_prob(policy, x, y) - log_prob(reference_policy, x, y))


def kto_zrefs(batch_rewards: np.ndarray) -> np.ndarray:
    """``kto_zref`` (``tests/oracles.py``) of every index, bit for bit (KTO's
    z_ref, Ethayarajh et al. 2024, arXiv:2402.01306): ``np.cumsum`` adds row
    i of the reward matrix, diagonal zeroed, in the loop's order, and the
    clip maps NaN to 0.0 as ``max(0.0, nan)`` does."""
    n = len(batch_rewards)
    if n < 2:
        raise InputError("the leave-one-out anchor needs a batch of size >= 2")
    others = np.tile(np.asarray(batch_rewards, dtype=np.float64), (n, 1))
    np.fill_diagonal(others, 0.0)
    z = np.cumsum(others, axis=1)[:, -1] / (n - 1)
    return np.where(z > 0.0, z, 0.0)


def ema_fold(ema: float, batch_mean: float, decay: float) -> float:
    """One set's decoupled EMA after folding in a batch's mean: the one update
    formula, which the trainer's per-run floats and the invariance check both
    run."""
    return decay * ema + (1.0 - decay) * batch_mean


def ema_anchor(ema_pos: float, ema_aux: float) -> float:
    """The decoupled-EMA anchor: the mean of the two sets' statistics."""
    return 0.5 * (ema_pos + ema_aux)

