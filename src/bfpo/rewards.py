"""Implicit rewards and the three reference-point ("delta") estimators.

The reward of a completion is the beta-scaled log-ratio of the live policy to a
frozen reference policy.  All binary-feedback objectives anchor that reward to
a scalar reference point delta; this module provides the batch-mean anchor, the
leave-one-out clipped anchor, and the decoupled-EMA anchor that stays invariant
to batch-level imbalance between positive and auxiliary samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError, StateError
from .policy import PolicyParams, log_prob, ordered_sum

__all__ = [
    "ReferenceState",
    "RewardConfig",
    "delta_bco",
    "delta_ema",
    "delta_joint",
    "ema_anchor",
    "ema_fold",
    "ema_update",
    "implicit_reward",
    "kto_zref",
    "kto_zrefs",
]


@dataclass(frozen=True)
class RewardConfig:
    """Scaling of the policy/reference log-ratio."""

    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InputError(f"beta must be a positive finite real, got {self.beta}")


@dataclass(frozen=True)
class ReferenceState:
    """Decoupled EMA statistics of positive-set and auxiliary-set rewards.

    Before the first update the state is uninitialized and delta queries fail;
    the first update seeds both EMAs with the raw batch means so training does
    not start from an artificial zero anchor.
    """

    ema_pos: float = 0.0
    ema_aux: float = 0.0
    decay: float = 0.99
    initialized: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise InputError(f"decay must lie in (0, 1), got {self.decay}")


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


def _mean(values: Sequence[float], name: str) -> float:
    if len(values) == 0:
        raise InputError(f"{name} must be non-empty")
    return ordered_sum(np.asarray(values, dtype=np.float64)) / len(values)


def delta_bco(pos_rewards: Sequence[float], aux_rewards: Sequence[float]) -> float:
    """Mean of the two per-set reward means."""
    return 0.5 * (_mean(pos_rewards, "pos_rewards") + _mean(aux_rewards, "aux_rewards"))


def delta_joint(pos_rewards: Sequence[float], aux_rewards: Sequence[float]) -> float:
    """Pooled mean over both sets jointly.

    Unlike :func:`delta_bco` this estimator shifts toward whichever set
    dominates the batch, which is exactly the imbalance sensitivity the
    decoupled EMA removes.
    """
    if len(pos_rewards) == 0 or len(aux_rewards) == 0:
        raise InputError("both reward sets must be non-empty")
    return _mean(list(pos_rewards) + list(aux_rewards), "rewards")


def kto_zref(batch_rewards: Sequence[float], index: int) -> float:
    """Leave-one-out batch mean, clipped at zero."""
    if len(batch_rewards) < 2:
        raise InputError("leave-one-out reference needs a batch of size >= 2")
    if not 0 <= index < len(batch_rewards):
        raise InputError(f"index {index} out of range for batch of {len(batch_rewards)}")
    total = 0.0
    for i, v in enumerate(batch_rewards):
        if i != index:
            total += float(v)
    return max(0.0, total / (len(batch_rewards) - 1))


def kto_zrefs(batch_rewards: np.ndarray) -> np.ndarray:
    """:func:`kto_zref` of every index, bit for bit (KTO's z_ref, Ethayarajh et
    al. 2024, arXiv:2402.01306): ``np.cumsum`` adds row i of the reward matrix,
    diagonal zeroed, in the loop's order, and the clip maps NaN to 0.0 as
    ``max(0.0, nan)`` does."""
    n = len(batch_rewards)
    if n < 2:
        raise InputError("the leave-one-out anchor needs a batch of size >= 2")
    others = np.tile(np.asarray(batch_rewards, dtype=np.float64), (n, 1))
    np.fill_diagonal(others, 0.0)
    z = np.cumsum(others, axis=1)[:, -1] / (n - 1)
    return np.where(z > 0.0, z, 0.0)


def ema_fold(ema: float, batch_mean: float, decay: float) -> float:
    """One set's decoupled EMA after folding in a batch's mean: the one update
    formula, which :func:`ema_update`, the trainer's per-run floats and the
    invariance check all run."""
    return decay * ema + (1.0 - decay) * batch_mean


def ema_update(
    state: ReferenceState, batch_pos_mean: float, batch_aux_mean: float
) -> ReferenceState:
    """Fold one batch's per-set reward means into the decoupled EMAs."""
    if not (math.isfinite(batch_pos_mean) and math.isfinite(batch_aux_mean)):
        raise NumericError(
            f"non-finite batch reward means ({batch_pos_mean}, {batch_aux_mean})"
        )
    d = state.decay
    if not state.initialized:
        return ReferenceState(float(batch_pos_mean), float(batch_aux_mean), d, True)
    return ReferenceState(
        ema_fold(state.ema_pos, batch_pos_mean, d), ema_fold(state.ema_aux, batch_aux_mean, d),
        d, True,
    )


def ema_anchor(ema_pos: float, ema_aux: float) -> float:
    """The decoupled-EMA anchor: the mean of the two sets' statistics."""
    return 0.5 * (ema_pos + ema_aux)


def delta_ema(state: ReferenceState) -> float:
    """:func:`ema_anchor` of an updated state's statistics."""
    if not state.initialized:
        raise StateError("reference state queried before the first EMA update")
    return ema_anchor(state.ema_pos, state.ema_aux)
