"""Training objectives: SFT, DPO, KTO, BCO and the calibrated binary objectives.

Every binary-feedback objective is built from two per-sample sigmoid losses on
the anchored reward g = reward - delta:

    positive-label loss  -log sigmoid(g)    (small when the sample is preferred)
    negative-label loss  -log sigmoid(-g)   (small when it is non-preferred)

BCO and the two calibrated objectives are one formula, the PU risk of
Kiryo et al. (2017) with the auxiliary set as the unlabeled mixture:

    total = l_pos + clamp?(l_aux_neg - alpha * l_tar_neg) / divisor

where l_pos is the positive-label mean over the positives and l_aux_neg,
l_tar_neg are the negative-label means over the auxiliaries and the positives.
The purified term subtracts the positives' expected share, scaled by the
overlap coefficient alpha, from the auxiliary negative-label loss; clamping it
at zero keeps the flexible policy from exploiting a negative risk estimate.
:func:`binary_loss` reads (alpha, divisor, clamped) from one per-method table:

    bco       (0,     1,         no)
    cbpo_raw  (alpha, pi_n,      no)
    cbpo      (alpha, 1 - alpha, yes; alpha < 1)

Gradients are analytic; delta and the leave-one-out KTO anchors are treated as
constants.

Every method is evaluated by one kernel pass over the batch (see
:mod:`bfpo.policy`): the batch's sequences are index-encoded, their
log-probabilities are gathered from the policy's log-softmax table, and the
gradient of any objective is its per-sample derivative with respect to the
log-probability, scattered back onto the table once; KTO's anchors come from
:func:`bfpo.rewards.kto_zrefs`.  No training path calls the scalar
:func:`loss_positive`, :func:`loss_negative`, :func:`dpo_loss`, or
:func:`bfpo.rewards.implicit_reward` and :func:`bfpo.rewards.kto_zref`: they
are the reference implementations the kernels are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .policy import (
    Encoded,
    PolicyParams,
    Sample,
    encode,
    ordered_sum,
    scatter_grad,
    sequence_log_probs,
    softmax_tables,
)
from .rewards import kto_zref, kto_zrefs

__all__ = [
    "Batch",
    "DpoPair",
    "LossBreakdown",
    "LossConfig",
    "Method",
    "Scores",
    "binary_loss",
    "dpo_loss",
    "encode_batch",
    "kto_loss",
    "loss_negative",
    "loss_positive",
    "method_loss",
    "method_loss_and_grad",
    "score",
    "scored_loss",
    "sft_loss",
]


class Method(str, Enum):
    SFT = "sft"
    DPO = "dpo"
    KTO = "kto"
    BCO = "bco"
    CBPO_RAW = "cbpo_raw"
    CBPO = "cbpo"


@dataclass(frozen=True)
class LossBreakdown:
    """Per-batch values of each objective component.

    Fields that do not apply to a method are reported as 0.0 so that every
    logged row stays finite.
    """

    method: Method
    l_pos: float = 0.0
    l_aux_neg: float = 0.0
    l_tar_neg: float = 0.0
    pure_neg_raw: float = 0.0
    pure_neg_clamped: float = 0.0
    total: float = 0.0


@dataclass(frozen=True)
class DpoPair:
    """A prompt with a preferred and a rejected completion."""

    x: tuple[int, ...]
    y_w: tuple[int, ...]
    y_l: tuple[int, ...]


@dataclass(eq=False)
class Batch:
    """One optimization step: index arrays into two pools, plus their encoding.

    ``pos`` indexes ``pos_pool`` (the target samples; the pairs for DPO),
    ``aux`` indexes ``aux_pool`` (the auxiliary samples).  ``codes`` is the
    batch's :func:`encode_batch` encoding, a slice of the trainer's per-epoch
    one; when it is None, :func:`score` encodes the samples.
    """

    pos: np.ndarray
    aux: np.ndarray
    pos_pool: Sequence = ()
    aux_pool: Sequence[Sample] = ()
    codes: Encoded | None = field(default=None, repr=False)

    @classmethod
    def of(cls, pos: Sequence[Sample] = (), aux: Sequence[Sample] = (),
           pairs: Sequence[DpoPair] = ()) -> "Batch":
        """A batch of exactly these samples (of these pairs, for DPO)."""
        first = list(pairs or pos)
        return cls(np.arange(len(first)), np.arange(len(aux)), first, list(aux))

    def samples(self) -> tuple[list, list[Sample]]:
        """The positives (pairs, for DPO) and auxiliaries, looked up by index."""
        pos = [self.pos_pool[i] for i in self.pos.tolist()]
        return pos, [self.aux_pool[i] for i in self.aux.tolist()]


@dataclass(frozen=True)
class LossConfig:
    """Everything the objectives need beyond the batch itself."""

    beta: float = 1.0
    alpha: float = 0.0
    pi_n: float = 1.0
    lambda_d: float = 1.0
    lambda_u: float = 1.0

    def __post_init__(self) -> None:
        # alpha = 1 (total overlap) is representable for the unclamped
        # objective; the clamped one rejects it (see binary_loss).
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 < self.pi_n <= 1.0):
            raise ConfigError(f"pi_n must lie in (0, 1], got {self.pi_n}")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _sigmoids(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigmoid(z), sigmoid(-z)) elementwise, each without cancellation."""
    e = np.exp(-np.abs(z))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    up = z >= 0
    return np.where(up, big, small), np.where(up, small, big)


def _neg_log_sigmoid(z: float) -> float:
    # -log sigmoid(z) = softplus(-z), stable on both tails.
    return float(np.logaddexp(0.0, -z))


def loss_positive(reward: float, delta: float) -> float:
    """-log sigmoid(reward - delta); strictly decreasing in the reward."""
    return _neg_log_sigmoid(reward - delta)


def loss_negative(reward: float, delta: float) -> float:
    """-log sigmoid(-(reward - delta)); the reflection of :func:`loss_positive`."""
    return _neg_log_sigmoid(-(reward - delta))


def dpo_loss(reward_w: float, reward_l: float) -> float:
    """-log sigmoid(reward_w - reward_l) for a paired comparison."""
    return _neg_log_sigmoid(reward_w - reward_l)


def _binary_means(
    pos_rewards: Sequence[float], aux_rewards: Sequence[float], delta: float
) -> tuple[float, float, float]:
    """(l_pos, l_aux_neg, l_tar_neg): batch means of :func:`loss_positive` over
    the positives and of :func:`loss_negative` over each set, elementwise and
    summed left to right, so they equal the per-sample loops bit for bit."""
    pos = np.asarray(pos_rewards, dtype=np.float64)
    aux = np.asarray(aux_rewards, dtype=np.float64)
    if len(pos) == 0:
        raise InputError("pos_rewards must be non-empty")
    if len(aux) == 0:
        raise InputError("aux_rewards must be non-empty")
    return (
        ordered_sum(np.logaddexp(0.0, -(pos - delta))) / len(pos),
        ordered_sum(np.logaddexp(0.0, aux - delta)) / len(aux),
        ordered_sum(np.logaddexp(0.0, pos - delta)) / len(pos),
    )


def kto_loss(
    rewards: Sequence[float],
    labels: Sequence[int],
    lambda_d: float = 1.0,
    lambda_u: float = 1.0,
    zrefs: Sequence[float] | None = None,
) -> float:
    """Mean of w(y) * (1 - v(y)) with per-sample leave-one-out anchors.

    ``zrefs`` overrides the internally computed leave-one-out anchors; the
    gradient code and its finite-difference checks use this to hold the anchors
    constant while the rewards vary.
    """
    if len(rewards) != len(labels):
        raise InputError("rewards and labels must have equal length")
    if len(rewards) < 2:
        raise InputError("the leave-one-out anchor needs a batch of size >= 2")
    if any(lab not in (1, -1) for lab in labels):
        raise InputError("labels must be +1 or -1")
    if zrefs is None:
        zrefs = [kto_zref(rewards, i) for i in range(len(rewards))]
    elif len(zrefs) != len(rewards):
        raise InputError("zrefs must match the batch length")
    total = 0.0
    for r, lab, z in zip(rewards, labels, zrefs):
        if lab == 1:
            total += lambda_d * (1.0 - _sigmoid(r - z))
        else:
            total += lambda_u * (1.0 - _sigmoid(z - r))
    return total / len(rewards)


def _binary_terms(method: Method, config: LossConfig) -> tuple[float, float, bool]:
    """(alpha, divisor, clamped) of a BCO-family method: the module docstring's table."""
    table = {
        Method.BCO: (0.0, 1.0, False),
        Method.CBPO_RAW: (config.alpha, config.pi_n, False),
        Method.CBPO: (config.alpha, 1.0 - config.alpha, True),
    }
    if method not in table:
        raise ConfigError(f"{method} is not a BCO-family method")
    alpha, divisor, clamped = table[method]
    if clamped and alpha >= 1.0:
        raise ConfigError(f"the clamped objective needs alpha < 1, got {alpha}")
    return alpha, divisor, clamped


def binary_loss(
    method: Method,
    pos_rewards: Sequence[float],
    aux_rewards: Sequence[float],
    delta: float,
    config: LossConfig,
) -> LossBreakdown:
    """A BCO-family objective: l_pos + clamp?(l_aux_neg - alpha*l_tar_neg)/divisor."""
    alpha, divisor, clamped = _binary_terms(method, config)
    l_pos, l_aux_neg, l_tar_neg = _binary_means(pos_rewards, aux_rewards, delta)
    raw = l_aux_neg - alpha * l_tar_neg
    return LossBreakdown(
        method=method,
        l_pos=l_pos,
        l_aux_neg=l_aux_neg,
        l_tar_neg=l_tar_neg,
        pure_neg_raw=raw,
        pure_neg_clamped=max(0.0, raw),
        total=l_pos + (max(0.0, raw) if clamped else raw) / divisor,
    )


def sft_loss(policy: PolicyParams, batch: Sequence[Sample]) -> float:
    """Per-token cross-entropy: total negative log-probability over total tokens."""
    if len(batch) == 0:
        raise InputError("SFT batch must be non-empty")
    codes = encode(((s.x, s.y) for s in batch), policy.context_size, policy.vocab_size)
    log_table, _ = softmax_tables(policy.logits)
    return -ordered_sum(sequence_log_probs(log_table, codes)) / len(codes.tokens)


# ---------------------------------------------------------------------------
# Method dispatch: one kernel pass, then loss values and analytic gradients
# ---------------------------------------------------------------------------


def encode_batch(
    batch: Batch, method: Method, context_size: int, vocab_size: int
) -> Encoded:
    """The batch's sequences as one encoding: every y_w then every y_l for DPO,
    the positive then the auxiliary samples otherwise."""
    pos, aux = batch.samples()
    if method is Method.DPO:
        pairs = [(p.x, p.y_w) for p in pos] + [(p.x, p.y_l) for p in pos]
    else:
        pairs = [(s.x, s.y) for s in pos + aux]
    return encode(pairs, context_size, vocab_size)


@dataclass(frozen=True, eq=False)
class Scores:
    """One kernel pass of a batch under the live policy.

    The first ``split`` sequences of ``codes`` are the positives (the preferred
    completions for DPO), the rest the auxiliaries (the rejected ones).
    ``rewards`` is beta * (log p - log p_ref) per sequence, or None for SFT,
    which needs no reference.
    """

    codes: Encoded
    split: int
    probs: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray | None


def score(
    method: Method,
    batch: Batch,
    policy: PolicyParams,
    reference_log_table: np.ndarray | None,
    beta: float,
) -> Scores:
    """Log-probabilities and rewards of every sequence of the batch.

    ``reference_log_table`` is the frozen reference's log-softmax table (the
    first table of :func:`softmax_tables`); SFT ignores it.
    """
    if len(batch.pos) == 0:
        raise InputError(f"{method.value} batch needs positive samples (pairs, for DPO)")
    if method in (Method.BCO, Method.CBPO_RAW, Method.CBPO) and len(batch.aux) == 0:
        raise InputError(f"{method.value} batch needs auxiliary samples")
    codes = batch.codes
    if codes is None:
        codes = encode_batch(batch, method, policy.context_size, policy.vocab_size)
    log_table, probs = softmax_tables(policy.logits)
    log_probs = sequence_log_probs(log_table, codes)
    rewards = None
    if method is not Method.SFT:
        if reference_log_table.shape != policy.logits.shape:
            raise InputError(
                "policy and reference shapes differ: "
                f"{policy.logits.shape} vs {reference_log_table.shape}"
            )
        rewards = beta * (log_probs - sequence_log_probs(reference_log_table, codes))
    return Scores(codes, len(batch.pos), probs, log_probs, rewards)


def method_loss(
    method: Method,
    batch: Batch,
    policy: PolicyParams,
    reference_policy: PolicyParams,
    config: LossConfig,
    delta: float,
    zrefs: Sequence[float] | None = None,
) -> LossBreakdown:
    """Evaluate one method's loss on a batch (no gradient)."""
    ref_table = None if method is Method.SFT else softmax_tables(reference_policy.logits)[0]
    scores = score(method, batch, policy, ref_table, config.beta)
    return scored_loss(method, scores, config, delta, zrefs)[0]


def method_loss_and_grad(
    method: Method,
    batch: Batch,
    policy: PolicyParams,
    reference_policy: PolicyParams,
    config: LossConfig,
    delta: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown plus the analytic gradient of the total w.r.t. the logits."""
    ref_table = None if method is Method.SFT else softmax_tables(reference_policy.logits)[0]
    scores = score(method, batch, policy, ref_table, config.beta)
    return scored_loss(method, scores, config, delta, want_grad=True)


def scored_loss(
    method: Method,
    scores: Scores,
    config: LossConfig,
    delta: float,
    zrefs: Sequence[float] | None = None,
    want_grad: bool = False,
) -> tuple[LossBreakdown, np.ndarray | None]:
    """Loss breakdown from a :func:`score` pass and, if wanted, the gradient as
    per-sequence weights on d log p / d logits followed by one scatter.
    ``zrefs`` overrides KTO's leave-one-out anchors."""
    n1 = scores.split
    weights = np.zeros(scores.codes.n)

    if method is Method.SFT:
        tokens = int(scores.codes.lengths[:n1].sum())
        breakdown = LossBreakdown(
            method=Method.SFT, total=-ordered_sum(scores.log_probs[:n1]) / tokens
        )
        weights[:n1] = -1.0 / tokens

    elif method is Method.DPO:
        r_w, r_l = scores.rewards[:n1], scores.rewards[n1:]
        total = ordered_sum(np.logaddexp(0.0, -(r_w - r_l)))  # dpo_loss per pair
        breakdown = LossBreakdown(method=Method.DPO, total=total / n1)
        # d dpo_loss / d r_w = -sigmoid(r_l - r_w) = -d dpo_loss / d r_l
        s = _sigmoids(r_w - r_l)[1] / n1
        weights[:n1] = -s
        weights[n1:] = s

    elif method is Method.KTO:
        n = len(scores.rewards)
        zrefs = np.asarray(kto_zrefs(scores.rewards) if zrefs is None else zrefs, np.float64)
        labels = [1] * n1 + [-1] * (n - n1)
        value = kto_loss(scores.rewards.tolist(), labels, config.lambda_d, config.lambda_u,
                         zrefs=zrefs.tolist())
        breakdown = LossBreakdown(method=Method.KTO, total=value)
        # v = sigmoid(+-(r - z)) has dv/dr = +-v(1 - v) = +-sigmoid(m)sigmoid(-m).
        up, down = _sigmoids(scores.rewards - zrefs)
        slope = up * down / n
        weights[:n1] = -config.lambda_d * slope[:n1]
        weights[n1:] = config.lambda_u * slope[n1:]

    else:
        breakdown = binary_loss(
            method, scores.rewards[:n1], scores.rewards[n1:], delta, config
        )
        alpha, divisor, clamped = _binary_terms(method, config)
        # total = l_pos + scale * (l_aux_neg - alpha * l_tar_neg), where scale
        # is 1/divisor, or 0 (a zero subgradient) once the clamp is active, and
        # d loss_positive / d r = -sigmoid(delta - r),
        # d loss_negative / d r = sigmoid(r - delta).
        active = not clamped or breakdown.pure_neg_raw > 0.0
        scale = 1.0 / divisor if active else 0.0
        up, down = _sigmoids(scores.rewards - delta)
        weights[:n1] = -down[:n1] / n1 - scale * alpha * up[:n1] / n1
        weights[n1:] = scale * up[n1:] / (len(up) - n1)

    if not want_grad:
        return breakdown, None
    if method is not Method.SFT:
        weights *= config.beta  # d reward / d log p
    return breakdown, scatter_grad(scores.probs, scores.codes, weights)

