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

Every method is evaluated by one kernel pass over a :class:`Stack`, the
batches of R runs trained in lockstep (R = 1 for a lone batch; see
:mod:`bfpo.policy`): the sequences are index-encoded, their log-probabilities
are gathered from the runs' stacked log-softmax table, and the gradient of any
objective is its per-sample derivative with respect to the log-probability,
scattered back onto the table once.  Each run's means add its own samples left
to right (:func:`bfpo.policy.ordered_sums`) and use its own alpha and anchor,
so a run's values do not depend on the other runs of its stack; KTO's anchors
come from :func:`bfpo.rewards.kto_zrefs`, run by run.  No training path calls the scalar
:func:`loss_positive`, :func:`loss_negative`, :func:`dpo_loss`, or
:func:`bfpo.rewards.implicit_reward` and :func:`bfpo.rewards.kto_zref`: they
are the reference implementations the kernels are tested against.
"""

from __future__ import annotations

import functools
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
    ordered_sums,
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
    "Layout",
    "Method",
    "Scores",
    "Stack",
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
    """One run's optimization step: index arrays into two pools.

    ``pos`` indexes ``pos_pool`` (the target samples; the pairs for DPO),
    ``aux`` indexes ``aux_pool`` (the auxiliary samples).
    """

    pos: np.ndarray
    aux: np.ndarray
    pos_pool: Sequence = ()
    aux_pool: Sequence[Sample] = ()

    @classmethod
    def of(cls, pos: Sequence[Sample] = (), aux: Sequence[Sample] = (),
           pairs: Sequence[DpoPair] = ()) -> "Batch":
        """A batch of exactly these samples (of these pairs, for DPO)."""
        first = list(pairs or pos)
        return cls(np.arange(len(first)), np.arange(len(aux)), first, list(aux))

    def sizes(self, method: "Method") -> tuple[int, int]:
        """The batch's (positive, auxiliary) sequence counts: for DPO, its
        pairs' preferred and rejected completions."""
        return len(self.pos), len(self.pos if method is Method.DPO else self.aux)

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


def _binary_parts(
    method: Method, configs: Sequence[LossConfig], z: np.ndarray, layout: Layout
) -> tuple[list[LossBreakdown], list[tuple[float, float, bool]]]:
    """Each run's BCO-family breakdown from the anchored rewards ``z`` (reward
    minus delta) of its positives and auxiliaries, and its (alpha, divisor,
    clamped).  The means add left to right, so they equal the per-sample loops
    of :func:`loss_positive` and :func:`loss_negative` bit for bit."""
    terms = [_binary_terms(method, c) for c in configs]
    # Bin 2r holds run r's positives, bin 2r + 1 its auxiliaries.
    bins = len(layout.sides)
    pos_loss = (ordered_sums(np.logaddexp(0.0, -z), layout.seg, bins) / layout.sides).tolist()
    neg_loss = (ordered_sums(np.logaddexp(0.0, z), layout.seg, bins) / layout.sides).tolist()
    breakdowns = []
    for (alpha, divisor, clamped), l_pos, l_tar_neg, l_aux_neg in zip(
        terms, pos_loss[0::2], neg_loss[0::2], neg_loss[1::2]
    ):
        raw = l_aux_neg - alpha * l_tar_neg
        breakdowns.append(LossBreakdown(
            method=method,
            l_pos=l_pos,
            l_aux_neg=l_aux_neg,
            l_tar_neg=l_tar_neg,
            pure_neg_raw=raw,
            pure_neg_clamped=max(0.0, raw),
            total=l_pos + (max(0.0, raw) if clamped else raw) / divisor,
        ))
    return breakdowns, terms


def binary_loss(
    method: Method,
    pos_rewards: Sequence[float],
    aux_rewards: Sequence[float],
    delta: float,
    config: LossConfig,
) -> LossBreakdown:
    """A BCO-family objective: l_pos + clamp?(l_aux_neg - alpha*l_tar_neg)/divisor."""
    pos = np.asarray(pos_rewards, dtype=np.float64)
    aux = np.asarray(aux_rewards, dtype=np.float64)
    if len(pos) == 0:
        raise InputError("pos_rewards must be non-empty")
    if len(aux) == 0:
        raise InputError("aux_rewards must be non-empty")
    layout = Layout.of([len(pos)], [len(aux)])
    return _binary_parts(method, [config], np.concatenate([pos, aux]) - delta, layout)[0][0]


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
class Layout:
    """Where R runs' sequences sit in a stack: run r's are contiguous, its
    ``n_pos[r]`` positives (preferred completions, for DPO), then its
    auxiliaries (rejected completions).

    Per sequence, ``run`` is its run, ``pos`` whether it is a positive,
    ``seg`` its (run, side) bin 2*run + (0 if positive else 1) and ``count``
    the size of its run's side.  ``sides`` holds each bin's size, ``sizes``
    each run's and ``spans`` each run's (first, end, positives) as ints;
    ``empty_pos`` and ``empty_aux`` say whether some run has no positives or
    no auxiliaries.
    """

    n_pos: np.ndarray
    run: np.ndarray
    pos: np.ndarray
    seg: np.ndarray
    count: np.ndarray
    sides: np.ndarray
    sizes: np.ndarray
    spans: tuple[tuple[int, int, int], ...]
    empty_pos: bool
    empty_aux: bool

    @classmethod
    def of(cls, n_pos: Sequence[int], n_aux: Sequence[int]) -> "Layout":
        """The layout of these sizes; the trainer's steps repeat a few sizes,
        so layouts are made once and shared (their arrays are read-only)."""
        return _layout(tuple(n_pos), tuple(n_aux))


@functools.lru_cache(maxsize=256)
def _layout(n_pos: tuple[int, ...], n_aux: tuple[int, ...]) -> Layout:
    n_pos, n_aux = np.array(n_pos, np.int64), np.array(n_aux, np.int64)
    sizes = n_pos + n_aux
    run = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run] < n_pos[run]
    arrays = (n_pos, run, pos, 2 * run + ~pos, np.where(pos, n_pos[run], n_aux[run]),
              np.stack([n_pos, n_aux], axis=1).ravel(), sizes)
    for a in arrays:
        a.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    spans = tuple(zip([0] + ends[:-1], ends, n_pos.tolist()))
    return Layout(*arrays, spans, bool((n_pos == 0).any()), bool((n_aux == 0).any()))


@dataclass(eq=False)
class Stack:
    """One step of R runs in lockstep; a lone batch is a stack of one.

    ``batches[r]`` is run r's batch and ``codes`` every run's
    :func:`encode_batch` encoding in run order, stacked by
    :func:`bfpo.policy.stack_codes` for the runs' (R*C, V) table, as
    ``layout`` places it.
    """

    batches: Sequence[Batch]
    codes: Encoded = field(repr=False)
    layout: Layout = field(repr=False)

    @classmethod
    def of(cls, method: Method, batch: Batch, context_size: int, vocab_size: int) -> "Stack":
        """A lone batch, encoded."""
        n_pos, n_aux = batch.sizes(method)
        codes = encode_batch(batch, method, context_size, vocab_size)
        return cls([batch], codes, Layout.of([n_pos], [n_aux]))


@dataclass(eq=False)
class Scores:
    """One kernel pass of a stack under the live policy.

    ``rewards`` is ``beta * (log p - log p_ref)`` per sequence, or None for
    SFT, which needs no reference.
    """

    stack: Stack
    beta: float
    probs: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray | None


def score(
    method: Method,
    stack: Stack,
    policy: PolicyParams,
    reference_log_table: np.ndarray | None,
    beta: float,
) -> Scores:
    """Log-probabilities and rewards of every sequence of the stack.

    ``policy`` and ``reference_log_table`` (the frozen reference's log-softmax
    table, the first table of :func:`softmax_tables`; SFT ignores it) are the
    runs' stacked tables.
    """
    if stack.layout.empty_pos:
        raise InputError(f"{method.value} batch needs positive samples (pairs, for DPO)")
    if method in (Method.BCO, Method.CBPO_RAW, Method.CBPO) and stack.layout.empty_aux:
        raise InputError(f"{method.value} batch needs auxiliary samples")
    log_table, probs = softmax_tables(policy.logits)
    log_probs = sequence_log_probs(log_table, stack.codes)
    rewards = None
    if method is not Method.SFT:
        if reference_log_table.shape != policy.logits.shape:
            raise InputError(
                "policy and reference shapes differ: "
                f"{policy.logits.shape} vs {reference_log_table.shape}"
            )
        rewards = beta * (log_probs - sequence_log_probs(reference_log_table, stack.codes))
    return Scores(stack, beta, probs, log_probs, rewards)


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
    stack = Stack.of(method, batch, policy.context_size, policy.vocab_size)
    scores = score(method, stack, policy, ref_table, config.beta)
    return scored_loss(method, scores, [config], [delta], zrefs)[0][0]


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
    stack = Stack.of(method, batch, policy.context_size, policy.vocab_size)
    scores = score(method, stack, policy, ref_table, config.beta)
    breakdowns, grad = scored_loss(method, scores, [config], [delta], want_grad=True)
    return breakdowns[0], grad


def scored_loss(
    method: Method,
    scores: Scores,
    configs: Sequence[LossConfig],
    deltas: Sequence[float],
    zrefs: Sequence[float] | None = None,
    want_grad: bool = False,
) -> tuple[list[LossBreakdown], np.ndarray | None]:
    """Each run's loss breakdown from a :func:`score` pass and, if wanted, the
    gradient of every run's total: per-sequence weights on d log p / d logits,
    then one scatter onto the stacked table.

    ``configs[r]`` is run r's objective and ``deltas[r]`` its anchor (BCO
    family); ``zrefs`` overrides KTO's leave-one-out anchors.
    """
    layout = scores.stack.layout
    run, pos = layout.run, layout.pos
    weights = None

    if method is Method.SFT:
        # Bin 2r holds run r's positives (its targets), bin 2r + 1 the rest.
        bins = len(layout.sides)
        tokens = ordered_sums(scores.stack.codes.lengths, layout.seg, bins)[0::2]
        totals = -ordered_sums(scores.log_probs, layout.seg, bins)[0::2] / tokens
        breakdowns = [LossBreakdown(method=Method.SFT, total=t) for t in totals.tolist()]
        if want_grad:
            weights = np.where(pos, (-1.0 / tokens)[run], 0.0)

    elif method is Method.DPO:
        rejected = ~pos
        r_w, r_l = scores.rewards[pos], scores.rewards[rejected]
        # dpo_loss per pair, each run's summed left to right.
        totals = ordered_sums(np.logaddexp(0.0, -(r_w - r_l)), run[pos], len(layout.n_pos))
        totals = (totals / layout.n_pos).tolist()
        breakdowns = [LossBreakdown(method=Method.DPO, total=t) for t in totals]
        if want_grad:
            # d dpo_loss / d r_w = -sigmoid(r_l - r_w) = -d dpo_loss / d r_l
            s = _sigmoids(r_w - r_l)[1] / layout.count[pos]
            weights = np.empty(len(run))
            weights[pos] = -s
            weights[rejected] = s

    elif method is Method.KTO:
        rewards, spans = scores.rewards, layout.spans
        if zrefs is None:
            zrefs = np.concatenate([kto_zrefs(rewards[a:b]) for a, b, _ in spans])
        zrefs = np.asarray(zrefs, dtype=np.float64)
        breakdowns = [
            LossBreakdown(method=Method.KTO, total=kto_loss(
                rewards[a:b].tolist(), [1] * p + [-1] * (b - a - p), c.lambda_d, c.lambda_u,
                zrefs=zrefs[a:b].tolist(),
            ))
            for (a, b, p), c in zip(spans, configs)
        ]
        if want_grad:
            # v = sigmoid(+-(r - z)) has dv/dr = +-v(1 - v) = +-sigmoid(m)sigmoid(-m).
            up, down = _sigmoids(rewards - zrefs)
            weights = np.empty(len(rewards))
            for (a, b, p), c in zip(spans, configs):
                slope = up[a:b] * down[a:b] / (b - a)
                weights[a : a + p] = -c.lambda_d * slope[:p]
                weights[a + p : b] = c.lambda_u * slope[p:]

    else:
        z = scores.rewards - np.repeat(deltas, layout.sizes)
        breakdowns, terms = _binary_parts(method, configs, z, layout)
        if want_grad:
            # total = l_pos + scale * (l_aux_neg - alpha * l_tar_neg), where scale
            # is 1/divisor, or 0 (a zero subgradient) once the clamp is active, and
            # d loss_positive / d r = -sigmoid(delta - r),
            # d loss_negative / d r = sigmoid(r - delta).
            scale = [
                1.0 / divisor if not clamped or b.pure_neg_raw > 0.0 else 0.0
                for (_, divisor, clamped), b in zip(terms, breakdowns)
            ]
            # Per (run, side) bin: scale * alpha on the positives, scale on the
            # auxiliaries, each rounded as the scalar formula rounds it.
            bin_scale = np.array([x for s, (a, _, _) in zip(scale, terms) for x in (s * a, s)])
            up, down = _sigmoids(z)
            count = layout.count
            scaled = bin_scale[layout.seg] * up / count
            weights = np.where(pos, -down / count - scaled, scaled)

    if not want_grad:
        return breakdowns, None
    if method is not Method.SFT:
        weights *= scores.beta  # d reward / d log p
    return breakdowns, scatter_grad(scores.probs, scores.stack.codes, weights)
