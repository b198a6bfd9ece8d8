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
:func:`loss_terms` reads each run's (alpha, divisor, clamped) from one
per-method table, once for as long as the run's config holds:

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
scattered back onto the table once.  The frozen reference's log-probabilities
come with the stack, computed when it is made (by :meth:`Stack.of`, or once
per phase by the trainer).  Each run's means add its own samples left
to right (:func:`bfpo.policy.ordered_sums`) and use its own alpha and anchor,
so a run's values do not depend on the other runs of its stack; KTO's anchors
come from :func:`bfpo.rewards.kto_zrefs`, run by run.  :func:`scored_loss`
returns each run's breakdown as a row of columns (:data:`BREAKDOWN_COLUMNS`),
so a stack of thousands of runs builds no :class:`LossBreakdown`, and reads
each run's constants from its :func:`loss_terms`, not from its config.  No training path
calls the scalar :func:`loss_positive`, :func:`loss_negative`,
:func:`dpo_loss`, :func:`kto_loss`, or :func:`bfpo.rewards.implicit_reward`
and :func:`bfpo.rewards.kto_zref`: they are the reference implementations the
kernels are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .policy import (
    Encoded,
    PolicyParams,
    Sample,
    SampleTable,
    encode,
    encode_table,
    ordered_sum,
    ordered_sums,
    scatter_grad,
    sequence_log_probs,
    softmax_tables,
)
from .rewards import BETA, kto_zref, kto_zrefs
from .schema import Interval, check, declared

__all__ = [
    "BREAKDOWN_COLUMNS",
    "Batch",
    "LossBreakdown",
    "LossConfig",
    "Layout",
    "Method",
    "Scores",
    "Stack",
    "binary_loss",
    "binary_losses",
    "dpo_loss",
    "encode_batch",
    "kto_loss",
    "loss_terms",
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

    @classmethod
    def of(cls, method: Method, row: np.ndarray) -> "LossBreakdown":
        """A run's breakdown from its row of :func:`scored_loss`'s columns."""
        return cls(method, *row.tolist())


# The columns of :func:`scored_loss`'s per-run values: LossBreakdown's fields.
BREAKDOWN_COLUMNS = tuple(f.name for f in fields(LossBreakdown) if f.name != "method")
_RAW, _TOTAL = BREAKDOWN_COLUMNS.index("pure_neg_raw"), BREAKDOWN_COLUMNS.index("total")


@dataclass(eq=False)
class Batch:
    """One run's optimization step: index arrays into two pools, as tables.

    ``pos`` indexes ``pos_pool`` (the target samples) and ``aux`` indexes
    ``aux_pool`` (the auxiliary samples).  A DPO batch is shaped the same way:
    its pools are the two sides of a pairs dataset
    (:func:`bfpo.trainer.synth_dpo_pairs`), the preferred completions and
    their rejected ones row for row, and ``pos`` and ``aux`` take the same
    indices.
    """

    pos: np.ndarray
    aux: np.ndarray
    pos_pool: SampleTable
    aux_pool: SampleTable

    @classmethod
    def of(cls, pos: Sequence[Sample] = (), aux: Sequence[Sample] = ()) -> "Batch":
        """A batch of exactly these samples; for DPO, ``aux[i]`` is the
        rejected completion of ``pos[i]``'s prompt."""
        return cls(np.arange(len(pos)), np.arange(len(aux)), SampleTable.of(pos),
                   SampleTable.of(aux))

    def samples(self) -> tuple[SampleTable, SampleTable]:
        """The positives and auxiliaries, taken from the pools by index."""
        return self.pos_pool.take(self.pos), self.aux_pool.take(self.aux)


# The ranges the train config shares: the negative prior, and KTO's weights of
# the desirable and undesirable terms.
PI_N = Interval(0, 1, "(]")
LAMBDA = Interval(0)


@dataclass(frozen=True)
class LossConfig:
    """Everything the objectives need beyond the batch itself."""

    beta: float = declared(BETA, 1.0)
    # alpha = 1 (total overlap) is representable for the unclamped objective;
    # the clamped one rejects it (see loss_terms).
    alpha: float = declared(Interval(0, 1), 0.0)
    pi_n: float = declared(PI_N, 1.0)
    lambda_d: float = declared(LAMBDA, 1.0)
    lambda_u: float = declared(LAMBDA, 1.0)

    def __post_init__(self) -> None:
        check(self, ConfigError)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _sigmoids(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigmoid(z), sigmoid(-z)) elementwise, each without cancellation."""
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    big, small = 1.0 / denominator, e / denominator
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
    if method is Method.BCO:
        return 0.0, 1.0, False
    if method is Method.CBPO_RAW:
        return config.alpha, config.pi_n, False
    if method is not Method.CBPO:
        raise ConfigError(f"{method} is not a BCO-family method")
    if config.alpha >= 1.0:
        raise ConfigError(f"the clamped objective needs alpha < 1, got {config.alpha}")
    return config.alpha, 1.0 - config.alpha, True


def loss_terms(method: Method, configs: Sequence[LossConfig]) -> list[tuple]:
    """Each run's constants of ``method``'s objective, as :func:`scored_loss`
    reads them: (alpha, divisor, clamped) for the BCO family, (lambda_d,
    lambda_u) for KTO and () for SFT and DPO.  A caller builds them once for
    as long as its configs hold (the trainer once a phase), so a config the
    clamped objective cannot use raises its :class:`ConfigError` there."""
    if method is Method.KTO:
        return [(c.lambda_d, c.lambda_u) for c in configs]
    if method in (Method.SFT, Method.DPO):
        return [()] * len(configs)
    return [_binary_terms(method, c) for c in configs]


def _binary_row(
    terms: tuple[float, float, bool], l_pos: float, l_aux_neg: float, l_tar_neg: float
) -> tuple[float, ...]:
    """One run's breakdown columns from its means.  The clamp is
    ``max(0.0, raw)``, which is 0.0 for a raw of -0.0 or NaN where
    ``np.maximum`` would keep either and change the logged bytes."""
    alpha, divisor, clamped = terms
    raw = l_aux_neg - alpha * l_tar_neg
    kept = max(0.0, raw)
    return l_pos, l_aux_neg, l_tar_neg, raw, kept, l_pos + (kept if clamped else raw) / divisor


def binary_losses(z: np.ndarray, layout: Layout, terms: Sequence[tuple]) -> np.ndarray:
    """A BCO-family objective for each run of ``layout``, as the rows of
    :data:`BREAKDOWN_COLUMNS`: ``z`` holds every sequence's anchored reward
    (reward minus delta), run r's under its :func:`loss_terms` ``terms[r]``.
    The means add left to right, so they equal the per-sample loops of
    :func:`loss_positive` and :func:`loss_negative` bit for bit."""
    # Bin 2r holds run r's positives, bin 2r + 1 its auxiliaries.
    bins = len(layout.sides)
    pos_loss = (ordered_sums(np.logaddexp(0.0, -z), layout.seg, bins) / layout.sides).tolist()
    neg_loss = (ordered_sums(np.logaddexp(0.0, z), layout.seg, bins) / layout.sides).tolist()
    return np.array(list(map(_binary_row, terms, pos_loss[0::2], neg_loss[1::2], neg_loss[0::2])))


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
    z = np.concatenate([pos, aux]) - delta
    layout = Layout.of([len(pos)], [len(aux)])
    return LossBreakdown.of(method, binary_losses(z, layout, [_binary_terms(method, config)])[0])


def sft_loss(policy: PolicyParams, batch: Sequence[Sample]) -> float:
    """Per-token cross-entropy: total negative log-probability over total tokens."""
    if len(batch) == 0:
        raise InputError("SFT batch must be non-empty")
    codes = encode(((s.x, s.y) for s in batch), policy.context_size, policy.vocab_size)
    log_table, _ = softmax_tables(policy.logits)
    return -ordered_sum(sequence_log_probs(log_table, codes)) / len(codes.cells)


# ---------------------------------------------------------------------------
# Method dispatch: one kernel pass, then loss values and analytic gradients
# ---------------------------------------------------------------------------


def encode_batch(batch: Batch, context_size: int, vocab_size: int) -> Encoded:
    """The batch's sequences as one encoding: the positives then the
    auxiliaries (for DPO, every preferred then every rejected completion)."""
    return encode_table(SampleTable.concat(batch.samples()), context_size, vocab_size)


@dataclass(frozen=True, eq=False)
class Layout:
    """Where R runs' sequences sit in a stack: run r's are contiguous, its
    ``n_pos[r]`` positives (preferred completions, for DPO), then its
    auxiliaries (rejected completions).

    Per sequence, ``run`` is its run, ``pos`` whether it is a positive,
    ``seg`` its (run, side) bin 2*run + (0 if positive else 1) and ``count``
    the size of its run's side.  ``sides`` holds each bin's size, ``sizes``
    each run's and ``spans`` each run's (first, end, positives) as ints;
    ``both_sides`` is whether every bin is non-empty, as the BCO family and
    KTO's steps need.
    """

    n_pos: np.ndarray
    run: np.ndarray
    pos: np.ndarray
    seg: np.ndarray
    count: np.ndarray
    sides: np.ndarray
    sizes: np.ndarray
    spans: tuple[tuple[int, int, int], ...]
    both_sides: bool

    @classmethod
    def of(cls, n_pos: Sequence[int], n_aux: Sequence[int]) -> "Layout":
        """The layout of these sizes; the trainer's steps repeat a few sizes,
        so layouts are made once and shared (their arrays are read-only)."""
        return _layout(tuple(n_pos), tuple(n_aux))

    @classmethod
    def build(cls, n_pos: Sequence[int], n_aux: Sequence[int]) -> "Layout":
        """The layout of these sizes, made afresh and not kept: for a one-off
        stack, such as a property check's many runs."""
        n_pos, n_aux = np.array(n_pos, np.int64), np.array(n_aux, np.int64)
        sizes = n_pos + n_aux
        sides = np.empty(2 * len(sizes), np.int64)
        sides[0::2], sides[1::2] = n_pos, n_aux
        # Each per-sequence array follows from its bin: the run is half the
        # bin, and the positives' bins are the even ones.
        seg = np.arange(len(sides)).repeat(sides)
        arrays = (n_pos, seg >> 1, (seg & 1) == 0, seg, sides[seg], sides, sizes)
        for a in arrays:
            a.flags.writeable = False
        ends = sizes.cumsum().tolist()
        spans = tuple(zip([0] + ends[:-1], ends, n_pos.tolist()))
        return cls(*arrays, spans, bool(sides.all()))


_layout = functools.lru_cache(maxsize=256)(Layout.build)


@dataclass(eq=False)
class Stack:
    """One step of R runs in lockstep; a lone batch is a stack of one.

    ``batches[r]`` is run r's batch and ``codes`` every run's
    :func:`encode_batch` encoding in run order, stacked by
    :func:`bfpo.policy.stack_codes` for the runs' (R*C, V) table, as
    ``layout`` places it (a trainer step's is a slice of its phase plan:
    rows, cells, sequence numbers and lengths, the arrays the kernels read);
    ``reference`` is each sequence's log-probability under its run's frozen
    reference (None for SFT, which reads none).
    """

    batches: Sequence[Batch]
    codes: Encoded = field(repr=False)
    layout: Layout = field(repr=False)
    reference: np.ndarray | None = field(repr=False)

    @classmethod
    def of(
        cls, method: Method, batch: Batch, policy: PolicyParams, reference: PolicyParams | None
    ) -> "Stack":
        """A lone batch, encoded for ``policy``'s table, with its sequences'
        log-probabilities under ``reference`` (SFT reads none)."""
        n_pos, n_aux = len(batch.pos), len(batch.aux)
        if n_pos == 0:
            raise InputError(f"{method.value} batch needs positive samples")
        if method in (Method.BCO, Method.CBPO_RAW, Method.CBPO) and n_aux == 0:
            raise InputError(f"{method.value} batch needs auxiliary samples")
        if method is Method.DPO and n_aux != n_pos:
            raise InputError(f"dpo batch: {n_pos} preferred completions for {n_aux} rejected")
        codes = encode_batch(batch, policy.context_size, policy.vocab_size)
        ref_log_probs = None
        if method is not Method.SFT:
            if reference.logits.shape != policy.logits.shape:
                raise InputError(
                    "policy and reference shapes differ: "
                    f"{policy.logits.shape} vs {reference.logits.shape}"
                )
            ref_log_probs = sequence_log_probs(softmax_tables(reference.logits)[0], codes)
        return cls([batch], codes, Layout.of([n_pos], [n_aux]), ref_log_probs)


@dataclass(eq=False)
class Scores:
    """One kernel pass of a stack under the live policy.

    ``rewards`` is ``beta * (log p - log p_ref)`` per sequence, or None for
    SFT, which needs no reference; ``beta`` is one value for every sequence
    or one per sequence.
    """

    stack: Stack
    beta: float | np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray | None


def score(
    method: Method, stack: Stack, policy: PolicyParams, beta: float | np.ndarray
) -> Scores:
    """Log-probabilities of every sequence of the stack under ``policy``, the
    runs' stacked table, and their rewards against ``stack.reference``, under
    one ``beta`` or one per sequence (runs with different configs)."""
    log_table, probs = softmax_tables(policy.logits)
    log_probs = sequence_log_probs(log_table, stack.codes)
    rewards = None if method is Method.SFT else beta * (log_probs - stack.reference)
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
    stack = Stack.of(method, batch, policy, reference_policy)
    scores = score(method, stack, policy, config.beta)
    terms = loss_terms(method, [config])
    return LossBreakdown.of(method, scored_loss(method, scores, terms, [delta], zrefs)[0][0])


def method_loss_and_grad(
    method: Method,
    batch: Batch,
    policy: PolicyParams,
    reference_policy: PolicyParams,
    config: LossConfig,
    delta: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown plus the analytic gradient of the total w.r.t. the logits."""
    stack = Stack.of(method, batch, policy, reference_policy)
    scores = score(method, stack, policy, config.beta)
    values, grad = scored_loss(method, scores, loss_terms(method, [config]), [delta],
                               want_grad=True)
    return LossBreakdown.of(method, values[0]), grad


def scored_loss(
    method: Method,
    scores: Scores,
    terms: Sequence[tuple],
    deltas: Sequence[float],
    zrefs: Sequence[float] | None = None,
    want_grad: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each run's loss breakdown from a :func:`score` pass, as row r of an
    (R, 6) array whose columns are :data:`BREAKDOWN_COLUMNS` (0.0 where a
    field does not apply), and, if wanted, the gradient of every run's total:
    per-sequence weights on d log p / d logits, then one scatter onto the
    stacked table.

    ``terms[r]`` is run r's :func:`loss_terms` and ``deltas[r]`` its anchor
    (BCO family); ``zrefs`` overrides KTO's leave-one-out anchors.
    """
    layout = scores.stack.layout
    run, pos = layout.run, layout.pos
    runs = len(layout.n_pos)
    values = np.zeros((runs, len(BREAKDOWN_COLUMNS)))
    weights = None

    if method is Method.SFT:
        # Bin 2r holds run r's positives (its targets), bin 2r + 1 the rest.
        bins = len(layout.sides)
        tokens = ordered_sums(scores.stack.codes.lengths, layout.seg, bins)[0::2]
        values[:, _TOTAL] = -ordered_sums(scores.log_probs, layout.seg, bins)[0::2] / tokens
        if want_grad:
            weights = np.where(pos, (-1.0 / tokens)[run], 0.0)

    elif method is Method.DPO:
        rejected = ~pos
        r_w, r_l = scores.rewards[pos], scores.rewards[rejected]
        # dpo_loss per pair, each run's summed left to right.
        totals = ordered_sums(np.logaddexp(0.0, -(r_w - r_l)), run[pos], runs)
        values[:, _TOTAL] = totals / layout.n_pos
        if want_grad:
            # d dpo_loss / d r_w = -sigmoid(r_l - r_w) = -d dpo_loss / d r_l
            s = _sigmoids(r_w - r_l)[1] / layout.count[pos]
            weights = np.empty(len(run))
            weights[pos] = -s
            weights[rejected] = s

    elif method is Method.KTO:
        rewards = scores.rewards
        if min(b - a for a, b, _ in layout.spans) < 2:
            raise InputError("the leave-one-out anchor needs a batch of size >= 2")
        if zrefs is None:
            zrefs = np.concatenate([kto_zrefs(rewards[a:b]) for a, b, _ in layout.spans])
        zrefs = np.asarray(zrefs, dtype=np.float64)
        if len(zrefs) != len(rewards):
            raise InputError("zrefs must match the batch length")
        gap = rewards - zrefs
        # kto_loss's terms lambda * (1 - v): v = sigmoid(gap) on a positive and
        # sigmoid(z - r) = sigmoid(-gap) on the rest, each from libm's exp of
        # -|gap| as kto_loss takes it.
        e = np.array(list(map(math.exp, (-np.abs(gap)).tolist())))
        denominator = 1.0 + e
        v = np.where(pos == (gap >= 0), 1.0 / denominator, e / denominator)
        # Per (run, side) bin: lambda_d on the positives, lambda_u on the rest.
        lambdas = np.array(terms).ravel()[layout.seg]
        values[:, _TOTAL] = ordered_sums(lambdas * (1.0 - v), run, runs) / layout.sizes
        if want_grad:
            # v = sigmoid(+-gap) has dv/dr = +-v(1 - v) = +-sigmoid(gap)sigmoid(-gap).
            up, down = _sigmoids(gap)
            weights = np.where(pos, -lambdas, lambdas) * (up * down / layout.sizes[run])

    else:
        z = scores.rewards - np.array(deltas)[layout.run]
        values = binary_losses(z, layout, terms)
        if want_grad:
            # total = l_pos + scale * (l_aux_neg - alpha * l_tar_neg), where scale
            # is 1/divisor, or 0 (a zero subgradient) once the clamp is active, and
            # d loss_positive / d r = -sigmoid(delta - r),
            # d loss_negative / d r = sigmoid(r - delta).
            scale = [
                1.0 / divisor if not clamped or raw > 0.0 else 0.0
                for (_, divisor, clamped), raw in zip(terms, values[:, _RAW].tolist())
            ]
            # Per (run, side) bin: scale * alpha on the positives, scale on the
            # auxiliaries, each rounded as the scalar formula rounds it.
            bin_scale = np.array([x for s, (a, _, _) in zip(scale, terms) for x in (s * a, s)])
            up, down = _sigmoids(z)
            count = layout.count
            scaled = bin_scale[layout.seg] * up / count
            weights = np.where(pos, -down / count - scaled, scaled)

    if not want_grad:
        return values, None
    if method is not Method.SFT:
        weights *= scores.beta  # d reward / d log p
    return values, scatter_grad(scores.probs, scores.stack.codes, weights)
