"""Optimization loop: batching, method dispatch, EMA wiring and run state.

A run has three phases: a warm start (the stand-in for a general task model),
a reference freeze, and the configured method's optimization.  Each trains one
shape, by one epoch loop, batching and optimizer step: a dataset whose target
side the phase learns from and whose auxiliary side it contrasts.  The warm
start is SFT on the pooled auxiliary data; DPO's dataset is the pairs dataset
of :func:`synth_dpo_pairs`, the preferred completions as its target side and
the rejected ones, row for row, as its auxiliary side.  Everything is
a pure function of (dataset, config, seed): batch order, the optimizer
trajectory and the metrics log reproduce byte-identically.

A phase is planned in blocks of epochs, each of about :data:`PLAN_TOKENS`
tokens: :func:`make_batches` draws a block's epochs as index arrays (a run's
generator draws only the epoch seeds, so the stream is the per-epoch loop's),
then one :func:`stack_batches` call gathers all of the block's steps, holding
only the arrays a step reads.  A lone run's step is dozens of numpy calls on
small arrays, so :func:`train_step` avoids what costs more than their
arithmetic and builds no Python object per run: the phase's
:class:`RunState` holds each run's EMA pair as floats and its loss terms,
fixed when the phase starts, and each step's loss columns, anchors and EMAs
go into one :class:`MetricsTable` per run, whose rows are built when read.

:func:`run_many` trains R runs in lockstep.  In each phase, runs whose config
agrees in every field but ``seed`` and ``alpha`` and whose epochs have as many
steps form a group, which :func:`train_step` steps as one stacked (R*C, V)
table: run r's encoded rows are offset by r*C, so each kernel and the AdamW
update serve the whole group with one call.  A method phase scores its
stacked encoding under the runs' frozen references once, and each step's
:class:`~bfpo.losses.Stack` carries its slice.  The warm start's config is the
SFT method's, so runs that differ only in alpha or the method, on one seed
and dataset, share one warm start, trained once.
What differs between runs stays per run: the alpha and loss terms, the EMA,
the left-to-right batch sums, the generators, batches, metrics tables and
trained results, and the DPO pairs and alpha estimate made between the phases.  The learning rate and
AdamW's step count are shared scalars, since a group's runs step together.
:func:`run` is the case R = 1; every run's result equals training it alone,
bit for bit.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .alpha import DEFAULT_EPOCHS, DEFAULT_LR, ESTIMATOR_EPOCHS, ESTIMATOR_LR
from .alpha import SEED, AlphaEstimate, run_alpha_estimation
from .datagen import UserDataset
from .errors import ConfigError, InputError, NumericError
from .files import decode_json, write_atomic
from . import rewards
from .losses import (
    BREAKDOWN_COLUMNS,
    LAMBDA,
    PI_N,
    Batch,
    LossConfig,
    Layout,
    Method,
    Stack,
    loss_terms,
    score,
    scored_loss,
)
from .policy import (
    CONTEXT_SIZE,
    Encoded,
    PolicyParams,
    SampleTable,
    encode_table,
    ordered_sums,
    sequence_log_probs,
    snapshot_reference,
    softmax_tables,
    stack_codes,
    uniform_params,
)
from .rewards import ReferenceState
from .schema import Interval, OneOf, cast, check, declared, require

__all__ = [
    "AdamState",
    "Batches",
    "METRICS_COLUMNS",
    "MetricsTable",
    "RunState",
    "TrainConfig",
    "TrainResult",
    "check_trainable",
    "load_checkpoint",
    "lockstep_key",
    "PLAN_TOKENS",
    "STACK_CELLS",
    "make_batches",
    "run",
    "run_many",
    "save_checkpoint",
    "stack_batches",
    "stack_runs",
    "synth_dpo_pairs",
    "train_config_doc",
    "train_step",
]

logger = logging.getLogger(__name__)

_NONE = np.zeros(0, dtype=np.int64)  # an empty index array

METRICS_COLUMNS = ("step", "epoch", "method", *BREAKDOWN_COLUMNS, "delta", "ema_pos", "ema_aux")
_TOTAL, _DELTA = BREAKDOWN_COLUMNS.index("total"), len(BREAKDOWN_COLUMNS)

_BINARY_METHODS = (Method.KTO, Method.BCO, Method.CBPO_RAW, Method.CBPO)

# Bound on the table cells (R * C * V) of one lockstep stack: on the frozen
# config a run's cost stops falling at about 24 runs of 576 cells, so wider
# stacks would only hold more memory (BENCH_lockstep.json, stack_cells).
STACK_CELLS = 16384

# Bound on the tokens one phase plan (:func:`stack_batches`) holds, three int64
# arrays of them.  A lone frozen-config run (2,400 tokens an epoch) plans six
# epochs a pass, as fast as one pass for all 14; a 4-run stack plans one epoch a
# pass, as wider plans raised a sweep worker's peak RSS (BENCH_lone_run.json).
PLAN_TOKENS = 16384


@dataclass
class TrainConfig:
    """Everything a run depends on besides the dataset itself."""

    method: Method = declared(OneOf(tuple(m.value for m in Method)), Method.CBPO)
    epochs: int = declared(Interval(1), 3)
    batch_size_pos: int = declared(Interval(1), 8)
    batch_size_aux: int | None = declared(Interval(1), None)  # None: batch_size_pos * ratio_x
    # learning_rate 0 is allowed: a null step still logs losses.
    learning_rate: float = declared(Interval(0), 0.2)
    beta: float = declared(rewards.BETA, 0.1)
    alpha: float | str = declared(Interval(0, 1, "[)"), "estimate")
    ema_decay: float = declared(rewards.EMA_DECAY, 0.9)
    seed: int = declared(SEED, 0)
    momentum_params: tuple[float, float, float] = (0.9, 0.999, 1e-8)
    context_size: int = declared(CONTEXT_SIZE, 8)
    pi_n: float = declared(PI_N, 1.0)
    lambda_d: float = declared(LAMBDA, 1.0)
    lambda_u: float = declared(LAMBDA, 1.0)
    delta_mode: str = declared(OneOf(("ema", "batch")), "ema")  # "batch": joint per-batch mean
    # AdamW's decoupled weight decay: a negative one would grow the weights.
    weight_decay: float = declared(Interval(0), 0.01)
    warmup_fraction: float = declared(Interval(0, 1), 0.1)
    warmstart_epochs: int = declared(Interval(0), 2)
    warmstart_lr: float | None = declared(Interval(0), None)
    dpo_rejection_budget: int = declared(Interval(1), 16)
    alpha_estimator_epochs: int = declared(ESTIMATOR_EPOCHS, DEFAULT_EPOCHS)
    alpha_estimator_lr: float = declared(ESTIMATOR_LR, DEFAULT_LR)

    def __post_init__(self) -> None:
        if isinstance(self.alpha, str):
            if self.alpha != "estimate":
                raise ConfigError(f"alpha must be a number or 'estimate', got {self.alpha!r}")
        else:
            self.alpha = float(self.alpha)
        check(self, ConfigError)
        self.method = Method(self.method)
        # AdamW's (b1, b2, eps), each part named in the message.
        betas, eps = Interval(0, 1, "[)"), Interval(0, ends="()")
        for part, value, rule in zip(("b1", "b2", "eps"), self.momentum_params, (betas, betas, eps)):
            require(rule, f"momentum_params {part}", value, ConfigError)

    def resolved_aux_batch(self, ratio_x: float) -> int:
        if self.batch_size_aux is not None:
            return self.batch_size_aux
        return max(1, int(math.floor(self.batch_size_pos * ratio_x + 0.5)))


# Every config field but those that are per run, so that runs may differ in them
# and still share a lockstep group.
_SHARED_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name not in ("seed", "alpha"))


def lockstep_key(config: TrainConfig) -> str:
    """What the runs of one lockstep group share of their configs: every field
    but ``seed`` and ``alpha``.  Runs whose epochs also have as many steps step
    together."""
    return repr([getattr(config, name) for name in _SHARED_FIELDS])


def stack_runs(context_size: int, vocab_size: int) -> int:
    """How many runs of a (context_size, vocab_size) table one lockstep stack
    holds: :data:`STACK_CELLS` cells, and at least one run."""
    return max(1, STACK_CELLS // (context_size * vocab_size))


@dataclass
class AdamState:
    """First/second moment accumulators for the decoupled-weight-decay update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


@dataclass
class RunState:
    """Mutable state of R runs stepped in lockstep by :func:`train_step`; R = 1
    is a lone run.

    Run r owns rows r*C to (r+1)*C of the stacked policy and AdamW moment
    tables, entry r of ``alphas``, ``terms`` and ``last_delta``, and entries
    2r and 2r + 1 of ``ema``, its positive and auxiliary EMA statistics as
    floats (None until the first update seeds them).  ``terms`` are the runs'
    :func:`~bfpo.losses.loss_terms`, fixed for the phase when the state is
    made.  The runs share ``config`` and the step count, so the learning rate
    and AdamW's ``t`` are shared scalars.  Each step's stack carries the
    frozen reference.
    """

    policy: PolicyParams
    opt: AdamState
    config: TrainConfig
    alphas: Sequence[float]
    total_steps: int
    step: int = 0
    epoch: int = 0
    ema: list[float] | None = None
    last_delta: list[float] = field(init=False)
    terms: list[tuple] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = self.config
        self.terms = loss_terms(c.method, [
            LossConfig(beta=c.beta, alpha=a, pi_n=c.pi_n, lambda_d=c.lambda_d,
                       lambda_u=c.lambda_u)
            for a in self.alphas
        ])
        self.last_delta = [0.0] * len(self.alphas)

    def references(self) -> list[ReferenceState]:
        """Each run's EMA statistics as a :class:`~bfpo.rewards.ReferenceState`."""
        decay = self.config.ema_decay
        if self.ema is None:
            return [ReferenceState(decay=decay) for _ in self.alphas]
        return [ReferenceState(p, a, decay, True) for p, a in zip(self.ema[0::2], self.ema[1::2])]


@dataclass(frozen=True, eq=False)
class MetricsTable:
    """A run's per-step metrics as one table: row k is step k + 1, of epoch
    ``k // steps_per_epoch``, and holds the float columns of
    :data:`METRICS_COLUMNS` (those after step, epoch and method)."""

    method: Method
    steps_per_epoch: int
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)

    def rows(self) -> list[list]:
        """Each step's :data:`METRICS_COLUMNS` values, in order."""
        name, per_epoch = self.method.value, self.steps_per_epoch
        return [[k + 1, k // per_epoch, name, *row] for k, row in enumerate(self.values.tolist())]


@dataclass
class TrainResult:
    """A trained run.  ``metrics_table`` holds its method phase's metrics;
    ``metrics`` is the same as one dict a step, keyed by
    :data:`METRICS_COLUMNS`, built when it is first read."""

    policy: PolicyParams
    reference: PolicyParams
    ema: ReferenceState
    opt: "AdamState"
    metrics_table: MetricsTable
    alpha_estimate: AlphaEstimate | None
    alpha_resolved: float
    aux_user_ids: list[str]
    dpo_pairs_skipped: int = 0

    @functools.cached_property
    def metrics(self) -> list[dict]:
        return [dict(zip(METRICS_COLUMNS, row)) for row in self.metrics_table.rows()]


def _lr_at(step: int, total_steps: int, base: float, warmup_fraction: float) -> float:
    """Linear warm-up over the first fraction of steps, then linear decay to zero."""
    warmup = max(1, math.ceil(warmup_fraction * total_steps))
    if step <= warmup:
        return base * step / warmup
    if total_steps <= warmup:
        return base
    return base * max(0.0, (total_steps - step) / (total_steps - warmup))


def _adamw_apply(
    params: PolicyParams,
    grad: np.ndarray,
    opt: AdamState,
    lr: float,
    momentum: tuple[float, float, float],
    weight_decay: float,
) -> None:
    """logits -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * logits),
    in place, one rounding per operation as the expression spells it."""
    b1, b2, eps = momentum
    opt.t += 1
    opt.m *= b1
    opt.m += (1.0 - b1) * grad
    square = (1.0 - b2) * grad
    square *= grad
    opt.v *= b2
    opt.v += square
    step = opt.m / (1.0 - b1**opt.t)
    root = np.divide(opt.v, 1.0 - b2**opt.t, out=square)
    np.sqrt(root, out=root)
    root += eps
    step /= root
    step += weight_decay * params.logits
    step *= lr
    params.logits -= step


class Batches(NamedTuple):
    """A run's batches as index arrays into two pools: batch k takes the next
    ``n_pos[k]`` entries of ``pos`` (indices into ``pos_pool``) and the next
    ``n_aux[k]`` of ``aux`` (into ``aux_pool``)."""

    pos: np.ndarray
    aux: np.ndarray
    n_pos: np.ndarray
    n_aux: np.ndarray
    pos_pool: SampleTable
    aux_pool: SampleTable

    def join(self, *later: "Batches") -> "Batches":
        """These batches, then those of ``later`` epochs of the same run."""
        arrays = (np.concatenate(parts) for parts in zip(*(e[:4] for e in (self, *later))))
        return Batches(*arrays, self.pos_pool, self.aux_pool)

    def batch(self, k: int) -> Batch:
        """Batch k as a :class:`~bfpo.losses.Batch`."""
        pos, aux = (side[counts[:k].sum() : counts[: k + 1].sum()]
                    for side, counts in ((self.pos, self.n_pos), (self.aux, self.n_aux)))
        return Batch(pos, aux, self.pos_pool, self.aux_pool)


def make_batches(dataset: UserDataset, config: TrainConfig, epoch_seed: int) -> Batches:
    """Seeded per-epoch batches: one epoch is one pass over the target side.
    A DPO dataset holds the run's pairs, the preferred completions as its
    target side and the rejected ones, in the same order, as its auxiliary
    side, so a DPO batch takes the same indices from both.
    :func:`stack_batches` encodes the batches."""
    rng = np.random.default_rng(epoch_seed)
    pos, aux = dataset.tar_train, dataset.aux_train
    if len(pos) == 0:
        raise InputError("target training split is empty")
    order = rng.permutation(len(pos))
    steps = -(-len(pos) // config.batch_size_pos)
    n_pos = np.full(steps, config.batch_size_pos)
    n_pos[-1] = len(pos) - config.batch_size_pos * (steps - 1)
    if config.method is Method.SFT:
        return Batches(order, _NONE, n_pos, np.zeros(steps, np.int64), pos, aux)
    if config.method is Method.DPO:
        if len(aux) != len(pos):
            raise ConfigError(f"DPO: {len(pos)} preferred completions for {len(aux)} rejected")
        return Batches(order, order, n_pos, n_pos, pos, aux)
    if len(aux) == 0:
        raise InputError("auxiliary training split is empty")
    aux_order = rng.permutation(len(aux))
    bs_aux = config.resolved_aux_batch(dataset.ratio_x)
    # The auxiliary side cycles through its permutation across the epoch.
    aux_idx = aux_order[np.arange(steps * bs_aux) % len(aux)]
    return Batches(order, aux_idx, n_pos, np.full(steps, bs_aux), pos, aux)


class _StepBatches(Sequence):
    """Batch k of each run's :class:`Batches`, built only when read: a
    diagnostic dump reads one."""

    __slots__ = ("batches", "k")

    def __init__(self, batches: Sequence[Batches], k: int) -> None:
        self.batches, self.k = batches, k

    def __len__(self) -> int:
        return len(self.batches)

    def __getitem__(self, r: int) -> Batch:
        return self.batches[r].batch(self.k)


def stack_batches(
    batches: Sequence[Batches],
    codes: Encoded,
    firsts: Sequence[int],
    reference: np.ndarray | None,
) -> list[Stack]:
    """R runs' batches in lockstep: step k stacks every run's k-th batch.

    ``batches[r]`` is run r's batches, one or more :func:`make_batches`
    epochs (:meth:`Batches.join`).  ``codes`` is the runs' encodings stacked by
    :func:`bfpo.policy.stack_codes`, run r's from sequence ``firsts[r]``:
    each the encoding of the pools its batches index, ``tar_train`` then
    ``aux_train`` of its dataset (for DPO, the preferred then the rejected
    completions), and ``reference`` their reference log-probabilities (None
    for SFT).  One pass over index arrays
    gathers every step's sequences into a plan of the arrays a step reads,
    per token its row, cell and sequence (numbered from 0 in its step), per
    sequence its length and reference value; each step's
    :class:`~bfpo.policy.Encoded` and reference are slices of it, and its
    runs' batches are built only when read.
    """
    steps = len(batches[0].n_pos)
    if any(len(b.n_pos) != steps for b in batches):
        raise ConfigError("runs stepped in lockstep need the same number of batches")
    # A batch's sequences: its positives, then its auxiliaries, whose pool
    # follows the positives' in the encoding.  ``source`` holds each run's
    # sides one after the other, each side's steps in order; the plan takes
    # step by step, run by run, positives then auxiliaries.
    counts = np.array([(b.n_pos, b.n_aux) for b in batches])  # (run, side, step)
    source = np.concatenate([side + base for b, first in zip(batches, firsts)
                             for side, base in ((b.pos, first), (b.aux, first + len(b.pos_pool)))])
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape).transpose(2, 0, 1)
    counts = counts.transpose(2, 0, 1)  # (step, run, side)
    flat = counts.ravel()
    index = np.repeat(starts.ravel() - (np.cumsum(flat) - flat), flat)
    index = source[index + np.arange(len(index))]
    sizes = counts.sum(axis=(1, 2))
    seq_ends = np.cumsum(sizes)
    lengths = codes.lengths[index]
    ends = np.cumsum(lengths)
    # Each sequence's tokens, read from where they sit in ``codes`` (the
    # positions are freed before the sequence numbers are made).
    token_starts = np.cumsum(codes.lengths) - codes.lengths
    where = np.repeat(token_starts[index] - (ends - lengths), lengths)
    where += np.arange(len(where))
    rows, cells = codes.rows[where], codes.cells[where]
    del where
    seq = np.repeat(np.arange(len(index)) - np.repeat(seq_ends - sizes, sizes), lengths)
    seq_bounds = [0] + seq_ends.tolist()
    tok_bounds = [0] + ends[seq_ends - 1].tolist()
    refs = None if reference is None else reference[index]
    return [
        Stack(
            _StepBatches(batches, k),
            Encoded(rows[lo:hi], cells[lo:hi], seq[lo:hi], lengths[a:b]),
            Layout.of(*sides),
            None if refs is None else refs[a:b],
        )
        for k, sides, a, b, lo, hi in zip(
            range(steps), counts.transpose(0, 2, 1).tolist(), seq_bounds, seq_bounds[1:],
            tok_bounds, tok_bounds[1:],
        )
    ]


def _diagnostic_dump(batch: Batch, breakdown: np.ndarray | None, state: RunState) -> dict:
    pos, aux = ([dict(zip(("user_id", "x", "y", "split"), row)) for row in side.rows()]
                for side in batch.samples())
    dpo = state.config.method is Method.DPO
    # A DPO batch's rows are its pairs' completions: it is dumped as pairs.
    dump = {
        "step": state.step,
        "epoch": state.epoch,
        "method": state.config.method.value,
        "pos": [] if dpo else pos,
        "aux": [] if dpo else aux,
        "pairs": [{"x": w["x"], "y_w": w["y"], "y_l": l["y"]} for w, l in zip(pos, aux) if dpo],
    }
    if breakdown is not None:
        dump["breakdown"] = dict(zip(BREAKDOWN_COLUMNS, breakdown.tolist()))
    return dump


def train_step(state: RunState, batch: Stack) -> tuple[RunState, np.ndarray]:
    """One optimization step of every run of the stack; each run's EMA is
    updated (by :func:`bfpo.rewards.ema_fold`) before its anchor is read.
    Returns each run's loss breakdown, as the rows of
    :func:`bfpo.losses.scored_loss`'s columns."""
    state.step += 1
    config = state.config
    method = config.method
    layout = batch.layout
    runs = len(layout.n_pos)
    if method in _BINARY_METHODS and not layout.both_sides:
        raise InputError(
            f"{method.value} step needs non-empty positive and auxiliary sides"
        )
    # One reward pass, shared by the EMA anchors and the losses.
    scores = score(method, batch, state.policy, config.beta)
    if method in _BINARY_METHODS:
        # Bin 2r adds run r's positive rewards, bin 2r + 1 its auxiliary ones.
        means = (ordered_sums(scores.rewards, layout.seg, 2 * runs) / layout.sides).tolist()
        if not all(map(math.isfinite, means)):
            bad = next(i for i, m in enumerate(means) if not math.isfinite(m)) // 2
            raise NumericError(
                f"non-finite batch rewards at step {state.step}",
                details=_diagnostic_dump(batch.batches[bad], None, state),
            )
        if state.ema is None:  # the first update seeds the EMAs with the means
            state.ema = means
        else:
            fold, decay = rewards.ema_fold, config.ema_decay
            state.ema = [fold(ema, mean, decay) for ema, mean in zip(state.ema, means)]
        if config.delta_mode == "ema":
            state.last_delta = list(map(rewards.ema_anchor, state.ema[0::2], state.ema[1::2]))
        else:  # delta_joint of each run's batch
            state.last_delta = (ordered_sums(scores.rewards, layout.run, runs)
                                / layout.sizes).tolist()

    values, grad = scored_loss(method, scores, state.terms, state.last_delta, want_grad=True)
    grad_finite = np.logical_and.reduce(np.isfinite(grad), axis=None)
    if not (all(map(math.isfinite, values[:, _TOTAL].tolist())) and grad_finite):
        finite = np.isfinite(grad.reshape(runs, -1)).all(axis=1) & np.isfinite(values[:, _TOTAL])
        r = int(np.argmin(finite))
        raise NumericError(
            f"non-finite loss or gradient at step {state.step}",
            details=_diagnostic_dump(batch.batches[r], values[r], state),
        )
    lr = _lr_at(state.step, state.total_steps, config.learning_rate, config.warmup_fraction)
    _adamw_apply(state.policy, grad, state.opt, lr, config.momentum_params, config.weight_decay)
    return state, values


def synth_dpo_pairs(
    dataset: UserDataset, policy: PolicyParams, seed: int, budget: int
) -> tuple[UserDataset, int]:
    """The pairs dataset DPO trains on, and how many target samples it skipped.

    Each target training completion is paired with a distinct completion of
    its length rejection-sampled from the policy, or skipped once ``budget``
    candidates have all repeated it.  The target side is the kept rows of
    ``tar_train``; the auxiliary side is that table with each completion
    replaced by its rejected one, so the sides share prompts, offsets, users
    and splits row for row.  A candidate is what
    :func:`bfpo.policy.sample_completion` draws: its ``rng.choice(V, p=row)``
    reads one ``rng.random()`` u per token and returns ``searchsorted(cdf, u,
    side="right")``, the count of the row's normalized cdf entries <= u; here
    one ``rng.random(L)`` reads a candidate's L draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    table = dataset.tar_train
    # Checks every prompt's range and every completion's length >= 1.
    codes = encode_table(table, policy.context_size, policy.vocab_size)
    cdf = np.cumsum(softmax_tables(policy.logits)[1], axis=1)
    cdf /= cdf[:, -1:]
    tokens, offsets = table.y_tokens.tolist(), table.y_offsets
    kept, rejected = [], []  # the kept rows, and their candidates end to end
    row_cdfs = np.split(cdf[codes.rows], offsets[1:-1])
    for i, (start, row_cdf) in enumerate(zip(offsets[:-1].tolist(), row_cdfs)):
        completion = tokens[start : start + len(row_cdf)]
        for _ in range(budget):
            candidate = (row_cdf <= rng.random(len(completion))[:, None]).sum(axis=1).tolist()
            if candidate != completion:
                kept.append(i)
                rejected += candidate
                break
    skipped = len(table) - len(kept)
    if skipped:
        logger.warning("DPO pair synthesis skipped %d samples (budget exhausted)", skipped)
    preferred = table.take(kept)
    rejected_side = replace(preferred, y_tokens=np.array(rejected, dtype=np.int64))
    return replace(dataset, h_tar=preferred, h_aux=rejected_side), skipped


def _epoch_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


@dataclass
class _PhaseRun:
    """One run's part of a phase (the warm start or the method): what it trains
    from and on, then what it trained.  The dataset's target side is what the
    phase learns from and its auxiliary side what it contrasts."""

    config: TrainConfig
    dataset: UserDataset
    codes: Encoded  # the dataset's tar_train then aux_train, encoded
    rng: np.random.Generator  # draws the epoch seeds
    policy: PolicyParams  # the starting policy, then the trained one
    reference: PolicyParams | None = None  # the method phase's frozen reference
    alpha: float = 0.0
    ema: ReferenceState | None = None
    opt: AdamState | None = None
    metrics_table: MetricsTable | None = None

    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.dataset.tar_train) / self.config.batch_size_pos)


def _train_epochs(runs: Sequence[_PhaseRun], vocab_size: int) -> None:
    """``config.epochs`` seeded epochs of :func:`make_batches` and
    :func:`train_step` from a fresh optimizer and EMA, for the runs of one
    lockstep group, stepped with the first run's config; the epochs are
    stacked in blocks of about :data:`PLAN_TOKENS` tokens, one
    :func:`stack_batches` call a block.  Each run is left holding its trained
    policy, EMA, AdamW state and :class:`MetricsTable`, whose rows the steps'
    loss columns, anchors and EMAs fill once the phase is done.  A policy left
    non-finite by the last update raises :class:`NumericError` with its run's
    dump of the last batch."""
    config = runs[0].config
    context = config.context_size
    steps = runs[0].steps_per_epoch()
    stacked = PolicyParams(
        vocab_size, len(runs) * context, np.concatenate([r.policy.logits for r in runs])
    )
    state = RunState(
        policy=stacked,
        opt=AdamState.zeros(stacked.logits.shape),
        config=config,
        alphas=[r.alpha for r in runs],
        total_steps=config.epochs * steps,
    )
    codes = stack_codes([r.codes for r in runs], context, vocab_size)
    firsts = np.cumsum([0] + [r.codes.n for r in runs[:-1]]).tolist()
    reference = None
    if config.method is not Method.SFT:
        # The references are frozen: score every sequence under them once.
        ref_table = softmax_tables(np.concatenate([r.reference.logits for r in runs]))[0]
        reference = sequence_log_probs(ref_table, codes)
    losses, deltas, emas = [], [], []  # per step: (R, 6) loss columns, R anchors, 2R EMAs
    # An epoch is counted as many tokens as the encoding: each target once,
    # and auxiliaries at the dataset's ratio.
    block = max(1, PLAN_TOKENS // len(codes.cells))
    for first in range(0, config.epochs, block):
        epochs = range(first, min(first + block, config.epochs))
        batches = [
            Batches.join(*[make_batches(r.dataset, r.config, _epoch_seed(r.rng)) for _ in epochs])
            for r in runs
        ]
        for k, stack in enumerate(stack_batches(batches, codes, firsts, reference)):
            state.epoch = first + k // steps
            state, values = train_step(state, stack)
            losses.append(values)
            deltas += state.last_delta
            emas += state.ema or ()
    # train_step checks each update's loss and gradient, and the next step
    # reads the policy it made; the phase's last update is checked here.
    if not np.logical_and.reduce(np.isfinite(state.policy.logits), axis=None):
        r = int(np.argmin(np.isfinite(state.policy.logits).reshape(len(runs), -1).all(axis=1)))
        raise NumericError(
            f"non-finite policy after the update of step {state.step}",
            details=_diagnostic_dump(stack.batches[r], values[r], state),
        )
    # Run r's table: its loss columns, anchor and EMA pair (0.0, 0.0 if never
    # updated) at each step.
    table = np.zeros((len(runs), len(losses), len(METRICS_COLUMNS) - 3))
    table[..., :_DELTA] = np.transpose(losses, (1, 0, 2))
    table[..., _DELTA] = np.reshape(deltas, (len(losses), -1)).T
    if emas:
        table[..., _DELTA + 1:] = np.reshape(emas, (len(losses), -1, 2)).transpose(1, 0, 2)
    for i, (r, ema) in enumerate(zip(runs, state.references())):
        own = slice(i * context, (i + 1) * context)
        r.policy = PolicyParams(vocab_size, context, state.policy.logits[own].copy())
        r.ema = ema
        r.opt = AdamState(m=state.opt.m[own].copy(), v=state.opt.v[own].copy(), t=state.opt.t)
        r.metrics_table = MetricsTable(config.method, steps, table[i])


def _train_phase(runs: Sequence[_PhaseRun], vocab_size: int) -> None:
    """Train each run's phase, its lockstep groups (by :func:`lockstep_key`
    and steps per epoch) in stacks of at most :func:`stack_runs` runs."""
    groups: dict[tuple, list[_PhaseRun]] = {}
    for r in runs:
        groups.setdefault((lockstep_key(r.config), r.steps_per_epoch()), []).append(r)
    # A diverging run overflows numpy before train_step's finite checks catch
    # it; those raise NumericError, so the warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            size = stack_runs(members[0].config.context_size, vocab_size)
            for lo in range(0, len(members), size):
                _train_epochs(members[lo : lo + size], vocab_size)


def check_trainable(dataset: UserDataset, config: TrainConfig) -> None:
    """Raise the :class:`InputError` a run of ``config`` on ``dataset`` would
    meet before its first step: no target training samples, an empty
    warm-start (auxiliary) pool, fewer than two target samples to estimate
    alpha from, or no auxiliary samples for the BCO family or KTO.  The DPO
    pairs a run draws are not checked: whether any are usable shows only once
    the warm start is trained."""
    n_tar, n_aux = len(dataset.tar_train), len(dataset.aux_train)
    if n_tar == 0:
        raise InputError("dataset has no target training samples")
    if config.warmstart_epochs > 0 and n_aux == 0:
        raise InputError("warm-start sample pool is empty")
    estimates = config.method in (Method.CBPO, Method.CBPO_RAW) and config.alpha == "estimate"
    if estimates and n_tar < 2:
        raise InputError("need at least 2 samples to split off a held-out set")
    if config.method in _BINARY_METHODS and n_aux == 0:
        raise InputError("auxiliary training split is empty")


def run_many(
    datasets: Sequence[UserDataset], configs: Sequence[TrainConfig], vocab_size: int
) -> list[TrainResult]:
    """Train run r on ``datasets[r]`` with ``configs[r]``, as :func:`run` would,
    with the runs of each phase stepped in lockstep where they can be.

    Each phase (the warm start, then the method) groups the runs whose config
    agrees in every field but ``seed`` and ``alpha`` and whose epochs have as
    many steps; a group trains as one stacked (R*C, V) table through
    :func:`train_step`.  Each distinct warm start (the same SFT config by
    :func:`lockstep_key`, seed and dataset object) trains once, and every run
    that has it starts from its policy: runs that differ only in alpha or the
    method share one.  Every run's result
    equals training it alone, bit for bit.  Alpha estimation and DPO pair
    synthesis run per run between the phases.  Every run is checked by
    :func:`check_trainable` first, so an untrainable one fails before any
    trains.
    """
    if len(datasets) != len(configs):
        raise ConfigError(f"{len(datasets)} datasets for {len(configs)} configs")
    warm: dict[tuple, _PhaseRun] = {}  # by SFT config, seed and dataset
    methods: list[_PhaseRun] = []
    between: list[tuple[np.random.SeedSequence, np.random.SeedSequence, _PhaseRun | None]] = []
    for dataset, config in zip(datasets, configs):
        check_trainable(dataset, config)
        ss_warm, ss_method, ss_pairs, ss_alpha = np.random.SeedSequence(config.seed).spawn(4)
        # Bucket rows depend on context_size, so the data is encoded once per run.
        tar_train, aux_train = dataset.tar_train, dataset.aux_train
        codes = encode_table(tar_train + aux_train, config.context_size, vocab_size)
        policy = uniform_params(vocab_size, config.context_size)
        warm_run = None
        if config.warmstart_epochs > 0:
            warm_lr = config.learning_rate if config.warmstart_lr is None else config.warmstart_lr
            sft = replace(
                config, method=Method.SFT, epochs=config.warmstart_epochs, learning_rate=warm_lr
            )
            key = (lockstep_key(sft), config.seed, id(dataset))
            if key not in warm:
                aux_as_target = replace(dataset, h_tar=aux_train, h_aux=aux_train[:0])
                aux_codes = codes.split([len(tar_train), len(aux_train)])[1]
                warm[key] = _PhaseRun(sft, aux_as_target, aux_codes,
                                      np.random.default_rng(ss_warm), policy)
            warm_run = warm[key]
        between.append((ss_pairs, ss_alpha, warm_run))
        methods.append(_PhaseRun(config, dataset, codes,
                                 np.random.default_rng(ss_method), policy))
    try:
        _train_phase(list(warm.values()), vocab_size)
    except NumericError as exc:
        raise NumericError(f"warm start: {exc}", exc.details) from exc

    prepared = []
    for job, (ss_pairs, ss_alpha, warm_run) in zip(methods, between):
        config, dataset = job.config, job.dataset
        if warm_run is not None:
            job.policy = warm_run.policy
        job.reference = snapshot_reference(job.policy)
        alpha_estimate: AlphaEstimate | None = None
        if config.method in (Method.CBPO, Method.CBPO_RAW):
            if config.alpha == "estimate":
                alpha_estimate = run_alpha_estimation(
                    dataset.tar_train,
                    dataset.aux_train,
                    vocab_size,
                    epochs=config.alpha_estimator_epochs,
                    lr=config.alpha_estimator_lr,
                    seed=int(np.random.default_rng(ss_alpha).integers(0, 2**31)),
                )
                job.alpha = alpha_estimate.alpha_hat
            else:
                job.alpha = float(config.alpha)
        skipped = 0
        if config.method is Method.DPO:
            pair_seed = int(np.random.default_rng(ss_pairs).integers(0, 2**31))
            budget = config.dpo_rejection_budget
            job.dataset, skipped = synth_dpo_pairs(dataset, job.policy, pair_seed, budget)
            preferred, rejected = job.dataset.tar_train, job.dataset.aux_train
            if len(preferred) == 0:
                raise InputError("DPO pair synthesis produced no usable pairs")
            job.codes = encode_table(preferred + rejected, config.context_size, vocab_size)
        prepared.append((alpha_estimate, skipped))

    _train_phase(methods, vocab_size)
    return [
        TrainResult(
            policy=job.policy,
            reference=job.reference,
            ema=job.ema,
            opt=job.opt,
            metrics_table=job.metrics_table,
            alpha_estimate=alpha_estimate,
            alpha_resolved=job.alpha,
            aux_user_ids=dataset.aux_user_ids,
            dpo_pairs_skipped=skipped,
        )
        for dataset, job, (alpha_estimate, skipped) in zip(datasets, methods, prepared)
    ]


def run(dataset: UserDataset, config: TrainConfig, vocab_size: int) -> TrainResult:
    """Warm start on the auxiliary pool, freeze the reference, run the method:
    :func:`run_many` of one run."""
    return run_many([dataset], [config], vocab_size)[0]


# ---------------------------------------------------------------------------
# Run-state persistence
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    policy: PolicyParams
    reference: PolicyParams
    ema: ReferenceState
    opt: AdamState
    step: int
    vocab_size: int
    config: dict
    dataset_meta: dict


def _params_doc(params: PolicyParams) -> dict:
    return {
        "vocab_size": params.vocab_size,
        "context_size": params.context_size,
        "logits": params.logits.tolist(),
    }


def _table_from_doc(rows: object, name: str) -> np.ndarray:
    """A checkpoint table as float64: a list of rows of equal length whose
    entries are JSON numbers (an int or a float, not a bool or a string).
    Raises ``ValueError`` naming the table."""
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise ValueError(f"{name} must be a list of rows")
    if not {*map(type, chain.from_iterable(rows))} <= {int, float}:
        raise ValueError(f"{name} must hold only numbers")
    try:
        return np.array(rows, dtype=np.float64)  # rows of unequal length raise ValueError
    except OverflowError as exc:
        raise ValueError(f"{name} holds a number out of range ({exc})") from exc


def _params_from_doc(doc: dict, name: str) -> PolicyParams:
    return PolicyParams(
        vocab_size=cast(int, doc["vocab_size"]),
        context_size=cast(int, doc["context_size"]),
        logits=_table_from_doc(doc["logits"], f"{name}.logits"),
    )


def train_config_doc(config: TrainConfig) -> dict:
    """Every field of the config as JSON values (the method by its name)."""
    return {**asdict(config), "method": config.method.value}


def save_checkpoint(
    path: str | Path,
    result: TrainResult,
    config: TrainConfig,
    vocab_size: int,
    dataset_meta: dict,
) -> None:
    doc = {
        "schema_version": 1,
        "vocab_size": vocab_size,
        "step": len(result.metrics_table),
        "policy": _params_doc(result.policy),
        "reference": _params_doc(result.reference),
        "ema": asdict(result.ema),
        "optimizer": {
            "m": result.opt.m.tolist(),
            "v": result.opt.v.tolist(),
            "t": result.opt.t,
        },
        "config": {**train_config_doc(config), "alpha_resolved": result.alpha_resolved},
        "dataset_meta": dataset_meta,
    }
    write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a missing, truncated or malformed file is an InputError.
    Its scalars are cast by the config rules (:func:`bfpo.schema.cast`)."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise InputError(f"checkpoint {path} is not readable: {exc}") from exc
    doc = decode_json(text, InputError, f"checkpoint {path}")
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        raise InputError(f"unsupported checkpoint version {version}")
    try:
        ema_doc = doc["ema"]
        opt_doc = doc["optimizer"]
        return Checkpoint(
            policy=_params_from_doc(doc["policy"], "policy"),
            reference=_params_from_doc(doc["reference"], "reference"),
            ema=ReferenceState(
                ema_pos=cast(float, ema_doc["ema_pos"]),
                ema_aux=cast(float, ema_doc["ema_aux"]),
                decay=cast(float, ema_doc["decay"]),
                initialized=cast(bool, ema_doc["initialized"]),
            ),
            opt=AdamState(
                m=_table_from_doc(opt_doc["m"], "optimizer.m"),
                v=_table_from_doc(opt_doc["v"], "optimizer.v"),
                t=cast(int, opt_doc["t"]),
            ),
            step=cast(int, doc["step"]),
            vocab_size=cast(int, doc["vocab_size"]),
            config=dict(doc["config"]),
            dataset_meta=dict(doc["dataset_meta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {path} is malformed: {exc!r}") from exc
