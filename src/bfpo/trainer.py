"""Optimization loop: batching, method dispatch, EMA wiring and run state.

A run has three phases: a warm start (the stand-in for a general task model),
a reference freeze, and the configured method's optimization over the
target/auxiliary split.  The warm start is the SFT method with the pooled
auxiliary data as its target history, run by the same epoch loop, batching and
optimizer step as the method.  Everything is a pure function of (dataset,
config, seed): batch order, the optimizer trajectory and the metrics log
reproduce byte-identically.

:func:`run_many` trains R runs in lockstep.  In each phase, runs whose config
agrees in every field but ``seed`` and ``alpha`` and whose epochs have as many
steps form a group, which :func:`train_step` steps as one stacked (R*C, V)
table: run r's encoded rows are offset by r*C, so each kernel and the AdamW
update serve the whole group with one call.  The warm start's SFT steps read
fewer fields, so runs that differ in the method or in fields only the method
phase reads warm up in one group.  What differs between runs stays
per run: the alpha, the EMA, the left-to-right batch sums, the generators,
batches and metrics rows, and the DPO pairs and alpha estimate made between the
phases.  The learning rate and AdamW's step count are shared scalars, since a
group's runs step together.  :func:`run` is the case R = 1; every run's result
equals training it alone, bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .alpha import DEFAULT_EPOCHS, DEFAULT_LR, AlphaEstimate, run_alpha_estimation
from .datagen import UserDataset
from .errors import ConfigError, InputError, NumericError
from .files import write_atomic
from .losses import (
    Batch,
    DpoPair,
    LossBreakdown,
    LossConfig,
    Layout,
    Method,
    Stack,
    encode_batch,
    score,
    scored_loss,
)
from .policy import (
    Encoded,
    PolicyParams,
    Sample,
    encode,
    ordered_sums,
    snapshot_reference,
    softmax_tables,
    stack_codes,
    uniform_params,
)
from .rewards import ReferenceState, delta_ema, ema_update

__all__ = [
    "AdamState",
    "METRICS_COLUMNS",
    "RunState",
    "TrainConfig",
    "TrainResult",
    "load_checkpoint",
    "lockstep_key",
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

METRICS_COLUMNS = (
    "step",
    "epoch",
    "method",
    "l_pos",
    "l_aux_neg",
    "l_tar_neg",
    "pure_neg_raw",
    "pure_neg_clamped",
    "total",
    "delta",
    "ema_pos",
    "ema_aux",
)

_BINARY_METHODS = (Method.KTO, Method.BCO, Method.CBPO_RAW, Method.CBPO)

# Bound on the table cells (R * C * V) of one lockstep stack: on the frozen
# config a run's cost stops falling at about 24 runs of 576 cells, so wider
# stacks would only hold more memory (BENCH_lockstep.json, stack_cells).
STACK_CELLS = 16384


@dataclass
class TrainConfig:
    """Everything a run depends on besides the dataset itself."""

    method: Method = Method.CBPO
    epochs: int = 3
    batch_size_pos: int = 8
    batch_size_aux: int | None = None  # None: round(batch_size_pos * dataset ratio)
    learning_rate: float = 0.2
    beta: float = 0.1
    alpha: float | str = "estimate"
    ema_decay: float = 0.9
    seed: int = 0
    momentum_params: tuple[float, float, float] = (0.9, 0.999, 1e-8)
    context_size: int = 8
    pi_n: float = 1.0
    lambda_d: float = 1.0
    lambda_u: float = 1.0
    delta_mode: str = "ema"  # "ema" or "batch" (joint per-batch mean)
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    warmstart_epochs: int = 2
    warmstart_lr: float | None = None
    dpo_rejection_budget: int = 16
    alpha_estimator_epochs: int = DEFAULT_EPOCHS
    alpha_estimator_lr: float = DEFAULT_LR

    def __post_init__(self) -> None:
        self.method = Method(self.method)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # learning_rate 0 is allowed: a null step still logs losses.
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size_pos < 1:
            raise ConfigError("batch_size_pos must be >= 1")
        if self.batch_size_aux is not None and self.batch_size_aux < 1:
            raise ConfigError("batch_size_aux must be >= 1")
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must lie in (0, 1), got {self.ema_decay}")
        if self.delta_mode not in ("ema", "batch"):
            raise ConfigError(f"delta_mode must be 'ema' or 'batch', got {self.delta_mode!r}")
        if isinstance(self.alpha, str):
            if self.alpha != "estimate":
                raise ConfigError(f"alpha must be a number or 'estimate', got {self.alpha!r}")
        else:
            self.alpha = float(self.alpha)
            if not 0.0 <= self.alpha < 1.0:
                raise ConfigError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 < self.pi_n <= 1.0:
            raise ConfigError(f"pi_n must lie in (0, 1], got {self.pi_n}")
        if self.context_size < 1:
            raise ConfigError("context_size must be >= 1")
        if self.warmstart_epochs < 0:
            raise ConfigError("warmstart_epochs must be >= 0")
        if self.warmstart_lr is not None and self.warmstart_lr < 0:
            raise ConfigError(f"warmstart_lr must be >= 0, got {self.warmstart_lr}")
        if self.method is Method.KTO and self.batch_size_pos + (self.batch_size_aux or 1) < 2:
            raise ConfigError("KTO needs a combined batch size of >= 2")

    def resolved_aux_batch(self, ratio_x: float) -> int:
        if self.batch_size_aux is not None:
            return self.batch_size_aux
        return max(1, int(math.floor(self.batch_size_pos * ratio_x + 0.5)))


_CONFIG_FIELDS = tuple(f.name for f in fields(TrainConfig))
# Config fields runs may differ in and still share a lockstep group: a run's
# seed and alpha are per run, and no step reads the rest.
_PER_RUN = ("seed", "alpha")
_SFT_UNREAD = _PER_RUN + (
    "beta", "ema_decay", "pi_n", "lambda_d", "lambda_u", "delta_mode", "batch_size_aux",
    "warmstart_epochs", "warmstart_lr", "dpo_rejection_budget", "alpha_estimator_epochs",
    "alpha_estimator_lr",
)


def lockstep_key(config: TrainConfig, free: Sequence[str] = _PER_RUN) -> str:
    """What the runs of one lockstep group share of their configs: every field
    but those named in ``free``.  Runs whose epochs also have as many steps
    step together."""
    return repr([getattr(config, name) for name in _CONFIG_FIELDS if name not in free])


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

    Run r owns rows r*C to (r+1)*C of the stacked policy, reference and AdamW
    moment tables, and entry r of ``alphas``, ``ema`` and ``last_delta``.  The
    runs share ``config`` and the step count, so the learning rate and AdamW's
    ``t`` are shared scalars.  The reference is frozen for the whole run, so
    its log-softmax table is computed once, here.
    """

    policy: PolicyParams
    reference: PolicyParams
    opt: AdamState
    config: TrainConfig
    alphas: Sequence[float]
    total_steps: int
    step: int = 0
    epoch: int = 0
    ema: list[ReferenceState] = field(init=False)
    last_delta: list[float] = field(init=False)
    loss_configs: list[LossConfig] = field(init=False, repr=False)
    reference_log_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = self.config
        self.loss_configs = [
            LossConfig(beta=c.beta, alpha=a, pi_n=c.pi_n, lambda_d=c.lambda_d,
                       lambda_u=c.lambda_u)
            for a in self.alphas
        ]
        self.ema = [ReferenceState(decay=c.ema_decay) for _ in self.alphas]
        self.last_delta = [0.0] * len(self.alphas)
        self.reference_log_table = softmax_tables(self.reference.logits)[0]


@dataclass
class TrainResult:
    policy: PolicyParams
    reference: PolicyParams
    ema: ReferenceState
    opt: "AdamState"
    metrics: list[dict]
    alpha_estimate: AlphaEstimate | None
    alpha_resolved: float
    aux_user_ids: list[str]
    dpo_pairs_skipped: int = 0


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


def _chunks(order: np.ndarray, size: int) -> list[np.ndarray]:
    return [order[lo : lo + size] for lo in range(0, len(order), size)]


def make_batches(
    dataset: UserDataset,
    config: TrainConfig,
    epoch_seed: int,
    dpo_pairs: Sequence[DpoPair] | None = None,
) -> list[Batch]:
    """Seeded per-epoch batches: one epoch is one pass over the target side
    (over ``dpo_pairs``, for DPO).  :func:`stack_batches` encodes them."""
    rng = np.random.default_rng(epoch_seed)

    if config.method is Method.DPO:
        if dpo_pairs is None:
            raise ConfigError("DPO requires synthesized pairs but none were supplied")
        if len(dpo_pairs) == 0:
            raise InputError("DPO pair set is empty")
        chunks = _chunks(rng.permutation(len(dpo_pairs)), config.batch_size_pos)
        return [Batch(c, _NONE, dpo_pairs) for c in chunks]

    pos = dataset.tar_train
    if len(pos) == 0:
        raise InputError("target training split is empty")
    chunks = _chunks(rng.permutation(len(pos)), config.batch_size_pos)

    if config.method is Method.SFT:
        return [Batch(c, _NONE, pos) for c in chunks]

    aux = dataset.aux_train
    if len(aux) == 0:
        raise InputError("auxiliary training split is empty")
    aux_order = rng.permutation(len(aux))
    bs_aux = config.resolved_aux_batch(dataset.ratio_x)
    # The auxiliary side cycles through its permutation across the epoch.
    aux_idx = aux_order[np.arange(len(chunks) * bs_aux) % len(aux)].reshape(-1, bs_aux)
    return [Batch(c, a, pos, aux) for c, a in zip(chunks, aux_idx)]


def stack_batches(
    method: Method,
    batches: Sequence[Sequence[Batch]],
    codes: Encoded,
    firsts: Sequence[int],
) -> list[Stack]:
    """R runs' batches in lockstep: step k stacks every run's k-th batch.

    ``batches[r]`` is run r's batches, one or more :func:`make_batches`
    epochs.  ``codes`` is the runs' encodings stacked by
    :func:`bfpo.policy.stack_codes`, run r's from sequence ``firsts[r]``: each
    the :func:`encode_batch` encoding of the set its batches index (all pairs
    for DPO, else ``tar_train`` then ``aux_train``).  Each step carries its
    slice of one ``take`` over ``codes``.
    """
    if len({len(b) for b in batches}) != 1:
        raise ConfigError("runs stepped in lockstep need the same number of batches")
    steps = list(zip(*batches))
    # A batch's sequences: its positives (preferred completions, for DPO), then
    # its auxiliaries (rejected completions), which follow the first pool.
    dpo = method is Method.DPO
    parts = [a for step in steps for b in step for a in (b.pos, b.pos if dpo else b.aux)]
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    bases = [(first, first + len(b[0].pos_pool)) for b, first in zip(batches, firsts)]
    index = np.concatenate(parts) + np.repeat(np.tile(np.ravel(bases), len(steps)), counts)
    counts = counts.reshape(len(steps), len(batches), 2)
    pieces = codes.take(index).split(counts.sum(axis=(1, 2)))
    return [
        Stack(step, piece, Layout.of(*sizes))
        for step, piece, sizes in zip(steps, pieces, counts.transpose(0, 2, 1).tolist())
    ]


def _diagnostic_dump(
    batch: Batch, breakdown: LossBreakdown | None, state: RunState
) -> dict:
    pos, aux = batch.samples()
    dpo = state.config.method is Method.DPO

    def _samples(samples: Sequence[Sample]) -> list[dict]:
        return [{**vars(s), "x": list(s.x), "y": list(s.y)} for s in samples]

    dump = {
        "step": state.step,
        "epoch": state.epoch,
        "method": state.config.method.value,
        "pos": [] if dpo else _samples(pos),
        "aux": _samples(aux),
        "pairs": [
            {"x": list(p.x), "y_w": list(p.y_w), "y_l": list(p.y_l)} for p in pos if dpo
        ],
    }
    if breakdown is not None:
        dump["breakdown"] = {k: v for k, v in vars(breakdown).items() if k != "method"}
    return dump


def train_step(state: RunState, batch: Stack) -> tuple[RunState, list[LossBreakdown]]:
    """One optimization step of every run of the stack; each run's EMA is
    updated before its anchor is read.  Returns each run's loss breakdown."""
    state.step += 1
    method = state.config.method
    layout = batch.layout
    runs = len(layout.n_pos)
    if method in _BINARY_METHODS and (layout.empty_pos or layout.empty_aux):
        raise InputError(
            f"{method.value} step needs non-empty positive and auxiliary sides"
        )
    # One reward pass, shared by the EMA anchors and the losses.
    scores = score(
        method, batch, state.policy, state.reference_log_table, state.config.beta
    )
    delta = [0.0] * runs
    if method in _BINARY_METHODS:
        # Bin 2r adds run r's positive rewards, bin 2r + 1 its auxiliary ones.
        means = (ordered_sums(scores.rewards, layout.seg, 2 * runs) / layout.sides).tolist()
        if not all(map(math.isfinite, means)):
            bad = next(i for i, m in enumerate(means) if not math.isfinite(m)) // 2
            raise NumericError(
                f"non-finite batch rewards at step {state.step}",
                details=_diagnostic_dump(batch.batches[bad], None, state),
            )
        state.ema = list(map(ema_update, state.ema, means[0::2], means[1::2]))
        if state.config.delta_mode == "ema":
            delta = list(map(delta_ema, state.ema))
        else:  # delta_joint of each run's batch
            delta = (ordered_sums(scores.rewards, layout.run, runs) / layout.sizes).tolist()
    state.last_delta = delta

    breakdowns, grad = scored_loss(method, scores, state.loss_configs, delta, want_grad=True)
    if not (all(math.isfinite(b.total) for b in breakdowns) and np.isfinite(grad).all()):
        finite = np.isfinite(grad.reshape(runs, -1)).all(axis=1)
        r = next(r for r, b in enumerate(breakdowns) if not (math.isfinite(b.total) and finite[r]))
        raise NumericError(
            f"non-finite loss or gradient at step {state.step}",
            details=_diagnostic_dump(batch.batches[r], breakdowns[r], state),
        )
    lr = _lr_at(
        state.step, state.total_steps, state.config.learning_rate, state.config.warmup_fraction
    )
    _adamw_apply(
        state.policy, grad, state.opt, lr, state.config.momentum_params,
        state.config.weight_decay,
    )
    return state, breakdowns


def synth_dpo_pairs(
    dataset: UserDataset,
    policy: PolicyParams,
    seed: int,
    budget: int = 16,
) -> tuple[list[DpoPair], int]:
    """Rejection-sample a distinct completion per target sample from the policy.

    Samples whose rejection budget is exhausted are skipped and counted.  A
    candidate is what :func:`bfpo.policy.sample_completion` draws: its
    ``rng.choice(V, p=row)`` reads one ``rng.random()`` u per token and returns
    ``searchsorted(cdf, u, side="right")``, the count of the row's normalized
    cdf entries <= u; here one ``rng.random(L)`` reads a candidate's L draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    samples = dataset.tar_train
    # Checks every prompt's range and every completion's length >= 1.
    codes = encode(((s.x, s.y) for s in samples), policy.context_size, policy.vocab_size)
    cdf = np.cumsum(softmax_tables(policy.logits)[1], axis=1)
    cdf /= cdf[:, -1:]
    pairs: list[DpoPair] = []
    skipped = 0
    for s, row_cdf in zip(samples, np.split(cdf[codes.rows], codes.starts[1:])):
        for _ in range(budget):
            draws = rng.random(len(s.y))
            candidate = tuple((row_cdf <= draws[:, None]).sum(axis=1).tolist())
            if candidate != s.y:
                pairs.append(DpoPair(x=s.x, y_w=s.y, y_l=candidate))
                break
        else:
            skipped += 1
    if skipped:
        logger.warning("DPO pair synthesis skipped %d samples (budget exhausted)", skipped)
    return pairs, skipped


def _metrics_row(step: int, epoch: int, breakdown: LossBreakdown, delta: float,
                 ema: ReferenceState) -> dict:
    return {
        "step": step,
        "epoch": epoch,
        **vars(breakdown),
        "method": breakdown.method.value,
        "delta": delta,
        "ema_pos": ema.ema_pos if ema.initialized else 0.0,
        "ema_aux": ema.ema_aux if ema.initialized else 0.0,
    }


def _epoch_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


@dataclass
class _PhaseRun:
    """One run's part of a phase (the warm start or the method): what it
    trains from, and on what."""

    config: TrainConfig
    dataset: UserDataset
    codes: Encoded  # the set make_batches indexes, encoded
    rng: np.random.Generator  # draws the epoch seeds
    policy: PolicyParams
    reference: PolicyParams
    alpha: float = 0.0
    dpo_pairs: list[DpoPair] | None = None

    def steps_per_epoch(self) -> int:
        n = len(self.dataset.tar_train) if self.dpo_pairs is None else len(self.dpo_pairs)
        return math.ceil(n / self.config.batch_size_pos)


@dataclass
class _PhaseResult:
    policy: PolicyParams
    ema: ReferenceState
    opt: AdamState
    metrics: list[dict]


def _train_epochs(runs: Sequence[_PhaseRun], vocab_size: int) -> list[_PhaseResult]:
    """``config.epochs`` seeded epochs of :func:`make_batches` and
    :func:`train_step` from a fresh optimizer and EMA, for the runs of one
    lockstep group, stepped with the first run's config; one metrics row per
    run and step."""
    config = runs[0].config
    context = config.context_size
    stacked = PolicyParams(
        vocab_size, len(runs) * context, np.concatenate([r.policy.logits for r in runs])
    )
    state = RunState(
        policy=stacked,
        reference=PolicyParams(
            vocab_size, len(runs) * context, np.concatenate([r.reference.logits for r in runs])
        ),
        opt=AdamState.zeros(stacked.logits.shape),
        config=config,
        alphas=[r.alpha for r in runs],
        total_steps=config.epochs * runs[0].steps_per_epoch(),
    )
    metrics: list[list[dict]] = [[] for _ in runs]
    codes = stack_codes([r.codes for r in runs], context, vocab_size)
    firsts = np.cumsum([0] + [r.codes.n for r in runs[:-1]]).tolist()
    for epoch in range(config.epochs):
        state.epoch = epoch
        batches = [
            make_batches(r.dataset, r.config, _epoch_seed(r.rng), r.dpo_pairs) for r in runs
        ]
        for stack in stack_batches(config.method, batches, codes, firsts):
            state, breakdowns = train_step(state, stack)
            for rows, breakdown, delta, ema in zip(
                metrics, breakdowns, state.last_delta, state.ema
            ):
                rows.append(_metrics_row(state.step, epoch, breakdown, delta, ema))
    results = []
    for r, (ema, rows) in enumerate(zip(state.ema, metrics)):
        own = slice(r * context, (r + 1) * context)
        results.append(_PhaseResult(
            policy=PolicyParams(vocab_size, context, state.policy.logits[own].copy()),
            ema=ema,
            opt=AdamState(m=state.opt.m[own].copy(), v=state.opt.v[own].copy(), t=state.opt.t),
            metrics=rows,
        ))
    return results


def _train_phase(
    runs: Sequence[_PhaseRun], vocab_size: int, free: Sequence[str] = _PER_RUN
) -> list[_PhaseResult]:
    """Each run's phase, its lockstep groups (by :func:`lockstep_key` and steps
    per epoch) trained in stacks of at most :func:`stack_runs` runs."""
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(runs):
        groups.setdefault((lockstep_key(r.config, free), r.steps_per_epoch()), []).append(i)
    results: list[_PhaseResult | None] = [None] * len(runs)
    # A diverging run overflows numpy before train_step's finite checks catch
    # it; those raise NumericError, so the warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            size = stack_runs(runs[members[0]].config.context_size, vocab_size)
            for lo in range(0, len(members), size):
                chunk = members[lo : lo + size]
                trained = _train_epochs([runs[i] for i in chunk], vocab_size)
                for i, result in zip(chunk, trained):
                    results[i] = result
    return results


def run_many(
    datasets: Sequence[UserDataset], configs: Sequence[TrainConfig], vocab_size: int
) -> list[TrainResult]:
    """Train run r on ``datasets[r]`` with ``configs[r]``, as :func:`run` would,
    with the runs of each phase stepped in lockstep where they can be.

    Each phase (the warm start, then the method) groups the runs whose config
    agrees in every field but ``seed`` and ``alpha`` and whose epochs have as
    many steps; a group trains as one stacked (R*C, V) table through
    :func:`train_step`.  Every run's result equals training it alone, bit for
    bit.  Alpha estimation and DPO pair synthesis run per run between the
    phases.
    """
    if len(datasets) != len(configs):
        raise ConfigError(f"{len(datasets)} datasets for {len(configs)} configs")
    warm: list[_PhaseRun] = []
    methods: list[_PhaseRun] = []
    between: list[tuple[np.random.SeedSequence, np.random.SeedSequence]] = []
    for dataset, config in zip(datasets, configs):
        if len(dataset.tar_train) == 0:
            raise InputError("dataset has no target training samples")
        ss_warm, ss_method, ss_pairs, ss_alpha = np.random.SeedSequence(config.seed).spawn(4)
        between.append((ss_pairs, ss_alpha))
        # Bucket rows depend on context_size, so the data is encoded once per run.
        tar_train, aux_train = dataset.tar_train, dataset.aux_train
        codes = encode(
            ((s.x, s.y) for s in tar_train + aux_train), config.context_size, vocab_size
        )
        policy = uniform_params(vocab_size, config.context_size)
        if config.warmstart_epochs > 0:
            if len(aux_train) == 0:
                raise InputError("warm-start sample pool is empty")
            warm_lr = config.learning_rate if config.warmstart_lr is None else config.warmstart_lr
            sft = replace(
                config, method=Method.SFT, epochs=config.warmstart_epochs, learning_rate=warm_lr
            )
            aux_as_target = UserDataset(dataset.target_user, aux_train, [], dataset.ratio_x)
            aux_codes = codes.split([len(tar_train), len(aux_train)])[1]
            # SFT reads no reference, so the policy stands in for it.
            warm.append(_PhaseRun(sft, aux_as_target, aux_codes,
                                  np.random.default_rng(ss_warm), policy, policy))
        methods.append(_PhaseRun(config, dataset, codes,
                                 np.random.default_rng(ss_method), policy, policy))
    try:
        # Runs that differ only in what an SFT step does not read warm up together.
        warmed = iter(_train_phase(warm, vocab_size, _SFT_UNREAD))
    except NumericError as exc:
        raise NumericError(f"warm start: {exc}", exc.details) from exc

    prepared = []
    for job, (ss_pairs, ss_alpha) in zip(methods, between):
        config, dataset = job.config, job.dataset
        if config.warmstart_epochs > 0:
            job.policy = next(warmed).policy
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
            job.dpo_pairs, skipped = synth_dpo_pairs(
                dataset, job.policy,
                int(np.random.default_rng(ss_pairs).integers(0, 2**31)),
                budget=config.dpo_rejection_budget,
            )
            if len(job.dpo_pairs) == 0:
                raise InputError("DPO pair synthesis produced no usable pairs")
            job.codes = encode_batch(
                Batch.of(pairs=job.dpo_pairs), Method.DPO, config.context_size, vocab_size
            )
        prepared.append((job, alpha_estimate, skipped))

    trained = _train_phase(methods, vocab_size)
    return [
        TrainResult(
            policy=out.policy,
            reference=job.reference,
            ema=out.ema,
            opt=out.opt,
            metrics=out.metrics,
            alpha_estimate=alpha_estimate,
            alpha_resolved=job.alpha,
            aux_user_ids=job.dataset.aux_user_ids,
            dpo_pairs_skipped=skipped,
        )
        for (job, alpha_estimate, skipped), out in zip(prepared, trained)
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
        "logits": [[float(v) for v in row] for row in params.logits],
    }


def _params_from_doc(doc: dict) -> PolicyParams:
    return PolicyParams(
        vocab_size=int(doc["vocab_size"]),
        context_size=int(doc["context_size"]),
        logits=np.asarray(doc["logits"], dtype=np.float64),
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
        "step": len(result.metrics),
        "policy": _params_doc(result.policy),
        "reference": _params_doc(result.reference),
        "ema": {
            "ema_pos": result.ema.ema_pos,
            "ema_aux": result.ema.ema_aux,
            "decay": result.ema.decay,
            "initialized": result.ema.initialized,
        },
        "optimizer": {
            "m": [[float(v) for v in row] for row in result.opt.m],
            "v": [[float(v) for v in row] for row in result.opt.v],
            "t": result.opt.t,
        },
        "config": {**train_config_doc(config), "alpha_resolved": result.alpha_resolved},
        "dataset_meta": dataset_meta,
    }
    write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a missing, truncated or malformed file is an InputError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"checkpoint {path} is not readable JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        raise InputError(f"unsupported checkpoint version {version}")
    try:
        ema_doc = doc["ema"]
        opt_doc = doc["optimizer"]
        return Checkpoint(
            policy=_params_from_doc(doc["policy"]),
            reference=_params_from_doc(doc["reference"]),
            ema=ReferenceState(
                ema_pos=float(ema_doc["ema_pos"]),
                ema_aux=float(ema_doc["ema_aux"]),
                decay=float(ema_doc["decay"]),
                initialized=bool(ema_doc["initialized"]),
            ),
            opt=AdamState(
                m=np.asarray(opt_doc["m"], dtype=np.float64),
                v=np.asarray(opt_doc["v"], dtype=np.float64),
                t=int(opt_doc["t"]),
            ),
            step=int(doc["step"]),
            vocab_size=int(doc["vocab_size"]),
            config=dict(doc["config"]),
            dataset_meta=dict(doc["dataset_meta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {path} is malformed: {exc!r}") from exc
