"""Optimization loop: batching, method dispatch, EMA wiring and run state.

A run has three phases: a warm start (the stand-in for a general task model),
a reference freeze, and the configured method's optimization over the
target/auxiliary split.  The warm start is the SFT method with the pooled
auxiliary data as its target history, run by the same epoch loop, batching and
optimizer step as the method.  Everything is a pure function of (dataset,
config, seed): batch order, the optimizer trajectory and the metrics log
reproduce byte-identically.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
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
    Method,
    encode_batch,
    score,
    scored_loss,
)
from .policy import (
    Encoded,
    PolicyParams,
    Sample,
    encode,
    ordered_sum,
    snapshot_reference,
    softmax_tables,
    uniform_params,
)
from .rewards import ReferenceState, delta_ema, delta_joint, ema_update

__all__ = [
    "AdamState",
    "METRICS_COLUMNS",
    "RunState",
    "TrainConfig",
    "TrainResult",
    "load_checkpoint",
    "make_batches",
    "run",
    "save_checkpoint",
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
    """Mutable state threaded through train_step.

    The reference is frozen for the whole run, so its log-softmax table is
    computed once, here.
    """

    policy: PolicyParams
    reference: PolicyParams
    ema: ReferenceState
    opt: AdamState
    config: TrainConfig
    loss_config: LossConfig
    total_steps: int
    step: int = 0
    epoch: int = 0
    last_delta: float = 0.0
    reference_log_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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
    b1, b2, eps = momentum
    opt.t += 1
    opt.m = b1 * opt.m + (1.0 - b1) * grad
    opt.v = b2 * opt.v + (1.0 - b2) * grad * grad
    m_hat = opt.m / (1.0 - b1**opt.t)
    v_hat = opt.v / (1.0 - b2**opt.t)
    params.logits -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * params.logits)


def _chunks(order: np.ndarray, size: int) -> list[np.ndarray]:
    return [order[lo : lo + size] for lo in range(0, len(order), size)]


def _slices(codes: Encoded, parts: list[np.ndarray]) -> list[Encoded]:
    """Each part's sequences of ``codes``, from one ``take`` over all parts."""
    return codes.take(np.concatenate(parts)).split([len(p) for p in parts])


def make_batches(
    dataset: UserDataset,
    config: TrainConfig,
    epoch_seed: int,
    codes: Encoded,
    dpo_pairs: Sequence[DpoPair] | None = None,
) -> list[Batch]:
    """Seeded per-epoch batches: one epoch is one pass over the target side.

    ``codes`` is the :func:`encode_batch` encoding of the whole set the batches
    are cut from (all ``dpo_pairs`` for DPO, else ``tar_train`` then
    ``aux_train``); each batch carries its slice of the epoch's one ``take``.
    """
    rng = np.random.default_rng(epoch_seed)

    if config.method is Method.DPO:
        if dpo_pairs is None:
            raise ConfigError("DPO requires synthesized pairs but none were supplied")
        if len(dpo_pairs) == 0:
            raise InputError("DPO pair set is empty")
        chunks = _chunks(rng.permutation(len(dpo_pairs)), config.batch_size_pos)
        pieces = _slices(codes, [np.concatenate([c, c + len(dpo_pairs)]) for c in chunks])
        return [Batch(c, _NONE, dpo_pairs, codes=piece) for c, piece in zip(chunks, pieces)]

    pos = dataset.tar_train
    if len(pos) == 0:
        raise InputError("target training split is empty")
    chunks = _chunks(rng.permutation(len(pos)), config.batch_size_pos)

    if config.method is Method.SFT:
        return [Batch(c, _NONE, pos, codes=p) for c, p in zip(chunks, _slices(codes, chunks))]

    aux = dataset.aux_train
    if len(aux) == 0:
        raise InputError("auxiliary training split is empty")
    aux_order = rng.permutation(len(aux))
    bs_aux = config.resolved_aux_batch(dataset.ratio_x)
    # The auxiliary side cycles through its permutation across the epoch.
    aux_idx = aux_order[np.arange(len(chunks) * bs_aux) % len(aux)].reshape(-1, bs_aux)
    pieces = _slices(codes, [np.concatenate([c, a + len(pos)]) for c, a in zip(chunks, aux_idx)])
    return [Batch(c, a, pos, aux, piece) for c, a, piece in zip(chunks, aux_idx, pieces)]


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


def train_step(state: RunState, batch: Batch) -> tuple[RunState, LossBreakdown]:
    """One optimization step; updates the EMA before the anchor is read."""
    state.step += 1
    method = state.config.method
    if method in _BINARY_METHODS and (len(batch.pos) == 0 or len(batch.aux) == 0):
        raise InputError(
            f"{method.value} step needs non-empty positive and auxiliary sides"
        )
    # One reward pass, shared by the EMA anchor and the loss.
    scores = score(
        method, batch, state.policy, state.reference_log_table, state.loss_config.beta
    )
    delta = 0.0
    if method in _BINARY_METHODS:
        pos_r, aux_r = scores.rewards[: scores.split], scores.rewards[scores.split :]
        pos_mean = ordered_sum(pos_r) / len(pos_r)
        aux_mean = ordered_sum(aux_r) / len(aux_r)
        if not (math.isfinite(pos_mean) and math.isfinite(aux_mean)):
            raise NumericError(
                f"non-finite batch rewards at step {state.step}",
                details=_diagnostic_dump(batch, None, state),
            )
        state.ema = ema_update(state.ema, pos_mean, aux_mean)
        if state.config.delta_mode == "ema":
            delta = delta_ema(state.ema)
        else:
            delta = delta_joint(pos_r, aux_r)
    state.last_delta = delta

    breakdown, grad = scored_loss(method, scores, state.loss_config, delta, want_grad=True)
    if not (math.isfinite(breakdown.total) and np.isfinite(grad).all()):
        raise NumericError(
            f"non-finite loss or gradient at step {state.step}",
            details=_diagnostic_dump(batch, breakdown, state),
        )
    lr = _lr_at(
        state.step, state.total_steps, state.config.learning_rate, state.config.warmup_fraction
    )
    _adamw_apply(
        state.policy, grad, state.opt, lr, state.config.momentum_params,
        state.config.weight_decay,
    )
    return state, breakdown


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


def _train_epochs(
    policy: PolicyParams,
    reference: PolicyParams,
    config: TrainConfig,
    alpha: float,
    dataset: UserDataset,
    codes: Encoded,
    rng: np.random.Generator,
    dpo_pairs: list[DpoPair] | None = None,
) -> tuple[RunState, list[dict]]:
    """``config.epochs`` seeded epochs of :func:`make_batches` and
    :func:`train_step` from a fresh optimizer and EMA; one metrics row a step."""
    n = len(dataset.tar_train) if dpo_pairs is None else len(dpo_pairs)
    state = RunState(
        policy=policy,
        reference=reference,
        ema=ReferenceState(decay=config.ema_decay),
        opt=AdamState.zeros(policy.logits.shape),
        config=config,
        loss_config=LossConfig(
            beta=config.beta,
            alpha=alpha,
            pi_n=config.pi_n,
            lambda_d=config.lambda_d,
            lambda_u=config.lambda_u,
        ),
        total_steps=config.epochs * math.ceil(n / config.batch_size_pos),
    )
    metrics: list[dict] = []
    for epoch in range(config.epochs):
        state.epoch = epoch
        for batch in make_batches(dataset, config, _epoch_seed(rng), codes, dpo_pairs):
            state, breakdown = train_step(state, batch)
            metrics.append(
                _metrics_row(state.step, epoch, breakdown, state.last_delta, state.ema)
            )
    return state, metrics


def run(dataset: UserDataset, config: TrainConfig, vocab_size: int) -> TrainResult:
    """Warm start on the auxiliary pool, freeze the reference, run the method."""
    if len(dataset.tar_train) == 0:
        raise InputError("dataset has no target training samples")
    root = np.random.SeedSequence(config.seed)
    ss_warm, ss_method, ss_pairs, ss_alpha = root.spawn(4)
    warm_rng = np.random.default_rng(ss_warm)
    method_rng = np.random.default_rng(ss_method)

    # Bucket rows depend on context_size, so the data is encoded once per run.
    tar_train, aux_train = dataset.tar_train, dataset.aux_train
    codes = encode(
        ((s.x, s.y) for s in tar_train + aux_train), config.context_size, vocab_size
    )
    aux_codes = codes.split([len(tar_train), len(aux_train)])[1]

    policy = uniform_params(vocab_size, config.context_size)
    if config.warmstart_epochs > 0:
        if len(aux_train) == 0:
            raise InputError("warm-start sample pool is empty")
        warm_lr = config.learning_rate if config.warmstart_lr is None else config.warmstart_lr
        sft = replace(
            config, method=Method.SFT, epochs=config.warmstart_epochs, learning_rate=warm_lr
        )
        aux_as_target = UserDataset(dataset.target_user, aux_train, [], dataset.ratio_x)
        try:
            # SFT reads no reference, so the policy stands in for it.
            _train_epochs(policy, policy, sft, 0.0, aux_as_target, aux_codes, warm_rng)
        except NumericError as exc:
            raise NumericError(f"warm start: {exc}", exc.details) from exc
    reference = snapshot_reference(policy)

    alpha_estimate: AlphaEstimate | None = None
    alpha_resolved = 0.0
    if config.method in (Method.CBPO, Method.CBPO_RAW):
        if config.alpha == "estimate":
            alpha_estimate = run_alpha_estimation(
                tar_train,
                aux_train,
                vocab_size,
                epochs=config.alpha_estimator_epochs,
                lr=config.alpha_estimator_lr,
                seed=int(np.random.default_rng(ss_alpha).integers(0, 2**31)),
            )
            alpha_resolved = alpha_estimate.alpha_hat
        else:
            alpha_resolved = float(config.alpha)

    dpo_pairs: list[DpoPair] | None = None
    skipped = 0
    if config.method is Method.DPO:
        dpo_pairs, skipped = synth_dpo_pairs(
            dataset, policy, int(np.random.default_rng(ss_pairs).integers(0, 2**31)),
            budget=config.dpo_rejection_budget,
        )
        if len(dpo_pairs) == 0:
            raise InputError("DPO pair synthesis produced no usable pairs")
        codes = encode_batch(
            Batch.of(pairs=dpo_pairs), Method.DPO, config.context_size, vocab_size
        )

    state, metrics = _train_epochs(
        policy, reference, config, alpha_resolved, dataset, codes, method_rng, dpo_pairs
    )
    return TrainResult(
        policy=state.policy,
        reference=state.reference,
        ema=state.ema,
        opt=state.opt,
        metrics=metrics,
        alpha_estimate=alpha_estimate,
        alpha_resolved=alpha_resolved,
        aux_user_ids=dataset.aux_user_ids,
        dpo_pairs_skipped=skipped,
    )


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
