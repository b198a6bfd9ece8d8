"""Reference implementations the tests compare the runtime's bulk paths against.

No command runs these: each is the per-call or per-sample form of a kernel
in ``src/bfpo``, kept here as its oracle (``tests/test_reach.py`` fails on a
function in ``src/bfpo`` that no command runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bfpo.alpha import _embed_pools
from bfpo.errors import InputError
from bfpo.losses import (
    Batch,
    Layout,
    LossBreakdown,
    LossConfig,
    Method,
    _binary_terms,
    binary_losses,
)
from bfpo.policy import (
    PolicyParams,
    Sample,
    SampleTable,
    encode,
    ordered_sum,
    sequence_log_probs,
    softmax_tables,
)
from bfpo.pu import _draw_unlabeled
from bfpo.schema import Interval, require
from bfpo.verification import GradientCase

# ---------------------------------------------------------------------------
# Losses: the per-sample forms of bfpo.losses.scored_loss's branches
# ---------------------------------------------------------------------------


def batch_of(pos: Sequence[Sample] = (), aux: Sequence[Sample] = ()) -> Batch:
    """A batch of exactly these samples; for DPO, ``aux[i]`` is the rejected
    completion of ``pos[i]``'s prompt."""
    return Batch(np.arange(len(pos)), np.arange(len(aux)), SampleTable.of(pos),
                 SampleTable.of(aux))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


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


def binary_loss(
    method: Method,
    pos_rewards: Sequence[float],
    aux_rewards: Sequence[float],
    delta: float,
    config: LossConfig,
) -> LossBreakdown:
    """A BCO-family objective: l_pos + clamp?(l_aux_neg - alpha*l_tar_neg)/divisor,
    as :func:`bfpo.losses.binary_losses` takes it for one run."""
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
# Rewards: the anchors as loops
# ---------------------------------------------------------------------------


def delta_joint(pos_rewards: Sequence[float], aux_rewards: Sequence[float]) -> float:
    """Pooled mean over both sets jointly: the ``delta_mode="batch"`` anchor.

    Unlike :func:`bfpo.rewards.ema_anchor` this estimator shifts toward
    whichever set dominates the batch, which is exactly the imbalance
    sensitivity the decoupled EMA removes.
    """
    if len(pos_rewards) == 0 or len(aux_rewards) == 0:
        raise InputError("both reward sets must be non-empty")
    rewards = np.asarray(list(pos_rewards) + list(aux_rewards), dtype=np.float64)
    return ordered_sum(rewards) / len(rewards)


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


# ---------------------------------------------------------------------------
# PU: one replication's draws and estimate
# ---------------------------------------------------------------------------

# The positive prior; the endpoints are admitted so degenerate mixtures stay
# testable.
_PI_P = Interval(0, 1)


def sample_unlabeled(pi_p: float, n: int, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-deterministic unlabeled draws from the test mixture: from the
    positive component with probability ``pi_p``, else from the negative one.

    Returns the instance values and, for verification only, the latent
    indicator of which component each draw came from.
    """
    require(_PI_P, "pi_p", pi_p, InputError)
    require(Interval(1, integer=True), "n", n, InputError)
    values = np.empty(n, dtype=np.float64)
    return values, _draw_unlabeled(pi_p, np.random.default_rng(rng_seed), values)


def _mean(values: Sequence[float]) -> float:
    """``np.mean`` bit for bit (the same pairwise ``add.reduce``, then one
    division) without its per-call overhead."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.add.reduce(values)) / values.size


def negative_risk_pu(
    pos_losses: Sequence[float], unlabeled_losses: Sequence[float], pi_p: float
) -> float:
    """Estimate pi_n * R_n from negative-label losses on positive and unlabeled sets."""
    if len(pos_losses) == 0 or len(unlabeled_losses) == 0:
        raise InputError("loss lists must be non-empty")
    require(_PI_P, "pi_p", pi_p, InputError)
    return _mean(unlabeled_losses) - pi_p * _mean(pos_losses)


# ---------------------------------------------------------------------------
# Alpha: one pool's embedding table
# ---------------------------------------------------------------------------


def embed_all(table: SampleTable, vocab_size: int) -> np.ndarray:
    """Row i is :func:`bfpo.alpha.embed` of ``table[i]``, bit for bit: the
    one-pool table of :func:`bfpo.alpha.run_alpha_estimation`'s feature table."""
    return _embed_pools([table], vocab_size)


# ---------------------------------------------------------------------------
# Gradient cases drawn one Generator call per value
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OracleCase:
    """A gradient case as :func:`random_gradient_case` draws it: its batch
    holds :class:`Sample` objects."""

    batch: Batch
    policy: PolicyParams
    reference: PolicyParams
    config: LossConfig
    delta: float


def random_samples(
    rng: np.random.Generator, vocab: int, count: int, max_len: int = 3
) -> list[Sample]:
    samples = []
    for _ in range(count):
        x = tuple(rng.integers(0, vocab, int(rng.integers(0, 3))).tolist())
        y = tuple(rng.integers(0, vocab, int(rng.integers(1, max_len + 1))).tolist())
        samples.append(Sample(user_id="v", x=x, y=y))
    return samples


def random_gradient_case(method: Method, rng: np.random.Generator) -> OracleCase:
    """One randomized draw, not yet screened or scored, one ``Generator``
    call per value: the stream :func:`bfpo.verification.draw_gradient_cases`
    decodes."""
    vocab = int(rng.integers(3, 6))
    context = int(rng.integers(2, 5))
    policy = PolicyParams(vocab, context, rng.normal(0.0, 1.0, (context, vocab)))
    reference = PolicyParams(vocab, context, rng.normal(0.0, 1.0, (context, vocab)))
    config = LossConfig(
        beta=float(rng.uniform(0.3, 2.0)),
        alpha=float(rng.uniform(0.0, 0.9)),
        pi_n=float(rng.uniform(0.3, 1.0)),
        lambda_d=float(rng.uniform(0.5, 2.0)),
        lambda_u=float(rng.uniform(0.5, 2.0)),
    )
    delta = float(rng.uniform(-1.0, 1.0))
    batch = batch_of(
        pos=random_samples(rng, vocab, int(rng.integers(1, 4))),
        aux=random_samples(rng, vocab, int(rng.integers(1, 4))),
    )
    if method is Method.DPO:
        # Each preferred completion, and a rejected one for its prompt.
        pos = random_samples(rng, vocab, int(rng.integers(1, 4)))
        aux = [Sample("v", s.x, t.y) for s, t in zip(pos, random_samples(rng, vocab, 3))]
        batch = batch_of(pos=pos, aux=aux)
    return OracleCase(batch, policy, reference, config, delta)


def case_batch(case: GradientCase) -> Batch:
    """A drawn case's sequences as a batch of :class:`Sample` objects."""
    samples = [Sample("v", x, y) for x, y in case.sequences]
    return batch_of(pos=samples[: case.n_pos], aux=samples[case.n_pos :])
