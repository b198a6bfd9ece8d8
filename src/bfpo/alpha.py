"""Estimation of the overlap correction coefficient via labeling propensity.

A logistic proxy classifier is trained to separate the target user's history
from the auxiliary pool in a bag-of-tokens embedding space.  Its mean output on
held-out target samples estimates the constant labeling propensity c; dividing
the mean output on the auxiliary pool by c yields the density of target-like
preference content inside that pool, which calibrates the purified negative
loss.

Samples come as tables.  :func:`run_alpha_estimation` scatters each pool's
nonzero entries once into one feature table (training targets, auxiliary pool,
held-out targets) whose blocks the proxy reads; :func:`embed` of one ``Sample``
is the reference that each row of :func:`embed_all`, the one-pool table, equals.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, InputError
from .policy import Sample, SampleTable, _check_range
from .schema import Interval, check, check_args, declared, require

__all__ = [
    "AlphaEstimate",
    "EstimatorConfig",
    "ProxyClassifier",
    "embed",
    "embed_all",
    "estimate_alpha",
    "estimate_propensity",
    "run_alpha_estimation",
    "split_heldout",
    "train_proxy",
]

logger = logging.getLogger(__name__)

ALPHA_CAP = 0.99
DEFAULT_HELDOUT_FRACTION = 0.2
# Deliberately few, large steps: a fully converged separator drives its outputs
# to the extremes and the propensity ratio collapses toward zero; this level of
# training keeps the ratio calibrated against the generator's overlap knob.
DEFAULT_EPOCHS = 30
DEFAULT_LR = 1.0
# The estimator's ranges that the train config's alpha_estimator_* fields
# share; lr 0 is allowed, as for the train config's learning_rate.
ESTIMATOR_EPOCHS = Interval(1)
ESTIMATOR_LR = Interval(0)
# A seed as numpy's SeedSequence takes it: every config's and library call's seed.
SEED = Interval(0, integer=True)


@dataclass(frozen=True)
class EstimatorConfig:
    """The proxy classifier's knobs, as :func:`run_alpha_estimation` takes them."""

    heldout_fraction: float = declared(Interval(0, 1, "()"), DEFAULT_HELDOUT_FRACTION)
    epochs: int = declared(ESTIMATOR_EPOCHS, DEFAULT_EPOCHS)
    lr: float = declared(ESTIMATOR_LR, DEFAULT_LR)

    def __post_init__(self) -> None:
        check(self, ConfigError)


@dataclass
class ProxyClassifier:
    """Logistic classifier over token-frequency embeddings."""

    weights: np.ndarray
    bias: float

    def predict_proba(self, embeddings: np.ndarray) -> np.ndarray:
        z = embeddings @ self.weights + self.bias
        # 1 / (1 + exp(-z)) where z >= 0 and e / (1 + e), e = exp(z), elsewhere
        # (NaN too): one exp of -|z|, which never overflows, taken in place,
        # and one divide of 1 or e by e + 1.
        pos = z >= 0
        e = np.where(pos, -z, z)
        np.exp(e, out=e)
        numerator = np.where(pos, 1.0, e)
        e += 1.0
        numerator /= e
        return numerator


@dataclass(frozen=True)
class AlphaEstimate:
    """Propensity and overlap coefficient, with the set sizes that produced them.

    ``alpha_raw`` is the ratio before it was clipped into [0, ALPHA_CAP];
    ``alpha_clipped`` says whether the clip changed it."""

    c_hat: float
    alpha_hat: float
    alpha_raw: float
    alpha_clipped: bool
    n_heldout: int
    n_aux: int


def embed(sample: Sample, vocab_size: int) -> np.ndarray:
    """L2-normalized token-frequency vector of the completion."""
    counts = np.bincount(
        _check_range(sample.y, vocab_size, "completion"), minlength=vocab_size
    ).astype(np.float64)
    norm = math.sqrt(float((counts * counts).sum()))
    if norm == 0.0:
        return counts
    return counts / norm


def _bag_entries(tokens: np.ndarray, lengths: np.ndarray, vocab_size: int) -> tuple:
    """Row, token and value of the nonzero embedding entries of completions
    (``tokens``, ``lengths[i]`` in row i), by row, then token: each key ``row *
    V + token``'s count over its row's norm, an exact integer sum as when dense."""
    tokens = _check_range(tokens, vocab_size, "completion")  # else it counts in another row
    rows = np.repeat(np.arange(len(lengths)), lengths)
    keys, counts = np.unique(rows * vocab_size + tokens, return_counts=True)
    rows = keys // vocab_size
    norms = np.sqrt(np.bincount(rows, weights=counts * counts))
    return rows, keys - rows * vocab_size, counts / norms[rows]


def _embed_pools(pools: list[SampleTable], vocab_size: int) -> np.ndarray:
    """The pools' :func:`embed_all` rows one block after another, in one zeroed
    table: each pool's :func:`_bag_entries` scattered at its row offset."""
    out = np.zeros((sum(map(len, pools)), vocab_size))
    offset = 0
    for pool in pools:
        rows, tokens, values = _bag_entries(pool.y_tokens, pool.y_lengths, vocab_size)
        out[offset : offset + len(pool)][rows, tokens] = values
        offset += len(pool)
    return out


def embed_all(table: SampleTable, vocab_size: int) -> np.ndarray:
    """Row i is :func:`embed` of ``table[i]``, bit for bit."""
    return _embed_pools([table], vocab_size)


def train_proxy(
    features: np.ndarray, n_target: int, epochs: int, lr: float, seed: int
) -> ProxyClassifier:
    """Fit the target-vs-auxiliary logistic classifier by full-batch gradient
    descent on the embedded rows ``features``: rows ``[0, n_target)`` are the
    target (label 1), the rest the auxiliary pool (label 0)."""
    if not 0 < n_target < len(features):
        raise InputError("both classes must be non-empty")
    check_args(EstimatorConfig, InputError, epochs=epochs, lr=lr)
    require(SEED, "seed", seed, InputError)
    rng = np.random.default_rng(seed)
    clf = ProxyClassifier(weights=rng.normal(0.0, 1e-3, features.shape[1]), bias=0.0)
    n = len(features)
    for _ in range(epochs):
        # The prediction less the label: 1 in the target block, 0 after it.
        residual = clf.predict_proba(features)
        residual[:n_target] -= 1.0
        clf.weights = clf.weights - lr * (features.T @ residual) / n
        clf.bias = clf.bias - lr * float(np.add.reduce(residual) / n)  # np.mean's bits
    return clf


def estimate_propensity(classifier: ProxyClassifier, heldout_embeddings: np.ndarray) -> float:
    """Mean classifier output over the embedded held-out target rows."""
    if len(heldout_embeddings) == 0:
        raise InputError("held-out target set must be non-empty")
    return float(classifier.predict_proba(heldout_embeddings).mean())


def estimate_alpha(
    classifier: ProxyClassifier, aux_embeddings: np.ndarray, c_hat: float, n_heldout: int = 0
) -> AlphaEstimate:
    """Mean prediction over the embedded auxiliary rows divided by the
    propensity, capped for divisor safety."""
    if not c_hat > 0.0:  # NaN too
        raise EstimationError(f"propensity must be positive, got {c_hat}")
    if len(aux_embeddings) == 0:
        raise InputError("auxiliary set must be non-empty")
    raw = float(classifier.predict_proba(aux_embeddings).mean()) / c_hat
    if not math.isfinite(raw):  # a diverged proxy; clamping would read it as alpha 0
        raise EstimationError(f"alpha estimate is not finite: {raw}")
    if raw > ALPHA_CAP:
        logger.warning(
            "alpha estimate %.4f exceeds %.2f; clipping for divisor safety", raw, ALPHA_CAP
        )
    alpha_hat = max(0.0, min(raw, ALPHA_CAP))
    return AlphaEstimate(c_hat=c_hat, alpha_hat=alpha_hat, alpha_raw=raw,
                         alpha_clipped=alpha_hat != raw, n_heldout=n_heldout,
                         n_aux=len(aux_embeddings))


def split_heldout(
    table: SampleTable, fraction: float, seed: int
) -> tuple[SampleTable, SampleTable]:
    """Seeded disjoint (train, heldout) split of the rows, each in order;
    heldout gets ceil(fraction * n)."""
    check_args(EstimatorConfig, InputError, heldout_fraction=fraction)
    require(SEED, "seed", seed, InputError)
    if len(table) < 2:
        raise InputError("need at least 2 samples to split off a held-out set")
    order = np.random.default_rng(seed).permutation(len(table))
    n_held = max(1, math.ceil(fraction * len(table)))
    if n_held >= len(table):
        n_held = len(table) - 1
    held = np.zeros(len(table), dtype=bool)
    held[order[:n_held]] = True
    return table.take(np.flatnonzero(~held)), table.take(np.flatnonzero(held))


def run_alpha_estimation(
    target: SampleTable,
    aux: SampleTable,
    vocab_size: int,
    heldout_fraction: float = DEFAULT_HELDOUT_FRACTION,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    seed: int = 0,
) -> AlphaEstimate:
    """Full pipeline: split, train the proxy, estimate the propensity, then alpha.

    The held-out slice used for the propensity never enters classifier training.
    Each pool is embedded once, into one table: training targets, auxiliary
    pool, held-out targets.  Knobs outside :class:`EstimatorConfig`'s ranges,
    or a seed outside :data:`SEED`, raise ``InputError``.
    """
    train, heldout = split_heldout(target, heldout_fraction, seed)
    features = _embed_pools([train, aux, heldout], vocab_size)
    n_fit = len(train) + len(aux)
    classifier = train_proxy(features[:n_fit], len(train), epochs, lr, seed)
    c_hat = estimate_propensity(classifier, features[n_fit:])
    return estimate_alpha(classifier, features[len(train) : n_fit], c_hat, n_heldout=len(heldout))
