"""Estimation of the overlap correction coefficient via labeling propensity.

A logistic proxy classifier is trained to separate the target user's history
from the auxiliary pool in a bag-of-tokens embedding space.  Its mean output on
held-out target samples estimates the constant labeling propensity c; dividing
the mean output on the auxiliary pool by c yields the density of target-like
preference content inside that pool, which calibrates the purified negative
loss.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, InputError
from .policy import Sample, _check_range

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


@dataclass(frozen=True)
class EstimatorConfig:
    """The proxy classifier's knobs, as :func:`run_alpha_estimation` takes them."""

    heldout_fraction: float = DEFAULT_HELDOUT_FRACTION
    epochs: int = DEFAULT_EPOCHS
    lr: float = DEFAULT_LR


@dataclass
class ProxyClassifier:
    """Logistic classifier over token-frequency embeddings."""

    weights: np.ndarray
    bias: float

    @property
    def vocab_size(self) -> int:
        return int(self.weights.shape[0])

    def predict_proba(self, embeddings: np.ndarray) -> np.ndarray:
        z = embeddings @ self.weights + self.bias
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        out[~pos] = e / (1.0 + e)
        return out


@dataclass(frozen=True)
class AlphaEstimate:
    """Propensity and overlap coefficient, with the set sizes that produced them."""

    c_hat: float
    alpha_hat: float
    n_heldout: int
    n_aux: int


def embed(sample: Sample, vocab_size: int) -> np.ndarray:
    """L2-normalized token-frequency vector of the completion."""
    counts = np.bincount(
        np.asarray(sample.y, dtype=np.int64), minlength=vocab_size
    ).astype(np.float64)
    norm = math.sqrt(float((counts * counts).sum()))
    if norm == 0.0:
        return counts
    return counts / norm


def embed_all(samples: Sequence[Sample], vocab_size: int) -> np.ndarray:
    """Row i is :func:`embed` of ``samples[i]``, bit for bit: one ``np.bincount``
    over ``row * vocab_size + token``, then each row divided by its norm."""
    lengths = [len(s.y) for s in samples]
    tokens = _check_range([t for s in samples for t in s.y], vocab_size, "completion")
    rows = np.repeat(np.arange(len(samples)), lengths)
    counts = np.bincount(
        rows * vocab_size + tokens, minlength=len(samples) * vocab_size
    ).reshape(len(samples), vocab_size).astype(np.float64)
    norms = np.sqrt((counts * counts).sum(axis=1))
    norms[norms == 0.0] = 1.0
    return counts / norms[:, None]


def train_proxy(
    target_samples: Sequence[Sample],
    aux_samples: Sequence[Sample],
    epochs: int,
    lr: float,
    seed: int,
    vocab_size: int,
) -> ProxyClassifier:
    """Fit the target-vs-auxiliary logistic classifier by full-batch gradient descent."""
    if len(target_samples) == 0 or len(aux_samples) == 0:
        raise InputError("both classes must be non-empty")
    if epochs < 1:
        raise InputError(f"epochs must be >= 1, got {epochs}")
    features = np.concatenate(
        [embed_all(target_samples, vocab_size), embed_all(aux_samples, vocab_size)]
    )
    labels = np.concatenate(
        [np.ones(len(target_samples)), np.zeros(len(aux_samples))]
    )
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1e-3, vocab_size)
    bias = 0.0
    n = len(labels)
    clf = ProxyClassifier(weights=weights, bias=bias)
    for _ in range(epochs):
        residual = clf.predict_proba(features) - labels
        clf.weights = clf.weights - lr * (features.T @ residual) / n
        clf.bias = clf.bias - lr * float(residual.mean())
    return clf


def estimate_propensity(
    classifier: ProxyClassifier, heldout_target_samples: Sequence[Sample]
) -> float:
    """Mean classifier output over held-out target samples."""
    if len(heldout_target_samples) == 0:
        raise InputError("held-out target set must be non-empty")
    embeddings = embed_all(heldout_target_samples, classifier.vocab_size)
    return float(classifier.predict_proba(embeddings).mean())


def estimate_alpha(
    classifier: ProxyClassifier,
    aux_samples: Sequence[Sample],
    c_hat: float,
    n_heldout: int = 0,
) -> AlphaEstimate:
    """Mean auxiliary prediction divided by the propensity, capped for divisor safety."""
    if not c_hat > 0.0:  # NaN too
        raise EstimationError(f"propensity must be positive, got {c_hat}")
    if len(aux_samples) == 0:
        raise InputError("auxiliary set must be non-empty")
    embeddings = embed_all(aux_samples, classifier.vocab_size)
    raw = float(classifier.predict_proba(embeddings).mean()) / c_hat
    if not math.isfinite(raw):  # a diverged proxy; clamping would read it as alpha 0
        raise EstimationError(f"alpha estimate is not finite: {raw}")
    alpha_hat = raw
    if raw > ALPHA_CAP:
        logger.warning(
            "alpha estimate %.4f exceeds %.2f; clipping for divisor safety", raw, ALPHA_CAP
        )
        alpha_hat = ALPHA_CAP
    alpha_hat = max(0.0, alpha_hat)
    return AlphaEstimate(
        c_hat=c_hat,
        alpha_hat=alpha_hat,
        n_heldout=n_heldout,
        n_aux=len(aux_samples),
    )


def split_heldout(
    samples: Sequence[Sample], fraction: float, seed: int
) -> tuple[list[Sample], list[Sample]]:
    """Seeded disjoint (train, heldout) split; heldout gets ceil(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise InputError(f"heldout fraction must lie in (0, 1), got {fraction}")
    if len(samples) < 2:
        raise InputError("need at least 2 samples to split off a held-out set")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_held = max(1, math.ceil(fraction * len(samples)))
    if n_held >= len(samples):
        n_held = len(samples) - 1
    held_idx = set(int(i) for i in order[:n_held])
    train = [s for i, s in enumerate(samples) if i not in held_idx]
    heldout = [s for i, s in enumerate(samples) if i in held_idx]
    return train, heldout


def run_alpha_estimation(
    target_samples: Sequence[Sample],
    aux_samples: Sequence[Sample],
    vocab_size: int,
    heldout_fraction: float = DEFAULT_HELDOUT_FRACTION,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    seed: int = 0,
) -> AlphaEstimate:
    """Full pipeline: split, train the proxy, estimate the propensity, then alpha.

    The held-out slice used for the propensity never enters classifier training.
    """
    train, heldout = split_heldout(target_samples, heldout_fraction, seed)
    classifier = train_proxy(train, aux_samples, epochs, lr, seed, vocab_size)
    c_hat = estimate_propensity(classifier, heldout)
    return estimate_alpha(classifier, aux_samples, c_hat, n_heldout=len(heldout))
