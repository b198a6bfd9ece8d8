"""Positive-unlabeled risk machinery and its Monte-Carlo verification.

The unlabeled marginal p_u = pi_p * p_pos + pi_n * p_neg lets the weighted
negative risk pi_n * R_n be estimated from positive and unlabeled draws alone:

    pi_n * R_n = E_u[l(x, -1)] - pi_p * E_pos[l(x, -1)]

Instances here are abstract loss-carrying draws, deliberately decoupled from
the policy, so unbiasedness can be checked against exact ground truth computed
by Gauss-Hermite quadrature (numpy only) rather than against training dynamics.

The checks score draws with softplus as max(x, 0) + log1p(exp(-|x|)): numpy's
``np.logaddexp`` is a scalar libm loop, ~7x slower, and the two agree within a
few ulps. The quadrature truth (pinned to the bit) and ``losses`` (about 20
values a step, with pinned artifacts) keep ``np.logaddexp``. Replications are
drawn into blocks of rows, each row on a lone replication's streams (a block of
one row is the draws themselves), and an unlabeled set's draws are placed
through index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "CheckResult",
    "MixtureSpec",
    "default_mixture",
    "logistic_negative_loss",
    "logistic_positive_loss",
    "negative_risk_pu",
    "pu_total_risk",
    "run_convergence_check",
    "run_negativity_check",
    "run_unbiasedness_check",
    "sample_unlabeled",
    "true_weighted_negative_risk",
]

Sampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class MixtureSpec:
    """Unlabeled data model: draw from p_pos with probability pi_p, else p_neg."""

    pi_p: float
    p_pos: Sampler
    p_neg: Sampler

    def __post_init__(self) -> None:
        # Endpoints are admitted so degenerate mixtures stay testable.
        if not 0.0 <= self.pi_p <= 1.0:
            raise InputError(f"pi_p must lie in [0, 1], got {self.pi_p}")


def sample_unlabeled(
    spec: MixtureSpec, n: int, rng_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seed-deterministic unlabeled draws.

    Returns the instance values and, for verification only, the latent
    indicator of which component each draw came from.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    from_positive = rng.random(n) < spec.pi_p
    # Index arrays place the draws in about half the time two boolean-mask
    # scatters take at n = 10,000 (the same values; no slower at n = 10).
    positives = from_positive.nonzero()[0]
    negatives = (~from_positive).nonzero()[0]
    values = np.empty(n, dtype=np.float64)
    values[positives] = spec.p_pos(rng, len(positives))
    values[negatives] = spec.p_neg(rng, len(negatives))
    return values, from_positive


def _mean(values: Sequence[float]) -> float:
    """``np.mean`` bit for bit (the same pairwise ``add.reduce``, then one
    division) without its per-call overhead."""
    values = np.asarray(values, dtype=np.float64)
    return float(values.sum()) / values.size


def negative_risk_pu(
    pos_losses: Sequence[float], unlabeled_losses: Sequence[float], pi_p: float
) -> float:
    """Estimate pi_n * R_n from negative-label losses on positive and unlabeled sets."""
    if len(pos_losses) == 0 or len(unlabeled_losses) == 0:
        raise InputError("loss lists must be non-empty")
    if not 0.0 <= pi_p <= 1.0:
        raise InputError(f"pi_p must lie in [0, 1], got {pi_p}")
    return _mean(unlabeled_losses) - pi_p * _mean(pos_losses)


def pu_total_risk(
    pos_losses_as_pos: Sequence[float],
    pos_losses_as_neg: Sequence[float],
    unlabeled_losses_as_neg: Sequence[float],
    pi_p: float,
) -> float:
    """pi_p * R_pos + (unlabeled negative risk corrected for positive leakage)."""
    if (
        len(pos_losses_as_pos) == 0
        or len(pos_losses_as_neg) == 0
        or len(unlabeled_losses_as_neg) == 0
    ):
        raise InputError("loss lists must be non-empty")
    if not 0.0 <= pi_p <= 1.0:
        raise InputError(f"pi_p must lie in [0, 1], got {pi_p}")
    return (
        pi_p * _mean(pos_losses_as_pos)
        + _mean(unlabeled_losses_as_neg)
        - pi_p * _mean(pos_losses_as_neg)
    )


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

_POS_MEAN, _NEG_MEAN, _STD = 1.5, -1.5, 1.0
# 40 nodes reproduce adaptive quadrature of the same integral on [-40, 40] to
# the bit; 30 and 60 nodes do not.
_HERMITE_NODES = 40


def _log1p_exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """log1p(exp(-|x|)) in one new array: the part of softplus both signs share."""
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    return np.log1p(out, out=out)


def logistic_negative_loss(x: np.ndarray) -> np.ndarray:
    """softplus(x) = max(x, 0) + log1p(exp(-|x|)): the negative-label logistic
    loss of a score x."""
    x = np.asarray(x, dtype=np.float64)
    out = _log1p_exp_neg_abs(x)
    return np.add(out, np.maximum(x, 0.0), out=out)


def logistic_positive_loss(x: np.ndarray) -> np.ndarray:
    """softplus(-x) = max(-x, 0) + log1p(exp(-|x|)): the positive-label
    logistic loss of a score x."""
    x = np.asarray(x, dtype=np.float64)
    out = _log1p_exp_neg_abs(x)
    return np.subtract(out, np.minimum(x, 0.0), out=out)


def default_mixture(pi_p: float = 0.3) -> MixtureSpec:
    """Two unit-variance Gaussians on the score axis, a standard test mixture."""
    return MixtureSpec(
        pi_p=pi_p,
        p_pos=lambda rng, n: rng.normal(_POS_MEAN, _STD, n),
        p_neg=lambda rng, n: rng.normal(_NEG_MEAN, _STD, n),
    )


def true_weighted_negative_risk(pi_p: float) -> float:
    """Quadrature ground truth for pi_n * E_neg[softplus(x)] under the test mixture.

    Probabilists' Gauss-Hermite nodes z and weights w give
    E[f(Z)] = sum(w * f(z)) / sqrt(2 pi) for Z ~ N(0, 1).
    """
    from numpy.polynomial.hermite_e import hermegauss  # only verification needs it

    z, w = hermegauss(_HERMITE_NODES)
    value = float(np.sum(w * np.logaddexp(0.0, _NEG_MEAN + _STD * z)) / np.sqrt(2.0 * np.pi))
    return (1.0 - pi_p) * value


@dataclass
class CheckResult:
    """Outcome of one registered verification property."""

    name: str
    passed: bool
    details: dict[str, float | int | str]


Estimator = Callable[[Sequence[float], Sequence[float], float], float]


# A block of replications holds at most this many draws per side (a replication
# at n >= _BLOCK_CELLS is a block of one row). Blocks of 16,384 were no faster
# and raised the suite's peak RSS by 0.3 MB.
_BLOCK_CELLS = 4_096


def _replicate(
    spec: MixtureSpec, n: int, seeds: np.ndarray, estimator: Estimator
) -> np.ndarray:
    """The estimator's value for each seed: its positives are drawn with
    ``default_rng(seed)`` and its unlabeled set with ``sample_unlabeled(spec,
    n, seed + 1)``, into row r of a block; each block's losses are taken at once."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rows = max(1, _BLOCK_CELLS // n)
    estimates = np.empty(len(seeds))
    for start in range(0, len(seeds), rows):
        block = [int(s) for s in seeds[start:start + rows]]
        if len(block) == 1:  # the draws are the block's one row: no copy
            pos = spec.p_pos(np.random.default_rng(block[0]), n)[None]
            unlabeled = sample_unlabeled(spec, n, block[0] + 1)[0][None]
        else:
            pos = np.empty((len(block), n))
            unlabeled = np.empty((len(block), n))
            for r, seed in enumerate(block):
                pos[r] = spec.p_pos(np.random.default_rng(seed), n)
                unlabeled[r] = sample_unlabeled(spec, n, seed + 1)[0]
        pos_losses = logistic_negative_loss(pos)
        unlabeled_losses = logistic_negative_loss(unlabeled)
        for r in range(len(block)):
            estimates[start + r] = estimator(pos_losses[r], unlabeled_losses[r], spec.pi_p)
    return estimates


def _check_replications(replications: int, least: int) -> None:
    if replications < least:
        raise InputError(f"replications must be >= {least}, got {replications}")


def run_unbiasedness_check(
    seed: int = 0,
    pi_p: float = 0.3,
    n: int = 10_000,
    replications: int = 200,
    estimator: Estimator = negative_risk_pu,
) -> CheckResult:
    """Monte-Carlo mean of the estimator must sit within 4 SE of the quadrature truth."""
    _check_replications(replications, 2)
    spec = default_mixture(pi_p)
    truth = true_weighted_negative_risk(pi_p)
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    estimates = _replicate(spec, n, seeds, estimator)
    mean = float(estimates.mean())
    se = float(estimates.std(ddof=1) / np.sqrt(replications))
    deviation = abs(mean - truth)
    return CheckResult(
        name="pu_unbiasedness",
        passed=bool(deviation < 4.0 * se),
        details={
            "estimate_mean": mean,
            "truth": truth,
            "standard_error": se,
            "deviation_in_se": deviation / se if se > 0 else float("inf"),
            "replications": replications,
            "n": n,
        },
    )


def run_convergence_check(
    seed: int = 1,
    pi_p: float = 0.3,
    ns: Sequence[int] = (100, 1_000, 10_000),
    replications: int = 200,
) -> CheckResult:
    """Estimator spread must shrink like 1/sqrt(n): log-log slope -0.5 +/- 0.1."""
    _check_replications(replications, 2)
    if len({int(n) for n in ns}) < 2:
        raise InputError(f"a slope needs at least two distinct ns, got {tuple(ns)}")
    spec = default_mixture(pi_p)
    stds = []
    root = np.random.SeedSequence(seed)
    for child, n in zip(root.spawn(len(ns)), ns):
        seeds = child.generate_state(replications)
        estimates = _replicate(spec, int(n), seeds, negative_risk_pu)
        stds.append(float(estimates.std(ddof=1)))
    slope = float(np.polyfit(np.log(np.asarray(ns, float)), np.log(stds), 1)[0])
    return CheckResult(
        name="pu_convergence_rate",
        passed=bool(abs(slope + 0.5) <= 0.1),
        details={
            "slope": slope,
            "stds": ", ".join(f"{s:.6g}" for s in stds),
            "ns": ", ".join(str(int(n)) for n in ns),
            "replications": replications,
        },
    )


def run_negativity_check(
    seed: int = 2,
    pi_p: float = 0.7,
    n: int = 10,
    replications: int = 2_000,
) -> CheckResult:
    """At tiny n the unclamped estimator must go negative in > 1% of replications."""
    _check_replications(replications, 1)
    spec = default_mixture(pi_p)
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    estimates = _replicate(spec, n, seeds, negative_risk_pu)
    frequency = float((estimates < 0.0).mean())
    return CheckResult(
        name="pu_negativity_exposure",
        passed=bool(frequency > 0.01),
        details={"negative_frequency": frequency, "replications": replications, "n": n},
    )
