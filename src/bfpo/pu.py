"""Positive-unlabeled risk machinery and its Monte-Carlo verification.

The unlabeled marginal p_u = pi_p * p_pos + pi_n * p_neg lets the weighted
negative risk pi_n * R_n be estimated from positive and unlabeled draws alone:

    pi_n * R_n = E_u[l(x, -1)] - pi_p * E_pos[l(x, -1)]

Instances here are abstract loss-carrying draws, deliberately decoupled from
the policy, so unbiasedness can be checked against exact ground truth computed
by Gauss-Hermite quadrature (numpy only) rather than against training dynamics.
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
    k = int(from_positive.sum())
    values = np.empty(n, dtype=np.float64)
    values[from_positive] = spec.p_pos(rng, k)
    values[~from_positive] = spec.p_neg(rng, n - k)
    return values, from_positive


def negative_risk_pu(
    pos_losses: Sequence[float], unlabeled_losses: Sequence[float], pi_p: float
) -> float:
    """Estimate pi_n * R_n from negative-label losses on positive and unlabeled sets."""
    if len(pos_losses) == 0 or len(unlabeled_losses) == 0:
        raise InputError("loss lists must be non-empty")
    if not 0.0 <= pi_p <= 1.0:
        raise InputError(f"pi_p must lie in [0, 1], got {pi_p}")
    return float(np.mean(unlabeled_losses) - pi_p * np.mean(pos_losses))


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
    return float(
        pi_p * np.mean(pos_losses_as_pos)
        + np.mean(unlabeled_losses_as_neg)
        - pi_p * np.mean(pos_losses_as_neg)
    )


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

_POS_MEAN, _NEG_MEAN, _STD = 1.5, -1.5, 1.0
# 40 nodes reproduce adaptive quadrature of the same integral on [-40, 40] to
# the bit; 30 and 60 nodes do not.
_HERMITE_NODES = 40


def logistic_negative_loss(x: np.ndarray) -> np.ndarray:
    """softplus(x): the negative-label logistic loss of a score x."""
    return np.logaddexp(0.0, x)


def logistic_positive_loss(x: np.ndarray) -> np.ndarray:
    """softplus(-x): the positive-label logistic loss of a score x."""
    return np.logaddexp(0.0, -x)


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


def _one_replication(
    spec: MixtureSpec, n: int, seed: int, estimator: Estimator
) -> float:
    rng = np.random.default_rng(seed)
    pos = spec.p_pos(rng, n)
    unlabeled, _ = sample_unlabeled(spec, n, seed + 1)
    return estimator(
        logistic_negative_loss(pos), logistic_negative_loss(unlabeled), spec.pi_p
    )


def run_unbiasedness_check(
    seed: int = 0,
    pi_p: float = 0.3,
    n: int = 10_000,
    replications: int = 200,
    estimator: Estimator = negative_risk_pu,
) -> CheckResult:
    """Monte-Carlo mean of the estimator must sit within 4 SE of the quadrature truth."""
    spec = default_mixture(pi_p)
    truth = true_weighted_negative_risk(pi_p)
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    estimates = np.array(
        [_one_replication(spec, n, int(s), estimator) for s in seeds]
    )
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
    spec = default_mixture(pi_p)
    stds = []
    root = np.random.SeedSequence(seed)
    for child, n in zip(root.spawn(len(ns)), ns):
        seeds = child.generate_state(replications)
        estimates = np.array(
            [_one_replication(spec, int(n), int(s), negative_risk_pu) for s in seeds]
        )
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
    spec = default_mixture(pi_p)
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    estimates = np.array(
        [_one_replication(spec, n, int(s), negative_risk_pu) for s in seeds]
    )
    frequency = float((estimates < 0.0).mean())
    return CheckResult(
        name="pu_negativity_exposure",
        passed=bool(frequency > 0.01),
        details={"negative_frequency": frequency, "replications": replications, "n": n},
    )
