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
drawn into blocks of rows from one reused PCG64 generator. Before each row's
draws it is set to the state ``default_rng(seed)`` would build, and a check
computes those states for all its seeds at once (see
:mod:`bfpo._pcg64_words`), so every row keeps a lone replication's streams.
An unlabeled set's draws are placed through index arrays. A block's
estimates are taken at once, with one ``np.add.reduce`` along the rows per
side: the same pairwise sums as ``negative_risk_pu`` row by row, so the
estimates equal a replication-by-replication loop bit for bit, at about
0.06 µs a row against 3 µs (n = 10, timeit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _pcg64_words as pcg64_words
from .errors import InputError
from .schema import Interval, require

__all__ = [
    "CheckResult",
    "logistic_negative_loss",
    "negative_risk_pu",
    "run_convergence_check",
    "run_negativity_check",
    "run_unbiasedness_check",
    "sample_unlabeled",
    "true_weighted_negative_risk",
]

# The test mixture: two unit-variance Gaussians on the score axis.
_POS_MEAN, _NEG_MEAN, _STD = 1.5, -1.5, 1.0
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
    values = np.empty(_count("n", n, 1), dtype=np.float64)
    return values, _draw_unlabeled(pi_p, np.random.default_rng(rng_seed), values)


def _draw_unlabeled(pi_p: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with unlabeled draws from ``rng`` and return the latent
    indicator: the uniform flags, then the positives' draws, then the
    negatives'. Index arrays place the draws in about half the time two
    boolean-mask scatters take at n = 10,000 (the same values; no slower at
    n = 10)."""
    from_positive = rng.random(out.size) < pi_p
    positives = from_positive.nonzero()[0]
    negatives = (~from_positive).nonzero()[0]
    out[positives] = rng.normal(_POS_MEAN, _STD, len(positives))
    out[negatives] = rng.normal(_NEG_MEAN, _STD, len(negatives))
    return from_positive


def _count(name: str, value: int, least: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    require(Interval(least), name, value, InputError)
    return int(value)


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
# Verification harness
# ---------------------------------------------------------------------------

# 40 nodes reproduce adaptive quadrature of the same integral on [-40, 40] to
# the bit; 30 and 60 nodes do not.
_HERMITE_NODES = 40


def logistic_negative_loss(x: np.ndarray) -> np.ndarray:
    """softplus(x) = max(x, 0) + log1p(exp(-|x|)), in one new array: the
    negative-label logistic loss of a score x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(x, 0.0), out=out)


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


# A block of replications holds at most this many draws per side (a replication
# at n >= _BLOCK_CELLS is a block of one row). Blocks of 16,384 were no faster
# and raised the suite's peak RSS by 0.3 MB.
_BLOCK_CELLS = 4_096


def _estimates(pos_losses: np.ndarray, unlabeled_losses: np.ndarray, pi_p: float) -> np.ndarray:
    """:func:`negative_risk_pu` of each row of a block of losses, taken at
    once: the same pairwise sums per row (``np.add.reduce`` along the rows),
    divisions and difference."""
    n = pos_losses.shape[1]
    pos_means = np.add.reduce(pos_losses, axis=1) / n
    return np.add.reduce(unlabeled_losses, axis=1) / n - pi_p * pos_means


def _replicate(pi_p: float, n: int, seeds: np.ndarray) -> np.ndarray:
    """The estimate for each seed: its positives are drawn on
    ``default_rng(seed)``'s stream and its unlabeled set as ``sample_unlabeled(
    pi_p, n, seed + 1)`` draws it, into row r of a block; each block's losses
    and estimates are taken at once. One generator draws every row, set to
    each stream's state in turn."""
    pos_states = pcg64_words.pcg64_states(pcg64_words.seed_words(seeds))
    unlabeled_states = pcg64_words.pcg64_states(pcg64_words.seed_words(seeds, offset=1))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    rows = max(1, _BLOCK_CELLS // n)
    estimates = np.empty(len(seeds))
    for start in range(0, len(seeds), rows):
        stop = min(start + rows, len(seeds))
        pos = np.empty((stop - start, n))
        unlabeled = np.empty((stop - start, n))
        for pos_row, unlabeled_row in zip(pos, unlabeled):
            bit_generator.state = next(pos_states)
            pos_row[:] = rng.normal(_POS_MEAN, _STD, n)
            bit_generator.state = next(unlabeled_states)
            _draw_unlabeled(pi_p, rng, unlabeled_row)
        estimates[start:stop] = _estimates(
            logistic_negative_loss(pos), logistic_negative_loss(unlabeled), pi_p
        )
    return estimates


def run_unbiasedness_check(seed: int = 0) -> CheckResult:
    """Monte-Carlo mean of the estimator must sit within 4 SE of the
    quadrature truth (200 replications at n = 10,000, pi_p = 0.3)."""
    pi_p, n, replications = 0.3, 10_000, 200
    truth = true_weighted_negative_risk(pi_p)
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    estimates = _replicate(pi_p, n, seeds)
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


def run_convergence_check(seed: int = 1) -> CheckResult:
    """Estimator spread must shrink like 1/sqrt(n): log-log slope -0.5 +/- 0.1
    (200 replications at each of n = 100, 1,000 and 10,000, pi_p = 0.3)."""
    ns, replications = (100, 1_000, 10_000), 200
    stds = []
    root = np.random.SeedSequence(seed)
    for child, n in zip(root.spawn(len(ns)), ns):
        estimates = _replicate(0.3, n, child.generate_state(replications))
        stds.append(float(estimates.std(ddof=1)))
    slope = float(np.polyfit(np.log(ns), np.log(stds), 1)[0])
    return CheckResult(
        name="pu_convergence_rate",
        passed=bool(abs(slope + 0.5) <= 0.1),
        details={
            "slope": slope,
            "stds": ", ".join(f"{s:.6g}" for s in stds),
            "ns": ", ".join(map(str, ns)),
            "replications": replications,
        },
    )


def run_negativity_check(seed: int = 2) -> CheckResult:
    """At tiny n the unclamped estimator must go negative in > 1% of
    replications (2,000 replications at n = 10, pi_p = 0.7)."""
    n, replications = 10, 2_000
    seeds = np.random.SeedSequence(seed).generate_state(replications)
    frequency = float((_replicate(0.7, n, seeds) < 0.0).mean())
    return CheckResult(
        name="pu_negativity_exposure",
        passed=bool(frequency > 0.01),
        details={"negative_frequency": frequency, "replications": replications, "n": n},
    )
