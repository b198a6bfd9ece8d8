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
computes those states for all its seeds at once (SeedSequence's hash as array
ops over the seeds), so every row keeps a lone replication's streams and the
estimates equal a replication-by-replication loop bit for bit. An unlabeled
set's draws are placed through index arrays.
"""

from __future__ import annotations

import operator
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
    values = np.empty(n, dtype=np.float64)
    return values, _draw_unlabeled(spec, np.random.default_rng(rng_seed), values)


def _draw_unlabeled(spec: MixtureSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with unlabeled draws from ``rng`` and return the latent
    indicator: the uniform flags, then the positives' draws, then the
    negatives'. Index arrays place the draws in about half the time two
    boolean-mask scatters take at n = 10,000 (the same values; no slower at
    n = 10)."""
    from_positive = rng.random(out.size) < spec.pi_p
    positives = from_positive.nonzero()[0]
    negatives = (~from_positive).nonzero()[0]
    out[positives] = spec.p_pos(rng, len(positives))
    out[negatives] = spec.p_neg(rng, len(negatives))
    return from_positive


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


# Bulk seeding: ``default_rng(seed)`` builds ``PCG64(SeedSequence(seed))``.
# SeedSequence hashes the seed's 32-bit words into a 4-word pool and expands it
# into 4 uint64 words (numpy's ``bit_generator.pyx``), which PCG64 turns into
# its 128-bit state and increment (``pcg64_set_seed``).
_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def _seed_words(seeds: Sequence[int] | np.ndarray, offset: int = 0) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i] + offset).generate_state(4, np.uint64)``,
    computed for all the seeds at once with uint32 array arithmetic."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u" and seeds.itemsize <= 4:
        seeds = seeds.astype(np.uint64) + offset  # a check's generate_state words
    else:
        seeds = [operator.index(s) + offset for s in seeds]
        if not all(0 <= s < 1 << 64 for s in seeds):
            raise InputError(f"seeds must lie in [0, 2**64), got {min(seeds)}..{max(seeds)}")
        seeds = np.array(seeds, dtype=np.uint64)
    const = 0x43B0_D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931E_8875 & _M32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(0xCA01_F9DD) * x - np.uint32(0x4973_F715) * y
        out ^= out >> np.uint32(16)
        return out

    # A seed below 2**64 is at most two words; the pool hashes zeros past them.
    low, high = (seeds & _M32).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = 0x8B51_F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * 0x58F3_8DED & _M32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        halves.append(value.astype(np.uint64))
    return np.stack([halves[i] | halves[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def _pcg64_state(words: np.ndarray) -> dict:
    """The ``bit_generator.state`` PCG64 takes from one row of :func:`_seed_words`:
    state 0 and increment 2 * seq + 1, one step, the initial state added, one
    more step (mod 2**128)."""
    state_high, state_low, seq_high, seq_low = words.tolist()
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _M128
    state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _M128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# A block of replications holds at most this many draws per side (a replication
# at n >= _BLOCK_CELLS is a block of one row). Blocks of 16,384 were no faster
# and raised the suite's peak RSS by 0.3 MB.
_BLOCK_CELLS = 4_096


def _replicate(
    spec: MixtureSpec, n: int, seeds: np.ndarray, estimator: Estimator
) -> np.ndarray:
    """The estimator's value for each seed: its positives are drawn on
    ``default_rng(seed)``'s stream and its unlabeled set as ``sample_unlabeled(
    spec, n, seed + 1)`` draws it, into row r of a block; each block's losses
    are taken at once. One generator draws every row, set to each stream's
    state in turn."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    pos_words, unlabeled_words = _seed_words(seeds), _seed_words(seeds, offset=1)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    rows = max(1, _BLOCK_CELLS // n)
    estimates = np.empty(len(seeds))
    for start in range(0, len(seeds), rows):
        stop = min(start + rows, len(seeds))
        pos = np.empty((stop - start, n))
        unlabeled = np.empty((stop - start, n))
        for r in range(start, stop):
            bit_generator.state = _pcg64_state(pos_words[r])
            pos[r - start] = spec.p_pos(rng, n)
            bit_generator.state = _pcg64_state(unlabeled_words[r])
            _draw_unlabeled(spec, rng, unlabeled[r - start])
        pos_losses = logistic_negative_loss(pos)
        unlabeled_losses = logistic_negative_loss(unlabeled)
        for r in range(stop - start):
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
