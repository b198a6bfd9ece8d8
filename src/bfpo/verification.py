"""User-facing property checks: gradient correctness, EMA invariance, clamping.

These are the checks the ``verify`` command runs on a fresh install.  They are
deliberately re-runnable with any seed: each one draws its own randomized
instances, compares against an independent oracle (central finite differences,
closed-form weighted-mean gaps, direct sign counting) and reports a single
pass/fail with diagnostic details.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .losses import (
    Batch,
    DpoPair,
    LossConfig,
    Method,
    Stack,
    binary_loss,
    method_loss_and_grad,
    score,
    scored_loss,
)
from .policy import PolicyParams, Sample, softmax_tables
from .pu import (
    CheckResult,
    run_convergence_check,
    run_negativity_check,
    run_unbiasedness_check,
)
from .rewards import ReferenceState, delta_ema, ema_update, kto_zrefs

__all__ = [
    "finite_difference_grad",
    "random_gradient_case",
    "registered_checks",
    "run_all_checks",
    "run_clamp_check",
    "run_ema_invariance_check",
    "run_gradient_fd_check",
]

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4
# A loss value is a short chain of rounded operations (log-softmax, per-token
# sums, sigmoids, a batch mean), so it is taken as exact to this many ulps of
# its magnitude when bounding the round-off of a central difference.
FD_LOSS_ULPS = 16.0


def finite_difference_grad(
    loss_fn: Callable[[], float], params: PolicyParams, step: float = FD_STEP
) -> np.ndarray:
    """Central differences of a scalar loss over every logit entry."""
    grad = np.zeros_like(params.logits)
    for idx in np.ndindex(params.logits.shape):
        original = params.logits[idx]
        params.logits[idx] = original + step
        up = loss_fn()
        params.logits[idx] = original - step
        down = loss_fn()
        params.logits[idx] = original
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def _random_samples(
    rng: np.random.Generator, vocab: int, count: int, max_len: int = 3
) -> list[Sample]:
    samples = []
    for _ in range(count):
        x = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(0, 3))))
        y = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, max_len + 1))))
        samples.append(Sample(user_id="v", x=x, y=y))
    return samples


def random_gradient_case(
    method: Method, rng: np.random.Generator
) -> tuple[Batch, PolicyParams, PolicyParams, LossConfig, float, list[float] | None]:
    """One randomized (batch, policy, reference, config, delta, zrefs) instance.

    For the clamped method the draw is repeated until the purified term is
    safely positive, because the acceptance check only covers clamp-inactive
    regions (the clamped branch has an exactly-zero gradient by construction).
    """
    while True:
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
        batch = Batch.of(
            pos=_random_samples(rng, vocab, int(rng.integers(1, 4))),
            aux=_random_samples(rng, vocab, int(rng.integers(1, 4))),
        )
        if method is Method.DPO:
            batch = Batch.of(
                pairs=[
                    DpoPair(x=s.x, y_w=s.y, y_l=t.y)
                    for s, t in zip(
                        _random_samples(rng, vocab, int(rng.integers(1, 4))),
                        _random_samples(rng, vocab, 3),
                    )
                ]
            )
        zrefs = None
        if method in (Method.KTO, Method.CBPO):
            scores = score(
                method, Stack.of(method, batch, context, vocab), policy,
                softmax_tables(reference.logits)[0], config.beta,
            )
            if method is Method.KTO:
                if len(scores.rewards) < 2:
                    continue
                zrefs = kto_zrefs(scores.rewards).tolist()
            elif scored_loss(method, scores, [config], [delta])[0][0].pure_neg_raw <= 0.05:
                continue
        return batch, policy, reference, config, delta, zrefs


def run_gradient_fd_check(
    method: Method,
    seed: int = 3,
    cases: int = 50,
    tolerance: float = FD_TOLERANCE,
) -> CheckResult:
    """Analytic gradient vs central finite differences over randomized cases.

    The error is relative to the FD gradient's norm, but never to less than the
    norm at which the FD estimate's own round-off would use up the tolerance:
    each loss value is exact only to ``FD_LOSS_ULPS * eps * |loss|``, so each
    central difference is uncertain by that much of the largest loss seen,
    divided by the step.  A gradient that is truly zero then passes; any
    gradient FD can resolve at this step is judged as before.
    """
    # Stable per-method stream: str hashes are process-randomized, enum order is not.
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(Method).index(method)]))
    worst = 0.0
    for _ in range(cases):
        batch, policy, reference, config, delta, zrefs = random_gradient_case(method, rng)
        # Encoded once: the finite differences below score this batch 2·C·V times.
        stack = Stack.of(method, batch, policy.context_size, policy.vocab_size)
        _, analytic = method_loss_and_grad(method, batch, policy, reference, config, delta)
        # The reference is fixed, so its table is too.
        ref_table = None if method is Method.SFT else softmax_tables(reference.logits)[0]
        largest = 0.0

        def value() -> float:
            nonlocal largest
            scores = score(method, stack, policy, ref_table, config.beta)
            total = scored_loss(method, scores, [config], [delta], zrefs)[0][0].total
            largest = max(largest, abs(total))
            return total

        numeric = finite_difference_grad(value, policy)
        eps = FD_LOSS_ULPS * np.finfo(np.float64).eps
        roundoff = eps * largest / FD_STEP * math.sqrt(numeric.size)
        scale = max(float(np.linalg.norm(numeric)), roundoff / tolerance)
        rel = float(np.linalg.norm(analytic - numeric)) / scale
        worst = max(worst, rel)
    return CheckResult(
        name=f"gradient_fd_{method.value}",
        passed=bool(worst < tolerance),
        details={"worst_relative_error": worst, "cases": cases, "tolerance": tolerance},
    )


def run_ema_invariance_check(
    ratios: Sequence[float] = (0.5, 1.0, 1.5),
    pos_mean: float = 0.4,
    aux_mean: float = -0.6,
    decay: float = 0.9,
    steps: int = 400,
) -> CheckResult:
    """Decoupled EMA anchors must agree across batch ratios; joint means must not.

    With constant per-set reward means m+ and m-, the joint pooled batch mean
    sits at (m+ + x*m-)/(1+x), i.e. off the balanced anchor by
    (x-1)/(x+1) * (m- - m+)/2.
    """
    deltas = []
    joint_gap_errors = []
    for x in ratios:
        n_pos, n_aux = 2, max(1, round(2 * x))
        state = ReferenceState(decay=decay)
        for _ in range(steps):
            state = ema_update(state, pos_mean, aux_mean)
        deltas.append(delta_ema(state))
        joint = (n_pos * pos_mean + n_aux * aux_mean) / (n_pos + n_aux)
        predicted_gap = ((x - 1.0) / (x + 1.0)) * (aux_mean - pos_mean) / 2.0
        joint_gap_errors.append(abs(joint - 0.5 * (pos_mean + aux_mean) - predicted_gap))
    spread = max(deltas) - min(deltas)
    worst_gap_error = max(joint_gap_errors)
    return CheckResult(
        name="ema_batch_invariance",
        passed=bool(spread < 1e-9 and worst_gap_error < 1e-9),
        details={
            "delta_spread": spread,
            "worst_joint_gap_error": worst_gap_error,
            "ratios": ", ".join(str(r) for r in ratios),
        },
    )


def run_clamp_check(
    seed: int = 4,
    replications: int = 2_000,
    n: int = 10,
    alpha: float = 0.9,
) -> CheckResult:
    """The purified term must go negative on small batches, never post-clamp."""
    rng = np.random.default_rng(seed)
    config = LossConfig(alpha=alpha)
    negatives = 0
    clamp_violations = 0
    for _ in range(replications):
        pos = rng.normal(0.0, 1.0, n).tolist()
        aux = rng.normal(0.0, 1.0, n).tolist()
        breakdown = binary_loss(Method.CBPO, pos, aux, 0.0, config)
        if breakdown.pure_neg_raw < 0.0:
            negatives += 1
        if breakdown.pure_neg_clamped < 0.0:
            clamp_violations += 1
    frequency = negatives / replications
    return CheckResult(
        name="clamp_negativity_exposure",
        passed=bool(frequency > 0.01 and clamp_violations == 0),
        details={
            "negative_raw_frequency": frequency,
            "clamp_violations": clamp_violations,
            "replications": replications,
            "n": n,
        },
    )


def registered_checks(seed: int = 0, fd_cases: int = 50) -> list[Callable[[], CheckResult]]:
    """The full property suite, one thunk per registered check."""
    checks: list[Callable[[], CheckResult]] = [
        lambda: run_unbiasedness_check(seed=seed),
        lambda: run_convergence_check(seed=seed + 1),
        lambda: run_negativity_check(seed=seed + 2),
        lambda: run_ema_invariance_check(),
        lambda: run_clamp_check(seed=seed + 4),
    ]
    for method in Method:
        checks.append(
            lambda m=method: run_gradient_fd_check(m, seed=seed + 5, cases=fd_cases)
        )
    return checks


def run_all_checks(seed: int = 0, fd_cases: int = 50) -> list[CheckResult]:
    return [check() for check in registered_checks(seed=seed, fd_cases=fd_cases)]
