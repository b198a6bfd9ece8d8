"""The property checks: no false failures, no loosening, and stacked passes
that equal the per-entry and per-replication loops they replace."""

from __future__ import annotations

import numpy as np
import pytest

from bfpo import losses, verification
from bfpo.errors import InputError
from bfpo.losses import BREAKDOWN_COLUMNS, LossConfig, Method, Stack, binary_loss, score, scored_loss
from bfpo.policy import PolicyParams
from bfpo.pu import CheckResult

TOTAL = BREAKDOWN_COLUMNS.index("total")


def test_dpo_check_passes_where_the_true_gradient_is_zero():
    """``bfpo verify --seed 16`` draws a DPO case whose y_w and y_l score the
    same under every policy; its FD gradient is pure round-off."""
    result = verification.run_gradient_fd_check(Method.DPO, seed=16 + 5, cases=50)
    assert result.passed, result.details


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_scaled_gradient_fails_on_every_seed(method, monkeypatch):
    """A gradient off by 5% fails the check on each of seeds 0-19.

    Five cases are the first five of the full 50-case run (same stream), and
    the check reports the worst case, so failing on five fails on fifty.
    """
    exact = verification.method_loss_and_grad

    def scaled(*args, **kwargs):
        breakdown, grad = exact(*args, **kwargs)
        return breakdown, 1.05 * grad

    monkeypatch.setattr(verification, "method_loss_and_grad", scaled)
    passed = [
        seed for seed in range(20)
        if verification.run_gradient_fd_check(method, seed=seed, cases=5).passed
    ]
    assert passed == []


def _per_entry_fd(loss_fn, params: PolicyParams, step: float = verification.FD_STEP):
    """The oracle: central differences one logit entry at a time, each side a
    lone evaluation of the perturbed table."""
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


def _case_stream(method: Method, seed: int) -> np.random.Generator:
    """The generator :func:`verification.run_gradient_fd_check` draws cases from."""
    return np.random.default_rng(np.random.SeedSequence([seed, list(Method).index(method)]))


@pytest.mark.parametrize("seed", [3, 8, 21])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_stacked_fd_equals_the_per_entry_loop(method, seed, monkeypatch):
    """Each case's stacked FD gradient equals the per-entry loop bit for bit
    (seed 21 holds the DPO case whose true gradient is zero)."""
    stacked = []
    real = verification.finite_difference_grad

    def spy(loss_fn, params, step=verification.FD_STEP):
        stacked.append(real(loss_fn, params, step))
        return stacked[-1]

    monkeypatch.setattr(verification, "finite_difference_grad", spy)
    verification.run_gradient_fd_check(method, seed=seed, cases=10)
    assert len(stacked) == 10

    rng = _case_stream(method, seed)
    for got in stacked:
        batch, policy, reference, config, delta, zrefs, _ = verification.random_gradient_case(
            method, rng
        )
        stack = Stack.of(method, batch, policy, reference)

        def lone_total():
            scores = score(method, stack, policy, config.beta)
            return scored_loss(method, scores, [config], [delta], zrefs)[0][0, TOTAL]

        assert got.tobytes() == _per_entry_fd(lone_total, policy).tobytes()


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_fd_case_makes_two_stacks(method, monkeypatch):
    """A case is scored under its reference twice: once for the FD tables
    (reusing the stack a KTO or cbpo draw was screened with) and once inside
    ``method_loss_and_grad`` for the analytic gradient.  Draws that
    screening rejects make one stack each on top."""
    made = []
    real = Stack.of.__func__

    def counting(cls, *args, **kwargs):
        made.append(args[0])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Stack, "of", classmethod(counting))
    cases = 10
    rng = _case_stream(method, 3)
    returned = [verification.random_gradient_case(method, rng)[-1] for _ in range(cases)]
    screening = len(made)
    made.clear()
    verification.run_gradient_fd_check(method, seed=3, cases=cases)
    if method in (Method.KTO, Method.CBPO):
        assert all(stack is not None for stack in returned)
        assert len(made) == screening + cases
    else:
        assert returned == [None] * cases and screening == 0
        assert len(made) == 2 * cases
    assert method is not Method.KTO or len(made) == 2 * cases


def _per_replication_clamp(seed, replications=2_000, n=10, alpha=0.9) -> CheckResult:
    """The oracle: the clamp check as one draw pair and one lone
    :func:`binary_loss` per replication."""
    rng = np.random.default_rng(seed)
    config = LossConfig(alpha=alpha)
    negatives = clamp_violations = 0
    for _ in range(replications):
        pos = rng.normal(0.0, 1.0, n).tolist()
        aux = rng.normal(0.0, 1.0, n).tolist()
        breakdown = binary_loss(Method.CBPO, pos, aux, 0.0, config)
        negatives += breakdown.pure_neg_raw < 0.0
        clamp_violations += breakdown.pure_neg_raw < 0.0 and breakdown.total != breakdown.l_pos
    frequency = negatives / replications
    return CheckResult(
        name="clamp_negativity_exposure",
        passed=bool(frequency > 0.01 and clamp_violations == 0),
        details={"negative_raw_frequency": frequency, "clamp_violations": clamp_violations,
                 "replications": replications, "n": n},
    )


def test_one_clamp_draw_reads_the_sequential_stream():
    """One (2000, 2, 10) draw equals the 4,000 draws of 10, in order."""
    one = np.random.default_rng(4).normal(0.0, 1.0, (2_000, 2, 10))
    rng = np.random.default_rng(4)
    sequential = np.stack([rng.normal(0.0, 1.0, 10) for _ in range(4_000)])
    assert one.tobytes() == sequential.tobytes()


@pytest.mark.parametrize("seed", [4, 5, 9, 24])
def test_clamp_check_equals_the_per_replication_loop(seed):
    got = verification.run_clamp_check(seed=seed)
    want = _per_replication_clamp(seed)
    assert (got.name, got.passed) == (want.name, want.passed)
    assert repr(got.details) == repr(want.details)
    assert got.details["negative_raw_frequency"] > 0.01


def test_clamp_check_spans_several_layouts():
    """A replication count that is no multiple of the layout size scores the
    remainder too."""
    replications = 2 * verification.CLAMP_RUNS + 37
    got = verification.run_clamp_check(seed=6, replications=replications, n=3)
    want = _per_replication_clamp(6, replications=replications, n=3)
    assert repr(got.details) == repr(want.details)


def test_clamp_check_fails_on_an_unclamped_objective(monkeypatch):
    """With the cbpo row left unclamped, the purified term's negative values
    reach the total and the check counts them."""
    real = losses._binary_terms

    def unclamped(method, config):
        alpha, divisor, _ = real(method, config)
        return alpha, divisor, False

    assert verification.run_clamp_check(seed=4).passed
    monkeypatch.setattr(losses, "_binary_terms", unclamped)
    got = verification.run_clamp_check(seed=4)
    assert not got.passed
    assert got.details["clamp_violations"] > 0


def test_clamp_check_rejects_empty_batches():
    with pytest.raises(InputError):
        verification.run_clamp_check(n=0)
