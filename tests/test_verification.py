"""The finite-difference gradient check: no false failures, no loosening."""

from __future__ import annotations

import pytest

from bfpo import verification
from bfpo.losses import Method


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
