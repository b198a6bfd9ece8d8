"""PU risk estimators against quadrature truth and concentration bounds."""

from __future__ import annotations

import numpy as np
import pytest

from bfpo.errors import InputError
from bfpo.pu import (
    MixtureSpec,
    default_mixture,
    logistic_negative_loss,
    negative_risk_pu,
    pu_total_risk,
    run_negativity_check,
    run_unbiasedness_check,
    sample_unlabeled,
    true_weighted_negative_risk,
)


class TestSampleUnlabeled:
    def test_degenerate_all_positive(self):
        values, from_pos = sample_unlabeled(default_mixture(pi_p=1.0), 500, rng_seed=0)
        assert from_pos.all()
        assert values.shape == (500,)

    def test_binomial_concentration(self):
        """Latent positive fraction lands within 3 binomial sigmas of pi_p."""
        n, pi_p = 100_000, 0.3
        _, from_pos = sample_unlabeled(default_mixture(pi_p=pi_p), n, rng_seed=1)
        frac = from_pos.mean()
        bound = 3 * np.sqrt(pi_p * (1 - pi_p) / n)
        assert abs(frac - pi_p) < bound

    def test_seed_determinism(self):
        a, fa = sample_unlabeled(default_mixture(), 1000, rng_seed=7)
        b, fb = sample_unlabeled(default_mixture(), 1000, rng_seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(fa, fb)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            sample_unlabeled(default_mixture(), 0, rng_seed=0)
        with pytest.raises(InputError):
            MixtureSpec(pi_p=1.5, p_pos=lambda r, n: r.normal(0, 1, n),
                        p_neg=lambda r, n: r.normal(0, 1, n))


class TestNegativeRiskPu:
    def test_pi_one_limit(self):
        """Identical loss sets at pi_p -> 1: the correction removes everything."""
        losses = [0.4, 0.9, 0.2]
        assert negative_risk_pu(losses, losses, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pi_zero_is_raw_mean(self):
        unl = [0.5, 0.7, 0.9]
        assert negative_risk_pu([1.0], unl, 0.0) == pytest.approx(0.7, abs=1e-15)

    def test_monte_carlo_oracle(self):
        """Estimator mean over mixture draws matches pi_n * E_neg[loss]."""
        pi_p, n, reps = 0.3, 20_000, 40
        spec = default_mixture(pi_p)
        truth = true_weighted_negative_risk(pi_p)
        rng = np.random.default_rng(5)
        estimates = []
        for _ in range(reps):
            seed = int(rng.integers(2**31))
            pos = spec.p_pos(np.random.default_rng(seed), n)
            unl, _ = sample_unlabeled(spec, n, seed + 1)
            estimates.append(
                negative_risk_pu(
                    logistic_negative_loss(pos).tolist(),
                    logistic_negative_loss(unl).tolist(),
                    pi_p,
                )
            )
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - truth) < 4 * se

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            negative_risk_pu([], [0.1], 0.3)


class TestPuTotalRisk:
    def test_pi_zero_reduces_to_unlabeled_mean(self):
        assert pu_total_risk([1.0], [1.0], [0.2, 0.4], 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_constant_loss_identity(self):
        c = 0.7
        out = pu_total_risk([c] * 3, [c] * 3, [c] * 5, 0.3)
        assert out == pytest.approx(c, abs=1e-12)

    def test_fully_labeled_oracle(self):
        """Matches pi_p R+_p + pi_n R-_n computed with oracle negatives."""
        pi_p, n = 0.3, 100_000
        spec = default_mixture(pi_p)
        rng = np.random.default_rng(9)
        pos = spec.p_pos(rng, n)
        neg = spec.p_neg(rng, n)
        unl, _ = sample_unlabeled(spec, n, rng_seed=10)

        from bfpo.pu import logistic_positive_loss

        estimate = pu_total_risk(
            logistic_positive_loss(pos).tolist(),
            logistic_negative_loss(pos).tolist(),
            logistic_negative_loss(unl).tolist(),
            pi_p,
        )
        oracle = pi_p * logistic_positive_loss(pos).mean() + (1 - pi_p) * (
            logistic_negative_loss(neg).mean()
        )
        # Both sides are averages over ~1e5 draws; allow 3 combined sigmas.
        spread = 3 * (
            logistic_negative_loss(unl).std() / np.sqrt(n)
            + logistic_negative_loss(neg).std() / np.sqrt(n)
        )
        assert abs(estimate - oracle) < spread


class TestQuadratureTruth:
    @pytest.mark.parametrize(
        "pi_p, value",
        [(0.0, 0.2762918736512922), (0.3, 0.19340431155590454), (0.7, 0.08288756209538767)],
    )
    def test_bit_equal_to_adaptive_quadrature(self, pi_p, value):
        """The truth equals, to the bit, what adaptive quadrature
        (``scipy.integrate.quad`` on [-40, 40], limit 200) gave for
        pi_n * E_neg[softplus(x)], and it is a Python float."""
        truth = true_weighted_negative_risk(pi_p)
        assert type(truth) is float
        assert truth == value


class TestChecks:
    def test_unbiasedness_check_passes(self):
        result = run_unbiasedness_check(seed=0, n=2_000, replications=60)
        assert result.passed, result.details

    def test_negativity_exposure_at_small_n(self):
        result = run_negativity_check(seed=2, n=10, replications=500)
        assert result.passed
        assert result.details["negative_frequency"] > 0.01

    def test_sign_error_is_caught(self):
        """A flipped correction sign must fail the unbiasedness check."""

        def broken(pos_losses, unlabeled_losses, pi_p):
            return float(np.mean(unlabeled_losses) + pi_p * np.mean(pos_losses))

        result = run_unbiasedness_check(seed=0, n=2_000, replications=60, estimator=broken)
        assert not result.passed
