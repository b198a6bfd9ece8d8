"""PU risk estimators against quadrature truth and concentration bounds."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from bfpo import _pcg64_words as pcg64_words
from bfpo import pu
from bfpo.errors import InputError
from bfpo.pu import (
    logistic_negative_loss,
    run_negativity_check,
    run_unbiasedness_check,
    true_weighted_negative_risk,
)
from bfpo.verification import registered_checks
from oracles import negative_risk_pu, sample_unlabeled


class TestSampleUnlabeled:
    def test_degenerate_all_positive(self):
        values, from_pos = sample_unlabeled(1.0, 500, rng_seed=0)
        assert from_pos.all()
        assert values.shape == (500,)

    def test_binomial_concentration(self):
        """Latent positive fraction lands within 3 binomial sigmas of pi_p."""
        n, pi_p = 100_000, 0.3
        _, from_pos = sample_unlabeled(pi_p, n, rng_seed=1)
        frac = from_pos.mean()
        bound = 3 * np.sqrt(pi_p * (1 - pi_p) / n)
        assert abs(frac - pi_p) < bound

    def test_seed_determinism(self):
        a, fa = sample_unlabeled(0.3, 1000, rng_seed=7)
        b, fb = sample_unlabeled(0.3, 1000, rng_seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("n", [1, 10, 10_000])
    @pytest.mark.parametrize("pi_p", [0.0, 0.3, 1.0])
    def test_equals_the_boolean_mask_formulation(self, n, pi_p):
        """The draws placed through index arrays equal two boolean-mask
        scatters bit for bit, the latent indicator included; pi_p 0 and 1
        draw no positives and only positives."""
        rng = np.random.default_rng(5)
        from_positive = rng.random(n) < pi_p
        k = int(np.count_nonzero(from_positive))
        values = np.empty(n)
        values[from_positive] = rng.normal(1.5, 1.0, k)
        values[~from_positive] = rng.normal(-1.5, 1.0, n - k)
        got, got_from_positive = sample_unlabeled(pi_p, n, rng_seed=5)
        assert got.tobytes() == values.tobytes()
        assert got_from_positive.tobytes() == from_positive.tobytes()

    @pytest.mark.parametrize("n", [1, 10, 10_000])
    def test_mixture_components_are_unit_normals(self, n):
        """At pi_p 1 every draw comes from N(1.5, 1), at pi_p 0 from
        N(-1.5, 1), after the n uniform flags."""
        for pi_p, mean in ((1.0, 1.5), (0.0, -1.5)):
            rng = np.random.default_rng(9)
            rng.random(n)
            want = rng.normal(mean, 1.0, n)
            assert sample_unlabeled(pi_p, n, rng_seed=9)[0].tobytes() == want.tobytes()

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            sample_unlabeled(0.3, 0, rng_seed=0)
        with pytest.raises(InputError):
            sample_unlabeled(0.3, 2.5, rng_seed=0)
        with pytest.raises(InputError):
            sample_unlabeled(1.5, 10, rng_seed=0)


class TestSoftplus:
    """The loss is max(x, 0) + log1p(exp(-|x|)), not np.logaddexp."""

    LOSSES = [(logistic_negative_loss, lambda x: np.logaddexp(0.0, x))]

    @pytest.mark.parametrize("loss, reference", LOSSES, ids=["negative"])
    @pytest.mark.parametrize("draw", ["normal", "uniform"])
    def test_within_4_ulps_of_logaddexp(self, loss, reference, draw):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 3.0, 50_000) if draw == "normal" else rng.uniform(-750, 750, 50_000)
        got, want = loss(x), reference(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("loss, reference", LOSSES, ids=["negative"])
    def test_exact_at_the_edges_and_quiet(self, loss, reference):
        x = np.array([0.0, -0.0, 710.0, -710.0, 745.0, -745.0, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loss(x)
            nan = loss(np.array([np.nan, 1.0]))
        np.testing.assert_array_equal(got, reference(x))
        assert np.isnan(nan[0]) and nan[1] == reference(np.array([1.0]))[0]

    def test_input_is_left_alone(self):
        x = np.array([-2.0, 0.5, 3.0])
        logistic_negative_loss(x)
        np.testing.assert_array_equal(x, [-2.0, 0.5, 3.0])


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
        truth = true_weighted_negative_risk(pi_p)
        rng = np.random.default_rng(5)
        estimates = []
        for _ in range(reps):
            seed = int(rng.integers(2**31))
            pos = np.random.default_rng(seed).normal(1.5, 1.0, n)
            unl, _ = sample_unlabeled(pi_p, n, seed + 1)
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

    @pytest.mark.parametrize("size", [1, 7, 129, 10_000, 100_003])
    def test_means_equal_np_mean_bit_for_bit(self, size):
        """Each mean is a sum over a length: the same pairwise reduction and one
        division that np.mean makes, also past numpy's 8,192-element blocks."""
        rng = np.random.default_rng(size)
        a, b = rng.normal(0.0, 3.0, (2, size))
        assert negative_risk_pu(a, b, 0.3) == float(np.mean(b) - 0.3 * np.mean(a))
        assert negative_risk_pu(a.tolist(), b.tolist(), 0.3) == negative_risk_pu(a, b, 0.3)


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


def _per_replication_estimates(pi_p, n, seeds):
    """The oracle: each replication drawn alone, its positives on
    ``default_rng(seed)`` and its unlabeled set by ``sample_unlabeled`` at
    seed + 1, and estimated by ``negative_risk_pu``."""
    loop = []
    for s in seeds:
        pos = np.random.default_rng(int(s)).normal(1.5, 1.0, n)
        unlabeled, _ = sample_unlabeled(pi_p, n, int(s) + 1)
        loop.append(negative_risk_pu(
            logistic_negative_loss(pos), logistic_negative_loss(unlabeled), pi_p
        ))
    return np.array(loop)


class TestChecks:
    def test_unbiasedness_check_passes(self):
        result = run_unbiasedness_check(seed=0)
        assert result.passed, result.details

    def test_negativity_exposure_at_small_n(self):
        result = run_negativity_check(seed=2)
        assert result.passed
        assert result.details["negative_frequency"] > 0.01

    def test_sign_error_is_caught(self, monkeypatch):
        """A flipped correction sign must fail the unbiasedness check."""

        def broken(pos_losses, unlabeled_losses, pi_p):
            n = pos_losses.shape[1]
            return unlabeled_losses.sum(axis=1) / n + pi_p * pos_losses.sum(axis=1) / n

        monkeypatch.setattr(pu, "_estimates", broken)
        assert not run_unbiasedness_check(seed=0).passed

    @pytest.mark.parametrize("n, replications", [(1_000, 37), (10, 500), (20_000, 3)])
    def test_blocked_estimates_equal_a_loop(self, n, replications):
        """Replications scored in blocks (4 rows at n = 1,000, 409 at n = 10,
        one at n = 20,000; none a divisor of the count) equal a loop that draws
        and scores each replication alone, bit for bit and in order."""
        pi_p = 0.3
        seeds = np.random.SeedSequence(8).generate_state(replications)
        loop = _per_replication_estimates(pi_p, n, seeds)
        assert pu._replicate(pi_p, n, seeds).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 10_000])
    def test_block_estimates_equal_negative_risk_pu(self, n):
        """The checks' estimates, taken a block at a time, equal
        ``negative_risk_pu`` replication by replication, bit for bit: at the
        edges of numpy's 8-wide pairwise unrolling and its 128-element
        blocks, and over a block boundary (585 rows a block at n = 7)."""
        seeds = np.random.SeedSequence(n).generate_state(20 if n > 1_000 else 600)
        loop = _per_replication_estimates(0.7, n, seeds)
        assert pu._replicate(0.7, n, seeds).tobytes() == loop.tobytes()


def _bulk_states(seeds, offset=0):
    """The states the PU checks set on their reused generator for ``seeds``."""
    return list(pcg64_words.pcg64_states(pcg64_words.seed_words(seeds, offset)))


class TestBulkSeeding:
    """The states computed for all of a check's seeds at once equal what
    ``np.random.default_rng(seed)`` builds, seed by seed."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

    def test_edge_seeds(self):
        want = [np.random.default_rng(s).bit_generator.state for s in self.EDGES]
        assert _bulk_states(self.EDGES) == want

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_many_seeds(self, dtype):
        """generate_state words as a check makes them (uint32) and as 64-bit
        seeds, which reach the second word of SeedSequence's pool."""
        seeds = np.random.SeedSequence(12).generate_state(1_500, dtype)
        want = [np.random.default_rng(int(s)).bit_generator.state for s in seeds]
        assert _bulk_states(seeds) == want

    def test_offset_seeds_cross_into_a_second_word(self):
        """The unlabeled side seeds with seed + 1, which is 2**32 for the
        largest uint32 word."""
        seeds = np.array([0, 7, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
        want = [np.random.default_rng(int(s) + 1).bit_generator.state for s in seeds]
        assert _bulk_states(seeds, offset=1) == want

    def test_rows_after_a_leftover_uint32_equal_fresh_generators(self):
        """An odd count of int32 draws leaves half a 64-bit word buffered
        (``has_uint32``); the next row's state drops it, as a fresh
        ``default_rng`` starts without it."""
        n = 7
        rng = np.random.default_rng(0)
        rng.integers(0, 1_000, n, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
        seeds = np.random.SeedSequence(3).generate_state(5)
        seen = []
        for state in _bulk_states(seeds, offset=1):
            rng.bit_generator.state = state
            seen.append(rng.integers(0, 1_000, n, dtype=np.int32).tolist())
            assert rng.bit_generator.state["has_uint32"] == 1
        assert seen == [
            np.random.default_rng(int(s) + 1).integers(0, 1_000, n, dtype=np.int32).tolist()
            for s in seeds
        ]

    @pytest.mark.parametrize(
        "seeds, offset",
        [([-1], 0), ([2**64], 0), ([3, 2**70], 0), ([2**64 - 1], 1), ([0], -1)],
        ids=["negative", "two_to_the_64", "past_64_bits", "offset_past_64_bits", "offset_below_0"],
    )
    def test_out_of_range_seeds_raise(self, seeds, offset):
        with pytest.raises(InputError):
            pcg64_words.seed_words(seeds, offset)


class TestDegenerateArguments:
    """Arguments that leave the sampler or an estimator nothing to measure,
    or that are not what they name, raise instead of returning a NaN or
    failing inside numpy."""

    @pytest.mark.parametrize(
        "fn, args",
        [
            (sample_unlabeled, (0.3, 0, 0)),
            (sample_unlabeled, (0.3, -4, 0)),
            (sample_unlabeled, (0.3, 10.5, 0)),
            (sample_unlabeled, (0.3, 10.0, 0)),
            (sample_unlabeled, (0.3, np.float64(10.0), 0)),
            (sample_unlabeled, (0.3, True, 0)),
            (sample_unlabeled, (0.3, np.True_, 0)),
            (sample_unlabeled, (0.3, "10", 0)),
            (sample_unlabeled, (-0.1, 10, 0)),
            (sample_unlabeled, (1.5, 10, 0)),
            (sample_unlabeled, (float("nan"), 10, 0)),
            (negative_risk_pu, ([], [0.1], 0.3)),
            (negative_risk_pu, ([0.1], [], 0.3)),
            (negative_risk_pu, ([0.1], [0.2], -0.1)),
            (negative_risk_pu, ([0.1], [0.2], 1.5)),
            (negative_risk_pu, ([0.1], [0.2], float("nan"))),
        ],
        ids=[
            "sample_no_n",
            "sample_negative_n",
            "sample_fractional_n",
            "sample_float_n",
            "sample_numpy_float_n",
            "sample_bool_n",
            "sample_numpy_bool_n",
            "sample_string_n",
            "sample_pi_below_0",
            "sample_pi_above_1",
            "sample_nan_pi",
            "negative_risk_no_positives",
            "negative_risk_no_unlabeled",
            "negative_risk_pi_below_0",
            "negative_risk_pi_above_1",
            "negative_risk_nan_pi",
        ],
    )
    def test_raises(self, fn, args):
        with pytest.raises(InputError):
            fn(*args)

    def test_numpy_integers_are_counts(self):
        """A numpy integer is a count like an int: the same draws."""
        want = sample_unlabeled(0.3, 100, rng_seed=4)
        for n in (np.int64(100), np.uint32(100), np.int8(100)):
            got = sample_unlabeled(0.3, n, rng_seed=4)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestRegisteredPuDetails:
    """The suite's PU checks at seed 0, pinned before softplus left
    np.logaddexp: the floats move by a few ulps at most, and the frequency and
    the printed spreads not at all."""

    def test_seed_0(self):
        results = [check() for check in registered_checks(seed=0)[:3]]
        assert [(r.name, r.passed) for r in results] == [
            ("pu_unbiasedness", True),
            ("pu_convergence_rate", True),
            ("pu_negativity_exposure", True),
        ]
        unbiased, convergence, negativity = (r.details for r in results)
        assert unbiased == {
            "estimate_mean": pytest.approx(0.19326881484934685, rel=1e-12, abs=0),
            "truth": 0.19340431155590454,
            "standard_error": pytest.approx(0.0005983991157267649, rel=1e-12, abs=0),
            "deviation_in_se": pytest.approx(0.22643199663342312, rel=1e-12, abs=0),
            "replications": 200,
            "n": 10_000,
        }
        assert convergence == {
            "slope": pytest.approx(-0.4911478958978325, rel=1e-12, abs=0),
            "stds": "0.0877251, 0.0262237, 0.00913751",
            "ns": "100, 1000, 10000",
            "replications": 200,
        }
        assert negativity == {"negative_frequency": 0.411, "replications": 2_000, "n": 10}
