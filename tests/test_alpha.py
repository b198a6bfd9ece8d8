"""Embeddings, the proxy classifier, and propensity-based overlap estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bfpo.alpha import (
    ProxyClassifier,
    embed,
    embed_all,
    estimate_alpha,
    estimate_propensity,
    run_alpha_estimation,
    split_heldout,
    train_proxy,
)
from bfpo.datagen import build_user_dataset
from bfpo.errors import EstimationError, InputError
from bfpo.policy import Sample

from conftest import small_population


def _samples_from_tokens(token_lists, user="u"):
    return [Sample(user, (0,), tuple(toks)) for toks in token_lists]


def logit(p: float) -> float:
    return math.log(p / (1 - p))


class TestEmbed:
    def test_single_token(self):
        e = embed(Sample("u", (0,), (0, 0)), vocab_size=4)
        np.testing.assert_allclose(e, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_two_distinct_tokens(self):
        e = embed(Sample("u", (0,), (0, 1)), vocab_size=4)
        np.testing.assert_allclose(e, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0], atol=1e-12)

    def test_permutation_invariance(self):
        a = embed(Sample("u", (0,), (2, 0, 1, 2)), vocab_size=4)
        b = embed(Sample("u", (0,), (0, 2, 2, 1)), vocab_size=4)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self, rng):
        for _ in range(20):
            y = tuple(int(t) for t in rng.integers(0, 6, int(rng.integers(1, 8))))
            e = embed(Sample("u", (0,), y), vocab_size=6)
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)


class TestEmbedAll:
    def test_equals_stacked_embed(self, rng):
        """Random lengths, repeated tokens, single-token completions."""
        for vocab in (2, 6, 48):
            samples = [
                Sample("u", (0,), tuple(int(t) for t in rng.integers(0, vocab, n)))
                for n in rng.integers(1, 12, 200)
            ]
            samples.append(Sample("u", (0,), (vocab - 1,) * 5))
            expected = np.stack([embed(s, vocab) for s in samples])
            assert embed_all(samples, vocab).tobytes() == expected.tobytes()

    def test_population_samples(self):
        spec, pop = small_population(0.6, seed=5, vocab=24)
        samples = [s for uid in sorted(pop) for s in pop[uid]]
        expected = np.stack([embed(s, 24) for s in samples])
        assert embed_all(samples, 24).tobytes() == expected.tobytes()

    def test_empty_completion_is_a_zero_row(self):
        samples = [Sample("u", (0,), ()), Sample("u", (0,), (1,))]
        out = embed_all(samples, 3)
        np.testing.assert_array_equal(out, np.stack([embed(s, 3) for s in samples]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("token", [-1, 4])
    def test_out_of_range_token_rejected(self, token):
        """A token past the vocabulary would otherwise count in the next row."""
        with pytest.raises(InputError):
            embed_all([Sample("u", (0,), (0, token)), Sample("u", (0,), (1,))], 4)


class TestTrainProxy:
    def test_separable_sets(self):
        """Disjoint token supports: held-out accuracy above 0.95."""
        rng = np.random.default_rng(0)
        target = _samples_from_tokens(rng.integers(0, 4, (300, 5)).tolist(), "t")
        aux = _samples_from_tokens(rng.integers(4, 8, (300, 5)).tolist(), "a")
        clf = train_proxy(target[:240], aux[:240], epochs=300, lr=2.0, seed=0, vocab_size=8)
        held = target[240:] + aux[240:]
        labels = np.array([1] * 60 + [0] * 60)
        preds = clf.predict_proba(np.stack([embed(s, 8) for s in held])) > 0.5
        assert (preds == labels).mean() > 0.95

    def test_identical_distributions(self):
        """Indistinguishable classes: mean prediction near one half on both."""
        rng = np.random.default_rng(1)
        target = _samples_from_tokens(rng.integers(0, 8, (400, 5)).tolist(), "t")
        aux = _samples_from_tokens(rng.integers(0, 8, (400, 5)).tolist(), "a")
        clf = train_proxy(target, aux, epochs=100, lr=1.0, seed=0, vocab_size=8)
        for group in (target, aux):
            mean_pred = clf.predict_proba(np.stack([embed(s, 8) for s in group])).mean()
            assert abs(mean_pred - 0.5) < 0.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        target = _samples_from_tokens(rng.integers(0, 4, (50, 4)).tolist(), "t")
        aux = _samples_from_tokens(rng.integers(2, 6, (50, 4)).tolist(), "a")
        a = train_proxy(target, aux, epochs=50, lr=1.0, seed=9, vocab_size=6)
        b = train_proxy(target, aux, epochs=50, lr=1.0, seed=9, vocab_size=6)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_empty_class_rejected(self):
        with pytest.raises(InputError):
            train_proxy([], _samples_from_tokens([[0]]), 10, 1.0, 0, 4)


class TestPropensity:
    def test_constant_classifier(self):
        clf = ProxyClassifier(weights=np.zeros(4), bias=logit(0.8))
        samples = _samples_from_tokens([[0], [1, 2], [3]])
        assert estimate_propensity(clf, samples) == pytest.approx(0.8, abs=1e-12)

    def test_mean_of_two_outputs(self):
        """Outputs 0.6 and ~1.0 average to ~0.8."""
        clf = ProxyClassifier(weights=np.array([logit(0.6), 40.0]), bias=0.0)
        samples = _samples_from_tokens([[0], [1]])
        assert estimate_propensity(clf, samples) == pytest.approx(0.8, abs=1e-6)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        clf = ProxyClassifier(weights=rng.normal(0, 1, 6), bias=0.1)
        samples = _samples_from_tokens(rng.integers(0, 6, (30, 4)).tolist())
        c = estimate_propensity(clf, samples)
        assert 0.0 < c < 1.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_propensity(ProxyClassifier(np.zeros(2), 0.0), [])


class TestEstimateAlpha:
    def test_formula_arithmetic(self):
        """mean g(aux) = 0.24 with c_hat = 0.8 gives alpha_hat = 0.3."""
        clf = ProxyClassifier(weights=np.zeros(4), bias=logit(0.24))
        aux = _samples_from_tokens([[0], [1], [2, 3]])
        est = estimate_alpha(clf, aux, c_hat=0.8, n_heldout=5)
        assert est.alpha_hat == pytest.approx(0.3, abs=1e-9)
        assert est.n_aux == 3
        assert est.n_heldout == 5

    def test_same_distribution_high_alpha(self):
        rng = np.random.default_rng(4)
        target = _samples_from_tokens(rng.integers(0, 8, (500, 5)).tolist(), "t")
        aux = _samples_from_tokens(rng.integers(0, 8, (500, 5)).tolist(), "a")
        est = run_alpha_estimation(target, aux, vocab_size=8, epochs=100, lr=1.0, seed=0)
        assert est.alpha_hat >= 0.8

    def test_disjoint_support_low_alpha(self):
        rng = np.random.default_rng(5)
        target = _samples_from_tokens(rng.integers(0, 4, (500, 5)).tolist(), "t")
        aux = _samples_from_tokens(rng.integers(4, 8, (500, 5)).tolist(), "a")
        est = run_alpha_estimation(target, aux, vocab_size=8, epochs=300, lr=2.0, seed=0)
        assert est.alpha_hat <= 0.1

    def test_clipping_with_warning(self, caplog):
        """Aux more target-like than the held-out targets: clipped at 0.99."""
        clf = ProxyClassifier(weights=np.array([8.0, -8.0]), bias=0.0)
        aux = _samples_from_tokens([[0], [0]])
        with caplog.at_level("WARNING"):
            est = estimate_alpha(clf, aux, c_hat=0.2)
        assert est.alpha_hat == 0.99
        assert any("clipping" in r.message for r in caplog.records)

    def test_nonpositive_propensity_rejected(self):
        clf = ProxyClassifier(weights=np.zeros(2), bias=0.0)
        with pytest.raises(EstimationError):
            estimate_alpha(clf, _samples_from_tokens([[0]]), c_hat=0.0)

    @pytest.mark.parametrize("weight, c_hat", [(0.0, float("nan")), (float("nan"), 0.5)])
    def test_non_finite_estimate_rejected(self, weight, c_hat):
        """A diverged proxy (NaN propensity or predictions) raises instead of
        clamping to alpha 0."""
        clf = ProxyClassifier(weights=np.full(2, weight), bias=0.0)
        with pytest.raises(EstimationError):
            estimate_alpha(clf, _samples_from_tokens([[0]]), c_hat=c_hat)


class TestSplitHeldout:
    def test_disjoint_and_complete(self):
        samples = _samples_from_tokens([[i] for i in range(10)])
        train, held = split_heldout(samples, 0.2, seed=0)
        assert len(held) == 2
        assert len(train) == 8
        assert {id(s) for s in train}.isdisjoint({id(s) for s in held})
        assert sorted(train + held, key=lambda s: s.y) == samples

    def test_deterministic(self):
        samples = _samples_from_tokens([[i] for i in range(10)])
        a = split_heldout(samples, 0.3, seed=5)
        b = split_heldout(samples, 0.3, seed=5)
        assert a == b


class TestOverlapRecovery:
    def test_monotone_in_overlap_smoke(self):
        """Estimates rise with the generator's overlap knob (small corpus)."""
        estimates = []
        for lam in (0.2, 0.8):
            vals = []
            for seed in range(2):
                spec, pop = small_population(
                    lam, seed, n_users=6, vocab=48, samples_per_user=400, seq_len=5
                )
                ds = build_user_dataset(pop, sorted(pop)[0], 1.0, "random", seed, 48)
                est = run_alpha_estimation(ds.tar_train, ds.aux_train, 48, seed=seed)
                vals.append(est.alpha_hat)
            estimates.append(np.mean(vals))
        assert estimates[0] < estimates[1]
        assert estimates[1] > 0.5
