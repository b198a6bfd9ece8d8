"""Embeddings, the proxy classifier, and propensity-based overlap estimation."""

from __future__ import annotations

import math
import tracemalloc
import warnings

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
from bfpo.datagen import build_user_dataset, user_mean_embedding
from bfpo.errors import EstimationError, InputError
from bfpo.policy import Sample, SampleTable

from conftest import small_population


def _table_from_tokens(token_lists, user="u"):
    return SampleTable.of([Sample(user, (0,), tuple(toks)) for toks in token_lists])


def _features(target: SampleTable, aux: SampleTable, vocab: int) -> np.ndarray:
    """The proxy's training rows, target then auxiliary, embedded pool by pool."""
    return np.concatenate([embed_all(target, vocab), embed_all(aux, vocab)])


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

    @pytest.mark.parametrize("token", [-1, 3, 5])
    def test_out_of_range_token_rejected(self, token):
        """As for :func:`embed_all`: a token past the vocabulary would lengthen
        the vector, and a negative one would reach ``np.bincount``."""
        with pytest.raises(InputError):
            embed(Sample("u", (0,), (0, token)), 3)


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
            assert embed_all(SampleTable.of(samples), vocab).tobytes() == expected.tobytes()

    def test_population_samples(self):
        spec, pop = small_population(0.6, seed=5, vocab=24)
        samples = [s for uid in sorted(pop) for s in pop[uid]]
        expected = np.stack([embed(s, 24) for s in samples])
        assert embed_all(SampleTable.of(samples), 24).tobytes() == expected.tobytes()

    def test_empty_completion_is_a_zero_row(self):
        samples = [Sample("u", (0,), ()), Sample("u", (0,), (1,))]
        out = embed_all(SampleTable.of(samples), 3)
        np.testing.assert_array_equal(out, np.stack([embed(s, 3) for s in samples]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("token", [-1, 4])
    def test_out_of_range_token_rejected(self, token):
        """A token past the vocabulary would otherwise count in the next row."""
        with pytest.raises(InputError):
            embed_all(SampleTable.of([Sample("u", (0,), (0, token)), Sample("u", (0,), (1,))]), 4)

    def test_zero_rows(self):
        out = embed_all(SampleTable.of([]), 5)
        assert out.shape == (0, 5) and out.dtype == np.float64

    def test_repeated_token_counts(self):
        """A token repeated in one completion is one entry with its count."""
        samples = [Sample("u", (0,), (2, 1, 2, 2)), Sample("u", (0,), (0, 0))]
        out = embed_all(SampleTable.of(samples), 3)
        assert out.tobytes() == np.stack([embed(s, 3) for s in samples]).tobytes()
        np.testing.assert_allclose(out, [[0.0, 1 / math.sqrt(10), 3 / math.sqrt(10)],
                                         [1.0, 0.0, 0.0]])


class TestEmbeddingMemory:
    """Token bags are embedded from their nonzero entries: no n x V count
    table is built beside the output, and a mean embedding builds none at all."""

    @staticmethod
    def _peak_bytes(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 9, 5_000)
        return SampleTable.from_rows(
            ["u"] * 5_000, [(0,)] * 5_000,
            [rng.integers(0, 1_024, n).tolist() for n in lengths], [False] * 5_000,
        )

    def test_user_mean_embedding_peak(self, table):
        # A dense 5,000 x 1,024 table of counts alone is 41 MB.
        assert self._peak_bytes(user_mean_embedding, table, 1_024) < 4e6

    def test_embed_all_peak(self, table):
        output_bytes = 5_000 * 1_024 * 8
        assert self._peak_bytes(embed_all, table, 1_024) < 1.25 * output_bytes

    def test_run_alpha_estimation_peak(self, table):
        """An estimate builds one (n_train + n_aux + n_heldout, V) feature
        table, with no per-pool tables beside it and no stacked copy."""
        target, aux = table[:2_000], table[2_000:4_000]
        table_bytes = 4_000 * 1_024 * 8
        assert self._peak_bytes(run_alpha_estimation, target, aux, 1_024) < 1.25 * table_bytes


class TestTrainProxy:
    def test_separable_sets(self):
        """Disjoint token supports: held-out accuracy above 0.95."""
        rng = np.random.default_rng(0)
        target = _table_from_tokens(rng.integers(0, 4, (300, 5)).tolist(), "t")
        aux = _table_from_tokens(rng.integers(4, 8, (300, 5)).tolist(), "a")
        clf = train_proxy(_features(target[:240], aux[:240], 8), 240, epochs=300, lr=2.0,
                          seed=0)
        held = target[240:] + aux[240:]
        labels = np.array([1] * 60 + [0] * 60)
        preds = clf.predict_proba(np.stack([embed(s, 8) for s in held])) > 0.5
        assert (preds == labels).mean() > 0.95

    def test_identical_distributions(self):
        """Indistinguishable classes: mean prediction near one half on both."""
        rng = np.random.default_rng(1)
        target = _table_from_tokens(rng.integers(0, 8, (400, 5)).tolist(), "t")
        aux = _table_from_tokens(rng.integers(0, 8, (400, 5)).tolist(), "a")
        clf = train_proxy(_features(target, aux, 8), len(target), epochs=100, lr=1.0, seed=0)
        for group in (target, aux):
            mean_pred = clf.predict_proba(np.stack([embed(s, 8) for s in group])).mean()
            assert abs(mean_pred - 0.5) < 0.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        target = _table_from_tokens(rng.integers(0, 4, (50, 4)).tolist(), "t")
        aux = _table_from_tokens(rng.integers(2, 6, (50, 4)).tolist(), "a")
        a = train_proxy(_features(target, aux, 6), 50, epochs=50, lr=1.0, seed=9)
        b = train_proxy(_features(target, aux, 6), 50, epochs=50, lr=1.0, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    @pytest.mark.parametrize("n_rows", [61, 63])
    @pytest.mark.parametrize("one_row", ["target", "aux"])
    def test_equals_the_labels_formula(self, one_row, n_rows):
        """Bit for bit the epoch loop with a labels array and ``np.mean``.
        (At these row counts, a mean taken as a product with ``1 / n`` moves
        the fit's last bits in one of the two class splits.)"""
        rng = np.random.default_rng(3)
        features = embed_all(_table_from_tokens(rng.integers(0, 9, (n_rows, 6)).tolist()), 9)
        n_target = 1 if one_row == "target" else n_rows - 1
        got = train_proxy(features, n_target, epochs=40, lr=1.5, seed=4)
        want = _labels_formula_proxy(features, n_target, epochs=40, lr=1.5, seed=4)
        assert got.weights.view(np.uint64).tolist() == want.weights.view(np.uint64).tolist()
        assert got.bias.hex() == want.bias.hex()

    @pytest.mark.parametrize("n_target", [0, 2], ids=["no_target", "no_aux"])
    def test_empty_class_rejected(self, n_target):
        features = embed_all(_table_from_tokens([[0], [1]]), 4)
        with pytest.raises(InputError, match="both classes"):
            train_proxy(features, n_target, 10, 1.0, 0)


def _labels_formula_proxy(
    features: np.ndarray, n_target: int, epochs: int, lr: float, seed: int
) -> ProxyClassifier:
    """The proxy's epochs with the residual taken against a labels array and
    the bias stepped by its ``np.mean``: the reference form."""
    labels = np.zeros(len(features))
    labels[:n_target] = 1.0
    rng = np.random.default_rng(seed)
    clf = ProxyClassifier(weights=rng.normal(0.0, 1e-3, features.shape[1]), bias=0.0)
    for _ in range(epochs):
        residual = clf.predict_proba(features) - labels
        clf.weights = clf.weights - lr * (features.T @ residual) / len(features)
        clf.bias = clf.bias - lr * float(residual.mean())
    return clf


def _masked_proba(clf: ProxyClassifier, embeddings: np.ndarray) -> np.ndarray:
    """The two-branch logistic by masked fancy indexing: the reference form."""
    z = embeddings @ clf.weights + clf.bias
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestPredictProba:
    def test_equals_the_masked_form_bit_for_bit(self, rng):
        """On random logits and on +-0, +-745 (where exp of -|z| is
        subnormal), +-800 and NaN, with no RuntimeWarning."""
        special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.nan]
        z = np.concatenate([rng.normal(0, 8, 500), special])
        # Weight 1 and bias 0 carry every z through unchanged, but -0.0 as
        # +0.0: a dot product adds from +0.0, so no classifier yields -0.0.
        clf = ProxyClassifier(weights=np.ones(1), bias=0.0)
        embeddings = z[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clf.predict_proba(embeddings)
        assert got.tobytes() == _masked_proba(clf, embeddings).tobytes()
        assert np.isnan(got[-1]) and got[-3] == 1.0 and got[-2] == 0.0

    def test_equals_the_masked_form_on_embeddings(self, rng):
        clf = ProxyClassifier(weights=rng.normal(0, 3, 6), bias=-0.4)
        embeddings = embed_all(_table_from_tokens(rng.integers(0, 6, (200, 4)).tolist()), 6)
        got = clf.predict_proba(embeddings)
        assert got.tobytes() == _masked_proba(clf, embeddings).tobytes()


class TestPropensity:
    def test_constant_classifier(self):
        clf = ProxyClassifier(weights=np.zeros(4), bias=logit(0.8))
        samples = embed_all(_table_from_tokens([[0], [1, 2], [3]]), 4)
        assert estimate_propensity(clf, samples) == pytest.approx(0.8, abs=1e-12)

    def test_mean_of_two_outputs(self):
        """Outputs 0.6 and ~1.0 average to ~0.8."""
        clf = ProxyClassifier(weights=np.array([logit(0.6), 40.0]), bias=0.0)
        samples = embed_all(_table_from_tokens([[0], [1]]), 2)
        assert estimate_propensity(clf, samples) == pytest.approx(0.8, abs=1e-6)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        clf = ProxyClassifier(weights=rng.normal(0, 1, 6), bias=0.1)
        samples = embed_all(_table_from_tokens(rng.integers(0, 6, (30, 4)).tolist()), 6)
        c = estimate_propensity(clf, samples)
        assert 0.0 < c < 1.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_propensity(ProxyClassifier(np.zeros(2), 0.0), np.zeros((0, 2)))


class TestEstimateAlpha:
    def test_formula_arithmetic(self):
        """mean g(aux) = 0.24 with c_hat = 0.8 gives alpha_hat = 0.3."""
        clf = ProxyClassifier(weights=np.zeros(4), bias=logit(0.24))
        aux = _table_from_tokens([[0], [1], [2, 3]])
        est = estimate_alpha(clf, embed_all(aux, 4), c_hat=0.8, n_heldout=5)
        assert est.alpha_hat == pytest.approx(0.3, abs=1e-9)
        assert est.alpha_raw == est.alpha_hat and est.alpha_clipped is False
        assert est.n_aux == 3
        assert est.n_heldout == 5

    def test_same_distribution_high_alpha(self):
        rng = np.random.default_rng(4)
        target = _table_from_tokens(rng.integers(0, 8, (500, 5)).tolist(), "t")
        aux = _table_from_tokens(rng.integers(0, 8, (500, 5)).tolist(), "a")
        est = run_alpha_estimation(target, aux, vocab_size=8, epochs=100, lr=1.0, seed=0)
        assert est.alpha_hat >= 0.8

    def test_disjoint_support_low_alpha(self):
        rng = np.random.default_rng(5)
        target = _table_from_tokens(rng.integers(0, 4, (500, 5)).tolist(), "t")
        aux = _table_from_tokens(rng.integers(4, 8, (500, 5)).tolist(), "a")
        est = run_alpha_estimation(target, aux, vocab_size=8, epochs=300, lr=2.0, seed=0)
        assert est.alpha_hat <= 0.1

    def test_clipping_with_warning(self, caplog):
        """Aux more target-like than the held-out targets: clipped at 0.99."""
        clf = ProxyClassifier(weights=np.array([8.0, -8.0]), bias=0.0)
        aux = _table_from_tokens([[0], [0]])
        with caplog.at_level("WARNING"):
            est = estimate_alpha(clf, embed_all(aux, 2), c_hat=0.2)
        assert est.alpha_hat == 0.99
        assert est.alpha_raw == pytest.approx(1.0 / (1.0 + np.exp(-8.0)) / 0.2, rel=1e-12)
        assert est.alpha_clipped is True
        assert any("clipping" in r.message for r in caplog.records)

    def test_nonpositive_propensity_rejected(self):
        clf = ProxyClassifier(weights=np.zeros(2), bias=0.0)
        with pytest.raises(EstimationError):
            estimate_alpha(clf, embed_all(_table_from_tokens([[0]]), 2), c_hat=0.0)

    @pytest.mark.parametrize("weight, c_hat", [(0.0, float("nan")), (float("nan"), 0.5)])
    def test_non_finite_estimate_rejected(self, weight, c_hat):
        """A diverged proxy (NaN propensity or predictions) raises instead of
        clamping to alpha 0."""
        clf = ProxyClassifier(weights=np.full(2, weight), bias=0.0)
        with pytest.raises(EstimationError):
            estimate_alpha(clf, embed_all(_table_from_tokens([[0]]), 2), c_hat=c_hat)


class TestSplitHeldout:
    def test_disjoint_and_complete(self):
        samples = _table_from_tokens([[i] for i in range(10)])
        train, held = split_heldout(samples, 0.2, seed=0)
        assert len(held) == 2
        assert len(train) == 8
        # The halves are tables, whose rows are built afresh on each read, so
        # a row is told by its completion, unique to each sample here.
        assert {s.y for s in train}.isdisjoint({s.y for s in held})
        assert sorted(train + held, key=lambda s: s.y) == list(samples)

    def test_deterministic(self):
        samples = _table_from_tokens([[i] for i in range(10)])
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


class TestRunAlphaEstimation:
    @staticmethod
    def _dataset():
        _, pop = small_population(0.5, 3, n_users=6, vocab=24, samples_per_user=100)
        return build_user_dataset(pop, sorted(pop)[0], 1.5, "random", 3, 24)

    def test_embeds_each_pool_once(self, monkeypatch):
        """Each pool's bag entries are found once per estimate, and no 2-D
        array is concatenated; the estimate equals the piecewise pipeline, which
        embeds each pool on its own and stacks the proxy's training rows."""
        from bfpo import alpha as alpha_mod

        ds = self._dataset()
        entries, stacked = [], []
        real_entries, real_concatenate = alpha_mod._bag_entries, np.concatenate

        def entries_spy(tokens, lengths, vocab_size):
            entries.append(len(lengths))
            return real_entries(tokens, lengths, vocab_size)

        def concatenate_spy(arrays, *args, **kwargs):
            out = real_concatenate(arrays, *args, **kwargs)
            stacked.append(out.ndim)
            return out

        monkeypatch.setattr(alpha_mod, "_bag_entries", entries_spy)
        monkeypatch.setattr(np, "concatenate", concatenate_spy)
        got = run_alpha_estimation(ds.tar_train, ds.aux_train, 24, seed=3)
        monkeypatch.undo()
        train, heldout = split_heldout(ds.tar_train, alpha_mod.DEFAULT_HELDOUT_FRACTION, 3)
        assert entries == [len(train), len(ds.aux_train), len(heldout)]
        assert 2 not in stacked

        features = _features(train, ds.aux_train, 24)
        clf = train_proxy(features, len(train), alpha_mod.DEFAULT_EPOCHS, alpha_mod.DEFAULT_LR, 3)
        c_hat = estimate_propensity(clf, embed_all(heldout, 24))
        assert got == estimate_alpha(clf, embed_all(ds.aux_train, 24), c_hat, len(heldout))

    def test_table_blocks_are_each_pools_embedding(self, monkeypatch):
        """The one table is the training targets', then the auxiliary pool's,
        then the held-out targets' :func:`embed_all` rows, bit for bit."""
        from bfpo import alpha as alpha_mod

        ds = self._dataset()
        tables = []
        real = alpha_mod._embed_pools

        def spy(pools, vocab_size):
            tables.append(real(pools, vocab_size))
            return tables[-1]

        monkeypatch.setattr(alpha_mod, "_embed_pools", spy)
        run_alpha_estimation(ds.tar_train, ds.aux_train, 24, seed=3)
        monkeypatch.undo()
        (table,) = tables
        train, heldout = split_heldout(ds.tar_train, alpha_mod.DEFAULT_HELDOUT_FRACTION, 3)
        blocks = np.split(table, np.cumsum([len(train), len(ds.aux_train)]))
        for block, pool in zip(blocks, (train, ds.aux_train, heldout), strict=True):
            assert block.tobytes() == embed_all(pool, 24).tobytes()

    @pytest.mark.parametrize(
        "knobs",
        [{"lr": -1.0}, {"lr": float("nan")}, {"epochs": 0}, {"heldout_fraction": 1.0},
         {"heldout_fraction": 0.0}],
        ids=["lr_negative", "lr_nan", "epochs_zero", "heldout_fraction_one",
             "heldout_fraction_zero"],
    )
    def test_out_of_range_knob_raises_as_the_config_does(self, knobs):
        """A library call takes the config's range rule: at lr -1 it would
        otherwise run gradient ascent and report alpha 0.99."""
        from bfpo.alpha import EstimatorConfig
        from bfpo.errors import ConfigError

        _, pop = small_population(0.5, 3, n_users=4, vocab=24, samples_per_user=40)
        ds = build_user_dataset(pop, sorted(pop)[0], 1.0, "random", 3, 24)
        with pytest.raises(ConfigError) as config_error:
            EstimatorConfig(**knobs)
        with pytest.raises(InputError) as call_error:
            run_alpha_estimation(ds.tar_train, ds.aux_train, 24, seed=3, **knobs)
        assert str(call_error.value) == str(config_error.value)
