"""Synthetic population: determinism, overlap ground truth, grouping, persistence."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from bfpo import _pcg64_words as pcg64_words
from bfpo import datagen
from bfpo.alpha import embed, embed_all, train_proxy
from bfpo.datagen import (
    PopulationSpec,
    build_user_dataset,
    generate_population,
    load_corpus,
    load_population_spec,
    save_corpus,
    save_population_spec,
    truncate_history,
    user_mean_embedding,
)
from bfpo.errors import InputError
from bfpo.policy import Sample, SampleTable

from conftest import small_population


class TestGeneratePopulation:
    def test_determinism(self):
        spec, pop_a = small_population(0.5, seed=3)
        _, pop_b = small_population(0.5, seed=3)
        assert pop_a == pop_b

    def test_counts_and_splits(self):
        spec, pop = small_population(0.5, seed=0, n_users=4, samples_per_user=20)
        assert len(pop) == 4
        for samples in pop.values():
            assert len(samples) == 20
            assert sum(1 for s in samples if s.split == "train") == 16
            assert all(s.split == "train" for s in samples[:16])
            assert all(s.split == "heldout" for s in samples[16:])

    def test_full_overlap_is_homogeneous(self):
        """At overlap 1 every user draws from the same distribution: a
        chi-squared homogeneity test must not reject at the 1% level."""
        spec, pop = small_population(1.0, seed=2, n_users=6, vocab=24,
                                     samples_per_user=250, seq_len=8)
        counts = []
        for uid in sorted(pop):
            tokens = [t for s in pop[uid] for t in s.y]
            counts.append(np.bincount(tokens, minlength=24))
        table = np.array(counts)
        table = table[:, table.sum(axis=0) > 0]
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01

    def test_user_mean_embedding_equals_the_sum_loop(self):
        """The mean of the batched embeddings equals adding each sample's
        ``embed`` in turn, bit for bit, with and without a train split, and
        with empty completions among the rows."""
        ys = [(), (3, 3, 1), (), (0,), (4, 4, 4, 4), (1, 2), ()]
        tables = [SampleTable.of([Sample("u", (0,), y, split) for y in ys])
                  for split in ("train", "heldout")]
        for seed in range(5):
            spec, pop = small_population(0.4, seed=seed, vocab=24)
            for samples in pop.values():
                heldout = SampleTable.of([s for s in samples if s.split == "heldout"])
                tables += [samples, heldout]
        for subset in tables:
            train = [s for s in subset if s.split == "train"] or subset
            acc = np.zeros(24)
            for s in train:
                acc += embed(s, 24)
            expected = acc / len(train)
            assert user_mean_embedding(subset, 24).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", [-1, 5])
    def test_user_mean_embedding_rejects_out_of_range_tokens(self, token):
        """Counted by ``row * V + token``, a token past the vocabulary would
        count in the next row's first column, a negative one in the row before."""
        table = SampleTable.of([Sample("u", (0,), (0, token)), Sample("u", (0,), (1,))])
        with pytest.raises(InputError):
            user_mean_embedding(table, 5)

    def test_zero_overlap_maximizes_user_distance(self):
        """Pairwise mean-embedding distances decrease with overlap."""
        distances = []
        for lam in (0.0, 0.5, 1.0):
            spec, pop = small_population(lam, seed=4, vocab=24)
            embs = [user_mean_embedding(pop[uid], 24) for uid in sorted(pop)]
            pair = [
                np.linalg.norm(embs[i] - embs[j])
                for i in range(len(embs))
                for j in range(i + 1, len(embs))
            ]
            distances.append(float(np.mean(pair)))
        assert distances[0] > distances[1] > distances[2]

    def test_zero_overlap_supports_are_user_specific(self):
        spec, pop = small_population(0.0, seed=5, n_users=4, vocab=24)
        supports = [
            {t for s in pop[uid] for t in s.y} for uid in sorted(pop)
        ]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert supports[i].isdisjoint(supports[j])

    def test_zero_overlap_proxy_accuracy(self):
        """Cross-module: disjoint supports let the proxy classifier separate."""
        spec, pop = small_population(0.0, seed=6, n_users=4, vocab=24,
                                     samples_per_user=100)
        ds = build_user_dataset(pop, sorted(pop)[0], 1.0, "random", 6, 24)
        features = np.concatenate([embed_all(ds.tar_train, 24), embed_all(ds.aux_train, 24)])
        clf = train_proxy(features, len(ds.tar_train), epochs=300, lr=2.0, seed=0)
        tar_held, aux_held = ds.h_tar.split_rows("heldout"), ds.h_aux.split_rows("heldout")
        held = tar_held + aux_held
        labels = np.array([1] * len(tar_held) + [0] * len(aux_held))
        preds = clf.predict_proba(np.stack([embed(s, 24) for s in held])) > 0.5
        assert (preds == labels).mean() > 0.95

    def test_vocab_too_small(self):
        with pytest.raises(InputError):
            generate_population(
                PopulationSpec(
                    n_users=10, vocab_size=12, overlap_lambda=0.5,
                    samples_per_user=5, prompt_pool_size=4, seq_len=3, seed=0,
                )
            )


def _loop_population(spec, monkeypatch):
    """The population as the per-token loop alone draws it."""
    with monkeypatch.context() as m:
        m.setattr(datagen, "_draws_array", lambda *args: None)
        return generate_population(spec)


def _spy_array_draws(monkeypatch):
    """Record whether each user's array draws held (True) or fell back (False)."""
    held = []
    original = datagen._draws_array

    def spy(*args):
        out = original(*args)
        held.append(out is not None)
        return out

    monkeypatch.setattr(datagen, "_draws_array", spy)
    return held


def _spec(**overrides):
    base = dict(n_users=4, vocab_size=24, overlap_lambda=0.5, samples_per_user=30,
                prompt_pool_size=7, seq_len=5, seed=11)
    return PopulationSpec(**{**base, **overrides})


# Both frozen acceptance configs; then overlaps 0, 0.2, 0.8 and 1; seq_len 1.
ARRAY_SPECS = [
    PopulationSpec(8, 72, 0.8, 150, 20, 8, 0),
    PopulationSpec(6, 48, 0.5, 2500, 20, 5, 1),
    *[_spec(overlap_lambda=lam, seed=seed) for lam in (0.0, 0.2, 0.8, 1.0) for seed in (0, 1)],
    _spec(seq_len=1),
]
# Layouts the array draws do not cover: a prompt pool of one, a user block of
# one token (4 users, V=8: shared block 4, one token per user).
FALLBACK_SPECS = [
    _spec(prompt_pool_size=1),
    _spec(n_users=4, vocab_size=8, overlap_lambda=0.3),
]


class TestArrayDraws:
    """The array draws equal the per-token loop of scalar generator calls."""

    @pytest.mark.parametrize("spec", ARRAY_SPECS, ids=repr)
    def test_equals_per_token_loop(self, spec, monkeypatch):
        expected = _loop_population(spec, monkeypatch)
        held = _spy_array_draws(monkeypatch)
        assert generate_population(spec) == expected
        assert held == [True] * spec.n_users
        for samples in expected.values():
            assert all(type(t) is int for s in samples for t in s.x + s.y)

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=repr)
    def test_fallback_equals_per_token_loop(self, spec, monkeypatch):
        expected = _loop_population(spec, monkeypatch)
        held = _spy_array_draws(monkeypatch)
        assert generate_population(spec) == expected
        assert held == [False] * spec.n_users

    def test_overlap_one_never_draws_an_own_token(self, monkeypatch):
        """A block of one token is never drawn at overlap 1, so the array draws hold."""
        spec = _spec(n_users=4, vocab_size=8, overlap_lambda=1.0)
        held = _spy_array_draws(monkeypatch)
        assert generate_population(spec) == _loop_population(spec, monkeypatch)
        assert held == [True] * spec.n_users

    @pytest.mark.parametrize(
        "overlap", [0.0, 2**-53, float(np.nextafter(0.5, 0)), 0.5, 1 - 2**-53, 1.0]
    )
    def test_overlap_on_and_beside_the_unit_grid(self, overlap):
        """The shared-or-own flag compares raw words with an integer
        threshold; at overlaps on and one step beside random()'s 2**-53 grid
        it picks what ``random() < overlap`` picks."""
        layout = datagen._stream_layout(40, 6)
        for seed in range(3):
            drawn = datagen._draws_array(np.random.default_rng(seed), layout, overlap, 7, 9, 5)
            expected = datagen._draws_loop(np.random.default_rng(seed), 40, 6, overlap, 7, 9, 5)
            assert drawn is not None
            for a, b in zip(drawn, expected):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("overlap", [0.0, 2**-53, 0.3, float(np.nextafter(0.5, 0)), 0.5, 1.0])
    def test_unit_threshold_splits_words_as_random_does(self, overlap):
        """``w < unit_threshold(p)`` exactly when ``unit(w) < p``, at the
        threshold's own word and the words beside it."""
        threshold = pcg64_words.unit_threshold(overlap)
        for word in (threshold - 2049, threshold - 1, threshold, threshold + 2047):
            if 0 <= word < 2**64:
                assert (word < threshold) == (pcg64_words.unit(word) < overlap)

    def test_corpus_matches_the_per_token_generator(self, tmp_path):
        """SHA-256 of corpora written by the per-token generator before the
        array draws replaced it."""
        digests = {
            PopulationSpec(8, 72, 0.8, 150, 20, 8, 0):
                "efc67227083cffa0a549d9a8d9fb3613375e3c9c8c7bf6740a70cf8b45549676",
            PopulationSpec(6, 48, 0.5, 2500, 20, 5, 1):
                "35f59dbd47e972206598f4b6ccb4e93b079674e904f11bedf109740d0696988b",
            PopulationSpec(3, 12, 0.4, 30, 1, 4, 2):
                "01dc44ee7f1de3d8420c96fd10a1bbd76fc5ef17ae18cec46900d0d0d5de4f84",
        }
        for spec, digest in digests.items():
            path = tmp_path / "corpus.jsonl"
            save_corpus(generate_population(spec), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("bound", [3, 20, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
    def test_lemire_matches_scalar_integers(self, bound):
        """One ``integers(0, n)`` takes the low half of the first word, or the
        high half when the low one is rejected."""
        rejections = 0
        for seed in range(400):
            raw = np.random.default_rng(seed).bit_generator.random_raw(1)[0]
            halves = np.array([raw & 0xFFFFFFFF, raw >> 32], dtype=np.uint64)
            values, rejected = pcg64_words.lemire(halves, np.full(2, bound, dtype=np.uint64))
            scalar = int(np.random.default_rng(seed).integers(0, bound))
            if not rejected[0]:
                assert scalar == values[0]
            else:
                rejections += 1
                if not rejected[1]:
                    assert scalar == values[1]
        if bound in (2**31 + 1, 3 * 2**30):
            assert rejections > 50  # rejects with probability ~1/2 and 1/4
        if bound == 2**32:
            assert rejections == 0

    @pytest.mark.parametrize(
        "bounds, n_held",
        [
            ((3 * 2**30, 5, 7), 26),
            ((9, 2**31 + 1, 3 * 2**30), 3),
            ((2**32, 2**32 - 1, 2**32), 60),
            ((5, 3 * 2**30, 7), 29),
            ((7, 5, 3 * 2**30), 21),
        ],
    )
    def test_rejections_are_detected(self, bounds, n_held):
        """Bounds near 2**32 force rejections: wherever the array draws hold
        they equal the scalar calls, and every rejection makes them give way.
        A draw of a small bound whose product falls below a large bound's
        limit is no rejection: the array draws hold on exactly the seeds they
        held on when each draw was checked against its own limit."""
        held = 0
        for seed in range(60):
            layout = datagen._stream_layout(3, 2)
            drawn = datagen._draws_array(np.random.default_rng(seed), layout, 0.5, *bounds)
            expected = datagen._draws_loop(np.random.default_rng(seed), 3, 2, 0.5, *bounds)
            if drawn is not None:
                held += 1
                for a, b in zip(drawn, expected):
                    np.testing.assert_array_equal(a, b)
        assert held == n_held

    def test_stream_layout_reads_each_word_once(self):
        """Every word is read by one random() or by two integers() halves,
        and the halves alternate low then high within a word."""
        for n_samples, seq_len in [(1, 1), (3, 2), (4, 5), (5, 8)]:
            word_of_r, half_of_h, n_words = datagen._stream_layout(n_samples, seq_len)
            assert half_of_h.shape == (n_samples, 1 + seq_len)
            word_of_h, half = np.divmod(half_of_h, 2)
            high = half != pcg64_words.LOW_HALF
            uses = np.bincount(word_of_r.ravel(), minlength=n_words) * 2
            uses += np.bincount(word_of_h.ravel(), minlength=n_words)
            tail = np.zeros(n_words, dtype=bool)
            tail[word_of_h.ravel()[-1]] = not high.ravel()[-1]
            assert np.all(uses[~tail] == 2) and np.all(uses[tail] == 1)
            assert high.ravel()[::2].sum() == 0 and high.ravel()[1::2].all()
            pairs = word_of_h.ravel()[: 2 * (word_of_h.size // 2)].reshape(-1, 2)
            assert np.array_equal(pairs[:, 0], pairs[:, 1])

    def test_stream_layout_is_shared_and_read_only(self, monkeypatch):
        """Populations of one shape read one cached layout, which refuses
        writes; the pinned corpora above hold with it."""
        layouts = []
        original = datagen._draws_array

        def spy(rng, layout, *args):
            layouts.append(layout)
            return original(rng, layout, *args)

        monkeypatch.setattr(datagen, "_draws_array", spy)
        spec = _spec()
        generate_population(spec)
        generate_population(_spec(seed=spec.seed + 1))
        assert len(layouts) == 2 * spec.n_users
        assert all(layout is layouts[0] for layout in layouts)
        assert layouts[0] is datagen._stream_layout(spec.samples_per_user, spec.seq_len)
        for array in layouts[0][:2]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0


class TestBuildUserDataset:
    def test_ratio_arithmetic(self):
        spec, pop = small_population(0.5, seed=0)
        ds = build_user_dataset(pop, "u000", 1.0, "random", 0, spec.vocab_size)
        assert len(ds.h_aux) == len(ds.h_tar)
        ds = build_user_dataset(pop, "u000", 1.5, "random", 0, spec.vocab_size)
        assert len(ds.h_aux) == round(1.5 * len(ds.h_tar))

    def test_target_never_in_aux(self):
        spec, pop = small_population(0.5, seed=1)
        for grouping in ("random", "unique", "non_unique"):
            ds = build_user_dataset(pop, "u002", 1.0, grouping, 1, spec.vocab_size)
            assert all(s.user_id != "u002" for s in ds.h_aux)

    def test_grouping_distance_ordering(self):
        """Mean history-embedding distance to the target, over selected users:
        non_unique <= random <= unique."""
        spec, pop = small_population(
            0.5, seed=7, n_users=6, vocab=40, samples_per_user=60
        )
        target_emb = user_mean_embedding(pop["u000"], spec.vocab_size)

        def mean_dist(ds):
            return float(
                np.mean(
                    [
                        np.linalg.norm(
                            user_mean_embedding(pop[uid], spec.vocab_size) - target_emb
                        )
                        for uid in ds.aux_user_ids
                    ]
                )
            )

        d = {
            g: mean_dist(build_user_dataset(pop, "u000", 0.5, g, 7, spec.vocab_size))
            for g in ("non_unique", "random", "unique")
        }
        assert d["non_unique"] <= d["random"] <= d["unique"]
        assert d["non_unique"] < d["unique"]

    def test_selection_is_deterministic(self):
        spec, pop = small_population(0.5, seed=2)
        a = build_user_dataset(pop, "u001", 1.0, "random", 5, spec.vocab_size)
        b = build_user_dataset(pop, "u001", 1.0, "random", 5, spec.vocab_size)
        assert a.h_aux == b.h_aux

    def test_insufficient_aux_data(self):
        spec, pop = small_population(0.5, seed=0, n_users=2, samples_per_user=10)
        with pytest.raises(InputError):
            build_user_dataset(pop, "u000", 5.0, "random", 0, spec.vocab_size)

    def test_unknown_target_or_grouping(self):
        spec, pop = small_population(0.5, seed=0)
        with pytest.raises(InputError):
            build_user_dataset(pop, "nobody", 1.0, "random", 0, spec.vocab_size)
        with pytest.raises(InputError):
            build_user_dataset(pop, "u000", 1.0, "nearest", 0, spec.vocab_size)


class TestTruncateHistory:
    def _dataset(self):
        spec, pop = small_population(0.5, seed=0)
        return build_user_dataset(pop, "u000", 1.5, "random", 0, spec.vocab_size)

    def test_identity_at_one(self):
        ds = self._dataset()
        assert truncate_history(ds, 1.0) == ds

    def test_arithmetic(self):
        ds = self._dataset()
        out = truncate_history(ds, 0.5)
        assert len(out.h_tar) == 20
        assert len(out.h_aux) == round(1.5 * 20)
        assert out.h_tar == ds.h_tar[:20]

    def test_idempotent(self):
        ds = self._dataset()
        once = truncate_history(ds, 0.5)
        assert truncate_history(once, 1.0) == once

    def test_zero_fraction_rejected(self):
        with pytest.raises(InputError):
            truncate_history(self._dataset(), 0.0)


class TestOverlapMonotonicity:
    def test_target_aux_distance_decreases_with_overlap(self):
        """Averaged over 10 seeds, mean distance to auxiliary users' embeddings
        strictly decreases as the overlap knob rises."""
        means = []
        for lam in (0.2, 0.5, 0.8):
            per_seed = []
            for seed in range(10):
                spec, pop = small_population(lam, seed, n_users=5,
                                             samples_per_user=30, vocab=24)
                target_emb = user_mean_embedding(pop["u000"], 24)
                dists = [
                    np.linalg.norm(user_mean_embedding(pop[uid], 24) - target_emb)
                    for uid in sorted(pop)
                    if uid != "u000"
                ]
                per_seed.append(float(np.mean(dists)))
            means.append(float(np.mean(per_seed)))
        assert means[0] > means[1] > means[2]


class TestPersistence:
    def test_corpus_roundtrip(self, tmp_path):
        spec, pop = small_population(0.5, seed=8)
        path = tmp_path / "corpus.jsonl"
        save_corpus(pop, path)
        assert load_corpus(path, spec.vocab_size) == pop

    def test_byte_stability(self, tmp_path):
        spec, pop = small_population(0.5, seed=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(pop, a)
        save_corpus(pop, b)
        assert a.read_bytes() == b.read_bytes()

    def test_spec_roundtrip(self, tmp_path):
        spec, _ = small_population(0.25, seed=10)
        path = tmp_path / "spec.json"
        save_population_spec(spec, path)
        assert load_population_spec(path) == spec

    def test_spec_file_bytes(self, tmp_path):
        """The file the field-list-free writer produces, byte for byte."""
        path = tmp_path / "spec.json"
        save_population_spec(PopulationSpec(8, 72, 0.8, 150, 20, 8, 7), path)
        assert path.read_text() == (
            '{\n  "n_users": 8,\n  "overlap_lambda": 0.8,\n  "prompt_pool_size": 20,\n'
            '  "samples_per_user": 150,\n  "schema_version": 1,\n  "seed": 7,\n'
            '  "seq_len": 8,\n  "vocab_size": 72\n}\n'
        )

    @pytest.mark.parametrize(
        "edit",
        [
            {"seq_len": None},
            {"seq_len": "abc"},
            {"overlap_lambda": [0.5]},
            {"overlap_lambda": 1.5},
            {"n_users": 0},
        ],
        ids=repr,
    )
    def test_malformed_spec_rejected(self, tmp_path, edit):
        spec, _ = small_population(0.25, seed=10)
        path = tmp_path / "spec.json"
        save_population_spec(spec, path)
        doc = {**json.loads(path.read_text()), **edit}
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            load_population_spec(path)
        del doc["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            load_population_spec(path)

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id": "u", "x": [0], "y": [], "split": "train"}\n')
        with pytest.raises(InputError):
            load_corpus(path, 24)
        path.write_text("not json\n")
        with pytest.raises(InputError):
            load_corpus(path, 24)

    @pytest.mark.parametrize(
        "later_fault",
        [{"split": "test"}, {"y": []}, {"user_id": 5}, {"x": "abc"}],
        ids=repr,
    )
    def test_token_fault_before_a_line_fault_is_named(self, tmp_path, later_fault):
        """Tokens are checked per file, yet a bad token on line 2 is the
        fault named when line 4 is also bad."""
        spec, pop = small_population(0.5, seed=8)
        path = tmp_path / "corpus.jsonl"
        save_corpus(pop, path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "y": [spec.vocab_size]})
        lines[3] = json.dumps({**json.loads(lines[3]), **later_fault})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"line 2: token id 24 >= vocab_size 24"):
            load_corpus(path, spec.vocab_size)

    # A valid corpus with its first lines replaced: (the lines, the line named).
    # The first case is one valid JSON array when its lines are joined by
    # commas, so only a reading line by line finds the fault.
    LINE_FAULTS = {
        "object_closed_on_the_next_line": (
            ['{"user_id":"u","x":[0],"y":[1]', '"split":"train"}',
             '{"user_id":"u","x":[0],"y":[1],"split":"train"},'
             '{"user_id":"u","x":[0],"y":[2],"split":"train"}'],
            r"line 1: invalid JSON \(Expecting ',' delimiter",
        ),
        "two_objects_on_a_line": (
            ['{"user_id":"u","x":[0],"y":[1],"split":"train"}',
             '{"user_id":"u","x":[0],"y":[1],"split":"train"}'
             '{"user_id":"u","x":[0],"y":[2],"split":"train"}'],
            r"line 2: invalid JSON \(Extra data",
        ),
        "two_objects_and_a_comma_on_a_line": (
            ['{"user_id":"u","x":[0],"y":[1],"split":"train"},'
             '{"user_id":"u","x":[0],"y":[2],"split":"train"}'],
            r"line 1: invalid JSON \(Extra data",
        ),
        "nested_past_the_recursion_limit": (
            ['{"user_id":"u","x":[0],"y":[1],"split":"train"}', "[" * 100_000 + "]" * 100_000],
            r"line 2: invalid JSON \(maximum recursion depth",
        ),
        "an_integer_of_5000_digits": (
            ['{"user_id":"u","x":[0],"y":[' + "1" * 5_000 + '],"split":"train"}'],
            r"line 1: invalid JSON \(Exceeds the limit",
        ),
        "a_list": (["[1, 2]"], r"line 1: malformed sample \(list indices"),
        "a_string": (['"u"'], r"line 1: malformed sample \(string indices"),
        "null": (["null"], r"line 1: malformed sample \('NoneType'"),
        "missing_split": (['{"user_id":"u","x":[0],"y":[1]}'],
                          r"line 1: malformed sample \('split'\)"),
        "split_a_list": (['{"user_id":"u","x":[0],"y":[1],"split":["train"]}'],
                         r"line 1: bad split \['train'\]"),
        "user_id_a_number": (['{"user_id":5,"x":[0],"y":[1],"split":"train"}'],
                             r"line 1: malformed sample \(user_id 5 is not a string\)"),
    }

    @pytest.mark.parametrize("case", list(LINE_FAULTS))
    def test_line_faults_name_the_line(self, tmp_path, case):
        lines, message = self.LINE_FAULTS[case]
        spec, pop = small_population(0.5, seed=8)
        path = tmp_path / "corpus.jsonl"
        save_corpus(pop, path)
        rest = path.read_text().splitlines()[len(lines):]
        path.write_text("\n".join(lines + rest) + "\n")
        with pytest.raises(InputError, match=message):
            load_corpus(path, spec.vocab_size)

    def test_user_ids_are_written_as_json_dumps_writes_them(self, tmp_path):
        """A quote, a backslash, non-ASCII letters and control characters in a
        user id: each line is ``json.dumps`` of the sample, and loads back."""
        ids = ['say "hi"', "back\\slash", "caf\u00e9", "tab\tnew\nline\x1f", "\U0001d518"]
        pop = {
            uid: SampleTable.from_rows([uid, uid], [[0, 1], []], [[2], [3, 4]], [False, True])
            for uid in ids
        }
        path = tmp_path / "corpus.jsonl"
        save_corpus(pop, path)
        assert path.read_text().splitlines() == [
            json.dumps({"user_id": u, "x": x, "y": y, "split": split}, separators=(",", ":"))
            for uid in sorted(pop) for u, x, y, split in pop[uid].rows()
        ]
        assert load_corpus(path, vocab_size=5) == pop

    def test_token_past_int64(self, tmp_path):
        """A token too large for an int64 is an integer past any vocabulary."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"user_id": "u", "x": [0], "y": [1, 99999999999999999999], '
                        '"split": "train"}\n')
        with pytest.raises(InputError, match="line 1: token id 99999999999999999999"):
            load_corpus(path, vocab_size=24)
