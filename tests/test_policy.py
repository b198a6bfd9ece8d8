"""Policy log-probabilities and gradients against enumeration and finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bfpo.errors import InputError
from bfpo.policy import (
    PolicyParams,
    Sample,
    bucket,
    encode,
    log_prob,
    log_prob_grad,
    sample_completion,
    scatter_grad,
    sequence_log_probs,
    snapshot_reference,
    softmax_tables,
    step_log_probs,
    uniform_params,
)

from conftest import all_sequences, random_params


class TestLogProb:
    def test_uniform_two_tokens(self):
        """Uniform policy over 4 tokens: p(y) = 1/16 for any |y| = 2."""
        params = uniform_params(4, 3)
        assert log_prob(params, (0,), (1, 2)) == pytest.approx(math.log(1 / 16), abs=1e-9)
        assert log_prob(params, (0,), (1, 2)) == pytest.approx(-2.772589, abs=1e-6)

    def test_near_deterministic_limit(self):
        """With almost all softmax mass on y, log_prob approaches zero from below."""
        params = uniform_params(4, 2)
        y = (1, 3)
        for t, tok in enumerate(y):
            params.logits[bucket((0,), t, 2), tok] = 30.0
        lp = log_prob(params, (0,), y)
        assert -1e-10 < lp < 0.0

    def test_enumeration_oracle(self, rng):
        """Brute force: probabilities over all completions sum to one, and each
        matches an independent per-step softmax product."""
        for vocab, length in [(2, 3), (3, 2), (4, 3)]:
            params = random_params(rng, vocab,3)
            x = (int(rng.integers(vocab)),)
            total = 0.0
            for y in all_sequences(vocab, length):
                lp = log_prob(params, x, y)
                direct = 0.0
                for t, tok in enumerate(y):
                    row = params.logits[bucket(x, t, params.context_size)]
                    probs = np.exp(row) / np.exp(row).sum()
                    direct += math.log(probs[tok])
                assert lp == pytest.approx(direct, abs=1e-9)
                total += math.exp(lp)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_factorization_is_exact(self, rng):
        """log_prob is bit-identical to the left-to-right sum of its own steps."""
        params = random_params(rng, 5, 4)
        x, y = (2, 1), (4, 0, 3)
        total = 0.0
        for step in step_log_probs(params, x, y):
            total += step
        assert log_prob(params, x, y) == total

    def test_row_normalization(self, rng):
        params = random_params(rng, 6, 5)
        for row in params.logits:
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_input_errors(self):
        params = uniform_params(3, 2)
        with pytest.raises(InputError):
            log_prob(params, (0,), ())
        with pytest.raises(InputError):
            log_prob(params, (0,), (3,))
        with pytest.raises(InputError):
            log_prob(params, (7,), (0,))
        with pytest.raises(InputError):
            log_prob_grad(params, (0,), ())


class TestLogProbGrad:
    def test_uniform_binary_row(self):
        """Uniform 2-token policy, y = [0]: gradient row is (+1/2, -1/2)."""
        params = uniform_params(2, 1)
        grad = log_prob_grad(params, (0,), (0,))
        np.testing.assert_allclose(grad, [[0.5, -0.5]], atol=1e-12)

    def test_unused_rows_are_zero(self, rng):
        params = random_params(rng, 4, 8)
        x, y = (1,), (2,)
        grad = log_prob_grad(params, x, y)
        used = {bucket(x, 0, 8)}
        for b in range(8):
            if b not in used:
                assert np.all(grad[b] == 0.0)

    def test_finite_difference_agreement(self):
        """Central differences with step 1e-5 over 100 random draws."""
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(100):
            vocab = int(rng.integers(2, 6))
            context = int(rng.integers(2, 5))
            params = random_params(rng, vocab, context)
            x = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(0, 3))))
            y = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, 4))))
            analytic = log_prob_grad(params, x, y)
            numeric = np.zeros_like(params.logits)
            for i in range(context):
                for j in range(vocab):
                    orig = params.logits[i, j]
                    params.logits[i, j] = orig + step
                    up = log_prob(params, x, y)
                    params.logits[i, j] = orig - step
                    down = log_prob(params, x, y)
                    params.logits[i, j] = orig
                    numeric[i, j] = (up - down) / (2 * step)
            scale = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / scale < 1e-4


class TestSnapshot:
    def test_copy_semantics(self, rng):
        params = random_params(rng, 4, 3)
        frozen = snapshot_reference(params)
        before = frozen.logits.copy()
        params.logits += 1.0
        np.testing.assert_array_equal(frozen.logits, before)

    def test_one_step_divergence(self, rng):
        """After one gradient step the live policy departs from the snapshot."""
        params = random_params(rng, 4, 3)
        frozen = snapshot_reference(params)
        x, y = (0,), (1, 2)
        params.logits += 0.1 * log_prob_grad(params, x, y)
        assert log_prob(params, x, y) != log_prob(frozen, x, y)


class TestSampling:
    def test_deterministic_given_seed(self, rng):
        params = random_params(rng, 5, 3)
        a = sample_completion(params, (1,), 4, np.random.default_rng(42))
        b = sample_completion(params, (1,), 4, np.random.default_rng(42))
        assert a == b

    def test_respects_near_deterministic_rows(self):
        params = uniform_params(3, 2)
        params.logits[:, 1] = 40.0
        y = sample_completion(params, (0,), 5, np.random.default_rng(0))
        assert y == (1, 1, 1, 1, 1)


class TestValidation:
    def test_shape_checks(self):
        with pytest.raises(InputError):
            PolicyParams(1, 2, np.zeros((2, 1)))
        with pytest.raises(InputError):
            PolicyParams(3, 2, np.zeros((3, 2)))
        with pytest.raises(InputError):
            PolicyParams(3, 2, np.full((2, 3), np.nan))

    def test_sample_is_frozen(self):
        s = Sample(user_id="u", x=(0,), y=(1,), split="train")
        with pytest.raises(AttributeError):
            s.user_id = "v"


ENCODED_FIELDS = ("rows", "tokens", "cells", "seq", "starts", "lengths")


def _random_pairs(rng, vocab, count, context):
    """Random (x, y) pairs: empty prompts, long completions that revisit
    buckets, and a small vocabulary so tokens repeat."""
    pairs = []
    for _ in range(count):
        x = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(0, 3))))
        y = tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, 2 * context + 3))))
        pairs.append((x, y))
    return pairs


class TestKernels:
    """The table kernels against the per-sample reference implementations."""

    def test_gathered_log_probs_are_bit_identical(self, rng):
        for _ in range(40):
            vocab = int(rng.integers(2, 9))
            context = int(rng.integers(1, 5))
            params = random_params(rng, vocab, context)
            pairs = _random_pairs(rng, vocab, 10, context)
            codes = encode(pairs, context, vocab)
            log_table, _ = softmax_tables(params.logits)
            got = sequence_log_probs(log_table, codes)
            want = np.array([log_prob(params, x, y) for x, y in pairs])
            np.testing.assert_array_equal(got, want)

    def test_rows_match_bucket(self, rng):
        pairs = _random_pairs(rng, 6, 20, 3) + [((), (1, 2, 3))]
        codes = encode(pairs, 3, 6)
        for i, (x, y) in enumerate(pairs):
            span = slice(codes.starts[i], codes.starts[i] + codes.lengths[i])
            assert codes.rows[span].tolist() == [bucket(x, t, 3) for t in range(len(y))]
            assert codes.tokens[span].tolist() == list(y)
            assert set(codes.seq[span].tolist()) == {i}

    def test_scatter_grad_matches_weighted_log_prob_grads(self, rng):
        for _ in range(40):
            vocab = int(rng.integers(2, 9))
            context = int(rng.integers(1, 5))
            params = random_params(rng, vocab, context)
            pairs = _random_pairs(rng, vocab, 8, context)
            weights = rng.normal(0.0, 1.0, len(pairs))
            _, probs = softmax_tables(params.logits)
            got = scatter_grad(probs, encode(pairs, context, vocab), weights)
            want = np.zeros_like(params.logits)
            for w, (x, y) in zip(weights, pairs):
                want += w * log_prob_grad(params, x, y)
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )

    def test_cells_index_the_flat_table(self, rng):
        pairs = _random_pairs(rng, 5, 12, 3)
        codes = encode(pairs, 3, 5)
        np.testing.assert_array_equal(codes.cells, codes.rows * 5 + codes.tokens)

    def test_split_equals_encoding_each_run(self, rng):
        pairs = _random_pairs(rng, 5, 12, 3)
        codes = encode(pairs, 3, 5)
        sizes = [3, 1, 0, 8]
        pieces = codes.split(sizes)
        lo = 0
        for size, piece in zip(sizes, pieces):
            if size:
                direct = encode(pairs[lo : lo + size], 3, 5)
                for field in ENCODED_FIELDS:
                    np.testing.assert_array_equal(getattr(piece, field), getattr(direct, field))
            assert piece.n == size
            lo += size

    def test_scatter_grad_bit_identical_to_add_at(self, rng):
        """The bincount scatter equals the np.add.at form it replaced, bit for
        bit, with many tokens landing in the same (row, token) cell."""
        repeated = 0
        for _ in range(200):
            vocab = int(rng.integers(2, 5))
            context = int(rng.integers(1, 3))
            params = random_params(rng, vocab, context)
            pairs = _random_pairs(rng, vocab, int(rng.integers(1, 12)), context)
            weights = rng.normal(0.0, 1.0, len(pairs))
            codes = encode(pairs, context, vocab)
            repeated += len(np.unique(codes.cells)) < len(codes.cells)
            _, probs = softmax_tables(params.logits)
            token_weights = weights[codes.seq]
            row_weights = np.bincount(codes.rows, token_weights, minlength=context)
            want = -row_weights[:, None] * probs
            own = np.zeros_like(want)
            np.add.at(own, (codes.rows, codes.tokens), token_weights)
            rows, tokens = codes.rows, codes.tokens
            row = row_weights[rows]
            want[rows, tokens] = (own[rows, tokens] - row) + row * (1.0 - probs[rows, tokens])
            np.testing.assert_array_equal(scatter_grad(probs, codes, weights), want)
        assert repeated > 150

    def test_scatter_grad_repeated_cells_match_log_prob_grad(self, rng):
        params = random_params(rng, 3, 1)
        pairs = [((0,), (2, 2, 2, 1)), ((1,), (2,)), ((), (2, 0))]
        weights = np.array([0.7, -1.3, 0.4])
        _, probs = softmax_tables(params.logits)
        got = scatter_grad(probs, encode(pairs, 1, 3), weights)
        want = sum(w * log_prob_grad(params, x, y) for w, (x, y) in zip(weights, pairs))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "pair",
        [((0,), ()), ((-1,), (0,)), ((3,), (0,)), ((0,), (-1,)), ((0,), (1, 3))],
        ids=["empty_completion", "negative_prompt", "prompt_past_vocab",
             "negative_completion", "completion_past_vocab"],
    )
    def test_encode_rejects(self, pair):
        with pytest.raises(InputError):
            encode([((1,), (2,)), pair], 2, 3)
