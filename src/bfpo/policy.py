"""Tabular autoregressive policy with exact log-probabilities and closed-form gradients.

A completion ``y`` is scored as a product of per-position categorical
distributions.  Position ``t`` of a prompt ``x`` selects one row of a logits
table through a deterministic "context bucket", which keeps the model small
enough that every gradient used by the training objectives can be written down
by hand and verified against finite differences.

Training, evaluation and the losses run on table-level kernels over the whole
C x V table:

* :func:`encode` turns (prompt, completion) pairs into int arrays (bucket row,
  token id, flat cell ``row * V + token``, sequence index) and is the one place
  token ranges and empty completions are checked;
* :func:`softmax_tables` normalizes every row at once;
* :func:`sequence_log_probs` gathers per-token log-probabilities from the
  flattened table by cell and sums them per sequence with ``np.bincount``;
* :func:`scatter_grad` turns per-sequence weights ``w`` into the gradient of
  ``sum_i w_i log p(y_i | x_i)`` with two ``np.bincount`` passes, one over rows
  and one over cells.

The kernels never look past a row, so R tables of C rows stacked into one
(R*C, V) table serve R runs at once: :func:`stack_codes` offsets run r's
encoded rows by r*C, and :func:`ordered_sums` adds each run's values left to
right, as :func:`ordered_sum` adds one run's.

:func:`log_prob`, :func:`step_log_probs`, :func:`log_prob_grad` and
:func:`sample_completion` work one sample, row by row.  No training path calls
them: they are the references the kernels and the trainer's one-table DPO
sampling are tested against.  The gathered log-probabilities equal
:func:`log_prob` bit for bit: both normalize each row with the same operations
and sum a sequence's tokens left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "Encoded",
    "PolicyParams",
    "Sample",
    "bucket",
    "encode",
    "log_prob",
    "log_prob_grad",
    "ordered_sum",
    "ordered_sums",
    "sample_completion",
    "scatter_grad",
    "sequence_log_probs",
    "snapshot_reference",
    "softmax_tables",
    "stack_codes",
    "step_log_probs",
    "uniform_params",
]

# Multiplicative mixing keeps the (prompt, position) -> row mapping deterministic
# across processes and platforms; Python's built-in hash of ints would work today
# but would tie reproducibility to interpreter internals.
_MIX_A = 2654435761
_MIX_B = 40503


@dataclass(frozen=True)
class Sample:
    """One (prompt, completion) interaction, tagged with its owner and split."""

    user_id: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    split: str = "train"


@dataclass(eq=False)
class PolicyParams:
    """Unnormalized per-position token scores, shape (context_size, vocab_size)."""

    vocab_size: int
    context_size: int
    logits: np.ndarray

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise InputError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.context_size < 1:
            raise InputError(f"context_size must be >= 1, got {self.context_size}")
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.shape != (self.context_size, self.vocab_size):
            raise InputError(
                f"logits shape {self.logits.shape} does not match "
                f"(context_size, vocab_size)=({self.context_size}, {self.vocab_size})"
            )
        if not np.all(np.isfinite(self.logits)):
            raise InputError("logits must be finite")


def uniform_params(vocab_size: int, context_size: int) -> PolicyParams:
    """All-zero logits: the uniform policy."""
    return PolicyParams(vocab_size, context_size, np.zeros((context_size, vocab_size)))


def bucket(x: Sequence[int], t: int, context_size: int) -> int:
    """Deterministic, stateless context bucket for position ``t`` of prompt ``x``."""
    first = int(x[0]) if len(x) else 0
    return ((first + 1) * _MIX_A + t * _MIX_B) % context_size


def _check_range(tokens: Sequence[int], vocab_size: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(tokens, dtype=np.int64)
    except OverflowError as exc:
        raise InputError(f"{name} token out of range [0, {vocab_size})") from exc
    bad = (arr < 0) | (arr >= vocab_size)
    if bad.any():
        raise InputError(
            f"{name} token {int(arr[bad][0])} out of range [0, {vocab_size})"
        )
    return arr


@dataclass(eq=False)
class Encoded:
    """Sequences as flat int arrays, one entry per completion token.

    Token ``k`` sits in bucket row ``rows[k]``, has id ``tokens[k]``, is entry
    ``cells[k] = rows[k] * V + tokens[k]`` of the flattened C x V table and
    belongs to sequence ``seq[k]``.  A sequence's tokens are contiguous and in
    position order, from ``starts[i]`` for ``lengths[i]`` entries.  Nothing
    writes to an encoding once made (the class is not frozen only because the
    trainer makes one per step, and a frozen dataclass is five times slower
    to construct).
    """

    rows: np.ndarray
    tokens: np.ndarray
    cells: np.ndarray
    seq: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lengths)

    def take(self, index: Sequence[int] | np.ndarray) -> "Encoded":
        """The sequences at ``index``, in that order, renumbered from 0."""
        index = np.asarray(index, dtype=np.int64)
        lengths = self.lengths[index]
        starts = np.cumsum(lengths) - lengths
        seq = np.repeat(np.arange(len(index)), lengths)
        pos = np.arange(len(seq)) + (self.starts[index] - starts)[seq]
        return Encoded(self.rows[pos], self.tokens[pos], self.cells[pos], seq, starts, lengths)

    def split(self, sizes: Sequence[int]) -> list["Encoded"]:
        """Consecutive runs of ``sizes`` sequences, each renumbered from 0; the
        token arrays are slices of this encoding's, not copies."""
        sizes = np.asarray(sizes, dtype=np.int64)
        seq_ends = np.cumsum(sizes)
        seq_firsts = seq_ends - sizes
        tok_bounds = np.concatenate([[0], np.cumsum(self.lengths)])
        tok_firsts, tok_ends = tok_bounds[seq_firsts], tok_bounds[seq_ends]
        # Every part's first sequence and token, repeated over its tokens and
        # its sequences, renumber all parts at once.
        seq = self.seq - np.repeat(seq_firsts, tok_ends - tok_firsts)
        starts = self.starts - np.repeat(tok_firsts, sizes)
        return [
            Encoded(self.rows[lo:hi], self.tokens[lo:hi], self.cells[lo:hi],
                    seq[lo:hi], starts[a:b], self.lengths[a:b])
            for a, b, lo, hi in zip(seq_firsts.tolist(), seq_ends.tolist(),
                                    tok_firsts.tolist(), tok_ends.tolist())
        ]


def encode(
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
    context_size: int,
    vocab_size: int,
) -> Encoded:
    """Index-encode (prompt, completion) pairs for the table kernels.

    Raises :class:`InputError` for an empty completion or a prompt or
    completion token outside ``[0, vocab_size)``.
    """
    firsts: list[int] = []
    lengths: list[int] = []
    prompt_tokens: list[int] = []
    completion_tokens: list[int] = []
    for x, y in pairs:
        if len(y) == 0:
            raise InputError("empty completion: |y| = 0 is rejected at ingestion")
        firsts.append(x[0] if len(x) else 0)
        lengths.append(len(y))
        prompt_tokens.extend(x)
        completion_tokens.extend(y)
    _check_range(prompt_tokens, vocab_size, "prompt")
    tokens = _check_range(completion_tokens, vocab_size, "completion")
    length_arr = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(length_arr) - length_arr
    seq = np.repeat(np.arange(len(length_arr)), length_arr)
    position = np.arange(len(seq)) - starts[seq]
    first = np.asarray(firsts, dtype=np.int64)[seq]
    # bucket(), vectorized: every operand is a small non-negative int64.
    rows = ((first + 1) * _MIX_A + position * _MIX_B) % context_size
    return Encoded(rows, tokens, rows * vocab_size + tokens, seq, starts, length_arr)


def stack_codes(parts: Sequence[Encoded], context_size: int, vocab_size: int) -> Encoded:
    """The encodings of R runs as one, in run order, for their stacked (R*C, V)
    table: run r's rows are offset by r*C and its cells by r*C*V."""
    lengths = np.concatenate([p.lengths for p in parts])
    starts = np.cumsum(lengths) - lengths
    offsets = np.repeat(np.arange(len(parts)) * context_size, [len(p.rows) for p in parts])
    rows = np.concatenate([p.rows for p in parts]) + offsets
    tokens = np.concatenate([p.tokens for p in parts])
    seq = np.repeat(np.arange(len(lengths)), lengths)
    return Encoded(rows, tokens, rows * vocab_size + tokens, seq, starts, lengths)


def softmax_tables(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log-softmax, softmax) of a logits table.

    Each row goes through the same operations as :func:`_log_softmax`, so
    ``log_table[b]`` equals ``_log_softmax(logits[b])`` bit for bit.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return shifted - np.log(total), exp / total


def sequence_log_probs(log_table: np.ndarray, codes: Encoded) -> np.ndarray:
    """log p(y_i | x_i) for every encoded sequence.

    ``np.bincount`` adds each sequence's tokens left to right from 0.0, the same
    order as :func:`log_prob`.
    """
    return np.bincount(codes.seq, weights=log_table.ravel()[codes.cells], minlength=codes.n)


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0: the order of the per-sample loops, so batch
    totals repeat bit for bit (``np.sum`` adds pairwise, and from Python 3.12
    the builtin ``sum`` of floats is compensated)."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def ordered_sums(values: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """:func:`ordered_sum` of each group's values: entry g adds, left to right
    from 0.0, the values whose ``groups`` entry is g (``np.bincount`` keeps
    each bin's additions in input order)."""
    return np.bincount(groups, weights=values, minlength=count)


def scatter_grad(probs: np.ndarray, codes: Encoded, weights: np.ndarray) -> np.ndarray:
    """d/d logits of sum_i weights[i] * log p(y_i | x_i).

    Every token adds ``w * (onehot(y_t) - softmax(row))`` to its row: the
    softmax part is one row-weighted copy of the table, the one-hot part one
    ``np.bincount`` over the cells, which adds each cell's weights in token
    order from 0.0 as ``np.add.at`` would.  A used cell is then written as
    (own - row) + row * (1 - p) rather than own - row * p, which would cancel w
    against w * p as p -> 1.
    """
    token_weights = np.asarray(weights, dtype=np.float64)[codes.seq]
    row_weights = np.bincount(codes.rows, weights=token_weights, minlength=len(probs))
    grad = (-row_weights[:, None] * probs).ravel()
    cells = codes.cells
    own = np.bincount(cells, weights=token_weights, minlength=probs.size)[cells]
    row = row_weights[codes.rows]
    grad[cells] = (own - row) + row * (1.0 - probs.ravel()[cells])
    return grad.reshape(probs.shape)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    # Max-subtraction is mandatory for stability.
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def _softmax(row: np.ndarray) -> np.ndarray:
    shifted = np.exp(row - row.max())
    return shifted / shifted.sum()


def step_log_probs(
    params: PolicyParams, x: Sequence[int], y: Sequence[int]
) -> list[float]:
    """Per-position conditional log-probabilities log p(y_t | bucket(x, t))."""
    encode([(x, y)], params.context_size, params.vocab_size)
    out: list[float] = []
    for t, tok in enumerate(y):
        row = params.logits[bucket(x, t, params.context_size)]
        out.append(float(_log_softmax(row)[int(tok)]))
    return out


def log_prob(params: PolicyParams, x: Sequence[int], y: Sequence[int]) -> float:
    """log p(y | x) = sum_t log p(y_t | bucket(x, t)).

    The sum runs left-to-right so that repeated evaluations are bit-identical.
    """
    total = 0.0
    for step in step_log_probs(params, x, y):
        total += step
    return total


def log_prob_grad(
    params: PolicyParams, x: Sequence[int], y: Sequence[int]
) -> np.ndarray:
    """d log p(y|x) / d logits: per used row, onehot(y_t) - softmax(row).

    Rows of buckets never visited by (x, y) are exactly zero.
    """
    encode([(x, y)], params.context_size, params.vocab_size)
    grad = np.zeros_like(params.logits)
    for t, tok in enumerate(y):
        b = bucket(x, t, params.context_size)
        grad[b] -= _softmax(params.logits[b])
        grad[b, int(tok)] += 1.0
    return grad


def snapshot_reference(params: PolicyParams) -> PolicyParams:
    """Deep copy; later updates to the live policy never touch the snapshot."""
    return PolicyParams(params.vocab_size, params.context_size, params.logits.copy())


def sample_completion(
    params: PolicyParams,
    x: Sequence[int],
    length: int,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Draw a completion of the given length from the policy's conditionals."""
    if length < 1:
        raise InputError(f"completion length must be >= 1, got {length}")
    _check_range(x, params.vocab_size, "prompt")
    tokens: list[int] = []
    for t in range(length):
        probs = _softmax(params.logits[bucket(x, t, params.context_size)])
        tokens.append(int(rng.choice(params.vocab_size, p=probs)))
    return tuple(tokens)
