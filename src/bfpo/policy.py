"""Tabular autoregressive policy with exact log-probabilities and closed-form gradients.

A completion ``y`` is scored as a product of per-position categorical
distributions.  Position ``t`` of a prompt ``x`` selects one row of a logits
table through a deterministic "context bucket", which keeps the model small
enough that every gradient used by the training objectives can be written down
by hand and verified against finite differences.

Training, evaluation and the losses run on table-level kernels over the whole
C x V table:

* :func:`encode` turns (prompt, completion) pairs, and :func:`encode_table` the
  rows of a :class:`SampleTable`, into an :class:`Encoded`: int arrays (bucket
  row, flat cell ``row * V + token``, sequence index, and each sequence's
  length); both end in one array core, the one place token ranges and empty
  completions are checked;
* :func:`softmax_tables` normalizes every row at once;
* :func:`sequence_log_probs` gathers per-token log-probabilities from the
  flattened table by cell and sums them per sequence with ``np.bincount``;
* :func:`scatter_grad` turns per-sequence weights ``w`` into the gradient of
  ``sum_i w_i log p(y_i | x_i)`` with two ``np.bincount`` passes, one over rows
  and one over cells.

The kernels never look past a row, so R tables of C rows stacked into one
(R*C, V) table serve R runs at once: :func:`stack_codes` offsets run r's
encoded rows by r*C (or by the rows of the runs before it, when the runs'
tables differ in size; runs that share a batch take copies of one encoding),
and :func:`ordered_sums` adds each run's values left to
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
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .schema import Interval, check, declared

__all__ = [
    "Encoded",
    "PolicyParams",
    "Sample",
    "SampleTable",
    "bucket",
    "encode",
    "encode_table",
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
    "tile_parts",
    "uniform_params",
]

# Multiplicative mixing keeps the (prompt, position) -> row mapping deterministic
# across processes and platforms; Python's built-in hash of ints would work today
# but would tie reproducibility to interpreter internals.
_MIX_A = 2654435761
_MIX_B = 40503

_EMPTY_COMPLETION = "empty completion: |y| = 0 is rejected at ingestion"

# The table shape's ranges, which the population spec and train config share.
VOCAB_SIZE = Interval(2)
CONTEXT_SIZE = Interval(1)


@dataclass(frozen=True)
class Sample:
    """One (prompt, completion) interaction, tagged with its owner and split."""

    user_id: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    split: str = "train"


def _take_ragged(
    tokens: np.ndarray, offsets: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``index`` of ragged rows stored as flat ``tokens`` and ``offsets``."""
    starts = offsets[:-1][index]
    lengths = offsets[1:][index] - starts
    new_offsets = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_offsets[1:])
    pos = np.arange(new_offsets[-1]) + np.repeat(starts - new_offsets[:-1], lengths)
    return tokens[pos], new_offsets


def _offsets(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _token_array(tokens: Iterable[int]) -> np.ndarray:
    try:
        return np.array(list(tokens), dtype=np.int64)
    except OverflowError as exc:
        raise InputError(f"token out of range ({exc})") from exc


@dataclass(eq=False)
class SampleTable(Sequence[Sample]):
    """Samples as columns: the data path's one sample format, from a
    population to a dataset's sides and a batch's pools.

    Row i's prompt is ``x_tokens[x_offsets[i]:x_offsets[i + 1]]`` and its
    completion ``y_tokens[y_offsets[i]:y_offsets[i + 1]]`` (int64; a loaded
    corpus can be ragged), its user ``user_ids[user[i]]`` and its split
    ``heldout`` if ``heldout[i]``, else ``train``.  As a sequence, ``[i]`` and
    iteration build each :class:`Sample` only when asked, with tuples of
    Python ints; a slice, :meth:`take` and ``+`` give tables.  Nothing writes to
    a table once made, so tables share their arrays.
    """

    x_tokens: np.ndarray
    x_offsets: np.ndarray
    y_tokens: np.ndarray
    y_offsets: np.ndarray
    user: np.ndarray
    user_ids: tuple[str, ...]
    heldout: np.ndarray

    @classmethod
    def of(cls, samples: Sequence[Sample]) -> "SampleTable":
        """The table of ``samples``, in order: the adapter for callers that
        hold :class:`Sample` objects."""
        samples = list(samples)
        splits = {s.split for s in samples}
        if not splits <= {"train", "heldout"}:
            raise InputError(f"unknown split in {sorted(splits)}")
        return cls.from_rows(
            [s.user_id for s in samples], [s.x for s in samples], [s.y for s in samples],
            [s.split == "heldout" for s in samples],
        )

    @classmethod
    def from_rows(
        cls,
        users: Sequence[str],
        xs: Sequence[Sequence[int]],
        ys: Sequence[Sequence[int]],
        heldout: Sequence[bool],
    ) -> "SampleTable":
        """A table of rows given field by field: row i is ``(users[i], xs[i],
        ys[i])``, held out where ``heldout[i]``; ``user_ids`` lists the users
        in order of first appearance."""
        ids: dict[str, int] = {}
        user = [ids.setdefault(uid, len(ids)) for uid in users]
        return cls(
            _token_array(chain.from_iterable(xs)),
            _offsets(np.fromiter(map(len, xs), np.int64, len(xs))),
            _token_array(chain.from_iterable(ys)),
            _offsets(np.fromiter(map(len, ys), np.int64, len(ys))),
            np.array(user, dtype=np.int64),
            tuple(ids),
            np.array(heldout, dtype=bool),
        )

    @classmethod
    def concat(cls, tables: Sequence["SampleTable"]) -> "SampleTable":
        """The rows of ``tables``, one table after another."""
        user_ids = tuple(dict.fromkeys(chain.from_iterable(t.user_ids for t in tables)))
        ids = {uid: i for i, uid in enumerate(user_ids)}
        user = [
            t.user if t.user_ids == user_ids
            else np.array([ids[u] for u in t.user_ids], dtype=np.int64)[t.user]
            for t in tables
        ]

        def joined(parts: list[np.ndarray], dtype: type = np.int64) -> np.ndarray:
            return np.concatenate(parts + [np.zeros(0, dtype)])  # no tables: no rows

        def joined_offsets(offsets: list[np.ndarray]) -> np.ndarray:
            # Each table's offsets, moved past the tokens of the tables before it.
            bases = np.cumsum([0] + [int(o[-1]) for o in offsets])
            moved = [o[:-1] + base for o, base in zip(offsets, bases.tolist())]
            return joined(moved + [bases[-1:]])

        return cls(
            joined([t.x_tokens for t in tables]),
            joined_offsets([t.x_offsets for t in tables]),
            joined([t.y_tokens for t in tables]),
            joined_offsets([t.y_offsets for t in tables]),
            joined(user),
            user_ids,
            joined([t.heldout for t in tables], bool),
        )

    def take(self, index: Sequence[int] | np.ndarray) -> "SampleTable":
        """The rows at ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        x_tokens, x_offsets = _take_ragged(self.x_tokens, self.x_offsets, index)
        y_tokens, y_offsets = _take_ragged(self.y_tokens, self.y_offsets, index)
        return SampleTable(x_tokens, x_offsets, y_tokens, y_offsets, self.user[index],
                           self.user_ids, self.heldout[index])

    def split_rows(self, split: str) -> "SampleTable":
        """The rows of ``split``, train or heldout, in order."""
        return self.take(np.flatnonzero({"train": ~self.heldout, "heldout": self.heldout}[split]))

    @property
    def y_lengths(self) -> np.ndarray:
        return self.y_offsets[1:] - self.y_offsets[:-1]

    def __len__(self) -> int:
        return len(self.user)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        # range() counts a negative index from the end and raises IndexError past it.
        return next(iter(self.take([range(len(self))[i]])))

    def rows(self) -> Iterator[tuple[str, list[int], list[int], str]]:
        """Each row as (user id, prompt, completion, split), the tokens as
        lists of Python ints."""
        xs, xo = self.x_tokens.tolist(), self.x_offsets.tolist()
        ys, yo = self.y_tokens.tolist(), self.y_offsets.tolist()
        for i, (u, held) in enumerate(zip(self.user.tolist(), self.heldout.tolist())):
            yield (self.user_ids[u], xs[xo[i]:xo[i + 1]], ys[yo[i]:yo[i + 1]],
                   "heldout" if held else "train")

    def __iter__(self) -> Iterator[Sample]:
        prompts: dict[tuple[int, ...], tuple[int, ...]] = {}  # rows share equal prompts
        for user_id, x, y, split in self.rows():
            x = tuple(x)
            yield Sample(user_id, prompts.setdefault(x, x), tuple(y), split)

    def __add__(self, other: "SampleTable") -> "SampleTable":
        return SampleTable.concat([self, other])

    def __eq__(self, other: object) -> bool:
        """Equal rows: the same tokens, users and splits in the same order."""
        if not isinstance(other, SampleTable):
            return NotImplemented
        return (
            all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("x_offsets", "x_tokens", "y_offsets", "y_tokens", "heldout")
            )
            # Tables may number the same users differently: compare the ids.
            and [self.user_ids[u] for u in self.user.tolist()]
            == [other.user_ids[u] for u in other.user.tolist()]
        )

    __hash__ = None


@dataclass(eq=False)
class PolicyParams:
    """Unnormalized per-position token scores, shape (context_size, vocab_size)."""

    vocab_size: int = declared(VOCAB_SIZE)
    context_size: int = declared(CONTEXT_SIZE)
    logits: np.ndarray

    def __post_init__(self) -> None:
        check(self, InputError)
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

    Token ``k`` sits in bucket row ``rows[k]``, is entry ``cells[k] = rows[k]
    * V + token`` of the flattened C x V table and belongs to sequence
    ``seq[k]``.  A sequence's tokens are contiguous and in position order,
    ``lengths[i]`` entries after those of the sequences before it.  These are
    the arrays the kernels read: a trainer step's encoding is a slice of its
    phase plan's.  Nothing writes to an encoding once made (the class is not
    frozen only because the plan makes one per step, and a frozen dataclass
    is five times slower to construct).
    """

    rows: np.ndarray
    cells: np.ndarray
    seq: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lengths)

    def split(self, sizes: Sequence[int]) -> list["Encoded"]:
        """Consecutive runs of ``sizes`` sequences, each renumbered from 0; the
        token arrays are slices of this encoding's, not copies."""
        sizes = np.asarray(sizes, dtype=np.int64)
        seq_ends = np.cumsum(sizes)
        seq_firsts = seq_ends - sizes
        tok_bounds = np.concatenate([[0], np.cumsum(self.lengths)])
        tok_firsts, tok_ends = tok_bounds[seq_firsts], tok_bounds[seq_ends]
        # Every part's first sequence, repeated over its tokens, renumbers all
        # parts at once.
        seq = self.seq - np.repeat(seq_firsts, tok_ends - tok_firsts)
        return [
            Encoded(self.rows[lo:hi], self.cells[lo:hi], seq[lo:hi], self.lengths[a:b])
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
            raise InputError(_EMPTY_COMPLETION)
        firsts.append(x[0] if len(x) else 0)
        lengths.append(len(y))
        prompt_tokens.extend(x)
        completion_tokens.extend(y)
    return _encode(firsts, lengths, prompt_tokens, completion_tokens, context_size, vocab_size)


def encode_table(table: SampleTable, context_size: int, vocab_size: int) -> Encoded:
    """:func:`encode` of the table's (prompt, completion) rows, read from its
    columns."""
    lengths = table.y_lengths
    if (lengths == 0).any():
        raise InputError(_EMPTY_COMPLETION)
    starts = table.x_offsets[:-1]
    has_prompt = table.x_offsets[1:] > starts
    firsts = np.zeros(len(table), dtype=np.int64)
    firsts[has_prompt] = table.x_tokens[starts[has_prompt]]
    return _encode(firsts, lengths, table.x_tokens, table.y_tokens, context_size, vocab_size)


def _encode(
    firsts: Sequence[int] | np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    prompt_tokens: Sequence[int] | np.ndarray,
    completion_tokens: Sequence[int] | np.ndarray,
    context_size: int,
    vocab_size: int,
) -> Encoded:
    """The array core of :func:`encode` and :func:`encode_table`: each
    sequence's first prompt token (0 for an empty prompt) and completion
    length, every prompt token, and the completion tokens in sequence order."""
    _check_range(prompt_tokens, vocab_size, "prompt")
    tokens = _check_range(completion_tokens, vocab_size, "completion")
    length_arr = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(length_arr) - length_arr
    seq = np.repeat(np.arange(len(length_arr)), length_arr)
    position = np.arange(len(seq)) - starts[seq]
    first = np.asarray(firsts, dtype=np.int64)[seq]
    # bucket(), vectorized: every operand is a small non-negative int64.
    rows = ((first + 1) * _MIX_A + position * _MIX_B) % context_size
    return Encoded(rows, rows * vocab_size + tokens, seq, length_arr)


def tile_parts(arrays: Sequence[np.ndarray], copies: Sequence[int]) -> np.ndarray:
    """``copies[i]`` copies of ``arrays[i]`` in a row, after those of the
    arrays before it, as one new 1-d array."""
    return np.concatenate(
        [a if k == 1 else a[None].repeat(k, 0).ravel() for a, k in zip(arrays, copies)])


def stack_codes(
    parts: Sequence[Encoded],
    context_sizes: int | Sequence[int],
    vocab_size: int,
    copies: int | Sequence[int] = 1,
) -> Encoded:
    """The encodings of R runs as one, in run order, for their tables stacked
    into one of V columns: part i serves ``copies`` runs in a row (one each
    by default, else one count per part), and run r's rows are offset by the
    rows of the runs before it (r*C when ``context_sizes`` is one C for every
    part, else one context size per part) and its cells by V times that."""
    if isinstance(copies, int):
        copies = [copies] * len(parts)
    if isinstance(context_sizes, int):
        context_sizes = [context_sizes] * len(parts)
    rows = tile_parts([p.rows for p in parts], copies)
    cells = tile_parts([p.cells for p in parts], copies)
    lengths = tile_parts([p.lengths for p in parts], copies)
    contexts = np.repeat(context_sizes, copies)
    run_tokens = np.repeat([len(p.rows) for p in parts], copies)
    offsets = np.repeat(contexts.cumsum() - contexts, run_tokens)
    rows += offsets
    cells += offsets * vocab_size
    seq = np.arange(len(lengths)).repeat(lengths)
    return Encoded(rows, cells, seq, lengths)


def softmax_tables(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log-softmax, softmax) of a logits table.

    Each row goes through the same operations as :func:`_log_softmax`, so
    ``log_table[b]`` equals ``_log_softmax(logits[b])`` bit for bit.
    """
    # The ufunc reductions themselves: ``ndarray.max`` and ``sum`` reach them
    # through Python wrappers that cost more than the table's arithmetic.
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
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
