"""Synthetic multi-user preference corpus with a controllable overlap knob.

Every user's completions mix one shared token distribution with a user-specific
distribution supported on tokens no other user emits.  The mixing weight is the
single ground-truth overlap parameter: at 1.0 all users are indistinguishable,
at 0.0 their supports are disjoint.  Prompts come from a shared pool, so user
identity lives entirely in completion style.

Each user's draws come from that user's own PCG64 stream.  The reference
implementation is a per-token loop of scalar calls (:func:`_draws_loop`): per
sample one ``integers(0, prompt_pool_size)``, then per token one ``random()``
to pick the shared or the user's own block and one ``integers(0, block size)``.
The generator makes the same draws with array operations
(:func:`_draws_array`): it reads one block of raw 64-bit words and lays the
loop's call sequence onto it (:func:`_stream_layout`: the word of each
``random()`` and the half of each ``integers``, indexed into the words viewed
as uint32 pairs).  ``random() < overlap`` becomes an integer compare of the
word with ``unit_threshold(overlap)``, and ``integers(0, n)`` Lemire's product
of the half and n, so the population is equal to the loop's for every spec.
Where that layout does not hold (a bound of 1 that a draw uses, for which
``integers`` draws nothing, or a rejected Lemire draw), the user is drawn by
the loop instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _pcg64_words as pcg64_words
from .alpha import SEED, _bag_entries
from .errors import ConfigError, InputError
from .files import decode_json, write_atomic
from .policy import VOCAB_SIZE, SampleTable
from .schema import Interval, OneOf, check, check_args, declared, from_doc, require

__all__ = [
    "DatasetConfig",
    "PopulationSpec",
    "UserDataset",
    "build_user_dataset",
    "generate_population",
    "load_corpus",
    "load_population_spec",
    "save_corpus",
    "save_population_spec",
    "truncate_history",
    "user_mean_embedding",
]

PROMPT_LEN = 3
HELDOUT_FRACTION = 0.2
SHARED_FRACTION = 0.5
GROUPINGS = ("random", "unique", "non_unique")


@dataclass(frozen=True)
class DatasetConfig:
    """How one target user's dataset is cut from a population: the arguments of
    :func:`build_user_dataset` and :func:`truncate_history` besides the data."""

    target_user: str
    ratio_x: float = declared(Interval(0, ends="()"))
    grouping: str = declared(OneOf(GROUPINGS))
    history_fraction: float = declared(Interval(0, 1, "(]"), 1.0)

    def __post_init__(self) -> None:
        check(self, ConfigError)


@dataclass(frozen=True)
class PopulationSpec:
    """Knobs of the synthetic population; generation is a pure function of these."""

    n_users: int = declared(Interval(1))
    vocab_size: int = declared(VOCAB_SIZE)
    overlap_lambda: float = declared(Interval(0, 1))
    samples_per_user: int = declared(Interval(1))
    prompt_pool_size: int = declared(Interval(1))
    seq_len: int = declared(Interval(1))
    seed: int = declared(SEED)

    def __post_init__(self) -> None:
        check(self, InputError)


def _user_id(index: int, n_users: int) -> str:
    width = max(3, len(str(n_users - 1)))
    return f"u{index:0{width}d}"


def _token_partition(spec: PopulationSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seed-derived disjoint supports: one shared block, one block per user."""
    shared_size = max(1, int(spec.vocab_size * SHARED_FRACTION))
    block = (spec.vocab_size - shared_size) // spec.n_users
    if block < 1:
        raise InputError(
            f"vocab_size {spec.vocab_size} too small for {spec.n_users} users "
            f"with a shared block of {shared_size}"
        )
    # Fold the leftover tokens into the shared block so nothing is wasted.
    shared_size = spec.vocab_size - block * spec.n_users
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    perm = rng.permutation(spec.vocab_size)
    shared = np.sort(perm[:shared_size])
    users = [
        np.sort(perm[shared_size + u * block : shared_size + (u + 1) * block])
        for u in range(spec.n_users)
    ]
    return shared, users


@lru_cache(maxsize=1)
def _stream_layout(n_samples: int, seq_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each call of :func:`_draws_loop` reads the raw word stream.

    The loop's calls, in order, are per sample ``H (R H) * seq_len``, where R
    (``random()``) takes a whole new word and H (``integers``) takes a 32-bit
    half.  PCG64 serves halves low half first from a word it then keeps in a
    buffer, so every second H takes the high half of the word the H before it
    took, whatever Rs came in between.  Returns the word index of every R,
    shape (n_samples, seq_len); the half index of every H into the words
    viewed as native-order uint32 pairs (word ``i``'s low half is ``2 * i +
    LOW_HALF``), shape (n_samples, 1 + seq_len), prompt draw first; and the
    word count.  The last shape's layout is kept (a process generates
    populations of one shape), so its arrays are read-only.
    """
    step = 1 + 2 * seq_len
    is_half = np.ones(n_samples * step, dtype=bool)
    is_half[np.arange(n_samples)[:, None] * step + 1 + 2 * np.arange(seq_len)] = False
    high = (np.cumsum(is_half)[is_half] - 1) % 2 == 1
    new_word = ~is_half
    new_word[is_half] = ~high
    word = np.cumsum(new_word) - 1
    half = 2 * word[is_half] + pcg64_words.LOW_HALF
    half[high] = half[np.flatnonzero(high) - 1] + 1 - 2 * pcg64_words.LOW_HALF
    arrays = (word[~is_half].reshape(n_samples, seq_len), half.reshape(n_samples, 1 + seq_len))
    for array in arrays:
        array.flags.writeable = False
    return (*arrays, int(word[-1]) + 1)


def _draws_array(
    rng: np.random.Generator,
    layout: tuple[np.ndarray, np.ndarray, int],
    overlap: float,
    prompt_bound: int,
    shared_bound: int,
    own_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The draws of :func:`_draws_loop`, from one block of raw words read as
    ``layout`` (the :func:`_stream_layout` of the sample count and length).

    A token comes from the shared block where its R word is below
    ``unit_threshold(overlap)``: ``random() < overlap`` in integers.  Each
    ``integers(0, n)`` is Lemire's product of its half and n; the products'
    low halves are screened against the largest of the three bounds' limits
    ``2**32 % n``, and only on a hit is each draw checked against its own.
    Returns None, leaving the caller to run the loop on a fresh generator,
    when a draw uses a bound of 1 or is rejected.  Every value before the
    first such draw is computed exactly as the loop computes it, so the first
    one is always found.
    """
    word_of_r, half_of_h, n_words = layout
    raw = rng.bit_generator.random_raw(n_words)
    from_shared = raw[word_of_r] < pcg64_words.unit_threshold(overlap)

    def per_draw(of_prompt: int, of_own: int, of_shared: int, dtype: type) -> np.ndarray:
        """Each H's value of three: the prompt draw's, then each token's own or shared."""
        out = np.empty(half_of_h.shape, dtype=dtype)
        out[:, 0] = of_prompt
        out[:, 1:] = np.array([of_own, of_shared], dtype=dtype).take(from_shared.view(np.uint8))
        return out

    bounds = (prompt_bound, own_bound, shared_bound)
    product = per_draw(*bounds, np.uint64)
    if 1 in bounds and np.any(product == 1):
        return None  # integers(0, 1) draws nothing
    product *= raw.view(np.uint32)[half_of_h]
    limits = [(1 << pcg64_words.HALF_BITS) % n for n in bounds]
    low = product.view(np.uint32)[:, pcg64_words.LOW_HALF :: 2]
    if low.min() < max(limits) and np.any(low < per_draw(*limits, np.uint32)):
        return None
    product >>= pcg64_words.HALF_BITS
    values = product.view(np.int64)
    return values[:, 0], from_shared, values[:, 1:]


def _draws_loop(
    rng: np.random.Generator,
    n_samples: int,
    seq_len: int,
    overlap: float,
    prompt_bound: int,
    shared_bound: int,
    own_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference implementation: one scalar generator call per draw.

    Returns the prompt index per sample, and per token whether it comes from
    the shared block and its index in that block.
    """
    prompt = np.empty(n_samples, dtype=np.int64)
    from_shared = np.empty((n_samples, seq_len), dtype=bool)
    index = np.empty((n_samples, seq_len), dtype=np.int64)
    for i in range(n_samples):
        prompt[i] = rng.integers(0, prompt_bound)
        for t in range(seq_len):
            from_shared[i, t] = rng.random() < overlap
            bound = shared_bound if from_shared[i, t] else own_bound
            index[i, t] = rng.integers(0, bound)
    return prompt, from_shared, index


def generate_population(spec: PopulationSpec) -> dict[str, SampleTable]:
    """Per-user sample tables, canonical order (user id, then sample index)."""
    shared, user_blocks = _token_partition(spec)
    prompt_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    prompts = np.array([
        prompt_rng.integers(0, spec.vocab_size, PROMPT_LEN)
        for _ in range(spec.prompt_pool_size)
    ])
    n = spec.samples_per_user
    # Every user's table shares these, read-only.
    x_offsets = np.arange(n + 1) * PROMPT_LEN
    y_offsets = np.arange(n + 1) * spec.seq_len
    heldout = np.arange(n) >= math.ceil((1.0 - HELDOUT_FRACTION) * n)
    for shared_array in (x_offsets, y_offsets, heldout):
        shared_array.flags.writeable = False
    user_ids = tuple(_user_id(u, spec.n_users) for u in range(spec.n_users))
    layout = _stream_layout(n, spec.seq_len)
    population: dict[str, SampleTable] = {}
    for u, uid in enumerate(user_ids):
        own = user_blocks[u]
        seed = np.random.SeedSequence([spec.seed, 2, u])
        bounds = (spec.prompt_pool_size, len(shared), len(own))
        draws = _draws_array(
            np.random.default_rng(seed), layout, spec.overlap_lambda, *bounds
        )
        if draws is None:
            draws = _draws_loop(
                np.random.default_rng(seed),
                spec.samples_per_user, spec.seq_len, spec.overlap_lambda, *bounds,
            )
        prompt, from_shared, index = draws
        # The user's block, then the shared one: shared index i is entry len(own) + i.
        tokens = np.concatenate((own, shared)).take(index + from_shared * len(own))
        population[uid] = SampleTable(
            prompts.take(prompt, axis=0).ravel(), x_offsets, tokens.ravel(), y_offsets,
            np.full(n, u), user_ids, heldout,
        )
    return population


@dataclass
class UserDataset:
    """A target user's positive history plus the selected auxiliary pool.

    Both sides are tables; each side's training rows are cut on first use,
    then kept.  The held-out rows are read from the population by
    :func:`bfpo.evaluation.evaluate_policy`.
    """

    target_user: str
    h_tar: SampleTable
    h_aux: SampleTable
    ratio_x: float
    grouping: str = "random"

    @cached_property
    def tar_train(self) -> SampleTable:
        return self.h_tar.split_rows("train")

    @cached_property
    def aux_train(self) -> SampleTable:
        return self.h_aux.split_rows("train")

    @property
    def aux_user_ids(self) -> list[str]:
        return sorted(self.h_aux.user_ids[u] for u in set(self.h_aux.user.tolist()))


def user_mean_embedding(table: SampleTable, vocab_size: int) -> np.ndarray:
    """Mean bag-of-tokens embedding of a user's training history (all rows if
    none is in train).  ``np.bincount`` adds each :func:`~bfpo.alpha._bag_entries`
    value to its column in row order, as adding each sample's embedding would."""
    train = ~table.heldout | table.heldout.all()
    keep = np.repeat(train, table.y_lengths)
    _, tokens, values = _bag_entries(table.y_tokens[keep], table.y_lengths[train], vocab_size)
    return np.bincount(tokens, weights=values, minlength=vocab_size) / np.count_nonzero(train)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def build_user_dataset(
    population: dict[str, SampleTable],
    target_user: str,
    ratio_x: float,
    grouping: str,
    seed: int,
    vocab_size: int,
) -> UserDataset:
    """Select the auxiliary pool for one target user.

    ``random`` draws uniformly over all other users' samples; ``unique`` and
    ``non_unique`` rank whole users by the Euclidean distance between mean
    history embeddings (farthest / nearest first) and take the minimal number
    of users needed to reach the requested volume.
    """
    if target_user not in population:
        raise InputError(f"unknown target user {target_user!r}")
    check_args(DatasetConfig, InputError, grouping=grouping, ratio_x=ratio_x)
    require(SEED, "seed", seed, InputError)
    h_tar = population[target_user]
    n_aux = _round_half_up(ratio_x * len(h_tar))
    others = sorted(uid for uid in population if uid != target_user)
    available = sum(len(population[uid]) for uid in others)
    if n_aux > available:
        raise InputError(
            f"need {n_aux} auxiliary samples but only {available} available"
        )

    if grouping == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        idx = np.sort(rng.choice(available, size=n_aux, replace=False))
        h_aux = SampleTable.concat([population[uid] for uid in others]).take(idx)
    else:
        target_emb = user_mean_embedding(h_tar, vocab_size)
        distances = []
        for uid in others:
            emb = user_mean_embedding(population[uid], vocab_size)
            distances.append((float(np.linalg.norm(emb - target_emb)), uid))
        reverse = grouping == "unique"
        distances.sort(key=lambda pair: (-pair[0], pair[1]) if reverse else pair)
        parts, need = [], n_aux
        for _, uid in distances:
            if need <= 0:
                break
            parts.append(population[uid][:need])
            need -= len(parts[-1])
        h_aux = SampleTable.concat(parts)
    return UserDataset(
        target_user=target_user,
        h_tar=h_tar,
        h_aux=h_aux,
        ratio_x=ratio_x,
        grouping=grouping,
    )


def truncate_history(dataset: UserDataset, fraction: float) -> UserDataset:
    """Keep the first ceil(fraction * |H_tar|) target samples, rescale the pool."""
    check_args(DatasetConfig, InputError, history_fraction=fraction)
    n_keep = math.ceil(fraction * len(dataset.h_tar))
    if n_keep == 0:
        raise InputError("truncation would leave no target samples")
    h_tar = dataset.h_tar[:n_keep]
    n_aux = min(_round_half_up(dataset.ratio_x * n_keep), len(dataset.h_aux))
    return UserDataset(
        target_user=dataset.target_user,
        h_tar=h_tar,
        h_aux=dataset.h_aux[:n_aux],
        ratio_x=dataset.ratio_x,
        grouping=dataset.grouping,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_corpus(population: dict[str, SampleTable], path: str | Path) -> None:
    """One sample per line, canonical user order, byte-stable: each line is
    ``json.dumps`` of ``{"user_id", "x", "y", "split"}`` with separators
    ``(",", ":")``, written field by field (user ids quoted by ``json.dumps``)."""
    lines = []
    for uid in sorted(population):
        table = population[uid]
        quoted = [json.dumps(user_id) for user_id in table.user_ids]
        xs, xo = table.x_tokens.tolist(), table.x_offsets.tolist()
        ys, yo = table.y_tokens.tolist(), table.y_offsets.tolist()
        lines += [
            f'{{"user_id":{quoted[u]},"x":[{",".join(map(str, xs[xo[i]:xo[i + 1]]))}],'
            f'"y":[{",".join(map(str, ys[yo[i]:yo[i + 1]]))}],'
            f'"split":"{"heldout" if held else "train"}"}}'
            for i, (u, held) in enumerate(zip(table.user.tolist(), table.heldout.tolist()))
        ]
    write_atomic(path, "\n".join(lines) + "\n")


def load_corpus(path: str | Path, vocab_size: int) -> dict[str, SampleTable]:
    """Read a corpus written by :func:`save_corpus`.

    Each line holds a string ``user_id``, token lists ``x`` and ``y`` (``y``
    non-empty) and a ``split`` of train or heldout; a token is a JSON integer
    in [0, vocab_size).  A fault raises :class:`InputError` naming the first
    bad line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"corpus {path} is not UTF-8 text (line {line}: {exc.reason})") from exc
    users: list[str] = []
    xs: list[list] = []
    ys: list[list] = []
    heldout: list[bool] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = decode_json(line, InputError, f"corpus line {lineno}")
            user_id, x, y, split = row["user_id"], row["x"], row["y"], row["split"]
        except InputError:
            _check_tokens(xs, ys, linenos, vocab_size)  # an earlier line may be the first bad one
            raise
        except (KeyError, TypeError) as exc:
            fault = f"malformed sample ({exc})"
        else:
            if type(user_id) is not str:
                fault = f"malformed sample (user_id {user_id!r} is not a string)"
            elif type(x) is not list or type(y) is not list:
                fault = "malformed sample (x and y must be lists of token ids)"
            elif not y:
                fault = "empty completion"
            elif split not in ("train", "heldout"):
                fault = f"bad split {split!r}"
            else:
                users.append(user_id)
                xs.append(x)
                ys.append(y)
                heldout.append(split == "heldout")
                linenos.append(lineno)
                continue
        _check_tokens(xs, ys, linenos, vocab_size)  # an earlier line may be the first bad one
        raise InputError(f"corpus line {lineno}: {fault}")
    if not linenos:
        raise InputError(f"corpus {path} is empty")
    _check_tokens(xs, ys, linenos, vocab_size)
    table = SampleTable.from_rows(users, xs, ys, heldout)
    # Each user's rows in file order, users in order of first appearance.
    order = np.argsort(table.user, kind="stable")
    ends = np.cumsum(np.bincount(table.user))
    return {
        uid: table.take(rows)
        for uid, rows in zip(table.user_ids, np.split(order, ends[:-1]))
    }


def _check_tokens(xs: list[list], ys: list[list], linenos: list[int], vocab_size: int) -> None:
    """Raise :class:`InputError` naming the line of the first sample with a
    bad token.

    The tokens of all samples are checked at once, which costs about half as
    much as a check per sample; only when they fail are the samples checked
    one by one to find the line.
    """
    tokens = list(chain.from_iterable(chain.from_iterable(zip(xs, ys))))
    if _token_fault(tokens, vocab_size) is None:
        return
    for lineno, x, y in zip(linenos, xs, ys):
        if fault := _token_fault(x + y, vocab_size):
            raise InputError(f"corpus line {lineno}: {fault}")


def _token_fault(tokens: Sequence, vocab_size: int) -> str | None:
    """Why ``tokens`` are not all integers in [0, vocab_size), or None."""
    if not {*map(type, tokens)} <= {int}:
        bad = next(t for t in tokens if type(t) is not int)
        return f"malformed sample (token {bad!r} is not an integer)"
    if min(tokens, default=0) < 0:
        return "negative token id"
    if max(tokens, default=0) >= vocab_size:
        return f"token id {max(tokens)} >= vocab_size {vocab_size}"
    return None


def save_population_spec(spec: PopulationSpec, path: str | Path) -> None:
    doc = {"schema_version": 1, **asdict(spec)}
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_population_spec(path: str | Path) -> PopulationSpec:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise InputError(f"population spec {path} is not readable: {exc}") from exc
    doc = decode_json(text, InputError, f"population spec {path}")
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        raise InputError(f"unsupported population spec version {version}")
    try:
        return from_doc(PopulationSpec, doc)
    except (TypeError, ValueError) as exc:
        raise InputError(f"population spec {path} is malformed: {exc!r}") from exc
