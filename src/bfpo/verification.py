"""User-facing property checks: gradient correctness, EMA invariance, clamping.

These are the checks the ``verify`` command runs on a fresh install.  Each is
a fixed protocol, re-runnable with any seed: it takes only its seed (and the
gradient check its case count, which ``--fd-cases`` sets), draws its own
randomized instances, compares against an independent oracle (central finite
differences, closed-form weighted-mean gaps, direct sign counting) and
reports a single pass/fail with diagnostic details.

The finite-difference and clamp checks evaluate in stacks (see
:mod:`bfpo.losses`).  A gradient check draws all its cases first, decoding
their bounded integers and uniforms from the generator's raw PCG64 words
(:mod:`bfpo._pcg64_words`: the same values and stream as one ``Generator``
call per draw), and encodes them with one call per table shape.  It then scores them across cases on the
training kernels, one vocabulary size at a time: one stack gives every case's
analytic gradient, and a few more, each case's arrays tiled over its runs,
the losses of every case's 2·C·V perturbed tables.  The clamp check's
replications are the runs of a few many-run layouts.  A run's values do not
depend on the other runs of its stack, so each equals its lone evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _pcg64_words as pcg64_words
from .errors import InputError
from .losses import (
    BREAKDOWN_COLUMNS,
    Layout,
    LossConfig,
    Method,
    Stack,
    binary_losses,
    loss_terms,
    score,
    scored_loss,
)
from .policy import (
    Encoded,
    PolicyParams,
    encode,
    sequence_log_probs,
    softmax_tables,
    stack_codes,
    tile_parts,
)
from .pu import (
    CheckResult,
    _count,
    run_convergence_check,
    run_negativity_check,
    run_unbiasedness_check,
)
from . import rewards
from .rewards import kto_zrefs

__all__ = [
    "GradientCase",
    "draw_gradient_cases",
    "finite_difference_grad",
    "registered_checks",
    "run_all_checks",
    "run_clamp_check",
    "run_ema_invariance_check",
    "run_gradient_fd_check",
]

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4
# A loss value is a short chain of rounded operations (log-softmax, per-token
# sums, sigmoids, a batch mean), so it is taken as exact to this many ulps of
# its magnitude when bounding the round-off of a central difference.
FD_LOSS_ULPS = 16.0

# Runs per stack of the clamp and finite-difference checks.  At n = 10 a clamp
# layout's per-sequence arrays take 16 kB each.  Scoring all 2,000 runs as one
# layout (about 1 MB of such arrays and their temporaries) raised the suite's
# peak RSS by about 1.2 MB; layouts of 100 runs cost no more time than layouts
# of 500 and hold less.  Likewise, one finite-difference stack of all a
# vocabulary size's perturbed tables (up to 620 runs, 5,000 tokens) raised it
# by about 0.7 MB, and stacks of at most 100 runs by none, in no more time.
CHECK_RUNS = 100

_L_POS, _RAW, _TOTAL = map(BREAKDOWN_COLUMNS.index, ("l_pos", "pure_neg_raw", "total"))


def finite_difference_grad(
    loss_fn: Callable[[np.ndarray], np.ndarray],
    params: Sequence[PolicyParams],
    step: float = FD_STEP,
) -> list[np.ndarray]:
    """Central differences of scalar losses over every logit entry of several
    tables of one vocabulary, from one call of ``loss_fn`` on all their
    perturbed tables.

    With table i's K_i = C_i*V entries in row-major order, its perturbed
    table 2k is ``params[i].logits`` with entry k raised by ``step`` and table
    2k + 1 with it lowered.  ``loss_fn`` maps every perturbed table, table 0's
    first, stacked into one (sum of 2*K_i*C_i, V) array, to their losses in
    that order, each table's its own.
    """
    if len({p.vocab_size for p in params}) > 1:
        raise InputError("finite_difference_grad stacks tables of one vocabulary size")
    perturbed = []
    for p in params:
        flat = p.logits.ravel()
        entry = np.arange(flat.size)
        tables = np.empty((flat.size, 2, flat.size))
        tables[...] = flat
        tables[entry, 0, entry] = flat + step
        tables[entry, 1, entry] = flat - step
        perturbed.append(tables.reshape(-1, p.vocab_size))
    losses = np.asarray(loss_fn(np.concatenate(perturbed)))
    ends = np.cumsum([2 * p.logits.size for p in params]).tolist()
    return [
        ((losses[lo:hi:2] - losses[lo + 1:hi:2]) / (2.0 * step)).reshape(p.logits.shape)
        for p, lo, hi in zip(params, [0] + ends[:-1], ends)
    ]


@dataclass(eq=False)
class GradientCase:
    """One randomized instance of a method's gradient check: a batch under a
    policy and a frozen reference, with the objective's config and anchor.

    The batch is ``sequences``, its (prompt, completion) token tuples: the
    ``n_pos`` positives (for DPO, the preferred completions), then the
    auxiliaries (the rejected ones, on the same prompts).  Scoring the case
    (:func:`draw_gradient_cases`) fills in the rest: the sequences' encoding
    for the policy's table, their log-probabilities under the reference,
    KTO's leave-one-out anchors (held constant while the logits are
    perturbed) and the analytic gradient of the total.
    """

    sequences: list[tuple[tuple[int, ...], tuple[int, ...]]]
    n_pos: int
    policy: PolicyParams
    reference: PolicyParams
    config: LossConfig
    delta: float
    codes: Encoded | None = field(default=None, repr=False)
    ref_log_probs: np.ndarray | None = field(default=None, repr=False)
    zrefs: np.ndarray | None = field(default=None, repr=False)
    analytic: np.ndarray | None = field(default=None, repr=False)


def _sequences(
    draws: pcg64_words.Reader, vocab: int, count: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``count`` (prompt, completion) pairs: a prompt of ``integers(0, 3)``
    tokens, then a completion of ``integers(1, 4)``, each token
    ``integers(0, vocab)``."""
    below = draws.below
    pairs = []
    for _ in range(count):
        x = tuple([below(vocab) for _ in range(below(3))])
        pairs.append((x, tuple([below(vocab) for _ in range(1 + below(3))])))
    return pairs


def _drawn_params(table: np.ndarray) -> PolicyParams:
    """A table of a normal draw (finite float64 of its own shape) as
    PolicyParams, without the checks the constructor would repeat on it."""
    params = object.__new__(PolicyParams)
    (params.context_size, params.vocab_size), params.logits = table.shape, table
    return params


def _draw_case(method: Method, draws: pcg64_words.Reader) -> GradientCase:
    """One randomized case, not yet screened or scored: the vocabulary and
    context sizes, the policy's and the reference's logits (one normal draw),
    the config, the anchor, then the batch, one side after the other.  A DPO
    case draws a binary batch first and drops it: its preferred completions
    come next, then three rejected ones, of which each preferred completion's
    prompt takes one."""
    vocab = 3 + draws.below(3)
    context = 2 + draws.below(3)
    tables = draws.rng.normal(0.0, 1.0, (2, context, vocab))
    config = LossConfig(
        beta=draws.uniform(0.3, 2.0),
        alpha=draws.uniform(0.0, 0.9),
        pi_n=draws.uniform(0.3, 1.0),
        lambda_d=draws.uniform(0.5, 2.0),
        lambda_u=draws.uniform(0.5, 2.0),
    )
    delta = draws.uniform(-1.0, 1.0)
    pos = _sequences(draws, vocab, 1 + draws.below(3))
    aux = _sequences(draws, vocab, 1 + draws.below(3))
    if method is Method.DPO:
        pos = _sequences(draws, vocab, 1 + draws.below(3))
        aux = [(x, y) for (x, _), (_, y) in zip(pos, _sequences(draws, vocab, 3))]
    return GradientCase(pos + aux, len(pos), _drawn_params(tables[0]), _drawn_params(tables[1]),
                        config, delta)


def _encode_cases(cases: Sequence[GradientCase]) -> None:
    """Fill in each case's encoding, one :func:`encode` call per table shape."""
    shapes: dict[tuple[int, int], list[GradientCase]] = {}
    for case in cases:
        shapes.setdefault(case.policy.logits.shape, []).append(case)
    for (context, vocab), group in shapes.items():
        codes = encode((s for case in group for s in case.sequences), context, vocab)
        for case, part in zip(group, codes.split([len(c.sequences) for c in group])):
            case.codes = part


def _by_vocab(cases: Sequence[GradientCase]) -> list[list[GradientCase]]:
    """The cases grouped by vocabulary size, in order within each group."""
    groups: dict[int, list[GradientCase]] = {}
    for case in cases:
        groups.setdefault(case.policy.vocab_size, []).append(case)
    return list(groups.values())


def _stack(
    method: Method, cases: Sequence[GradientCase], copies: Sequence[int]
) -> tuple[Stack, np.ndarray, list, list]:
    """The stack of ``copies[i]`` runs of case i after those of the cases
    before it (cases of one vocabulary size, each encoded), each run on its
    own table of its case's context size, with each sequence's beta and each
    run's :func:`~bfpo.losses.loss_terms` and anchor.  The reference
    log-probabilities are the cases' own once scored, else gathered from
    their stacked reference tables (one run per case)."""
    parts = [c.codes for c in cases]
    contexts = [c.policy.context_size for c in cases]
    codes = stack_codes(parts, contexts, cases[0].policy.vocab_size, copies)
    n_pos = np.array([c.n_pos for c in cases])
    n_aux = np.array([p.n for p in parts]) - n_pos
    layout = Layout.build(n_pos.repeat(copies), n_aux.repeat(copies))
    reference = None
    if method is not Method.SFT and cases[0].ref_log_probs is None:
        ref_table = softmax_tables(np.concatenate([c.reference.logits for c in cases]))[0]
        reference = sequence_log_probs(ref_table, codes)
    elif method is not Method.SFT:
        reference = tile_parts([c.ref_log_probs for c in cases], copies)
    # A check's runs hold no sample pools, so the stack names no batches.
    stack = Stack((), codes, layout, reference)
    betas = np.repeat([c.config.beta for c in cases], copies)[layout.run]
    terms = loss_terms(method, [c.config for c in cases])
    terms = [t for t, k in zip(terms, copies) for _ in range(k)]
    deltas = [c.delta for c, k in zip(cases, copies) for _ in range(k)]
    return stack, betas, terms, deltas


def _score_group(method: Method, cases: Sequence[GradientCase]) -> np.ndarray:
    """Score encoded cases of one vocabulary size as one stack, a run each,
    under their own policies: fill in what :class:`GradientCase` leaves to
    scoring, and return the runs' :data:`BREAKDOWN_COLUMNS` rows."""
    vocab = cases[0].policy.vocab_size
    stack, betas, terms, deltas = _stack(method, cases, [1] * len(cases))
    contexts = [c.policy.context_size for c in cases]
    policy = PolicyParams(vocab, sum(contexts), np.concatenate([c.policy.logits for c in cases]))
    scores = score(method, stack, policy, betas)
    spans = stack.layout.spans
    zrefs = None
    if method is Method.KTO:
        zrefs = np.concatenate([kto_zrefs(scores.rewards[a:b]) for a, b, _ in spans])
    values, grad = scored_loss(method, scores, terms, deltas, zrefs, want_grad=True)
    row_ends = np.cumsum(contexts).tolist()
    for case, (a, b, _), lo, hi in zip(cases, spans, [0] + row_ends[:-1], row_ends):
        case.analytic = grad[lo:hi]
        if stack.reference is not None:
            case.ref_log_probs = stack.reference[a:b]
        if zrefs is not None:
            case.zrefs = zrefs[a:b]
    return values


def draw_gradient_cases(
    method: Method, rng: np.random.Generator, cases: int
) -> list[GradientCase]:
    """The first ``cases`` randomized cases drawn from ``rng`` that pass
    screening, scored (see :class:`GradientCase`).

    The draws are decoded from ``rng``'s raw PCG64 words (see
    :class:`bfpo._pcg64_words.Reader`):
    each case and ``rng``'s state afterwards are what the same draws made
    one ``Generator`` call at a time give.  For the clamped method a draw is
    kept only if its purified term is safely positive, because the acceptance
    check only covers clamp-inactive regions (the clamped branch has an
    exactly-zero gradient by construction).  A draw reads the stream alike
    whether it is kept or not, so each round draws as many cases as are still
    missing and scores them in one stack per vocabulary size; no round keeps
    more than are missing.  A KTO batch always holds a positive and an
    auxiliary, so its leave-one-out anchors always exist.
    """
    draws = pcg64_words.Reader(rng)
    kept: list[GradientCase] = []
    try:
        while len(kept) < cases:
            drawn = [_draw_case(method, draws) for _ in range(cases - len(kept))]
            _encode_cases(drawn)
            raws = {}
            for group in _by_vocab(drawn):
                raws.update(zip(map(id, group), _score_group(method, group)[:, _RAW].tolist()))
            kept += [c for c in drawn if method is not Method.CBPO or raws[id(c)] > 0.05]
    finally:
        draws.close()
    return kept


def _fd_stacks(cases: Sequence[GradientCase]) -> list[list[GradientCase]]:
    """The cases grouped by vocabulary size, each group cut into runs of
    consecutive cases holding at most :data:`CHECK_RUNS` perturbed tables
    (at least one case each)."""
    stacks: list[list[GradientCase]] = []
    for group in _by_vocab(cases):
        runs = CHECK_RUNS
        for case in group:
            size = 2 * case.policy.logits.size
            if runs + size > CHECK_RUNS:
                stacks.append([])
                runs = 0
            stacks[-1].append(case)
            runs += size
    return stacks


def _fd_errors(method: Method, cases: Sequence[GradientCase]) -> list[float]:
    """Each scored case's relative error (see :func:`run_gradient_fd_check`)
    for cases of one vocabulary size.  Case i's 2·C_i·V perturbed tables are
    as many runs of one stack, each with its case's sequences, reference
    log-probabilities, config, anchor and (KTO) leave-one-out anchors, and
    each run's total is its loss."""
    copies = [2 * case.policy.logits.size for case in cases]
    stack, betas, terms, deltas = _stack(method, cases, copies)
    zrefs = None
    if method is Method.KTO:
        zrefs = tile_parts([c.zrefs for c in cases], copies)
    totals = []

    def loss_fn(tables: np.ndarray) -> np.ndarray:
        scores = score(method, stack, PolicyParams(tables.shape[1], len(tables), tables), betas)
        totals.append(scored_loss(method, scores, terms, deltas, zrefs)[0][:, _TOTAL])
        return totals[-1]

    numeric = finite_difference_grad(loss_fn, [c.policy for c in cases])
    eps = FD_LOSS_ULPS * np.finfo(np.float64).eps
    firsts = np.cumsum(copies) - copies
    largest = np.maximum.reduceat(np.abs(totals[0]), firsts).tolist()
    errors = []
    for case, grad, top in zip(cases, numeric, largest):
        roundoff = eps * top / FD_STEP * math.sqrt(grad.size)
        scale = max(_norm(grad), roundoff / FD_TOLERANCE)
        errors.append(_norm(case.analytic - grad) / scale)
    return errors


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` bit for bit (the same dot product and square
    root) without its per-call overhead."""
    x = x.ravel()
    return math.sqrt(x.dot(x))


def run_gradient_fd_check(method: Method, seed: int = 3, cases: int = 50) -> CheckResult:
    """Analytic gradient vs central finite differences over randomized cases.

    The error is relative to the FD gradient's norm, but never to less than the
    norm at which the FD estimate's own round-off would use up the tolerance:
    each loss value is exact only to ``FD_LOSS_ULPS * eps * |loss|``, so each
    central difference is uncertain by that much of the largest loss seen,
    divided by the step.  A gradient that is truly zero then passes; any
    gradient FD can resolve at this step is judged against
    :data:`FD_TOLERANCE`.

    Every case is drawn first (:func:`draw_gradient_cases`), and the cases of
    each vocabulary size are scored in cross-case stacks on the training
    kernels: their analytic gradients come from one stack, a run per case,
    and the losses of their perturbed tables from stacks of 2·C·V runs per
    case and at most :data:`CHECK_RUNS` runs.
    """
    cases = _count("cases", cases, 1)
    # Stable per-method stream: str hashes are process-randomized, enum order is not.
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(Method).index(method)]))
    drawn = draw_gradient_cases(method, rng, cases)
    errors = {}
    for stack in _fd_stacks(drawn):
        errors.update(zip(map(id, stack), _fd_errors(method, stack)))
    worst = max([0.0, *(errors[id(case)] for case in drawn)])
    return CheckResult(
        name=f"gradient_fd_{method.value}",
        passed=bool(worst < FD_TOLERANCE),
        details={"worst_relative_error": worst, "cases": cases, "tolerance": FD_TOLERANCE},
    )


def run_ema_invariance_check() -> CheckResult:
    """Decoupled EMA anchors must agree across batch ratios; joint means must not.

    With constant per-set reward means m+ and m-, the joint pooled batch mean
    sits at (m+ + x*m-)/(1+x), i.e. off the balanced anchor by
    (x-1)/(x+1) * (m- - m+)/2.  The means are 0.4 and -0.6, the ratios x 0.5,
    1 and 1.5, and each anchor takes 400 updates at decay 0.9: the first
    seeds both statistics with the means, as the trainer's does, and the rest
    run the trainer's formula, :func:`bfpo.rewards.ema_fold`.  Each anchor must
    also sit at 0.5 * (m+ + m-), which a wrong but finite fold misses.
    """
    ratios, pos_mean, aux_mean = (0.5, 1.0, 1.5), 0.4, -0.6
    deltas = []
    joint_gap_errors = []
    for x in ratios:
        n_pos, n_aux = 2, max(1, round(2 * x))
        ema_pos, ema_aux = pos_mean, aux_mean
        for _ in range(399):
            ema_pos = rewards.ema_fold(ema_pos, pos_mean, 0.9)
            ema_aux = rewards.ema_fold(ema_aux, aux_mean, 0.9)
        deltas.append(rewards.ema_anchor(ema_pos, ema_aux))
        joint = (n_pos * pos_mean + n_aux * aux_mean) / (n_pos + n_aux)
        predicted_gap = ((x - 1.0) / (x + 1.0)) * (aux_mean - pos_mean) / 2.0
        joint_gap_errors.append(abs(joint - 0.5 * (pos_mean + aux_mean) - predicted_gap))
    spread = max(deltas) - min(deltas)
    worst_gap_error = max(joint_gap_errors)
    anchor_error = max(abs(d - 0.5 * (pos_mean + aux_mean)) for d in deltas)
    return CheckResult(
        name="ema_batch_invariance",
        passed=bool(spread < 1e-9 and worst_gap_error < 1e-9 and anchor_error < 1e-9),
        details={
            "delta_spread": spread,
            "worst_joint_gap_error": worst_gap_error,
            "ratios": ", ".join(str(r) for r in ratios),
            "anchor_error": anchor_error,
        },
    )


def run_clamp_check(seed: int = 4) -> CheckResult:
    """The purified term must go negative on small batches, and the clamp must
    then keep it out of the objective: a replication whose raw term is
    negative but whose total is not exactly its ``l_pos`` is a violation.

    Each of 2,000 replications draws n = 10 positive rewards, then 10
    auxiliary ones, scored by cbpo at alpha 0.9 and delta 0; one draw of
    every replication's rewards reads the same stream.  The replications are
    scored as the runs of a few layouts of at most :data:`CHECK_RUNS` runs
    each.
    """
    replications, n = 2_000, 10
    rewards = np.random.default_rng(seed).normal(0.0, 1.0, (replications, 2, n))
    (terms,) = loss_terms(Method.CBPO, [LossConfig(alpha=0.9)])
    negatives = clamp_violations = 0
    for lo in range(0, replications, CHECK_RUNS):
        chunk = rewards[lo : lo + CHECK_RUNS]
        layout = Layout.build([n] * len(chunk), [n] * len(chunk))
        values = binary_losses(chunk.ravel(), layout, [terms] * len(chunk))
        negative = values[:, _RAW] < 0.0
        leaked = values[:, _TOTAL] != values[:, _L_POS]
        negatives += int(np.count_nonzero(negative))
        clamp_violations += int(np.count_nonzero(negative & leaked))
    frequency = negatives / replications
    return CheckResult(
        name="clamp_negativity_exposure",
        passed=bool(frequency > 0.01 and clamp_violations == 0),
        details={
            "negative_raw_frequency": frequency,
            "clamp_violations": clamp_violations,
            "replications": replications,
            "n": n,
        },
    )


def registered_checks(seed: int = 0, fd_cases: int = 50) -> list[Callable[[], CheckResult]]:
    """The full property suite, one thunk per registered check."""
    checks: list[Callable[[], CheckResult]] = [
        lambda: run_unbiasedness_check(seed=seed),
        lambda: run_convergence_check(seed=seed + 1),
        lambda: run_negativity_check(seed=seed + 2),
        lambda: run_ema_invariance_check(),
        lambda: run_clamp_check(seed=seed + 4),
    ]
    for method in Method:
        checks.append(
            lambda m=method: run_gradient_fd_check(m, seed=seed + 5, cases=fd_cases)
        )
    return checks


def run_all_checks(seed: int = 0, fd_cases: int = 50) -> list[tuple[CheckResult, float]]:
    """Every registered check's result, with the wall seconds it took."""
    timed = []
    for check in registered_checks(seed=seed, fd_cases=fd_cases):
        start = time.perf_counter()
        timed.append((check(), time.perf_counter() - start))
    return timed
