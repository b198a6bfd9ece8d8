"""The property checks: no false failures, no loosening, and stacked passes
that equal the per-case, per-entry and per-replication loops they replace."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from bfpo import _pcg64_words as pcg64_words
from bfpo import losses, pu, verification
from bfpo.errors import InputError
from bfpo.losses import (
    BREAKDOWN_COLUMNS,
    Layout,
    LossConfig,
    Method,
    Stack,
    loss_terms,
    method_loss_and_grad,
    score,
    scored_loss,
)
from bfpo.policy import PolicyParams, stack_codes
from bfpo.pu import CheckResult
from bfpo.rewards import kto_zrefs

from oracles import OracleCase, binary_loss, case_batch, random_gradient_case

RAW, TOTAL = BREAKDOWN_COLUMNS.index("pure_neg_raw"), BREAKDOWN_COLUMNS.index("total")


def test_each_check_takes_only_what_verify_varies():
    """The suite is a fixed protocol: ``bfpo verify`` sets the seed and the
    gradient check's case count, and no check takes anything else."""

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(verification.registered_checks) == ["seed", "fd_cases"]
    assert params(verification.run_gradient_fd_check) == ["method", "seed", "cases"]
    assert params(verification.run_ema_invariance_check) == []
    checks = {
        name: getattr(module, name)
        for module in (pu, verification)
        for name in dir(module)
        if name.startswith("run_") and name.endswith("_check")
    }
    others = set(checks) - {"run_gradient_fd_check", "run_ema_invariance_check"}
    assert others == {"run_unbiasedness_check", "run_convergence_check",
                      "run_negativity_check", "run_clamp_check"}
    assert {name: params(checks[name]) for name in others} == {
        name: ["seed"] for name in others
    }


def test_dpo_check_passes_where_the_true_gradient_is_zero():
    """``bfpo verify --seed 16`` draws a DPO case whose y_w and y_l score the
    same under every policy; its FD gradient is pure round-off."""
    result = verification.run_gradient_fd_check(Method.DPO, seed=16 + 5, cases=50)
    assert result.passed, result.details


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_scaled_gradient_fails_on_every_seed(method, monkeypatch):
    """A gradient off by 5% fails the check on each of seeds 0-19.

    The analytic gradients are the only ``scored_loss`` results the check
    asks a gradient of, so scaling every gradient it returns scales them and
    nothing else.  Five cases are the first five of the full 50-case run
    (same stream), and the check reports the worst case, so failing on five
    fails on fifty.
    """
    exact = verification.scored_loss

    def scaled(*args, **kwargs):
        values, grad = exact(*args, **kwargs)
        return values, None if grad is None else 1.05 * grad

    monkeypatch.setattr(verification, "scored_loss", scaled)
    passed = [
        seed for seed in range(20)
        if verification.run_gradient_fd_check(method, seed=seed, cases=5).passed
    ]
    assert passed == []


def _per_entry_fd(loss_fn, params: PolicyParams, step: float = verification.FD_STEP):
    """The oracle: central differences one logit entry at a time, each side a
    lone evaluation of the perturbed table."""
    grad = np.zeros_like(params.logits)
    for idx in np.ndindex(params.logits.shape):
        original = params.logits[idx]
        params.logits[idx] = original + step
        up = loss_fn()
        params.logits[idx] = original - step
        down = loss_fn()
        params.logits[idx] = original
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def _case_stream(method: Method, seed: int) -> np.random.Generator:
    """The generator :func:`verification.run_gradient_fd_check` draws cases from."""
    return np.random.default_rng(np.random.SeedSequence([seed, list(Method).index(method)]))


def _lone_scores(method: Method, case: OracleCase):
    stack = Stack.of(method, case.batch, case.policy, case.reference)
    return stack, score(method, stack, case.policy, case.config.beta)


def _per_case_fd_errors(method: Method, seed: int, cases: int) -> list[float]:
    """The oracle: each case's relative error as the check found it one case
    at a time.  Each draw is screened as a lone stack, the analytic gradient
    comes from ``method_loss_and_grad``, and the case's 2·C·V perturbed
    tables are one stack of the case's encoding, tiled."""
    rng = _case_stream(method, seed)
    tolerance = verification.FD_TOLERANCE
    errors = []
    for _ in range(cases):
        while True:
            case = random_gradient_case(method, rng)
            stack, scores = _lone_scores(method, case)
            raw = scored_loss(method, scores, loss_terms(method, [case.config]), [case.delta])[0][0, RAW]
            if method is not Method.CBPO or raw > 0.05:
                break
        zrefs = kto_zrefs(scores.rewards).tolist() if method is Method.KTO else None
        batch, config, delta = case.batch, case.config, case.delta
        _, analytic = method_loss_and_grad(method, batch, case.policy, case.reference,
                                           config, delta)
        largest = 0.0

        def totals(tables: np.ndarray) -> np.ndarray:
            nonlocal largest
            runs, vocab = len(tables) // case.policy.context_size, tables.shape[1]
            tiled = Stack(
                [batch] * runs,
                stack_codes([stack.codes] * runs, case.policy.context_size, vocab),
                Layout.build([len(batch.pos)] * runs, [len(batch.aux)] * runs),
                None if stack.reference is None else np.tile(stack.reference, runs),
            )
            table_scores = score(method, tiled, PolicyParams(vocab, len(tables), tables),
                                 config.beta)
            run_zrefs = None if zrefs is None else np.tile(zrefs, runs)
            values = scored_loss(method, table_scores, loss_terms(method, [config]) * runs,
                                 [delta] * runs, run_zrefs)[0]
            largest = max([largest, *np.abs(values[:, TOTAL]).tolist()])
            return values[:, TOTAL]

        numeric = verification.finite_difference_grad(totals, [case.policy])[0]
        eps = verification.FD_LOSS_ULPS * np.finfo(np.float64).eps
        roundoff = eps * largest / verification.FD_STEP * math.sqrt(numeric.size)
        scale = max(float(np.linalg.norm(numeric)), roundoff / tolerance)
        errors.append(float(np.linalg.norm(analytic - numeric)) / scale)
    return errors


@pytest.mark.parametrize(
    "method, seed, cases",
    [(method, seed, 6) for method in Method for seed in range(5)] + [(Method.DPO, 21, 50)],
    ids=lambda v: getattr(v, "value", v),
)
def test_stacked_check_equals_the_per_case_loop(method, seed, cases):
    """The cross-case stacks find the per-case loop's worst relative error
    exactly, and each case's error on the way.  DPO at seed 21 holds a case
    whose true gradient is zero, where the error is relative to the
    round-off bound of the case's own largest loss."""
    want = _per_case_fd_errors(method, seed, cases)
    got = verification.run_gradient_fd_check(method, seed=seed, cases=cases)
    assert got.details["worst_relative_error"] == max([0.0, *want])
    cases = verification.draw_gradient_cases(method, _case_stream(method, seed), cases)
    errors = {}
    for stack in verification._fd_stacks(cases):
        errors.update(zip(map(id, stack), verification._fd_errors(method, stack)))
    assert [errors[id(case)] for case in cases] == want


def _per_case_draws(method: Method, rng: np.random.Generator, cases: int) -> list[OracleCase]:
    """The oracle: draws one ``Generator`` call at a time, each screened as a
    lone stack, until ``cases`` are kept."""
    kept = []
    while len(kept) < cases:
        case = random_gradient_case(method, rng)
        _, scores = _lone_scores(method, case)
        raw = scored_loss(method, scores, loss_terms(method, [case.config]), [case.delta])[0][0, RAW]
        if method is not Method.CBPO or raw > 0.05:
            kept.append(case)
    return kept


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_decoded_cases_equal_the_per_case_draws(method):
    """Cases decoded from raw PCG64 words equal the per-case loop's field by
    field, and leave the generator in the loop's state, its buffered half
    included.  On odd seeds one bounded integer is drawn first, so the
    decoder starts with a buffered half."""
    for seed in range(40):
        want_rng, got_rng = _case_stream(method, seed), _case_stream(method, seed)
        if seed % 2:
            want_rng.integers(0, 7)
            got_rng.integers(0, 7)
            assert got_rng.bit_generator.state["has_uint32"] == 1
        want = _per_case_draws(method, want_rng, 6)
        got = verification.draw_gradient_cases(method, got_rng, 6)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        for case, oracle in zip(got, want, strict=True):
            pos, aux = oracle.batch.samples()
            assert case.sequences == [(s.x, s.y) for s in pos + aux]
            assert case.n_pos == len(pos)
            assert case.policy.logits.tobytes() == oracle.policy.logits.tobytes()
            assert case.reference.logits.tobytes() == oracle.reference.logits.tobytes()
            assert case.policy.logits.shape == oracle.policy.logits.shape
            assert (case.config, case.delta) == (oracle.config, oracle.delta)


def _zero_word_generator() -> np.random.Generator:
    """A PCG64 generator whose next raw word is 0: PCG64 steps its state
    (s -> s * a + c) before it outputs, and the state 0 outputs 0, so the
    state one step before 0 is -c / a (mod 2**128)."""
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    inc = state["state"]["inc"]
    multiplier = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
    state["state"]["state"] = -inc * pow(multiplier, -1, 1 << 128) % (1 << 128)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_decoder_takes_the_lemire_rejection_branch(bound):
    """A zero half gives a zero product, whose low bits fall below 2**32 % n
    for n = 3 and 5: both halves of the zero word are rejected and the value
    comes from the next word.  For n = 4 the threshold is 0, and nothing is
    rejected."""
    assert _zero_word_generator().bit_generator.random_raw() == 0
    want_rng, got_rng = _zero_word_generator(), _zero_word_generator()
    want = [int(want_rng.integers(0, bound)) for _ in range(5)]
    draws = pcg64_words.Reader(got_rng)
    got = [draws.below(bound) for _ in range(5)]
    draws.close()
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if bound == 4:
        assert want[:2] == [0, 0]


def test_decoder_needs_a_pcg64_generator():
    with pytest.raises(InputError):
        verification.draw_gradient_cases(
            Method.BCO, np.random.Generator(np.random.MT19937(0)), 1)


@pytest.mark.parametrize("seed", [3, 8, 21])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_stacked_fd_equals_the_per_entry_loop(method, seed, monkeypatch):
    """Each case's stacked FD gradient, and its analytic one, equal the lone
    evaluations bit for bit: the per-entry loop, and ``method_loss_and_grad``
    (seed 21 holds the DPO case whose true gradient is zero)."""
    calls = []
    real = verification.finite_difference_grad

    def spy(loss_fn, params, step=verification.FD_STEP):
        calls.append((params, real(loss_fn, params, step)))
        return calls[-1][1]

    monkeypatch.setattr(verification, "finite_difference_grad", spy)
    verification.run_gradient_fd_check(method, seed=seed, cases=10)

    cases = verification.draw_gradient_cases(method, _case_stream(method, seed), 10)
    stacked = [case for stack in verification._fd_stacks(cases) for case in stack]
    got = [(p, grad) for params, grads in calls for p, grad in zip(params, grads)]
    assert len(got) == len(stacked) == 10
    for (params, grad), drawn in zip(got, stacked):
        assert params.logits.tobytes() == drawn.policy.logits.tobytes()
        case = OracleCase(case_batch(drawn), drawn.policy, drawn.reference, drawn.config,
                          drawn.delta)
        stack, scores = _lone_scores(method, case)
        zrefs = kto_zrefs(scores.rewards) if method is Method.KTO else None

        def lone_total():
            lone = score(method, stack, case.policy, case.config.beta)
            return scored_loss(method, lone, loss_terms(method, [case.config]), [case.delta], zrefs)[0][0, TOTAL]

        assert grad.tobytes() == _per_entry_fd(lone_total, case.policy).tobytes()
        _, analytic = method_loss_and_grad(method, case.batch, case.policy, case.reference,
                                           case.config, case.delta)
        assert drawn.analytic.tobytes() == analytic.tobytes()


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_fd_check_scores_cases_in_a_few_stacks(method, monkeypatch):
    """Fifty cases take a few cross-case stacks, not two or more each: no
    lone ``Stack.of``, fewer ``score`` passes than one per two cases, and no
    stack past :data:`verification.CHECK_RUNS` runs."""
    runs = []
    real_score = verification.score

    def counting(method, stack, policy, beta):
        runs.append(len(stack.layout.n_pos))
        return real_score(method, stack, policy, beta)

    def lone(*args, **kwargs):
        raise AssertionError("a lone stack was made")

    monkeypatch.setattr(verification, "score", counting)
    monkeypatch.setattr(Stack, "of", classmethod(lone))
    assert verification.run_gradient_fd_check(method, seed=3, cases=50).passed
    assert len(runs) < 25
    # A case's table has at most 4 x 5 entries: 40 perturbed tables.
    assert max(runs) <= max(verification.CHECK_RUNS, 2 * 4 * 5)


def test_finite_difference_grad_takes_one_vocabulary():
    rng = np.random.default_rng(0)
    params = [PolicyParams(v, 2, rng.normal(size=(2, v))) for v in (3, 4)]
    with pytest.raises(InputError):
        verification.finite_difference_grad(lambda tables: np.zeros(len(tables)), params)


def _per_replication_clamp(seed) -> CheckResult:
    """The oracle: the clamp check as one draw pair and one lone
    :func:`binary_loss` per replication."""
    replications, n = 2_000, 10
    rng = np.random.default_rng(seed)
    config = LossConfig(alpha=0.9)
    negatives = clamp_violations = 0
    for _ in range(replications):
        pos = rng.normal(0.0, 1.0, n).tolist()
        aux = rng.normal(0.0, 1.0, n).tolist()
        breakdown = binary_loss(Method.CBPO, pos, aux, 0.0, config)
        negatives += breakdown.pure_neg_raw < 0.0
        clamp_violations += breakdown.pure_neg_raw < 0.0 and breakdown.total != breakdown.l_pos
    frequency = negatives / replications
    return CheckResult(
        name="clamp_negativity_exposure",
        passed=bool(frequency > 0.01 and clamp_violations == 0),
        details={"negative_raw_frequency": frequency, "clamp_violations": clamp_violations,
                 "replications": replications, "n": n},
    )


def test_one_clamp_draw_reads_the_sequential_stream():
    """One (2000, 2, 10) draw equals the 4,000 draws of 10, in order."""
    one = np.random.default_rng(4).normal(0.0, 1.0, (2_000, 2, 10))
    rng = np.random.default_rng(4)
    sequential = np.stack([rng.normal(0.0, 1.0, 10) for _ in range(4_000)])
    assert one.tobytes() == sequential.tobytes()


@pytest.mark.parametrize("seed", [4, 5, 9, 24])
def test_clamp_check_equals_the_per_replication_loop(seed):
    got = verification.run_clamp_check(seed=seed)
    want = _per_replication_clamp(seed)
    assert (got.name, got.passed) == (want.name, want.passed)
    assert repr(got.details) == repr(want.details)
    assert got.details["negative_raw_frequency"] > 0.01


def test_clamp_check_spans_several_layouts(monkeypatch):
    """A layout size that does not divide the replication count (2,000 = 13 x
    150 + 50) scores the remainder too."""
    monkeypatch.setattr(verification, "CHECK_RUNS", 150)
    got = verification.run_clamp_check(seed=6)
    want = _per_replication_clamp(6)
    assert repr(got.details) == repr(want.details)


def test_clamp_check_fails_on_an_unclamped_objective(monkeypatch):
    """With the cbpo row left unclamped, the purified term's negative values
    reach the total and the check counts them."""
    real = losses._binary_terms

    def unclamped(method, config):
        alpha, divisor, _ = real(method, config)
        return alpha, divisor, False

    assert verification.run_clamp_check(seed=4).passed
    monkeypatch.setattr(losses, "_binary_terms", unclamped)
    got = verification.run_clamp_check(seed=4)
    assert not got.passed
    assert got.details["clamp_violations"] > 0


class TestDegenerateArguments:
    """A case count that leaves the gradient check nothing to measure, or that
    is not an integer, raises instead of passing on no evidence or failing
    inside ``range``."""

    @pytest.mark.parametrize(
        "method, cases",
        [
            (Method.BCO, 0),
            (Method.CBPO, -3),
            (Method.BCO, True),
            (Method.BCO, 2.5),
            (Method.BCO, 2.0),
            (Method.BCO, np.float64(2.0)),
            (Method.BCO, np.True_),
            (Method.BCO, "2"),
            (Method.BCO, None),
        ],
        ids=[
            "gradient_no_cases",
            "gradient_negative_cases",
            "gradient_bool_cases",
            "gradient_fractional_cases",
            "gradient_float_cases",
            "gradient_numpy_float_cases",
            "gradient_numpy_bool_cases",
            "gradient_string_cases",
            "gradient_none_cases",
        ],
    )
    def test_raises(self, method, cases):
        with pytest.raises(InputError):
            verification.run_gradient_fd_check(method, cases=cases)

    def test_numpy_integers_are_counts(self):
        """A numpy integer is a case count like an int, and the report holds
        it as an int."""
        want = verification.run_gradient_fd_check(Method.BCO, seed=7, cases=2)
        got = verification.run_gradient_fd_check(Method.BCO, seed=7, cases=np.int64(2))
        assert repr(got.details) == repr(want.details)
        assert type(got.details["cases"]) is int


def test_ema_check_runs_its_fixed_protocol():
    """The EMA check's anchors agree to round-off across the three ratios it
    always takes, and it reports those ratios."""
    got = verification.run_ema_invariance_check()
    assert got.passed
    assert got.details["ratios"] == "0.5, 1.0, 1.5"
    assert got.details["delta_spread"] < 1e-9
    assert got.details["worst_joint_gap_error"] < 1e-9
    assert got.details["anchor_error"] == 0.0


def test_ema_check_fails_a_finite_wrong_fold(monkeypatch):
    """A sign-flipped fold stays finite and folds the same inputs at every
    ratio, so the anchors' spread stays 0; the anchors' distance from the
    balanced mean fails the check."""
    from bfpo import rewards

    def flipped(ema, batch_mean, decay):
        return decay * ema - (1.0 - decay) * batch_mean

    monkeypatch.setattr(rewards, "ema_fold", flipped)
    got = verification.run_ema_invariance_check()
    assert not got.passed
    assert got.details["delta_spread"] == 0.0
    assert got.details["anchor_error"] == pytest.approx(0.2)


def test_one_ema_formula_trains_and_is_checked(monkeypatch):
    """The trainer's EMA update and the invariance check run the one formula,
    ``rewards.ema_fold``: an undamped fold (the statistic divided by
    1 - decay, so it grows tenfold a batch at decay 0.9) moves a training
    run's ema_pos column and overflows the check's anchors, failing it."""
    from bfpo import rewards
    from bfpo.datagen import build_user_dataset
    from bfpo.trainer import TrainConfig, run

    from conftest import small_population

    spec, population = small_population(0.5, 0)
    dataset = build_user_dataset(population, "u000", 1.0, "random", 0, spec.vocab_size)
    config = TrainConfig(method=Method.CBPO, alpha=0.3, epochs=1, batch_size_pos=4,
                         context_size=4, warmstart_epochs=0, ema_decay=0.9)

    def ema_pos():
        return [row["ema_pos"] for row in run(dataset, config, spec.vocab_size).metrics]

    def undamped(ema, batch_mean, decay):
        return ema / (1.0 - decay) + batch_mean

    good, checked = ema_pos(), verification.run_ema_invariance_check()
    assert checked.passed
    monkeypatch.setattr(rewards, "ema_fold", undamped)
    bad, broken = ema_pos(), verification.run_ema_invariance_check()
    # The first update seeds the statistics with the batch means either way.
    assert bad[0] == good[0] and bad[1:] != good[1:]
    assert abs(bad[-1]) > 1e3 * abs(good[-1])
    assert not broken.passed and math.isnan(broken.details["delta_spread"])
