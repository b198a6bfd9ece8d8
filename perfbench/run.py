#!/usr/bin/env python3
"""bfpo benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_frozen --seed 0 --seconds 15 --trace 0

The workload's inputs are derived from ``--seed``.  Passes over the workload's
fixed op list repeat for about ``--seconds`` (at least two passes; with
``--trace 1`` at least one, in which each op runs untraced and then traced).
Every op's output is checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  All times are scaled to a fixed machine speed (see
PROBE_REF_S).  Spans, the environment record and the result are also written
under ``perfbench/out/<workload>/run/``.  perfbench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported; sweep workers inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 7
# Every reported time is scaled to a fixed machine speed: t * PROBE_REF_S / probe,
# where probe is the mean time of a short fixed kernel sampled on the same CPU
# before, during (every SAMPLE_EVERY_S) and after the timed call.  The host's
# speed drifts by up to 2x within seconds to minutes, alike for the probe and
# for bfpo, so scaled times hold still while raw times do not.
PROBE_REF_S = 0.001
SAMPLE_EVERY_S = 0.1

# name -> (unit, better); README.md defines each metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# Times are medians over traced passes; counts must repeat exactly across them.
PER_LAYER = {
    "trainer.warm_start_s": ("s", "lower"),
    "trainer.method_loop_s": ("s", "lower"),
    "trainer.train_step.us_p50": ("us", "lower"),
    "trainer.train_step.us_p99": ("us", "lower"),
    "trainer.train_step.self_s": ("s", "lower"),
    "trainer.train_step.calls": ("count", "lower"),
    "trainer.make_batches_s": ("s", "lower"),
    "trainer.synth_dpo_pairs_s": ("s", "lower"),
    "trainer.dpo_pairs_skipped": ("count", "lower"),
    "trainer.save_checkpoint_s": ("s", "lower"),
    "trainer.load_checkpoint_s": ("s", "lower"),
    "trainer.checkpoint_bytes": ("B", "lower"),
    "losses.method_loss_and_grad.calls": ("count", "lower"),
    "losses.method_loss_and_grad.s": ("s", "lower"),
    "losses.method_loss_and_grad.us_p50": ("us", "lower"),
    "losses.method_loss.calls": ("count", "lower"),
    "losses.method_loss.s": ("s", "lower"),
    "rewards.implicit_reward.calls_per_step": ("count/step", "lower"),
    "rewards.implicit_reward.s": ("s", "lower"),
    "policy.log_prob.calls_per_step": ("count/step", "lower"),
    "policy.log_prob.s": ("s", "lower"),
    "policy.log_prob_grad.calls_per_step": ("count/step", "lower"),
    "policy.log_prob_grad.s": ("s", "lower"),
    "policy.sample_completion.calls": ("count", "lower"),
    "alpha.run_alpha_estimation.s": ("s", "lower"),
    "alpha.train_proxy.s": ("s", "lower"),
    "alpha.embed.calls": ("count", "lower"),
    "datagen.generate_population.s": ("s", "lower"),
    "datagen.generate_population.calls": ("count", "lower"),
    "datagen.build_user_dataset.s": ("s", "lower"),
    "datagen.save_corpus_s": ("s", "lower"),
    "datagen.load_corpus_s": ("s", "lower"),
    "datagen.corpus_bytes": ("B", "lower"),
    "evaluation.evaluate_policy.s": ("s", "lower"),
    "cli.generate.s": ("s", "lower"),
    "cli.train.s": ("s", "lower"),
    "cli.evaluate.s": ("s", "lower"),
    "cli.sweep.s": ("s", "lower"),
    "cli.sweep.worker_busy_ratio": ("ratio", "higher"),
    "pu.run_unbiasedness_check.s": ("s", "lower"),
    "pu.run_convergence_check.s": ("s", "lower"),
    "pu.run_negativity_check.s": ("s", "lower"),
    "verification.run_gradient_fd_check.s": ("s", "lower"),
    "verification.finite_difference_grad.calls": ("count", "lower"),
    "verification.run_clamp_check.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

COUNT_METRICS = {
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "count/step", "B")
}


def _probe_kernel() -> float:
    """Fixed work with bfpo's instruction mix: Python loops over small numpy rows."""
    rng = np.random.default_rng(0)
    table = rng.normal(size=(8, 72))
    acc = 0.0
    for i in range(120):
        row = table[i % 8]
        shifted = row - row.max()
        acc += float((shifted - np.log(np.exp(shifted).sum()))[i % 72])
        acc += rng.random() + int(rng.integers(0, 10))
    return acc


def _probe_once() -> float:
    # CPU time of this thread: the probe measures how fast the CPU runs, not
    # how long this process waits for one (it shares the CPUs with the sweep's
    # workers).
    t0 = time.thread_time()
    _probe_kernel()
    return time.thread_time() - t0


# The two CPUs of a small VM change speed independently, so the benchmark runs
# pinned to one CPU and probes the CPUs an op runs on (all of them for an op
# with worker processes).
PINNED = {min(os.sched_getaffinity(0))}
ALL_CPUS = set(os.sched_getaffinity(0))


def speed_probe(cpus: set[int]) -> list[float]:
    """Three probe times on each of ``cpus``; leaves the process pinned."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times += [_probe_once() for _ in range(3)]
    os.sched_setaffinity(0, PINNED)
    return times


class SpeedSampler:
    """Probes every SAMPLE_EVERY_S from a SIGALRM handler while a timed call runs.

    The handler runs on the main thread, between bytecodes of the call, so its
    samples see the call's CPU; ``spent_s`` is the time it took from the call.
    For a call on several CPUs (the sweep's workers) the samples take turns
    among them, moving the main thread there for the probe and back.
    """

    def __init__(self, cpus: set[int]) -> None:
        self.cpus = sorted(cpus)
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[len(self.samples) % len(self.cpus)]})
            self.samples.append(_probe_once())
            os.sched_setaffinity(0, self.cpus)
        else:
            self.samples.append(_probe_once())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _scale(samples: list[float]) -> float:
    return PROBE_REF_S / statistics.fmean(samples)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import bfpo from this checkout's src/ and the benchmark's own modules."""
    if not (SRC / "bfpo" / "__init__.py").is_file():
        _fail(f"no bfpo sources under {SRC}; run from the root of a bfpo checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import bfpo
    import workloads

    if Path(bfpo.__file__).resolve().parent != (SRC / "bfpo").resolve():
        _fail(f"imported bfpo from {bfpo.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workers": workers,
        "pinned_cpu": min(PINNED),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timer": "time.perf_counter",
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """Times and checks of one pass over the op list."""

    def __init__(self) -> None:
        self.op_s: list[float] = []       # raw wall seconds
        self.scale: list[float] = []      # speed scale of each op (see PROBE_REF_S)
        self.child_cpu_s: list[float] = []
        self.checked: list = []
        self.problems: list[list[str]] = []

    def ref_s(self, i: int) -> float:
        return self.op_s[i] * self.scale[i]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_op(op, result: Pass, tracer=None, index: int = 0) -> None:
    """Time one op (traced when a tracer is given), then check its output untimed."""
    error = None
    cpus = ALL_CPUS if op.workers > 1 else PINNED
    before = speed_probe(cpus)
    if tracer is not None:
        tracer.op_id = index
        tracer.install()
    os.sched_setaffinity(0, cpus)
    cpu0 = _children_cpu()
    sampler = SpeedSampler(cpus)
    t0 = time.perf_counter()
    try:
        with sampler:
            output = op.run()
    except Exception as exc:  # an op that raises counts as failed
        traceback.print_exc()
        error = f"{op.name} raised {type(exc).__name__}: {exc}"
    finally:
        result.op_s.append(time.perf_counter() - t0 - sampler.spent_s)
        result.child_cpu_s.append(_children_cpu() - cpu0)
        if tracer is not None:
            tracer.restore()
    result.scale.append(_scale(before + sampler.samples + speed_probe(cpus)))
    checked = None
    problems = [error] if error else []
    if not error:
        try:
            checked = op.check(output)
            problems += checked.problems
        except Exception as exc:
            traceback.print_exc()
            problems.append(f"{op.name} check raised {type(exc).__name__}: {exc}")
    result.checked.append(checked)
    result.problems.append(problems)


def run_pass(workload, tracer=None) -> list[Pass]:
    """One pass over the op list.

    With a tracer every op runs untraced and then traced, back to back, so the
    two timings of an op see the same machine speed; the result is then the
    untraced pass and the traced pass.
    """
    workload.prepare_pass()
    plain = Pass()
    if tracer is None:
        for op in workload.ops(traced=False):
            _run_op(op, plain)
        return [plain]
    traced = Pass()
    for index, (op, traced_op) in enumerate(
        zip(workload.ops(traced=False), workload.ops(traced=True))
    ):
        _run_op(op, plain)
        _run_op(traced_op, traced, tracer, index)
    return [plain, traced]


def judge(passes: list[Pass], ops, reference: dict, workloads) -> tuple[int, list[str]]:
    """Failed op runs and their problems, counting pass-to-pass and reference mismatches."""
    failed, problems = 0, []
    for number, p in enumerate(passes):
        for i, op in enumerate(ops):
            found = list(p.problems[i])
            first = passes[0].checked[i]
            if p.checked[i] is not None:
                fingerprint = p.checked[i].fingerprint
                if first is not None and fingerprint != first.fingerprint:
                    found.append("fingerprint differs from the first pass")
                found += workloads.compare_to_reference(fingerprint, reference.get(op.name))
            if found:
                failed += 1
                problems += [f"pass {number} op {op.name}: {m}" for m in found]
    return failed, problems


def _median_ops(passes: list[Pass], indices) -> float:
    return sum(statistics.median(p.ref_s(i) for p in passes) for i in indices)


def _run_passes(workload, seconds: float, min_passes: int, tracer=None,
                after=None) -> list[list[Pass]]:
    """Repeat passes while another one still fits in ``seconds``."""
    passes: list[list[Pass]] = []
    start = time.perf_counter()
    while True:
        first_span = len(tracer) if tracer is not None else 0
        passes.append(run_pass(workload, tracer))
        if after is not None:
            after(passes[-1][-1], first_span)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(args) -> float:
    """Median time from launching a fresh interpreter to its fixtures being built.

    The child samples the CPU speed while it builds the fixtures (see
    ``_setup_probe``); those samples and probes taken here just before and
    after the launch scale its time.
    """
    times = []
    for _ in range(SETUP_PROBES):
        before = speed_probe(PINNED)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.startswith("{"):
            _fail("set-up probe failed")
        child = json.loads(line)
        samples = before + child["samples"] + speed_probe(PINNED)
        times.append((elapsed - child["spent_s"]) * _scale(samples))
    return statistics.median(times)


def _setup_probe(args) -> int:
    """The child that ``measure_setup`` times: import bfpo, build the fixtures."""
    # The first probe in a process runs ~10x slower than the rest, so it warms
    # the probe up instead of sampling; its time is not counted as set-up.
    t0 = time.perf_counter()
    _probe_kernel()
    warm_up_s = time.perf_counter() - t0
    with SpeedSampler(PINNED) as sampler:
        workloads = import_program()
        work_dir = OUT / args.workload / "probe"
        work_dir.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, work_dir)
    spent_s = warm_up_s + sampler.spent_s
    print(json.dumps({"samples": sampler.samples, "spent_s": spent_s}), flush=True)
    return 0


def end_to_end_metrics(args, passes: list[Pass]) -> dict:
    """Every end-to-end metric except setup_s and ok_ratio.

    Runs before ``measure_setup``, so that on cli_sweep the children's peak RSS
    is that of the sweep's workers, not of a set-up probe.
    """
    ops = range(len(passes[0].op_s))
    first = passes[0].checked
    work = sum(c.work for c in first if c is not None)
    busy = 0.0
    for i in ops:
        if first[i] is not None and first[i].work:
            busy += statistics.median(
                (p.checked[i].busy_s or p.op_s[i]) * p.scale[i]
                for p in passes if p.checked[i] is not None
            )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli_sweep":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": _median_ops(passes, ops),
        "work_per_s": work / busy if busy > 0 else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_metrics(summary, checked: list) -> dict:
    """Per-layer values of one traced pass (all except the ratios computed later)."""
    def total(name: str) -> float:
        return summary.total_s.get(name, 0.0)

    def calls(name: str) -> int:
        return summary.calls.get(name, 0)

    def us_pct(name: str, q: int) -> float:
        values = summary.durations.get(name, [])
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1e6
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6

    steps = calls("trainer.train_step")

    def per_step(name: str) -> float:
        return summary.calls_in_step.get(name, 0) / steps if steps else 0.0

    def fact(name: str) -> float:
        return sum(c.facts.get(name, 0) for c in checked if c is not None)

    return {
        "trainer.warm_start_s": summary.warm_start_s,
        "trainer.method_loop_s": total("trainer.train_step"),
        "trainer.train_step.us_p50": us_pct("trainer.train_step", 50),
        "trainer.train_step.us_p99": us_pct("trainer.train_step", 99),
        "trainer.train_step.self_s": summary.self_s.get("trainer.train_step", 0.0),
        "trainer.train_step.calls": steps,
        "trainer.make_batches_s": total("trainer.make_batches"),
        "trainer.synth_dpo_pairs_s": total("trainer.synth_dpo_pairs"),
        "trainer.dpo_pairs_skipped": fact("dpo_pairs_skipped"),
        "trainer.save_checkpoint_s": total("trainer.save_checkpoint"),
        "trainer.load_checkpoint_s": total("trainer.load_checkpoint"),
        "trainer.checkpoint_bytes": fact("checkpoint_bytes"),
        "losses.method_loss_and_grad.calls": calls("losses.method_loss_and_grad"),
        "losses.method_loss_and_grad.s": total("losses.method_loss_and_grad"),
        "losses.method_loss_and_grad.us_p50": us_pct("losses.method_loss_and_grad", 50),
        "losses.method_loss.calls": calls("losses.method_loss"),
        "losses.method_loss.s": total("losses.method_loss"),
        "rewards.implicit_reward.calls_per_step": per_step("rewards.implicit_reward"),
        "rewards.implicit_reward.s": total("rewards.implicit_reward"),
        "policy.log_prob.calls_per_step": per_step("policy.log_prob"),
        "policy.log_prob.s": total("policy.log_prob"),
        "policy.log_prob_grad.calls_per_step": per_step("policy.log_prob_grad"),
        "policy.log_prob_grad.s": total("policy.log_prob_grad"),
        "policy.sample_completion.calls": calls("policy.sample_completion"),
        "alpha.run_alpha_estimation.s": total("alpha.run_alpha_estimation"),
        "alpha.train_proxy.s": total("alpha.train_proxy"),
        "alpha.embed.calls": calls("alpha.embed"),
        "datagen.generate_population.s": total("datagen.generate_population"),
        "datagen.generate_population.calls": calls("datagen.generate_population"),
        "datagen.build_user_dataset.s": total("datagen.build_user_dataset"),
        "datagen.save_corpus_s": total("datagen.save_corpus"),
        "datagen.load_corpus_s": total("datagen.load_corpus"),
        "datagen.corpus_bytes": fact("corpus_bytes"),
        "evaluation.evaluate_policy.s": total("evaluation.evaluate_policy"),
        "cli.generate.s": total("cli.cmd_generate"),
        "cli.train.s": total("cli.cmd_train"),
        "cli.evaluate.s": total("cli.cmd_evaluate"),
        "cli.sweep.s": total("cli.cmd_sweep"),
        "pu.run_unbiasedness_check.s": total("pu.run_unbiasedness_check"),
        "pu.run_convergence_check.s": total("pu.run_convergence_check"),
        "pu.run_negativity_check.s": total("pu.run_negativity_check"),
        "verification.run_gradient_fd_check.s": total("verification.run_gradient_fd_check"),
        "verification.finite_difference_grad.calls": calls("verification.finite_difference_grad"),
        "verification.run_clamp_check.s": total("verification.run_clamp_check"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.probe:
        return _setup_probe(args)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work_dir = OUT / args.workload / "run"
    work_dir.mkdir(parents=True, exist_ok=True)

    os.sched_setaffinity(0, PINNED)
    reference_path = BENCH_DIR / "reference.json"
    reference = json.loads(reference_path.read_text()).get(args.workload, {}).get(
        str(args.seed), {}
    )
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)

    run_problems: list[str] = []
    if args.trace == 0:
        passes = [p for p, in _run_passes(workload, args.seconds, min_passes=2)]
        checked_passes = passes
        metrics = end_to_end_metrics(args, passes)
        metrics["setup_s"] = measure_setup(args)
    else:
        from tracer import Tracer, bfpo_modules

        before = {id(m): dict(vars(m)) for m in bfpo_modules()}
        tracer = Tracer()
        per_pass: list[dict] = []

        def summarize(p: Pass, first_span: int) -> None:
            per_pass.append(layer_metrics(tracer.summarize(first_span, p.scale), p.checked))

        pairs = _run_passes(workload, args.seconds, min_passes=1, tracer=tracer,
                            after=summarize)
        untraced, traced = [p for p, _ in pairs], [p for _, p in pairs]
        checked_passes = untraced + traced
        metrics = _combine_layers(per_pass, untraced, traced, workload)
        tracer.write_csv(work_dir / "spans.csv")
        restored = all(
            all(vars(m).get(k) is v for k, v in before[id(m)].items())
            for m in bfpo_modules()
        )
        if not restored:
            run_problems.append("tracer left a bfpo attribute wrapped")
        diverged = sorted(n for n in COUNT_METRICS if len({p[n] for p in per_pass}) > 1)
        if diverged:
            run_problems.append(f"counts differ between traced passes: {diverged}")

    ops = workload.ops(False)
    attempted = len(ops) * len(checked_passes)
    failed, problems = judge(checked_passes, ops, reference, workloads)
    failed = min(attempted, failed + len(run_problems))
    problems += run_problems
    if args.trace == 0:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)

    specs = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": specs[name][0]} for name in specs},
    }
    env = environment(args, max(op.workers for op in ops))
    (work_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps({
            "environment": env,
            "op_names": [op.name for op in ops],
            "op_raw_seconds": [p.op_s for p in checked_passes],
            "op_scale": [p.scale for p in checked_passes],
            **result,
        }, indent=1)
    )
    print(json.dumps({"environment": env}))
    for name in specs:
        print(f"{name} = {metrics[name]!r} {specs[name][0]}")
    raw = statistics.median(sum(p.op_s) for p in checked_passes)
    scale = statistics.median(x for p in checked_passes for x in p.scale)
    print(f"(unscaled pass time {raw!r} s, median speed scale {scale!r})")
    print(json.dumps(result))
    return 0


def _combine_layers(per_pass: list[dict], untraced: list[Pass], traced: list[Pass],
                    workload) -> dict:
    metrics = {
        name: (per_pass[0][name] if name in COUNT_METRICS
               else statistics.median(p[name] for p in per_pass))
        for name in per_pass[0]
    }
    ops = workload.ops(traced=False)
    # Ops run differently when traced (the sweep at one worker) are left out.
    same = [
        i for i, (op, traced_op) in enumerate(zip(ops, workload.ops(traced=True)))
        if op.workers == traced_op.workers
    ]
    metrics["trace.overhead_ratio"] = _median_ops(traced, same) / _median_ops(untraced, same) - 1.0
    busy = 0.0
    for i, op in enumerate(ops):
        if op.workers > 1:
            busy = statistics.median(
                p.child_cpu_s[i] / (op.workers * p.op_s[i]) for p in untraced
            )
    metrics["cli.sweep.worker_busy_ratio"] = busy
    return metrics


if __name__ == "__main__":
    sys.exit(main())
