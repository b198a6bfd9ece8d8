"""Span recording around the public calls of each bfpo layer.

The tracer replaces a function with a timing wrapper in every ``bfpo`` module
that binds it (``bfpo.losses.log_prob``, ``bfpo.rewards.log_prob``, ...), so
calls are seen whichever module makes them, and puts the original objects back
on ``restore``.  Spans live in flat arrays while the workload runs; nothing is
written until ``write_csv`` is called at the end of the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# (defining module, function) pairs, one per layer boundary the benchmark reports.
TARGETS = (
    ("bfpo.trainer", "run"),
    ("bfpo.trainer", "train_step"),
    ("bfpo.trainer", "make_batches"),
    ("bfpo.trainer", "synth_dpo_pairs"),
    ("bfpo.trainer", "save_checkpoint"),
    ("bfpo.trainer", "load_checkpoint"),
    ("bfpo.policy", "snapshot_reference"),
    ("bfpo.policy", "log_prob"),
    ("bfpo.policy", "log_prob_grad"),
    ("bfpo.policy", "sample_completion"),
    ("bfpo.rewards", "implicit_reward"),
    ("bfpo.losses", "method_loss_and_grad"),
    ("bfpo.losses", "method_loss"),
    ("bfpo.alpha", "run_alpha_estimation"),
    ("bfpo.alpha", "train_proxy"),
    ("bfpo.alpha", "embed"),
    ("bfpo.datagen", "generate_population"),
    ("bfpo.datagen", "build_user_dataset"),
    ("bfpo.datagen", "save_corpus"),
    ("bfpo.datagen", "load_corpus"),
    ("bfpo.evaluation", "evaluate_policy"),
    ("bfpo.cli", "cmd_generate"),
    ("bfpo.cli", "cmd_train"),
    ("bfpo.cli", "cmd_evaluate"),
    ("bfpo.cli", "cmd_sweep"),
    ("bfpo.pu", "run_unbiasedness_check"),
    ("bfpo.pu", "run_convergence_check"),
    ("bfpo.pu", "run_negativity_check"),
    ("bfpo.verification", "run_gradient_fd_check"),
    ("bfpo.verification", "finite_difference_grad"),
    ("bfpo.verification", "run_clamp_check"),
)


def span_name(module: str, attr: str) -> str:
    """``bfpo.losses`` + ``log_prob`` -> ``losses.log_prob``."""
    return f"{module.split('.', 1)[1]}.{attr}"


def bfpo_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "bfpo" or name.startswith("bfpo."))
    ]


class Tracer:
    """Records (name, start, end, parent, op id) for every wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every bfpo module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = bfpo_modules()
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        name_of, start, end, parent, op = (
            self.name_of, self.start, self.end, self.parent, self.op
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- read-out -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, first: int, scale: list[float]) -> "SpanSummary":
        return SpanSummary(self, first, scale)

    def write_csv(self, path: Path) -> None:
        """One line per span; times are seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with path.open("w") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n"
                )


class SpanSummary:
    """Per-name aggregates over the spans from index ``first`` on.

    Each duration is multiplied by ``scale[op id]``, the speed scale of the op
    the span belongs to, like every time the benchmark reports.
    """

    def __init__(self, tracer: Tracer, first: int, scale: list[float]) -> None:
        last = len(tracer)
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.calls_in_step: dict[str, int] = {}
        self.warm_start_s = 0.0
        child_s = [0.0] * (last - first)
        in_step = [False] * (last - first)
        names = tracer.names
        step_id = tracer.name_ids.get("trainer.train_step", -2)
        snapshot_id = tracer.name_ids.get("policy.snapshot_reference", -2)
        run_id = tracer.name_ids.get("trainer.run", -2)
        durations = [
            (tracer.end[i] - tracer.start[i]) * scale[tracer.op[i]] for i in range(first, last)
        ]
        for i in range(first, last):
            duration = durations[i - first]
            p = tracer.parent[i]
            local_parent = p - first if p >= first else -1
            if local_parent >= 0:
                child_s[local_parent] += duration
                in_step[i - first] = in_step[local_parent]
            name_id = tracer.name_of[i]
            name = names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.durations.setdefault(name, []).append(duration)
            if in_step[i - first]:
                self.calls_in_step[name] = self.calls_in_step.get(name, 0) + 1
            if name_id == step_id:
                in_step[i - first] = True
            if name_id == snapshot_id and local_parent >= 0:
                if tracer.name_of[p] == run_id:
                    self.warm_start_s += (
                        (tracer.start[i] - tracer.start[p]) * scale[tracer.op[i]]
                    )
        for i in range(first, last):
            name = names[tracer.name_of[i]]
            self.self_s[name] = (
                self.self_s.get(name, 0.0) + durations[i - first] - child_s[i - first]
            )
