"""Every function in ``src/bfpo`` is run by some command, or :data:`UNREACHED`
says why not.

One small chain of every command runs under :func:`sys.setprofile`, which
records each function entered.  A function that the chain never enters is
either dead code, which belongs deleted or among the tests' oracles
(``tests/oracles.py``), or an entry of :data:`UNREACHED` with its reason.
An entry that the chain does enter is stale and fails the test as well.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

from bfpo.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "bfpo"

_MESSAGE = "a rule's text, read only by the message of a value that the rule rejects"
# perfbench's tracer wraps these by name (its TARGETS), so they stay in
# src/bfpo until the benchmark stops naming them (ROADMAP item 1a), and then
# move to tests/oracles.py (ROADMAP item 4).
_TRACED = "an oracle that perfbench's TARGETS names"
_CALLED = "called only by an oracle that perfbench's TARGETS names"
_SAMPLE = ("a Sample adapter of a table; it moves with Sample, whose objects perfbench's "
           "population_alpha check iterates")
# module.qualname -> why no command of the chain enters it.
UNREACHED = {
    "cli._run_shard": "runs only in a forked sweep child, which the profiler does not follow",
    "datagen._draws_loop": "the generator's fallback for a draw with a bound of 1 or a rejected "
                           "Lemire draw, which no population of the chain meets",
    "schema.Interval.__str__": _MESSAGE,
    "schema.OneOf.__str__": _MESSAGE,
    "schema._NonEmpty.__str__": _MESSAGE,
    "schema.declared": "runs at import, before the profiler starts",
    "trainer.TrainResult.metrics": "library use reads a run's metrics as rows; the CLI writes "
                                   "the table's columns",
    "trainer._StepBatches.__len__": "the Sequence protocol's length of a trainer stack's "
                                    "batches, which the tests read and no command does",
    "alpha.embed": _TRACED,
    "losses.method_loss": _TRACED,
    "losses.method_loss_and_grad": _TRACED,
    "policy.log_prob": _TRACED,
    "policy.log_prob_grad": _TRACED,
    "policy.sample_completion": _TRACED,
    "rewards.implicit_reward": _TRACED,
    "losses.LossBreakdown.of": _CALLED,
    "losses.Stack.of": _CALLED,
    "losses.encode_batch": _CALLED,
    "policy._log_softmax": _CALLED,
    "policy._softmax": _CALLED,
    "policy.bucket": _CALLED,
    "policy.step_log_probs": _CALLED,
    "rewards.RewardConfig.__post_init__": _CALLED,
    "policy.SampleTable.of": _SAMPLE,
    "policy.SampleTable.__iter__": _SAMPLE,
    "policy.SampleTable.__eq__": _SAMPLE,
}


def _defined() -> dict[str, str]:
    """Every function and method defined in ``src/bfpo``, as ``module.qualname``
    (a nested function's with ``<locals>``), and where it is defined."""
    found = {}

    def visit(node: ast.AST, module: str, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found[f"{module}.{qualname}"] = f"{path.relative_to(SRC.parent)}:{child.lineno}"
                visit(child, module, f"{qualname}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "", path)
    return found


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# At V = 12 some user's draws take the generator's loop fallback, which
# would then be entered; at V = 24 none does.
POPULATION = {"n_users": 4, "vocab_size": 24, "overlap_lambda": 0.5, "samples_per_user": 12,
              "prompt_pool_size": 4, "seq_len": 3}
DATASET = {"target_user": "u000", "ratio_x": 1.0, "grouping": "random"}
TRAIN = {"epochs": 1, "batch_size_pos": 4, "learning_rate": 0.1, "beta": 0.1,
         "context_size": 3, "warmstart_epochs": 1}
METHODS = ("sft", "dpo", "kto", "bco", "cbpo_raw", "cbpo")
SWEEPS = {"alpha": [0.0, "estimate"], "ratio_x": [0.5, 1.0], "history_fraction": [0.5, 1.0],
          "grouping": ["random", "unique"], "method": ["bco", "cbpo"]}


def _chain(tmp: Path) -> None:
    """One small run of every command, each expected to exit as it does."""
    base = {"schema_version": 1, "seed": 3}
    corpus = tmp / "corpus"
    gen = _write(tmp / "gen.json", {**base, "out_dir": str(corpus), "population": POPULATION})
    assert main(["generate", "--config", gen]) == 0
    run = {**base, "corpus_dir": str(corpus), "dataset": DATASET}
    for method in METHODS:
        for mode in ("ema", "batch"):
            out = tmp / f"{method}_{mode}"
            train = {**TRAIN, "method": method, "delta_mode": mode}
            cfg = _write(tmp / f"{method}_{mode}.json", {**run, "out_dir": str(out),
                                                         "train": train})
            assert main(["train", "--config", cfg]) == 0
            assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                         "--corpus", str(corpus), "--out", str(out / "eval")]) == 0
    # A warm start that diverges: the numeric abort and its diagnostic dump.
    diverging = {**TRAIN, "method": "cbpo", "warmstart_lr": 1e308}
    cfg = _write(tmp / "abort.json", {**run, "out_dir": str(tmp / "abort"), "train": diverging})
    assert main(["train", "--config", cfg]) == 1
    cfg = _write(tmp / "alpha.json", {**run, "out_dir": str(tmp / "alpha")})
    assert main(["estimate-alpha", "--config", cfg]) == 0
    for k, (axis, grid) in enumerate(SWEEPS.items()):
        cfg = _write(tmp / f"sweep_{axis}.json", {
            **base, "out_dir": str(tmp / f"sweep_{axis}"), "axis": axis, "grid": grid,
            "n_seeds": 1, "population": POPULATION, "dataset": DATASET,
            "train": {**TRAIN, "method": "cbpo"}})
        assert main(["sweep", "--config", cfg, "--workers", "2" if k == 0 else "1"]) == 0
    assert main(["verify", "--out", str(tmp / "verify"), "--fd-cases", "2"]) == 0


def _entered(tmp: Path) -> set[str]:
    """``module.qualname`` of every ``src/bfpo`` function that the chain enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # A cached function's body runs once a process: empty every cache, so
    # that the chain enters each body whatever ran before it.
    for name, module in list(sys.modules.items()):
        if name.startswith("bfpo."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _chain(tmp)
    finally:
        sys.setprofile(previous)
    src = str(SRC)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if c.co_filename.startswith(src)}


def test_every_function_is_run_or_listed(tmp_path, capsys):
    defined = _defined()
    unreached = set(defined) - _entered(tmp_path)
    capsys.readouterr()
    dead = [f"bfpo.{name} ({defined[name]})" for name in sorted(unreached - set(UNREACHED))]
    stale = [f"bfpo.{name}" for name in sorted(set(UNREACHED) - unreached)]
    problems = []
    if dead:
        problems.append(f"no command runs {', '.join(dead)}: move each to tests/oracles.py, "
                        "delete it, or list it in UNREACHED with its reason")
    if stale:
        problems.append(f"a command runs {', '.join(stale)}, so each leaves UNREACHED")
    assert not problems, "; ".join(problems)
