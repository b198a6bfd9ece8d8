"""Experiment harness: generate, train, evaluate, estimate-alpha, sweep, verify.

All commands read strict JSON configs (unknown keys are errors, a schema
version is required), write only under the configured output directory, and are
byte-reproducible for fixed seeds.  Exit codes: 0 success, 1 property or
experiment failure, a failed file operation (an ``OSError``, such as a full
disk) or a failed allocation (a ``MemoryError``), 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from contextlib import ExitStack
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .alpha import SEED, EstimatorConfig, run_alpha_estimation
from .datagen import (
    DatasetConfig,
    PopulationSpec,
    UserDataset,
    build_user_dataset,
    generate_population,
    load_corpus,
    load_population_spec,
    save_corpus,
    save_population_spec,
    truncate_history,
)
from .errors import ConfigError, EngineError, InputError, NumericError
from .evaluation import evaluate_policy
from .files import decode_json, write_atomic
from .policy import SampleTable
from .schema import NON_EMPTY, Interval, OneOf, cast, check, declared, from_doc, require
from .trainer import (
    METRICS_COLUMNS,
    TrainConfig,
    check_trainable,
    load_checkpoint,
    run,
    run_many,
    save_checkpoint,
    stack_runs,
    train_config_doc,
)
from .verification import run_all_checks

SCHEMA_VERSION = 1

SWEEP_AXES = ("alpha", "ratio_x", "history_fraction", "grouping", "method")

SWEEP_COLUMNS = (
    "axis",
    "value",
    "seed",
    "config_hash",
    "method",
    "alpha",
    "alpha_resolved",
    "ratio_x",
    "grouping",
    "history_fraction",
    "delta_mode",
    "overlap_lambda",
    "target_user",
    "heldout_nll",
    "pref_acc",
    "delta_logp_aux",
)


@dataclass(frozen=True)
class SweepKeys:
    """A sweep config's own top-level keys besides its blocks; ``delta_modes``
    None sweeps the train block's ``delta_mode`` alone."""

    axis: str = declared(OneOf(SWEEP_AXES))
    grid: list = declared(NON_EMPTY)
    n_seeds: int = declared(Interval(1))
    delta_modes: list[str] | None = declared(NON_EMPTY, None)

    def __post_init__(self) -> None:
        check(self, ConfigError)


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------


def _load_config(
    path: str, seed: int | None, where: str, required: set[str], optional: Sequence[str] = ()
) -> tuple[dict, int]:
    """A command's config document and its run seed (``--seed`` over ``seed``;
    a negative one is a :class:`ConfigError`).

    Besides the command's own keys, every config has ``schema_version`` and
    ``seed`` and may have ``out_dir``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, say
        raise ConfigError(f"config {path} is not readable: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason}") from exc
    doc = decode_json(text, ConfigError, f"config {path}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{where}: schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    required = required | {"schema_version", "seed"}
    _check_keys(doc, required | {*optional, "out_dir"}, required, where)
    run_seed = _value(doc, "seed", int, where)
    run_seed = run_seed if seed is None else seed
    require(SEED, f"{where}: seed", run_seed, ConfigError)
    return doc, run_seed


def _check_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _value(doc: dict, key: str, tp: Any, where: str) -> Any:
    """A top-level config value, cast to ``tp`` by the rules of the config blocks."""
    try:
        return cast(tp, doc[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def _block(cls: type, doc: Any, where: str, required: set[str] | None = None, **fixed: Any) -> Any:
    """A config block read into the dataclass ``cls`` by :func:`bfpo.schema.from_doc`.

    Its keys are the fields of ``cls`` less those in ``fixed`` (values the
    command supplies, such as the seed); the required keys are ``required``,
    by default the fields without a default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    names = {f.name for f in fields(cls)}
    if required is None:
        required = {f.name for f in fields(cls) if f.default is MISSING}
    _check_keys(doc, names - set(fixed), required - set(fixed), where)
    try:
        return from_doc(cls, {**doc, **fixed})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve_out(doc: dict, override: str | None, where: str) -> Path:
    """The output directory, ``--out`` over ``out_dir``, created.  Commands call
    it once their whole config is cast and their inputs are read."""
    out = _value(doc, "out_dir", str, where) if "out_dir" in doc else None
    if override is not None:
        out = override
    if not out:
        raise ConfigError(f"{where}: an output directory is required (out_dir or --out)")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot create output directory {path}: {exc}") from exc
    return path


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``rows``, each its cells in ``columns`` order, as CSV, each cell written
    as ``str`` writes it (a float as its shortest round-trip repr, a numpy
    float as the same digits)."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


def _write_json(path: Path, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(config_path: str, out: str | None, seed: int | None) -> int:
    doc, run_seed = _load_config(config_path, seed, "generate config", {"population"})
    spec = _block(PopulationSpec, doc["population"], "generate config: population", seed=run_seed)
    out_dir = _resolve_out(doc, out, "generate config")
    population = generate_population(spec)
    save_corpus(population, out_dir / "corpus.jsonl")
    save_population_spec(spec, out_dir / "population_spec.json")
    n = sum(len(v) for v in population.values())
    print(f"wrote {n} samples for {spec.n_users} users to {out_dir / 'corpus.jsonl'}")
    return 0


def _load_corpus_dir(corpus_dir: str | Path) -> tuple[dict, PopulationSpec]:
    corpus_dir = Path(corpus_dir)
    corpus_path = corpus_dir / "corpus.jsonl"
    spec_path = corpus_dir / "population_spec.json"
    if not corpus_path.exists() or not spec_path.exists():
        raise ConfigError(f"corpus directory {corpus_dir} is missing corpus.jsonl or population_spec.json")
    spec = load_population_spec(spec_path)
    return load_corpus(corpus_path, spec.vocab_size), spec


def _build_dataset(
    population: dict, spec: PopulationSpec, dataset_cfg: DatasetConfig, seed: int
) -> UserDataset:
    dataset = build_user_dataset(
        population,
        dataset_cfg.target_user,
        dataset_cfg.ratio_x,
        dataset_cfg.grouping,
        seed,
        spec.vocab_size,
    )
    if dataset_cfg.history_fraction < 1.0:
        dataset = truncate_history(dataset, dataset_cfg.history_fraction)
    return dataset


def _run_meta(
    dataset: UserDataset,
    spec: PopulationSpec,
    dataset_cfg: DatasetConfig,
    train_cfg: TrainConfig,
) -> dict:
    """Shared by train and sweep: a run's dataset metadata and config hash."""
    parts = {
        "population": asdict(spec),
        "dataset": asdict(dataset_cfg),
        "train": train_config_doc(train_cfg),
    }
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return {
        **asdict(dataset_cfg),
        "aux_user_ids": dataset.aux_user_ids,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:12],
        "overlap_lambda": spec.overlap_lambda,
    }


def cmd_train(config_path: str, out: str | None, seed: int | None) -> int:
    doc, run_seed = _load_config(
        config_path, seed, "train config", {"corpus_dir", "dataset", "train"}
    )
    dataset_cfg = _block(DatasetConfig, doc["dataset"], "train config: dataset")
    train_cfg = _block(
        TrainConfig, doc["train"], "train config: train", required={"method"}, seed=run_seed
    )
    population, spec = _load_corpus_dir(_value(doc, "corpus_dir", str, "train config"))
    dataset = _build_dataset(population, spec, dataset_cfg, run_seed)
    check_trainable(dataset, train_cfg)
    out_dir = _resolve_out(doc, out, "train config")
    try:
        result = run(dataset, train_cfg, spec.vocab_size)
    except NumericError as exc:
        if exc.details is not None:
            _write_json(out_dir / "diagnostic_dump.json", exc.details)
            print(f"aborted: {exc} (dump at {out_dir / 'diagnostic_dump.json'})", file=sys.stderr)
        else:
            print(f"aborted: {exc}", file=sys.stderr)
        return 1
    meta = _run_meta(dataset, spec, dataset_cfg, train_cfg)
    save_checkpoint(out_dir / "checkpoint.json", result, train_cfg, spec.vocab_size, meta)
    _write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, result.metrics_table.rows())
    if result.alpha_estimate is not None:
        _write_json(
            out_dir / "alpha_estimate.json",
            {"schema_version": SCHEMA_VERSION, **asdict(result.alpha_estimate)},
        )
    print(f"trained {train_cfg.method.value} for {len(result.metrics_table)} steps -> {out_dir}")
    return 0


def cmd_evaluate(checkpoint_path: str, corpus_dir: str, out: str | None) -> int:
    checkpoint = load_checkpoint(checkpoint_path)
    population, spec = _load_corpus_dir(corpus_dir)
    if spec.vocab_size != checkpoint.vocab_size:
        raise ConfigError(
            f"vocab mismatch: corpus has {spec.vocab_size}, checkpoint has {checkpoint.vocab_size}"
        )
    # The config block is every TrainConfig field, plus the resolved alpha.
    train_cfg = _block(
        TrainConfig,
        {k: v for k, v in checkpoint.config.items() if k != "alpha_resolved"},
        f"checkpoint {checkpoint_path}: config",
        required={f.name for f in fields(TrainConfig)},
    )
    try:
        target_user = cast(str, checkpoint.dataset_meta["target_user"])
        aux_user_ids = cast(list[str], checkpoint.dataset_meta["aux_user_ids"])
        config_hash = cast(str, checkpoint.dataset_meta.get("config_hash", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {checkpoint_path} is malformed: {exc!r}") from exc
    report = evaluate_policy(
        checkpoint.policy,
        checkpoint.reference,
        population,
        target_user,
        aux_user_ids,
        beta=train_cfg.beta,
        method=train_cfg.method.value,
        config_hash=config_hash,
        checkpoint_step=checkpoint.step,
    )
    doc = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    if out is not None:
        out_dir = _resolve_out({}, out, "evaluate")
        _write_json(out_dir / "eval_report.json", doc)
        print(f"wrote {out_dir / 'eval_report.json'}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_estimate_alpha(config_path: str, out: str | None, seed: int | None) -> int:
    doc, run_seed = _load_config(
        config_path, seed, "estimate-alpha config", {"corpus_dir", "dataset"}, ("estimator",)
    )
    dataset_cfg = _block(DatasetConfig, doc["dataset"], "estimate-alpha config: dataset")
    estimator = _block(
        EstimatorConfig, doc.get("estimator", {}), "estimate-alpha config: estimator"
    )
    population, spec = _load_corpus_dir(_value(doc, "corpus_dir", str, "estimate-alpha config"))
    dataset = _build_dataset(population, spec, dataset_cfg, run_seed)
    out_dir = _resolve_out(doc, out, "estimate-alpha config")
    estimate = run_alpha_estimation(
        dataset.tar_train,
        dataset.aux_train,
        spec.vocab_size,
        **asdict(estimator),
        seed=run_seed,
    )
    _write_json(
        out_dir / "alpha_estimate.json",
        {
            "schema_version": SCHEMA_VERSION,
            **asdict(estimate),
            "target_user": dataset.target_user,
            "grouping": dataset.grouping,
            "ratio_x": dataset.ratio_x,
        },
    )
    print(f"alpha_hat={estimate.alpha_hat:.4f} (c_hat={estimate.c_hat:.4f}) -> {out_dir}")
    return 0


# --- sweep ------------------------------------------------------------------


class _SweepTask(NamedTuple):
    """One grid point: its population (seeded), dataset and train config."""

    axis: str
    value: Any
    spec: PopulationSpec
    dataset: DatasetConfig
    train: TrainConfig


def _sweep_unit(
    unit: list[tuple[int, _SweepTask, dict[str, SampleTable], UserDataset]],
) -> list[tuple[int, dict]]:
    """One unit of a sweep: indexed grid points, each with its seed's
    population and its dataset as the sweep built them for its checks.  Train
    the runs through one :func:`bfpo.trainer.run_many` call and evaluate each.
    Returns each task's index and ``sweep.csv`` row."""
    results = run_many(
        [dataset for _, _, _, dataset in unit], [task.train for _, task, _, _ in unit],
        unit[0][1].spec.vocab_size,
    )
    rows = []
    for (index, task, population, dataset), result in zip(unit, results):
        meta = _run_meta(dataset, task.spec, task.dataset, task.train)
        report = evaluate_policy(
            result.policy,
            result.reference,
            population,
            meta["target_user"],
            meta["aux_user_ids"],
            beta=task.train.beta,
            method=task.train.method.value,
            config_hash=meta["config_hash"],
            checkpoint_step=len(result.metrics_table),
        )
        rows.append((index, {
            "axis": task.axis,
            "value": task.value,
            "seed": task.train.seed,
            "config_hash": meta["config_hash"],
            "method": task.train.method.value,
            "alpha": task.train.alpha,
            "alpha_resolved": result.alpha_resolved,
            **asdict(task.dataset),
            "delta_mode": task.train.delta_mode,
            "overlap_lambda": task.spec.overlap_lambda,
            "heldout_nll": report.heldout_nll,
            "pref_acc": report.pref_acc,
            "delta_logp_aux": report.delta_logp_aux,
        }))
    return rows


def _run_shard(shard: list, conn: Any) -> None:
    """A forked child's work: send each unit's rows of ``shard`` down ``conn``,
    or the exception that stopped it."""
    try:
        for unit in shard:
            conn.send(_sweep_unit(unit))
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


def _start_shard(shard: list, stack: ExitStack) -> Iterator[list[tuple[int, dict]]]:
    """Fork a child that runs ``shard`` (inherited, not pickled) and return
    its units' rows as they arrive.  The child is killed and joined when
    ``stack`` closes, on every way out of the sweep."""
    # Imported here, so that only a sweep of more than one worker loads it.
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_run_shard, args=(shard, send), daemon=True)
    child.start()
    stack.callback(child.join)
    stack.callback(child.kill)
    stack.enter_context(receive)
    # Closed here, so that the pipe ends when the child does.
    send.close()
    return _received(receive, len(shard))


def _received(conn: Any, n_units: int) -> Iterator[list[tuple[int, dict]]]:
    """The rows of a child's ``n_units`` units, as they arrive; a unit's
    exception is raised again here."""
    for _ in range(n_units):
        try:
            done = conn.recv()
        except EOFError:
            raise EngineError("a sweep worker stopped before sending its rows") from None
        if isinstance(done, Exception):
            raise done
        yield done


def cmd_sweep(config_path: str, out: str | None, seed: int | None, workers: int) -> int:
    require(Interval(1), "sweep: --workers", workers, ConfigError)
    doc, base_seed = _load_config(
        config_path, seed, "sweep config",
        {"axis", "grid", "n_seeds", "population", "dataset", "train"}, ("delta_modes",),
    )
    names = [f.name for f in fields(SweepKeys) if f.name in doc]
    keys = _block(SweepKeys, {name: doc[name] for name in names}, "sweep config")
    axis, grid, n_seeds = keys.axis, keys.grid, keys.n_seeds
    spec = _block(PopulationSpec, doc["population"], "sweep config: population", seed=base_seed)
    _block(DatasetConfig, doc["dataset"], "sweep config: dataset")
    base_train = _block(
        TrainConfig, doc["train"], "sweep config: train", required={"method"}, seed=base_seed
    )
    delta_modes = keys.delta_modes or [base_train.delta_mode]

    # Every grid point is cast and checked before anything is written.
    tasks = []
    for value in grid:
        where = f"sweep config: {axis} grid value {value!r}"
        block = "train" if axis in ("alpha", "method") else "dataset"
        point = {**doc, block: {**doc[block], axis: value}}
        dataset_cfg = _block(DatasetConfig, point["dataset"], f"{where}: dataset")
        for mode in delta_modes:
            for run_seed in range(base_seed, base_seed + n_seeds):
                train_cfg = _block(
                    TrainConfig, {**point["train"], "delta_mode": mode}, f"{where}: train",
                    required={"method"}, seed=run_seed,
                )
                tasks.append(_SweepTask(
                    axis, value, replace(spec, seed=run_seed), dataset_cfg, train_cfg
                ))
    # So is each distinct dataset, and each task's run on it: a bad target
    # user or ratio_x, or a dataset a task cannot train, fails here.  Each
    # task joins the work list, seed by seed, with its seed's population and
    # its dataset: the units train on these (building them again costs about
    # 1.6 ms each on the frozen acceptance config, and a forked child
    # inherits them).  So the sweep holds every seed's population and
    # datasets until it ends, and its memory grows with n_seeds times the
    # dataset configs (BENCH_cli_io.json, sweep_memory).
    configs = list(dict.fromkeys(task.dataset for task in tasks))
    work = []
    for run_seed in range(base_seed, base_seed + n_seeds):
        population = generate_population(replace(spec, seed=run_seed))
        built = {cfg: _build_dataset(population, spec, cfg, run_seed) for cfg in configs}
        for i, task in enumerate(tasks):
            if task.spec.seed == run_seed:
                check_trainable(built[task.dataset], task.train)
                work.append((i, task, population, built[task.dataset]))
    out_dir = _resolve_out(doc, out, "sweep config")

    # The work list is cut into contiguous units of at most one stack and at
    # most ceil(n / workers) tasks; run_many decides which of a unit's runs
    # train together.  The units are dealt round-robin into one shard per
    # worker.  This process runs shard 0 and a forked child each other
    # shard; sweep_partial.csv gets this process's rows as each of its units
    # finishes, then each child's as they arrive.  Once every row is in,
    # sweep.csv is written while the children are still exiting; they are
    # killed and joined after it, as on every other way out.
    size = min(-(-len(work) // workers), stack_runs(base_train.context_size, spec.vocab_size))
    units = [work[lo : lo + size] for lo in range(0, len(work), size)]
    n_shards = min(workers, len(units))
    shards = [units[k::n_shards] for k in range(n_shards)]

    partial_path = out_dir / "sweep_partial.csv"
    rows: list[list | None] = [None] * len(tasks)
    with partial_path.open("w", newline="") as fh, ExitStack() as stack:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        fh.flush()  # so that a forked child inherits no buffered bytes
        children = [_start_shard(shard, stack) for shard in shards[1:]]
        for done in chain(map(_sweep_unit, shards[0]), *children):
            for index, row in done:
                rows[index] = [row[c] for c in SWEEP_COLUMNS]
                writer.writerow(rows[index])
            fh.flush()
        _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
        partial_path.unlink()
    print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_verify(out: str | None, seed: int | None, fd_cases: int) -> int:
    if seed is not None:
        require(SEED, "verify: --seed", seed, ConfigError)
    require(Interval(1), "verify: --fd-cases", fd_cases, ConfigError)
    timed = run_all_checks(seed=seed if seed is not None else 0, fd_cases=fd_cases)
    results = [r for r, _ in timed]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if out is not None:
        out_dir = _resolve_out({}, out, "verify")
        _write_json(out_dir / "verify_report.json", doc)
        # Timings differ run to run, so they stay out of the byte-compared report.
        _write_json(out_dir / "verify_timing.json", {
            "schema_version": SCHEMA_VERSION,
            "checks": [{"name": r.name, "wall_s": s} for r, s in timed],
            "total_wall_s": sum(s for _, s in timed),
        })
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    if not doc["all_passed"]:
        failed = [r.name for r in results if not r.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (building it costs
    about 1 ms, mostly in gettext); each ``parse_args`` call makes its own
    namespace, so successive calls share nothing else."""
    parser = argparse.ArgumentParser(
        prog="bfpo",
        description="Binary-feedback preference optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    common(sub.add_parser("generate", help="write a synthetic corpus"))
    common(sub.add_parser("train", help="train one method on one user"))

    p_eval = sub.add_parser("evaluate", help="held-out report for a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True, help="corpus directory")
    p_eval.add_argument("--out", default=None)

    common(sub.add_parser("estimate-alpha", help="estimate the overlap coefficient"))

    p_sweep = sub.add_parser("sweep", help="grid of generate->train->evaluate runs")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run the property check suite")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--fd-cases", type=int, default=50)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args.config, args.out, args.seed)
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed)
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.corpus, args.out)
        if args.command == "estimate-alpha":
            return cmd_estimate_alpha(args.config, args.out, args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.seed, args.workers)
        if args.command == "verify":
            return cmd_verify(args.out, args.seed, args.fd_cases)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
