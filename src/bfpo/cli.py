"""Experiment harness: generate, train, evaluate, estimate-alpha, sweep, verify.

All commands read strict JSON configs (unknown keys are errors, a schema
version is required), write only under the configured output directory, and are
byte-reproducible for fixed seeds.  Exit codes: 0 success, 1 property or
experiment failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Sequence

from .datagen import (
    PopulationSpec,
    build_user_dataset,
    generate_population,
    load_corpus,
    load_population_spec,
    population_spec_from_doc,
    save_corpus,
    save_population_spec,
    truncate_history,
)
from .errors import ConfigError, EngineError, InputError, NumericError
from .evaluation import evaluate_policy
from .alpha import DEFAULT_EPOCHS, DEFAULT_HELDOUT_FRACTION, DEFAULT_LR, run_alpha_estimation
from .schema import from_doc
from .trainer import (
    METRICS_COLUMNS,
    TrainConfig,
    load_checkpoint,
    run,
    save_checkpoint,
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


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _check_version(doc: dict, where: str) -> None:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{where}: schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )


def _population_spec(doc: dict, seed: int, where: str) -> PopulationSpec:
    allowed = {f.name for f in fields(PopulationSpec)} - {"seed"}
    _check_keys(doc, allowed, allowed, where)
    try:
        return population_spec_from_doc({**doc, "seed": seed})
    except (InputError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _dataset_cfg(doc: dict, where: str) -> dict:
    allowed = {"target_user", "ratio_x", "grouping", "history_fraction"}
    _check_keys(doc, allowed, {"target_user", "ratio_x", "grouping"}, where)
    try:
        out = {
            "target_user": str(doc["target_user"]),
            "ratio_x": float(doc["ratio_x"]),
            "grouping": str(doc["grouping"]),
            "history_fraction": float(doc.get("history_fraction", 1.0)),
        }
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not 0.0 < out["history_fraction"] <= 1.0:
        raise ConfigError(f"{where}: history_fraction must lie in (0, 1]")
    return out


_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"seed"}


def _train_config(doc: dict, seed: int, where: str) -> TrainConfig:
    _check_keys(doc, _TRAIN_KEYS, {"method"}, where)
    try:
        return from_doc(TrainConfig, {**doc, "seed": seed})
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _run_seed(doc: dict, override: int | None, where: str) -> int:
    if override is not None:
        return override
    try:
        return int(doc["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: seed must be an integer, got {doc['seed']!r}") from exc


def _semantic_hash(parts: dict) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _resolve_out(doc: dict, override: str | None, where: str) -> Path:
    out = override if override is not None else doc.get("out_dir")
    if not out:
        raise ConfigError(f"{where}: an output directory is required (out_dir or --out)")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot create output directory {path}: {exc}") from exc
    return path


def _float_str(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_float_str(row[c]) for c in columns])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(config_path: str, out: str | None, seed: int | None) -> int:
    doc = _load_json(config_path)
    _check_version(doc, "generate config")
    _check_keys(
        doc, {"schema_version", "seed", "out_dir", "population"},
        {"schema_version", "seed", "population"}, "generate config",
    )
    run_seed = _run_seed(doc, seed, "generate config")
    spec = _population_spec(doc["population"], run_seed, "generate config: population")
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
    population, spec = load_corpus(corpus_path), load_population_spec(spec_path)
    for samples in population.values():
        for s in samples:
            if any(t >= spec.vocab_size for t in s.x + s.y):
                raise InputError(
                    f"corpus sample of {s.user_id} has a token id >= vocab_size {spec.vocab_size}"
                )
    return population, spec


def _build_dataset(population: dict, spec: PopulationSpec, dataset_cfg: dict, seed: int):
    dataset = build_user_dataset(
        population,
        dataset_cfg["target_user"],
        dataset_cfg["ratio_x"],
        dataset_cfg["grouping"],
        seed,
        spec.vocab_size,
    )
    if dataset_cfg["history_fraction"] < 1.0:
        dataset = truncate_history(dataset, dataset_cfg["history_fraction"])
    return dataset


def _train_once(
    population: dict,
    spec: PopulationSpec,
    dataset_cfg: dict,
    train_cfg: TrainConfig,
) -> tuple[Any, dict, str]:
    """Shared by train and sweep: build the dataset, run, assemble metadata."""
    dataset = _build_dataset(population, spec, dataset_cfg, train_cfg.seed)
    result = run(dataset, train_cfg, spec.vocab_size)
    config_hash = _semantic_hash(
        {
            "population": asdict(spec),
            "dataset": dataset_cfg,
            "train": train_config_doc(train_cfg),
        }
    )
    meta = {
        "target_user": dataset.target_user,
        "aux_user_ids": dataset.aux_user_ids,
        "ratio_x": dataset.ratio_x,
        "grouping": dataset.grouping,
        "history_fraction": dataset_cfg["history_fraction"],
        "config_hash": config_hash,
        "overlap_lambda": spec.overlap_lambda,
    }
    return result, meta, config_hash


def cmd_train(config_path: str, out: str | None, seed: int | None) -> int:
    doc = _load_json(config_path)
    _check_version(doc, "train config")
    _check_keys(
        doc,
        {"schema_version", "seed", "out_dir", "corpus_dir", "dataset", "train"},
        {"schema_version", "seed", "corpus_dir", "dataset", "train"},
        "train config",
    )
    run_seed = _run_seed(doc, seed, "train config")
    out_dir = _resolve_out(doc, out, "train config")
    population, spec = _load_corpus_dir(doc["corpus_dir"])
    dataset_cfg = _dataset_cfg(doc["dataset"], "train config: dataset")
    train_cfg = _train_config(doc["train"], run_seed, "train config: train")
    try:
        result, meta, _ = _train_once(population, spec, dataset_cfg, train_cfg)
    except NumericError as exc:
        if exc.details is not None:
            _write_json(out_dir / "diagnostic_dump.json", exc.details)
            print(f"aborted: {exc} (dump at {out_dir / 'diagnostic_dump.json'})", file=sys.stderr)
        else:
            print(f"aborted: {exc}", file=sys.stderr)
        return 1
    save_checkpoint(out_dir / "checkpoint.json", result, train_cfg, spec.vocab_size, meta)
    _write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, result.metrics)
    if result.alpha_estimate is not None:
        _write_json(
            out_dir / "alpha_estimate.json",
            {
                "schema_version": SCHEMA_VERSION,
                "c_hat": result.alpha_estimate.c_hat,
                "alpha_hat": result.alpha_estimate.alpha_hat,
                "n_heldout": result.alpha_estimate.n_heldout,
                "n_aux": result.alpha_estimate.n_aux,
            },
        )
    print(f"trained {train_cfg.method.value} for {len(result.metrics)} steps -> {out_dir}")
    return 0


def cmd_evaluate(checkpoint_path: str, corpus_dir: str, out: str | None) -> int:
    checkpoint = load_checkpoint(checkpoint_path)
    population, spec = _load_corpus_dir(corpus_dir)
    if spec.vocab_size != checkpoint.vocab_size:
        raise ConfigError(
            f"vocab mismatch: corpus has {spec.vocab_size}, checkpoint has {checkpoint.vocab_size}"
        )
    try:
        target_user = checkpoint.dataset_meta["target_user"]
        aux_user_ids = list(checkpoint.dataset_meta["aux_user_ids"])
        beta = float(checkpoint.config["beta"])
        method = str(checkpoint.config["method"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {checkpoint_path} is malformed: {exc!r}") from exc
    report = evaluate_policy(
        checkpoint.policy,
        checkpoint.reference,
        population,
        target_user,
        aux_user_ids,
        beta=beta,
        method=method,
        config_hash=str(checkpoint.dataset_meta.get("config_hash", "")),
        checkpoint_step=checkpoint.step,
    )
    doc = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    if out is not None:
        out_dir = _resolve_out({"out_dir": out}, out, "evaluate")
        _write_json(out_dir / "eval_report.json", doc)
        print(f"wrote {out_dir / 'eval_report.json'}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_estimate_alpha(config_path: str, out: str | None, seed: int | None) -> int:
    doc = _load_json(config_path)
    _check_version(doc, "estimate-alpha config")
    _check_keys(
        doc,
        {"schema_version", "seed", "out_dir", "corpus_dir", "dataset", "estimator"},
        {"schema_version", "seed", "corpus_dir", "dataset"},
        "estimate-alpha config",
    )
    run_seed = _run_seed(doc, seed, "estimate-alpha config")
    out_dir = _resolve_out(doc, out, "estimate-alpha config")
    population, spec = _load_corpus_dir(doc["corpus_dir"])
    dataset_cfg = _dataset_cfg(doc["dataset"], "estimate-alpha config: dataset")
    est_doc = doc.get("estimator", {})
    _check_keys(
        est_doc, {"heldout_fraction", "epochs", "lr"}, set(), "estimate-alpha config: estimator"
    )
    try:
        heldout_fraction = float(est_doc.get("heldout_fraction", DEFAULT_HELDOUT_FRACTION))
        epochs = int(est_doc.get("epochs", DEFAULT_EPOCHS))
        lr = float(est_doc.get("lr", DEFAULT_LR))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"estimate-alpha config: estimator: {exc}") from exc
    dataset = _build_dataset(population, spec, dataset_cfg, run_seed)
    estimate = run_alpha_estimation(
        dataset.tar_train,
        dataset.aux_train,
        spec.vocab_size,
        heldout_fraction=heldout_fraction,
        epochs=epochs,
        lr=lr,
        seed=run_seed,
    )
    _write_json(
        out_dir / "alpha_estimate.json",
        {
            "schema_version": SCHEMA_VERSION,
            "c_hat": estimate.c_hat,
            "alpha_hat": estimate.alpha_hat,
            "n_heldout": estimate.n_heldout,
            "n_aux": estimate.n_aux,
            "target_user": dataset.target_user,
            "grouping": dataset.grouping,
            "ratio_x": dataset.ratio_x,
        },
    )
    print(f"alpha_hat={estimate.alpha_hat:.4f} (c_hat={estimate.c_hat:.4f}) -> {out_dir}")
    return 0


# --- sweep ------------------------------------------------------------------


def _sweep_apply_axis(dataset_cfg: dict, train_doc: dict, axis: str, value: Any) -> None:
    if axis == "alpha":
        train_doc["alpha"] = value
    elif axis == "method":
        train_doc["method"] = value
    elif axis == "ratio_x":
        dataset_cfg["ratio_x"] = float(value)
    elif axis == "history_fraction":
        dataset_cfg["history_fraction"] = float(value)
    elif axis == "grouping":
        dataset_cfg["grouping"] = str(value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")


def _sweep_task(task: dict) -> dict:
    """One grid point: generate the seed's population, train, evaluate.

    Every task regenerates its population from the spec; generation is a pure
    function of the spec, so tasks of one seed see the same corpus.
    """
    spec = PopulationSpec(**task["population"])
    population = generate_population(spec)
    dataset_cfg = dict(task["dataset"])
    train_doc = dict(task["train"])
    _sweep_apply_axis(dataset_cfg, train_doc, task["axis"], task["value"])
    train_doc["delta_mode"] = task["delta_mode"]
    train_cfg = _train_config(train_doc, task["seed"], "sweep grid point")
    result, meta, config_hash = _train_once(population, spec, dataset_cfg, train_cfg)
    report = evaluate_policy(
        result.policy,
        result.reference,
        population,
        meta["target_user"],
        meta["aux_user_ids"],
        beta=train_cfg.beta,
        method=train_cfg.method.value,
        config_hash=config_hash,
        checkpoint_step=len(result.metrics),
    )
    return {
        "axis": task["axis"],
        "value": task["value"],
        "seed": task["seed"],
        "config_hash": config_hash,
        "method": train_cfg.method.value,
        "alpha": train_cfg.alpha,
        "alpha_resolved": result.alpha_resolved,
        "ratio_x": dataset_cfg["ratio_x"],
        "grouping": dataset_cfg["grouping"],
        "history_fraction": dataset_cfg["history_fraction"],
        "delta_mode": train_cfg.delta_mode,
        "overlap_lambda": spec.overlap_lambda,
        "target_user": meta["target_user"],
        "heldout_nll": report.heldout_nll,
        "pref_acc": report.pref_acc,
        "delta_logp_aux": report.delta_logp_aux,
        "_order": task["_order"],
    }


def cmd_sweep(config_path: str, out: str | None, seed: int | None, workers: int) -> int:
    doc = _load_json(config_path)
    _check_version(doc, "sweep config")
    _check_keys(
        doc,
        {"schema_version", "seed", "out_dir", "axis", "grid", "n_seeds",
         "delta_modes", "population", "dataset", "train"},
        {"schema_version", "seed", "axis", "grid", "n_seeds", "population",
         "dataset", "train"},
        "sweep config",
    )
    axis = str(doc["axis"])
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep config: axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = list(doc["grid"])
    if not grid:
        raise ConfigError("sweep config: grid must be non-empty")
    try:
        n_seeds = int(doc["n_seeds"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep config: n_seeds must be an integer: {exc}") from exc
    if n_seeds < 1:
        raise ConfigError("sweep config: n_seeds must be >= 1")
    base_seed = _run_seed(doc, seed, "sweep config")
    out_dir = _resolve_out(doc, out, "sweep config")
    dataset_cfg = _dataset_cfg(doc["dataset"], "sweep config: dataset")
    _check_keys(doc["train"], _TRAIN_KEYS, {"method"}, "sweep config: train")
    spec = _population_spec(doc["population"], base_seed, "sweep config: population")
    delta_modes = list(doc.get("delta_modes", [doc["train"].get("delta_mode", "ema")]))

    tasks = []
    order = 0
    for value in grid:
        for mode in delta_modes:
            for s in range(n_seeds):
                run_seed = base_seed + s
                tasks.append(
                    {
                        "axis": axis,
                        "value": value,
                        "seed": run_seed,
                        "delta_mode": mode,
                        "population": {**asdict(spec), "seed": run_seed},
                        "dataset": dataset_cfg,
                        "train": doc["train"],
                        "_order": order,
                    }
                )
                order += 1

    partial_path = out_dir / "sweep_partial.csv"
    rows: list[dict] = []
    with partial_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        fh.flush()
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for row in pool.map(_sweep_task, tasks):
                    rows.append(row)
                    writer.writerow([_float_str(row[c]) for c in SWEEP_COLUMNS])
                    fh.flush()
        else:
            for task in tasks:
                row = _sweep_task(task)
                rows.append(row)
                writer.writerow([_float_str(row[c]) for c in SWEEP_COLUMNS])
                fh.flush()

    rows.sort(key=lambda r: r["_order"])
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    partial_path.unlink()
    print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_verify(out: str | None, seed: int | None, fd_cases: int) -> int:
    results = run_all_checks(seed=seed if seed is not None else 0, fd_cases=fd_cases)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if out is not None:
        out_dir = _resolve_out({"out_dir": out}, out, "verify")
        _write_json(out_dir / "verify_report.json", doc)
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


def _build_parser() -> argparse.ArgumentParser:
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
    args = _build_parser().parse_args(argv)
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
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
