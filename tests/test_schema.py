"""Config documents: the one caster, the declared rules, and every exported
name resolves."""

from __future__ import annotations

import importlib
import math
import pkgutil
import re
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import bfpo
from bfpo import schema
from bfpo.alpha import EstimatorConfig, run_alpha_estimation, split_heldout, train_proxy
from bfpo.cli import SweepKeys
from bfpo.datagen import (
    SEED,
    DatasetConfig,
    PopulationSpec,
    build_user_dataset,
    truncate_history,
)
from bfpo.errors import ConfigError, InputError
from bfpo.losses import LossConfig, Method
from bfpo.rewards import ReferenceState, RewardConfig
from bfpo.schema import Interval, OneOf, cast, from_doc, rules
from bfpo.trainer import TrainConfig

from conftest import small_population

POPULATION = {"n_users": 6, "vocab_size": 24, "overlap_lambda": 0.5,
              "samples_per_user": 20, "prompt_pool_size": 8, "seq_len": 5, "seed": 1}
DATASET = {"target_user": "u000", "ratio_x": 1.5, "grouping": "random"}


class TestFromDoc:
    @pytest.mark.parametrize(
        "key, value, cast",
        [("n_users", "6", 6), ("n_users", 6.0, 6), ("overlap_lambda", 1, 1.0),
         ("overlap_lambda", "0.5", 0.5)],
    )
    def test_accepted_population_values(self, key, value, cast):
        spec = from_doc(PopulationSpec, {**POPULATION, key: value})
        assert getattr(spec, key) == cast and type(getattr(spec, key)) is type(cast)

    def test_train_config_types(self):
        config = from_doc(TrainConfig, {
            "method": "bco", "alpha": 0, "batch_size_aux": None, "warmstart_lr": None,
            "momentum_params": [0.5, 0.9, 1], "epochs": 2.0, "schema_version": 1,
        })
        assert config.method is Method.BCO
        assert config.alpha == 0.0 and isinstance(config.alpha, float)
        assert config.batch_size_aux is None and config.warmstart_lr is None
        assert config.momentum_params == (0.5, 0.9, 1.0)
        assert config.epochs == 2 and isinstance(config.epochs, int)
        assert from_doc(TrainConfig, {"alpha": "estimate"}).alpha == "estimate"

    def test_dataset_and_estimator_types(self):
        dataset = from_doc(DatasetConfig, {**DATASET, "ratio_x": 2, "history_fraction": "0.5"})
        assert dataset == DatasetConfig("u000", 2.0, "random", 0.5)
        assert isinstance(dataset.ratio_x, float)
        assert from_doc(DatasetConfig, DATASET).history_fraction == 1.0
        assert from_doc(EstimatorConfig, {"epochs": 40.0}) == EstimatorConfig(epochs=40)

    @pytest.mark.parametrize(
        "cls, edit",
        [(PopulationSpec, {"overlap_lambda": False}), (PopulationSpec, {"seq_len": "5.0"}),
         (TrainConfig, {"momentum_params": "abc"}), (TrainConfig, {"alpha": True}),
         (TrainConfig, {"delta_mode": 3}), (TrainConfig, {"method": "ppo"}),
         (TrainConfig, {"learning_rate": "nan"}), (TrainConfig, {"beta": float("inf")}),
         (DatasetConfig, {"target_user": 0}), (DatasetConfig, {"ratio_x": 0}),
         (DatasetConfig, {"ratio_x": "inf"}), (DatasetConfig, {"grouping": "bogus"}),
         (DatasetConfig, {"history_fraction": 0}), (EstimatorConfig, {"lr": "nan"})],
        ids=repr,
    )
    def test_rejected_values_name_the_field(self, cls, edit):
        """Rows beyond the CLI's exit-2 table (tests/test_cli.py)."""
        base = {PopulationSpec: POPULATION, DatasetConfig: DATASET}.get(cls, {})
        with pytest.raises(ValueError, match=next(iter(edit))):
            from_doc(cls, {**base, **edit})

    def test_lists(self):
        assert cast(list, [1, "a"]) == [1, "a"]
        assert cast(list[str], ["ema", "batch"]) == ["ema", "batch"]
        for tp, value in ((list, 5), (list, "ab"), (list[str], ["ema", 1])):
            with pytest.raises((TypeError, ValueError)):
                cast(tp, value)

    def test_int_lists_and_bools(self):
        """Corpus tokens and checkpoint flags: an int list casts its items by
        the int rules, and a bool takes only a bool."""
        assert cast(list[int], [3, 4.0, "5"]) == [3, 4, 5]
        assert cast(bool, False) is False
        for tp, value in ((list[int], [1, True]), (list[int], [1.5]), (list[int], "12"),
                          (bool, "no"), (bool, 1), (bool, None)):
            with pytest.raises((TypeError, ValueError)):
                cast(tp, value)

    def test_type_hints_are_resolved_once_per_class(self, monkeypatch):
        resolved = []
        real = schema.get_type_hints
        monkeypatch.setattr(schema, "get_type_hints", lambda cls: resolved.append(cls) or real(cls))
        schema._field_types.cache_clear()
        schema.rules.cache_clear()
        for _ in range(3):
            from_doc(TrainConfig, {"method": "bco", "epochs": 2})
            from_doc(DatasetConfig, DATASET)
        assert resolved == [TrainConfig, DatasetConfig]
        # Each construction checks its fields, by a rule table built once per class.
        assert schema.rules.cache_info().misses == 2
        assert schema.rules.cache_info().hits == 4
        schema._field_types.cache_clear()
        schema.rules.cache_clear()

    def test_library_alpha_is_normalized(self):
        assert TrainConfig(alpha=0) == TrainConfig(alpha=0.0)
        assert isinstance(TrainConfig(alpha=0).alpha, float)


def test_every_exported_name_resolves():
    modules = [bfpo] + [
        importlib.import_module(f"bfpo.{m.name}") for m in pkgutil.iter_modules(bfpo.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"


# Every config class, its error type, and the values of its fields without a
# default.
CONFIGS = {
    TrainConfig: (ConfigError, {}),
    DatasetConfig: (ConfigError, DATASET),
    PopulationSpec: (InputError, POPULATION),
    EstimatorConfig: (ConfigError, {}),
    LossConfig: (ConfigError, {}),
    ReferenceState: (InputError, {}),
    RewardConfig: (InputError, {}),
    SweepKeys: (ConfigError, {"axis": "alpha", "grid": [0.0], "n_seeds": 1}),
}


def _types(cls: type, name: str) -> set:
    """The field's type, and each member of it if it is a union."""
    tp = dict(schema._field_types(cls))[name]
    return {tp, *get_args(tp)}


def _past_the_ends(cls: type, name: str, rule) -> list:
    """NaN and the infinities, and a value just past each end of ``rule``: the
    end itself where it is open, else the next int or float beyond it."""
    values = [math.nan, math.inf, -math.inf]
    if isinstance(rule, Interval):
        is_int = int in _types(cls, name)
        for end, bracket, closed, away in ((rule.lo, rule.ends[0], "[", -1),
                                           (rule.hi, rule.ends[1], "]", 1)):
            if end is not None and bracket != closed:
                values.append(end)
            elif end is not None:
                values.append(end + away if is_int else math.nextafter(end, away * math.inf))
    elif isinstance(rule, OneOf):
        values.append("not-a-choice")
    else:
        values.append([])
    return values


BREAKS = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls in CONFIGS
    for name, (rule, _) in rules(cls).items()
    for value in _past_the_ends(cls, name, rule)
]


class TestDeclaredRules:
    @pytest.mark.parametrize("cls, name, value", BREAKS)
    def test_every_declared_field_rejects_values_past_its_rule(self, cls, name, value):
        """Generated from the declarations: NaN, +-inf and a value just past
        each end of every declared field raise the class's error type, naming
        the field."""
        error, base = CONFIGS[cls]
        with pytest.raises(error, match=f"^{name} must ") as caught:
            cls(**{**base, name: value})
        assert type(caught.value) is error

    @pytest.mark.parametrize(
        "cls", [TrainConfig, DatasetConfig, PopulationSpec, EstimatorConfig, LossConfig],
        ids=lambda c: c.__name__,
    )
    def test_every_numeric_field_declares_a_rule(self, cls):
        """momentum_params is a tuple, held to its rules by TrainConfig itself
        (a cross-field rule)."""
        numeric = {name for name, _ in schema._field_types(cls) if {int, float} & _types(cls, name)}
        assert numeric and numeric - {"momentum_params"} <= set(rules(cls))
        assert "momentum_params" not in rules(cls)

    @pytest.mark.parametrize("make, error", [
        (lambda: LossConfig(lambda_d=-1.0), ConfigError),
        (lambda: LossConfig(lambda_u=math.nan), ConfigError),
        (lambda: LossConfig(beta=-1.0), ConfigError),
        (lambda: LossConfig(beta=math.nan), ConfigError),
        (lambda: TrainConfig(beta=math.nan), ConfigError),
        (lambda: TrainConfig(learning_rate=math.inf), ConfigError),
        (lambda: TrainConfig(warmstart_lr=-math.inf), ConfigError),
        (lambda: EstimatorConfig(lr=math.inf), ConfigError),
        (lambda: DatasetConfig("u000", math.inf, "random"), ConfigError),
        (lambda: TrainConfig(seed=-1), ConfigError),
        (lambda: PopulationSpec(**{**POPULATION, "seed": -1}), InputError),
    ], ids=["loss_lambda_d_negative", "loss_lambda_u_nan", "loss_beta_negative", "loss_beta_nan",
            "train_beta_nan", "train_learning_rate_inf", "train_warmstart_lr_minus_inf",
            "estimator_lr_inf",
            "dataset_ratio_x_inf", "train_seed_negative", "population_seed_negative"])
    def test_library_holes_are_closed(self, make, error):
        """Each of these constructed before the rules were declared; a NaN beta
        ran until its first step's rewards, and a negative seed until numpy's
        SeedSequence raised a bare ValueError."""
        with pytest.raises(error):
            make()

    def test_explicit_rules_stay(self):
        """The cross-field rules are code after the check.  KTO's leave-one-out
        anchor needs a combined batch of two, which the two batch sizes' own
        rules (each >= 1) give."""
        assert TrainConfig(method="kto", batch_size_pos=1, batch_size_aux=None)
        with pytest.raises(ConfigError, match="^momentum_params b2 must lie in \\[0, 1\\)"):
            TrainConfig(momentum_params=(0.9, 1.0, 1e-8))
        with pytest.raises(ConfigError, match="estimate"):
            TrainConfig(alpha="auto")
        assert TrainConfig(batch_size_aux=None, warmstart_lr=None).alpha == "estimate"
        assert LossConfig(alpha=1.0).alpha == 1.0  # the unclamped objective takes alpha 1


def _library_calls():
    _, pop = small_population(0.5, 3, n_users=4, vocab=24, samples_per_user=40)
    target = sorted(pop)[0]
    ds = build_user_dataset(pop, target, 1.0, "random", 3, 24)
    features, n_target = np.zeros((len(ds.tar_train) + len(ds.aux_train), 24)), len(ds.tar_train)
    return {
        "ratio_x": lambda v: build_user_dataset(pop, target, v, "random", 3, 24),
        "grouping": lambda v: build_user_dataset(pop, target, 1.0, v, 3, 24),
        "history_fraction": lambda v: truncate_history(ds, v),
        "heldout_fraction": lambda v: split_heldout(ds.tar_train, v, 3),
        "epochs": lambda v: train_proxy(features, n_target, v, 1.0, 3),
        "lr": lambda v: train_proxy(features, n_target, 30, v, 3),
        "seed": {
            "build_user_dataset": lambda v: build_user_dataset(pop, target, 1.0, "random", v, 24),
            "split_heldout": lambda v: split_heldout(ds.tar_train, 0.2, v),
            "run_alpha_estimation": lambda v: run_alpha_estimation(
                ds.tar_train, ds.aux_train, 24, seed=v),
            "train_proxy": lambda v: train_proxy(features, n_target, 30, 1.0, v),
        },
    }


@pytest.mark.parametrize("cls, name, value", [
    (DatasetConfig, "ratio_x", math.inf), (DatasetConfig, "ratio_x", 0.0),
    (DatasetConfig, "grouping", "bogus"), (DatasetConfig, "history_fraction", 0.0),
    (DatasetConfig, "history_fraction", math.nan), (EstimatorConfig, "heldout_fraction", 1.0),
    (EstimatorConfig, "epochs", 0), (EstimatorConfig, "lr", math.inf),
    (EstimatorConfig, "lr", -1.0),
], ids=repr)
def test_library_arguments_take_the_declared_rule(cls, name, value):
    """A library function's argument check raises InputError with the message
    its config field's rule gives."""
    error, base = CONFIGS[cls]
    with pytest.raises(error) as config_error:
        cls(**{**base, name: value})
    with pytest.raises(InputError) as call_error:
        _library_calls()[name](value)
    assert str(call_error.value) == str(config_error.value)


@pytest.mark.parametrize("value", [-1, True, 2.5], ids=repr)
@pytest.mark.parametrize(
    "call", ["build_user_dataset", "split_heldout", "run_alpha_estimation", "train_proxy"]
)
def test_bare_seed_takes_the_seed_rule(call, value):
    """A library function's bare seed is held to the population spec's seed
    rule: numpy would otherwise raise a bare ValueError at -1 and TypeError at
    2.5, and take True as seed 1."""
    with pytest.raises(InputError) as config_error:
        PopulationSpec(**{**POPULATION, "seed": value})
    with pytest.raises(InputError, match="^seed ") as call_error:
        _library_calls()["seed"][call](value)
    assert str(call_error.value) == str(config_error.value)


def test_readme_table_states_the_declared_rules():
    """The README's table of config fields is the declarations, each rule
    rendered by the formatter the error messages use."""
    blocks = {"sweep": SweepKeys, "population": PopulationSpec, "dataset": DatasetConfig,
              "train": TrainConfig, "estimator": EstimatorConfig}
    expected = [("top level", "seed", str(SEED))] + [
        (block, name, str(rule))
        for block, cls in blocks.items()
        for name, (rule, _) in rules(cls).items()
        if name != "seed"  # each command puts the top-level seed in its blocks
    ]
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (top level|\w+) \| `(\w+)` \| (.+?) \|$", text, re.M)
    assert rows == expected
