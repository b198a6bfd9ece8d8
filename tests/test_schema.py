"""Config documents: the one caster, and every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import bfpo
from bfpo.alpha import EstimatorConfig
from bfpo.datagen import DatasetConfig, PopulationSpec
from bfpo.losses import Method
from bfpo.schema import cast, from_doc
from bfpo.trainer import TrainConfig

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
        from bfpo import schema

        resolved = []
        real = schema.get_type_hints
        monkeypatch.setattr(schema, "get_type_hints", lambda cls: resolved.append(cls) or real(cls))
        schema._field_types.cache_clear()
        for _ in range(3):
            from_doc(TrainConfig, {"method": "bco", "epochs": 2})
            from_doc(DatasetConfig, DATASET)
        assert resolved == [TrainConfig, DatasetConfig]
        schema._field_types.cache_clear()

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
