"""Binary-feedback preference optimization at desk scale.

A small differentiable policy, the SFT/DPO/KTO/BCO objectives, a
positive-unlabeled calibration of the negative signal, decoupled-EMA reference
points, class-prior estimation from history embeddings, and a synthetic
multi-user generator whose preference overlap is a controllable ground truth.
"""

from .alpha import AlphaEstimate, ProxyClassifier, embed, run_alpha_estimation
from .datagen import PopulationSpec, UserDataset, build_user_dataset, generate_population
from .errors import (
    ConfigError,
    EngineError,
    EstimationError,
    InputError,
    NumericError,
    StateError,
)
from .evaluation import EvalReport, evaluate_policy
from .losses import (
    Batch,
    LossBreakdown,
    LossConfig,
    Method,
    binary_loss,
    dpo_loss,
    kto_loss,
    loss_negative,
    loss_positive,
    sft_loss,
)
from .policy import (
    PolicyParams,
    Sample,
    SampleTable,
    log_prob,
    log_prob_grad,
    snapshot_reference,
)
from .pu import negative_risk_pu, pu_total_risk, sample_unlabeled
from .rewards import (
    ReferenceState,
    RewardConfig,
    delta_bco,
    delta_ema,
    ema_update,
    implicit_reward,
    kto_zref,
)
from .trainer import TrainConfig, TrainResult, run

__version__ = "0.1.0"

__all__ = [
    "AlphaEstimate",
    "Batch",
    "ConfigError",
    "EngineError",
    "EstimationError",
    "EvalReport",
    "InputError",
    "LossBreakdown",
    "LossConfig",
    "Method",
    "NumericError",
    "PolicyParams",
    "PopulationSpec",
    "ProxyClassifier",
    "ReferenceState",
    "RewardConfig",
    "Sample",
    "SampleTable",
    "StateError",
    "TrainConfig",
    "TrainResult",
    "UserDataset",
    "binary_loss",
    "build_user_dataset",
    "delta_bco",
    "delta_ema",
    "dpo_loss",
    "ema_update",
    "embed",
    "evaluate_policy",
    "generate_population",
    "implicit_reward",
    "kto_loss",
    "kto_zref",
    "log_prob",
    "log_prob_grad",
    "loss_negative",
    "loss_positive",
    "negative_risk_pu",
    "pu_total_risk",
    "run",
    "run_alpha_estimation",
    "sample_unlabeled",
    "sft_loss",
    "snapshot_reference",
]
