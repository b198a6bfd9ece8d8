"""Binary-feedback preference optimization at desk scale.

A small differentiable policy, the SFT/DPO/KTO/BCO objectives, a
positive-unlabeled calibration of the negative signal, decoupled-EMA reference
points, class-prior estimation from history embeddings, and a synthetic
multi-user generator whose preference overlap is a controllable ground truth.

The package root exports what the README's "Library use" imports; everything
else is read from its module (``bfpo.trainer``, ``bfpo.losses``, ...).
"""

from .datagen import PopulationSpec, build_user_dataset, generate_population
from .evaluation import evaluate_policy
from .trainer import TrainConfig, run

__version__ = "0.1.0"

__all__ = [
    "PopulationSpec",
    "TrainConfig",
    "build_user_dataset",
    "evaluate_policy",
    "generate_population",
    "run",
]
