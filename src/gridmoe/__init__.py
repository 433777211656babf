"""Grid-level sparse mixture-of-experts with a dynamic learning-rate governor."""

from .autodiff import (
    ComputationRecord,
    Tensor,
    backward,
    finite_diff_check,
    grid_linear,
)
from .dso import DsoConfig, LossTracker, LrMultipliers, apply_multipliers, step
from .errors import (
    ConfigError,
    DomainError,
    GridMoeError,
    ShapeError,
    TrainingAborted,
    UsageError,
)
from .moe import (
    ExpertMixture,
    ExpertStats,
    MoEConfig,
    RoutingDecision,
    export_top1_map,
    init_from_pretrained,
    moe_forward,
)
from .model import Model, ModelSpec
from .runconfig import RunConfig, parse_config
from .train import TrainResult, imbalance_benchmark, train

__version__ = "0.1.0"

__all__ = [
    "ComputationRecord",
    "ConfigError",
    "DomainError",
    "DsoConfig",
    "ExpertMixture",
    "ExpertStats",
    "GridMoeError",
    "LossTracker",
    "LrMultipliers",
    "Model",
    "ModelSpec",
    "MoEConfig",
    "RoutingDecision",
    "RunConfig",
    "ShapeError",
    "Tensor",
    "TrainResult",
    "TrainingAborted",
    "UsageError",
    "apply_multipliers",
    "backward",
    "export_top1_map",
    "finite_diff_check",
    "grid_linear",
    "imbalance_benchmark",
    "init_from_pretrained",
    "moe_forward",
    "parse_config",
    "step",
    "train",
]
