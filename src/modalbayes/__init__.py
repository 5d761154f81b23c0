"""Hierarchical sparse Bayesian inference of localized stiffness loss from
noisy, incomplete modal data, with full posterior uncertainty quantification.
"""

__version__ = "0.1.0"

from .data import ModalDataset, load_dataset, save_dataset
from .damage import DamageReport, build_report, damage_probability, stiffness_ratios
from .errors import ConfigurationError, ModalBayesError, ModelError, NumericalError
from .inference import (
    AlgorithmConfig,
    InferenceResult,
    InferenceState,
    run_calibration,
    run_monitoring,
)
from .model import StructuralModel, assemble_stiffness, eigen_solve

__all__ = [
    "AlgorithmConfig",
    "ConfigurationError",
    "DamageReport",
    "InferenceResult",
    "InferenceState",
    "ModalBayesError",
    "ModalDataset",
    "ModelError",
    "NumericalError",
    "StructuralModel",
    "assemble_stiffness",
    "build_report",
    "damage_probability",
    "eigen_solve",
    "load_dataset",
    "run_calibration",
    "run_monitoring",
    "save_dataset",
    "stiffness_ratios",
    "__version__",
]
