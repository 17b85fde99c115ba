from .base import GaussianNoiseModel, TargetModel
from .cauchy_ppca import CauchyPpcaModel, CauchyPpcaParams
from .classify import (
    LogisticModel,
    SoftmaxModel,
    one_hot,
    synth_classification_data,
)
from .rbf import (
    RbfDesign,
    RbfRegressionModel,
    synth_regression_data,
    true_regression_curve,
)
from .skew import GaussianTarget, SkewTarget
from .spectrum import SpectrumDecayModel, synth_spectrum_data

__all__ = [
    "TargetModel",
    "GaussianNoiseModel",
    "RbfDesign",
    "RbfRegressionModel",
    "synth_regression_data",
    "true_regression_curve",
    "LogisticModel",
    "SoftmaxModel",
    "one_hot",
    "synth_classification_data",
    "SkewTarget",
    "GaussianTarget",
    "CauchyPpcaModel",
    "CauchyPpcaParams",
    "SpectrumDecayModel",
    "synth_spectrum_data",
]
