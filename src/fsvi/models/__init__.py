from .base import GaussianNoiseModel, TargetModel
from .cauchy_ppca import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    cauchy_ppca_loglik,
)
from .classify import (
    LogisticModel,
    SoftmaxModel,
    logistic_loglik,
    one_hot,
    softmax_loglik,
    synth_classification_data,
)
from .rbf import (
    RbfDesign,
    RbfRegressionModel,
    rbf_regression_loglik,
    synth_regression_data,
    true_regression_curve,
)
from .skew import GaussianTarget, SkewTarget, skew_logdensity
from .spectrum import SpectrumDecayModel, synth_spectrum_data

__all__ = [
    "TargetModel",
    "GaussianNoiseModel",
    "RbfDesign",
    "RbfRegressionModel",
    "rbf_regression_loglik",
    "synth_regression_data",
    "true_regression_curve",
    "LogisticModel",
    "SoftmaxModel",
    "logistic_loglik",
    "softmax_loglik",
    "one_hot",
    "synth_classification_data",
    "SkewTarget",
    "GaussianTarget",
    "skew_logdensity",
    "CauchyPpcaModel",
    "CauchyPpcaParams",
    "cauchy_ppca_loglik",
    "SpectrumDecayModel",
    "synth_spectrum_data",
]
