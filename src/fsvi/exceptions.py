"""Exception types shared across the package."""


class FsviError(Exception):
    """Base class for every error raised by this package.

    `exit_code` is the `fsvi` command's exit status for the error: 2 for a
    configuration error (an unreadable config file and an `--out` that is a
    file included), 3 for a malformed data file, 4 for a numerical failure.
    The command also exits 3 on an `OSError`: a data file or output path
    that cannot be read or written.
    """

    exit_code = 4


class DimensionError(FsviError, ValueError):
    """Array shapes are inconsistent with each other or with a model."""

    exit_code = 2


class InvalidPosteriorError(FsviError, ValueError):
    """The posterior factor is singular or otherwise unusable."""


class DegeneratePosteriorError(FsviError, ValueError):
    """A hyperparameter update would divide by a vanishing posterior norm."""


class DegenerateFitError(FsviError, ValueError):
    """A noise-precision update would divide by identically zero residuals."""


class ConfigError(FsviError, ValueError):
    """A configuration value is missing, malformed, or out of range."""

    exit_code = 2


class InsufficientDataError(FsviError, ValueError):
    """Not enough recorded iterations to reach a verdict."""

    exit_code = 2


class InvalidStartError(FsviError, ValueError):
    """The optimiser was started at a point with a non-finite objective."""


class NumericalFailureError(FsviError, ArithmeticError):
    """A non-finite bound or gradient was encountered during a fit."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class IndefiniteHessianError(FsviError, ArithmeticError):
    """The negated Hessian at the mode is not positive definite."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class RankError(FsviError, ValueError):
    """The data do not support the requested latent dimension."""


class CoverageError(FsviError, ValueError):
    """The quadrature grid misses too much probability mass."""

    def __init__(self, message, masses=None):
        super().__init__(message)
        self.masses = masses


class InvalidLabelError(FsviError, ValueError):
    """Class labels are outside the accepted coding."""

    exit_code = 3


class DataFormatError(FsviError, ValueError):
    """A data file could not be parsed; carries a 1-based line number."""

    exit_code = 3

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class PosteriorIOError(FsviError, ValueError):
    """A posterior file failed version, parse, or invariant checks."""

    exit_code = 3
