"""Exception types raised by the steernet kernel and pipelines."""


class SteernetError(Exception):
    """Base class for all steernet errors."""


class SizeError(SteernetError):
    """Operation would exceed the supported Hilbert-space dimension (16)."""


class ArgumentError(SteernetError):
    """Malformed or out-of-range argument."""


class StateError(SteernetError):
    """Input failed density-matrix validation."""


class SingularMarginalError(SteernetError):
    """A marginal required to be invertible has a near-zero eigenvalue."""


class NumericIntegrityError(SteernetError):
    """A quantity that must be real carries too large an imaginary part."""


class EvaluationError(SteernetError):
    """Objective function returned a non-finite value."""


class InternalError(SteernetError):
    """Invariant the implementation must maintain was found broken."""
