"""Semantic exception hierarchy shared by all bisurv modules."""


class BisurvError(Exception):
    """Base error for this package."""


class DomainError(BisurvError, ValueError):
    """An input lies outside the domain contract of an operation."""


class ModelError(BisurvError, ValueError):
    """A model definition is unusable (bad parameters, negative hazard, ...)."""


class ConfigError(BisurvError, ValueError):
    """A model configuration file or specification string is malformed."""


class NumericError(BisurvError, RuntimeError):
    """A numerical procedure failed to converge.

    ``samples`` carries the sequence that was being accelerated or
    integrated when the failure was detected, for diagnosis.
    """

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = list(samples) if samples is not None else None


class DecompositionError(NumericError):
    """A diagonal hazard-ratio limit diverged; no mixture weight exists."""


class InvalidModelError(BisurvError):
    """An evaluation produced a value impossible for a true distribution.

    ``witness`` is the offending point, ``value`` the offending quantity.
    """

    def __init__(self, message, witness=None, value=None):
        super().__init__(message)
        self.witness = witness
        self.value = value


class UndefinedComponentError(BisurvError):
    """The requested mixture component has zero weight for this model."""


class SamplerError(BisurvError):
    """A sampler could not produce draws within its stated accuracy."""
