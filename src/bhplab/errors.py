"""Exception types shared across the toolkit."""


class BhpLabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(BhpLabError):
    """A precondition on the inputs was violated (bad radius, point outside set, ...)."""


class ConfigError(BhpLabError):
    """An experiment or model configuration is invalid or degenerate."""


class DivergenceError(BhpLabError):
    """A tail integral failed to converge within the configured cap."""


class SamplerStallError(BhpLabError):
    """A sampler exceeded its step budget; the message counts the paths."""


class CapabilityError(BhpLabError):
    """The requested operation is not supported by this model variant."""


class UnderpoweredError(BhpLabError):
    """Every candidate estimate was excluded by the precision gate."""


class EstimationError(BhpLabError):
    """An estimator produced unreliable output (e.g. excessive stall rate)."""
