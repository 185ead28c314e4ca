"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """A caller broke an interface contract (dimension mismatch, invalid parameters)."""


class NearStationaryError(RuntimeError):
    """Metric undefined at a near-stationary point (gradient norm below the floor)."""


class ZeroDirectionError(RuntimeError):
    """Directional smoothness requested along a zero (or underflowing) direction."""


class PowerIterationError(RuntimeError):
    """Lanczos did not certify a Ritz residual within the iteration budget.

    Carries the Rayleigh quotient x.Hx of the last top Ritz vector x, so
    callers can decide whether the partial estimate is still usable.
    """

    def __init__(self, message, last_rayleigh):
        super().__init__(message)
        self.last_rayleigh = float(last_rayleigh)


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the byte offset or record index."""


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field or line."""
