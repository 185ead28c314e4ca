"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """A caller broke an interface contract (dimension mismatch, invalid parameters)."""


class NearStationaryError(RuntimeError):
    """Metric undefined at the iterate: loss or gradient norm not finite, or the norm below
    the floor (a near-stationary point)."""


class ZeroDirectionError(RuntimeError):
    """Metric undefined along a step or direction whose squared norm is zero or not finite."""


class PowerIterationError(RuntimeError):
    """Lanczos did not certify a Ritz residual within the iteration budget.

    Carries the Rayleigh quotient x.Hx of the last top Ritz vector x, so
    callers can decide whether the partial estimate is still usable, and the
    work spent: ``hvps`` counts every hvp made, the one behind
    ``last_rayleigh`` included, and ``steps`` the Lanczos steps taken. The
    name is kept from the power iteration Lanczos replaced.
    """

    def __init__(self, message, last_rayleigh, hvps, steps):
        super().__init__(message)
        self.last_rayleigh = float(last_rayleigh)
        self.hvps = int(hvps)
        self.steps = int(steps)


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the byte offset or record index."""


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field or line."""
