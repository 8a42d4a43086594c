"""Exception hierarchy shared by all longwave modules."""


class LongwaveError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(LongwaveError):
    """Invalid configuration: bad parameters, incompatible grids, bad input files."""


class GridMismatchError(ConfigurationError):
    """Fields that must share a grid were built on different grids."""


class SolverError(LongwaveError):
    """A linear solve failed (singular or ill-conditioned system, residual too large).

    Attributes, set when a run re-raises the error and None otherwise:
        step_index: the time step that failed.
        time: step_index * dt.
        l2_norm, max_norm: sqrt(dx * sum z^2) and max |z| of the last finite
            state z (for the coupled stepper, v and eta interleaved).
    """

    def __init__(self, message, step_index=None, time=None, l2_norm=None, max_norm=None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.l2_norm = l2_norm
        self.max_norm = max_norm


class InstabilityError(SolverError):
    """A time integration produced non-finite values; ``step_index`` is the
    step at which the first non-finite value appeared."""


class MissingSnapshotError(LongwaveError):
    """A trajectory was asked for a time it did not store."""


class DiagnosticError(LongwaveError):
    """A diagnostic could not be evaluated (e.g. too few snapshots for a fit)."""
