"""Exception types shared across the package."""


class SGWaveError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SGWaveError, ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class NoConvergence(SGWaveError, RuntimeError):
    """An iterative scheme exhausted its refinement budget."""


class PoleProximity(SGWaveError, ValueError):
    """Requested evaluation is too close to a pole for the stencil in use.

    Raised nowhere since g and phi are smooth at every pole; it goes at the
    next benchmark change, as bench/workloads.py still catches it.
    """


class BlowUp(SGWaveError, RuntimeError):
    """Field magnitude exceeded the divergence threshold."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t
