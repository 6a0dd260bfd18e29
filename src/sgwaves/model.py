"""Parameters, constant solutions and energy density.

The governing field equation is

    phi_tt - phi_xx + sin(phi) + alpha*phi_t + gamma = 0

with damping alpha > 0 and a constant forcing gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Damping/forcing pair, normalized so that gamma >= 0.

    A negative forcing is mapped to (alpha, -gamma) and `flipped` is set;
    callers must then read every field value phi as -phi.
    """

    alpha: float
    gamma: float
    flipped: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be finite and strictly positive, got {self.alpha}")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma}")
        if self.gamma < 0.0:
            object.__setattr__(self, "gamma", -self.gamma)
            object.__setattr__(self, "flipped", True)


@dataclass(frozen=True)
class ConstantSolutions:
    phi_s: float  # stable uniform state, -asin(gamma)
    phi_u: float  # unstable uniform state, asin(gamma) + pi (not reduced)


def constant_solutions(params: ModelParams) -> ConstantSolutions:
    """Spatially uniform equilibria; they exist only for gamma <= 1."""
    g = params.gamma
    if g > 1.0:
        raise DomainError(f"uniform states require gamma <= 1, got {g}")
    a = math.asin(g)
    return ConstantSolutions(-a, a + math.pi)


def energy_density(phi, phi_t, phi_x, gamma):
    """Pointwise energy density phi_t^2/2 + phi_x^2/2 + gamma*phi - cos(phi).

    The uniform states are its local extrema: minima at phi_s, maxima at
    phi_u (for gamma < 1).  Accepts scalars or arrays.
    """
    return 0.5 * phi_t * phi_t + 0.5 * phi_x * phi_x + gamma * phi - np.cos(phi)


def wrap_to(phi, center=0.0):
    """Reduce an angle (or array of angles) mod 2*pi into [center-pi, center+pi)."""
    return phi - TWO_PI * np.floor((phi - center + math.pi) / TWO_PI)
