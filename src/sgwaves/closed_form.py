"""Closed-form travelling waves with unit velocity.

Every wave is phi(x, t) = g(xi) - pi with xi = chirality*x - t, where g
solves the reduced equation alpha*g' = gamma - sin(g).  The solution
families come from the substitution chain g = 4*atan(F), F = y + sqrt(1+y^2),
which turns the g equation into the Riccati equation

    2*alpha*y' = 2*y + gamma*(1 + y^2).

Branches by forcing strength:

* 0 < gamma < 1: two heteroclinic families joining the Riccati fixed points
  y_-, y_+ (one decreasing in g, one increasing with a benign pole of y).
* gamma == 1:    a single critical profile with an algebraic 1/xi tail.
* gamma > 1:     a periodic tan profile whose g is linear-periodic with
  period Xi = 2*pi*alpha/sqrt(gamma^2 - 1) -- an array of equally spaced
  kinks.
* gamma == 0:    the undriven equation alpha*g' = -sin(g) integrates to
  g = 2*atan(exp((xi0 - xi)/alpha)) and its mirror, i.e. y = -exp((xi - xi0)/alpha)
  and y = +exp((xi - xi0)/alpha); both are kept as explicit branches
  because the gamma < 1 formulas degenerate there.

As F = tan(pi/4 + atan(y)/2), every branch has the one pole-free formula
g = pi + 2*atan(y) + 2*pi*turns, where turns counts the poles of y left of
xi from the same phase variable as y (round(u) on the kink array, the sign
of the denominator on increasing2 and critical_kink).  Pole locations are
analytic, so no numerical unwrap heuristics are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .model import TWO_PI, ModelParams, constant_solutions

# Relative half-width of the analytic pole windows inside which y_eval
# serves y as a signed infinity.
_POLE_WINDOW = 1e-8


class WaveBranch(Enum):
    CONSTANT_S = "constant_s"
    CONSTANT_U = "constant_u"
    DECREASING1 = "decreasing1"
    INCREASING2 = "increasing2"
    CRITICAL_KINK = "critical_kink"
    KINK_ARRAY = "kink_array"
    PURE_SG_DECREASING = "pure_sg_decreasing"
    PURE_SG_INCREASING = "pure_sg_increasing"

    @property
    def is_constant(self) -> bool:
        return self in (WaveBranch.CONSTANT_S, WaveBranch.CONSTANT_U)


def branch_compatible(branch: WaveBranch, gamma: float) -> bool:
    """Whether a branch exists at the given (normalized) forcing."""
    if branch.is_constant:
        return gamma <= 1.0
    if branch in (WaveBranch.DECREASING1, WaveBranch.INCREASING2):
        return 0.0 < gamma < 1.0
    if branch is WaveBranch.CRITICAL_KINK:
        return gamma == 1.0
    if branch is WaveBranch.KINK_ARRAY:
        return gamma > 1.0
    return gamma == 0.0  # pure sine-Gordon pair


@dataclass(frozen=True)
class TravellingWave:
    """One unit-velocity wave: branch + phase offset + direction of travel.

    chirality +1 selects xi = x - t (right-moving), -1 selects xi = -x - t.
    """

    params: ModelParams
    branch: WaveBranch
    xi0: float = 0.0
    chirality: int = 1

    def __post_init__(self):
        if self.chirality not in (1, -1):
            raise DomainError(f"chirality must be +1 or -1, got {self.chirality}")
        if not math.isfinite(self.xi0):
            raise DomainError(f"xi0 must be finite, got {self.xi0}")
        if not branch_compatible(self.branch, self.params.gamma):
            raise DomainError(
                f"branch {self.branch.value} does not exist at gamma={self.params.gamma}"
            )


@dataclass(frozen=True)
class FixedPoints:
    """Real roots of gamma*(1 + y^2) + 2*y = 0."""

    y_plus: float
    y_minus: float


def y_fixed_points(params: ModelParams) -> FixedPoints:
    """Constant Riccati solutions y_- <= y_+ < 0, real only for 0 < gamma <= 1."""
    g = params.gamma
    if not 0.0 < g <= 1.0:
        raise DomainError(f"real fixed points require 0 < gamma <= 1, got {g}")
    root = math.sqrt((1.0 - g) * (1.0 + g))
    y_minus = -(1.0 + root) / g
    # product of the roots is 1; this form avoids cancellation for small gamma
    y_plus = -g / (1.0 + root)
    return FixedPoints(y_plus, y_minus)


def subcritical_rate(params: ModelParams) -> float:
    """Exponential approach rate A = sqrt(1 - gamma^2)/alpha (gamma <= 1)."""
    if params.gamma > 1.0:
        raise DomainError("rate defined only for gamma <= 1")
    return math.sqrt((1.0 - params.gamma) * (1.0 + params.gamma)) / params.alpha


def xi_period(params: ModelParams) -> float:
    """Spatial period Xi = 2*pi*alpha / sqrt(gamma^2 - 1) of the kink array."""
    g = params.gamma
    if g <= 1.0:
        raise DomainError(f"period requires gamma > 1, got {g}")
    return TWO_PI * params.alpha / math.sqrt((g - 1.0) * (g + 1.0))


def theta(gamma: float) -> float:
    """Quarter arcsine of the forcing, the angle entering the F limits."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"theta requires 0 <= gamma <= 1, got {gamma}")
    return 0.25 * math.asin(gamma)


def F_map(y):
    """Map y to F = y + sqrt(1 + y^2) without catastrophic cancellation.

    For y < 0 the equivalent form 1/(sqrt(1+y^2) - y) is used.  Accepts
    scalars or arrays and extended reals: F(-inf) = 0, F(+inf) = +inf.
    """
    arr = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = np.sqrt(1.0 + arr * arr)
        F = np.where(arr >= 0.0, arr + r, 1.0 / (r - arr))
    return F if arr.ndim else float(F)


def _riccati(wave: TravellingWave, d, y):
    """Window-free y at d = xi - xi0 and the number of poles of y left of xi.

    Both come from one phase variable, so they agree on which side of a
    pole d lies: round(u) on the kink array, and on increasing2 and
    critical_kink the sign bit of den in y = c + k/den (k > 0).

    y is a float array of d's shape that the caller owns and gives up: each
    step of the branch formula writes into it in place, and it is returned.
    It may be d itself; d is otherwise only read, so a caller that reads d
    again passes a fresh y.  The steps are the same floating-point
    operations in the same order as the out-of-place formula, so y is the
    same bit for bit.
    """
    p = wave.params
    branch = wave.branch
    if branch.is_constant:
        raise DomainError(f"operation not defined for branch {branch.value}")
    turns = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if branch is WaveBranch.KINK_ARRAY:
            u = np.divide(d, xi_period(p), y)
            turns = np.round(u)
            c = math.sqrt((p.gamma - 1.0) * (p.gamma + 1.0)) / p.gamma
            np.multiply(math.pi, np.subtract(u, turns, y), y)
            np.add(-1.0 / p.gamma, np.multiply(c, np.tan(y, y), y), y)
        elif branch in (WaveBranch.PURE_SG_DECREASING, WaveBranch.PURE_SG_INCREASING):
            np.exp(np.divide(d, p.alpha, y), y)
            if branch is WaveBranch.PURE_SG_DECREASING:
                np.negative(y, y)
        elif branch is WaveBranch.DECREASING1:
            fp = y_fixed_points(p)
            np.add(1.0, np.exp(np.multiply(subcritical_rate(p), d, y), y), y)
            np.add(fp.y_minus, np.divide(fp.y_plus - fp.y_minus, y, y), y)
        else:
            if branch is WaveBranch.CRITICAL_KINK:
                c, k = -1.0, 2.0 * p.alpha
                den = np.negative(d, y)
            else:
                fp = y_fixed_points(p)
                c, k = fp.y_minus, fp.y_plus - fp.y_minus
                # expm1 keeps y accurate next to the pole, where 1 - exp(A*d) cancels
                den = np.negative(np.expm1(np.multiply(subcritical_rate(p), d, y), y), y)
            turns = np.signbit(den)  # den = -0.0 at d = +0.0, where y = -inf
            np.add(c, np.divide(k, den, y), y)
    return y, turns


def y_eval(wave: TravellingWave, xi):
    """Riccati profile y(xi) for a non-constant branch.

    Inside the analytic pole windows (increasing2 and critical_kink at xi0,
    kink_array at xi0 + Xi*(k + 1/2)) the profile is served as a signed
    infinity: +inf approaching a pole from the left, -inf leaving it to the
    right, +inf at the exact pole (y increases through all of them).
    """
    p = wave.params
    arr = np.asarray(xi, dtype=float)
    d = arr - wave.xi0
    y, _ = _riccati(wave, d, np.empty(arr.shape))
    pole_offset = d
    if wave.branch is WaveBranch.KINK_ARRAY:
        period = xi_period(p)
        pole_offset = d - period * (np.round(d / period - 0.5) + 0.5)
        scale = period
    elif wave.branch is WaveBranch.CRITICAL_KINK:
        scale = p.alpha
    elif wave.branch is WaveBranch.INCREASING2:
        scale = 1.0 / subcritical_rate(p)
    else:
        return y if arr.ndim else float(y)
    near = np.abs(pole_offset) < _POLE_WINDOW * max(1.0, scale)
    y = np.where(near, np.where(pole_offset <= 0.0, math.inf, -math.inf), y)
    return y if arr.ndim else float(y)


def g_eval(wave: TravellingWave, xi):
    """Continuous unwrapped g(xi) = pi + 2*atan(y) + 2*pi*turns, non-constant branches.

    This equals the paper's 4*atan(F(y)) for every real y, with turns the
    number of poles of y left of xi taken from the same phase variable as
    y, so g is smooth through every pole: no window, no limit override.
    """
    arr = np.asarray(xi, dtype=float)
    d = np.subtract(arr, wave.xi0, np.empty(arr.shape))
    g, turns = _riccati(wave, d, d)
    np.add(math.pi, np.multiply(2.0, np.arctan(g, g), g), g)
    np.add(g, TWO_PI * turns, g)
    return g if arr.ndim else float(g)


def g_slope(wave: TravellingWave, xi):
    """Exact derivative g'(xi) = (gamma - sin(g))/alpha via the reduced equation."""
    p = wave.params
    return (p.gamma - np.sin(g_eval(wave, xi))) / p.alpha


def phi_eval(wave: TravellingWave, x, t):
    """Field value phi(x, t); constant branches return the uniform states."""
    if wave.branch.is_constant:
        cs = constant_solutions(wave.params)
        value = cs.phi_s if wave.branch is WaveBranch.CONSTANT_S else cs.phi_u
        shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
        return np.full(shape, value) if shape else value
    xi = wave.chirality * np.asarray(x, dtype=float) - np.asarray(t, dtype=float)
    return g_eval(wave, xi) - math.pi


def g_limits(wave: TravellingWave) -> tuple[float, float]:
    """Asymptotic values (lim xi->-inf, lim xi->+inf) of g; gamma <= 1 only."""
    branch = wave.branch
    if branch.is_constant or branch is WaveBranch.KINK_ARRAY:
        raise DomainError(f"g has no finite limits for branch {branch.value}")
    a = math.asin(wave.params.gamma)
    if branch is WaveBranch.DECREASING1:
        return (math.pi - a, a)
    if branch is WaveBranch.INCREASING2:
        return (math.pi - a, TWO_PI + a)
    if branch is WaveBranch.CRITICAL_KINK:
        return (0.5 * math.pi, 2.5 * math.pi)
    if branch is WaveBranch.PURE_SG_DECREASING:
        return (math.pi, 0.0)
    return (math.pi, TWO_PI)


def phi_limits(wave: TravellingWave) -> tuple[float, float]:
    """Field limits (x -> -inf, x -> +inf), accounting for chirality."""
    lo, hi = g_limits(wave)
    if wave.chirality == 1:
        return (lo - math.pi, hi - math.pi)
    return (hi - math.pi, lo - math.pi)


def constant_y_value(params: ModelParams, branch: WaveBranch) -> float:
    """y value of a constant branch (the gamma = 0 unstable state maps to -inf)."""
    if branch is WaveBranch.CONSTANT_S:
        return -params.gamma / (1.0 + math.sqrt((1.0 - params.gamma) * (1.0 + params.gamma)))
    if branch is WaveBranch.CONSTANT_U:
        if params.gamma == 0.0:
            return -math.inf
        return y_fixed_points(params).y_minus
    raise DomainError(f"branch {branch.value} is not constant")
