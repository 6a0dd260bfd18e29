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
    """Spatial period Xi = 2*pi*alpha / sqrt(gamma^2 - 1) of the kink array, positive and finite."""
    g = params.gamma
    period = TWO_PI * params.alpha / math.sqrt((g - 1.0) * (g + 1.0)) if g > 1.0 else math.nan
    if not 0.0 < period < math.inf:
        raise DomainError(f"period needs gamma > 1 and a finite, positive value; got {params}")
    return period


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


def _riccati(wave: TravellingWave, d):
    """y at d = xi - xi0 and turns, the number of poles of y left of xi, unscaled as the branch holds it
    (float on the kink array, bool on increasing2 and critical_kink), or None on a branch without poles.

    Both come from one phase variable, so they agree on which side of a
    pole d lies: round(u) on the kink array, and on increasing2 and
    critical_kink the sign bit of den in y = c + k/den (k > 0).

    d is a float array that the caller owns and gives up: each step of the
    branch formula writes into it in place, and it is returned as y.  The
    steps are the same floating-point operations in the same order as the
    out-of-place formula, so y is the same bit for bit.  The caller holds
    np.errstate(all="ignore"): exp runs y to a branch's limit, and k/den
    to an infinity at d = +-0; a NaN is the caller's to refuse.
    """
    p, branch, turns = wave.params, wave.branch, None
    if branch.is_constant:
        raise DomainError(f"operation not defined for branch {branch.value}")
    if branch is WaveBranch.KINK_ARRAY:
        u = np.divide(d, xi_period(p), d)
        turns = np.round(u)
        c = math.sqrt((p.gamma - 1.0) * (p.gamma + 1.0)) / p.gamma
        np.multiply(math.pi, np.subtract(u, turns, d), d)
        np.add(-1.0 / p.gamma, np.multiply(c, np.tan(d, d), d), d)
    elif branch in (WaveBranch.PURE_SG_DECREASING, WaveBranch.PURE_SG_INCREASING):
        np.exp(np.divide(d, p.alpha, d), d)
        if branch is WaveBranch.PURE_SG_DECREASING:
            np.negative(d, d)
    elif branch is WaveBranch.DECREASING1:
        fp = y_fixed_points(p)
        np.add(1.0, np.exp(np.multiply(subcritical_rate(p), d, d), d), d)
        np.add(fp.y_minus, np.divide(fp.y_plus - fp.y_minus, d, d), d)
    else:
        if branch is WaveBranch.CRITICAL_KINK:
            c, k = -1.0, 2.0 * p.alpha
            den = np.negative(d, d)
        else:
            fp = y_fixed_points(p)
            c, k = fp.y_minus, fp.y_plus - fp.y_minus
            # expm1 keeps y accurate next to the pole, where 1 - exp(A*d) cancels
            den = np.negative(np.expm1(np.multiply(subcritical_rate(p), d, d), d), d)
        turns = np.signbit(den)  # den = -0.0 at d = +0.0, where y = -inf
        np.add(c, np.divide(k, den, d), d)
    return d, turns


def _offset(wave: TravellingWave, xi, t=None) -> np.ndarray:
    """xi - xi0, or (xi - t) - xi0, in a fresh float array; an overflow is a DomainError, inf - inf a NaN."""
    out = np.empty(np.shape(xi) if t is None else np.broadcast(xi, t).shape)
    try:
        with np.errstate(over="raise", invalid="ignore"):
            return np.subtract(xi if t is None else np.subtract(xi, t, out), wave.xi0, out)
    except FloatingPointError:
        raise DomainError("xi - xi0 overflows") from None


def y_eval(wave: TravellingWave, xi):
    """Riccati profile y(xi) for a non-constant branch: _riccati's formula at every xi.

    Next to a pole (increasing2 and critical_kink at xi0, kink_array at
    xi0 + Xi*(k + 1/2)) y grows like 1/(xi - pole); it is +-inf only where
    the formula divides by zero or overflows (d = -0.0 gives +inf and
    d = +0.0 gives -inf on increasing2 and critical_kink).  An xi - xi0
    that overflows, a kink-array xi - xi0 of 2**52 periods or more (no phase
    left to give y), or a NaN y (a NaN xi) is a DomainError.
    """
    arr = np.asarray(xi, dtype=float)
    d = _offset(wave, arr)
    with np.errstate(all="ignore"):
        # from 2**52 periods on every double is a whole number of them; rounding is
        # monotone, so this is the largest |u| of u = d/Xi (a NaN passes to its own refusal)
        if wave.branch is WaveBranch.KINK_ARRAY and np.abs(d).max(initial=0.0) / xi_period(wave.params) >= 2.0**52:
            raise DomainError("y has no phase left at some xi on branch kink_array "
                              "(xi - xi0 is 2**52 periods or more)")
        y, _ = _riccati(wave, d)
    if np.isnan(y).any():
        raise DomainError(f"y is NaN at some xi on branch {wave.branch.value} (a NaN xi)")
    return y if arr.ndim else float(y)


def _g(wave: TravellingWave, d) -> np.ndarray:
    """g = pi + 2*atan(y) + 2*pi*turns at d = xi - xi0, with y and turns from _riccati, which takes
    d over as _riccati does; a g that is not finite is a DomainError."""
    with np.errstate(all="ignore"):
        g, turns = _riccati(wave, d)
        np.add(math.pi, np.multiply(2.0, np.arctan(g, g), g), g)
        if turns is not None:
            np.add(g, TWO_PI * turns, g)
    if not np.isfinite(g).all():
        raise DomainError(f"g is not finite at some xi on branch {wave.branch.value} "
                          "(a NaN xi, or xi - xi0 too large)")
    return g


def g_eval(wave: TravellingWave, xi):
    """Continuous unwrapped g(xi) = pi + 2*atan(y) + 2*pi*turns, non-constant branches.

    This equals the paper's 4*atan(F(y)) for every real y, with turns the
    number of poles of y left of xi taken from the same phase variable as
    y, so g is smooth through every pole.
    An xi - xi0 that overflows, or a g that is not finite (a NaN xi, or more
    periods than a double counts), is a DomainError.
    """
    arr = np.asarray(xi, dtype=float)
    g = _g(wave, _offset(wave, arr))
    return g if arr.ndim else float(g)


def g_slope(wave: TravellingWave, xi):
    """Exact derivative g'(xi) = (gamma - sin(g))/alpha via the reduced equation."""
    p = wave.params
    slope = (p.gamma - np.sin(g_eval(wave, xi))) / p.alpha
    return slope if np.ndim(slope) else float(slope)


def phi_eval(wave: TravellingWave, x, t):
    """Field value phi(x, t); constant branches return the uniform states."""
    if wave.branch.is_constant:
        cs = constant_solutions(wave.params)
        value = cs.phi_s if wave.branch is WaveBranch.CONSTANT_S else cs.phi_u
        shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
        return np.full(shape, value) if shape else value
    phi = _g(wave, _offset(wave, wave.chirality * np.asarray(x, dtype=float), np.asarray(t, dtype=float)))
    phi -= math.pi
    return phi if phi.ndim else float(phi)


def g_limits(wave: TravellingWave) -> tuple[float, float]:
    """Asymptotic values (lim xi->-inf, lim xi->+inf) of g; gamma <= 1 only.

    With a = asin(gamma), g leaves pi - a and ends at a, or a turn above a
    on the branches where g rises.
    """
    branch = wave.branch
    if branch.is_constant or branch is WaveBranch.KINK_ARRAY:
        raise DomainError(f"g has no finite limits for branch {branch.value}")
    a = math.asin(wave.params.gamma)
    rises = branch in (WaveBranch.INCREASING2, WaveBranch.CRITICAL_KINK, WaveBranch.PURE_SG_INCREASING)
    return (math.pi - a, a + TWO_PI if rises else a)


def phi_limits(wave: TravellingWave) -> tuple[float, float]:
    """Field limits (x -> -inf, x -> +inf), accounting for chirality."""
    lo, hi = g_limits(wave)
    if wave.chirality == 1:
        return (lo - math.pi, hi - math.pi)
    return (hi - math.pi, lo - math.pi)


def constant_y_value(params: ModelParams, branch: WaveBranch) -> float:
    """y value of a constant branch: y_+ (stable) or y_- (unstable), -0.0 or -inf at gamma = 0."""
    if not branch.is_constant:
        raise DomainError(f"branch {branch.value} is not constant")
    stable = branch is WaveBranch.CONSTANT_S
    if params.gamma == 0.0:
        return -0.0 if stable else -math.inf
    fp = y_fixed_points(params)
    return fp.y_plus if stable else fp.y_minus
