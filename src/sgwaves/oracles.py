"""Independent numerical cross-checks for the closed-form waves.

Nothing in here reuses the closed-form solution formulas: the reduced ODE
and the Riccati equation are integrated directly with a classic 4th-order
fixed-step scheme, step-halved by the one loop `_halve_until_agree` until
two refinements agree, the period integral is done by adaptive Gauss-Kronrod
bisection, and the field equation residual is measured with 5-point
finite-difference stencils on phi_eval.  The test suite asserts agreement
with the closed forms; `CHECKS` is the one table of those checks, each case
list and threshold that `sgwaves verify` and the acceptance criteria read.
Each refusal is a row of tests/test_refusals.py.  DomainError before any
work: a span or interval unless a < b within half the largest double, or a
tol that is not positive (`_check_interval`); a NaN start or g0 = +-inf; a
start rate that moves the state over one unit in a step of the finest RK4
pass; a first RK4 pass over MAX_RK4_STEPS steps; g bounds that are not
finite, or whose closed path meets a zero of gamma - sin(s); quad_period at
gamma <= 1; identities_check off 0 <= gamma <= 1 (theta's rule); a stencil
step outside (0, inf).  After it: a quadrature panel, panel sum or residual
that is not finite.  NoConvergence: an RK4 doubling past MAX_RK4_STEPS or
stalled at its rounding floor, or a quadrature past MAX_QUAD_EVALS
evaluations; read at call time, these two are the only work bounds.

The RK4 loops are written out stage by stage, with no call per stage.  Each
stage does the same floating-point operations in the same order as a step
through a separate rhs function, so the samples are the same bit for bit;
tests/test_oracles.py keeps that per-stage form as the reference.  Each pass
appends its samples to array('d') buffers of its own and returns numpy views
of them, which no later pass writes.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .closed_form import F_map, TravellingWave, WaveBranch, constant_y_value, g_eval, phi_eval, theta, xi_period
from .errors import DomainError, NoConvergence
from .model import TWO_PI, ModelParams

DEFAULT_ODE_TOL = 1e-9
DEFAULT_QUAD_TOL = 1e-10
MAX_QUAD_EVALS = 10**6
MAX_RK4_STEPS = 2**22  # per refinement pass, like pde_sim.MAX_GRID_POINTS (32 MB of samples)
_MAX_BOUND = sys.float_info.max / 2  # keeps the width b - a and every panel's pa + pb finite
_UNITS_PER_ONE = 2**1074  # every finite double is a whole number of 2**-1074
_BLOWUP_Y = 1e12     # |y| beyond this is reported as a pole in the samples
_CHART_SWAP = 1.0    # |y| (or |z|) beyond this switches the projective chart


@dataclass
class OdeSolution:
    """Trajectory samples of a scalar first-order ODE in xi."""

    xs: np.ndarray
    ys: np.ndarray
    step_used: float
    pole_events: list[float] = field(default_factory=list)
    rk4_steps: int = 0   # RK4 steps over every refinement pass


def _check_tol(tol) -> None:
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")


def _check_interval(a, b, tol) -> None:
    """The one input rule of every integration: a < b, |a|, |b| <= _MAX_BOUND and tol > 0."""
    if not (a < b and abs(a) <= _MAX_BOUND and abs(b) <= _MAX_BOUND):
        raise DomainError(f"integration interval needs a < b within +-{_MAX_BOUND}, got ({a}, {b})")
    _check_tol(tol)


def _halve_until_agree(one_pass, distance, xi_span, tol: float, rate: float):
    """Double n in one_pass(lo, h, n) -> (samples, extra) until two passes agree.

    They agree when distance(cur[::2], prev) < tol at every grid point the two
    share.  Returns (xs, samples, extra, h, rk4_steps) of the agreeing pass.
    MAX_RK4_STEPS bounds every pass, the first and each doubling.  A doubling
    whose distance stops shrinking (truncation's shrinks ~16x) within n ulps
    of a finite max|samples| has stalled where rounding sets it.  rate is the
    flow at the start, by the same expression as the first RK4 stage: if even
    the first step of the finest pass moves the state by more than one unit,
    no pass resolves the flow (a rate that is not finite included)."""
    lo, hi = float(xi_span[0]), float(xi_span[1])
    _check_interval(lo, hi, tol)
    first = (hi - lo) * 4.0
    if first > MAX_RK4_STEPS:
        raise DomainError(f"span ({lo}, {hi}) needs more than {MAX_RK4_STEPS} RK4 steps per pass")
    if not abs(rate) * ((hi - lo) / MAX_RK4_STEPS) <= 1.0:
        raise DomainError(f"the start rate {rate} moves the state more than 1 per RK4 step over ({lo}, {hi}) "
                          f"even at {MAX_RK4_STEPS} steps per pass")
    n = n0 = max(16, int(math.ceil(first)))
    prev, _ = one_pass(lo, (hi - lo) / n, n)
    last = math.inf
    while (n := 2 * n) <= MAX_RK4_STEPS:
        h = (hi - lo) / n
        cur, extra = one_pass(lo, h, n)
        with np.errstate(invalid="ignore"):  # inf - inf: a pass that overflowed only disagrees
            gap = np.max(distance(cur[::2], prev))
        if gap < tol:
            # every pass's steps: n0 + 2*n0 + ... + n = 2*n - n0
            return lo + h * np.arange(n + 1), cur, extra, h, 2 * n - n0
        if last <= gap <= n * math.ulp(np.max(np.abs(cur))) < math.inf:
            raise NoConvergence(f"RK4 passes stalled at their rounding floor {gap:.3g} > tol={tol}")
        prev, last = cur, gap
    raise NoConvergence(f"RK4 did not converge to tol={tol} within {MAX_RK4_STEPS} steps per pass")


def _rk4_g(params: ModelParams, g0: float, lo: float, h: float, n: int):
    """n RK4 steps of size h of alpha*g' = gamma - sin(g) (autonomous: lo unused); (gs, None)."""
    alpha, gamma = params.alpha, params.gamma
    sin = math.sin
    hh = 0.5 * h
    h6 = h / 6.0
    g = float(g0)
    gs = array("d", (g,))
    try:
        for _ in range(n):
            k1 = (gamma - sin(g)) / alpha
            k2 = (gamma - sin(g + hh * k1)) / alpha
            k3 = (gamma - sin(g + hh * k2)) / alpha
            k4 = (gamma - sin(g + h * k3)) / alpha
            g = g + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            gs.append(g)
    except ValueError:  # sin(+-inf): g overflowed, so the rest of the pass is NaN
        gs.extend(array("d", (math.nan,)) * (n + 1 - len(gs)))
    return np.frombuffer(gs), None


def ode_solve_g(params: ModelParams, g0: float, xi_span, tol: float = DEFAULT_ODE_TOL) -> OdeSolution:
    """Integrate alpha*g' = gamma - sin(g) over the span by fixed-step RK4.

    The step is halved until two successive refinements differ by less than
    tol in sup norm at the shared grid points.
    """
    if not math.isfinite(g0):
        raise DomainError(f"g0 must be finite, got {g0}")
    xs, ys, _, h, steps = _halve_until_agree(
        partial(_rk4_g, params, g0), lambda cur, prev: np.abs(cur - prev), xi_span, tol,
        (params.gamma - math.sin(g0)) / params.alpha)
    return OdeSolution(xs, ys, h, rk4_steps=steps)


def _start_chart(y0: float) -> tuple[float, float]:
    """A Riccati pass's start (v, s): (y0, 2) while |y0| <= _CHART_SWAP, else (z, -2) with z = -1/y0.  The linear
    term is +2*y on the y chart and -2*z on the z chart, so s*v + gamma*(1 + v*v) is either chart's rhs bit for bit."""
    return (v, 2.0) if abs(v := float(y0)) <= _CHART_SWAP else (-1.0 / v, -2.0)


def _integrate_riccati(params: ModelParams, y0: float, lo: float, h: float, n: int):
    """One projective RK4 pass of n steps of size h from lo through the Riccati equation.

    The state lives on the chart where it is small: y while |y| <= 1, else
    z = -1/y (which obeys 2*alpha*z' = gamma*(1+z^2) - 2*z, a regular flow
    with z = 0 exactly at the poles of y).  Chart swaps keep fixed-step RK4
    uniformly accurate; pole crossings are recorded where z changes sign.
    Returns (angle samples atan(y), (y samples, pole xis)).
    """
    alpha, gamma = params.alpha, params.gamma
    hh, h6, a2 = 0.5 * h, h / 6.0, 2.0 * alpha
    atan, inf = math.atan, math.inf
    v, s = _start_chart(y0)
    ys, angles = array("d"), array("d")
    poles: list[float] = []
    for i in range(n + 1):
        # sample i; at z == 0, y is +inf and atan(y) is pi/2
        y = v if s > 0.0 else inf if v == 0.0 else -1.0 / v
        ys.append(y)
        angles.append(atan(y))
        if i == n:
            break
        k1 = (s * v + gamma * (1.0 + v * v)) / a2
        w = v + hh * k1
        k2 = (s * w + gamma * (1.0 + w * w)) / a2
        w = v + hh * k2
        k3 = (s * w + gamma * (1.0 + w * w)) / a2
        w = v + h * k3
        k4 = (s * w + gamma * (1.0 + w * w)) / a2
        v_new = v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if s < 0.0 and (v <= 0.0 < v_new or v_new <= 0.0 < v):
            # linear interpolation of the z zero crossing = pole of y
            poles.append(lo + i * h + h * v / (v - v_new))
        v = v_new
        if abs(v) > _CHART_SWAP:
            v = -1.0 / v
            s = -s
    return np.frombuffer(angles), (np.frombuffer(ys), poles)


def _projective_distance(cur, prev):
    """|atan(y) difference| mod pi: on a pole, +pi/2 and -pi/2 coincide, not a pi jump."""
    diff = np.abs(cur - prev)
    return np.minimum(diff, math.pi - np.minimum(diff, math.pi))


def ode_solve_y(params: ModelParams, y0: float, xi_span, tol: float = DEFAULT_ODE_TOL) -> OdeSolution:
    """Integrate the Riccati equation 2*alpha*y' = 2*y + gamma*(1 + y^2).

    Blow-ups of y are coordinate artifacts: the integration swaps to
    z = -1/y near them and records each z zero crossing as a pole event.
    Refinement convergence is measured in atan(y), which stays bounded
    through the poles; samples where |y| exceeds 1e12 are flagged by the
    nearest pole event rather than stored as huge values.  y0 = +-inf is a
    start on a pole.
    """
    if math.isnan(y0):
        raise DomainError("y0 must not be NaN")
    v, s = _start_chart(y0)
    xs, _, (ys, poles), h, steps = _halve_until_agree(
        partial(_integrate_riccati, params, y0), _projective_distance, xi_span, tol,
        (s * v + params.gamma * (1.0 + v * v)) / (2.0 * params.alpha))
    keep = np.abs(ys) <= _BLOWUP_Y
    return OdeSolution(xs[keep], ys[keep], h, poles, rk4_steps=steps)


# 15-point Kronrod nodes with the embedded 7-point Gauss rule (QUADPACK values).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:], _XGK[6::-1]])          # ascending in [-1, 1]
_KWEIGHTS = np.concatenate([_WGK[:7], _WGK[7:], _WGK[6::-1]])
_GWEIGHTS = np.zeros(15)
_GWEIGHTS[1:14:2] = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate of the panel integral plus an embedded error bound, under the caller's np.errstate."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = f(mid + half * _NODES)
    ik = half * float(np.dot(_KWEIGHTS, fx))
    ig = half * float(np.dot(_GWEIGHTS, fx))
    if not abs(ik - ig) < math.inf:  # also NaN: ik or ig is not finite, e.g. f or np.dot overflowed
        raise DomainError(f"the integral over the panel ({a}, {b}) is not finite")
    return ik, abs(ik - ig)


def _units(err: float) -> int:
    """err exactly, in units of 2**-1074 (the spacing of the subnormal doubles)."""
    num, den = err.as_integer_ratio()  # den is a power of two, at most 2**1074
    return num << (1075 - den.bit_length())


def adaptive_quadrature(f, a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to absolute tolerance tol by panel bisection.

    Each panel carries a 15-point Kronrod value plus a 7-point embedded error
    estimate; the panel with the largest estimate is split until the total
    estimate drops below tol.  MAX_QUAD_EVALS, read at call time, bounds the
    evaluations (NoConvergence past it).  f must accept numpy arrays.  The
    total is kept exactly, in _units.  int / int rounds correctly, so the
    total read as a float is the fsum of the panel errors.
    """
    _check_interval(a, b, tol)
    with np.errstate(all="ignore"):  # once per quadrature, not per panel (2 us each); _gk15 refuses overflows
        try:
            value, err = _gk15(f, a, b)
            total = _units(err)
            heap = [(-err, 0, a, b, value, total)]  # each panel's error also in _units
            count = 1  # panels made, 15 evaluations each
            while total / _UNITS_PER_ONE > tol:
                if 15 * count >= MAX_QUAD_EVALS:
                    raise NoConvergence(f"quadrature tolerance {tol} unreachable "
                                        f"within {MAX_QUAD_EVALS} evaluations")
                _, _, pa, pb, _, punits = heapq.heappop(heap)
                pm = 0.5 * (pa + pb)
                lv, le = _gk15(f, pa, pm)
                rv, re = _gk15(f, pm, pb)
                lunits, runits = _units(le), _units(re)
                heapq.heappush(heap, (-le, (count := count + 1), pa, pm, lv, lunits))
                heapq.heappush(heap, (-re, (count := count + 1), pm, pb, rv, runits))
                total += lunits + runits - punits
            return math.fsum(item[4] for item in heap)
        except OverflowError as exc:  # finite panels whose error total or value sum is not
            raise DomainError(f"the integral over ({a}, {b}) is not finite") from exc


def _xi_integrand(params: ModelParams):
    """u -> alpha/(gamma - sin s) at s = u + pi/2, the integrand of both xi quadratures.

    Written (gamma - 1) + 2 sin^2(u/2), it cancels neither in the sum nor in the argument at the peak u = 0.
    """
    return lambda u: params.alpha / ((params.gamma - 1.0) + 2.0 * np.sin(0.5 * u) ** 2)


def quad_period(params: ModelParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Period integral alpha * int_0^{2pi} ds/(gamma - sin s) by quadrature.

    The integrand is smooth for gamma > 1 but peaks sharply at s = pi/2, u = 0 of
    [-pi, pi], as gamma -> 1+; adaptive bisection concentrates panels there.
    """
    if params.gamma <= 1.0:
        raise DomainError(f"period integral requires gamma > 1, got {params.gamma}")
    return adaptive_quadrature(_xi_integrand(params), -math.pi, math.pi, tol)


def _singular_points_in(gamma: float, lo: float, hi: float) -> bool:
    """Whether sin(s) = gamma has a solution in the closed interval [lo, hi]."""
    if gamma > 1.0:
        return False
    a = math.asin(gamma)
    for base in (a, math.pi - a):
        k_lo = math.ceil((lo - base) / TWO_PI - 1e-15)
        k_hi = math.floor((hi - base) / TWO_PI + 1e-15)
        if k_lo <= k_hi:
            return True
    return False


def implicit_xi_of_g(params: ModelParams, g_from: float, g_to: float,
                     tol: float = DEFAULT_QUAD_TOL) -> float:
    """xi displacement alpha * int_{g_from}^{g_to} ds/(gamma - sin s).

    Valid only while the denominator keeps one sign on the path; a zero of
    gamma - sin(s) anywhere on the closed path (endpoints included) makes
    the displacement divergent and raises DomainError.
    """
    if not (math.isfinite(g_from) and math.isfinite(g_to)):
        raise DomainError(f"g bounds must be finite, got ({g_from}, {g_to})")
    lo, hi = min(g_from, g_to), max(g_from, g_to)
    if _singular_points_in(params.gamma, lo, hi):
        raise DomainError("gamma - sin(s) vanishes on the integration path")
    if lo == hi:
        _check_tol(tol)  # the tol rule of unequal bounds, not skipped by the shortcut
        return 0.0
    value = adaptive_quadrature(_xi_integrand(params), lo - 0.5 * math.pi, hi - 0.5 * math.pi, tol)
    return value if g_to >= g_from else -value


def identities_check(gamma: float) -> dict[str, float]:
    """Absolute residuals, by name, of the identities behind the F limits.

    Checked against theta = asin(gamma)/4: the two bisection square roots,
    the F values at both fixed points, tan(pi/8) = sqrt(2) - 1, and the
    quadruplication formula for sin(4*theta).  The fixed points are the
    library's `constant_y_value` (alpha plays no part in them); at gamma = 0,
    y_- = -inf and F(-inf) = 0 = tan 0.  theta refuses a gamma off [0, 1].
    """
    th = theta(gamma)
    root = math.sqrt((1.0 - gamma) * (1.0 + gamma))
    sqrt2 = math.sqrt(2.0)
    tan_th = math.tan(th)
    res = {
        "zaza": abs(math.sqrt(1.0 + root) - sqrt2 * math.cos(2.0 * th)),
        "zaza2": abs(math.sqrt(1.0 - root) - sqrt2 * math.sin(2.0 * th)),
        "pi8": abs((sqrt2 - 1.0) - math.tan(0.125 * math.pi)),
        "rationalize_sin4": abs(
            math.sin(4.0 * th)
            - 4.0 * tan_th * (1.0 - tan_th ** 2) / (1.0 + tan_th ** 2) ** 2
        ),
    }
    fixed = ModelParams(1.0, gamma)
    res["F_plus"] = abs(F_map(constant_y_value(fixed, WaveBranch.CONSTANT_S)) - math.tan(0.25 * math.pi - th))
    res["F_minus"] = abs(F_map(constant_y_value(fixed, WaveBranch.CONSTANT_U)) - tan_th)
    return res


def pde_residual(wave: TravellingWave, x: float, t: float, h: float) -> float:
    """Field-equation residual phi_tt - phi_xx + sin(phi) + alpha*phi_t + gamma.

    Second derivatives use 5-point central stencils of step h on phi_eval.
    phi is smooth through every pole of y, so any point is accepted,
    poles included.  A residual that is not finite (a step too fine for the
    size of phi there, so that a stencil overflows) is a DomainError.
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"h must be positive and finite, got {h}")
    with np.errstate(all="ignore"):
        off = h * np.arange(-2.0, 3.0)
        w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        # one call on both stencils: row 0 is x + off at t, row 1 is x at t + off
        xs = np.full((2, 5), x, dtype=float)
        ts = np.full((2, 5), t, dtype=float)
        xs[0] += off
        ts[1] += off
        phi_x5, phi_t5 = phi_eval(wave, xs, ts)
        phi0 = float(phi_t5[2])
        phi_tt = float(np.dot(w2, phi_t5))
        phi_xx = float(np.dot(w2, phi_x5))
        phi_t = float(np.dot(w1, phi_t5))
    p = wave.params
    residual = phi_tt - phi_xx + math.sin(phi0) + p.alpha * phi_t + p.gamma
    if not math.isfinite(residual):
        raise DomainError(f"the residual at x={x}, t={t} with h={h} is not finite")
    return residual


BRANCH_CASES = [  # one wave per non-constant branch: criteria 02, 03 and 05, and the closed-form tests
    (WaveBranch.DECREASING1, 0.5, 0.5),
    (WaveBranch.INCREASING2, 0.5, 0.5),
    (WaveBranch.CRITICAL_KINK, 1.0, 1.0),
    (WaveBranch.KINK_ARRAY, 0.7, 1.5),
    (WaveBranch.PURE_SG_DECREASING, 1.0, 0.0),
    (WaveBranch.PURE_SG_INCREASING, 1.0, 0.0),
]

# worst values use np.max, not max: max(0.0, nan) is 0.0, and a NaN must fail its check


def _identity_max_residual() -> float:
    return float(np.max([list(identities_check(float(gamma)).values())
                         for gamma in np.linspace(0.0, 1.0, 101)]))


def _period_max_abs_diff() -> float:
    # quadrature against both the library's xi_period and the paper's formula
    diffs = []
    for gamma in (1.01, 1.25, math.sqrt(2.0), 2.0, 5.0, 50.0):
        for alpha in (0.3, 1.0, 2.0):
            params = ModelParams(alpha, gamma)
            quad = quad_period(params, 1e-10)
            paper = TWO_PI * alpha / math.sqrt(gamma * gamma - 1.0)
            diffs += [abs(quad - xi_period(params)), abs(quad - paper)]
    return float(np.max(diffs))


def _ode_oracle_sup_diff() -> float:
    sups = []
    for branch, alpha, gamma in [(WaveBranch.DECREASING1, 0.5, 0.5), (WaveBranch.INCREASING2, 0.5, 0.5),
                                 (WaveBranch.CRITICAL_KINK, 1.0, 1.0), (WaveBranch.KINK_ARRAY, 1.0, 1.5)]:
        wave = TravellingWave(ModelParams(alpha, gamma), branch)
        lo, hi = wave.xi0 + 0.1, wave.xi0 + 10.0
        sol = ode_solve_g(wave.params, g_eval(wave, lo), (lo, hi), 1e-9)
        sups.append(np.max(np.abs(sol.ys - g_eval(wave, sol.xs))))
    return float(np.max(sups))


def _pde_max_residual() -> float:
    rng = np.random.default_rng(314159)
    residuals = []
    for branch, alpha, gamma in BRANCH_CASES:
        wave = TravellingWave(ModelParams(alpha, gamma), branch)
        for _ in range(50):
            x = float(rng.uniform(-10.0, 10.0))
            t = float(rng.uniform(-10.0, 10.0))
            residuals.append(abs(pde_residual(wave, x, t, 1e-3)))
    return float(np.max(residuals))


def _fmap_identity_max_rel() -> float:
    # F(y)*(sqrt(1+y^2) - y) = 1, the second factor in its own stable form
    ys = np.concatenate([-np.logspace(-8, 8, 33), [0.0], np.logspace(-8, 8, 33)])
    r = np.sqrt(1.0 + ys * ys)
    with np.errstate(divide="ignore"):
        rel = np.abs(F_map(ys) * np.where(ys > 0.0, 1.0 / (r + ys), r - ys) - 1.0)
    return float(np.max(rel))


def _periodicity_max_abs() -> float:
    wave = TravellingWave(ModelParams(1.0, math.sqrt(2.0)), WaveBranch.KINK_ARRAY)
    xs = np.random.default_rng(271828).uniform(-60.0, 60.0, 100)
    gaps = g_eval(wave, xs + xi_period(wave.params)) - g_eval(wave, xs)
    return float(np.max(np.abs(gaps - TWO_PI)))


def _ode_max_residual() -> float:
    h, xs = 1e-4, np.linspace(-12.0, 12.0, 1000)
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    residuals = []
    for branch, alpha, gamma in BRANCH_CASES:
        wave = TravellingWave(ModelParams(alpha, gamma), branch)
        slope = stencil @ np.stack([g_eval(wave, xs + k * h) for k in (-2, -1, 0, 1, 2)])
        residuals.append(np.abs(alpha * slope - gamma + np.sin(g_eval(wave, xs))))
    return float(np.max(residuals))


# check name -> (threshold, zero-argument function returning the worst value);
# a check passes when its worst value is below its threshold
CHECKS = {
    "identity_max_residual": (1e-12, _identity_max_residual),    # criterion 06
    "period_max_abs_diff": (1e-9, _period_max_abs_diff),         # criterion 01
    "ode_oracle_sup_diff": (1e-8, _ode_oracle_sup_diff),         # criterion 04
    "pde_max_residual": (1e-6, _pde_max_residual),               # criterion 03
    "fmap_identity_max_rel": (1e-12, _fmap_identity_max_rel),
    "periodicity_max_abs": (1e-9, _periodicity_max_abs),         # criterion 07
    "ode_max_residual": (1e-8, _ode_max_residual),               # criterion 02, poles of y included
}
