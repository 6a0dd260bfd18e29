"""Every refusal rule of the library in one table: each row a call, the error it raises and a part of its message.

A row's call runs in tmp_path and must write no file there.  A `before_work` row replaces the
oracles' RK4 passes with a failure, so a rule the oracles state as refusing before any work fails
its row at once if it lets a pass run.  `bounds` sets the oracles' work bounds for the row.
`tests/test_cli.py`'s `REFUSALS` does the same for command lines.
"""

import math
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

from sgwaves import oracles, pde_sim
from sgwaves.closed_form import (TravellingWave, WaveBranch, constant_y_value, g_eval, g_limits, subcritical_rate,
                                 theta, xi_period, y_eval, y_fixed_points)
from sgwaves.errors import DomainError, NoConvergence
from sgwaves.model import ModelParams, constant_solutions
from sgwaves.oracles import (adaptive_quadrature, identities_check, implicit_xi_of_g, ode_solve_g, ode_solve_y,
                             pde_residual, quad_period)
from sgwaves.pde_sim import (Circle, FieldState, Perturbation, Segment, SimConfig, evolve, init_from_wave, step,
                             total_energy, winding_number, write_snapshot_csv)


class Refusal(NamedTuple):
    call: Callable[[], object]
    error: type
    fragment: str  # a part of the error's message
    before_work: bool = False  # an RK4 pass fails the row
    bounds: dict | None = None  # oracles work bounds, by name, for the row


def refusal(name, *fields, **named):
    return pytest.param(Refusal(*fields, **named), id=name)


def wave(branch, alpha, gamma, xi0=0.0, chirality=1):
    return TravellingWave(ModelParams(alpha, gamma), branch, xi0, chirality)


def built(f, make, *args, **named):
    """f(make(), ...): a row builds its waves and states when it runs, so a fault there fails that row alone."""
    return f(make(), *args, **named)


HALF = ModelParams(1.0, 0.5)
KINK_PARAMS = ModelParams(0.5, 1.5)
FRONT_PARAMS = ModelParams(0.5, 0.5)
kink = partial(TravellingWave, KINK_PARAMS, WaveBranch.KINK_ARRAY)  # kink(xi0) for a shifted one
kink_period = partial(xi_period, KINK_PARAMS)
front = partial(TravellingWave, FRONT_PARAMS, WaveBranch.DECREASING1)
SEGMENT = Segment(-20.0, 20.0)
front_grid = partial(built, init_from_wave, front, 512, SEGMENT)
ABOVE = math.nextafter(pde_sim.CFL * (40.0 / 511), math.inf)  # one ulp above the limit on a 512-point SEGMENT
USES = {  # each call on a hand-built state runs the time-step rule
    "step": lambda state, params: step(state, params, state.dt),
    "evolve": lambda state, params: evolve(state, params, SimConfig(dt=state.dt, t_end=1.0)),
    "total_energy": total_energy,
}


def uniform_state(dt=0.09):
    """A zero field on a 64-point circle of dx = 0.1."""
    return FieldState(dx=0.1, phi=np.zeros(64), phi_prev=np.zeros(64), t=0.0, dt=dt)


def counted(f):
    """f, failing from MAX_QUAD_EVALS + 30 points on: the quadrature splits a panel in two (30
    evaluations) only while the 15 per panel it has made stay below the bound."""
    seen = []

    def f_counted(s):
        seen.append(s.size)
        assert sum(seen) < oracles.MAX_QUAD_EVALS + 30, "the quadrature ran past its evaluation bound"
        return f(s)
    return f_counted


def finite_panels_infinite_sum():
    # the first panel's nodes see small values and split; its halves are finite, their sum is not
    calls = []

    def f(s):
        calls.append(s)
        return np.full_like(s, 6e306) if len(calls) > 1 else 1e306 * (-1.0) ** np.arange(15)
    try:
        return adaptive_quadrature(f, 0.0, 40.0, 1e300)
    finally:
        assert len(calls) == 3, f"{len(calls)} integrand calls: the first split's sum was not refused at once"


PERIOD = "period needs gamma > 1 and a finite, positive value"
NO_PHASE = "y has no phase left at some xi on branch kink_array"
INTERVAL = "integration interval needs a < b within +-"
RATE = "moves the state more than 1 per RK4 step"
CAP = pde_sim.MAX_GRID_POINTS  # the most grid points, windings m and modes
GRID = f"grid size n must be in [64, {CAP}], got "
STEP = "grid needs 0 < dt <= 0.9*dx with dt^2, dx^2 normal"
T_END = "t_end must be positive with t_end/dt finite, got "
PHI = "initial |phi| exceeds 1e+06: shift xi0 by whole periods"
SHAPE = "phi and phi_prev need one 1-d shape of at least 1 point"

# Every refusal rule of model, closed_form, oracles and pde_sim, with a part of its own message.
REFUSALS = [
    # model
    *(refusal(f"alpha-{alpha}", partial(ModelParams, alpha, 0.5), DomainError,
              f"alpha must be finite and strictly positive, got {alpha}") for alpha in [0.0, -1.0, math.nan]),
    refusal("gamma-inf", partial(ModelParams, 1.0, math.inf), DomainError, "gamma must be finite, got inf"),
    refusal("uniform-states-above-one", partial(constant_solutions, ModelParams(1.0, 1.5)), DomainError,
            "uniform states require gamma <= 1, got 1.5"),
    # closed_form: waves and their constants
    refusal("chirality-2", partial(wave, WaveBranch.KINK_ARRAY, 1.0, 1.5, chirality=2), DomainError,
            "chirality must be +1 or -1, got 2"),
    *(refusal(f"xi0-{xi0}", partial(wave, WaveBranch.KINK_ARRAY, 1.0, 1.5, xi0), DomainError,
              f"xi0 must be finite, got {xi0}") for xi0 in [math.nan, -math.inf]),
    # decreasing1 at gamma = 0 is degenerate: pure_sg covers it
    *(refusal(f"{branch.value}-at-gamma-{gamma}", partial(wave, branch, 1.0, gamma), DomainError,
              f"branch {branch.value} does not exist at gamma={gamma}")
      for branch, gamma in [(WaveBranch.KINK_ARRAY, 0.5), (WaveBranch.DECREASING1, 1.5), (WaveBranch.DECREASING1, 0.0),
                            (WaveBranch.CRITICAL_KINK, 0.999), (WaveBranch.CONSTANT_S, 1.5),
                            (WaveBranch.PURE_SG_DECREASING, 0.1)]),
    # constant_y_value's stable state was a bare "math domain error" above 1
    *(refusal(f"{name}-at-gamma-{gamma}", partial(call, ModelParams(1.0, gamma)), DomainError,
              f"real fixed points require 0 < gamma <= 1, got {gamma}")
      for name, call, gamma in [("fixed-points", y_fixed_points, 2.0), ("fixed-points", y_fixed_points, 0.0),
                                ("constant-y", partial(constant_y_value, branch=WaveBranch.CONSTANT_S), 1.5)]),
    refusal("constant-y-not-constant", partial(constant_y_value, HALF, WaveBranch.DECREASING1), DomainError,
            "branch decreasing1 is not constant"),
    refusal("rate-supercritical", partial(subcritical_rate, ModelParams(1.0, 1.5)), DomainError,
            "rate defined only for gamma <= 1"),
    refusal("period-critical", partial(xi_period, ModelParams(1.0, 1.0)), DomainError, PERIOD),
    # an infinite period (alpha = 1e308) was printed as inf by `sgwaves period`; at gamma = 1e200,
    # gamma^2 - 1 overflows and the period read 0.  g_eval and y_eval take the period's refusal
    *(refusal(f"{name}-period-{alpha:g}-{gamma!r}", call, DomainError, PERIOD)
      for alpha, gamma in [(1e308, 1.5), (1e301, 1.0 + 1e-15), (1.0, 1e200)]
      for name, call in [("xi", partial(xi_period, ModelParams(alpha, gamma))),
                         ("g", partial(built, g_eval, partial(wave, WaveBranch.KINK_ARRAY, alpha, gamma), 0.0)),
                         ("y", partial(built, y_eval, partial(wave, WaveBranch.KINK_ARRAY, alpha, gamma), 0.0))]),
    *(refusal(f"theta-{gamma}", partial(theta, gamma), DomainError, f"theta requires 0 <= gamma <= 1, got {gamma}")
      for gamma in [-0.1, 1.1]),
    *(refusal(f"g-limits-{branch.value}", partial(built, g_limits, partial(wave, branch, alpha, gamma)), DomainError,
              f"g has no finite limits for branch {branch.value}")
      for branch, alpha, gamma in [(WaveBranch.KINK_ARRAY, 0.5, 1.5), (WaveBranch.CONSTANT_S, 1.0, 0.5)]),
    # closed_form: evaluation
    *(refusal(f"{f.__name__}-{branch.value}", partial(built, f, partial(wave, branch, 1.0, 0.5), 0.0), DomainError,
              f"operation not defined for branch {branch.value}")
      for f, branch in [(y_eval, WaveBranch.CONSTANT_S), (g_eval, WaveBranch.CONSTANT_U)]),
    refusal("xi-offset-overflows", lambda: g_eval(kink(-1e308), 1e308), DomainError, "xi - xi0 overflow"),
    # from 2**52 periods on every double is a whole number of them: y read inf (in the pole window)
    # or -1/gamma there; g = 2*pi*u stays right to its own ulp
    refusal("y-no-phase-left", lambda: y_eval(kink(), 2.0**52 * kink_period()), DomainError, NO_PHASE),
    refusal("y-no-phase-left-negative", lambda: y_eval(kink(), -2.0**52 * kink_period()), DomainError, NO_PHASE),
    refusal("y-no-phase-left-in-an-array", lambda: y_eval(kink(), np.array([0.3, 2.0**52 * kink_period()])),
            DomainError, NO_PHASE),
    # a NaN xi keeps its own refusal beside an xi that still has a phase
    *(refusal(f"y-nan-xi-beside-{name}", lambda n=n: y_eval(kink(), np.array([math.nan, n * kink_period()])),
              DomainError, "y is NaN at some xi on branch kink_array (a NaN xi)")
      for name, n in [("far", 2.0**52 - 1), ("-far", 1 - 2.0**52)]),
    refusal("g-nan-xi", lambda: g_eval(kink(), math.nan), DomainError, "g is not finite at some xi on branch kink_"),
    # oracles: intervals and tolerances
    refusal("ode_solve_g-empty-span", partial(ode_solve_g, HALF, 0.0, (1.0, 1.0), 1e-9), DomainError, INTERVAL,
            before_work=True),
    refusal("ode_solve_g-zero-tol", partial(ode_solve_g, HALF, 0.0, (0.0, 1.0), 0.0), DomainError,
            "tol must be positive, got 0.0", before_work=True),
    refusal("quadrature-interval-1-1", partial(adaptive_quadrature, np.sin, 1.0, 1.0, 1e-10), DomainError, INTERVAL),
    refusal("quadrature-zero-tol", partial(adaptive_quadrature, np.sin, 0.0, 1.0, 0.0), DomainError,
            "tol must be positive, got 0.0"),
    *(refusal(f"quadrature-interval-{a}-{b}", partial(adaptive_quadrature, np.cos, a, b, 1e-9), DomainError, INTERVAL)
      for a, b in [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)]),
    # finite bounds whose width (first and last pair) or panel midpoint (second pair)
    # overflows: both quadratures returned nan
    *(refusal(f"{name}-interval-{a:g}-{b:g}{suffix}", partial(call, a, b), DomainError, INTERVAL)
      for a, b, suffix in [(-1e308, 1e308, ""), (1e308, 1.7e308, ""), (np.float64(-1e308), np.float64(1e308), "-np")]
      for name, call in [("quadrature", lambda a, b: adaptive_quadrature(np.cos, a, b, 1e-9)),
                         ("implicit-xi", partial(implicit_xi_of_g, ModelParams(1.0, 1.5)))]),
    # ended in an OverflowError from math.ceil(inf)
    *(refusal(f"{solve.__name__}-overflowing-span", partial(solve, HALF, 0.0, (-1e308, 1e308)), DomainError,
              INTERVAL, before_work=True) for solve in [ode_solve_g, ode_solve_y]),
    # equal bounds returned 0.0 for any tol, while unequal bounds refused it
    *(refusal(f"implicit-xi-tol-{tol}-{bounds}", partial(implicit_xi_of_g, ModelParams(1.0, 1.5), 1.0, g_to, tol),
              DomainError, f"tol must be positive, got {tol}")
      for bounds, g_to in [("equal-bounds", 1.0), ("unequal-bounds", 2.0)] for tol in [math.nan, 0.0, -1e-10]),
    # oracles: ODE starts, refused before any RK4 pass.  A NaN start used to run all 20
    # halvings (about 33M RK4 steps) before NoConvergence; g0 = inf ended in a bare "math domain error"
    *(refusal(f"ode_solve_g-start-{g0}", partial(ode_solve_g, HALF, g0, (0.0, 1.0)), DomainError,
              f"g0 must be finite, got {g0}", before_work=True) for g0 in [math.nan, math.inf, -math.inf]),
    # y0 = +-inf stays valid: a start on a pole
    refusal("ode_solve_y-start-nan", partial(ode_solve_y, HALF, math.nan, (0.0, 1.0)), DomainError,
            "y0 must not be NaN", before_work=True),
    # ode_solve_g raised "math domain error" at once; ode_solve_y took 12 s to NoConvergence
    *(refusal(f"{solve.__name__}-infinite-start-rate-{start!r}", partial(solve, ModelParams(1e-300, 1e300), start,
              (-1.0, -0.5)), DomainError, f"the start rate inf {RATE}", before_work=True)
      for solve, start in [(ode_solve_g, -0.0), (ode_solve_y, 0.3), (ode_solve_y, 5.0), (ode_solve_y, -math.inf),
                           (ode_solve_y, np.float64(0.3))]),
    # each ran every doubling up to MAX_RK4_STEPS first, 3.9-9.4 s, to NoConvergence; the last
    # carried g past the largest double near xi = 18, and every pass was NaN from there
    *(refusal(f"{solve.__name__}-unresolvable-flow-{params.alpha:g}-{params.gamma:g}", partial(solve, params, 0.0,
              span), DomainError, RATE, before_work=True)
      for solve in [ode_solve_g, ode_solve_y]
      for params, span in [(ModelParams(1e-300, 0.5), (0.0, 1.0)), (ModelParams(1.0, 1e300), (0.0, 1e6)),
                           (ModelParams(1.0, 1e307), (0.0, 100.0))]),
    # a start rate of 1000 over 4096 steps: 1.03 per step is refused, 0.98 runs the passes
    refusal("ode_solve_g-rate-over-one-unit-per-finest-step", partial(ode_solve_g, ModelParams(1.0, 1000.0), 0.0,
            (0.0, 4.2)), DomainError, f"the start rate 1000.0 {RATE} over (0.0, 4.2) even at 4096 steps",
            before_work=True, bounds={"MAX_RK4_STEPS": 2**12}),
    # a start at a fixed point has rate 0, so only the cap refuses a first pass of 4e9 steps (32 GB)
    *(refusal(f"{solve.__name__}-first-pass-over-cap", partial(built, partial(solve, HALF), start, (0.0, 1e9)),
              DomainError, f"span (0.0, 1000000000.0) needs more than {oracles.MAX_RK4_STEPS} RK4 steps per pass",
              before_work=True)
      for solve, start in [(ode_solve_g, partial(math.asin, 0.5)), (ode_solve_y, lambda: y_fixed_points(HALF).y_plus)]),
    # oracles: RK4 passes that do not converge
    *(refusal(f"{solve.__name__}-doubling-past-cap", partial(solve, HALF, 0.0, (0.0, 1.0), 1e-300), NoConvergence,
              "RK4 did not converge to tol=1e-300 within 64 steps per pass", bounds={"MAX_RK4_STEPS": 64})
      for solve in [ode_solve_g, ode_solve_y]),
    *(refusal(f"{solve.__name__}-stalled-at-the-rounding-floor", partial(solve, HALF, 0.0, (0.0, 1.0), 1e-300),
              NoConvergence, "RK4 passes stalled at their rounding floor") for solve in [ode_solve_g, ode_solve_y]),
    # oracles: quadratures
    refusal("quadrature-past-its-evaluations", lambda: adaptive_quadrature(
        counted(oracles._xi_integrand(ModelParams(1.0, 1.5))), -math.pi, math.pi, 1e-300), NoConvergence,
            "quadrature tolerance 1e-300 unreachable within 2000 evaluations", bounds={"MAX_QUAD_EVALS": 2000}),
    refusal("period-integral-critical", partial(quad_period, ModelParams(1.0, 1.0)), DomainError,
            "period integral requires gamma > 1, got 1.0"),
    # the quadratures warned about an overflow and returned inf
    refusal("period-integral-infinite", partial(quad_period, ModelParams(1e308, 1.5)), DomainError,
            "the integral over the panel (-3.14"),
    refusal("implicit-xi-infinite", partial(implicit_xi_of_g, ModelParams(1e308, 0.999999), 0.3, -0.0), DomainError,
            "the integral over the panel (-1.57"),
    refusal("quadrature-finite-panels-infinite-sum", finite_panels_infinite_sum, DomainError,
            "the integral over (0.0, 40.0) is not finite"),
    *(refusal(f"implicit-xi-bounds-{gamma}-{g_from}-{g_to}", partial(implicit_xi_of_g, ModelParams(1.0, gamma),
              g_from, g_to), DomainError, f"g bounds must be finite, got ({g_from}, {g_to})")
      for gamma in [1.5, 0.5]
      for g_from, g_to in [(math.nan, 1.0), (1.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]),
    *(refusal(f"implicit-xi-singular-at-{g_to:.4f}", partial(implicit_xi_of_g, HALF, 0.0, g_to, 1e-10), DomainError,
              "gamma - sin(s) vanishes on the integration path") for g_to in [math.pi / 6, math.pi]),
    # theta's rule: identities_check takes theta(gamma) first
    *(refusal(f"identities-{gamma}", partial(identities_check, gamma), DomainError,
              f"theta requires 0 <= gamma <= 1, got {gamma}") for gamma in [1.5, -0.2]),
    # oracles: field-equation residual
    *(refusal(f"residual-step-{h}", partial(built, pde_residual, kink, 0.0, 0.0, h), DomainError,
              f"h must be positive and finite, got {h}") for h in [0.0, -1e-3, math.inf, math.nan]),
    # h*h underflows to 0, so every stencil weight is infinite
    refusal("residual-not-finite", lambda: pde_residual(kink(), 0.0, 0.0, 1e-200), DomainError,
            "the residual at x=0.0, t=0.0 with h=1e-200 is not finite"),
    # pde_sim: states and settings.  A mismatched phi_prev was a broadcast ValueError in step and
    # passed comoving_deviation; an empty circle was an IndexError in step and a ZeroDivisionError in
    # comoving_deviation; a 2-point segment was an IndexError in total_energy
    *(refusal(f"state-shape-{name}", partial(FieldState, dx=0.1, phi=np.zeros(phi), phi_prev=np.zeros(prev), t=0.0,
              dt=0.09), DomainError, SHAPE)
      for name, phi, prev in [("prev-shorter", 64, 63), ("prev-2d", 64, (1, 64)), ("2d", (2, 32), (2, 32)),
                              ("0d", (), ()), ("empty", 0, 0)]),
    refusal("state-shape-segment-of-2", lambda: FieldState(dx=0.1, phi=np.zeros(2), phi_prev=np.zeros(2), t=0.0,
                                                           dt=0.09, pinned=front()), DomainError, SHAPE),
    *(refusal(f"amplitude-{amplitude}", partial(Perturbation, amplitude, 1), DomainError,
              f"perturbation amplitude must be finite and >= 0: {amplitude}")
      for amplitude in [-1.0, math.nan, math.inf]),
    # CAP + 1 ran aliased on every grid; 10**400 ended in an OverflowError in evolve's kick profile
    *(refusal(f"mode-{name}", partial(Perturbation, 1e-3, mode), DomainError,
              f"perturbation mode number must be in [1, {CAP}], got {mode}")
      for name, mode in [("0", 0), ("over-cap", CAP + 1), ("1e400", 10**400)]),
    # a count must be a whole number: mode inf warned in sin and mode nan made the field NaN, read as a blow-up
    *(refusal(f"mode-{mode}", partial(Perturbation, 1e-3, mode), DomainError,
              f"perturbation mode number must be a whole number, got {mode}") for mode in [1.5, math.inf, math.nan]),
    *(refusal(f"config-dt-{dt}", partial(SimConfig, dt=dt, t_end=1.0), DomainError,
              f"dt must be finite and positive, got {dt}") for dt in [0.0, math.nan]),
    refusal("config-t-end-0", partial(SimConfig, dt=0.1, t_end=0.0), DomainError, f"{T_END}0.0/0.1"),
    # math.ceil(inf) used to raise OverflowError inside evolve
    refusal("config-step-count-overflows", partial(SimConfig, dt=1e-3, t_end=1e308), DomainError, f"{T_END}1e+308/"),
    refusal("config-record-every-0", partial(SimConfig, dt=0.1, t_end=1.0, record_every=0), DomainError,
            "record_every must be in [1, inf], got 0"),
    # each was a TypeError in evolve's range()
    *(refusal(f"config-record-every-{every}", partial(SimConfig, dt=0.1, t_end=1.0, record_every=every), DomainError,
              f"record_every must be a whole number, got {every}") for every in [1.5, math.inf, math.nan]),
    # pde_sim: grids
    refusal("grid-n-32", lambda: init_from_wave(kink(), 32, Circle(1)), DomainError, f"{GRID}32"),
    # 64.5 ran on 65 points spaced for 64.5
    refusal("grid-n-64.5", lambda: init_from_wave(kink(), 64.5, Circle(1)), DomainError,
            "grid size n must be a whole number, got 64.5"),
    # a huge n used to reach the array allocations unchecked
    *(refusal(f"grid-n-over-cap-{type(domain).__name__}", partial(built, pde_sim.domain_grid, kink, n, domain),
              DomainError, f"{GRID}{n}") for n in [pde_sim.MAX_GRID_POINTS + 1] for domain in [Circle(1), SEGMENT]),
    *(refusal(f"circle-m-{m}", partial(built, pde_sim.domain_grid, kink, 64, Circle(m)), DomainError,
              f"circle winding m must be in [1, {CAP}], got {m}") for m in [0, -1]),
    # Circle(10**400) ended in an OverflowError in m*Xi; CAP + 1 windings reached the |phi| rule
    *(refusal(f"circle-m-{name}", lambda m=m: init_from_wave(kink(), 64, Circle(m)), DomainError,
              f"circle winding m must be in [1, {CAP}], got {m}")
      for name, m in [("over-cap", CAP + 1), ("1e400", 10**400)]),
    # Circle(1.5) twisted by 3*pi, half a kink
    refusal("circle-m-1.5", lambda: init_from_wave(kink(), 64, Circle(1.5)), DomainError,
            "circle winding m must be a whole number, got 1.5"),
    # xi_period's rule: a circle is m periods long
    refusal("circle-subcritical", lambda: init_from_wave(front(), 128, Circle(1)), DomainError, PERIOD),
    # an infinite or overflowing x_hi - x_lo used to give a grid of NaN points
    *(refusal(f"segment-{x_lo}-{x_hi}", partial(built, init_from_wave, front, 64, Segment(x_lo, x_hi)), DomainError,
              f"segment needs finite x_lo < x_hi, got Segment(x_lo={x_lo}")
      for x_lo, x_hi in [(-20.0, math.inf), (-math.inf, 20.0), (-1e308, 1e308), (math.nan, 20.0), (20.0, 20.0),
                         (1.0, 0.0)]),
    refusal("domain-tuple", lambda: pde_sim.domain_grid(kink(), 64, (-20.0, 20.0)), DomainError, "unknown domain type"),
    # dx*dx underflowing to 0 divided by zero; dt*dt = 0 asked for 1e300 steps per unit time;
    # a segment of 1e300 gives dx*dx = inf, which "diverged" at the first step
    refusal("spacing-dx-squared-inf", lambda: init_from_wave(front(), 64, Segment(0.0, 1e300)), DomainError, STEP),
    refusal("spacing-dx-squared-zero", lambda: init_from_wave(wave(WaveBranch.KINK_ARRAY, 1e-300, 1.5), 64, Circle(1)),
            DomainError, STEP),
    refusal("spacing-dt-squared-zero", lambda: init_from_wave(kink(), 64, Circle(1), dt=1e-300), DomainError, STEP),
    # the time-step rule 0 < dt <= CFL*dx refuses 0.95*dx before any state exists
    refusal("spacing-dt-0.95-dx", lambda: init_from_wave(kink(), 128, Circle(1), dt=0.95 * kink_period() / 128),
            DomainError, STEP),
    refusal("spacing-init-one-ulp-above", partial(front_grid, dt=ABOVE), DomainError, STEP),
    # a hand-built state meets the same rule wherever the kernel runs: total_energy read -0.242 at
    # dt = -dx, and nan (with a RuntimeWarning at dt = 0) otherwise
    *(refusal(f"spacing-{use}-dt-{dt}", partial(built, USES[use], partial(uniform_state, dt), HALF), DomainError, STEP)
      for use, dts in [("step", [0.0, -0.1, 0.2]), ("evolve", [0.2]), ("total_energy", [0.0, -0.1, math.nan, 0.2])]
      for dt in dts),
    *(refusal(f"spacing-{use}-one-ulp-above", partial(built, call, lambda: replace(front_grid(), dt=ABOVE),
              FRONT_PARAMS), DomainError, STEP) for use, call in USES.items()),
    refusal("spacing-step-dt-nan", lambda: step(uniform_state(math.nan), HALF, math.nan), DomainError, STEP),
    # |phi| ~ 1.1e7 at xi0 = 1e7 passed, then diverged in the first steps.  10**6 windings reach
    # |phi| ~ 6.3e6 and stay under the winding cap
    *(refusal(f"initial-phi-xi0-{xi0:g}-m-{m}", partial(built, init_from_wave, partial(kink, xi0), 64, Circle(m)),
              DomainError, PHI) for xi0, m in [(1e7, 1), (-1e7, 1), (1e300, 1), (0.0, 10**6)]),
    *(refusal(f"{name}-dt-mismatch", call, DomainError, "dt must match the state's leapfrog spacing")
      for name, call in [("step", lambda: step(uniform_state(), HALF, 0.045)),
                         ("evolve", lambda: evolve(uniform_state(), HALF, SimConfig(dt=0.045, t_end=1.0)))]),
    # the snapshot steps its run's kernel, which passed the time-step gate in evolve
    refusal("snapshot-without-a-run", lambda: write_snapshot_csv(pde_sim.DeviationReport(), "s.csv"), DomainError,
            "the snapshot needs the report of an evolve run"),
    refusal("winding-on-a-segment", lambda: winding_number(init_from_wave(front(), 128, SEGMENT)), DomainError,
            "winding is defined on twisted periodic domains only"),
]


def no_pass(*args):
    raise AssertionError("an RK4 pass ran on input it should have rejected")


@pytest.mark.parametrize("row", REFUSALS)
def test_refused(monkeypatch, tmp_path, row):
    monkeypatch.chdir(tmp_path)
    stubs = {"_rk4_g": no_pass, "_integrate_riccati": no_pass} if row.before_work else {}
    for name, value in {**stubs, **(row.bounds or {})}.items():
        monkeypatch.setattr(oracles, name, value)
    with pytest.raises(row.error) as info:
        row.call()
    assert row.fragment in str(info.value)
    assert not any(tmp_path.iterdir())
