"""Table-driven fuzzing of the oracle and closed-form API.

Each function of `CALLS` takes its arguments from pools of extreme floats
(nan, +-inf, +-1e308, +-1e-300, -0.0, 5e-324), ordinary ones and spans up to
1e6.  Whatever the arguments, a call must end within CALL_SECONDS (a
time bound that raises, so a call that never returns fails the test), numpy
warns about nothing, and it either returns a finite result (y_eval's y may
also be +-inf: at a pole, or where exp runs to a branch's limit) or raises
DomainError or NoConvergence.  The oracles' work bounds are cut to 2**10
RK4 steps per pass and 64 quadrature panels, so that every call is cheap.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgwaves import oracles
from sgwaves.closed_form import TravellingWave, WaveBranch, g_eval, phi_eval, y_eval
from sgwaves.errors import DomainError, NoConvergence
from sgwaves.model import ModelParams

CALL_SECONDS = 0.5
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, -1e-300, -0.0, 5e-324]
FLOATS = EXTREMES + [0.0, 0.5, 1.0, 1.5, 3.0, -2.0]
BOUNDS = FLOATS + [1e6, -1e6, 1e3]
TOLS = [1e-9, 1e-3, 1e-300, 5e-324, 0.0, -1.0, math.nan, math.inf]
INTEGRANDS = [np.cos, np.exp, lambda s: 1.0 / s]


# a gamma at which each branch exists
GAMMA = {WaveBranch.CONSTANT_S: 0.5, WaveBranch.CONSTANT_U: 0.5, WaveBranch.DECREASING1: 0.5,
         WaveBranch.INCREASING2: 0.5, WaveBranch.CRITICAL_KINK: 1.0, WaveBranch.KINK_ARRAY: 1.5,
         WaveBranch.PURE_SG_DECREASING: 0.0, WaveBranch.PURE_SG_INCREASING: 0.0}


def usual(value, pool):
    """The ordinary value half of the time, else one from the pool."""
    return st.one_of(st.just(value), st.sampled_from(pool))


@st.composite
def waves(draw):
    """(alpha, gamma, branch, xi0, chirality) for `wave_of`."""
    branch = draw(st.sampled_from(list(WaveBranch)))
    return (draw(usual(1.0, FLOATS)), draw(usual(GAMMA[branch], FLOATS)), branch,
            draw(usual(0.0, FLOATS)), draw(usual(1, [-1, 0])))


def wave_of(alpha, gamma, branch, xi0, chirality):
    return TravellingWave(ModelParams(alpha, gamma), branch, xi0, chirality)


floats = st.sampled_from(FLOATS)
bounds = st.sampled_from(BOUNDS)
tols = usual(1e-9, TOLS)
params = st.tuples(usual(1.0, FLOATS), usual(0.5, FLOATS))
spans = usual((0.0, 10.0), [(lo, hi) for lo in BOUNDS for hi in BOUNDS])
points = st.one_of(floats, st.just(np.linspace(-20.0, 20.0, len(FLOATS))), st.just(np.array(FLOATS)))

# name: (function, strategy of its arguments); a tuple drawn for "params" or "wave" is built inside the call
CALLS = {
    "ode_solve_g": (oracles.ode_solve_g, st.tuples(params, floats, spans, tols)),
    "ode_solve_y": (oracles.ode_solve_y, st.tuples(params, floats, spans, tols)),
    "adaptive_quadrature": (oracles.adaptive_quadrature, st.tuples(
        st.sampled_from(INTEGRANDS), usual(0.0, BOUNDS), usual(1.0, BOUNDS), tols)),
    "implicit_xi_of_g": (oracles.implicit_xi_of_g, st.tuples(
        params, usual(0.0, BOUNDS), usual(1.0, BOUNDS), usual(1e-10, TOLS))),
    "pde_residual": (oracles.pde_residual, st.tuples(waves(), floats, floats, usual(1e-3, FLOATS))),
    "g_eval": (g_eval, st.tuples(waves(), points)),
    "y_eval": (y_eval, st.tuples(waves(), points)),
    "phi_eval": (phi_eval, st.tuples(waves(), points, points)),
}


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    return name, draw(CALLS[name][1])


def build(name, args):
    """The call's arguments, with its params or wave made from the drawn tuple."""
    if name in ("ode_solve_g", "ode_solve_y", "implicit_xi_of_g"):
        return (ModelParams(*args[0]), *args[1:])
    if name in ("pde_residual", "g_eval", "y_eval", "phi_eval"):
        return (wave_of(*args[0]), *args[1:])
    return args


def finite(name, result) -> bool:
    if isinstance(result, oracles.OdeSolution):
        return bool(np.isfinite(result.xs).all() and np.isfinite(result.ys).all()
                    and math.isfinite(result.step_used))
    if name == "y_eval":
        return not np.isnan(result).any()
    return bool(np.isfinite(result).all())


@pytest.fixture
def cheap_oracles(monkeypatch):
    monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 2**10)
    monkeypatch.setattr(oracles, "MAX_QUAD_EVALS", 15 * 64)


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=calls())
# each warned about an overflow, returned NaN, or ran every RK4 doubling (3.9-9.4 s) to NoConvergence
@example(call=("g_eval", ((1.0, 1.5, WaveBranch.KINK_ARRAY, 1e308, 1), -1e308)))
@example(call=("phi_eval", ((1.0, 1.5, WaveBranch.KINK_ARRAY, 0.0, 1), 1e308, -1e308)))
@example(call=("pde_residual", ((1.0, 1.5, WaveBranch.KINK_ARRAY, 0.0, 1), 1e308, 0.0, 1e-3)))
@example(call=("g_eval", ((1e-300, 1.5, WaveBranch.KINK_ARRAY, 0.0, 1), 1e10)))
@example(call=("ode_solve_g", ((1e-300, 0.5), 0.0, (0.0, 1.0), 1e-9)))
@example(call=("ode_solve_y", ((1.0, 1e300), 0.0, (0.0, 1e6), 1e-9)))
def test_every_call_ends_in_a_finite_result_or_an_error(cheap_oracles, time_bound, call):
    name, args = call
    # a call still running at CALL_SECONDS raises Overran, which no except here takes for a refusal
    with warnings.catch_warnings(), time_bound(CALL_SECONDS):
        warnings.simplefilter("error")
        try:
            result = CALLS[name][0](*build(name, args))
        except (DomainError, NoConvergence):
            result = None
    assert result is None or finite(name, result), (name, args, result)
