"""Property tests over random waves: every closed form solves the field equation and the
reduced equation, and the simulator carries an unperturbed kink array one period with its wave."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgwaves import (
    Circle,
    ModelParams,
    SimConfig,
    TravellingWave,
    WaveBranch,
    evolve,
    g_eval,
    init_from_wave,
    pde_residual,
    xi_period,
)
from sgwaves.oracles import CHECKS

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)

ALPHAS = st.floats(0.3, 2.0)
KINK_ARRAY_GAMMAS = st.floats(1.05, 3.0)
SUBCRITICAL_GAMMAS = st.floats(0.05, 0.95)
GAMMAS = {  # a compatible forcing per non-constant branch
    WaveBranch.DECREASING1: SUBCRITICAL_GAMMAS,
    WaveBranch.INCREASING2: SUBCRITICAL_GAMMAS,
    WaveBranch.CRITICAL_KINK: st.just(1.0),
    WaveBranch.KINK_ARRAY: KINK_ARRAY_GAMMAS,
    WaveBranch.PURE_SG_DECREASING: st.just(0.0),
    WaveBranch.PURE_SG_INCREASING: st.just(0.0),
}


@st.composite
def waves(draw):
    branch = draw(st.sampled_from(list(GAMMAS)))
    params = ModelParams(draw(ALPHAS), draw(GAMMAS[branch]))
    return TravellingWave(params, branch, draw(st.floats(-5.0, 5.0)), draw(st.sampled_from([1, -1])))


@PROPERTY_SETTINGS
@given(waves(), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_closed_forms_solve_the_field_and_reduced_equations(wave, x, t):
    # 3000 draws peaked at 2.8e-8 (field) and 7.0e-11 (reduced)
    assert abs(pde_residual(wave, x, t, 1e-3)) < CHECKS["pde_max_residual"][0]  # criterion 03
    h = 1e-4
    g5 = g_eval(wave, wave.chirality * x - t + h * np.arange(-2.0, 3.0))
    slope = float(np.dot([1.0, -8.0, 0.0, 8.0, -1.0], g5)) / (12.0 * h)
    p = wave.params
    assert abs(p.alpha * slope - p.gamma + math.sin(g5[2])) < CHECKS["ode_max_residual"][0]  # criterion 02


# the corners of the box; (0.3, 1.05) reads 4.3e-4, the worst of them.  On Circle(2) the
# same corners reach 1.7e-3
@settings(PROPERTY_SETTINGS, max_examples=30)
@given(ALPHAS, KINK_ARRAY_GAMMAS)
@example(0.3, 1.05)
@example(0.3, 3.0)
@example(2.0, 1.05)
@example(2.0, 3.0)
def test_kink_array_travels_one_period_with_its_wave(alpha, gamma):
    wave = TravellingWave(ModelParams(alpha, gamma), WaveBranch.KINK_ARRAY)
    state = init_from_wave(wave, 256, Circle(1))  # the default dt, CFL*dx
    config = SimConfig(dt=state.dt, t_end=xi_period(wave.params), record_every=10**6)
    report = evolve(state, wave.params, config, reference=wave)
    assert report.deviation[-1] < 1e-3
