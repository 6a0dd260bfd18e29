import math
from dataclasses import replace

import numpy as np
import pytest

from sgwaves import (
    BlowUp,
    BoundaryMode,
    Circle,
    DomainError,
    FieldState,
    ModelParams,
    Perturbation,
    Segment,
    SimConfig,
    TravellingWave,
    WaveBranch,
    comoving_deviation,
    constant_solutions,
    evolve,
    init_from_wave,
    phi_eval,
    phi_limits,
    step,
    subcritical_rate,
    total_energy,
    winding_number,
    xi_period,
)

TWO_PI = 2.0 * math.pi


def kink_array_wave(alpha=0.5, gamma=1.5):
    return TravellingWave(ModelParams(alpha, gamma), WaveBranch.KINK_ARRAY)


def uniform_state(n=64, dx=0.1, value=0.0, dt=None, phi_t=0.0):
    dt = 0.9 * dx if dt is None else dt
    phi = np.full(n, float(value))
    return FieldState(
        n=n, dx=dx, phi=phi, phi_prev=phi - dt * phi_t, t=0.0, winding=0,
        boundary=BoundaryMode.TWISTED_PERIODIC, chirality=1, x0=0.0, dt=dt,
    )


class TestInitFromWave:
    def test_circle_twist(self):
        wave = kink_array_wave(alpha=1.0, gamma=math.sqrt(2.0))
        state = init_from_wave(wave, 256, Circle(1))
        assert state.length == pytest.approx(TWO_PI, abs=1e-12)
        # the sampled field twists by one full turn per circuit
        assert winding_number(state) == pytest.approx(1.0, abs=1e-12)
        jump = state.phi[0] + state.twist - state.phi[-1]
        assert jump == pytest.approx(state.phi[1] - state.phi[0], rel=1e-2)

    def test_circle_length_scales_with_winding(self):
        wave = kink_array_wave(alpha=1.0, gamma=2.0)
        state = init_from_wave(wave, 192, Circle(3))
        assert state.length == pytest.approx(3 * TWO_PI / math.sqrt(3.0), abs=1e-12)

    def test_circle_needs_supercritical(self):
        wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.DECREASING1)
        with pytest.raises(DomainError):
            init_from_wave(wave, 128, Circle(1))

    def test_segment_boundaries_near_asymptotes(self):
        params = ModelParams(1.0, 0.5)
        wave = TravellingWave(params, WaveBranch.DECREASING1)
        state = init_from_wave(wave, 128, Segment(-20.0, 20.0))
        lo, hi = phi_limits(wave)
        assert abs(state.phi[0] - lo) < 1e-6
        assert abs(state.phi[-1] - hi) < 1e-6

    def test_prev_level_is_exact_wave(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 128, Circle(1), dt=0.005)
        expected = phi_eval(wave, state.x, -0.005)
        assert np.array_equal(state.phi_prev, np.asarray(expected))

    def test_minimum_grid(self):
        with pytest.raises(DomainError):
            init_from_wave(kink_array_wave(), 32, Circle(1))


class TestStep:
    def test_constant_state_is_fixed_point(self):
        params = ModelParams(1.0, 0.5)
        phi_s = constant_solutions(params).phi_s
        state = uniform_state(value=phi_s)
        for _ in range(5):
            new = step(state, params, state.dt)
            assert np.max(np.abs(new.phi - phi_s)) < 1e-14
            state = new

    def test_zero_field_stays_zero_undriven(self):
        params = ModelParams(1.0, 0.0)
        state = uniform_state(value=0.0)
        for _ in range(10):
            state = step(state, params, state.dt)
        assert np.max(np.abs(state.phi)) == 0.0

    def test_exact_wave_propagates_one_period(self):
        wave = kink_array_wave(alpha=0.7)
        params = wave.params
        period = xi_period(params)
        n = 256
        dt = 0.5 * (period / n)
        state = init_from_wave(wave, n, Circle(1), dt=dt)
        steps = int(round(period / dt))
        for _ in range(steps):
            state = step(state, params, dt)
        deviation, _ = comoving_deviation(state, wave)
        assert deviation < 1e-3

    def test_dt_mismatch_rejected(self):
        state = uniform_state()
        with pytest.raises(DomainError):
            step(state, ModelParams(1.0, 0.0), 0.5 * state.dt)

    def test_cfl_hard_limit(self):
        state = uniform_state(dt=0.2)  # dx = 0.1
        with pytest.raises(DomainError):
            step(state, ModelParams(1.0, 0.0), 0.2)

    def test_blowup_detection(self):
        # a huge uniform forcing accelerates the field past the threshold
        state = uniform_state(value=0.0)
        strong = ModelParams(1e-3, 1e6)
        with pytest.raises(BlowUp) as info:
            for _ in range(10000):
                state = step(state, strong, state.dt)
        assert info.value.t is not None

    def test_nan_field_detected(self):
        # NaN compares False with the threshold, so the guard must not rely on '>'
        state = uniform_state(value=0.0)
        state = replace(state, phi=np.where(np.arange(state.n) == 7, math.nan, state.phi))
        with pytest.raises(BlowUp) as info:
            step(state, ModelParams(1.0, 0.5), state.dt)
        assert info.value.t == pytest.approx(state.dt)
        config = SimConfig(dt=state.dt, t_end=1.0, probe=True)
        report = evolve(state, ModelParams(1.0, 0.5), config)
        assert report.diverged_at == pytest.approx(state.dt)
        assert report.final_state.t == 0.0


class TestComovingDeviation:
    def test_self_distance_zero(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 256, Circle(1))
        deviation, shift = comoving_deviation(state, wave)
        assert deviation < 1e-12
        assert abs(shift) < 1e-9

    def test_recovers_constructed_shift(self):
        wave = kink_array_wave()
        period = xi_period(wave.params)
        state = init_from_wave(wave, 256, Circle(1))
        shifted = replace(state, phi=np.asarray(phi_eval(wave, state.x - period / 8, 0.0)))
        deviation, shift = comoving_deviation(shifted, wave)
        assert abs(shift - period / 8) <= state.dx / 2
        assert deviation < 1e-6

    def test_sinusoidal_offset_amplitude(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 256, Circle(1))
        eps = 1e-3
        ripple = eps * np.sin(TWO_PI * state.x / state.length)
        bumped = replace(state, phi=state.phi + ripple)
        deviation, _ = comoving_deviation(bumped, wave)
        assert eps / 2 <= deviation <= 2 * eps


class TestTotalEnergy:
    def test_rest_state_density(self):
        # phi = 0 on a unit circle at gamma = 0 integrates to -1
        state = uniform_state(n=100, dx=0.01, value=0.0)
        assert total_energy(state, ModelParams(1.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_moving_uniform_state(self):
        c = 0.3
        alpha = 1.0
        n, dx, dt = 100, 0.01, 1e-4
        # second-order backward level: phi_tt(0) = -sin(0) - gamma - alpha*c
        phi = np.zeros(n)
        phi_prev = phi - dt * c + 0.5 * dt * dt * (-alpha * c)
        state = FieldState(
            n=n, dx=dx, phi=phi, phi_prev=phi_prev, t=0.0, winding=0,
            boundary=BoundaryMode.TWISTED_PERIODIC, chirality=1, x0=0.0, dt=dt,
        )
        energy = total_energy(state, ModelParams(alpha, 0.0))
        assert energy == pytest.approx(1.0 * (c * c / 2.0 - 1.0), abs=1e-6)

    def test_drift_per_period_matches_forcing_work(self):
        # over one period every point loses 2*pi of phase, so the energy
        # drops by exactly 2*pi*gamma*L; the golden diagnostic is the
        # discretization defect against that value (measured 2.2e-3 at
        # n=128, 5.6e-4 at n=256: second order, frozen with margin)
        wave = kink_array_wave()
        params = wave.params
        period = xi_period(params)
        defects = []
        for n in (128, 256):
            steps = math.ceil(n / 0.9)
            dt = period / steps
            state = init_from_wave(wave, n, Circle(1), dt=dt)
            exact_drop = TWO_PI * params.gamma * state.length
            e0 = total_energy(state, params)
            for _ in range(steps):
                state = step(state, params, dt)
            defects.append(abs(total_energy(state, params) - e0 + exact_drop))
        assert defects[0] < 5e-3
        assert defects[0] / defects[1] > 3.0


class TestEvolve:
    def test_unperturbed_deviation_stays_at_discretization_level(self):
        wave = kink_array_wave()
        period = xi_period(wave.params)
        n = 256
        dt = 0.9 * period / n
        state = init_from_wave(wave, n, Circle(1), dt=dt)
        config = SimConfig(dt=dt, t_end=3 * period, record_every=40)
        report = evolve(state, wave.params, config, reference=wave)
        assert max(report.deviation) < 1e-3
        assert report.diverged_at is None

    def test_twist_preserved(self):
        wave = kink_array_wave()
        period = xi_period(wave.params)
        n = 128
        dt = 0.9 * period / n
        state = init_from_wave(wave, n, Circle(1), dt=dt)
        config = SimConfig(
            dt=dt, t_end=5 * period, record_every=10**9,
            perturbation=Perturbation(1e-3, 1),
        )
        report = evolve(state, wave.params, config, reference=wave)
        assert winding_number(report.final_state) == pytest.approx(1.0, abs=1e-6)

    def test_perturbation_leaves_phi_t_untouched(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 128, Circle(1))
        config = SimConfig(dt=state.dt, t_end=state.dt, record_every=1,
                           perturbation=Perturbation(1e-2, 2))
        report = evolve(state, wave.params, config, reference=wave)
        kicked = report.final_state
        # after one step the kicked run differs from the clean one by O(eps*dt^2)
        clean = step(state, wave.params, state.dt)
        ripple = np.max(np.abs(kicked.phi - clean.phi))
        assert 5e-3 < ripple < 2e-2  # the kick itself, not an eps/dt velocity spike

    def test_instability_probe_grows(self):
        params = ModelParams(0.5, 0.5)
        wave = TravellingWave(params, WaveBranch.INCREASING2)
        half = 40.0 / subcritical_rate(params)
        n = 512
        dx = 2 * half / (n - 1)
        dt = 0.9 * dx
        state = init_from_wave(wave, n, Segment(-half, half), dt=dt)
        config = SimConfig(dt=dt, t_end=25.0, record_every=20,
                           perturbation=Perturbation(1e-3, 1))
        report = evolve(state, params, config, reference=wave)
        assert max(report.deviation) > 100 * 1e-3

    def test_decreasing1_also_unstable(self):
        params = ModelParams(0.5, 0.5)
        wave = TravellingWave(params, WaveBranch.DECREASING1)
        half = 40.0 / subcritical_rate(params)
        n = 512
        dx = 2 * half / (n - 1)
        dt = 0.9 * dx
        state = init_from_wave(wave, n, Segment(-half, half), dt=dt)
        config = SimConfig(dt=dt, t_end=25.0, record_every=20,
                           perturbation=Perturbation(1e-3, 1))
        report = evolve(state, params, config, reference=wave)
        assert max(report.deviation) > 100 * 1e-3

    def test_probe_mode_records_divergence(self):
        state = uniform_state(value=0.0)
        strong = ModelParams(1e-3, 1e6)
        config = SimConfig(dt=state.dt, t_end=100.0, record_every=10**9, probe=True)
        report = evolve(state, strong, config)
        assert report.diverged_at is not None
        assert report.final_state.t < 100.0

    def test_cfl_guard_enforced(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 128, Circle(1), dt=0.95 * xi_period(wave.params) / 128)
        with pytest.raises(DomainError):
            evolve(state, wave.params, SimConfig(dt=state.dt, t_end=1.0))

    def test_convergence_second_order(self):
        wave = kink_array_wave()
        period = xi_period(wave.params)
        finals = []
        for n in (128, 256):
            dt = 0.9 * period / n
            state = init_from_wave(wave, n, Circle(1), dt=dt)
            config = SimConfig(dt=dt, t_end=period, record_every=10**9)
            report = evolve(state, wave.params, config, reference=wave)
            finals.append(report.deviation[-1])
        assert finals[0] / finals[1] >= 3.5


class TestSimConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SimConfig(dt=0.0, t_end=1.0)
        with pytest.raises(DomainError):
            SimConfig(dt=0.1, t_end=0.0)
        with pytest.raises(DomainError):
            SimConfig(dt=0.1, t_end=1.0, cfl_guard=1.5)
        with pytest.raises(DomainError):
            SimConfig(dt=0.1, t_end=1.0, record_every=0)
        with pytest.raises(DomainError):
            Perturbation(-1.0, 1)
        with pytest.raises(DomainError):
            Perturbation(1e-3, 0)

    def test_winding_requires_circle(self):
        wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.DECREASING1)
        state = init_from_wave(wave, 128, Segment(-20.0, 20.0))
        with pytest.raises(DomainError):
            winding_number(state)
