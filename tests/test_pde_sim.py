import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgwaves import (
    BlowUp,
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
from sgwaves import pde_sim
from sgwaves.model import energy_density

TWO_PI = 2.0 * math.pi


def kink_array_wave(alpha=0.5, gamma=1.5):
    return TravellingWave(ModelParams(alpha, gamma), WaveBranch.KINK_ARRAY)


def uniform_state(n=64, dx=0.1, value=0.0, dt=None, phi_t=0.0):
    dt = 0.9 * dx if dt is None else dt
    phi = np.full(n, float(value))
    return FieldState(dx=dx, phi=phi, phi_prev=phi - dt * phi_t, t=0.0, dt=dt)


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

    def test_segment_boundaries_near_asymptotes(self):
        params = ModelParams(1.0, 0.5)
        wave = TravellingWave(params, WaveBranch.DECREASING1)
        state = init_from_wave(wave, 128, Segment(-20.0, 20.0))
        lo, hi = phi_limits(wave)
        assert abs(state.phi[0] - lo) < 1e-6
        assert abs(state.phi[-1] - hi) < 1e-6

    def test_prev_level_is_exact_wave(self):
        # both levels come from one closed-form call on the two times; each is the call at its own time
        params = ModelParams(0.5, 0.5)
        for wave, domain in ((kink_array_wave(), Circle(1)),
                             (TravellingWave(params, WaveBranch.INCREASING2, 0.3, -1), Segment(-20.0, 20.0)),
                             (TravellingWave(params, WaveBranch.CONSTANT_S), Segment(-20.0, 20.0))):
            state = init_from_wave(wave, 128, domain, dt=0.005)
            assert np.array_equal(state.phi, phi_eval(wave, state.x, 0.0))
            assert np.array_equal(state.phi_prev, phi_eval(wave, state.x, -0.005))

    def test_field_inside_blowup_guard_is_accepted(self):
        # a circle of m turns spans |phi| up to about 2*pi*m
        m = int(pde_sim.BLOWUP_THRESHOLD / TWO_PI) - 1
        state = init_from_wave(kink_array_wave(1.0), 64, Circle(m))
        assert 0.9 * pde_sim.BLOWUP_THRESHOLD < np.max(np.abs(state.phi)) <= pde_sim.BLOWUP_THRESHOLD

    def test_maximum_grid(self):
        # a huge n used to reach the array allocations unchecked
        wave = kink_array_wave()
        for domain in (Circle(1), Segment(-20.0, 20.0)):
            assert pde_sim.domain_grid(wave, pde_sim.MAX_GRID_POINTS, domain)[1] > 0.0


GEOMETRY_SETTINGS = settings(deadline=None, derandomize=True, database=None, max_examples=40)
alphas, xi0s, chiralities = st.floats(0.2, 2.0), st.floats(-10.0, 10.0), st.sampled_from([1, -1])
grid_sizes = st.integers(64, 300)


class TestGeometry:
    """domain_grid is the one source of a grid: spacing, twist and pinned ends."""

    @GEOMETRY_SETTINGS
    @given(alpha=alphas, gamma=st.floats(1.05, 4.0), xi0=xi0s, chirality=chiralities,
           m=st.integers(1, 3), n=grid_sizes)
    def test_circle(self, alpha, gamma, xi0, chirality, m, n):
        wave = TravellingWave(ModelParams(alpha, gamma), WaveBranch.KINK_ARRAY, xi0, chirality)
        state = init_from_wave(wave, n, Circle(m))
        assert state.n == n and state.pinned is None and state.x[0] == 0.0
        assert state.twist == chirality * TWO_PI * m
        assert state.length == pytest.approx(m * xi_period(wave.params), rel=1e-13)
        assert winding_number(state) == pytest.approx(chirality * m, abs=1e-9)

    @GEOMETRY_SETTINGS
    @given(alpha=alphas, gamma=st.floats(0.05, 0.95), xi0=xi0s, chirality=chiralities,
           branch=st.sampled_from([WaveBranch.DECREASING1, WaveBranch.INCREASING2]),
           x_lo=st.floats(-40.0, 10.0), width=st.floats(1.0, 60.0), n=grid_sizes)
    def test_segment(self, alpha, gamma, xi0, chirality, branch, x_lo, width, n):
        wave = TravellingWave(ModelParams(alpha, gamma), branch, xi0, chirality)
        x_hi = x_lo + width
        state = init_from_wave(wave, n, Segment(x_lo, x_hi))
        assert state.n == n and state.pinned is wave and state.twist == 0.0
        assert state.x[0] == x_lo
        assert state.x0 + state.length == pytest.approx(x_hi, rel=1e-13, abs=1e-13)
        # both ends follow the wave at x_lo and x_hi, at t = 0 and after a step
        for level in (state, step(state, wave.params, state.dt)):
            ends = phi_eval(wave, np.array([x_lo, x_hi]), level.t)
            assert level.phi[[0, -1]] == pytest.approx(ends, rel=1e-12, abs=1e-12)


class TestSpacingRule:
    """The time-step limit dt = 0.9*dx itself runs wherever the kernel does (tests/test_refusals.py
    holds the refusals, one ulp above it included)."""

    @pytest.mark.parametrize("domain", ["circle", "segment"])
    def test_limit_is_accepted_everywhere(self, tmp_path, domain):
        if domain == "circle":
            wave, n = kink_array_wave(), 256
            dom, dt = Circle(2), 0.9 * (2 * xi_period(wave.params) / n)
            assert init_from_wave(wave, n, dom).dt == dt  # the default is the limit itself
        else:  # a pinned front segment with dt = 0.9*dx computed as the front_scan benchmark does
            params, n = ModelParams(0.7, 0.4), 512
            wave = TravellingWave(params, WaveBranch.INCREASING2)
            half = 40.0 * params.alpha / math.sqrt((1.0 - params.gamma) * (1.0 + params.gamma))
            dom, dt = Segment(-half, half), 0.9 * (2.0 * half / (n - 1))
        state = init_from_wave(wave, n, dom, dt=dt)
        assert state.dt == pde_sim.CFL * state.dx
        step(state, wave.params, dt)
        total_energy(state, wave.params)
        report = evolve(state, wave.params, SimConfig(dt=dt, t_end=3 * dt), reference=wave)
        pde_sim.write_snapshot_csv(report, tmp_path / "s.csv")


def test_counts_may_be_numpy_integers():
    # a count is refused unless it is a whole number (tests/test_refusals.py); a numpy integer is one
    wave, reports = kink_array_wave(), []
    for count in (int, np.int64):
        state = init_from_wave(wave, count(64), Circle(count(2)))
        config = SimConfig(dt=state.dt, t_end=10 * state.dt, record_every=count(3),
                           perturbation=Perturbation(1e-3, count(2)))
        reports.append(evolve(state, wave.params, config, reference=wave))
    assert_same_report(*reports)


class TestFieldStateShapes:
    def test_only_shapes_are_checked(self):
        # the smallest circle and segment pass, and so does a NaN field: the blow-up guard catches it
        FieldState(dx=0.1, phi=np.zeros(1), phi_prev=np.zeros(1), t=0.0, dt=0.09)
        segment = TravellingWave(ModelParams(1.0, 0.5), WaveBranch.INCREASING2)
        FieldState(dx=0.1, phi=np.zeros(3), phi_prev=np.zeros(3), t=0.0, dt=0.09, pinned=segment)
        poisoned = replace(uniform_state(), phi=np.full(64, math.nan))
        with pytest.raises(BlowUp):
            step(poisoned, ModelParams(1.0, 1.5), poisoned.dt)


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


def folded_coefficients(params, dx, dt):
    """(a, b, c, k, e) of the folded update: a and k on the 2**-52 grid and b = (1 - 2a) + k."""
    dt2, half = dt * dt, 0.5 * params.alpha * dt
    r, gain = dt2 / (dx * dx), 1.0 + half
    a, k = (round(v * 2.0**52) / 2.0**52 for v in (r / gain, (1.0 - half) / gain))
    return a, (1.0 - 2.0 * a) + k, dt2 / gain, k, dt2 * params.gamma / gain


def reference_step(state, params, dt):
    """The kernel's folded leapfrog update written out whole, as one expression per level."""
    phi, prev = state.phi, state.phi_prev
    ghosts = np.concatenate(([phi[-1] - state.twist], phi, [phi[0] + state.twist]))
    a, b, c, k, e = folded_coefficients(params, state.dx, dt)
    nxt = (a * (ghosts[:-2] + ghosts[2:]) + b * phi - k * prev) - (c * np.sin(phi) + e)
    return _pin_and_guard(state, nxt, dt)


def reference_step_unfolded(state, params, dt):
    """The leapfrog update before its coefficients were folded, as one expression per level."""
    phi, prev = state.phi, state.phi_prev
    dd = np.zeros_like(phi)
    dd[1:-1] = phi[2:] - 2.0 * phi[1:-1] + phi[:-2]
    if state.pinned is None:
        dd[0] = phi[1] - 2.0 * phi[0] + (phi[-1] - state.twist)
        dd[-1] = (phi[0] + state.twist) - 2.0 * phi[-1] + phi[-2]
    accel = dd / (state.dx * state.dx) - np.sin(phi) - params.gamma
    half = 0.5 * params.alpha * dt
    nxt = (dt * dt * accel + 2.0 * phi - (1.0 - half) * prev) / (1.0 + half)
    return _pin_and_guard(state, nxt, dt)


def _pin_and_guard(state, nxt, dt):
    t = state.t + dt
    if state.pinned is not None:
        nxt[0] = phi_eval(state.pinned, state.x0, t)
        nxt[-1] = phi_eval(state.pinned, state.x0 + (state.n - 1) * state.dx, t)
    if not np.max(np.abs(nxt)) <= pde_sim.BLOWUP_THRESHOLD:
        raise BlowUp("reference blow-up", t=t)
    return replace(state, phi=nxt, phi_prev=state.phi, t=t)


def rippled(state, eps=1e-3, mode=2):
    u = (state.x - state.x0) / state.length
    ripple = eps * np.sin(TWO_PI * mode * u) * np.sin(math.pi * u) ** 2
    return replace(state, phi=state.phi + ripple, phi_prev=state.phi_prev + ripple)


def perturbed_circle():
    wave = TravellingWave(ModelParams(0.8, 1.2), WaveBranch.KINK_ARRAY, 0.3, -1)
    return wave, rippled(init_from_wave(wave, 200, Circle(2)))


def perturbed_segment():
    params = ModelParams(0.5, 0.5)
    wave = TravellingWave(params, WaveBranch.INCREASING2)
    half = 40.0 / subcritical_rate(params)
    return wave, rippled(init_from_wave(wave, 256, Segment(-half, half)))


def kicked_kink_array(alpha, gamma, mode=2):
    """A kink array on Circle(1), n = 256, kicked by eps 1e-3 (mode 2 is the kink_ensemble start)."""
    wave = kink_array_wave(alpha, gamma)
    state = init_from_wave(wave, 256, Circle(1))
    kick = pde_sim._perturbation_profile(state, Perturbation(1e-3, mode))
    return wave, replace(state, phi=state.phi + kick, phi_prev=state.phi_prev + kick)


def step_loop(state, params, config, steps, reference=None, stepper=step):
    """What evolve should report, from `stepper` looped `steps` times: with a reference, a record at the
    start, after every record_every-th step and after the last; in probe mode the first BlowUp ends the
    loop in diverged_at, with the last good state as the final one."""
    levels, diverged_at = [state], None
    for i in range(1, steps + 1):
        try:
            state = stepper(state, params, state.dt)
        except BlowUp as exc:
            if not config.probe:
                raise
            diverged_at = exc.t
            break
        if i % config.record_every == 0 or i == steps:
            levels.append(state)
    if reference is None:
        return pde_sim.DeviationReport(diverged_at=diverged_at, final_state=state)
    deviation, best_shift = zip(*(comoving_deviation(level, reference) for level in levels))
    return pde_sim.DeviationReport([level.t for level in levels], list(deviation), list(best_shift),
                                   diverged_at, state)


def assert_same_report(report, expected, equal_nan=False):
    """Bit for bit: the records, diverged_at and the final time and levels."""
    assert (report.times, report.deviation, report.best_shift, report.diverged_at, report.final_state.t) == (
        expected.times, expected.deviation, expected.best_shift, expected.diverged_at, expected.final_state.t)
    assert np.array_equal(report.final_state.phi, expected.final_state.phi, equal_nan=equal_nan)
    assert np.array_equal(report.final_state.phi_prev, expected.final_state.phi_prev, equal_nan=equal_nan)


class TestKernel:
    """evolve and step share one in-place kernel; a loop of steps is the reference."""

    @pytest.mark.parametrize("make", [perturbed_circle, perturbed_segment])
    def test_step_matches_reference_bit_for_bit(self, make):
        wave, state = make()
        ref = state
        for _ in range(25):
            state = step(state, wave.params, state.dt)
            ref = reference_step(ref, wave.params, ref.dt)
            assert np.array_equal(state.phi, ref.phi)
            assert np.array_equal(state.phi_prev, ref.phi_prev)
            assert state.t == ref.t

    @pytest.mark.parametrize("make, steps", [
        (lambda: kicked_kink_array(0.5, 1.5), 1707),  # 6 periods, as in the kink_ensemble workload
        (lambda: kicked_kink_array(2.0, 1.05), 1707),
        (lambda: kicked_kink_array(0.5, 1.5, mode=1), 5062),  # README's simulate run, |phi| up to 113
        (perturbed_segment, 200),
    ])
    def test_folding_moves_phi_by_rounding_only(self, make, steps):
        # evolve is bit-identical to the folded update; the update before folding differs from it
        # by rounding only, with no drift that grows with phi and the run's length
        wave, state = make()
        config = SimConfig(dt=state.dt, t_end=steps * state.dt)
        report = evolve(state, wave.params, config)
        assert_same_report(report, step_loop(state, wave.params, config, steps, stepper=reference_step))
        unfolded = step_loop(state, wave.params, config, steps, stepper=reference_step_unfolded).final_state
        assert report.final_state.t == unfolded.t
        assert np.max(np.abs(report.final_state.phi - unfolded.phi)) <= 1e-9

    @staticmethod
    def check_evolve_against_step_loop(make, steps, every):
        wave, state = make()
        config = SimConfig(dt=state.dt, t_end=steps * state.dt, record_every=every)
        before = state.phi.copy(), state.phi_prev.copy()
        report = evolve(state, wave.params, config, reference=wave)
        assert np.array_equal(state.phi, before[0])
        assert np.array_equal(state.phi_prev, before[1])
        assert_same_report(report, step_loop(state, wave.params, config, steps, wave))

    @pytest.mark.parametrize("make", [perturbed_circle, perturbed_segment])
    def test_evolve_matches_step_loop(self, make):
        self.check_evolve_against_step_loop(make, 60, 7)

    @pytest.mark.parametrize("steps, every", [(60, 50), (101, 10**9)])
    def test_segment_with_full_blocks_matches_step_loop(self, steps, every):
        # a record interval of 50 steps is blocks of 16, 16, 16 and 2, then one of 10; a run of 101
        # steps with no record in it is six blocks of 16 and one of 5, all with the ends of one call
        self.check_evolve_against_step_loop(perturbed_segment, steps, every)

    def test_segment_makes_one_end_call_per_block(self, monkeypatch):
        # 1501 steps are 93 blocks of 16 and one of 13: 94 calls, where a call per step made 1501
        wave, state = perturbed_segment()
        shapes = []

        def counting_phi_eval(wave, x, t):
            shapes.append(np.shape(t))
            return phi_eval(wave, x, t)

        monkeypatch.setattr(pde_sim, "phi_eval", counting_phi_eval)
        config = SimConfig(dt=state.dt, t_end=1501 * state.dt, record_every=1501)
        assert evolve(state, wave.params, config).final_state.t == pytest.approx(1501 * state.dt)
        assert shapes == [(16, 1)] * 93 + [(13, 1)]

    def test_end_call_that_fails_writes_no_level_of_its_block(self, monkeypatch):
        # a DomainError from a block's end call leaves the kernel at the block's start: its t, prev
        # and cur, and every other row of the ring, as the previous block left them
        wave, state = perturbed_segment()
        t_fail = state.t + 39.5 * state.dt  # in the third block, steps 33 to 48

        def failing_phi_eval(wave, x, t):
            if np.max(t) >= t_fail:
                raise DomainError("no end values at this time")
            return phi_eval(wave, x, t)

        monkeypatch.setattr(pde_sim, "phi_eval", failing_phi_eval)
        kernel = pde_sim._Leapfrog(state, wave.params, state.dt, 48)
        kernel.run(32)
        ring, t, p = kernel.ring.copy(), kernel.t, kernel.p
        with pytest.raises(DomainError, match="no end values"):
            kernel.run(16)
        assert np.array_equal(kernel.ring, ring)
        assert (kernel.t, kernel.p) == (t, p)
        config = SimConfig(dt=state.dt, t_end=100 * state.dt)
        last = step_loop(state, wave.params, config, 32).final_state
        assert kernel.t == last.t
        assert np.array_equal(kernel.cur[1], last.phi)
        assert np.array_equal(kernel.prev[1], last.phi_prev)
        # a run that fails in its second block keeps its first: t and the roles move together
        other = pde_sim._Leapfrog(state, wave.params, state.dt, 48)
        other.run(16)
        with pytest.raises(DomainError, match="no end values"):
            other.run(32)
        assert (other.t, other.p) == (t, p)
        assert np.array_equal(other.ring, ring)
        # probe catches only BlowUp, so evolve passes the error on with and without it
        for probe in (False, True):
            with pytest.raises(DomainError, match="no end values"):
                evolve(state, wave.params, replace(config, probe=probe))

    def test_final_state_owns_its_arrays(self, kernels):
        wave, state = perturbed_circle()
        before = state.phi.copy(), state.phi_prev.copy()
        config = SimConfig(dt=state.dt, t_end=10 * state.dt, perturbation=Perturbation(1e-3, 3))
        report = evolve(state, wave.params, config, reference=wave)
        assert np.array_equal(state.phi, before[0])
        assert np.array_equal(state.phi_prev, before[1])
        (kernel,) = kernels
        final = report.final_state
        for buffer in (kernel.ring, kernel.tmp):
            assert not np.shares_memory(final.phi, buffer)
            assert not np.shares_memory(final.phi_prev, buffer)

    def test_ring_sizes(self, tmp_path, kernels):
        # a block is at most 16 levels, 2**16 grid points, the run's steps and its record interval;
        # one step holds three levels, as do grids of 65536 points or more.  The snapshot builds none
        wave, state = perturbed_circle()
        step(state, wave.params, state.dt)
        total_energy(state, wave.params)
        for steps, every in ((1707, 50), (5, 50), (1707, 4), (1707, 1)):
            report = evolve(state, wave.params, SimConfig(dt=state.dt, t_end=steps * state.dt, record_every=every))
            pde_sim.write_snapshot_csv(report, tmp_path / "snap.csv")
        for n in (4096, 8192, 65536):
            big = init_from_wave(wave, n, Circle(2))
            evolve(big, wave.params, SimConfig(dt=big.dt, t_end=20 * big.dt))
        assert [kernel.ring.shape for kernel in kernels] == [(3, 202)] * 2 + [
            (18, 202), (7, 202), (6, 202), (3, 202), (18, 4098), (10, 8194), (3, 65538)]

    @pytest.mark.parametrize("alpha, ratio", [(0.5, 0.9), (2.0, 0.9), (0.5, 1e-3), (1e-6, 0.3), (1e3, 0.5)])
    def test_fold_keeps_a_constant_field_fixed(self, alpha, ratio):
        # 2a + b - k = 1 with no rounding, also for a small dt/dx and a negative k
        state = uniform_state(dx=0.37, dt=0.37 * ratio)
        kernel = pde_sim._Leapfrog(state, ModelParams(alpha, 1.5), state.dt)
        a, b, k = (Fraction(float(v)) for v in (kernel.a, kernel.b, kernel.k))
        assert 2 * a + b - k == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_poisoned_field_in_a_one_level_kernel(self, value, tmp_path, kernels):
        # a step, a one-step probe run and its snapshot's look-ahead report a non-finite field as a
        # blow-up, as a longer ring does (see DIVERGENCES), and raise no RuntimeWarning
        state, params = poisoned(value), ModelParams(1e-3, 1e6)
        with pytest.raises(BlowUp) as info:
            step(state, params, state.dt)
        assert info.value.t == state.dt
        report = evolve(state, params, SimConfig(dt=state.dt, t_end=state.dt, probe=True))
        assert report.diverged_at == state.dt
        pde_sim.write_snapshot_csv(report, tmp_path / "snap.csv")
        assert [kernel.ring.shape for kernel in kernels] == [(3, state.n + 2)] * 2
        assert len((tmp_path / "snap.csv").read_text().splitlines()) == 1 + state.n

    def test_diverged_state_snapshot_takes_the_rejected_level(self, tmp_path, monkeypatch):
        # the snapshot of a probe's last good state used to step into the
        # divergence again and raise BlowUp
        params = ModelParams(1e-3, 1e6)
        state = uniform_state(value=0.0)
        config = SimConfig(dt=state.dt, t_end=100.0, probe=True)
        report = evolve(state, params, config)
        final, path = report.final_state, tmp_path / "snap.csv"
        pde_sim.write_snapshot_csv(report, path)
        assert math.isfinite(total_energy(final, params))
        snap = np.loadtxt(path, delimiter=",", skiprows=1)
        monkeypatch.setattr(pde_sim, "BLOWUP_THRESHOLD", math.inf)
        rejected = reference_step(final, params, final.dt)
        assert np.max(np.abs(rejected.phi)) > 1e6
        assert np.array_equal(snap[:, 1], final.phi)
        assert np.array_equal(snap[:, 2], (rejected.phi - final.phi_prev) / (2.0 * final.dt))

    def test_pinned_pair_matches_scalar_calls(self):
        # the kernel pins both segment ends of a block with one phi_eval call on the pair at the
        # block's 16 times, added up in sequence; row by row it equals a pair call at each time
        rng = np.random.default_rng(11)
        gammas = {
            WaveBranch.DECREASING1: lambda: rng.uniform(0.01, 0.99),
            WaveBranch.INCREASING2: lambda: rng.uniform(0.01, 0.99),
            WaveBranch.CRITICAL_KINK: lambda: 1.0,
            WaveBranch.KINK_ARRAY: lambda: rng.uniform(1.01, 3.0),
            WaveBranch.PURE_SG_DECREASING: lambda: 0.0,
            WaveBranch.PURE_SG_INCREASING: lambda: 0.0,
        }
        for branch, gamma in gammas.items():
            for _ in range(200):
                params = ModelParams(rng.uniform(0.2, 2.0), gamma())
                wave = TravellingWave(params, branch, rng.uniform(-5, 5), int(rng.choice([-1, 1])))
                lo = rng.uniform(-60.0, 0.0)
                hi, t = lo + rng.uniform(1.0, 80.0), rng.uniform(0.0, 50.0)
                ends = np.array([lo, hi])
                assert np.array_equal(phi_eval(wave, ends, t), [phi_eval(wave, lo, t), phi_eval(wave, hi, t)])
                ts = list(accumulate(repeat(rng.uniform(0.01, 0.5), 16), initial=t))[1:]
                block = phi_eval(wave, ends, np.array(ts)[:, None])
                assert block.shape == (16, 2)
                for row, t_row in zip(block, ts):
                    assert np.array_equal(row, phi_eval(wave, ends, t_row))


def stepping_to(values, params, dt=0.09):
    """A zero state whose next leapfrog level is exactly `values`.

    With phi = 0 and gamma = 0 the folded update is 0 - k*prev point by
    point, so each phi_prev entry is found by stepping it one ulp at a time.
    """
    k = folded_coefficients(params, uniform_state().dx, dt)[3]
    prev = -np.asarray(values, dtype=float) / k
    for i, target in enumerate(values):
        for _ in range(100):
            got = 0.0 - k * prev[i]
            if got == target or not math.isfinite(target):
                break
            prev[i] = np.nextafter(prev[i], -math.inf if got < target else math.inf)
        else:
            raise AssertionError(f"no phi_prev steps to {target!r}")
    return replace(uniform_state(n=len(values), dt=dt), phi_prev=prev)


def guard_cases():
    n, big = 64, pde_sim.BLOWUP_THRESHOLD
    just_over = np.zeros(n)
    just_over[9] = np.nextafter(big, math.inf)
    at_limit = np.where(np.arange(n) % 2 == 0, big, -big)
    cases = {"just_over": just_over, "minus_just_over": -just_over, "all_at_limit": at_limit}
    for name, bad in (("nan", math.nan), ("plus_inf", math.inf), ("minus_inf", -math.inf)):
        cases[name] = np.where(np.arange(n) == 9, bad, 0.0)
    return cases


class TestBlowUpGuard:
    """The sum-of-squares pre-check leaves the guard's meaning exact: max|phi| <= 1e6."""

    params = ModelParams(0.1, 0.0)

    @pytest.mark.parametrize("name", guard_cases())
    def test_step_edges(self, name):
        values = guard_cases()[name]
        state = stepping_to(values, self.params)
        if name == "all_at_limit":
            assert np.dot(values, values) >= pde_sim.BLOWUP_THRESHOLD ** 2  # the exact fallback runs
            new = step(state, self.params, state.dt)
            assert np.array_equal(new.phi, values)
            assert np.array_equal(new.phi, reference_step(state, self.params, state.dt).phi)
            return
        with pytest.raises(BlowUp) as info:
            step(state, self.params, state.dt)
        with pytest.raises(BlowUp) as ref:
            reference_step(state, self.params, state.dt)
        assert info.value.t == ref.value.t == state.dt


class Divergence(NamedTuple):
    state: Callable[[], FieldState]  # built when the row runs
    params: ModelParams
    steps: int
    diverging_step: int | None  # the step whose level the guard rejects; None for a run to the end
    record_every: int = 10**9
    reference: TravellingWave | None = None
    stepper: Callable = step  # what step_loop loops for the expected report


def divergence(name, *fields, **named):
    return pytest.param(Divergence(*fields, **named), id=name)


def poisoned(value):
    """The zero uniform state with phi[5] = value."""
    state = uniform_state()
    return replace(state, phi=np.where(np.arange(state.n) == 5, value, state.phi))


# Every way a probe run ends in divergence, or reaches its end through the guard's exact fallback.
DIVERGENCES = [
    # a uniform field under strong forcing passes 1e6 at a step set by gamma; blocks are 16 levels in
    # a ring of 18 rows, so the third block fills rows 16, 17 and then 0 to 13
    *(divergence(f"block-gamma-{gamma:g}", uniform_state, ModelParams(1e-3, gamma), 1000, at) for gamma, at in [
        (1e9, 1), (4.4e6, 8), (1e6, 16),  # the first, a middle and the last level of the first block
        (9e5, 17), (4.4e5, 24), (2.4e5, 32),  # and of the second
        (2.3e5, 33), (2e5, 35), (1.07e5, 48)]),  # and of the third, on both sides of the ring's end
    divergence("run-shorter-than-a-block", uniform_state, ModelParams(1e-3, 8e6), 10, 6),
    # the interior runs away under the forcing while the ends stay on the pinned wave
    *(divergence(f"pinned-segment-gamma-{gamma:g}", lambda: perturbed_segment()[1], ModelParams(1e-3, gamma), 1000,
                 at) for gamma, at in [(1e6, 9), (1e5, 27)]),
    # with record_every 3, step 11 diverges mid-interval and step 16 right after a record
    *(divergence(f"record-interval-gamma-{gamma:g}", uniform_state, ModelParams(1e-3, gamma), 1000, at, 3,
                 kink_array_wave()) for gamma, at in [(2e6, 11), (1e6, 16)]),
    # a non-finite field, under strong or weak forcing, is rejected at the first step by a block of 16
    # levels, by a one-level kernel (record_every 1) and by the block of a 12-step run
    *(divergence(f"poison-{value}{suffix}", partial(poisoned, value), params, steps, 1, every)
      for value in [math.nan, math.inf, -math.inf]
      for suffix, params, steps, every in [("", ModelParams(1e-3, 1e6), 1000, 10**9),
                                           ("-one-level", ModelParams(1e-3, 1e6), 12, 1),
                                           ("-weak-forcing", ModelParams(1.0, 0.5), 1000, 10**9),
                                           ("-short-run", ModelParams(1.0, 0.5), 12, 50)]),
    # under strong damping a level just over 1e6 at one point is followed by smaller ones, so the
    # block's last level alone would pass the guard
    divergence("spike-decays-within-a-block", partial(stepping_to, guard_cases()["just_over"], ModelParams(20.0, 0.0)),
               ModelParams(20.0, 0.0), 16, 1),
    # the guard's edges at 1e6 against the written-out update: past it, NaN or +-inf is rejected at
    # once; a field all at +-1e6 passes its first step
    *(divergence(f"edge-{name}", partial(stepping_to, values, ModelParams(0.1, 0.0)), ModelParams(0.1, 0.0), 5,
                 2 if name == "all_at_limit" else 1, stepper=reference_step) for name, values in guard_cases().items()),
    # every block fails the sum-of-squares pre-check, and the exact fallback finds no level past 1e6
    divergence("fallback-every-block-never-diverges", partial(uniform_state, value=1e6 - 10), ModelParams(0.1, 0.0),
               100, None),
]


@pytest.mark.parametrize("row", DIVERGENCES)
def test_divergence(row, kernels, tmp_path):
    """evolve in probe mode against a loop of steps, bit for bit with NaN counted as equal; a diverged
    run ends at its diverging step, and its snapshot's phi_t steps the run's kernel into the rejected
    level, which that kernel left in nxt."""
    state = row.state()
    config = SimConfig(dt=state.dt, t_end=row.steps * state.dt, record_every=row.record_every, probe=True)
    report = evolve(state, row.params, config, row.reference)
    expected = step_loop(state, row.params, config, row.steps, row.reference, row.stepper)
    assert_same_report(report, expected, equal_nan=True)
    if row.diverging_step is None:
        assert report.diverged_at is None
        return
    assert report.diverged_at == pytest.approx(row.diverging_step * state.dt)
    final, rejected, built, path = report.final_state, report.kernel.nxt[1].copy(), len(kernels), tmp_path / "snap.csv"
    pde_sim.write_snapshot_csv(report, path)
    assert report.kernel is kernels[0] and len(kernels) == built
    phi_t = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
    assert np.array_equal(phi_t, (rejected - final.phi_prev) / (2.0 * final.dt), equal_nan=True)
    # a kernel built afresh on the step loop's last good state takes the same look-ahead
    fresh = pde_sim._Leapfrog(expected.final_state, row.params, state.dt)
    assert np.array_equal(fresh.derivatives()[0], phi_t, equal_nan=True)


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

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("chirality", [1, -1])
    @pytest.mark.parametrize("fraction", [0.3, 0.49, 0.5 + 0.25 / 256, 0.51, 0.7])
    def test_translated_wave_on_twisted_circle(self, m, chirality, fraction):
        # a translation past L/2 wraps, and the wrapped reference is off by the twist
        wave = TravellingWave(ModelParams(0.5, 1.5), WaveBranch.KINK_ARRAY, 0.2, chirality)
        state = init_from_wave(wave, 256, Circle(m))
        s = fraction * state.length
        moved = replace(state, phi=np.asarray(phi_eval(wave, state.x - s, 0.0)))
        deviation, shift = comoving_deviation(moved, wave)
        assert deviation <= 1e-6
        assert abs(math.remainder(shift - s, state.length)) <= state.dx / 2

    def test_scan_evaluates_2n_minus_1_points(self, monkeypatch):
        sizes = []

        def counting_phi_eval(wave, x, t):
            sizes.append(np.size(x))
            return phi_eval(wave, x, t)

        wave = kink_array_wave()
        state = init_from_wave(wave, 256, Circle(1))
        period = xi_period(wave.params)
        moved = replace(state, phi=np.asarray(phi_eval(wave, state.x - period / 7, 0.0)))
        monkeypatch.setattr(pde_sim, "phi_eval", counting_phi_eval)
        comoving_deviation(moved, wave)
        assert sizes == [2 * 256 - 1, 256]  # the scan, then one parabola refinement

    def test_scan_memory_is_linear(self):
        n = 16384
        wave = kink_array_wave()
        state = init_from_wave(wave, n, Circle(1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            deviation, _ = comoving_deviation(state, wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation < 1e-12
        assert peak < 64 * 2**20  # an n x n scan would need 2 GiB here


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
        state = FieldState(dx=dx, phi=phi, phi_prev=phi_prev, t=0.0, dt=dt)
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


@pytest.mark.parametrize("poison", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("domain, diagnostic", [
    ("circle", "total_energy"), ("circle", "winding_number"), ("circle", "comoving_deviation"),
    ("segment", "total_energy"), ("segment", "comoving_deviation"),
])
def test_diagnostics_of_a_non_finite_field_are_non_finite_and_quiet(poison, domain, diagnostic):
    # pytest's filterwarnings turns numpy's "invalid value" RuntimeWarning (cos(inf), inf - inf) into
    # a failure
    if domain == "circle":
        wave = kink_array_wave()
        state = init_from_wave(wave, 64, Circle(1))
    else:
        wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.INCREASING2)
        state = init_from_wave(wave, 64, Segment(-10.0, 10.0))
    state = replace(state, phi=np.where(np.arange(state.n) == 5, poison, state.phi))
    value = {
        "total_energy": lambda: total_energy(state, wave.params),
        "winding_number": lambda: winding_number(state),
        "comoving_deviation": lambda: comoving_deviation(state, wave)[0],
    }[diagnostic]()
    assert not math.isfinite(value)


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

    def test_tiny_t_end_takes_one_step(self):
        # ceil(t_end/dt - 1e-12) is 0 below 1e-12*dt, which returned the start
        wave = kink_array_wave()
        state = init_from_wave(wave, 64, Circle(1))
        config = SimConfig(dt=state.dt, t_end=1e-14 * state.dt)
        report = evolve(state, wave.params, config, reference=wave)
        assert report.final_state.t == state.dt
        assert report.times == [0.0, state.dt]

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


# Written-out copies of the derivatives the snapshot and total_energy used
# first: phi_t through reference_step, phi_x on its own ghost padding.

def reference_phi_t(state, params):
    return (reference_step(state, params, state.dt).phi - state.phi_prev) / (2.0 * state.dt)


def reference_phi_x(state):
    phi = state.phi
    ghosts = np.concatenate(([phi[-1] - state.twist], phi, [phi[0] + state.twist]))
    px = (ghosts[2:] - ghosts[:-2]) / (2.0 * state.dx)
    if state.pinned is not None:
        px[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * state.dx)
        px[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * state.dx)
    return px


def reference_total_energy(state, params):
    h = energy_density(state.phi, reference_phi_t(state, params), reference_phi_x(state), params.gamma)
    if state.pinned is None:
        return float(state.dx * np.sum(h))
    return float(state.dx * (0.5 * h[0] + np.sum(h[1:-1]) + 0.5 * h[-1]))


@st.composite
def look_ahead_runs(draw):
    """(wave, state, config, more): a kicked kink array on Circle(m) or front on a pinned Segment, a run
    of 1 to 40 steps in record intervals of 1 to 20 (so the run can end with nxt on the ring's first
    row), and 1 to 40 more steps to continue it by."""
    alpha, xi0, chirality = draw(alphas), draw(xi0s), draw(chiralities)
    if draw(st.booleans()):
        wave = TravellingWave(ModelParams(alpha, draw(st.floats(1.05, 4.0))), WaveBranch.KINK_ARRAY, xi0, chirality)
        domain = Circle(draw(st.integers(1, 3)))
    else:
        branch = draw(st.sampled_from([WaveBranch.DECREASING1, WaveBranch.INCREASING2]))
        wave = TravellingWave(ModelParams(alpha, draw(st.floats(0.05, 0.95))), branch, xi0, chirality)
        half = 40.0 / subcritical_rate(wave.params)
        domain = Segment(-half, half)
    state = init_from_wave(wave, draw(st.integers(64, 160)), domain)
    kick = draw(st.sampled_from([None, Perturbation(1e-3, 2), Perturbation(0.1, 5)]))
    config = SimConfig(dt=state.dt, t_end=draw(st.integers(1, 40)) * state.dt,
                       record_every=draw(st.integers(1, 20)), perturbation=kick)
    return wave, state, config, draw(st.integers(1, 40))


@settings(deadline=None, derandomize=True, database=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=look_ahead_runs())
def test_derivatives_look_ahead_on_the_runs_kernel(run, tmp_path):
    """The snapshot's phi_t, the kernel's phi_x and total_energy are bit-identical to the written-out
    references; a look-ahead leaves the kernel where it was, so the run goes on as if none was taken."""
    wave, state, config, more = run
    report = evolve(state, wave.params, config)
    kernel, final, path = report.kernel, report.final_state, tmp_path / "snap.csv"
    t, p, prev, cur = kernel.t, kernel.p, kernel.prev[0].copy(), kernel.cur[0].copy()
    pde_sim.write_snapshot_csv(report, path)
    snap = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(snap[:, 1], final.phi)
    assert np.array_equal(snap[:, 2], reference_phi_t(final, wave.params))
    for _ in range(2):
        phi_t, phi_x = kernel.derivatives()
        assert np.array_equal(phi_t, snap[:, 2])
        assert np.array_equal(phi_x, reference_phi_x(final))
        assert (kernel.t, kernel.p) == (t, p)
        assert np.array_equal(kernel.prev[0], prev) and np.array_equal(kernel.cur[0], cur)
    assert total_energy(final, wave.params) == reference_total_energy(final, wave.params)
    kernel.run(more)
    whole = evolve(state, wave.params, replace(config, t_end=config.t_end + more * state.dt)).final_state
    assert kernel.t == whole.t
    assert np.array_equal(kernel.cur[1], whole.phi) and np.array_equal(kernel.prev[1], whole.phi_prev)
