import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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

    @pytest.mark.parametrize("ends", [(-20.0, math.inf), (-math.inf, 20.0), (-1e308, 1e308),
                                      (math.nan, 20.0), (20.0, 20.0), (0.0, 1e300)])
    def test_segment_needs_finite_extent(self, ends):
        # an infinite or overflowing x_hi - x_lo used to give a grid of NaN points;
        # (0, 1e300) gives dx*dx = inf, which "diverged" at the first step
        wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.DECREASING1)
        with pytest.raises(DomainError):
            init_from_wave(wave, 64, Segment(*ends))

    @pytest.mark.parametrize("alpha, dt", [(1e-300, None), (1.0, 1e-300)])
    def test_spacing_squares_must_be_normal(self, alpha, dt):
        # dx*dx underflowing to 0 divided by zero; dt*dt = 0 asked for 1e300 steps per unit time
        with pytest.raises(DomainError):
            init_from_wave(kink_array_wave(alpha), 64, Circle(1), dt=dt)

    @pytest.mark.parametrize("xi0, m", [(1e7, 1), (-1e7, 1), (1e300, 1), (0.0, 10**9)])
    def test_rejects_field_beyond_blowup_guard(self, xi0, m):
        # |phi| ~ 1.1e7 at xi0 = 1e7 passed, then diverged in the first steps
        wave = TravellingWave(ModelParams(1.0, 1.5), WaveBranch.KINK_ARRAY, xi0=xi0)
        with pytest.raises(DomainError, match="whole periods"):
            init_from_wave(wave, 64, Circle(m))

    def test_field_inside_blowup_guard_is_accepted(self):
        # a circle of m turns spans |phi| up to about 2*pi*m
        m = int(pde_sim.BLOWUP_THRESHOLD / TWO_PI) - 1
        state = init_from_wave(kink_array_wave(1.0), 64, Circle(m))
        assert 0.9 * pde_sim.BLOWUP_THRESHOLD < np.max(np.abs(state.phi)) <= pde_sim.BLOWUP_THRESHOLD

    def test_minimum_grid(self):
        with pytest.raises(DomainError):
            init_from_wave(kink_array_wave(), 32, Circle(1))

    def test_maximum_grid(self):
        # a huge n used to reach the array allocations unchecked
        wave = kink_array_wave()
        for domain in (Circle(1), Segment(-20.0, 20.0)):
            assert pde_sim.domain_grid(wave, pde_sim.MAX_GRID_POINTS, domain)[1] > 0.0
            with pytest.raises(DomainError):
                pde_sim.domain_grid(wave, pde_sim.MAX_GRID_POINTS + 1, domain)

    @pytest.mark.parametrize("domain", [Circle(0), Circle(-1), (-20.0, 20.0)])
    def test_circle_without_winding_or_unknown_domain_rejected(self, domain):
        with pytest.raises(DomainError):
            pde_sim.domain_grid(kink_array_wave(), 64, domain)


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
    """A hand-built state obeys init_from_wave's grid rule wherever the kernel runs."""

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize("use", ["step", "total_energy", "write_snapshot_csv"])
    def test_bad_dt_rejected(self, tmp_path, use, dt):
        # each reached the kernel: total_energy read -0.242 at dt = -dx, and nan (with a
        # RuntimeWarning at dt = 0) otherwise
        state, params = replace(uniform_state(dx=0.1, value=1.0), dt=dt), ModelParams(1.0, 0.5)
        calls = {"step": lambda: step(state, params, state.dt),
                 "total_energy": lambda: total_energy(state, params),
                 "write_snapshot_csv": lambda: pde_sim.write_snapshot_csv(state, params, tmp_path / "s.csv")}
        with pytest.raises(DomainError):
            calls[use]()

    @staticmethod
    def front_grid(n=512):
        """A pinned front segment with dt = 0.9*dx computed as the front_scan benchmark does."""
        params = ModelParams(0.7, 0.4)
        wave = TravellingWave(params, WaveBranch.INCREASING2)
        half = 40.0 * params.alpha / math.sqrt((1.0 - params.gamma) * (1.0 + params.gamma))
        return wave, Segment(-half, half), 0.9 * (2.0 * half / (n - 1)), n

    @pytest.mark.parametrize("domain", ["circle", "segment"])
    def test_limit_is_accepted_everywhere(self, tmp_path, domain):
        if domain == "circle":
            wave, n = kink_array_wave(), 256
            dom, dt = Circle(2), 0.9 * (2 * xi_period(wave.params) / n)
            assert init_from_wave(wave, n, dom).dt == dt  # the default is the limit itself
        else:
            wave, dom, dt, n = self.front_grid()
        state = init_from_wave(wave, n, dom, dt=dt)
        assert state.dt == pde_sim.CFL * state.dx
        step(state, wave.params, dt)
        total_energy(state, wave.params)
        pde_sim.write_snapshot_csv(state, wave.params, tmp_path / "s.csv")
        evolve(state, wave.params, SimConfig(dt=dt, t_end=3 * dt), reference=wave)

    @pytest.mark.parametrize("use", ["init_from_wave", "step", "evolve", "total_energy",
                                     "write_snapshot_csv"])
    def test_one_ulp_above_limit_rejected_everywhere(self, tmp_path, use):
        wave, dom, dt, n = self.front_grid()
        params, above = wave.params, math.nextafter(dt, math.inf)
        state = replace(init_from_wave(wave, n, dom, dt=dt), dt=above)
        calls = {"init_from_wave": lambda: init_from_wave(wave, n, dom, dt=above),
                 "step": lambda: step(state, params, above),
                 "evolve": lambda: evolve(state, params, SimConfig(dt=above, t_end=1.0)),
                 "total_energy": lambda: total_energy(state, params),
                 "write_snapshot_csv": lambda: pde_sim.write_snapshot_csv(state, params, tmp_path / "s.csv")}
        with pytest.raises(DomainError, match="dt <= 0.9"):
            calls[use]()
        assert not (tmp_path / "s.csv").exists()


class TestFieldStateShapes:
    # a mismatched phi_prev was a broadcast ValueError in step and passed comoving_deviation;
    # an empty circle was an IndexError in step and a ZeroDivisionError in comoving_deviation;
    # a 2-point segment was an IndexError in total_energy
    @pytest.mark.parametrize("phi,phi_prev,pinned", [
        (np.zeros(64), np.zeros(63), None),
        (np.zeros(64), np.zeros((1, 64)), None),
        (np.zeros((2, 32)), np.zeros((2, 32)), None),
        (np.zeros(()), np.zeros(()), None),
        (np.zeros(0), np.zeros(0), None),
        (np.zeros(2), np.zeros(2), TravellingWave(ModelParams(1.0, 0.5), WaveBranch.INCREASING2)),
    ], ids=["prev-shorter", "prev-2d", "2d", "0d", "empty", "segment-of-2"])
    def test_bad_shapes_refused(self, phi, phi_prev, pinned):
        with pytest.raises(DomainError, match="1-d shape"):
            FieldState(dx=0.1, phi=phi, phi_prev=phi_prev, t=0.0, dt=0.09, pinned=pinned)

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
        final = evolve(state, wave.params, SimConfig(dt=state.dt, t_end=steps * state.dt)).final_state
        folded = unfolded = state
        for _ in range(steps):
            folded = reference_step(folded, wave.params, folded.dt)
            unfolded = reference_step_unfolded(unfolded, wave.params, unfolded.dt)
        assert final.t == folded.t == unfolded.t
        assert np.array_equal(final.phi, folded.phi)
        assert np.array_equal(final.phi_prev, folded.phi_prev)
        assert np.max(np.abs(final.phi - unfolded.phi)) <= 1e-9

    @pytest.mark.parametrize("make", [perturbed_circle, perturbed_segment])
    def test_evolve_matches_step_loop(self, make):
        wave, state = make()
        config = SimConfig(dt=state.dt, t_end=60 * state.dt, record_every=7)
        before = state.phi.copy(), state.phi_prev.copy()
        report = evolve(state, wave.params, config, reference=wave)
        assert np.array_equal(state.phi, before[0])
        assert np.array_equal(state.phi_prev, before[1])

        expected = [comoving_deviation(state, wave) + (state.t,)]
        for i in range(1, 61):
            state = step(state, wave.params, state.dt)
            if i % 7 == 0 or i == 60:
                expected.append(comoving_deviation(state, wave) + (state.t,))
        assert report.deviation == [e[0] for e in expected]
        assert report.best_shift == [e[1] for e in expected]
        assert report.times == [e[2] for e in expected]
        final = report.final_state
        assert final.t == state.t
        assert np.array_equal(final.phi, state.phi)
        assert np.array_equal(final.phi_prev, state.phi_prev)

    @pytest.mark.parametrize("poison", [None, math.nan, math.inf, -math.inf])
    def test_probe_divergence_matches_step_loop(self, poison, tmp_path):
        params = ModelParams(1e-3, 1e6)
        state = uniform_state(value=0.0)
        if poison is not None:
            state = replace(state, phi=np.where(np.arange(state.n) == 5, poison, state.phi))
            # a one-level kernel (a step, record_every=1, the snapshot's derivative step) reports the
            # non-finite field as a blow-up, as a longer ring does, and raises no RuntimeWarning
            with pytest.raises(BlowUp) as info:
                step(state, params, state.dt)
            assert info.value.t == state.dt
            one = evolve(state, params, SimConfig(dt=state.dt, t_end=1.0, record_every=1, probe=True))
            assert one.diverged_at == state.dt
            pde_sim.write_snapshot_csv(state, params, tmp_path / "snap.csv")
            assert len((tmp_path / "snap.csv").read_text().splitlines()) == 1 + state.n
        config = SimConfig(dt=state.dt, t_end=100.0, record_every=10**9, probe=True)
        report = evolve(state, params, config)
        last = state
        with pytest.raises(BlowUp) as info:
            for _ in range(10**5):
                state = step(state, params, state.dt)
                last = state
        assert report.diverged_at == info.value.t
        assert report.final_state.t == last.t
        assert np.array_equal(report.final_state.phi, last.phi, equal_nan=True)

    def test_final_state_owns_its_arrays(self, monkeypatch):
        kernels = []

        class Spy(pde_sim._Leapfrog):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr(pde_sim, "_Leapfrog", Spy)
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

    def test_ring_sizes(self, tmp_path, monkeypatch):
        # a block is at most 16 levels, 2**16 grid points, the run's steps and its record interval;
        # one step holds three levels, as do grids of 65536 points or more
        rings = []

        class Spy(pde_sim._Leapfrog):
            def __init__(self, *args):
                super().__init__(*args)
                rings.append(self.ring.shape)

        monkeypatch.setattr(pde_sim, "_Leapfrog", Spy)
        wave, state = perturbed_circle()
        step(state, wave.params, state.dt)
        total_energy(state, wave.params)
        pde_sim.write_snapshot_csv(state, wave.params, tmp_path / "snap.csv")
        for steps, every in ((1707, 50), (5, 50), (1707, 4), (1707, 1)):
            evolve(state, wave.params, SimConfig(dt=state.dt, t_end=steps * state.dt, record_every=every))
        for n in (4096, 8192, 65536):
            big = init_from_wave(wave, n, Circle(2))
            evolve(big, wave.params, SimConfig(dt=big.dt, t_end=20 * big.dt))
        assert rings == [(3, 202)] * 3 + [(18, 202), (7, 202), (6, 202), (3, 202),
                                          (18, 4098), (10, 8194), (3, 65538)]

    @pytest.mark.parametrize("alpha, ratio", [(0.5, 0.9), (2.0, 0.9), (0.5, 1e-3), (1e-6, 0.3), (1e3, 0.5)])
    def test_fold_keeps_a_constant_field_fixed(self, alpha, ratio):
        # 2a + b - k = 1 with no rounding, also for a small dt/dx and a negative k
        kernel = pde_sim._Leapfrog(uniform_state(dx=0.37, dt=0.37 * ratio), ModelParams(alpha, 1.5))
        a, b, k = (Fraction(float(v)) for v in (kernel.a, kernel.b, kernel.k))
        assert 2 * a + b - k == 1

    @pytest.mark.parametrize("gamma, diverging_step", [(2e6, 11), (1e6, 16)])
    def test_probe_divergence_in_a_record_interval_matches_step_loop(self, gamma, diverging_step):
        # with record_every 3, step 11 diverges mid-interval and step 16 right after a record
        params, wave = ModelParams(1e-3, gamma), kink_array_wave()
        state = uniform_state(value=0.0)
        config = SimConfig(dt=state.dt, t_end=100.0, record_every=3, probe=True)
        report = evolve(state, params, config, reference=wave)
        expected, steps = [comoving_deviation(state, wave) + (state.t,)], 0
        with pytest.raises(BlowUp) as info:
            while True:
                state = step(state, params, state.dt)
                steps += 1
                if steps % 3 == 0:
                    expected.append(comoving_deviation(state, wave) + (state.t,))
        assert steps + 1 == diverging_step
        assert report.deviation == [e[0] for e in expected]
        assert report.best_shift == [e[1] for e in expected]
        assert report.times == [e[2] for e in expected]
        assert report.diverged_at == info.value.t
        final = report.final_state
        assert final.t == state.t
        assert np.array_equal(final.phi, state.phi)
        assert np.array_equal(final.phi_prev, state.phi_prev)

    def test_diverged_state_snapshot_takes_the_rejected_level(self, tmp_path, monkeypatch):
        # the snapshot of a probe's last good state used to step into the
        # divergence again and raise BlowUp
        params = ModelParams(1e-3, 1e6)
        state = uniform_state(value=0.0)
        config = SimConfig(dt=state.dt, t_end=100.0, probe=True)
        final = evolve(state, params, config).final_state
        path = tmp_path / "snap.csv"
        pde_sim.write_snapshot_csv(final, params, path)
        assert math.isfinite(total_energy(final, params))
        snap = np.loadtxt(path, delimiter=",", skiprows=1)
        monkeypatch.setattr(pde_sim, "BLOWUP_THRESHOLD", math.inf)
        rejected = reference_step(final, params, final.dt)
        assert np.max(np.abs(rejected.phi)) > 1e6
        assert np.array_equal(snap[:, 1], final.phi)
        assert np.array_equal(snap[:, 2], (rejected.phi - final.phi_prev) / (2.0 * final.dt))

    def test_pinned_pair_matches_scalar_calls(self):
        # the kernel pins both segment ends with one phi_eval call on a pair
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
                pair = phi_eval(wave, np.array([lo, hi]), t)
                assert np.array_equal(pair, [phi_eval(wave, lo, t), phi_eval(wave, hi, t)])


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

    @pytest.mark.parametrize("name", guard_cases())
    def test_probe_evolve_edges(self, name):
        state = stepping_to(guard_cases()[name], self.params)
        config = SimConfig(dt=state.dt, t_end=5 * state.dt, probe=True)
        report = evolve(state, self.params, config)
        last, diverged_at = state, None
        try:
            for _ in range(5):
                last = reference_step(last, self.params, last.dt)
        except BlowUp as exc:
            diverged_at = exc.t
        assert diverged_at is not None  # at the first step, or the one after +-1e6
        assert report.diverged_at == diverged_at
        assert report.final_state.t == last.t
        assert np.array_equal(report.final_state.phi, last.phi)
        assert np.array_equal(report.final_state.phi_prev, last.phi_prev, equal_nan=True)


class TestBlockGuard:
    """evolve tests the guard once per block of levels; a loop of step, a block of one, is the reference."""

    @staticmethod
    def check(state, params, steps, diverging_step, monkeypatch):
        kernels = []

        class Spy(pde_sim._Leapfrog):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr(pde_sim, "_Leapfrog", Spy)
        config = SimConfig(dt=state.dt, t_end=steps * state.dt, record_every=10**9, probe=True)
        report = evolve(state, params, config)
        kernel = kernels[0]
        last, taken = state, 0
        with pytest.raises(BlowUp) as info:
            for _ in range(steps):
                last = step(last, params, last.dt)
                taken += 1
        assert taken + 1 == diverging_step
        assert report.diverged_at == info.value.t
        final = report.final_state
        assert final.t == last.t
        assert np.array_equal(final.phi, last.phi, equal_nan=True)
        assert np.array_equal(final.phi_prev, last.phi_prev, equal_nan=True)
        # the snapshot's phi_t steps into the rejected level, which the block left in nxt
        phi_t, _ = pde_sim._centered_derivatives(last, params)
        assert np.array_equal(pde_sim._centered_derivatives(final, params)[0], phi_t, equal_nan=True)
        assert np.array_equal((kernel.nxt[1] - final.phi_prev) / (2.0 * final.dt), phi_t, equal_nan=True)

    # a uniform field under strong forcing passes 1e6 at a step set by gamma; blocks are 16 levels in
    # a ring of 18 rows, so the third block fills rows 16, 17 and then 0 to 13
    @pytest.mark.parametrize("gamma, diverging_step", [
        (1e9, 1), (4.4e6, 8), (1e6, 16),  # the first, a middle and the last level of the first block
        (9e5, 17), (4.4e5, 24), (2.4e5, 32),  # and of the second
        (2.3e5, 33), (2e5, 35), (1.07e5, 48),  # and of the third, on both sides of the ring's end
    ])
    def test_blowup_in_a_block(self, gamma, diverging_step, monkeypatch):
        self.check(uniform_state(), ModelParams(1e-3, gamma), 1000, diverging_step, monkeypatch)

    def test_blowup_in_a_run_shorter_than_a_block(self, monkeypatch):
        self.check(uniform_state(), ModelParams(1e-3, 8e6), 10, 6, monkeypatch)

    def test_spike_that_decays_within_a_block(self, monkeypatch):
        # under strong damping a level just over 1e6 at one point is followed by smaller ones, so the
        # block's last level alone would pass the guard
        params = ModelParams(20.0, 0.0)
        values = np.zeros(64)
        values[9] = np.nextafter(pde_sim.BLOWUP_THRESHOLD, math.inf)
        self.check(stepping_to(values, params), params, 16, 1, monkeypatch)

    def test_nan_poison(self, monkeypatch):
        state = uniform_state()
        state = replace(state, phi=np.where(np.arange(state.n) == 5, math.nan, state.phi))
        self.check(state, ModelParams(1.0, 0.5), 1000, 1, monkeypatch)


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

    def test_probe_mode_records_divergence(self):
        state = uniform_state(value=0.0)
        strong = ModelParams(1e-3, 1e6)
        config = SimConfig(dt=state.dt, t_end=100.0, record_every=10**9, probe=True)
        report = evolve(state, strong, config)
        assert report.diverged_at is not None
        assert report.final_state.t < 100.0

    def test_tiny_t_end_takes_one_step(self):
        # ceil(t_end/dt - 1e-12) is 0 below 1e-12*dt, which returned the start
        wave = kink_array_wave()
        state = init_from_wave(wave, 64, Circle(1))
        config = SimConfig(dt=state.dt, t_end=1e-14 * state.dt)
        report = evolve(state, wave.params, config, reference=wave)
        assert report.final_state.t == state.dt
        assert report.times == [0.0, state.dt]

    def test_cfl_guard_enforced(self):
        # the time-step rule 0 < dt <= CFL*dx refuses 0.95*dx before any state exists
        wave = kink_array_wave()
        with pytest.raises(DomainError):
            init_from_wave(wave, 128, Circle(1), dt=0.95 * xi_period(wave.params) / 128)

    def test_config_dt_must_match_the_state(self):
        wave = kink_array_wave()
        state = init_from_wave(wave, 64, Circle(1))
        with pytest.raises(DomainError):
            evolve(state, wave.params, SimConfig(dt=0.5 * state.dt, t_end=1.0))

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
            SimConfig(dt=0.1, t_end=1.0, record_every=0)
        for amplitude in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                Perturbation(amplitude, 1)
        with pytest.raises(DomainError):
            Perturbation(1e-3, 0)

    def test_rejects_step_count_that_overflows(self):
        # math.ceil(inf) used to raise OverflowError inside evolve
        with pytest.raises(DomainError, match="t_end/dt"):
            SimConfig(dt=1e-3, t_end=1e308)

    def test_winding_requires_circle(self):
        wave = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.DECREASING1)
        state = init_from_wave(wave, 128, Segment(-20.0, 20.0))
        with pytest.raises(DomainError):
            winding_number(state)


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


class TestCenteredDerivatives:
    """Snapshot phi_t and total_energy from one kernel, bit-identical to the references above."""

    @pytest.mark.parametrize("make", [perturbed_circle, perturbed_segment])
    def test_match_reference_bit_for_bit(self, make, tmp_path):
        wave, start = make()
        evolved = evolve(start, wave.params, SimConfig(dt=start.dt, t_end=30 * start.dt)).final_state
        for state in (start, evolved):
            phi_t, phi_x = pde_sim._centered_derivatives(state, wave.params)
            assert np.array_equal(phi_t, reference_phi_t(state, wave.params))
            assert np.array_equal(phi_x, reference_phi_x(state))
            assert total_energy(state, wave.params) == reference_total_energy(state, wave.params)
            path = tmp_path / "snap.csv"
            pde_sim.write_snapshot_csv(state, wave.params, path)
            snap = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.array_equal(snap[:, 2], reference_phi_t(state, wave.params))
