import heapq
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgwaves import (
    DomainError,
    F_map,
    ModelParams,
    NoConvergence,
    TravellingWave,
    WaveBranch,
    adaptive_quadrature,
    g_eval,
    identities_check,
    implicit_xi_of_g,
    ode_solve_g,
    ode_solve_y,
    pde_residual,
    quad_period,
    xi_period,
    y_eval,
    y_fixed_points,
)
from sgwaves import oracles

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


class TestOdeSolveG:
    def test_attracted_to_stable_root(self):
        # sin(g) = gamma is the attracting constant state of the reduced flow
        sol = ode_solve_g(ModelParams(0.5, 0.5), math.pi / 2, (0.0, 40.0), 1e-9)
        assert abs(math.sin(sol.ys[-1]) - 0.5) < 1e-6
        assert sol.ys[-1] == pytest.approx(math.pi / 6, abs=1e-6)

    def test_linear_periodicity_supercritical(self):
        # integrate one further period from 10 probe points of a reference
        # trajectory: g must gain exactly 2*pi over each period
        params = ModelParams(1.0, 2.0)
        period = xi_period(params)
        sol = ode_solve_g(params, 0.0, (0.0, 3.0 * period), 1e-9)
        probes = np.linspace(0, len(sol.xs) - 1, 10).astype(int)
        for i in probes:
            x0, g0 = float(sol.xs[i]), float(sol.ys[i])
            hop = ode_solve_g(params, g0, (x0, x0 + period), 1e-9)
            assert abs(hop.ys[-1] - g0 - TWO_PI) < 1e-7

    def test_critical_slow_approach(self):
        # the critical tail is algebraic: 5*pi/2 - g(xi) ~ 2*alpha/(xi - 2)
        # for g(0) = pi, giving ~1.005e-2 at xi = 200 (50-digit value frozen)
        sol = ode_solve_g(ModelParams(1.0, 1.0), math.pi, (0.0, 200.0), 1e-9)
        deficit = 2.5 * math.pi - sol.ys[-1]
        assert deficit == pytest.approx(0.010050166661624822, abs=1e-6)

    def test_rejects_bad_span(self):
        with pytest.raises(DomainError):
            ode_solve_g(ModelParams(1.0, 0.5), 0.0, (1.0, 1.0), 1e-9)
        with pytest.raises(DomainError):
            ode_solve_g(ModelParams(1.0, 0.5), 0.0, (0.0, 1.0), 0.0)

    def test_no_convergence_budget(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 64)
        with pytest.raises(NoConvergence):
            ode_solve_g(ModelParams(1.0, 0.5), 0.0, (0.0, 1.0), 1e-300)


class TestOdeSolveY:
    def test_forward_attractor_is_lower_root(self):
        # the Riccati flow decreases between the roots, so y -> y_minus
        params = ModelParams(0.5, 0.5)
        sol = ode_solve_y(params, -2.0, (0.0, 30.0), 1e-9)
        y_minus = y_fixed_points(params).y_minus
        assert sol.ys[-1] == pytest.approx(y_minus, abs=1e-6)
        assert not sol.pole_events

    def test_single_pole_per_period(self):
        params = ModelParams(1.0, SQRT2)
        period = xi_period(params)
        sol = ode_solve_y(params, -1.0 / SQRT2, (0.0, period), 1e-9)
        assert len(sol.pole_events) == 1
        assert sol.pole_events[0] == pytest.approx(period / 2, abs=1e-6)

    def test_matches_critical_closed_form(self):
        # y = -1 - 2*alpha/(xi - xi0) with xi0 = -3 passes through y(-5) = 0
        params = ModelParams(1.0, 1.0)
        sol = ode_solve_y(params, 0.0, (-5.0, 5.0), 1e-9)
        w = TravellingWave(params, WaveBranch.CRITICAL_KINK, xi0=-3.0)
        mask = np.abs(sol.xs - (-3.0)) > 0.2
        exact = -1.0 - 2.0 / (sol.xs[mask] + 3.0)
        assert np.max(np.abs(sol.ys[mask] - exact)) < 1e-6
        assert len(sol.pole_events) == 1
        assert sol.pole_events[0] == pytest.approx(-3.0, abs=1e-6)
        assert np.all(np.isfinite(sol.ys))
        assert np.all(np.diff(sol.xs) > 0)
        # the same trajectory mapped through F and the unwrap reproduces g
        offsets = TWO_PI * np.searchsorted(sol.pole_events, sol.xs[mask])
        g_from_y = 4.0 * np.arctan(F_map(sol.ys[mask])) + offsets
        assert np.max(np.abs(g_from_y - g_eval(w, sol.xs[mask]))) < 1e-6


class TestQuadrature:
    def test_period_sqrt2(self):
        q = quad_period(ModelParams(1.0, SQRT2), 1e-10)
        assert abs(q - TWO_PI) < 1e-10

    def test_period_scales_with_alpha(self):
        q = quad_period(ModelParams(2.0, 1.25), 1e-10)
        assert abs(q - 16.755160819145566) < 1e-10

    def test_peaked_integrand_near_critical(self):
        params = ModelParams(1.0, 1.0001)
        q = quad_period(params, 1e-10)
        closed = xi_period(params)
        assert abs(q - closed) / closed < 1e-6

    @pytest.mark.parametrize("gamma", [1.0001, 1.00001, 1.000001])
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_near_critical_period_within_tol(self, alpha, gamma):
        # gamma - sin s cancelled at the peak s = pi/2, which made these refuse
        params = ModelParams(alpha, gamma)
        assert abs(quad_period(params, 1e-10) - xi_period(params)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quad_period(ModelParams(1.0, 1.0))

    def test_eval_budget(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_QUAD_EVALS", 2000)
        with pytest.raises(NoConvergence):
            quad_period(ModelParams(1.0, 1.5), 1e-300)

    def test_generic_driver_polynomial(self):
        assert adaptive_quadrature(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_generic_driver_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(np.sin, 1.0, 1.0, 1e-10)
        with pytest.raises(DomainError):
            adaptive_quadrature(np.sin, 0.0, 1.0, 0.0)


def plain_quadrature(f, a, b, tol, max_splits):
    """adaptive_quadrature written out plainly: an exact fsum of every panel's
    error after each split.  Returns (value, the exact totals, one per split)."""
    value, err = oracles._gk15(f, a, b)
    order = itertools.count()
    heap, totals = [(-err, next(order), a, b, value, err)], [err]
    while totals[-1] > tol and len(totals) <= max_splits:
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        for lo, hi in ((pa, pm), (pm, pb)):
            v, e = oracles._gk15(f, lo, hi)
            heapq.heappush(heap, (-e, next(order), lo, hi, v, e))
        totals.append(math.fsum(item[5] for item in heap))
    return math.fsum(item[4] for item in heap), totals


class TestQuadratureStopAndWorkPerSplit:
    """The exact error total stops the bisection at the split an fsum of every panel's
    error does, and a refusal at MAX_QUAD_EVALS does bounded work per split."""

    @pytest.mark.parametrize("gamma", [1.0001, 1.01, 1.5])
    @pytest.mark.parametrize("split", [3, 17, 40])
    def test_stops_where_an_exact_sum_stops(self, gamma, split):
        f = oracles._xi_integrand(ModelParams(1.0, gamma))
        _, totals = plain_quadrature(f, 0.0, TWO_PI, 0.0, 60)
        # tol exactly at a split's total, and one ulp below it: the stop is on the edge
        for tol in (totals[split], math.nextafter(totals[split], 0.0)):
            expected, expected_totals = plain_quadrature(f, 0.0, TWO_PI, tol, 10**6)
            evals = []
            counted = lambda s: evals.append(s.size) or f(s)  # noqa: E731
            assert adaptive_quadrature(counted, 0.0, TWO_PI, tol) == expected
            assert sum(evals) == 15 * (2 * len(expected_totals) - 1)

    @pytest.mark.parametrize("splits", [1000, 8000])
    def test_refusal_does_bounded_work_per_split(self, monkeypatch, splits):
        # 1/(1.000001 - sin s) cancels at its peak, so tol 1e-10 is below its
        # rounding floor near 4443; an exact sum of every panel's error per split
        # made refusing quadratic in panels.  Each panel's units count their
        # additions: a re-sum of the stored units per split would add each again
        monkeypatch.setattr(oracles, "MAX_QUAD_EVALS", 15 + 30 * splits)
        made, additions = [], []

        class CountedUnits(int):
            def __add__(self, other):
                additions.append(1)
                return int(self) + other

            def __radd__(self, other):
                additions.append(1)
                return other + int(self)

        units = oracles._units
        monkeypatch.setattr(oracles, "_units", lambda err: made.append(err) or CountedUnits(units(err)))
        with pytest.raises(NoConvergence):
            adaptive_quadrature(lambda s: 1.0 / (1.000001 - np.sin(s)), 0.0, TWO_PI, 1e-10)
        assert len(made) == 1 + 2 * splits
        assert len(additions) <= 2 * len(made)  # each panel's units at most twice


MAX = sys.float_info.max


def error_lists():
    """Panel error lists: random magnitudes, zeros, subnormals and exact halfway cases."""
    rng = np.random.default_rng(17)
    for size in (1, 2, 3, 10, 100, 1000):
        for _ in range(20):
            yield list(10.0 ** rng.uniform(-320.0, 300.0, size))
        yield list(5e-324 * rng.integers(0, 2**20, size).astype(float))  # subnormals
    yield [0.0]
    yield [0.0, 0.0, 5e-324]
    yield [1.0, 2**-53]                        # a tie, to even: 1.0
    yield [1.0, 2**-53, 2**-1074]              # just past the tie: up
    yield [1.0 + 2**-52, 2**-53]               # a tie, to even: up
    yield [MAX, math.ulp(MAX) / 4]             # still the largest double
    yield [1e300] * 1000 + [1e-300, 5e-324] * 10


class TestQuadratureExactTotal:
    """The error total in _units, read back as a float, is the fsum of the errors bit for bit."""

    def test_units_total_is_the_fsum(self):
        for errors in error_lists():
            total = sum(map(oracles._units, errors)) / 2**1074
            assert total.hex() == math.fsum(errors).hex(), errors

    @pytest.mark.parametrize("errors", [[MAX, MAX], [MAX, math.ulp(MAX) / 2], [1e308] * 2 + [0.0]])
    def test_total_past_the_largest_double_overflows(self, errors):
        with pytest.raises(OverflowError):
            math.fsum(errors)
        with pytest.raises(OverflowError):
            sum(map(oracles._units, errors)) / 2**1074


class TestImplicitXiOfG:
    def test_full_turn_equals_period(self):
        params = ModelParams(1.0, 2.0)
        assert implicit_xi_of_g(params, 0.0, TWO_PI, 1e-10) == pytest.approx(
            quad_period(params, 1e-10), abs=1e-9
        )

    def test_matches_inverted_closed_form(self):
        # invert g_eval by bisection and compare xi displacements
        params = ModelParams(1.0, 0.5)
        w = TravellingWave(params, WaveBranch.DECREASING1)

        def xi_of_g(target):
            lo, hi = -60.0, 60.0  # g is decreasing: g(lo) > target > g(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g_eval(w, mid) > target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        g_from, g_to = math.pi / 2, 5 * math.pi / 6 - 1e-3
        displacement = implicit_xi_of_g(params, g_from, g_to, 1e-10)
        assert displacement == pytest.approx(xi_of_g(g_to) - xi_of_g(g_from), abs=1e-6)
        assert displacement < 0  # larger g lies earlier on a decreasing branch

    def test_signed_orientation(self):
        params = ModelParams(1.0, 2.0)
        forward = implicit_xi_of_g(params, 0.0, math.pi, 1e-10)
        assert implicit_xi_of_g(params, math.pi, 0.0, 1e-10) == pytest.approx(
            -forward, abs=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_equal_bounds_give_zero(self, gamma):
        assert implicit_xi_of_g(ModelParams(1.0, gamma), 1.0, 1.0) == 0.0

    # equal bounds returned 0.0 for any tol, while unequal bounds refused it
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
    def test_equal_bounds_refuse_a_bad_tol(self, tol):
        for g_to in (1.0, 2.0):
            with pytest.raises(DomainError, match="tol must be positive"):
                implicit_xi_of_g(ModelParams(1.0, 1.5), 1.0, g_to, tol)

    def test_singular_endpoint_rejected(self):
        with pytest.raises(DomainError):
            implicit_xi_of_g(ModelParams(1.0, 0.5), 0.0, math.pi / 6, 1e-10)

    def test_singular_interior_rejected(self):
        with pytest.raises(DomainError):
            implicit_xi_of_g(ModelParams(1.0, 0.5), 0.0, math.pi, 1e-10)


class TestIdentities:
    def test_critical_residuals(self):
        residuals = identities_check(1.0)
        assert max(residuals.values()) < 1e-12
        assert residuals["pi8"] < 1e-15

    def test_half_f_plus_value(self):
        # tan(37.5 degrees), frozen from 50-digit evaluation
        params = ModelParams(1.0, 0.5)
        f_plus = F_map(y_fixed_points(params).y_plus)
        assert f_plus == pytest.approx(0.7673269879789604, abs=1e-12)
        assert identities_check(0.5)["F_plus"] < 1e-12

    def test_gamma_zero_convention(self):
        residuals = identities_check(0.0)
        assert residuals["F_minus"] == 0.0
        others = {k: v for k, v in residuals.items() if k != "F_minus"}
        assert max(others.values()) < 1e-12

    def test_grid_of_forcings(self):
        for gamma in np.linspace(0.0, 1.0, 101):
            residuals = identities_check(float(gamma))
            assert set(residuals) == {
                "zaza", "zaza2", "F_plus", "F_minus", "pi8", "rationalize_sin4",
            }
            assert max(residuals.values()) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            identities_check(1.5)
        with pytest.raises(DomainError):
            identities_check(-0.2)


def with_one_nan(out):
    """`out` with one value replaced by NaN: a scalar, an array's middle entry or a residual."""
    if isinstance(out, dict):
        return {**out, "pi8": math.nan}
    if np.ndim(out) == 0:
        return math.nan
    out = np.array(out, dtype=float)
    out[out.size // 2] = math.nan
    return out


# check name -> (oracles function to patch, which of its calls return a NaN);
# each NaN lands after the first value the check compares
NAN_CASES = {
    "identity_max_residual": ("identities_check", lambda gamma: gamma == 0.5),
    "period_max_abs_diff": ("quad_period", lambda params, tol: params.gamma == 2.0),
    "ode_oracle_sup_diff": (
        "g_eval", lambda wave, xs: wave.branch is WaveBranch.CRITICAL_KINK and np.ndim(xs) == 1),
    "pde_max_residual": ("pde_residual", lambda wave, x, t, h: wave.branch is WaveBranch.KINK_ARRAY),
    "fmap_identity_max_rel": ("F_map", lambda ys: True),
    "periodicity_max_abs": ("g_eval", lambda wave, xs: True),
}


class TestCheckTableNaN:
    """A NaN among a check's values fails the check; the builtin max would drop it."""

    @pytest.mark.parametrize("name", list(NAN_CASES))
    def test_one_nan_fails(self, monkeypatch, name):
        target, hit = NAN_CASES[name]
        original = getattr(oracles, target)

        def patched(*args):
            out = original(*args)
            return with_one_nan(out) if hit(*args) else out

        monkeypatch.setattr(oracles, target, patched)
        threshold, worst = oracles.CHECKS[name]
        assert not worst() < threshold


class TestPdeResidual:
    def test_constant_branch_exact(self):
        w = TravellingWave(ModelParams(1.0, 0.5), WaveBranch.CONSTANT_S)
        assert abs(pde_residual(w, 0.37, -4.2, 1e-3)) < 1e-14

    def test_kink_array_random_points(self):
        w = TravellingWave(ModelParams(0.7, 1.5), WaveBranch.KINK_ARRAY)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, t = rng.uniform(-10.0, 10.0, 2)
            assert abs(pde_residual(w, float(x), float(t), 1e-3)) < 1e-6

    def test_critical_kink_points(self):
        w = TravellingWave(ModelParams(1.0, 1.0), WaveBranch.CRITICAL_KINK)
        rng = np.random.default_rng(12)
        count = 0
        while count < 50:
            x, t = rng.uniform(-10.0, 10.0, 2)
            if abs(w.chirality * x - t) < 1.0:
                continue
            assert abs(pde_residual(w, float(x), float(t), 1e-3)) < 1e-6
            count += 1

    def test_residual_at_pole(self):
        # phi is smooth through the poles of y, so stencils may straddle them
        w = TravellingWave(ModelParams(1.0, SQRT2), WaveBranch.KINK_ARRAY)
        pole = xi_period(w.params) / 2
        assert abs(pde_residual(w, pole, 0.0, 1e-3)) < 1e-6
        assert abs(pde_residual(w, pole + 5e-3, 0.0, 1e-3)) < 1e-6

    def test_rejects_bad_step(self):
        w = TravellingWave(ModelParams(1.0, SQRT2), WaveBranch.KINK_ARRAY)
        with pytest.raises(DomainError):
            pde_residual(w, 0.0, 0.0, 0.0)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "branch,alpha,gamma",
        [
            (WaveBranch.DECREASING1, 0.5, 0.5),
            (WaveBranch.INCREASING2, 0.5, 0.5),
            (WaveBranch.CRITICAL_KINK, 1.0, 1.0),
            (WaveBranch.KINK_ARRAY, 1.0, 1.5),
        ],
    )
    def test_ode_matches_closed_form(self, branch, alpha, gamma):
        wave = TravellingWave(ModelParams(alpha, gamma), branch)
        lo, hi = wave.xi0 + 0.1, wave.xi0 + 10.0
        sol = ode_solve_g(wave.params, g_eval(wave, lo), (lo, hi), 1e-9)
        sup = np.max(np.abs(sol.ys - g_eval(wave, sol.xs)))
        assert sup < 1e-8

    def test_period_oracle_vs_closed_form_grid(self):
        tol = 1e-10
        for gamma in (1.01, 1.25, SQRT2, 2.0, 5.0, 50.0):
            for alpha in (0.3, 1.0, 2.0):
                params = ModelParams(alpha, gamma)
                closed = xi_period(params)
                quad = quad_period(params, tol)
                assert abs(quad - closed) / closed < max(1e-10, 100.0 * tol)

    def test_riccati_chain_reproduces_g(self):
        # map y samples through F and the pole-count unwrap, compare with the
        # directly integrated g (both via the closed form, triangle-wise)
        params = ModelParams(1.0, 1.5)
        wave = TravellingWave(params, WaveBranch.KINK_ARRAY)
        period = xi_period(params)
        span = (0.0, 2.2 * period)
        soly = ode_solve_y(params, -1.0 / params.gamma, span, 1e-9)
        assert len(soly.pole_events) == 2
        offsets = TWO_PI * np.searchsorted(soly.pole_events, soly.xs)
        g_from_y = 4.0 * np.arctan(F_map(soly.ys)) + offsets
        assert np.max(np.abs(g_from_y - g_eval(wave, soly.xs))) < 1e-7
        solg = ode_solve_g(params, g_eval(wave, 0.0), span, 1e-9)
        assert np.max(np.abs(solg.ys - g_eval(wave, solg.xs))) < 1e-8


# Reference copies of the RK4 passes as first written: one rhs call per
# stage and a record call per sample.  The inlined loops in `oracles` must
# give the same samples bit for bit.

def reference_rk4_scalar(rhs, x0, y0, n, h):
    ys = np.empty(n + 1)
    ys[0] = y = y0
    x = x0
    for i in range(n):
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x0 + (i + 1) * h
        ys[i + 1] = y
    return ys


def reference_integrate_riccati(params, y0, lo, hi, n):
    alpha, gamma = params.alpha, params.gamma
    h = (hi - lo) / n

    def rhs_y(v):
        return (2.0 * v + gamma * (1.0 + v * v)) / (2.0 * alpha)

    def rhs_z(v):
        return (gamma * (1.0 + v * v) - 2.0 * v) / (2.0 * alpha)

    in_y = abs(y0) <= 1.0
    v = y0 if in_y else -1.0 / y0
    angles = np.empty(n + 1)
    ys = np.empty(n + 1)
    poles = []

    def record(i, v, in_y):
        if in_y:
            ys[i] = v
            angles[i] = math.atan(v)
        else:
            ys[i] = math.inf if v == 0.0 else -1.0 / v
            angles[i] = math.copysign(0.5 * math.pi, ys[i]) if v == 0.0 else math.atan(ys[i])

    record(0, v, in_y)
    for i in range(n):
        x = lo + i * h
        f = rhs_y if in_y else rhs_z
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v_new = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not in_y and (v <= 0.0 < v_new or v_new <= 0.0 < v):
            poles.append(x + h * v / (v - v_new))
        v = v_new
        if abs(v) > 1.0:
            v = -1.0 / v
            in_y = not in_y
        record(i + 1, v, in_y)
    return angles, ys, poles


def reference_solve_g(params, g0, lo, hi, tol=1e-9):
    """(xs, ys, step) of the halving loop around reference_rk4_scalar."""
    def rhs(_x, g):
        return (params.gamma - math.sin(g)) / params.alpha

    n = max(16, int(math.ceil((hi - lo) * 4.0)))
    prev = reference_rk4_scalar(rhs, lo, g0, n, (hi - lo) / n)
    while True:
        n *= 2
        h = (hi - lo) / n
        cur = reference_rk4_scalar(rhs, lo, g0, n, h)
        if np.max(np.abs(cur[::2] - prev)) < tol:
            return lo + h * np.arange(n + 1), cur, h
        prev = cur


def reference_solve_y(params, y0, lo, hi, tol=1e-9):
    """(xs, ys, step, poles) of the halving loop around reference_integrate_riccati."""
    n = max(16, int(math.ceil((hi - lo) * 4.0)))
    prev_angles, _, _ = reference_integrate_riccati(params, y0, lo, hi, n)
    while True:
        n *= 2
        h = (hi - lo) / n
        angles, ys, poles = reference_integrate_riccati(params, y0, lo, hi, n)
        diff = np.abs(angles[::2] - prev_angles)
        diff = np.minimum(diff, math.pi - np.minimum(diff, math.pi))
        if np.max(diff) < tol:
            keep = np.abs(ys) <= 1e12
            return (lo + h * np.arange(n + 1))[keep], ys[keep], h, poles
        prev_angles = angles


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(params, g0, y0, lo, hi):
    """Both solvers against the reference passes, and their step counts."""
    n0 = max(16, math.ceil((hi - lo) * 4.0))
    sol = ode_solve_g(params, g0, (lo, hi), 1e-9)
    xs, ys, h = reference_solve_g(params, g0, lo, hi)
    assert_same_bits(sol.xs, xs)
    assert_same_bits(sol.ys, ys)
    assert sol.step_used == h and sol.pole_events == []
    # every pass counts: n0 + 2*n0 + ... + n_final, the rule bench/tracing.py uses
    assert sol.rk4_steps == 2 * round((hi - lo) / sol.step_used) - n0

    sol = ode_solve_y(params, y0, (lo, hi), 1e-9)
    xs, ys, h, poles = reference_solve_y(params, y0, lo, hi)
    assert_same_bits(sol.xs, xs)
    assert_same_bits(sol.ys, ys)
    assert sol.step_used == h
    assert_same_bits(sol.pole_events, poles)
    assert sol.rk4_steps == 2 * round((hi - lo) / sol.step_used) - n0
    return sol


@st.composite
def oracle_waves(draw):
    """Random wave of any non-constant branch."""
    branch = draw(st.sampled_from([b for b in WaveBranch if not b.is_constant]))
    if branch in (WaveBranch.DECREASING1, WaveBranch.INCREASING2):
        gamma = draw(st.floats(0.05, 0.95))
    elif branch is WaveBranch.KINK_ARRAY:
        gamma = draw(st.floats(1.01, 4.0))
    else:
        gamma = 1.0 if branch is WaveBranch.CRITICAL_KINK else 0.0
    return TravellingWave(ModelParams(draw(st.floats(0.3, 2.0)), gamma), branch,
                          draw(st.floats(-5.0, 5.0)))


class TestKernelBitIdentity:
    """The inlined RK4 loops against the reference passes above."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=30)
    @given(w=oracle_waves(), offset=st.floats(-3.0, 3.0), span=st.floats(0.5, 10.0))
    # two poles of y on the span
    @example(w=TravellingWave(ModelParams(1.0, 1.5), WaveBranch.KINK_ARRAY, 0.3),
             offset=-1.0, span=10.0)
    # y0 = -21, so the pass starts on the z chart
    @example(w=TravellingWave(ModelParams(1.0, 1.0), WaveBranch.CRITICAL_KINK, -1.0),
             offset=0.1, span=3.0)
    # starts exactly on the pole: y0 = -inf (d = +0.0), sample 0 has z == 0
    @example(w=TravellingWave(ModelParams(0.5, 0.5), WaveBranch.INCREASING2, 0.0),
             offset=0.0, span=2.0)
    # crosses the pole of increasing2
    @example(w=TravellingWave(ModelParams(0.5, 0.5), WaveBranch.INCREASING2, 1.0),
             offset=-1.0, span=3.0)
    def test_solvers_match_reference(self, w, offset, span):
        lo = w.xi0 + offset
        hi = lo + span
        assert_matches_reference(w.params, g_eval(w, lo), y_eval(w, lo), lo, hi)

    @pytest.mark.parametrize("params,y0,span", [
        (ModelParams(1.0, 0.0), math.inf, (0.0, 2.0)),      # z stays 0: every sample on a pole
        (ModelParams(1.0, 0.0), -math.inf, (0.0, 2.0)),
        (ModelParams(0.7, 0.5), -math.inf, (-1.0, 4.0)),
        (ModelParams(0.7, 2.5), 5.0, (-3.0, 9.0)),
        (ModelParams(0.7, 2.5), 1.0, (0.0, 6.0)),
        (ModelParams(1, 2), -3, (0, 5)),                      # integer parameters and start
    ])
    def test_explicit_starts(self, params, y0, span):
        g0 = 0.0 if math.isinf(y0) else 4.0 * math.atan(F_map(y0))
        sol = assert_matches_reference(params, g0, y0, *span)
        if params.gamma == 0.0 and y0 == math.inf:
            assert sol.xs.size == 0 and sol.ys.size == 0


@pytest.fixture
def no_pass(monkeypatch):
    def fail(*args):
        raise AssertionError("an RK4 pass ran on input it should have rejected")

    monkeypatch.setattr(oracles, "_rk4_g", fail)
    monkeypatch.setattr(oracles, "_integrate_riccati", fail)


class TestNonFiniteInput:
    """Non-finite input is a DomainError, raised before any integration work."""

    # a NaN start used to run all 20 halvings (about 33M RK4 steps) before
    # NoConvergence; g0 = inf ended in a bare "math domain error"
    @pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
    def test_ode_g_start(self, no_pass, g0):
        with pytest.raises(DomainError):
            ode_solve_g(ModelParams(1.0, 0.5), g0, (0.0, 1.0))

    def test_ode_y_nan_start(self, no_pass):
        # y0 = +-inf stays valid: a start on a pole (TestKernelBitIdentity)
        with pytest.raises(DomainError):
            ode_solve_y(ModelParams(1.0, 0.5), math.nan, (0.0, 1.0))

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)])
    def test_quadrature_bounds(self, a, b):
        with pytest.raises(DomainError):
            adaptive_quadrature(np.cos, a, b, 1e-9)

    @pytest.mark.parametrize("gamma", [1.5, 0.5])
    @pytest.mark.parametrize("g_from,g_to", [(math.nan, 1.0), (1.0, math.nan), (0.0, math.inf),
                                             (-math.inf, 1.0)])
    def test_implicit_xi_bounds(self, gamma, g_from, g_to):
        with pytest.raises(DomainError):
            implicit_xi_of_g(ModelParams(1.0, gamma), g_from, g_to)

    def test_pde_residual_infinite_step(self):
        w = TravellingWave(ModelParams(1.0, SQRT2), WaveBranch.KINK_ARRAY)
        with pytest.raises(DomainError):
            pde_residual(w, 0.0, 0.0, math.inf)

    # finite bounds whose width (first and last pair) or panel midpoint
    # (second pair) overflows: both quadratures returned nan
    @pytest.mark.parametrize("a,b", [(-1e308, 1e308), (1e308, 1.7e308),
                                     (np.float64(-1e308), np.float64(1e308))])
    def test_overflowing_interval(self, a, b):
        with pytest.raises(DomainError):
            adaptive_quadrature(np.cos, a, b, 1e-9)
        with pytest.raises(DomainError):
            implicit_xi_of_g(ModelParams(1.0, 1.5), a, b)

    @pytest.mark.parametrize("solve", [ode_solve_g, ode_solve_y])
    def test_ode_overflowing_span(self, no_pass, solve):
        # ended in an OverflowError from math.ceil(inf)
        with pytest.raises(DomainError):
            solve(ModelParams(1.0, 0.5), 0.0, (-1e308, 1e308))

    # ode_solve_g raised "math domain error" at once; ode_solve_y took 12 s to NoConvergence
    @pytest.mark.parametrize("solve,start", [(ode_solve_g, -0.0), (ode_solve_y, 0.3), (ode_solve_y, 5.0),
                                             (ode_solve_y, -math.inf), (ode_solve_y, np.float64(0.3))])
    def test_ode_infinite_rate_at_start(self, no_pass, solve, start):
        with pytest.raises(DomainError):
            solve(ModelParams(1e-300, 1e300), start, (-1.0, -0.5))

    def test_ode_zero_rate_at_start_still_solves(self):
        # alpha = 5e-324 bounds no rate, but g0 = 0 at gamma = 0 is a fixed point: rate 0
        sol = ode_solve_g(ModelParams(5e-324, 0.0), 0.0, (0.0, 1.0))
        assert not sol.ys.any()

    def test_ode_slow_start_under_a_fast_bound_still_solves(self):
        # g' is up to (1 + gamma)/alpha = 2e7, but g starts 2.7e-8 below the semi-stable pi/2 and
        # creeps there: delta' = -delta**2/(2*alpha) with delta = pi/2 - g, a flow 32 steps resolve
        alpha, delta0 = 1e-7, math.pi / 2 - 1.5707963
        sol = ode_solve_g(ModelParams(alpha, 1.0), 1.5707963, (0.0, 1.0))
        assert sol.ys[-1] == pytest.approx(math.pi / 2 - delta0 / (1.0 + delta0 / (2.0 * alpha)), abs=1e-9)

    # each ran every doubling up to MAX_RK4_STEPS first, 3.9-9.4 s, to NoConvergence; the last
    # carried g past the largest double near xi = 18, and every pass was NaN from there
    @pytest.mark.parametrize("solve", [ode_solve_g, ode_solve_y])
    @pytest.mark.parametrize("params,span", [(ModelParams(1e-300, 0.5), (0.0, 1.0)),
                                             (ModelParams(1.0, 1e300), (0.0, 1e6)),
                                             (ModelParams(1.0, 1e307), (0.0, 100.0))])
    def test_ode_unresolvable_flow_refused_before_a_pass(self, no_pass, solve, params, span):
        with pytest.raises(DomainError):
            solve(params, 0.0, span)

    @pytest.mark.parametrize("span,error", [((0.0, 4.0), NoConvergence), ((0.0, 4.2), DomainError)])
    def test_ode_refusal_at_one_unit_per_finest_step(self, monkeypatch, span, error):
        # a start rate of 1000 over 4096 steps: 0.98 per step runs the passes, 1.03 does not
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 2**12)
        passes = []
        rk4_g = oracles._rk4_g
        monkeypatch.setattr(oracles, "_rk4_g", lambda *args: passes.append(args[-1]) or rk4_g(*args))
        with pytest.raises(error):
            ode_solve_g(ModelParams(1.0, 1000.0), 0.0, span)
        assert bool(passes) == (error is NoConvergence)

    def test_ode_pass_overflowing_later_only_disagrees(self, monkeypatch):
        # a start rate of 2024 (1e-320/5e-324) passes the refusal, but g' = 0.5/5e-324 overflows
        # in the first step, where sin(inf) raised ValueError; the pass is NaN from there and the
        # doubling goes on
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 2**12)
        passes = []
        rk4_g = oracles._rk4_g

        def counted(*args):
            passes.append(rk4_g(*args)[0])
            return passes[-1], None

        monkeypatch.setattr(oracles, "_rk4_g", counted)
        with pytest.raises(NoConvergence):
            ode_solve_g(ModelParams(5e-324, 1e-320), 0.0, (0.0, 1.0))
        assert [p.size - 1 for p in passes] == [16 * 2**k for k in range(9)]
        assert all(np.isnan(p[-1]) for p in passes)

    # the quadratures warned about an overflow and returned inf
    @pytest.mark.parametrize("integrate", [lambda: quad_period(ModelParams(1e308, 1.5)),
                                           lambda: implicit_xi_of_g(ModelParams(1e308, 0.999999), 0.3, -0.0)])
    def test_quadrature_infinite_integral(self, integrate):
        with pytest.raises(DomainError):
            integrate()

    def test_quadrature_finite_panels_infinite_sum(self):
        # the first panel's nodes see small values and split; its halves are finite, their sum is not
        calls = []

        def f(s):
            calls.append(s)
            return np.full_like(s, 6e306) if len(calls) > 1 else 1e306 * (-1.0) ** np.arange(15)

        with pytest.raises(DomainError):
            adaptive_quadrature(f, 0.0, 40.0, 1e300)
        assert len(calls) == 3


class TestRk4StepCap:
    """No RK4 pass takes more than oracles.MAX_RK4_STEPS steps."""

    @pytest.mark.parametrize("solve", [ode_solve_g, ode_solve_y])
    def test_long_first_pass_rejected(self, no_pass, solve):
        # the span of 1e12 asked for a first pass of 4e12 steps
        with pytest.raises(DomainError):
            solve(ModelParams(1.0, 0.5), 0.0, (0.0, 1e12))

    @pytest.mark.parametrize("solve,rk4_pass", [(ode_solve_g, "_rk4_g"),
                                                (ode_solve_y, "_integrate_riccati")])
    def test_doubling_past_cap(self, monkeypatch, solve, rk4_pass):
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 64)
        original = getattr(oracles, rk4_pass)
        steps = []

        def counted(*args):
            steps.append(args[-1])
            return original(*args)

        monkeypatch.setattr(oracles, rk4_pass, counted)
        with pytest.raises(NoConvergence):
            solve(ModelParams(1.0, 0.5), 0.0, (0.0, 4.0), 1e-300)
        assert steps == [16, 32, 64]


class TestRoundingFloorRefusal:
    """A tol below the samples' rounding floor is refused once the passes stall there."""

    @pytest.mark.parametrize("solve,rk4_pass", [(ode_solve_g, "_rk4_g"),
                                                (ode_solve_y, "_integrate_riccati")])
    def test_sub_floor_tol_refused_cheaply(self, monkeypatch, solve, rk4_pass):
        # each ran all 22 doublings to MAX_RK4_STEPS = 2**22 first: 8.4M steps, 4-6 s
        original = getattr(oracles, rk4_pass)
        steps = []

        def counted(*args):
            steps.append(args[-1])
            return original(*args)

        monkeypatch.setattr(oracles, rk4_pass, counted)
        with pytest.raises(NoConvergence, match="rounding floor"):
            solve(ModelParams(1.0, 0.5), 0.0, (0.0, 1.0), 1e-300)
        assert sum(steps) <= 2**16

    @pytest.mark.parametrize("gaps,passes", [
        ([1e-15, 1e-15], [16, 32, 64]),  # no smaller, within n ulps of max|samples| = 1
        ([1e-3, 2e-3, 3e-3, 4e-3], [16, 32, 64, 128, 256]),  # growing, but far above the floor
        ([4e-15, 2e-15, 1e-15, 5e-16], [16, 32, 64, 128, 256]),  # at the floor, still shrinking
    ])
    def test_needs_a_stall_at_the_floor(self, monkeypatch, gaps, passes):
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 256)
        ran = []

        def one_pass(lo, h, n):
            ran.append(n)
            return np.ones(n + 1), None

        with pytest.raises(NoConvergence):
            oracles._halve_until_agree(one_pass, lambda cur, prev: np.array([gaps.pop(0)]),
                                       (0.0, 1.0), 1e-300, 1.0)
        assert ran == passes

    def test_no_floor_for_infinite_samples(self, monkeypatch):
        # every other pass overflowed to inf: the gap is inf and so was "n ulps of max|samples|"
        monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 256)
        ran = []

        def one_pass(lo, h, n):
            ran.append(n)
            return np.full(n + 1, math.inf if len(ran) % 2 else 0.0), None

        with pytest.raises(NoConvergence, match="within"):
            oracles._halve_until_agree(one_pass, lambda cur, prev: np.abs(cur - prev), (0.0, 1.0), 1e-9, 1.0)
        assert ran == [16, 32, 64, 128, 256]


def test_ode_solve_y_no_convergence_budget(monkeypatch):
    monkeypatch.setattr(oracles, "MAX_RK4_STEPS", 64)
    with pytest.raises(NoConvergence):
        ode_solve_y(ModelParams(1.0, 0.5), 0.0, (0.0, 1.0), 1e-300)
