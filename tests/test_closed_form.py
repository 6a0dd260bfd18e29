import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgwaves import (
    DomainError,
    F_map,
    ModelParams,
    TravellingWave,
    WaveBranch,
    constant_solutions,
    g_eval,
    g_limits,
    g_slope,
    ode_solve_g,
    phi_eval,
    phi_limits,
    subcritical_rate,
    theta,
    wrap_to,
    xi_period,
    y_eval,
    y_fixed_points,
)
from sgwaves import closed_form
from sgwaves.closed_form import constant_y_value
from sgwaves.oracles import BRANCH_CASES

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


def wave(branch, alpha, gamma, xi0=0.0, chirality=1):
    return TravellingWave(ModelParams(alpha, gamma), branch, xi0, chirality)


# the branch cases and two at alpha = 1e-9, where the branch's scale is far below 1
CHAIN_CASES = BRANCH_CASES + [(WaveBranch.INCREASING2, 1e-9, 0.5), (WaveBranch.KINK_ARRAY, 1e-9, 1.5)]


@st.composite
def pole_waves(draw):
    """Random wave of a branch whose y has poles, either chirality."""
    branch = draw(st.sampled_from(
        [WaveBranch.INCREASING2, WaveBranch.CRITICAL_KINK, WaveBranch.KINK_ARRAY]))
    if branch is WaveBranch.INCREASING2:
        gamma = draw(st.floats(0.05, 0.95))
    elif branch is WaveBranch.KINK_ARRAY:
        gamma = draw(st.floats(1.01, 5.0))
    else:
        gamma = 1.0
    return wave(branch, draw(st.floats(0.3, 2.0)), gamma,
                draw(st.floats(-10.0, 10.0)), draw(st.sampled_from([1, -1])))


def pole_of(w, k):
    """xi of pole k of y (the only pole off the kink array) and g there."""
    if w.branch is WaveBranch.KINK_ARRAY:
        return w.xi0 + xi_period(w.params) * (k + 0.5), TWO_PI * (k + 1)
    return w.xi0, TWO_PI


def scale_of(w):
    """The branch's own length: Xi on the kink array, 1/A on increasing2 and decreasing1, else alpha."""
    if w.branch is WaveBranch.KINK_ARRAY:
        return xi_period(w.params)
    if w.branch in (WaveBranch.INCREASING2, WaveBranch.DECREASING1):
        return 1.0 / subcritical_rate(w.params)
    return w.params.alpha


def poles(w):
    """xi of every pole of y for k in -3..3; none off the pole branches."""
    if w.branch not in (WaveBranch.INCREASING2, WaveBranch.CRITICAL_KINK, WaveBranch.KINK_ARRAY):
        return np.array([])
    return np.unique([pole_of(w, k)[0] for k in range(-3, 4)])


def with_poles(w, xs):
    """The sorted grid xs with every pole of y added."""
    return np.unique(np.concatenate([xs, poles(w)]))


def pole_points(w):
    """Every pole of y for k in -3..3, its neighbouring doubles and pole +- 1e-10*scale; none off the pole branches."""
    xs = poles(w)
    offset = 1e-10 * scale_of(w)
    return np.concatenate([xs, np.nextafter(xs, math.inf), np.nextafter(xs, -math.inf), xs + offset, xs - offset])


# An earlier g_eval served this pole's limit value inside a 9.5e-8 window,
# 7e-8 off the true g at delta = 5e-8.
SEED_WINDOW_CASE = wave(WaveBranch.KINK_ARRAY, 0.7576, 1.1179)
POLE_SETTINGS = settings(deadline=None, derandomize=True, database=None)


class TestFixedPoints:
    def test_critical_double_root(self):
        fp = y_fixed_points(ModelParams(1.0, 1.0))
        assert fp.y_plus == pytest.approx(-1.0, abs=1e-15)
        assert fp.y_minus == pytest.approx(-1.0, abs=1e-15)

    def test_gamma_half_roots(self):
        # roots of y^2 + 4y + 1 = 0, frozen from an independent quadratic solve
        fp = y_fixed_points(ModelParams(1.0, 0.5))
        assert fp.y_plus == pytest.approx(-0.2679491924311227, abs=1e-15)
        assert fp.y_minus == pytest.approx(-3.732050807568877, abs=1e-14)

    @pytest.mark.parametrize("gamma", [1e-300, 0.25, 0.5, 0.999999, 1.0])
    def test_constant_values_are_the_fixed_points(self, gamma):
        fp = y_fixed_points(ModelParams(1.0, gamma))
        assert same_bits(constant_y_value(ModelParams(1.0, gamma), WaveBranch.CONSTANT_S), fp.y_plus)
        assert same_bits(constant_y_value(ModelParams(1.0, gamma), WaveBranch.CONSTANT_U), fp.y_minus)

    def test_constant_values_at_zero_forcing(self):
        assert same_bits(constant_y_value(ModelParams(1.0, 0.0), WaveBranch.CONSTANT_S), -0.0)
        assert constant_y_value(ModelParams(1.0, 0.0), WaveBranch.CONSTANT_U) == -math.inf

    def test_roots_satisfy_quadratic(self):
        for gamma in np.linspace(0.01, 1.0, 100):
            fp = y_fixed_points(ModelParams(1.0, float(gamma)))
            for root in (fp.y_plus, fp.y_minus):
                assert abs(gamma * (1.0 + root * root) + 2.0 * root) < 1e-12
            assert fp.y_minus <= fp.y_plus < 0.0


class TestFMap:
    def test_zero(self):
        assert F_map(0.0) == 1.0

    def test_minus_one(self):
        assert F_map(-1.0) == pytest.approx(SQRT2 - 1.0, abs=1e-16)

    def test_large_negative(self):
        # extended-precision value 4.9999999999999999e-09 rounds to 5e-9
        assert abs(F_map(-1e8) - 5e-9) / 5e-9 < 1e-10

    def test_infinities(self):
        assert F_map(-math.inf) == 0.0
        assert F_map(math.inf) == math.inf

    def test_inverse_identity(self):
        # F(y) * (sqrt(1+y^2) - y) = 1; the reference factor is evaluated
        # with the sign-appropriate stable form (the opposite code path from
        # F_map's), so each F branch is checked against the other expression
        ys = np.concatenate([-np.logspace(-8, 8, 65), [0.0], np.logspace(-8, 8, 65)])
        F = F_map(ys)
        r = np.sqrt(1.0 + ys * ys)
        with np.errstate(divide="ignore"):
            factor = np.where(ys > 0.0, 1.0 / (r + ys), r - ys)
        rel = np.abs(F * factor - 1.0)
        assert np.max(rel) < 1e-12

    def test_positive_and_increasing(self):
        ys = np.linspace(-30.0, 30.0, 1001)
        F = F_map(ys)
        assert np.all(F > 0.0)
        assert np.all(np.diff(F) > 0.0)


class TestYEval:
    def test_kink_array_at_phase_origin(self):
        w = wave(WaveBranch.KINK_ARRAY, 0.37, SQRT2)
        assert y_eval(w, 0.0) == pytest.approx(-1.0 / SQRT2, abs=1e-15)

    def test_critical_kink_value(self):
        w = wave(WaveBranch.CRITICAL_KINK, 1.0, 1.0)
        assert y_eval(w, 2.0) == pytest.approx(-2.0, abs=1e-15)

    def test_decreasing1_midpoint(self):
        w = wave(WaveBranch.DECREASING1, 0.5, 0.5)
        assert y_eval(w, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_pole_infinities(self):
        # the formula at exact poles: k/den divides by zero at d = +0.0, while
        # tan(pi*0.5) and its neighbour are finite
        wi = wave(WaveBranch.INCREASING2, 0.5, 0.5)
        assert y_eval(wi, 0.0) == -math.inf
        assert g_eval(wi, 0.0) == TWO_PI
        wk = wave(WaveBranch.KINK_ARRAY, 1.0, SQRT2)
        period = xi_period(wk.params)
        assert 1e15 < y_eval(wk, period / 2) < math.inf
        assert -math.inf < y_eval(wk, np.nextafter(period / 2, math.inf)) < -1e15

    # y_eval refuses from 2**52 periods on (the y-no-phase-left rows of tests/test_refusals.py),
    # where g = 2*pi*u stays right to its own ulp
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kink_array_phase_below_2_52_periods(self, sign):
        w = wave(WaveBranch.KINK_ARRAY, 0.7, 1.5)
        period = xi_period(w.params)
        near, far = sign * (2.0**52 - 1.0) * period, sign * 2.0**52 * period
        assert np.isfinite(y_eval(w, np.array([0.3, near]))).all()
        assert np.isfinite(g_eval(w, far)) and np.isfinite(phi_eval(w, far, 0.0))

    # at alpha = 1e-9 every branch's scale is far below 1 (a fixed 1e-8 pole window once
    # covered a kink array's whole period, so y read +-inf at every xi)
    @pytest.mark.parametrize("branch,gamma", [(WaveBranch.INCREASING2, 0.5), (WaveBranch.CRITICAL_KINK, 1.0),
                                              (WaveBranch.KINK_ARRAY, 1.5)])
    def test_finite_next_to_a_pole_at_a_small_scale(self, branch, gamma):
        w = wave(branch, 1e-9, gamma)
        scale = scale_of(w)
        pole = pole_of(w, 0)[0]
        left, right = y_eval(w, pole + scale * np.array([-0.5e-8, 0.5e-8]))
        assert math.inf > left > 0.0 > right > -math.inf  # y rises through the pole
        assert np.isfinite(y_eval(w, pole + scale * np.array([-0.25, -2e-8, 2e-8, 0.25]))).all()

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES[:2])
    def test_subcritical_fixed_point_limits(self, branch, alpha, gamma):
        # y -> y_minus as xi -> +inf and y -> y_plus as xi -> -inf
        w = wave(branch, alpha, gamma)
        fp = y_fixed_points(w.params)
        far = 40.0 / subcritical_rate(w.params)
        assert y_eval(w, far) == pytest.approx(fp.y_minus, abs=1e-6)
        assert y_eval(w, -far) == pytest.approx(fp.y_plus, abs=1e-6)

    def test_riccati_equation_satisfied(self):
        # 2*alpha*y' = 2*y + gamma*(1 + y^2) by central differences
        h = 1e-5
        stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        for branch, alpha, gamma in BRANCH_CASES:
            w = wave(branch, alpha, gamma)
            xs = np.linspace(-6.0, 6.0, 41)
            for xi in xs[np.all(np.abs(xs[:, None] - poles(w)) > 0.05, axis=1)]:  # y is unbounded at a pole
                ys = np.array([y_eval(w, xi + k * h) for k in (-2, -1, 0, 1, 2)])
                if np.any(np.abs(ys) > 1e4):
                    continue
                lhs = 2.0 * alpha * float(stencil @ ys)
                rhs = 2.0 * ys[2] + gamma * (1.0 + ys[2] ** 2)
                assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


class TestGEval:
    def test_kink_array_pole_limit(self):
        w = wave(WaveBranch.KINK_ARRAY, 1.0, SQRT2)
        period = xi_period(w.params)
        assert g_eval(w, period / 2) == pytest.approx(TWO_PI, abs=1e-12)

    def test_critical_limits_sampled(self):
        w = wave(WaveBranch.CRITICAL_KINK, 1.0, 1.0)
        assert g_eval(w, -1e7) == pytest.approx(math.pi / 2, abs=1e-6)
        assert g_eval(w, 1e7) == pytest.approx(2.5 * math.pi, abs=1e-6)

    def test_critical_tail_boundary_value(self):
        # the 1/xi tail leaves |g - limit| at 1.0005e-3 on the approach side
        # of |xi - xi0| = 2000*alpha (and 0.9995e-3 on the departure side)
        w = wave(WaveBranch.CRITICAL_KINK, 1.0, 1.0)
        assert abs(g_eval(w, -2000.0) - math.pi / 2) == pytest.approx(1.0005002e-3, rel=1e-5)
        assert abs(g_eval(w, 2000.0) - 2.5 * math.pi) == pytest.approx(0.9995002e-3, rel=1e-5)

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_monotone(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma)
        xs = with_poles(w, np.linspace(-8.0, 8.0, 1600))
        gs = g_eval(w, xs)
        diffs = np.diff(gs)
        if branch in (WaveBranch.DECREASING1, WaveBranch.PURE_SG_DECREASING):
            assert np.all(diffs < 0.0)
        else:
            assert np.all(diffs > 0.0)

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_analytic_slope_matches_difference_quotient(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma)
        h = 1e-6
        for xi in with_poles(w, np.linspace(-4.0, 4.0, 17)):
            quotient = (g_eval(w, xi + h) - g_eval(w, xi - h)) / (2.0 * h)
            assert g_slope(w, xi) == pytest.approx(quotient, abs=1e-7)

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_translation_covariance(self, branch, alpha, gamma):
        w0 = wave(branch, alpha, gamma, xi0=0.3)
        w1 = wave(branch, alpha, gamma, xi0=-1.7)
        xs = with_poles(w0, np.linspace(-5.0, 5.0, 201))
        diff = g_eval(w0, xs) - g_eval(w1, xs - 0.3 + (-1.7))
        assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES[:3])
    def test_asymptotic_limits(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma)
        lo, hi = g_limits(w)
        if gamma < 1.0:
            far = 40.0 / subcritical_rate(w.params)
            tol = 1e-6
        else:
            far = 2500.0 * alpha  # strictly beyond the 2000*alpha tail radius
            tol = 1e-3
        assert abs(g_eval(w, w.xi0 - far) - lo) < tol
        assert abs(g_eval(w, w.xi0 + far) - hi) < tol

    @pytest.mark.parametrize("branch,alpha,gamma", CHAIN_CASES)
    def test_paper_chain_identity(self, branch, alpha, gamma):
        # the paper's route 4*atan(F(y)) gives g mod 2*pi at every xi, at and next to the
        # poles too, where y is large or +-inf
        for w in (wave(branch, alpha, gamma, xi0) for xi0 in (0.0, 0.3)):
            xs = np.concatenate([w.xi0 + scale_of(w) * np.linspace(-12.0, 12.0, 2001), pole_points(w)])
            chain = 4.0 * np.arctan(F_map(y_eval(w, xs)))
            assert np.max(np.abs(wrap_to(g_eval(w, xs) - chain))) < 1e-12


class TestGAtPoles:
    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES[1:3])
    def test_signed_zero_at_pole(self, branch, alpha, gamma):
        # xi - xi0 is -0.0 for xi = -0.0, xi0 = 0.0: y = +inf with no turn yet
        w = wave(branch, alpha, gamma)
        assert g_eval(w, np.array([-0.0, 0.0])) == pytest.approx([TWO_PI, TWO_PI], abs=1e-15)

    @POLE_SETTINGS
    @given(w=pole_waves(), k=st.integers(-3, 3), delta=st.floats(-1e-4, 1e-4))
    @example(w=SEED_WINDOW_CASE, k=0, delta=5e-8)
    @example(w=wave(WaveBranch.INCREASING2, 0.5, 0.5), k=0, delta=1e-17)  # exp(A*d) == 1.0
    def test_taylor_expansion(self, w, k, delta):
        # at a pole g = 2*pi*m, so g' = gamma/alpha and g'' = -gamma/alpha^2
        pole, g_pole = pole_of(w, k)
        a, gamma = w.params.alpha, w.params.gamma
        taylor = g_pole + (gamma / a) * delta - 0.5 * (gamma / a ** 2) * delta ** 2
        g = phi_eval(w, w.chirality * (pole + delta), 0.0) + math.pi
        assert abs(g - taylor) < 1e-10

    @settings(POLE_SETTINGS, max_examples=25)
    @given(w=pole_waves(), k=st.integers(-3, 3))
    @example(w=SEED_WINDOW_CASE, k=0)
    def test_matches_ode_through_pole(self, w, k):
        pole, _ = pole_of(w, k)
        lo, hi = pole - 0.1, pole + 0.1
        sol = ode_solve_g(w.params, g_eval(w, lo), (lo, hi), 1e-9)
        assert np.max(np.abs(sol.ys - g_eval(w, sol.xs))) < 1e-8


def reference_riccati(w, d):
    """The branch formulas of _riccati as first written, out of place."""
    p = w.params
    turns = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if w.branch is WaveBranch.KINK_ARRAY:
            u = d / xi_period(p)
            turns = np.round(u)
            c = math.sqrt((p.gamma - 1.0) * (p.gamma + 1.0)) / p.gamma
            y = -1.0 / p.gamma + c * np.tan(math.pi * (u - turns))
        elif w.branch is WaveBranch.PURE_SG_DECREASING:
            y = -np.exp(d / p.alpha)
        elif w.branch is WaveBranch.PURE_SG_INCREASING:
            y = np.exp(d / p.alpha)
        elif w.branch is WaveBranch.DECREASING1:
            fp = y_fixed_points(p)
            y = fp.y_minus + (fp.y_plus - fp.y_minus) / (1.0 + np.exp(subcritical_rate(p) * d))
        else:
            if w.branch is WaveBranch.CRITICAL_KINK:
                c, k, den = -1.0, 2.0 * p.alpha, -d
            else:
                fp = y_fixed_points(p)
                c, k = fp.y_minus, fp.y_plus - fp.y_minus
                den = -np.expm1(subcritical_rate(p) * d)
            y = c + k / den
            turns = np.signbit(den)
    return y, turns


def reference_g(w, xi):
    y, turns = reference_riccati(w, np.asarray(xi, dtype=float) - w.xi0)
    return math.pi + 2.0 * np.arctan(y) + TWO_PI * turns


def reference_y(w, xi):
    return reference_riccati(w, np.asarray(xi, dtype=float) - w.xi0)[0]


def same_bits(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def eval_points(w):
    """Random points, signed zeros, xi0, huge values and every pole with its neighbours."""
    xs = np.random.default_rng(5).uniform(-30.0, 30.0, 500)
    return np.concatenate([xs, [0.0, -0.0, w.xi0, 1e300, -1e300], pole_points(w)])


def y_points(w, xs):
    """xs less +-1e300 on the kink array: 2**52 periods or more from xi0, where y_eval refuses."""
    if w.branch is not WaveBranch.KINK_ARRAY:
        return xs
    huge = np.abs(xs) == 1e300
    for xi in (xs, *xs[huge]):
        with pytest.raises(DomainError, match="no phase left"):
            y_eval(w, xi)
    return xs[~huge]


class TestInPlaceEval:
    """g_eval and y_eval write into one private buffer; the out-of-place formulas are the reference."""

    @pytest.mark.parametrize("xi0", [0.0, 0.3])
    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_matches_reference_bit_for_bit(self, branch, alpha, gamma, xi0):
        w = wave(branch, alpha, gamma, xi0)
        xs = eval_points(w)
        for points, f, reference in ((xs, g_eval, reference_g), (y_points(w, xs), y_eval, reference_y)):
            for xi in (points, points[::3], points[:60].reshape(6, 10)):
                assert same_bits(f(w, xi), reference(w, xi))

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_input_unchanged(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma, 0.3)
        xs = eval_points(w)
        before = xs.copy()
        g_eval(w, xs)
        y_eval(w, y_points(w, xs))
        phi_eval(w, xs, 0.2)
        phi_eval(w, 0.2, xs)
        assert same_bits(xs, before)

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_scalar_input_returns_float(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma, 0.3)
        for xi in (0.7, np.float64(0.7), np.array(0.7), 3, w.xi0):
            for f, ref in ((g_eval, reference_g), (y_eval, reference_y)):
                value = f(w, xi)
                assert type(value) is float
                assert same_bits(value, ref(w, xi))
            slope = g_slope(w, xi)
            assert type(slope) is float
            assert same_bits(slope, (gamma - np.sin(reference_g(w, xi))) / alpha)
        assert type(phi_eval(w, 0.7, 0.2)) is float

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_slope_of_an_array_is_an_array(self, branch, alpha, gamma):
        # g_slope turns only a scalar or 0-d result into a float; a one-point array stays an array
        w = wave(branch, alpha, gamma, 0.3)
        xs = eval_points(w)
        for xi in (xs, xs[::3], xs[:60].reshape(6, 10), xs[:1], list(xs[:9])):
            slope = g_slope(w, xi)
            assert type(slope) is np.ndarray
            assert same_bits(slope, (gamma - np.sin(reference_g(w, np.asarray(xi)))) / alpha)

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_integer_input(self, branch, alpha, gamma):
        w = wave(branch, alpha, gamma, 0.3)
        ints = np.arange(-4, 5)
        assert same_bits(g_eval(w, ints), reference_g(w, ints.astype(float)))
        assert same_bits(y_eval(w, ints), reference_y(w, ints.astype(float)))
        assert same_bits(g_eval(w, list(ints)), g_eval(w, ints.astype(float)))

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES)
    def test_result_is_the_riccati_buffer(self, monkeypatch, branch, alpha, gamma):
        # one n-point float buffer per call: _riccati's d comes back as y (and then g)
        w = wave(branch, alpha, gamma, 0.3)
        buffers = []
        riccati = closed_form._riccati

        def spy(w, d):
            buffers.append(d)
            return riccati(w, d)

        monkeypatch.setattr(closed_form, "_riccati", spy)
        xs = eval_points(w)
        for f, xi in ((y_eval, y_points(w, xs)), (g_eval, xs)):
            assert f(w, xi) is buffers[-1]

    @pytest.mark.parametrize("branch,alpha,gamma", BRANCH_CASES[1:4])
    def test_y_next_to_a_pole_has_its_residue(self, branch, alpha, gamma):
        # y*(xi - pole) -> the residue; the formula's relative error there is about
        # ulp(xi)/|xi - pole|, the rounding of xi that fixes y so close to a pole
        w = wave(branch, alpha, gamma, 0.3)
        p = w.params
        if branch is WaveBranch.CRITICAL_KINK:
            residue = -2.0 * alpha
        elif branch is WaveBranch.INCREASING2:
            fp = y_fixed_points(p)
            residue = -(fp.y_plus - fp.y_minus) / subcritical_rate(p)
        else:
            residue = -math.sqrt((gamma - 1.0) * (gamma + 1.0)) / gamma * xi_period(p) / math.pi
        for k in (-1, 0, 2):
            pole = pole_of(w, k)[0]
            xs = np.array([pole - 1e-10, pole + 1e-10])
            ys = y_eval(w, xs)
            assert same_bits(ys, [y_eval(w, float(x)) for x in xs])
            for xi, y in zip(xs, ys):
                delta = xi - pole
                assert y * delta == pytest.approx(residue, rel=4.0 * math.ulp(xi) / abs(delta))


class TestGLimits:
    def test_decreasing1(self):
        lo, hi = g_limits(wave(WaveBranch.DECREASING1, 1.0, 0.5))
        assert lo == pytest.approx(5 * math.pi / 6, abs=1e-15)
        assert hi == pytest.approx(math.pi / 6, abs=1e-15)

    def test_increasing2_gamma_zero_limit_form(self):
        lo, hi = g_limits(wave(WaveBranch.PURE_SG_INCREASING, 1.0, 0.0))
        assert (lo, hi) == (math.pi, TWO_PI)

    def test_critical(self):
        assert g_limits(wave(WaveBranch.CRITICAL_KINK, 1.0, 1.0)) == (
            math.pi / 2,
            2.5 * math.pi,
        )

    @pytest.mark.parametrize(
        "branch", [WaveBranch.DECREASING1, WaveBranch.INCREASING2, WaveBranch.CRITICAL_KINK]
    )
    @pytest.mark.parametrize("chirality", [1, -1])
    def test_phi_limit_reconstruction(self, branch, chirality):
        # x -> -chirality*inf gives phi_s, x -> +chirality*inf gives phi_u mod 2*pi
        gamma = 1.0 if branch is WaveBranch.CRITICAL_KINK else 0.5
        w = wave(branch, 1.0, gamma, chirality=chirality)
        cs = constant_solutions(w.params)
        toward_s, toward_u = phi_limits(w) if chirality == 1 else phi_limits(w)[::-1]
        assert abs(wrap_to(toward_s - cs.phi_s)) < 1e-12
        assert abs(wrap_to(toward_u - cs.phi_u)) < 1e-12


class TestPhiEval:
    def test_constant_branch(self):
        w = wave(WaveBranch.CONSTANT_S, 1.0, 0.5)
        assert phi_eval(w, 3.2, -1.1) == pytest.approx(-math.pi / 6, abs=1e-15)
        values = phi_eval(w, np.linspace(0, 1, 5), 0.0)
        assert np.allclose(values, -math.pi / 6, atol=1e-15)

    def test_kink_array_on_characteristic(self):
        # frozen from 50-digit evaluation of 4*atan(F(-1/sqrt(2))) - pi
        w = wave(WaveBranch.KINK_ARRAY, 1.0, SQRT2)
        for x in (0.0, 1.3, -7.9):
            assert phi_eval(w, x, x) == pytest.approx(-1.2309594173407747, abs=1e-12)

    def test_chirality_flip_mirror(self):
        wp = wave(WaveBranch.KINK_ARRAY, 1.0, SQRT2, chirality=1)
        wm = wave(WaveBranch.KINK_ARRAY, 1.0, SQRT2, chirality=-1)
        xs = np.linspace(-10.0, 10.0, 100)
        assert np.array_equal(phi_eval(wp, xs, 0.7), phi_eval(wm, -xs, 0.7))

    def test_wave_translates_at_unit_speed(self):
        w = wave(WaveBranch.DECREASING1, 0.5, 0.5)
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.allclose(phi_eval(w, xs, 0.0), phi_eval(w, xs + 2.5, 2.5), atol=1e-12)


class TestPeriodAndTheta:
    def test_period_sqrt2(self):
        assert xi_period(ModelParams(1.0, SQRT2)) == pytest.approx(TWO_PI, abs=1e-12)

    def test_period_and_quarter_values(self):
        assert xi_period(ModelParams(1.0, 1.25)) == pytest.approx(8.377580409572783, abs=1e-12)

    def test_theta_range(self):
        assert theta(0.0) == 0.0
        assert theta(1.0) == pytest.approx(math.pi / 8, abs=1e-15)
        assert theta(0.5) == pytest.approx(0.13089969389957473, abs=1e-15)

    def test_f_limits_match_theta(self):
        # F(y(xi)) -> tan(theta) and tan(pi/4 - theta) at the two ends
        for gamma in (0.2, 0.5, 0.9):
            w = wave(WaveBranch.DECREASING1, 1.0, gamma)
            far = 40.0 / subcritical_rate(w.params)
            th = theta(gamma)
            assert F_map(y_eval(w, far)) == pytest.approx(math.tan(th), abs=1e-6)
            assert F_map(y_eval(w, -far)) == pytest.approx(math.tan(math.pi / 4 - th), abs=1e-6)
