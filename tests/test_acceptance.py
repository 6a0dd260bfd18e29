"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01, 02, 03, 04, 06 and 07 assert entries of `sgwaves.oracles.CHECKS`,
the check table that `sgwaves verify` runs too; its thresholds are pinned
here as literals.  Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The whole suite is budgeted to finish well inside
ten minutes on a desktop.
"""

import math
from contextlib import contextmanager

import pytest

from sgwaves import (
    Circle,
    ModelParams,
    Perturbation,
    Segment,
    SimConfig,
    TravellingWave,
    WaveBranch,
    constant_solutions,
    evolve,
    g_eval,
    g_limits,
    init_from_wave,
    phi_limits,
    subcritical_rate,
    winding_number,
    wrap_to,
    xi_period,
)
from sgwaves.cli import main as cli_main
from sgwaves.oracles import BRANCH_CASES, CHECKS

TWO_PI = 2.0 * math.pi

# the oracle check table's thresholds, in `sgwaves verify` order; never loosen one
PINNED_THRESHOLDS = {
    "identity_max_residual": 1e-12,
    "period_max_abs_diff": 1e-9,
    "ode_oracle_sup_diff": 1e-8,
    "pde_max_residual": 1e-6,
    "fmap_identity_max_rel": 1e-12,
    "periodicity_max_abs": 1e-9,
    "ode_max_residual": 1e-8,
}


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}")


def assert_check(name: str) -> None:
    """The table entry's worst value lies below its pinned threshold."""
    _, worst = CHECKS[name]
    assert worst() < PINNED_THRESHOLDS[name]


def test_check_table_thresholds():
    assert [(name, threshold) for name, (threshold, _) in CHECKS.items()] == list(
        PINNED_THRESHOLDS.items())


@pytest.fixture(scope="module")
def kink_array_probe():
    """Perturbed kink-array run shared by the periodicity and stability criteria.

    gamma=1.5, alpha=0.5, circle m=1, dx=Xi/256, dt=0.9*dx, eps=1e-3 mode 1,
    t_end = 50*Xi.
    """
    params = ModelParams(0.5, 1.5)
    wave = TravellingWave(params, WaveBranch.KINK_ARRAY)
    period = xi_period(params)
    n = 256
    dt = 0.9 * period / n
    state = init_from_wave(wave, n, Circle(1), dt=dt)
    config = SimConfig(
        dt=dt, t_end=50.0 * period, record_every=100,
        perturbation=Perturbation(1e-3, 1),
    )
    report = evolve(state, params, config, reference=wave)
    return wave, report


def test_criterion_01_period_agreement():
    with criterion(1, "quadrature period equals 2*pi*alpha/sqrt(gamma^2-1) to 1e-9"):
        assert_check("period_max_abs_diff")


def test_criterion_02_ode_residual_every_branch():
    with criterion(2, "|alpha*g' - gamma + sin g| < 1e-8 on 1000 points per branch"):
        assert_check("ode_max_residual")


def test_criterion_03_pde_residual_random_points():
    with criterion(3, "field-equation residual < 1e-6 at 50 random points per branch"):
        assert_check("pde_max_residual")


def test_criterion_04_ode_oracle_equivalence():
    with criterion(4, "sup|ode_solve_g - g_eval| < 1e-8 over [xi0+0.1, xi0+10]"):
        assert_check("ode_oracle_sup_diff")


def test_criterion_05_limits():
    with criterion(5, "asymptotic limits attained and equal to the closed-form displays"):
        # subcritical branches: exponential tails, 1e-6 at 40/A
        for branch, alpha, gamma in BRANCH_CASES[:2] + BRANCH_CASES[4:]:
            wave = TravellingWave(ModelParams(alpha, gamma), branch)
            far = 40.0 / subcritical_rate(wave.params)
            lo, hi = g_limits(wave)
            assert abs(g_eval(wave, wave.xi0 - far) - lo) < 1e-6
            assert abs(g_eval(wave, wave.xi0 + far) - hi) < 1e-6
        # critical branch: algebraic 2*alpha/xi tail reaches the 1e-3 scale
        # only at |xi - xi0| = 2000*alpha; check strictly beyond that radius
        for alpha in (0.5, 1.0):
            wave = TravellingWave(ModelParams(alpha, 1.0), WaveBranch.CRITICAL_KINK)
            lo, hi = g_limits(wave)
            assert (lo, hi) == (math.pi / 2, 2.5 * math.pi)
            for factor in (1.25, 2.5, 5.0, 20.0):
                far = factor * 2000.0 * alpha
                assert abs(g_eval(wave, wave.xi0 - far) - lo) < 1e-3
                assert abs(g_eval(wave, wave.xi0 + far) - hi) < 1e-3
        # exact limit values match the closed-form displays
        a = math.asin(0.5)
        w1 = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.DECREASING1)
        assert g_limits(w1) == (math.pi - a, a)
        w2 = TravellingWave(ModelParams(0.5, 0.5), WaveBranch.INCREASING2)
        assert g_limits(w2) == (math.pi - a, TWO_PI + a)
        # field limits reconstruct the uniform states mod 2*pi, per chirality
        for branch in (WaveBranch.DECREASING1, WaveBranch.INCREASING2,
                       WaveBranch.CRITICAL_KINK):
            gamma = 1.0 if branch is WaveBranch.CRITICAL_KINK else 0.5
            for chirality in (1, -1):
                wave = TravellingWave(ModelParams(1.0, gamma), branch, chirality=chirality)
                cs = constant_solutions(wave.params)
                limits = phi_limits(wave)
                toward_s = limits[0] if chirality == 1 else limits[1]
                toward_u = limits[1] if chirality == 1 else limits[0]
                assert abs(wrap_to(toward_s - cs.phi_s)) < 1e-12
                assert abs(wrap_to(toward_u - cs.phi_u)) < 1e-12


def test_criterion_06_appendix_identities():
    with criterion(6, "trigonometric identity residuals < 1e-12 on a 101-point grid"):
        assert_check("identity_max_residual")


def test_criterion_07_periodicity_and_twist(kink_array_probe):
    with criterion(7, "g(xi+Xi) - g(xi) = 2*pi to 1e-9; winding preserved to 1e-6 over 50*Xi"):
        assert_check("periodicity_max_abs")
        probe_wave, report = kink_array_probe
        assert winding_number(report.final_state) == pytest.approx(
            probe_wave.chirality * 1.0, abs=1e-6
        )


def test_criterion_08_stability_dichotomy(kink_array_probe):
    with criterion(8, "kink array deviation < 1e-2 over 50*Xi; increasing2 exceeds 1e-1 by t=100"):
        _, report = kink_array_probe
        assert report.diverged_at is None
        assert max(report.deviation) < 1e-2

        params = ModelParams(0.5, 0.5)
        wave = TravellingWave(params, WaveBranch.INCREASING2)
        half = 40.0 / subcritical_rate(params)
        n = 1024
        dx = 2.0 * half / (n - 1)
        dt = 0.9 * dx
        state = init_from_wave(wave, n, Segment(-half, half), dt=dt)
        config = SimConfig(dt=dt, t_end=100.0, record_every=50,
                           perturbation=Perturbation(1e-3, 1))
        unstable = evolve(state, params, config, reference=wave)
        exceeded = [t for t, d in zip(unstable.times, unstable.deviation) if d > 1e-1]
        assert exceeded and exceeded[0] < 100.0


def test_criterion_09_scheme_convergence():
    with criterion(9, "co-moving deviation after one period shrinks >= 3.5x per dx,dt halving"):
        params = ModelParams(0.5, 1.5)
        wave = TravellingWave(params, WaveBranch.KINK_ARRAY)
        period = xi_period(params)
        finals = []
        for n in (128, 256, 512):
            dt = 0.9 * period / n
            state = init_from_wave(wave, n, Circle(1), dt=dt)
            config = SimConfig(dt=dt, t_end=period, record_every=10**9)
            report = evolve(state, params, config, reference=wave)
            finals.append(report.deviation[-1])
        assert finals[0] / finals[1] >= 3.5
        assert finals[1] / finals[2] >= 3.5


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated cmd_simulate runs produce bit-identical CSVs"):
        outputs = []
        for tag in ("first", "second"):
            dev = tmp_path / f"{tag}_dev.csv"
            snap = tmp_path / f"{tag}_snap.csv"
            code = cli_main([
                "simulate", "--alpha", "0.5", "--gamma", "1.5",
                "--branch", "kink_array", "--domain", "circle", "--m", "1",
                "--n", "128", "--t-end", "6", "--record-every", "25",
                "--eps", "1e-3", "--mode", "1",
                "--out", str(dev), "--snapshot-out", str(snap),
            ])
            assert code == 0
            outputs.append((dev.read_bytes(), snap.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
