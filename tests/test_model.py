import math

import numpy as np
import pytest

from sgwaves import (
    DomainError,
    ModelParams,
    constant_solutions,
    energy_density,
    wrap_to,
)


class TestModelParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            ModelParams(0.0, 0.5)
        with pytest.raises(DomainError):
            ModelParams(-1.0, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ModelParams(math.nan, 0.5)
        with pytest.raises(DomainError):
            ModelParams(1.0, math.inf)

    def test_negative_gamma_is_flipped(self):
        p = ModelParams(1.0, -0.25)
        assert p.gamma == 0.25
        assert p.flipped
        assert not ModelParams(1.0, 0.25).flipped


class TestConstantSolutions:
    def test_gamma_zero(self):
        cs = constant_solutions(ModelParams(1.0, 0.0))
        assert cs.phi_s == 0.0
        assert cs.phi_u == pytest.approx(math.pi, abs=1e-15)

    def test_gamma_half(self):
        cs = constant_solutions(ModelParams(1.0, 0.5))
        assert cs.phi_s == pytest.approx(-math.pi / 6, abs=1e-15)
        assert cs.phi_u == pytest.approx(7 * math.pi / 6, abs=1e-15)

    def test_absent_above_one(self):
        with pytest.raises(DomainError):
            constant_solutions(ModelParams(1.0, 1.5))

    def test_degenerate_at_one(self):
        cs = constant_solutions(ModelParams(1.0, 1.0))
        assert wrap_to(cs.phi_s) == pytest.approx(-math.pi / 2, abs=1e-15)
        assert wrap_to(cs.phi_u) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_reported_in_range(self):
        for gamma in np.linspace(0.0, 1.0, 51):
            cs = constant_solutions(ModelParams(1.0, float(gamma)))
            assert -math.pi < cs.phi_s < 2 * math.pi
            assert -math.pi < cs.phi_u < 2 * math.pi

    def test_equilibrium_residual(self):
        # with all derivatives zero the field equation reduces to sin(phi) + gamma
        for gamma in np.linspace(0.0, 1.0, 101):
            cs = constant_solutions(ModelParams(1.0, float(gamma)))
            assert abs(math.sin(cs.phi_s) + gamma) < 1e-14
            assert abs(math.sin(cs.phi_u) + gamma) < 1e-14


class TestEnergyDensity:
    def test_rest_state(self):
        assert energy_density(0.0, 0.0, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_inverted_state(self):
        assert energy_density(math.pi, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_forced_rest_state(self):
        # -pi/12 - cos(pi/6), cross-checked against 50-digit evaluation
        value = energy_density(-math.pi / 6, 0.0, 0.0, 0.5)
        assert value == pytest.approx(-1.1278247915835882, abs=1e-15)

    def test_kinetic_and_gradient_terms(self):
        assert energy_density(0.0, 3.0, 4.0, 0.0) == pytest.approx(4.5 + 8.0 - 1.0, abs=1e-12)

    def test_extrema_at_constant_states(self):
        # phi_s is a local minimum and phi_u a local maximum of the density
        epsilons = [e for e in np.concatenate([-np.logspace(-5, -2, 7), np.logspace(-5, -2, 7)])]
        for gamma in np.linspace(0.05, 0.95, 10):
            cs = constant_solutions(ModelParams(1.0, float(gamma)))
            e_s = energy_density(cs.phi_s, 0.0, 0.0, gamma)
            e_u = energy_density(cs.phi_u, 0.0, 0.0, gamma)
            for eps in epsilons:
                assert energy_density(cs.phi_s + eps, 0.0, 0.0, gamma) > e_s
                assert energy_density(cs.phi_u + eps, 0.0, 0.0, gamma) < e_u


class TestWrapTo:
    def test_identity_inside_window(self):
        assert wrap_to(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_reduction(self):
        assert wrap_to(7 * math.pi / 6) == pytest.approx(7 * math.pi / 6 - 2 * math.pi, abs=1e-14)
        assert wrap_to(7 * math.pi / 6, center=math.pi) == pytest.approx(7 * math.pi / 6, abs=1e-14)

    def test_array_input(self):
        values = wrap_to(np.array([0.0, 2 * math.pi, -2 * math.pi]))
        assert np.allclose(values, 0.0, atol=1e-14)
