import math

import numpy as np
import pytest

from egoek.decomposition import (
    SingularFitError,
    SmoothModel,
    decompose_member,
    fit_smooth_model,
    goe_delta_rms,
    smooth_distribution_values,
    staircase,
)
from egoek.ensemble import EnsembleSpec, build_member
from egoek.fock import Statistics
from egoek.qhermite import fqn_density, hermite_table, qfactorial, support_halfwidth
from egoek.spectra import Spectrum, eigenvalues, moments

from oracles import fqn_cdf_mp, level_motion


def synthetic_spectrum(q, d, coefficients=()):
    """Levels drawn exactly from a smooth model: inverse-CDF at targets i - 1/2,
    found by interpolation plus Newton refinement on the batched forward map."""
    model = SmoothModel(
        q=q,
        order=2 + len(coefficients),
        coefficients=np.asarray(coefficients, dtype=float),
        dimension=d,
        centroid=0.0,
        width=1.0,
    )
    x0 = support_halfwidth(q)
    grid = np.linspace(-x0, x0, 4001)
    forward = smooth_distribution_values(model, grid)
    targets = np.arange(d) + 0.5
    x = np.interp(targets, forward, grid)
    for _ in range(4):
        values = smooth_distribution_values(model, x)
        correction = np.ones_like(x)
        table = hermite_table(model.order, x, q)
        for j, n in enumerate(range(3, model.order + 1)):
            correction += model.coefficients[j] / qfactorial(n, q) * table[n]
        derivative = np.maximum(d * fqn_density(x, q) * correction, 1e-9)
        x = np.clip(x - (values - targets) / derivative, -x0 + 1e-12, x0 - 1e-12)
    return Spectrum(np.sort(x)), model


class TestStaircase:
    def test_midpoint_convention(self):
        s = Spectrum(np.arange(924, dtype=float))
        values = staircase(s)
        assert values[0] == 0.5
        assert values[-1] == 923.5
        assert len(values) == 924

    def test_median_of_odd_dimension(self):
        s = Spectrum(np.arange(101, dtype=float))
        assert staircase(s)[50] == 50.5


class TestGoeDeltaRms:
    def test_reference_dimensions(self):
        assert goe_delta_rms(924) == pytest.approx(0.873, abs=2e-4)
        assert goe_delta_rms(1001) == pytest.approx(0.8777, abs=2e-4)

    def test_formula_inversion(self):
        # d = e^(pi^2)/2 makes the value exactly 1
        d = round(math.exp(math.pi**2) / 2.0)
        assert goe_delta_rms(d) == pytest.approx(1.0, abs=1e-4)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            goe_delta_rms(1)


class TestSmoothDistribution:
    def test_plain_model_reduces_to_cdf(self):
        model = SmoothModel(0.4, 2, np.empty(0), 500, centroid=1.0, width=2.0)
        for e in (-3.0, 0.0, 1.0, 4.0):
            e_hat = (e - 1.0) / 2.0
            value = smooth_distribution_values(model, [e])[0]
            assert value == pytest.approx(500 * fqn_cdf_mp(e_hat, 0.4), abs=1e-7)

    def test_centroid_maps_to_half(self):
        model = SmoothModel(0.6, 2, np.empty(0), 800, centroid=-2.0, width=0.5)
        assert smooth_distribution_values(model, [-2.0])[0] == pytest.approx(400.0, abs=1e-6)

    def test_corrections_vanish_at_edges(self):
        # With only S4 nonzero the upper edge still maps to d (orthogonality).
        model = SmoothModel(0.5, 4, np.array([0.0, 0.2]), 300, centroid=0.0, width=1.0)
        x0 = support_halfwidth(0.5)
        assert smooth_distribution_values(model, [x0])[0] == pytest.approx(300.0, abs=1e-6)
        assert smooth_distribution_values(model, [-x0])[0] == pytest.approx(0.0, abs=1e-6)

    def test_clamps_outside_support(self):
        model = SmoothModel(0.5, 3, np.array([0.05]), 100, centroid=0.0, width=1.0)
        assert smooth_distribution_values(model, [-99.0])[0] == pytest.approx(0.0, abs=1e-9)
        assert smooth_distribution_values(model, [99.0])[0] == pytest.approx(100.0, abs=1e-7)

    def test_vectorized_consistency(self):
        model = SmoothModel(0.3, 4, np.array([0.02, -0.01]), 64, centroid=0.2, width=1.4)
        energies = np.array([-1.0, 0.0, 0.7, 2.0])
        batch = smooth_distribution_values(model, energies)
        single = [smooth_distribution_values(model, [e])[0] for e in energies]
        assert np.allclose(batch, single, atol=1e-9)


class TestFitRecovery:
    def test_round_trip_coefficients(self):
        s, _model = synthetic_spectrum(0.5, 2000, coefficients=(0.05, -0.03))
        fitted = fit_smooth_model(s, 0.5, 4)
        assert fitted.coefficients[0] == pytest.approx(0.05, abs=1e-3)
        assert fitted.coefficients[1] == pytest.approx(-0.03, abs=1e-3)

    def test_zero_fluctuation_series(self):
        s, model = synthetic_spectrum(0.5, 400)
        delta = level_motion(s, model)
        assert np.max(np.abs(delta)) < 1e-6
        assert np.sqrt(np.mean(delta**2)) < 1e-6

    def test_order_two_model_is_plain(self):
        s, _ = synthetic_spectrum(0.4, 200)
        fitted = fit_smooth_model(s, 0.4, 2)
        assert fitted.order == 2
        assert fitted.coefficients.size == 0

    def test_singular_fit_detected(self):
        # Two distinct abscissas cannot determine four correction columns.
        s = Spectrum(np.array([-1.0] * 2 + [1.0] * 2))
        with pytest.raises(SingularFitError):
            fit_smooth_model(s, 0.3, 6)


class TestMonotoneResidual:
    def test_delta_rms_non_increasing_in_order(self):
        spec = EnsembleSpec(Statistics.FERMION, m=4, n_sites=8, k=2, members=3, master_seed=23)
        for member in range(spec.members):
            s = eigenvalues(build_member(spec, member))
            q = moments(s).q_est
            result = decompose_member(s, q, (2, 3, 4, 5, 6))
            rms = [result.delta_rms(order) for order in (2, 3, 4, 5, 6)]
            for a, b in zip(rms, rms[1:]):
                assert b <= a + 1e-9

    def test_series_alignment(self):
        spec = EnsembleSpec(Statistics.BOSON, m=5, n_sites=4, k=2, members=1, master_seed=8)
        s = eigenvalues(build_member(spec, 0))
        q = moments(s).q_est
        result = decompose_member(s, q, (2, 4))
        assert len(result.delta[2]) == s.dimension
        assert len(result.e_hat) == s.dimension
        # decompose_member agrees exactly with the one-shot fit evaluated at the levels
        model = fit_smooth_model(s, q, 4)
        direct = level_motion(s, model)
        assert np.array_equal(direct, result.delta[4])
        assert np.array_equal((s.eigenvalues - model.centroid) / model.width, result.e_hat)
        assert float(np.sqrt(np.mean(direct**2))) == result.delta_rms(4)


class TestGaussianSwitch:
    def test_near_cap_q_uses_gaussian_weight(self):
        rng = np.random.default_rng(0)
        s = Spectrum(np.sort(rng.standard_normal(500)))
        fitted = fit_smooth_model(s, 1.0 - 1e-6, 4)
        assert fitted.q == 1.0
        assert np.all(np.isfinite(level_motion(s, fitted)))

    def test_decomposition_keeps_given_q_and_member(self):
        rng = np.random.default_rng(0)
        s = Spectrum(np.sort(rng.standard_normal(500)), member=7)
        result = decompose_member(s, 1.0 - 1e-6, (4,))
        assert result.q == 1.0 - 1e-6
        assert result.models[4].q == 1.0
        assert result.member == s.member
