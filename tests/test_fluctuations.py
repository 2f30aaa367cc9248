import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egoek.fluctuations
from egoek.decomposition import (
    SmoothModel,
    fit_smooth_model,
    smooth_distribution_values,
)
from egoek.ensemble import EnsembleSpec
from egoek.fluctuations import (
    Delta3Curve,
    UnfoldingError,
    _delta3_member,
    delta3,
    goe_delta3_exact,
    nnsd,
    poisson_delta3,
    poisson_pdf,
    unfold,
    unfolding_order,
    wigner_pdf,
)
from egoek.fock import Statistics
from egoek.pipeline import decompose_archive, generate_archive, unfolded_ensemble
from egoek.qhermite import support_halfwidth
from egoek.spectra import Spectrum, moments

from oracles import (
    delta3_long_double,
    goe_delta3,
    goe_delta3_quad,
    level_motion,
    sine_integral_over_pi,
)

F = Statistics.FERMION
B = Statistics.BOSON


class TestUnfoldingPolicy:
    def test_fermion_orders(self):
        assert unfolding_order(F, 2) == 4
        assert unfolding_order(F, 4) == 4  # boundary rank grouped with corrections
        assert unfolding_order(F, 5) == 2
        assert unfolding_order(F, 6) == 2

    def test_boson_orders(self):
        assert unfolding_order(B, 2) == 6
        assert unfolding_order(B, 7) == 6
        assert unfolding_order(B, 8) == 2
        assert unfolding_order(B, 10) == 2


def model_and_levels(q, d):
    """Plain smooth model and levels sampled exactly at its quantiles."""
    model = SmoothModel(q, 2, np.empty(0), d, centroid=0.0, width=1.0)
    x0 = support_halfwidth(q)
    grid = np.linspace(-x0, x0, 8001)
    forward = smooth_distribution_values(model, grid)
    levels = np.interp(np.arange(d) + 0.5, forward, grid)
    return model, Spectrum(levels)


class TestUnfold:
    def test_zero_fluctuation_spacings_are_unit(self):
        model, spectrum = model_and_levels(0.3, 924)
        unfolded = unfold(spectrum, level_motion(spectrum, model), trim=0.10)
        assert len(unfolded) == 832  # floor(0.05 * 924) = 46 cut per end
        assert np.allclose(np.diff(unfolded), 1.0, atol=1e-3)
        assert np.mean(np.diff(unfolded)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_mean_spacing_generic(self):
        rng = np.random.default_rng(0)
        model, spectrum = model_and_levels(0.5, 400)
        jitter = spectrum.eigenvalues + 1e-4 * rng.standard_normal(400)
        jittered = Spectrum(np.sort(jitter))
        unfolded = unfold(jittered, level_motion(jittered, model))
        assert np.mean(np.diff(unfolded)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(unfolded) > 0)

    def test_end_points_are_exact(self):
        # delta3 counts floor((span - L) / step) + 1 windows, so a span one ulp
        # short of len - 1 would drop the last window at every even L.
        model, spectrum = model_and_levels(0.5, 1001)
        rng = np.random.default_rng(5)
        for _ in range(40):
            jitter = Spectrum(np.sort(spectrum.eigenvalues + 1e-3 * rng.standard_normal(1001)))
            levels = unfold(jitter, level_motion(jitter, model))
            assert levels[0] == 0.0 and levels[-1] == len(levels) - 1

    def test_non_monotone_model_raises(self):
        model, spectrum = model_and_levels(0.5, 120)
        # Enormous third-order correction drives the mapped density negative.
        bad = SmoothModel(0.5, 3, np.array([80.0]), 120, centroid=0.0, width=1.0)
        with pytest.raises(UnfoldingError):
            unfold(spectrum, level_motion(spectrum, bad), trim=0.10)

    def test_nan_level_motion_raises(self):
        # A NaN step compares False with 0 either way; it must not unfold silently.
        model, spectrum = model_and_levels(0.5, 100)
        delta = level_motion(spectrum, model)
        delta[50] = np.nan
        with pytest.raises(UnfoldingError, match="levels 49 and 50"):
            unfold(spectrum, delta, trim=0.10)

    def test_trim_validation(self):
        model, spectrum = model_and_levels(0.5, 50)
        with pytest.raises(ValueError):
            unfold(spectrum, level_motion(spectrum, model), trim=1.2)


class TestUnfoldedEnsemble:
    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(F, m=4, n_sites=9, k=2, members=3, master_seed=5),
            EnsembleSpec(B, m=5, n_sites=4, k=2, members=3, master_seed=6),
        ],
        ids=["fermion", "boson"],
    )
    def test_reuses_decomposition_bitwise(self, spec):
        # The policy order (4 for these fermions, 6 for these bosons) is added
        # to the decomposed orders, as fluct does.
        archive = generate_archive(spec)
        policy = unfolding_order(spec.statistics, spec.k)
        decompositions = decompose_archive(archive, (2, 3, policy))
        unfolded = unfolded_ensemble(archive, decompositions)
        assert len(unfolded) == spec.members
        for spectrum, got in zip(archive.records, unfolded):
            model = fit_smooth_model(spectrum, moments(spectrum).q_est, policy)
            want = unfold(spectrum, level_motion(spectrum, model))
            assert np.array_equal(got, want)


def wigner_sample(n, rng):
    return np.sqrt(-4.0 * np.log(1.0 - rng.uniform(size=n)) / math.pi)


def unfolded_from_spacings(spacings):
    spacings = spacings / spacings.mean()
    return np.concatenate(([0.0], np.cumsum(spacings)))


class TestNnsd:
    def test_wigner_sample_variance(self):
        rng = np.random.default_rng(11)
        ensemble = [unfolded_from_spacings(wigner_sample(1000, rng)) for _ in range(50)]
        hist = nnsd(ensemble)
        assert hist.sigma2 == pytest.approx(4.0 / math.pi - 1.0, abs=0.01)
        width = hist.bin_edges[1] - hist.bin_edges[0]
        assert np.sum(hist.density) * width == pytest.approx(1.0, abs=2e-3)

    def test_poisson_sample_variance(self):
        rng = np.random.default_rng(12)
        ensemble = [unfolded_from_spacings(rng.exponential(1.0, 1000)) for _ in range(50)]
        hist = nnsd(ensemble)
        assert hist.sigma2 == pytest.approx(1.0, abs=0.05)

    def test_wigner_data_closer_to_wigner(self):
        rng = np.random.default_rng(13)
        ensemble = [unfolded_from_spacings(wigner_sample(2000, rng)) for _ in range(20)]
        hist = nnsd(ensemble)
        width = hist.bin_edges[1] - hist.bin_edges[0]
        l1_wigner = np.sum(np.abs(hist.density - hist.wigner)) * width
        l1_poisson = np.sum(np.abs(hist.density - hist.poisson)) * width
        assert l1_wigner < l1_poisson

    def test_reference_curves(self):
        s = np.array([0.5, 1.0, 2.0])
        assert wigner_pdf(s)[1] == pytest.approx(0.5 * math.pi * math.exp(-math.pi / 4))
        assert poisson_pdf(s)[2] == pytest.approx(math.exp(-2.0))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            nnsd([])


def delta3_brute(levels, length, step=2.0):
    """Direct least-squares staircase deviation via exact piecewise integrals."""
    e = np.asarray(levels)
    span = e[-1] - e[0]
    n_windows = int(math.floor((span - length) / step)) + 1
    values = []
    for w in range(n_windows):
        x = e[0] + step * w
        t = e[(e >= x) & (e < x + length)] - x
        i0 = np.sum(length - t)
        i1 = np.sum((length**2 - t**2) / 2.0)
        j = np.arange(1, len(t) + 1)
        n2 = np.sum((2 * j - 1) * (length - t))
        gram = np.array([[length, length**2 / 2], [length**2 / 2, length**3 / 3]])
        rhs = np.array([i0, i1])
        coef = np.linalg.solve(gram, rhs)
        values.append((n2 - rhs @ coef) / length)
    return float(np.mean(values))


class TestDelta3:
    def test_closed_form_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            levels = np.cumsum(rng.exponential(1.0, 400))
            levels -= levels[0]
            for L in (4.0, 11.0, 30.0):
                fast = _delta3_member(levels, np.array([L]), 2.0)[0]
                brute = delta3_brute(levels, L)
                assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_rigid_lattice_approaches_one_twelfth(self):
        levels = np.arange(1200, dtype=float) + 0.5
        assert _delta3_member(levels, np.array([50.0]), 2.0)[0] == pytest.approx(1.0 / 12.0, abs=5e-3)

    @staticmethod
    def unfolded_levels(seed=24, n=900):
        """Wigner-surmise spacings, pinned to 0 and n - 1 as unfold pins them."""
        spacings = np.sqrt(-4.0 / math.pi * np.log(np.random.default_rng(seed).random(n - 1)))
        levels = np.concatenate(([0.0], np.cumsum(spacings)))
        return (n - 1) * (levels / levels[-1])

    def test_matches_long_double_windows(self):
        levels = self.unfolded_levels()
        curve = delta3([levels], l_max=60)
        picked = [0, 4, 14, 29]  # L = 2, 10, 30, 60
        reference = delta3_long_double(levels, curve.lengths[picked])
        assert np.allclose(curve.values[picked], reference, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.integers(4, 192), min_size=2, max_size=150),
        offset=st.integers(0, 2**20),
        window_step=st.integers(4, 32),
        table_entries=st.sampled_from([egoek.fluctuations._WINDOW_TABLE_ENTRIES, 1, 5, 64]),
        data=st.data(),
    )
    def test_matches_long_double_on_drawn_spectra(self, steps, offset, window_step,
                                                  table_entries, data):
        """Levels on a 1/64 grid, window steps and lengths on a 1/8 grid.

        Every window edge is then exact in float64 and long double alike, so
        both sides count the same levels in each window.  Small table sizes
        make the block loop of ``_delta3_member`` run more than once.
        """
        levels = (offset + np.concatenate(([0], np.cumsum(steps)))) / 64.0
        top = int(8 * (levels[-1] - levels[0]))
        eighths = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=6, unique=True))
        lengths = np.sort(np.array(eighths, dtype=float)) / 8.0
        with mock.patch.object(egoek.fluctuations, "_WINDOW_TABLE_ENTRIES", table_entries):
            fast = _delta3_member(levels, lengths, window_step / 8.0)
        reference = delta3_long_double(levels, lengths, window_step / 8.0)
        assert np.allclose(fast, reference, rtol=1e-9, atol=1e-12)

    def test_invariant_under_level_shift(self):
        levels = self.unfolded_levels()
        plain = delta3([levels], l_max=60)
        shifted = delta3([levels + 1e4], l_max=60)
        assert np.allclose(shifted.values, plain.values, rtol=1e-12, atol=0.0)

    def test_poisson_ensemble_mean(self):
        rng = np.random.default_rng(22)
        ensemble = []
        for _ in range(40):
            levels = np.cumsum(rng.exponential(1.0, 900))
            ensemble.append(levels - levels[0])
        curve = delta3(ensemble, l_max=30)
        at_30 = curve.values[-1]
        assert at_30 == pytest.approx(2.0, abs=0.3)

    def test_reference_curves(self):
        curve_l = np.array([60.0])
        assert goe_delta3(curve_l)[0] == pytest.approx(0.4079, abs=1e-4)
        assert poisson_delta3(curve_l)[0] == pytest.approx(4.0)

    def test_window_length_guard(self):
        levels = np.arange(40, dtype=float)
        ensemble = [levels]
        with pytest.raises(ValueError):
            delta3(ensemble, l_max=60)
        # Rejected before the length grid is allocated (4 PB at this l_max).
        with pytest.raises(ValueError, match="exceeds retained span"):
            delta3(ensemble, l_max=10**15)

    def test_curve_shape(self):
        rng = np.random.default_rng(23)
        levels = np.cumsum(rng.exponential(1.0, 500))
        curve = delta3([levels - levels[0]], l_max=20)
        assert isinstance(curve, Delta3Curve)
        assert np.array_equal(curve.lengths, np.arange(2, 21, 2))
        assert np.all(curve.values >= 0)


class TestGoeDelta3Exact:
    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0, 2.5, 4.0, 10.0, 30.0, 60.0])
    def test_matches_quadrature_oracle(self, length):
        assert goe_delta3_exact([length])[0] == pytest.approx(goe_delta3_quad(length), abs=1e-6)

    def test_sine_integral_matches_scipy(self):
        r = np.linspace(0.0, 61.0, 200_001)[1:]
        got = egoek.fluctuations._si_over_pi(r)
        assert np.max(np.abs(got - sine_integral_over_pi(r))) <= 2e-15

    def test_matches_same_formula_with_scipy_sine_integral(self, monkeypatch):
        lengths = np.arange(2, 61, 2.0)
        got = goe_delta3_exact(lengths)
        monkeypatch.setattr(egoek.fluctuations, "_si_over_pi", sine_integral_over_pi)
        want = goe_delta3_exact(lengths)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_between_zero_and_poisson(self):
        lengths = np.concatenate((np.geomspace(1e-3, 1.0, 60), np.linspace(1.0, 60.0, 400)))
        values = goe_delta3_exact(lengths)
        assert np.all(values > 0.0)
        assert np.all(values < lengths / 15.0)

    def test_reaches_asymptote(self):
        gap = goe_delta3_exact([60.0])[0] - goe_delta3([60.0])[0]
        assert abs(gap) < 2e-3

    def test_keeps_the_shape_of_lengths(self):
        assert goe_delta3_exact(np.array([])).shape == (0,)
        value = goe_delta3_exact(2.0)
        assert value.shape == () and value == goe_delta3_exact([2.0])[0]

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            goe_delta3_exact([2.0, 0.0])

    def test_delta3_curve_uses_exact_reference(self):
        rng = np.random.default_rng(24)
        levels = np.cumsum(rng.exponential(1.0, 500))
        curve = delta3([levels - levels[0]], l_max=20)
        assert np.array_equal(curve.goe, goe_delta3_exact(curve.lengths))
