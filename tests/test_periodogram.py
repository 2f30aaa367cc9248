import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egoek import fluctuations as fl, periodogram as pg, pipeline
from egoek.ensemble import EnsembleSpec
from egoek.fock import Statistics
from egoek.periodogram import (
    MAX_OVERSAMPLE,
    DegenerateSeriesError,
    grid_size,
    lomb_scargle,
    significance,
)

from oracles import lomb_scargle_direct


def sample_abscissa(n, rng, span=3.4):
    return np.sort(rng.uniform(-span / 2, span / 2, n))


def red_series(n, seed):
    """Uneven abscissa and a random-walk series, long-wavelength like level motion."""
    rng = np.random.default_rng(seed)
    return sample_abscissa(n, rng), np.cumsum(rng.standard_normal(n))


class TestDirectFormParity:
    @pytest.mark.parametrize("oversample", [1, 4, MAX_OVERSAMPLE])
    @pytest.mark.parametrize("n", [16, 832, 4096])
    def test_matches_direct_form(self, n, oversample):
        got = lomb_scargle(*red_series(n, n), oversample=oversample)
        ref = lomb_scargle_direct(*red_series(n, n), oversample=oversample)
        assert len(got.frequency) == int(0.5 * oversample * n)
        assert np.array_equal(got.frequency, ref.frequency)
        peak = int(np.argmax(ref.power))
        assert np.max(np.abs(got.power - ref.power)) <= 1e-9 * ref.power[peak]
        assert int(np.argmax(got.power)) == peak
        assert got.peak_frequency == ref.frequency[peak]
        ref_significance = significance(float(ref.power[peak]), n)
        got_significance = significance(got.peak_power, got.n_samples)
        assert f"{got_significance:6.2f}" == f"{ref_significance:6.2f}"
        assert got_significance == pytest.approx(ref_significance, rel=1e-9)

    def test_even_sampling_nyquist_is_finite(self):
        # At the Nyquist frequency of an even sampling every sample sits on a
        # node of the sine, so its norm vanishes; the sine term then adds 0.
        rng = np.random.default_rng(8)
        for n, oversample in ((16, 4), (64, 4), (65, 1)):
            r = lomb_scargle(np.linspace(-1.0, 1.0, n), rng.standard_normal(n), oversample)
            assert np.all(np.isfinite(r.power)) and np.all(r.power >= 0.0)


def assert_rows_match_single_calls(t, rows, oversample, rtol=1e-12):
    """Each row of a stacked call against the one-series call on that row."""
    stacked = lomb_scargle(t, rows, oversample=oversample)
    assert stacked.power.shape == (len(rows), grid_size(len(t), oversample))
    assert stacked.n_samples == len(t)
    for i, row in enumerate(rows):
        single = lomb_scargle(t, row, oversample=oversample)
        assert np.array_equal(stacked.frequency, single.frequency)
        assert np.max(np.abs(stacked.power[i] - single.power)) <= rtol * single.peak_power
        peak = int(np.argmax(single.power))
        assert int(np.argmax(stacked.power[i])) == peak
        assert stacked.peak_frequency[i] == single.peak_frequency == single.frequency[peak]
        assert stacked.peak_power[i] == stacked.power[i, peak]


class TestStackedSeries:
    """Several series on one abscissa in one call: each row as its own call."""

    @pytest.mark.parametrize("oversample", [1, 4, MAX_OVERSAMPLE])
    @pytest.mark.parametrize("n", [16, 832])
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_rows_match_single_calls(self, s, n, oversample):
        rng = np.random.default_rng(1000 * s + n + oversample)
        t = sample_abscissa(n, rng)
        rows = np.cumsum(rng.standard_normal((s, n)), axis=1) * rng.uniform(0.1, 10.0, (s, 1))
        assert_rows_match_single_calls(t, rows, oversample)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(16, 300),
        s=st.integers(1, 6),
        oversample=st.integers(1, 8),
        span=st.floats(0.01, 100.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_rows_match_single_calls_on_random_abscissae(self, seed, n, s, oversample, span, shift):
        rng = np.random.default_rng(seed)
        t = sample_abscissa(n, rng, span) + shift
        assume(np.ptp(t) > 0.0)
        rows = np.cumsum(rng.standard_normal((s, n)), axis=1) + rng.normal(0.0, 100.0, (s, 1))
        assert_rows_match_single_calls(t, rows, oversample)

    @pytest.mark.parametrize(
        "values",
        [np.ones((2, 63)), np.ones((2, 65)), np.ones((2, 3, 64)), np.ones(63)],
        ids=["short_rows", "long_rows", "three_d", "short_series"],
    )
    def test_shape_mismatch_rejected(self, values):
        t = sample_abscissa(64, np.random.default_rng(9))
        with pytest.raises(ValueError, match="values"):
            lomb_scargle(t, values)

    def test_one_constant_row_is_degenerate(self):
        rng = np.random.default_rng(10)
        t = sample_abscissa(64, rng)
        rows = np.vstack([rng.standard_normal(64), np.full(64, 3.0), rng.standard_normal(64)])
        with pytest.raises(DegenerateSeriesError):
            lomb_scargle(t, rows)


def test_periodograms_by_order_is_one_call_per_member(monkeypatch):
    spec = EnsembleSpec(Statistics.FERMION, m=4, n_sites=8, k=2, members=3, master_seed=11)
    orders = (2, 3, 4, 5, 6)
    decompositions = pipeline.decompose_archive(pipeline.generate_archive(spec), orders)
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return lomb_scargle(*args, **kwargs)

    monkeypatch.setattr(pg, "lomb_scargle", counted)
    stacked = (5, 2, 3, 6, 4)
    results = pipeline.periodograms_by_order(decompositions, stacked, oversample=4)
    assert calls == [(5, 64)] * spec.members  # d = 70, 3 levels trimmed per end
    assert len(results) == spec.members
    for decomposition, got in zip(decompositions, results, strict=True):
        assert got.power.shape == (len(stacked), len(got.frequency))
        assert got.peak_frequency.shape == got.peak_power.shape == (len(stacked),)
        window = fl.central_window(len(decomposition.e_hat), fl.DEFAULT_TRIM)
        for i, order in enumerate(stacked):  # row i belongs to stacked[i]
            single = lomb_scargle(decomposition.e_hat[window], decomposition.delta[order][window],
                                  oversample=4)
            assert np.array_equal(got.frequency, single.frequency)
            assert got.n_samples == single.n_samples
            assert np.max(np.abs(got.power[i] - single.power)) <= 1e-12 * single.peak_power
            assert int(np.argmax(got.power[i])) == int(np.argmax(single.power))
            assert got.peak_frequency[i] == single.peak_frequency
            assert got.peak_power[i] == np.max(got.power[i])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(16, 400),
        scale=st.floats(0.01, 100.0),
        sign=st.sampled_from([-1.0, 1.0]),
        offset=st.floats(-100.0, 100.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_affine_invariance(self, seed, n, scale, sign, offset, shift):
        t, y = red_series(n, seed)
        base = lomb_scargle(t, y)
        moved = lomb_scargle(t + shift, sign * scale * y + offset)
        np.testing.assert_allclose(moved.frequency, base.frequency, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(moved.power - base.power)) <= 1e-9 * base.peak_power

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.integers(16, 80).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=st.floats(-10.0, 10.0)),
                arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
            )
        ),
        oversample=st.integers(1, 8),
    )
    def test_power_nonnegative_and_finite(self, data, oversample):
        t, y = data
        assume(np.ptp(t) > 1e-3 and np.std(y) > 1e-3)
        r = lomb_scargle(t, y, oversample=oversample)
        assert np.all(np.isfinite(r.power)) and np.all(r.power >= 0.0)


class TestLombScargle:
    def test_pure_sinusoid_recovers_frequency(self):
        rng = np.random.default_rng(50)
        t = sample_abscissa(800, rng)
        f0 = 2.0
        r = lomb_scargle(t, np.sin(2 * np.pi * f0 * t))
        grid_step = r.frequency[1] - r.frequency[0]
        assert abs(r.peak_frequency - f0) <= grid_step
        assert significance(r.peak_power, r.n_samples) > 99.0
        # nearly all variance is captured by the matching sinusoid
        assert 2 * r.peak_power / (r.n_samples - 1) > 0.95

    def test_white_noise_median_significance(self):
        rng = np.random.default_rng(60)
        sigs = []
        for _ in range(200):
            t = sample_abscissa(128, rng)
            r = lomb_scargle(t, rng.standard_normal(128))
            sigs.append(significance(r.peak_power, r.n_samples))
        assert np.median(sigs) < 50.0

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(3)
        t = sample_abscissa(200, rng)
        y = np.sin(2 * np.pi * 1.3 * t) + 0.2 * rng.standard_normal(200)
        a = lomb_scargle(t, y)
        b = lomb_scargle(t, y + 57.0)
        assert np.allclose(a.power, b.power, atol=1e-8)
        assert a.peak_frequency == b.peak_frequency

    def test_grid_definition(self):
        rng = np.random.default_rng(4)
        t = sample_abscissa(64, rng)
        r = lomb_scargle(t, rng.standard_normal(64), oversample=4)
        span = t.max() - t.min()
        assert r.frequency[0] == pytest.approx(1.0 / (4 * span), rel=1e-12)
        assert len(r.frequency) == 4 * 64 // 2
        assert r.frequency[-1] == pytest.approx(64 / (2 * span), rel=1e-3)

    def test_power_nonnegative(self):
        rng = np.random.default_rng(5)
        t = sample_abscissa(100, rng)
        r = lomb_scargle(t, rng.standard_normal(100))
        assert np.all(r.power >= 0.0)
        assert 0.0 <= significance(r.peak_power, r.n_samples) <= 100.0

    def test_degenerate_series(self):
        rng = np.random.default_rng(6)
        t = sample_abscissa(64, rng)
        with pytest.raises(DegenerateSeriesError):
            lomb_scargle(t, np.zeros(64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["values", "stacked", "abscissa"])
    def test_non_finite_input_rejected(self, where, bad):
        rng = np.random.default_rng(8)
        t = sample_abscissa(64, rng)
        y = rng.standard_normal((2, 64))
        if where == "abscissa":
            t[20] = bad
        else:
            y[0, 20] = bad
        with pytest.raises(ValueError, match="must be finite"):
            lomb_scargle(t, y[0] if where == "values" else y)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            lomb_scargle(np.linspace(0, 1, 8), np.ones(8))

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="unknown convention"):
            significance(1.0, 64, "bogus")


class TestGridValidation:
    @pytest.mark.parametrize("oversample", [0, -1, MAX_OVERSAMPLE + 1, math.nan, math.inf, 4.0])
    def test_bad_oversample(self, oversample):
        t = sample_abscissa(64, np.random.default_rng(8))
        with pytest.raises(ValueError, match="oversample must be an integer"):
            lomb_scargle(t, np.cos(3.0 * t), oversample=oversample)

    def test_grid_without_frequency(self):
        # 0.5 * 1 * 1 = 0.5 rounds down to no frequency at all.
        with pytest.raises(ValueError, match="leaves no frequency"):
            grid_size(1, 1)
        assert grid_size(2, 1) == 1

    @pytest.mark.parametrize("oversample", [1, np.int64(4), MAX_OVERSAMPLE])
    def test_valid_grid_sizes(self, oversample):
        assert grid_size(832, oversample) == int(0.5 * oversample * 832)


class TestSignificance:
    def test_monotone_in_peak_power(self):
        powers = np.linspace(0.5, 40, 80)
        for convention in ("fap", "power_fraction"):
            values = [significance(p, 832, convention) for p in powers]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fap_limits(self):
        assert significance(0.0, 832, "fap") == 0.0
        assert significance(1e-60, 16, "fap") == 0.0
        assert significance(0.5, 1, "fap") == pytest.approx(100.0 * (1.0 - np.exp(-0.5)))
        assert significance(0.8, 1, "fap") == pytest.approx(100.0 * (1.0 - np.exp(-0.8)))
        assert significance(0.01, 832, "fap") < 1.0
        assert significance(60.0, 832, "fap") > 99.999
        assert significance(1000.0, 832, "fap") == pytest.approx(100.0, abs=1e-9)

    def test_power_fraction_limits(self):
        assert significance(0.0, 100, "power_fraction") == 0.0
        assert significance(49.5, 100, "power_fraction") == pytest.approx(100.0)
        assert significance(1e6, 100, "power_fraction") == 100.0
