import numpy as np
import pytest

from egoek.spectra import (
    DegenerateSpectrumError,
    Spectrum,
    eigenvalues,
    moments,
)


class TestEigenvalues:
    def test_diagonal_matrix(self):
        assert np.allclose(eigenvalues(np.diag([3.0, 1.0, 2.0])).eigenvalues, [1, 2, 3])

    def test_two_by_two_offdiagonal(self):
        assert np.allclose(eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues, [-1, 1])

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((50, 50))
        mat = mat + mat.T
        spectrum = eigenvalues(mat)
        assert np.sum(spectrum.eigenvalues) == pytest.approx(np.trace(mat), rel=1e-10)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMoments:
    def test_symmetric_spectrum_has_zero_skewness(self):
        s = Spectrum(np.array([-1.0, -1.0, 1.0, 1.0]))
        stats = moments(s)
        assert stats.skewness == 0.0
        assert stats.centroid == 0.0
        assert stats.variance == 1.0

    def test_semicircle_like_excess_maps_to_q_zero(self):
        # gamma2 of {-1,-1,1,1} is -2; q clips at 0.
        stats = moments(Spectrum(np.array([-1.0, -1.0, 1.0, 1.0])))
        assert stats.excess == -2.0
        assert stats.q_est == 0.0

    def test_q_cap_just_below_one(self):
        # Heavy-tailed sample with positive excess clips at the cap.
        stats = moments(Spectrum(np.array([-10.0] + [0.0] * 20 + [10.0])))
        assert stats.excess > 0
        assert stats.q_est == pytest.approx(1.0 - 1e-6, abs=1e-12)

    def test_gaussian_sample_moments(self):
        rng = np.random.default_rng(7)
        e = np.sort(rng.standard_normal(200_000))
        stats = moments(Spectrum(e))
        assert stats.skewness == pytest.approx(0.0, abs=0.02)
        assert stats.excess == pytest.approx(0.0, abs=0.05)

    def test_requires_four_levels(self):
        with pytest.raises(ValueError):
            moments(Spectrum(np.array([0.0, 1.0, 2.0])))

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            moments(Spectrum(np.full(6, 2.5)))


    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e160])
    def test_powers_past_float64_raise(self, scale):
        # Variance, third or fourth power mean past float64 range (or a squared
        # variance below its normal range): refused, with no RuntimeWarning.
        e = np.sort(np.random.default_rng(3).standard_normal(200)) * scale
        with pytest.raises(ValueError, match="float64"):
            moments(Spectrum(e, member=4))
