import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoek import qhermite
from egoek.analytic import (
    MAX_TABLE_ENTRIES,
    ensemble_q,
    mode_width_curve,
    prefactor,
    sn2,
)
from egoek.fock import Statistics, dimension
from egoek.qhermite import fqn_density, hermite_table, qfactorial, support_halfwidth

from oracles import QUOTED_Q, REFERENCE_SYSTEMS, TABLE1, ensemble_q_exact

F = Statistics.FERMION
B = Statistics.BOSON


class TestModeAmplitudes:
    def test_fermion_values(self):
        assert sn2(F, 2, 10, 20, 2) == pytest.approx(4.0 / 190**2, rel=1e-12)
        assert sn2(F, 3, 10, 20, 2) == pytest.approx(6.0 / (45 * 36100), rel=1e-12)

    def test_fermion_mode_ratio_identity(self):
        for n in (1, 2, 3, 5):
            ratio = sn2(F, n + 1, 10, 20, 3) / sn2(F, n, 10, 20, 3)
            assert ratio == pytest.approx((n + 1) / n / math.comb(10, 3), rel=1e-12)

    def test_boson_values(self):
        assert sn2(B, 1, 20, 10, 2) == pytest.approx(2.0 / 45, rel=1e-12)
        assert sn2(B, 2, 20, 10, 2) == pytest.approx(4.0 / 2025, rel=1e-12)

    def test_boson_vanishes_with_many_states(self):
        assert sn2(B, 2, 20, 300, 2) < 1e-8

    def test_boson_geometric_decay(self):
        for n in (1, 2, 4):
            ratio = sn2(B, n + 1, 20, 10, 2) / sn2(B, n, 20, 10, 2)
            assert ratio == pytest.approx((n + 1) / n / math.comb(10, 2), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sn2(F, 0, 10, 20, 2)
        with pytest.raises(ValueError):
            sn2(F, 2, 10, 8, 2)
        with pytest.raises(ValueError):
            sn2(B, 2, 1, 5, 7)

    def test_fermion_subnormal_rounded_once(self):
        # 400 / 40^200 is subnormal, where a quotient of rounded floats loses
        # digits; the exact quotient rounds once.
        assert sn2(F, 200, 40, 40, 1) == float(Fraction(400, 40**200))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), statistics=st.sampled_from([F, B]), n_sites=st.integers(1, 40),
           n=st.integers(1, 200))
    def test_correctly_rounded(self, data, statistics, n_sites, n):
        # Normal and subnormal results alike equal the exact formula rounded once.
        m = data.draw(st.integers(1, n_sites if statistics is F else 40))
        k = data.draw(st.integers(1, m if statistics is F else min(m, n_sites)))
        cnk = math.comb(n_sites, k)
        if statistics is F:
            exact = Fraction(2 * n * math.comb(m, k) ** 2, math.comb(m, k) ** n * cnk**2)
        else:
            exact = Fraction(2 * n, cnk**n)
        assert sn2(statistics, n, m, n_sites, k) == float(exact)

    def test_k2_reduction_is_same_expression(self):
        # At k = 2 the general forms coincide with the pair-interaction case.
        assert sn2(F, 4, 12, 24, 2) == pytest.approx(
            8.0 * math.comb(12, 2) ** (-2) / math.comb(24, 2) ** 2, rel=1e-12
        )


class TestPresets:
    def test_caption_values(self):
        for statistics, (m, n_sites, quoted) in QUOTED_Q.items():
            for k, q in quoted.items():
                assert round(ensemble_q(statistics, m, n_sites, k), 3) == q

    @pytest.mark.parametrize("statistics, k", sorted(TABLE1))
    def test_excess_within_table1_band(self, statistics, k):
        # q - 1 is the closed-form excess; criterion 1 holds the measured one
        # within 0.06 of the table.  Boson ranks k > N lie outside analytic's
        # domain, so only the exact sum is read there.
        m, n_sites = REFERENCE_SYSTEMS[statistics]
        q = ensemble_q_exact(statistics, m, n_sites, k)
        if k <= n_sites:
            assert ensemble_q(statistics, m, n_sites, k) == float(q)
        else:
            with pytest.raises(ValueError, match="min"):
                ensemble_q(statistics, m, n_sites, k)
        assert abs(float(q) - 1 - TABLE1[statistics, k][1]) <= 0.06

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), statistics=st.sampled_from([F, B]), n_sites=st.integers(1, 40))
    def test_equals_exact_sum(self, data, statistics, n_sites):
        m = data.draw(st.integers(1, n_sites if statistics is F else 40))
        k = data.draw(st.integers(1, m if statistics is F else min(m, n_sites)))
        q = ensemble_q(statistics, m, n_sites, k)
        assert q == float(ensemble_q_exact(statistics, m, n_sites, k))
        assert 0.0 < q <= 1.0


class TestMotionVariance:
    def test_even_in_energy(self):
        e = np.random.default_rng(2).uniform(0, 2.0, 10)
        grid = np.concatenate([e, -e])
        for n in range(1, 11):
            for values in (mode_width_curve(F, 10, 20, 3, 0.176, n, grid),
                           mode_width_curve(B, 20, 10, 3, 0.84, n, grid)):
                assert np.allclose(values[:10], values[10:], rtol=1e-12, atol=0.0)

    def test_zero_outside_support(self):
        far = np.array([-10.0, 10.0])
        for n in (1, 2, 50):
            assert not mode_width_curve(F, 10, 20, 2, 0.465, n, far).any()
            assert not mode_width_curve(B, 20, 10, 2, 0.932, n, far).any()

    def test_single_mode_compositional_oracle(self):
        # n = 2 term assembled from independent pieces: the per-mode amplitude
        # 2n C(m,k)^(2-n) equals sn2 * C(N,k)^2.
        q, m, n_sites, k = 0.465, 10, 20, 2
        grid = np.linspace(-1.5, 1.5, 7)
        values = mode_width_curve(F, m, n_sites, k, q, 2, grid)
        prefactor = (
            math.comb(n_sites, m) ** 2
            * math.comb(m, k) ** 2
            / math.comb(n_sites, k) ** 2
        )
        amplitude = sn2(F, 2, m, n_sites, k) * math.comb(n_sites, k) ** 2
        expected = (
            prefactor
            * fqn_density(grid, q) ** 2
            * amplitude
            / qfactorial(2, q) ** 2
            * hermite_table(1, grid, q)[1] ** 2
        )
        assert np.allclose(values, expected, rtol=1e-10)

    def test_one_table_per_curve(self, monkeypatch):
        heights = []
        original = qhermite.hermite_table

        def counted(n_max, x, q):
            heights.append(n_max)
            return original(n_max, x, q)

        monkeypatch.setattr(qhermite, "hermite_table", counted)
        grid = np.linspace(-2.0, 2.0, 21)
        mode_width_curve(F, 10, 20, 3, 0.176, 6, grid)
        assert heights == [5]
        mode_width_curve(B, 20, 10, 2, 0.932, 50, np.array([0.3]))
        assert heights == [5, 49]

    def test_table_size_bound(self):
        grid = np.zeros(MAX_TABLE_ENTRIES // 50 + 1)
        with pytest.raises(ValueError, match="grid points"):
            mode_width_curve(F, 10, 20, 2, 0.465, 50, grid)
        with pytest.raises(ValueError, match="grid points"):
            mode_width_curve(B, 20, 10, 2, 0.932, 50, grid)


class TestModeWidthCurves:
    def grid(self, q):
        half = support_halfwidth(q)
        return np.linspace(-half, half, 1601)

    def test_curve_fields_and_nonnegativity(self):
        q = 0.176
        grid = self.grid(q)
        values = mode_width_curve(F, 10, 20, 3, q, 3, grid)
        assert values.shape == grid.shape
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))

    def test_zero_outside_support(self):
        q = 0.465
        grid = np.linspace(-4.0, 4.0, 801)
        values = mode_width_curve(F, 10, 20, 2, q, 2, grid)
        outside = np.abs(grid) > support_halfwidth(q)
        assert not values[outside].any()

    def test_zero_d_grid(self):
        # fqn_density returns a float for a 0-d grid; the curve still returns a 0-d array.
        inside = mode_width_curve(F, 10, 20, 2, 0.465, 2, 0.3)
        assert inside.shape == () and inside == mode_width_curve(F, 10, 20, 2, 0.465, 2, [0.3])[0]
        assert inside > 0.0
        assert mode_width_curve(F, 10, 20, 2, 0.465, 2, 100.0) == 0.0

    def test_touch_count_matches_mode_index(self):
        # Curve ~ H_{n-1}^2 touches zero exactly n-1 times inside the support.
        q = 0.176
        half = support_halfwidth(q)
        inner = np.linspace(-half * 0.999, half * 0.999, 20001)
        for n in (2, 3, 4, 6):
            h = hermite_table(n - 1, inner, q)[n - 1]
            h = h[h != 0.0]  # grid points landing exactly on a root
            sign_changes = int(np.sum(np.diff(np.sign(h)) != 0))
            assert sign_changes == n - 1

    def test_support_ratio_between_presets(self):
        quoted = QUOTED_Q[F][2]
        q2, q5 = quoted[2], quoted[5]
        grid = np.linspace(-3.0, 3.0, 6001)
        c2 = mode_width_curve(F, 10, 20, 2, q2, 2, grid)
        c5 = mode_width_curve(F, 10, 20, 5, q5, 2, grid)
        width2 = grid[c2 > 0][-1] - grid[c2 > 0][0]
        width5 = grid[c5 > 0][-1] - grid[c5 > 0][0]
        want = math.sqrt((1 - q2) / (1 - q5))
        assert width5 / width2 == pytest.approx(1.0 / math.sqrt((1 - q5) / (1 - q2)), abs=5e-3)
        assert width5 / width2 == pytest.approx(want, abs=5e-3)

    def test_peak_decreasing_in_mode_index_boson(self):
        m, n_sites = 20, 10
        for k, q in QUOTED_Q[B][2].items():
            peaks = [
                np.max(mode_width_curve(B, m, n_sites, k, q, n, self.grid(q)))
                for n in (2, 3, 4, 6)
            ]
            assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_peak_decreasing_in_rank_fermion(self):
        m, n_sites = 10, 20
        for n in (2, 3, 4, 6):
            peaks = [
                np.max(mode_width_curve(F, m, n_sites, k, q, n, self.grid(q)))
                for k, q in sorted(QUOTED_Q[F][2].items())
            ]
            assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mode_width_curve(F, 10, 20, 2, 0.465, 2, np.array([]))

    @pytest.mark.parametrize("n", [600, 1000, 2000, 5000, 12484])
    def test_mode_past_float_range_rejected(self, n):
        # Past some mode, ([n]_q!)^2 or the table row H_(n-1) leaves float64:
        # one ValueError, no warning, instead of OverflowError or NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"mode {n} .* does not fit a float64"):
                mode_width_curve(F, 10, 20, 2, 0.465, n, np.linspace(-1.0, 1.0, 801))

    def test_untruncated_sum_past_float_range_rejected(self):
        # Outside the support (x0 ~ 2.73) the density is 0 and so is the value;
        # H_(n-1)(10)^2 leaves float64 near n = 150, but no mode term is
        # evaluated where the density vanishes, so nothing overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = mode_width_curve(F, 10, 20, 2, 0.465, 200, np.array([0.0, 10.0]))
        assert values[1] == 0.0
        assert np.array_equal(
            values[:1], mode_width_curve(F, 10, 20, 2, 0.465, 200, np.array([0.0]))
        )

    def test_overflow_refused_only_where_read(self):
        # Modes below the overflow keep their finite values.
        grid = np.linspace(-1.0, 1.0, 801)
        values = mode_width_curve(F, 10, 20, 2, 0.465, 500, grid)
        assert np.all(np.isfinite(values))


class TestPrefactor:
    @pytest.mark.parametrize(
        "stat, m, n_sites, k", [(F, 10, 20, 2), (F, 6, 12, 5), (B, 20, 10, 3), (B, 10, 5, 4),
                                (B, 5, 10, 5)],
    )
    def test_equals_float_formula_bitwise(self, stat, m, n_sites, k):
        expected = (
            float(dimension(n_sites, m, stat)) ** 2
            * float(math.comb(m, k)) ** 2
            / float(math.comb(n_sites, k)) ** 2
        )
        assert prefactor(stat, m, n_sites, k) == expected

    @pytest.mark.parametrize(
        "stat, m, n_sites, k",
        [(F, 600, 1200, 2), (B, 600, 1200, 2), (F, 10**7, 2 * 10**7, 5 * 10**6),
         (B, 10**7, 10**7, 10**6)],
    )
    def test_overflow_rejected_without_full_binomials(self, stat, m, n_sites, k):
        # C(2e7, 1e7) in full has six million digits; the limited binomials
        # stop near 2^1024.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not fit a float64"):
            prefactor(stat, m, n_sites, k)
        with pytest.raises(ValueError, match="does not fit a float64"):
            mode_width_curve(stat, m, n_sites, k, 0.5, 2, np.zeros(1))
        assert time.perf_counter() - start < 1.0

    def test_boson_amplitude_past_float_range_underflows(self):
        # C(1200, 30)^6 is about 1e354: the amplitude is below every float64.
        assert sn2(B, 6, 30, 1200, 30) == 0.0
        assert sn2(B, 2, 30, 1200, 30) == pytest.approx(4.0 / math.comb(1200, 30) ** 2)
        curve = mode_width_curve(B, 30, 1200, 30, 0.5, 6, np.linspace(-1.0, 1.0, 5))
        assert np.array_equal(curve, np.zeros(5))

    def test_fermion_amplitude_past_float_range(self):
        # C(1200, 600)^2 is about 1e719, past float64: the float expression
        # cannot divide by it, and the exact quotient is rounded once.
        start = time.perf_counter()
        assert sn2(F, 1, 1199, 1200, 600) == 0.0
        assert sn2(F, 10**9, 1199, 1200, 600) == 0.0
        # C(520, 260)^2 is about 1.8e310: S_1^2 = 2 / C(520, 260) is a normal
        # float64 and S_2^2 = 4 / C(520, 260)^2 a subnormal one.
        c = math.comb(520, 260)
        assert sn2(F, 1, 520, 520, 260) == float(Fraction(2, c)) > 0.0
        assert sn2(F, 2, 520, 520, 260) == float(Fraction(4, c**2)) > 0.0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("stat", [F, B])
    def test_value_past_float_range_rejected(self, stat):
        # S_n^2 <= 2n, so only a mode index past float64 max / 2 could overflow.
        assert sn2(stat, 2**1022, 5, 5, 5) == 2.0**1023
        with pytest.raises(ValueError, match="mode index"):
            sn2(stat, 10**400, 5, 5, 5)
