import math

import numpy as np
import pytest
from scipy import integrate, special

from egoek import qhermite
from egoek.qhermite import (
    cumulative_quadrature,
    cumulative_weighted_integrals,
    fqn_density,
    hermite_table,
    qfactorial,
    qnumber,
    support_halfwidth,
)

from oracles import (
    density_moment,
    fqn_cdf_mp,
    orthogonality_integral,
    theta_weight_mp,
    theta_weight_mp_fourier,
    theta_weight_product,
)

# Both sides of the weight's switch to its transformed form at q = 0.5.
SERIES_QS = [0.0, 0.3, 0.5, 0.7, 0.93, 0.98, 0.995]


def cdf(x, q):
    """The distribution function as the pipeline evaluates it: channel 0 of the cumulative table."""
    return float(cumulative_weighted_integrals(np.array([x]), q, ())[0][0])


def hermite(n, x, q):
    """H_n(x|q), the last row of the q-Hermite table."""
    return hermite_table(n, x, q)[n]


class TestQNumbers:
    def test_limits_and_values(self):
        assert qnumber(3, 1.0) == 3.0
        assert qnumber(3, 0.0) == 1.0
        assert qnumber(3, 0.5) == pytest.approx(1.75, rel=1e-15)
        assert qnumber(0, 0.3) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            qnumber(-1, 0.5)

    def test_factorial(self):
        assert qfactorial(0, 0.77) == 1.0
        assert qfactorial(3, 1.0) == 6.0
        assert qfactorial(3, 0.5) == pytest.approx(2.625, rel=1e-15)


# Closed forms for the first orders, coefficients as polynomials in q.
def closed_form(n, x, q):
    if n == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    if n == 1:
        return x
    if n == 2:
        return x**2 - 1
    if n == 3:
        return x**3 - (2 + q) * x
    if n == 4:
        return x**4 - (3 + 2 * q + q**2) * x**2 + (1 + q + q**2)
    if n == 5:
        return (
            x**5
            - (4 + 3 * q + 2 * q**2 + q**3) * x**3
            + (3 + 4 * q + 4 * q**2 + 3 * q**3 + q**4) * x
        )
    if n == 6:
        return (
            x**6
            - (5 + 4 * q + 3 * q**2 + 2 * q**3 + q**4) * x**4
            + (6 + 9 * q + 10 * q**2 + 9 * q**3 + 7 * q**4 + 3 * q**5 + q**6) * x**2
            - (1 + 2 * q + 3 * q**2 + 3 * q**3 + 3 * q**4 + 2 * q**5 + q**6)
        )
    raise ValueError(n)


class TestRecurrence:
    def test_spot_values(self):
        assert hermite(2, 2.0, 0.31) == 3.0
        assert hermite(3, 1.0, 0.5) == -1.5

    def test_closed_forms_random_points(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = float(rng.uniform(-3, 3))
            q = float(rng.uniform(0, 1))
            for n in range(7):
                want = float(closed_form(n, x, q))
                got = float(hermite(n, x, q))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_chebyshev_reduction_at_q_zero(self):
        # U_n(cos t) = sin((n+1)t) / sin(t)
        for n in range(7):
            for x in np.linspace(-1.95, 1.95, 17):
                t = math.acos(x / 2.0)
                want = math.sin((n + 1) * t) / math.sin(t)
                assert float(hermite(n, x, 0.0)) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_probabilists_hermite_at_q_one(self):
        for n in range(7):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            for x in np.linspace(-2.5, 2.5, 11):
                want = np.polynomial.hermite_e.hermeval(x, coeffs)
                assert float(hermite(n, x, 1.0)) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2, 2, 9)
        vec = hermite(4, xs, 0.3)
        assert np.allclose(vec, [hermite(4, float(x), 0.3) for x in xs])

    @pytest.mark.parametrize("q", [0.0, 0.465, 1.0])
    def test_rows_independent_of_table_height(self, q):
        # Every curve reads one table: its rows must not depend on how many there are.
        xs = np.linspace(-3.0, 3.0, 13).reshape(13, 1)
        tall = hermite_table(40, xs, q)
        assert tall.shape == (41, 13, 1)
        for n_max in (0, 1, 7, 39):
            assert np.array_equal(hermite_table(n_max, xs, q), tall[: n_max + 1])

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            hermite_table(-1, 0.5, 0.3)


class TestDensity:
    def test_semicircle_value_at_zero(self):
        assert fqn_density(0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_gaussian_value_at_zero(self):
        assert fqn_density(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_zero_outside_support(self):
        assert fqn_density(3.0, 0.0) == 0.0
        assert fqn_density(-2.0, 0.0) == 0.0

    def test_semicircle_closed_form(self):
        for x in np.linspace(-1.9, 1.9, 13):
            want = math.sqrt(4 - x**2) / (2 * math.pi)
            assert fqn_density(float(x), 0.0) == pytest.approx(want, rel=1e-12)

    def test_support_halfwidth(self):
        assert support_halfwidth(0.0) == 2.0
        assert support_halfwidth(0.75) == 4.0
        assert support_halfwidth(1.0) == math.inf

    def test_q_domain(self):
        with pytest.raises(ValueError):
            fqn_density(0.0, 1.5)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda q: fqn_density(0.5, q),
            lambda q: cdf(0.5, q),
            lambda q: cumulative_weighted_integrals(np.array([-0.5, 0.5]), q, (3,)),
        ],
        ids=["density", "cdf", "cumulative"],
    )
    def test_near_gaussian_domain_guard(self, evaluate):
        # The bounded-support weight stops at q ~ 1 - 9.2e-5; q = 1 is the closed form.
        with pytest.raises(ValueError, match="too close to 1"):
            evaluate(0.99995)
        evaluate(0.9999)

    def test_base_mesh_covers_the_widest_support(self):
        # The base mesh has at least 8 x0 + 1 points for every q the weight accepts.
        assert qhermite._MESH_POINTS >= int(8.0 * support_halfwidth(qhermite._Q_MAX)) + 1

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_moments_by_independent_quadrature(self, q):
        # Independent oracle: adaptive quadrature of the public density after
        # the edge-removing substitution, vs the module's own node-doubling.
        x0 = support_halfwidth(q)

        def raw_moment(p):
            val, err = integrate.quad(
                lambda t: (x0 * math.sin(t)) ** p
                * fqn_density(x0 * math.sin(t), q)
                * x0
                * math.cos(t),
                -math.pi / 2,
                math.pi / 2,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            return val

        assert raw_moment(0) == pytest.approx(1.0, abs=1e-8)
        assert raw_moment(1) == pytest.approx(0.0, abs=1e-8)
        assert raw_moment(2) == pytest.approx(1.0, abs=1e-8)
        assert raw_moment(3) == pytest.approx(0.0, abs=1e-8)
        assert raw_moment(4) == pytest.approx(q + 2.0, abs=1e-6)
        # module quadrature agrees with the independent one
        assert density_moment(4, q) == pytest.approx(raw_moment(4), abs=1e-9)


def _peak_weight(q):
    """w(0) = (1 + sum_j c_j) / pi, the largest value of the theta weight."""
    return float(qhermite._theta_weight(np.array([0.0]), q)[0])


class TestThetaSeries:
    @pytest.mark.parametrize("q", SERIES_QS)
    def test_matches_mpmath_product(self, q):
        nodes, weights, _coefficients = theta_weight_mp_fourier(q)
        got = qhermite._theta_weight(np.array([float(t) for t in nodes]), q)
        want = np.array([float(w) for w in weights])
        assert np.max(np.abs(got - want)) <= 1e-14 * _peak_weight(q)

    @pytest.mark.parametrize("q", SERIES_QS)
    def test_relative_accuracy_in_the_tails(self, q):
        # Deep tails down to ~1e-250 of the peak, and 1e-3 from the support edge.
        top = 1.57 if q <= 0.5 else min(1.57, math.sqrt(-300.0 * math.log(q)))
        for theta in (0.6 * top, 0.85 * top, top):
            want = float(theta_weight_mp(theta, q))
            got = float(qhermite._theta_weight(np.array([theta]), q)[0])
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", SERIES_QS)
    def test_never_negative(self, q):
        theta = np.concatenate(
            [np.linspace(-math.pi / 2, math.pi / 2, 20001), math.pi / 2 - np.logspace(-12, 0, 200)]
        )
        assert np.all(qhermite._theta_weight(theta, q) >= 0.0)
        x0 = support_halfwidth(q)
        assert np.all(fqn_density(np.linspace(-x0, x0, 20001), q) >= 0.0)

    @pytest.mark.parametrize("q", SERIES_QS)
    def test_cdf_matches_mpmath_integral(self, q):
        x0 = support_halfwidth(q)
        for theta in (-1.2, -0.5, -0.12, -0.03, 0.0, 0.02, 0.08, 0.35, 1.0):
            x = x0 * math.sin(theta)
            assert cdf(x, q) == pytest.approx(fqn_cdf_mp(x, q), abs=1e-13)

    @pytest.mark.parametrize("q", SERIES_QS)
    def test_matches_product_form(self, q):
        theta = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        got = qhermite._theta_weight(theta, q)
        # the truncated product itself is off by up to 2.5e-13 w(0) at q = 0.995
        assert np.max(np.abs(got - theta_weight_product(theta, q))) <= 1e-12 * _peak_weight(q)

    @pytest.mark.parametrize("q", [0.3, 0.93, 0.995])
    def test_cumulative_channels_match_product_form(self, q, monkeypatch):
        points = np.sort(np.random.default_rng(3).standard_normal(300)) * 1.1
        orders = (3, 4, 5, 6)
        got = cumulative_weighted_integrals(points, q, orders)
        monkeypatch.setattr(qhermite, "_theta_weight", theta_weight_product)
        want = cumulative_weighted_integrals(points, q, orders)
        for n in (0, *orders):
            assert np.max(np.abs(got[n] - want[n])) <= 1e-12 * np.max(np.abs(want[n]))


class TestCdf:
    def test_even_density_midpoint(self):
        for q in (0.0, 0.4, 0.9, 1.0):
            assert cdf(0.0, q) == pytest.approx(0.5, abs=1e-9)

    def test_total_mass(self):
        x0 = support_halfwidth(0.5)
        assert cdf(x0, 0.5) == pytest.approx(1.0, abs=1e-8)
        # Points outside the support clamp to the edge values.
        assert cdf(10.0, 0.5) == cdf(x0, 0.5)
        assert cdf(-10.0, 0.5) == 0.0

    def test_semicircle_closed_form(self):
        # integral of sqrt(4-x^2)/(2 pi) from -2 to x
        def semicircle_cdf(x):
            return 0.5 + (x * math.sqrt(4 - x**2) / 2 + 2 * math.asin(x / 2)) / (2 * math.pi)

        for x in (-1.5, -0.3, 1.0, 1.9):
            assert cdf(x, 0.0) == pytest.approx(semicircle_cdf(x), abs=1e-9)
        assert cdf(1.0, 0.0) == pytest.approx(0.80449889, abs=1e-7)

    def test_monotone(self):
        xs = np.linspace(-2.2, 2.2, 23)
        vals = [cdf(float(x), 0.37) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_gaussian_limit(self):
        assert cdf(1.0, 1.0) == pytest.approx(0.5 * (1 + math.erf(1 / math.sqrt(2))), rel=1e-12)


class TestOrthogonality:
    def test_weight_normalization(self):
        for q in (0.0, 0.42, 0.9):
            assert orthogonality_integral(0, 0, q) == pytest.approx(1.0, abs=1e-10)

    def test_parity_orthogonality(self):
        assert orthogonality_integral(2, 3, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_value(self):
        assert orthogonality_integral(3, 3, 0.5) == pytest.approx(2.625, abs=1e-8)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_small_grid(self, q):
        for n in range(5):
            for m in range(n, 5):
                want = qfactorial(n, q) if n == m else 0.0
                assert orthogonality_integral(n, m, q) == pytest.approx(want, abs=1e-8)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            orthogonality_integral(2, 2, 0.9999)


class TestCumulativeQuadrature:
    EDGES = np.array([-1.0, -0.7, 0.2, 0.25, 1.3, 2.0])  # uneven panels
    POWERS = np.arange(6)

    def integrate(self, points):
        return cumulative_quadrature(lambda x: x ** self.POWERS[:, None], self.EDGES, points)

    def exact(self, points):
        k = self.POWERS.reshape((-1,) + (1,) * np.ndim(points)) + 1
        return (np.asarray(points) ** k - self.EDGES[0] ** k) / k

    def test_exact_for_powers_to_five(self):
        # Inside panels, on inner edges, at both ends, repeated and unsorted.
        points = np.array([1.7, -1.0, 0.2, 0.22, 2.0, -0.7, 0.22, 1.3, -0.95, 0.25])
        got = self.integrate(points)
        assert got.shape == (6, 10)
        assert np.max(np.abs(got - self.exact(points))) <= 1e-14
        assert np.all(got[:, 1] == 0.0)  # edges[0] adds a zero-width panel
        assert np.array_equal(got[:, 3], got[:, 6])

    def test_point_shapes(self):
        points = np.array([[0.5, -0.7, 2.0], [1.1, 0.2, -1.0]])
        got = self.integrate(points)
        assert got.shape == (6, 2, 3)
        assert np.array_equal(got, self.integrate(points.ravel()).reshape(6, 2, 3))
        scalar = self.integrate(np.float64(0.3))
        assert scalar.shape == (6,)
        assert np.max(np.abs(scalar - self.exact(0.3))) <= 1e-14


class TestCumulativeIntegrals:
    def test_cdf_channel_matches_pointwise(self):
        pts = np.array([-1.7, -0.4, 0.0, 0.9, 2.4])
        cum = cumulative_weighted_integrals(pts, 0.5, (3, 4))
        for x, v in zip(pts, cum[0]):
            assert v == pytest.approx(fqn_cdf_mp(float(x), 0.5), abs=1e-9)

    def test_correction_channels_vanish_at_edges(self):
        x0 = support_halfwidth(0.3)
        cum = cumulative_weighted_integrals(np.array([-x0, x0]), 0.3, (3, 4, 5, 6))
        for n in (3, 4, 5, 6):
            assert cum[n][0] == pytest.approx(0.0, abs=1e-12)
            assert cum[n][1] == pytest.approx(0.0, abs=1e-9)  # orthogonality to H_0

    def test_correction_channel_against_quad(self):
        q = 0.6
        x0 = support_halfwidth(q)
        pts = np.array([-0.8, 0.5, 1.3])
        cum = cumulative_weighted_integrals(pts, q, (3,))
        for x, v in zip(pts, cum[3]):
            want, _ = integrate.quad(
                lambda t: float(hermite(3, x0 * math.sin(t), q))
                * fqn_density(x0 * math.sin(t), q)
                * x0
                * math.cos(t),
                -math.pi / 2,
                math.asin(x / x0),
                epsabs=1e-12,
                limit=200,
            )
            assert v == pytest.approx(want, abs=1e-9)

    def test_gaussian_limit_closed_form(self):
        pts = np.array([-1.0, 0.0, 2.0])
        cum = cumulative_weighted_integrals(pts, 1.0, (3,))
        phi = np.exp(-0.5 * pts**2) / math.sqrt(2 * math.pi)
        assert np.allclose(cum[0], 0.5 * (1 + np.vectorize(math.erf)(pts / math.sqrt(2))))
        assert np.allclose(cum[3], -phi * (pts**2 - 1.0), atol=1e-12)

    def test_gaussian_cdf_matches_scipy_ndtr(self):
        x = np.linspace(-37.0, 9.0, 46_001)
        want = special.ndtr(x)
        kept = want > 1e-300
        got = qhermite._gaussian_cumulative(x, (2, 3))[0]
        assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= 1e-12

    def test_handles_duplicate_and_unsorted_points(self):
        pts = np.array([0.5, -0.5, 0.5, 0.0])
        cum = cumulative_weighted_integrals(pts, 0.4, ())
        assert cum[0][0] == cum[0][2]
        assert cum[0][1] < cum[0][3] < cum[0][0]
