"""q-deformed Hermite polynomials and their weight function.

The weight interpolates between the Gaussian (q = 1) and the semicircle
(q = 0).  All integrals are evaluated after the substitution x = x0 sin(theta),
which removes the inverse-square-root behaviour at the support edges and turns
every integrand into a smooth function on [-pi/2, pi/2].  In theta the weight
is a Jacobi theta series with Gaussian-decaying coefficients (the triple
product of its infinite-product form).  ``hermite_table`` is the one evaluator
of the polynomials, and ``cumulative_weighted_integrals`` the one route to the
distribution function (its order-0 channel) and its weighted analogues.  Both
it and the GOE rigidity in ``fluctuations`` integrate with one cumulative
Gauss-Legendre rule, ``cumulative_quadrature``.
"""

from __future__ import annotations

import math

import numpy as np

# Truncation floor of the weight's theta series.
PRODUCT_FLOOR = 1e-16
# Largest q of the bounded-support weight, about 1 - 9.2e-5; the q = 1 closed
# form applies above.  It caps the support half-width x0 near 208, the widest
# support the _MESH_POINTS base mesh must resolve (with over 8 x0 + 1 angles).
_Q_MAX = PRODUCT_FLOOR ** (1.0 / 400_000)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MESH_POINTS = 2049  # uniform angular base mesh; over 8 x0 + 1 for any x0 <= 2 / sqrt(1 - _Q_MAX)


def qnumber(n: int, q: float) -> float:
    """q-deformed integer: 1 + q + ... + q^(n-1); equals n in the q -> 1 limit."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if q == 1.0:
        return float(n)
    return (1.0 - q**n) / (1.0 - q)


def qfactorial(n: int, q: float) -> float:
    """Running product of q-numbers, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = 1.0
    for j in range(1, n + 1):
        out *= qnumber(j, q)
    return out


def support_halfwidth(q: float) -> float:
    """Half-width of the weight's support, 2 / sqrt(1 - q); infinite at q = 1."""
    _check_q(q)
    if q == 1.0:
        return math.inf
    return 2.0 / math.sqrt(1.0 - q)


def hermite_table(n_max: int, x, q: float) -> np.ndarray:
    """Rows 0..n_max of H_n(x|q) at every point of ``x``; row n has the shape of ``x``.

    From the three-term recurrence H_{n+1} = x H_n - [n]_q H_{n-1}, with
    H_0 = 1 and H_{-1} = 0, so each row is the same whatever ``n_max`` is.
    Probabilists' Hermite polynomials at q = 1, Chebyshev U_n(x/2) at q = 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    table = np.empty((n_max + 1, flat.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = flat
    for n in range(1, n_max):
        table[n + 1] = flat * table[n] - qnumber(n, q) * table[n - 1]
    return table.reshape((n_max + 1,) + x.shape)


def _check_bounded(q: float) -> None:
    if q > _Q_MAX:
        raise ValueError(
            f"q={q} too close to 1 for the bounded-support weight; use the q=1 closed form"
        )


def _theta_weight(theta: np.ndarray, q: float) -> np.ndarray:
    """Density transported to theta = arcsin(x / x0); smooth on [-pi/2, pi/2].

    By the Jacobi triple product the weight's infinite product is the theta
    series (2/pi) cos(theta) sum_j q^(j(j+1)/2) cos((2j+1) theta), j >= 0.
    Below PRODUCT_FLOOR only its j = 0 term counts: the semicircle
    (2/pi) cos^2(theta).  Otherwise Poisson summation (tau = -ln q) gives
    e^(tau/8) sqrt(2/(pi tau)) cos(theta) sum_k (-1)^k exp(-2 (theta - k pi)^2 / tau),
    summed in pairs k = -m, m + 1 through expm1 so that each pair keeps its
    relative accuracy up to the support edge; at most nine pairs are needed.
    """
    theta = np.abs(np.asarray(theta, dtype=float))
    if q < PRODUCT_FLOOR:
        return 2.0 / math.pi * np.cos(theta) ** 2
    _check_bounded(q)
    tau = -math.log(q)
    pairs = 1 + int(math.sqrt(-math.log(PRODUCT_FLOOR) * tau / 2.0) / math.pi)
    total = np.zeros_like(theta)
    for m in range(pairs):
        total -= (-1) ** m * np.exp(-2.0 * (theta + m * math.pi) ** 2 / tau) * np.expm1(
            2.0 * math.pi * (2 * m + 1) * (2.0 * theta - math.pi) / tau
        )
    return math.exp(tau / 8.0) * math.sqrt(2.0 / (math.pi * tau)) * np.cos(theta) * total


def fqn_density(x, q: float):
    """Unit-variance q-normal density; zero outside the support interval."""
    _check_q(q)
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    if q == 1.0:
        out = np.exp(-0.5 * arr**2) / math.sqrt(2.0 * math.pi)
    else:
        x0 = support_halfwidth(q)
        out = np.zeros_like(arr)
        inside = np.abs(arr) < x0
        theta = np.arcsin(arr[inside] / x0)
        out[inside] = _theta_weight(theta, q) / (x0 * np.cos(theta))
    return float(out[0]) if scalar else out


def cumulative_quadrature(integrand, edges, points) -> np.ndarray:
    """Integrals of each row of ``integrand`` from edges[0] to each of ``points``.

    ``integrand`` maps a 1-d node array to a (rows, nodes) array.  The whole
    panels between the sorted ``edges`` get 16-node Gauss-Legendre and are
    summed cumulatively; each point adds one partial panel, from the last edge
    at or below it (edges[0] for a point below edges[0]) up to the point.  The
    result has shape (rows, *points.shape).
    """
    edges = np.asarray(edges, dtype=float)
    points = np.asarray(points, dtype=float)
    flat = points.ravel()
    below = np.maximum(np.searchsorted(edges, flat, side="right") - 1, 0)
    lower = np.concatenate((edges[:-1], edges[below]))
    upper = np.concatenate((edges[1:], flat))
    half = 0.5 * (upper - lower)
    nodes = (0.5 * (lower + upper))[:, None] + half[:, None] * _GL_NODES
    values = integrand(nodes.ravel())
    sums = half * (values.reshape(len(values), len(half), len(_GL_NODES)) @ _GL_WEIGHTS)
    whole = len(edges) - 1
    cumulative = np.zeros((len(sums), whole + 1))
    np.cumsum(sums[:, :whole], axis=1, out=cumulative[:, 1:])
    return (cumulative[:, below] + sums[:, whole:]).reshape((len(sums),) + points.shape)


def cumulative_weighted_integrals(
    points: np.ndarray, q: float, orders: tuple[int, ...]
) -> dict[int, np.ndarray]:
    """Cumulative integrals of the weight times H_n, from the lower support edge.

    Returns, for n = 0 and each requested order, the array of
    integral(f * H_n) from the lower support edge to each of ``points``.
    Points outside the support clamp to the edge values.  ``cumulative_quadrature``
    in theta on a uniform base mesh refined well below the density's structure
    scale keeps every value accurate to ~1e-12 absolute.  At q = 1 the closed
    form integral(phi He_n) = -phi He_{n-1} applies instead.
    """
    _check_q(q)
    if q == 1.0:
        return _gaussian_cumulative(np.asarray(points, dtype=float), orders)
    _check_bounded(q)  # before the mesh is built
    x0 = support_halfwidth(q)
    theta_pts = np.arcsin(np.clip(np.asarray(points, dtype=float) / x0, -1.0, 1.0))
    rows = sorted({0, *orders})

    def integrand(theta: np.ndarray) -> np.ndarray:
        table = hermite_table(rows[-1], x0 * np.sin(theta), q)[rows]
        table *= _theta_weight(theta, q)
        return table

    base = np.linspace(-math.pi / 2.0, math.pi / 2.0, _MESH_POINTS)
    return dict(zip(rows, cumulative_quadrature(integrand, base, theta_pts)))


def _gaussian_cumulative(
    points: np.ndarray, orders: tuple[int, ...]
) -> dict[int, np.ndarray]:
    # Antiderivative of phi(x) He_n(x) is -phi(x) He_{n-1}(x) for n >= 1.
    density = np.exp(-0.5 * points**2) / math.sqrt(2.0 * math.pi)
    nmax = max(orders, default=1)
    table = hermite_table(max(nmax - 1, 0), points, 1.0)
    results: dict[int, np.ndarray] = {}
    for order in sorted({0, *orders}):
        if order == 0:
            results[0] = np.array(
                [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in points.ravel().tolist()]
            ).reshape(points.shape)
        else:
            results[order] = -density * table[order - 1]
    return results


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
