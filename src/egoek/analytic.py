"""Closed-form ensemble results for the level-motion normal modes.

Valid deep in the dilute (fermion) / dense (boson) regimes, k much smaller
than m; the per-mode overall normalization is known only up to a positive
scale, which the curves leave at 1.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import qhermite
from .fock import Statistics, binomial, dimension, lambda_nu

# Entries (rows x grid points) of one curve's q-Hermite table: 128 MiB of float64.
MAX_TABLE_ENTRIES = 2**24


def _check_system(statistics: Statistics, m: int, n_sites: int, k: int, n: int = 1) -> None:
    """Raise ValueError for a system or mode index outside the closed forms' domain."""
    if not 1 <= n <= sys.float_info.max / 2:  # S_n^2 <= 2n then fits a float64
        raise ValueError("mode index must lie in [1, float64 max / 2]")
    if statistics is Statistics.FERMION:
        if not 1 <= k <= m <= n_sites:
            raise ValueError("require 1 <= k <= m <= N")
    elif not 1 <= k <= min(m, n_sites):
        raise ValueError("require 1 <= k <= min(m, N)")


def _amplitude(statistics: Statistics, n: int, m: int, n_sites: int, k: int,
               over_states: bool = False) -> float:
    """Curve weight a_n of mode n, exact and rounded once, after checking the mode and system.

    Fermions: 2n C(m,k)^(2-n), which is S_n^2 C(N,k)^2; ``over_states`` divides it by
    C(N,k)^2.  Bosons: 2n / C(N,k)^n, which is S_n^2 itself.
    """
    _check_system(statistics, m, n_sites, k, n)
    if statistics is Statistics.BOSON:
        return _exact_quotient(2 * n, math.comb(n_sites, k), n)
    cmk = math.comb(m, k)
    divisor = math.comb(n_sites, k) ** 2 if over_states else 1
    return _exact_quotient(2 * n * cmk ** max(2 - n, 0), cmk, max(n - 2, 0), divisor)


def _exact_quotient(numerator: int, base: int, exponent: int, divisor: int = 1) -> float:
    """Exact numerator / (base**exponent * divisor) of ints, rounded once to float64."""
    if exponent * (base.bit_length() - 1) + divisor.bit_length() > numerator.bit_length() + 1100:
        return 0.0  # far below the smallest subnormal, which the power would only confirm
    return numerator / (base**exponent * divisor)


def sn2(statistics: Statistics, n: int, m: int, n_sites: int, k: int) -> float:
    """Ensemble-averaged squared amplitude S_n^2 of mode n.

    Dilute fermions: 2n C(m,k)^(2-n) / C(N,k)^2, meaningful only for k much
    less than m.  Dense bosons: 2n / C(N,k)^n.  A value below float64 range
    reads 0.0, and one above it raises ValueError.
    """
    return _amplitude(statistics, n, m, n_sites, k, over_states=True)


def prefactor(statistics: Statistics, m: int, n_sites: int, k: int) -> float:
    """d^2 C(m,k)^2 / C(N,k)^2, the scale shared by every mode of one system.

    Raises ValueError for a system outside the domain, or when a squared
    factor or the scale overflows float64; the binomials stop near 2^1024,
    however large m and N are.
    """
    _check_system(statistics, m, n_sites, k)
    limit = 2**1024
    factors = (dimension(n_sites, m, statistics, limit=limit),
               binomial(m, k, limit), binomial(n_sites, k, limit))
    try:
        d2, cmk2, cnk2 = (float(f) ** 2 for f in factors)
        scale = d2 * cmk2 / cnk2
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise ValueError(f"the scale d^2 C(m,k)^2 / C(N,k)^2 of m={m}, N={n_sites}, k={k} "
                         "does not fit a float64")
    return scale


def ensemble_q(statistics: Statistics, m: int, n_sites: int, k: int) -> float:
    """The ensemble's q from U(N) algebra (Kota, LNP 884, 2014), exact in integers, rounded once.

    q = sum over nu <= min(k, m-k) of L(nu, m-k) L(nu, k) (D_nu^2 - D_(nu-1)^2) / (D_m L(0, k)^2),
    with L = ``lambda_nu`` and D_p the p-particle basis size (D_-1 = 0).  ``prefactor`` checks
    the system first (ValueError outside the domain or past float64), bounding every integer.
    """
    prefactor(statistics, m, n_sites, k)
    lam = functools.partial(lambda_nu, statistics, n_sites, m)
    sq = [0] + [dimension(n_sites, p, statistics) ** 2 for p in range(min(k, m - k) + 1)]
    total = sum(lam(nu, m - k) * lam(nu, k) * (sq[nu + 1] - sq[nu]) for nu in range(len(sq) - 1))
    return total / (dimension(n_sites, m, statistics) * lam(0, k) ** 2)


def mode_width_curve(
    statistics: Statistics, m: int, n_sites: int, k: int, q: float, n: int, grid: np.ndarray
) -> np.ndarray:
    """Contribution of the single excitation mode n at each point of an energy grid.

    The value is scale rho^2 a_n H_(n-1)^2 / ([n]_q!)^2, with rho the
    unit-variance density; it is 0 where rho is, and no term is evaluated
    there.  Raises ValueError for an empty grid, a system or mode outside the
    domain, a q-Hermite table above MAX_TABLE_ENTRIES entries (rows x points
    where rho > 0), or a term past float64 range where rho > 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    scale = prefactor(statistics, m, n_sites, k)  # checks the system at bounded cost
    amplitude = _amplitude(statistics, n, m, n_sites, k)
    rho = np.asarray(qhermite.fqn_density(grid, q))  # a 0-d grid gives a float
    inside = rho > 0.0
    rho2 = rho[inside] ** 2
    if n * rho2.size > MAX_TABLE_ENTRIES:
        raise ValueError(f"mode index times grid points must not pass {MAX_TABLE_ENTRIES}")
    with np.errstate(over="ignore", invalid="ignore"):  # a row past float64 is refused below
        row = qhermite.hermite_table(n - 1, grid[inside], q)[n - 1]
    try:
        weight = amplitude / qhermite.qfactorial(n, q) ** 2
    except OverflowError:
        weight = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        term = weight * row**2
    if not np.all(np.isfinite(term)):
        raise ValueError(f"mode {n} at q={q:.12g} does not fit a float64")
    out = np.zeros_like(grid)
    out[inside] = scale * rho2 * term
    return out
