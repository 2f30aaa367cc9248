"""Closed-form ensemble results for the level-motion normal modes.

Valid deep in the dilute (fermion) / dense (boson) regimes, k much smaller
than m; the per-mode overall normalization is known only up to a positive
scale, carried here as an explicit factor defaulting to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qhermite
from .fock import Statistics, dimension

TRUNCATION_RTOL = 1e-16

# Shape parameters quoted for the reference systems (fermions: m=10 in N=20;
# bosons: m=20 in N=10), keyed by interaction rank.
FERMION_PRESET_Q = {2: 0.465, 3: 0.176, 4: 0.044, 5: 0.007}
BOSON_PRESET_Q = {2: 0.932, 3: 0.84, 4: 0.712, 5: 0.556}
PRESET_SYSTEMS = {
    Statistics.FERMION: (10, 20, FERMION_PRESET_Q),
    Statistics.BOSON: (20, 10, BOSON_PRESET_Q),
}


def preset_q(statistics: Statistics, m: int, n_sites: int, k: int) -> float:
    """Bundled shape parameter for the reference systems; KeyError otherwise."""
    preset_m, preset_n, table = PRESET_SYSTEMS[statistics]
    if (m, n_sites) != (preset_m, preset_n) or k not in table:
        raise KeyError(f"no preset q for {statistics.value} m={m} N={n_sites} k={k}")
    return table[k]


def sn2_fermion(n: int, m: int, n_sites: int, k: int) -> float:
    """Ensemble-averaged squared mode amplitude for dilute fermions.

    2n * C(m,k)^(2-n) / C(N,k)^2; meaningful only for k much less than m.
    """
    _check_mode(n)
    if not 1 <= k <= m <= n_sites:
        raise ValueError("require 1 <= k <= m <= N")
    return 2.0 * n * math.comb(m, k) ** (2 - n) / math.comb(n_sites, k) ** 2


def sn2_boson(n: int, n_sites: int, k: int) -> float:
    """Ensemble-averaged squared mode amplitude for dense bosons, 2n / C(N,k)^n."""
    _check_mode(n)
    if not 1 <= k <= n_sites:
        raise ValueError("require 1 <= k <= N")
    return 2.0 * n / math.comb(n_sites, k) ** n


def _mode_factors(
    statistics: Statistics, m: int, n_sites: int, k: int
) -> tuple[float, Callable[[int], float]]:
    """Prefactor d^2 C(m,k)^2 / C(N,k)^2 and the mode amplitude n -> a_n of one system."""
    fermion = statistics is Statistics.FERMION
    if fermion and not 1 <= k <= m <= n_sites:
        raise ValueError("require 1 <= k <= m <= N")
    if not fermion and (not 1 <= k <= n_sites or m < 1):
        raise ValueError("require m >= 1 and 1 <= k <= N")
    prefactor = (
        float(dimension(n_sites, m, statistics)) ** 2
        * float(math.comb(m, k)) ** 2
        / float(math.comb(n_sites, k)) ** 2
    )
    if fermion:
        return prefactor, lambda n: 2.0 * n * math.comb(m, k) ** (2 - n)
    return prefactor, lambda n: 2.0 * n / math.comb(n_sites, k) ** n


def _mode_term(e_hat: np.ndarray, n: int, q: float, amplitude: float) -> np.ndarray:
    h = qhermite._hermite_table(max(n - 1, 0), e_hat, q)[n - 1]
    return amplitude / qhermite.qfactorial(n, q) ** 2 * h**2


def _motion_variance(
    e_hat,
    q: float,
    n_max: int,
    prefactor: float,
    amplitude,
) -> np.ndarray | float:
    arr = np.asarray(e_hat, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    rho = qhermite.fqn_density(arr, q)
    total = np.zeros_like(arr)
    for n in range(1, n_max + 1):
        term = _mode_term(arr, n, q, amplitude(n))
        total += term
        sup = float(np.max(term * rho**2))
        running = float(np.max(total * rho**2))
        if running > 0.0 and sup < TRUNCATION_RTOL * running:
            break
    out = prefactor * rho**2 * total
    return float(out[0]) if scalar else out


def motion_variance_fermion(
    e_hat, m: int, n_sites: int, k: int, q: float, n_max: int = 50
) -> np.ndarray | float:
    """Scaled level-motion variance profile for dilute fermions.

    Sum over excitation modes of the squared (n-1)-th polynomial weighted by
    the mode amplitudes, times the squared unit-variance density; zero outside
    the support.
    """
    prefactor, amplitude = _mode_factors(Statistics.FERMION, m, n_sites, k)
    _check_mode(n_max)
    return _motion_variance(e_hat, q, n_max, prefactor, amplitude)


def motion_variance_boson(
    e_hat, m: int, n_sites: int, k: int, q: float, n_max: int = 50
) -> np.ndarray | float:
    """Scaled level-motion variance profile for dense bosons."""
    prefactor, amplitude = _mode_factors(Statistics.BOSON, m, n_sites, k)
    _check_mode(n_max)
    return _motion_variance(e_hat, q, n_max, prefactor, amplitude)


@dataclass(frozen=True)
class ModeWidthCurve:
    """Single-mode contribution to the level-motion variance over a grid."""

    statistics: Statistics
    m: int
    n_sites: int
    k: int
    n: int
    q: float
    grid: np.ndarray
    values: np.ndarray
    scale: float = 1.0

    @property
    def peak(self) -> float:
        """Largest curve value; the central-lobe intensity of the mode."""
        return float(np.max(self.values))


def mode_width_curve(
    statistics: Statistics,
    m: int,
    n_sites: int,
    k: int,
    q: float,
    n: int,
    grid: np.ndarray,
    scale: float = 1.0,
) -> ModeWidthCurve:
    """Contribution of a single excitation mode over an energy grid.

    The overall per-mode normalization is not fixed by the closed forms, so
    the curve carries an explicit ``scale`` placeholder (default 1).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if n < 1:
        raise ValueError("mode index must be >= 1")
    prefactor, amplitude = _mode_factors(statistics, m, n_sites, k)
    rho = qhermite.fqn_density(grid, q)
    values = scale * prefactor * rho**2 * _mode_term(grid, n, q, amplitude(n))
    return ModeWidthCurve(
        statistics=statistics,
        m=m,
        n_sites=n_sites,
        k=k,
        n=n,
        q=q,
        grid=grid,
        values=values,
        scale=scale,
    )


def _check_mode(n: int) -> None:
    if n < 1:
        raise ValueError("mode index must be >= 1")
