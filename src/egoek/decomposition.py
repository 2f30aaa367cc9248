"""Normal-mode decomposition of a spectrum into smooth and fluctuating parts.

The exact distribution function (staircase) is compared with a smooth model:
the q-normal distribution function plus polynomial corrections whose
coefficients are fixed by linear least squares on the staircase residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qhermite
from .spectra import Spectrum

MIN_ORDER = 2

# Members whose estimated shape parameter lands above this are fitted with the
# exact Gaussian-limit weight.  The shape difference, O(1-q), is far below the
# correction terms the fit determines anyway; the threshold stays fixed
# because moving it would change the fits of the members it moves by that much.
Q_GAUSSIAN_SWITCH = 0.995


class SingularFitError(RuntimeError):
    """Least-squares design matrix is rank deficient."""


@dataclass(frozen=True)
class SmoothModel:
    """Smooth distribution model for one member: shape q plus corrections.

    ``coefficients[j]`` multiplies the correction of order 3 + j; an order-2
    model has no corrections and is the plain q-normal distribution function.
    """

    q: float
    order: int
    coefficients: np.ndarray
    dimension: int
    centroid: float
    width: float

    def __post_init__(self):
        if self.order < MIN_ORDER:
            raise ValueError("order must be at least 2")
        if len(self.coefficients) != self.order - MIN_ORDER:
            raise ValueError("coefficient count must equal order - 2")


@dataclass(frozen=True)
class LevelMotionSeries:
    """Per-level deviation between exact and smooth distribution functions."""

    e_hat: np.ndarray
    delta: np.ndarray
    delta_rms: float


def staircase(spectrum: Spectrum) -> np.ndarray:
    """Exact distribution function at the eigenvalues, midpoint convention i - 1/2."""
    return np.arange(1, spectrum.dimension + 1) - 0.5


def goe_delta_rms(dimension: int) -> float:
    """Root-mean-square level motion of a GOE spectrum, sqrt(ln(2d)) / pi."""
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    return math.sqrt(math.log(2.0 * dimension)) / math.pi


@dataclass(frozen=True)
class PreparedSpectrum:
    """Standardized energies with cached cumulative weight integrals."""

    spectrum: Spectrum
    q: float
    centroid: float
    width: float
    e_hat: np.ndarray
    cdf: np.ndarray
    corrections: dict[int, np.ndarray]
    max_order: int


def prepare_spectrum(spectrum: Spectrum, q: float, max_order: int = 6) -> PreparedSpectrum:
    """Standardize a spectrum and tabulate the integrals every fit order reuses."""
    e = spectrum.eigenvalues
    centroid = float(np.mean(e))
    width = float(np.sqrt(np.mean((e - centroid) ** 2)))
    if width == 0.0:
        raise ValueError("spectrum has zero width")
    if q > Q_GAUSSIAN_SWITCH:
        q = 1.0
    e_hat = (e - centroid) / width
    orders = tuple(range(3, max_order + 1))
    cumulative = qhermite.cumulative_weighted_integrals(e_hat, q, orders)
    return PreparedSpectrum(
        spectrum=spectrum,
        q=q,
        centroid=centroid,
        width=width,
        e_hat=e_hat,
        cdf=cumulative[0],
        corrections={n: cumulative[n] for n in orders},
        max_order=max_order,
    )


def fit_prepared(prep: PreparedSpectrum, order: int) -> SmoothModel:
    """Least-squares correction coefficients for one order on a prepared spectrum."""
    if not MIN_ORDER <= order <= prep.max_order:
        raise ValueError(f"order must lie in [{MIN_ORDER}, {prep.max_order}]")
    d = prep.spectrum.dimension
    base = dict(
        q=prep.q,
        order=order,
        dimension=d,
        centroid=prep.centroid,
        width=prep.width,
    )
    if order == MIN_ORDER:
        return SmoothModel(coefficients=np.empty(0), **base)
    target = staircase(prep.spectrum) - d * prep.cdf
    design = np.column_stack(
        [d / qhermite.qfactorial(n, prep.q) * prep.corrections[n] for n in range(3, order + 1)]
    )
    solution, _res, rank, _sv = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise SingularFitError(f"design matrix rank {rank} < {design.shape[1]}")
    return SmoothModel(coefficients=solution, **base)


def fit_smooth_model(spectrum: Spectrum, q: float, order: int) -> SmoothModel:
    """Fit correction coefficients of one order by minimizing the level motion."""
    return fit_prepared(prepare_spectrum(spectrum, q, max_order=max(order, 3)), order)


def _smooth_values(
    model: SmoothModel, cdf: np.ndarray, corrections: dict[int, np.ndarray]
) -> np.ndarray:
    """Smooth distribution function from tabulated cumulative integrals."""
    values = cdf.copy()
    for j, n in enumerate(range(3, model.order + 1)):
        values += model.coefficients[j] / qhermite.qfactorial(n, model.q) * corrections[n]
    return model.dimension * values


def smooth_distribution_values(model: SmoothModel, energies: np.ndarray) -> np.ndarray:
    """Smooth distribution function evaluated at raw energies (vectorized)."""
    e_hat = (np.asarray(energies, dtype=float) - model.centroid) / model.width
    orders = tuple(range(3, model.order + 1))
    cumulative = qhermite.cumulative_weighted_integrals(e_hat, model.q, orders)
    return _smooth_values(model, cumulative[0], cumulative)


def smooth_F(model: SmoothModel, energy: float) -> float:
    """Smooth distribution function at a single energy.

    Clamps to 0 below and to the model dimension above the support, where the
    weight vanishes.
    """
    return float(smooth_distribution_values(model, np.asarray([energy]))[0])


def _motion_series(
    spectrum: Spectrum, e_hat: np.ndarray, smooth: np.ndarray
) -> LevelMotionSeries:
    delta = staircase(spectrum) - smooth
    return LevelMotionSeries(e_hat=e_hat, delta=delta, delta_rms=float(np.sqrt(np.mean(delta**2))))


def level_motion(spectrum: Spectrum, model: SmoothModel) -> LevelMotionSeries:
    """Deviation of the staircase from the smooth model at every level."""
    return _motion_series(
        spectrum,
        (spectrum.eigenvalues - model.centroid) / model.width,
        smooth_distribution_values(model, spectrum.eigenvalues),
    )


@dataclass(frozen=True)
class MemberDecomposition:
    """All per-member decomposition products for a set of orders."""

    q: float
    models: dict[int, SmoothModel]
    series: dict[int, LevelMotionSeries]

    def delta_rms(self, order: int) -> float:
        return self.series[order].delta_rms


def decompose_member(
    spectrum: Spectrum, q: float, orders: tuple[int, ...]
) -> MemberDecomposition:
    """Fit every requested order of one member, sharing the integral tables."""
    if any(o < MIN_ORDER for o in orders):
        raise ValueError("orders must be >= 2")
    prep = prepare_spectrum(spectrum, q, max_order=max(max(orders), 3))
    models, series = {}, {}
    for order in sorted(set(orders)):
        model = fit_prepared(prep, order)
        models[order] = model
        series[order] = _motion_series(
            spectrum, prep.e_hat, _smooth_values(model, prep.cdf, prep.corrections)
        )
    return MemberDecomposition(q=prep.q, models=models, series=series)
