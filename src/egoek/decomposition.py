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


def staircase(spectrum: Spectrum) -> np.ndarray:
    """Exact distribution function at the eigenvalues, midpoint convention i - 1/2."""
    return np.arange(1, spectrum.dimension + 1) - 0.5


def goe_delta_rms(dimension: int) -> float:
    """Root-mean-square level motion of a GOE spectrum, sqrt(ln(2d)) / pi."""
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    return math.sqrt(math.log(2.0 * dimension)) / math.pi


def _smooth_values(model: SmoothModel, cumulative: dict[int, np.ndarray]) -> np.ndarray:
    """Smooth distribution function from tabulated cumulative integrals."""
    values = cumulative[0].copy()
    for j, n in enumerate(range(3, model.order + 1)):
        values += model.coefficients[j] / qhermite.qfactorial(n, model.q) * cumulative[n]
    return model.dimension * values


def smooth_distribution_values(model: SmoothModel, energies: np.ndarray) -> np.ndarray:
    """Smooth distribution function evaluated at raw energies (vectorized).

    Clamps to 0 below and to the model dimension above the support, where the
    weight vanishes.
    """
    e_hat = (np.asarray(energies, dtype=float) - model.centroid) / model.width
    orders = tuple(range(3, model.order + 1))
    return _smooth_values(model, qhermite.cumulative_weighted_integrals(e_hat, model.q, orders))


@dataclass(frozen=True)
class MemberDecomposition:
    """All per-member decomposition products for a set of orders.

    ``q`` is the shape parameter the member was given; each model holds the
    one its fit used, 1.0 above ``Q_GAUSSIAN_SWITCH``.  ``delta[order]`` is
    the level motion (staircase minus smooth values) of that order at every
    level, all on the member's one standardized axis ``e_hat``.
    """

    member: int | None
    q: float
    models: dict[int, SmoothModel]
    e_hat: np.ndarray
    delta: dict[int, np.ndarray]

    def delta_rms(self, order: int) -> float:
        return float(np.sqrt(np.mean(self.delta[order] ** 2)))


def decompose_member(
    spectrum: Spectrum, q: float, orders: tuple[int, ...]
) -> MemberDecomposition:
    """Fit every requested order of one member and its level motion at each.

    The spectrum is standardized once and the cumulative weight integrals up
    to the highest order are tabulated once at its levels; every order's fit
    and smooth values reuse that table.  Above ``Q_GAUSSIAN_SWITCH`` the
    Gaussian-limit weight (q = 1) is used.
    """
    if any(o < MIN_ORDER for o in orders):
        raise ValueError("orders must be >= 2")
    e = spectrum.eigenvalues
    d = spectrum.dimension
    centroid = float(np.mean(e))
    width = float(np.sqrt(np.mean((e - centroid) ** 2)))
    if width == 0.0:
        raise ValueError("spectrum has zero width")
    q_fit = 1.0 if q > Q_GAUSSIAN_SWITCH else q
    e_hat = (e - centroid) / width
    corrections = tuple(range(3, max(orders) + 1))
    cumulative = qhermite.cumulative_weighted_integrals(e_hat, q_fit, corrections)
    stair = staircase(spectrum)
    target = stair - d * cumulative[0]
    columns = [d / qhermite.qfactorial(n, q_fit) * cumulative[n] for n in corrections]
    models, deltas = {}, {}
    for order in sorted(set(orders)):
        coefficients = np.empty(0)
        if order > MIN_ORDER:
            design = np.column_stack(columns[: order - MIN_ORDER])
            coefficients, _res, rank, _sv = np.linalg.lstsq(design, target, rcond=None)
            if rank < design.shape[1]:
                raise SingularFitError(f"design matrix rank {rank} < {design.shape[1]}")
        models[order] = SmoothModel(q_fit, order, coefficients, d, centroid, width)
        deltas[order] = stair - _smooth_values(models[order], cumulative)
    return MemberDecomposition(spectrum.member, q, models, e_hat, deltas)


def fit_smooth_model(spectrum: Spectrum, q: float, order: int) -> SmoothModel:
    """Fit correction coefficients of one order by minimizing the level motion."""
    return decompose_member(spectrum, q, (order,)).models[order]
