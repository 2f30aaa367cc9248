"""Diagonalization of embedded Hamiltonians and spectral moment estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import MemberMatrix

Q_CAP = 1.0 - 1e-6


class DegenerateSpectrumError(ValueError):
    """Spectrum has zero width; moments are undefined."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one ensemble member, with its index and seed if known."""

    eigenvalues: np.ndarray
    member: int | None = None
    seed: int | None = None

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SpectralMoments:
    centroid: float
    variance: float
    skewness: float
    excess: float
    q_est: float


def eigenvalues(ham: MemberMatrix | np.ndarray) -> Spectrum:
    """Full real spectrum of a symmetric matrix, ascending.

    Member and seed come from a :class:`MemberMatrix`, None for a bare array.
    Any dense symmetric eigensolver is acceptable provided eigenvalue sums
    reproduce the trace to relative 1e-10; LAPACK's divide-and-conquer driver
    comfortably satisfies that.
    """
    if isinstance(ham, MemberMatrix):
        matrix, member, seed = ham.matrix, ham.member, ham.seed
    else:
        matrix, member, seed = np.asarray(ham, dtype=float), None, None
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    vals = np.linalg.eigvalsh(matrix)
    return Spectrum(eigenvalues=vals, member=member, seed=seed)


def moments(spectrum: Spectrum) -> SpectralMoments:
    """Centroid, variance, skewness, excess, and the implied shape parameter q.

    Population normalization (divide by d) throughout; ``q_est`` is
    1 + excess clipped to [0, 1 - 1e-6].  Raises ValueError, without a
    RuntimeWarning, when a centred power mean is not finite or the squared
    variance overflows or underflows to 0.
    """
    e = spectrum.eigenvalues
    if len(e) < 4:
        raise ValueError("need at least 4 levels for spectral moments")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        centroid = float(np.mean(e))
        centered = e - centroid
        variance = float(np.mean(centered**2))
        third, fourth = np.mean(centered**3), np.mean(centered**4)
    if variance == 0.0:
        raise DegenerateSpectrumError("spectrum has zero variance")
    try:
        variance_sq = variance**2
    except OverflowError:
        variance_sq = math.inf
    if not (0.0 < variance_sq < math.inf and np.isfinite(third) and np.isfinite(fourth)):
        who = "" if spectrum.member is None else f"member {spectrum.member}: "
        raise ValueError(f"{who}the centred moments of levels up to {np.max(np.abs(e)):.3g} "
                         "in magnitude leave the float64 range")
    sigma = np.sqrt(variance)
    skewness = float(third / sigma**3)
    excess = float(fourth / variance_sq - 3.0)
    q_est = float(np.clip(1.0 + excess, 0.0, Q_CAP))
    return SpectralMoments(
        centroid=centroid,
        variance=variance,
        skewness=skewness,
        excess=excess,
        q_est=q_est,
    )

