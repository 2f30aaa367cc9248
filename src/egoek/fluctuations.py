"""Spectral unfolding and GOE-type fluctuation measures.

Levels are mapped through the fitted smooth distribution function so the mean
spacing is one, then compared with the Wigner/Poisson spacing laws and the
Dyson–Mehta rigidity references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .decomposition import SmoothModel, smooth_distribution_values
from .fock import Statistics
from .spectra import Spectrum

DEFAULT_TRIM = 0.10
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# (L - r)^3 (2L^2 - 9Lr - 3r^2) = sum_j coeff_j L^(5 - j) r^j
_KERNEL_POWERS = np.array([0, 1, 2, 3, 5])
_KERNEL_COEFFS = np.array([2.0, -15.0, 30.0, -20.0, 3.0])


class UnfoldingError(RuntimeError):
    """Smooth distribution function is not increasing over the data range."""


@dataclass(frozen=True)
class UnfoldedSpectrum:
    """Unfolded levels with unit mean spacing over the retained window."""

    levels: np.ndarray
    trim: float
    member: int | None = None

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.levels)


@dataclass(frozen=True)
class SpacingHistogram:
    bin_edges: np.ndarray
    density: np.ndarray
    sigma2: float
    wigner: np.ndarray
    poisson: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class Delta3Curve:
    lengths: np.ndarray
    values: np.ndarray
    goe: np.ndarray
    poisson: np.ndarray


def unfolding_order(statistics: Statistics, k: int) -> int:
    """Correction order used to unfold a spectrum of interaction rank k.

    Low ranks need polynomial corrections on top of the q-normal shape; high
    ranks are semicircle-like and the bare shape suffices.
    """
    if statistics is Statistics.FERMION:
        return 4 if k <= 4 else 2
    return 6 if k <= 7 else 2


def unfold(
    spectrum: Spectrum, model: SmoothModel, trim: float = DEFAULT_TRIM
) -> UnfoldedSpectrum:
    """Map levels through the smooth distribution function and normalize spacings.

    The central (1 - trim) fraction is retained (floor(trim/2 * d) levels cut
    per end) before rescaling to unit mean spacing.
    """
    if not 0.0 <= trim < 1.0:
        raise ValueError("trim fraction must lie in [0, 1)")
    d = spectrum.dimension
    cut = int(math.floor(0.5 * trim * d))
    kept = spectrum.eigenvalues[cut : d - cut]
    if len(kept) < 2:
        raise ValueError("trim leaves fewer than two levels")
    mapped = smooth_distribution_values(model, kept)
    steps = np.diff(mapped)
    if np.any(steps <= 0.0):
        where = int(np.argmin(steps))
        raise UnfoldingError(
            f"smooth distribution not increasing between retained levels "
            f"{cut + where} and {cut + where + 1}"
        )
    # Unit mean spacing with the end points exactly 0 and len - 1, so that
    # delta3's window count does not hinge on the last bit of the span.
    levels = (len(mapped) - 1) * ((mapped - mapped[0]) / (mapped[-1] - mapped[0]))
    return UnfoldedSpectrum(levels=levels, trim=trim, member=spectrum.member)


def wigner_pdf(s) -> np.ndarray:
    """Wigner surmise for the nearest-neighbor spacing density."""
    s = np.asarray(s, dtype=float)
    return 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s**2)


def poisson_pdf(s) -> np.ndarray:
    """Poisson (uncorrelated levels) spacing density."""
    return np.exp(-np.asarray(s, dtype=float))


def nnsd(
    ensemble: Sequence[UnfoldedSpectrum],
    bin_width: float = 0.1,
    s_max: float = 4.0,
) -> SpacingHistogram:
    """Pooled nearest-neighbor spacing histogram with reference curves.

    Spacings are pooled across members after per-member unit-mean
    normalization; the histogram is normalized by the total pooled count, and
    sigma2 is the variance of the pooled spacings.
    """
    if not ensemble:
        raise ValueError("need at least one unfolded spectrum")
    pooled = np.concatenate([u.spacings for u in ensemble])
    edges = np.arange(0.0, s_max + 0.5 * bin_width, bin_width)
    counts, _ = np.histogram(pooled, bins=edges)
    density = counts / (pooled.size * bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SpacingHistogram(
        bin_edges=edges,
        density=density,
        sigma2=float(np.var(pooled)),
        wigner=wigner_pdf(centers),
        poisson=poisson_pdf(centers),
    )


def _goe_cluster_y2(r: np.ndarray) -> np.ndarray:
    """GOE two-level cluster function Y2(r) = s^2 + s'(1/2 - Si(pi r)/pi), s = sinc."""
    s = np.sinc(r)
    ds = (np.cos(math.pi * r) - s) / r
    si, _ = special.sici(math.pi * r)
    return s * s + ds * (0.5 - si / math.pi)


def _panel_moments(nodes: np.ndarray, width) -> np.ndarray:
    """Per-panel Gauss-Legendre integrals of r^j Y2(r) for the kernel powers j."""
    weighted = (0.5 * width * _GL_WEIGHTS) * _goe_cluster_y2(nodes)
    return np.einsum("pn,pnj->pj", weighted, nodes[..., None] ** _KERNEL_POWERS)


def goe_delta3_exact(lengths) -> np.ndarray:
    """GOE spectral rigidity at finite window length L > 0.

    Delta3(L) = L/15 - (15 L^4)^-1 int_0^L (L - r)^3 (2L^2 - 9Lr - 3r^2) Y2(r) dr
    (Mehta, Random Matrices, 3rd ed.), evaluated with one 16-point
    Gauss-Legendre panel per unit of L.  The kernel expands to
    2L^5 - 15L^4 r + 30L^3 r^2 - 20L^2 r^3 + 3r^5, so all lengths share the
    cumulative moments int r^j Y2 over unit panels and add one partial panel
    each: cost and memory grow with max(L), not with the sum of the lengths.
    """
    L = np.asarray(lengths, dtype=float)
    flat = L.ravel()
    if np.any(~(flat > 0.0)):
        raise ValueError("window lengths must be positive")
    whole = np.floor(flat).astype(np.intp)
    frac = flat - whole
    unit = np.arange(whole.max(initial=0))[:, None] + 0.5 * (_GL_NODES + 1.0)
    cumulative = np.vstack(
        (np.zeros(len(_KERNEL_POWERS)), np.cumsum(_panel_moments(unit, 1.0), axis=0))
    )
    tail = whole[:, None] + 0.5 * frac[:, None] * (_GL_NODES + 1.0)
    moments = cumulative[whole] + _panel_moments(tail, frac[:, None])
    integral = (_KERNEL_COEFFS * flat[:, None] ** (5 - _KERNEL_POWERS) * moments).sum(axis=1)
    return (flat / 15.0 - integral / (15.0 * flat**4)).reshape(L.shape)


def poisson_delta3(lengths) -> np.ndarray:
    """Poisson spectral rigidity, L / 15."""
    return np.asarray(lengths, dtype=float) / 15.0


def _delta3_member(levels: np.ndarray, length: float, window_step: float) -> float:
    """Mean least-squares staircase deviation over overlapping windows.

    Exact per-window evaluation through prefix sums: with local positions
    t_j = e_g - x inside [x, x + L], the optimal-line residual reduces to
    A/L - 4 I0^2/L^2 + 12 I0 I1 / L^3 - 12 I1^2 / L^4 where
    A = sum (2j - 1)(L - t_j), I0 = integral of the staircase and I1 its
    first moment over the window.
    """
    span = levels[-1] - levels[0]
    n_windows = int(math.floor((span - length) / window_step)) + 1
    starts = levels[0] + window_step * np.arange(n_windows)

    prefix_e = np.concatenate(([0.0], np.cumsum(levels)))
    prefix_e2 = np.concatenate(([0.0], np.cumsum(levels**2)))
    prefix_ge = np.concatenate(([0.0], np.cumsum(np.arange(len(levels)) * levels)))

    lo = np.searchsorted(levels, starts, side="left")
    hi = np.searchsorted(levels, starts + length, side="left")
    nw = (hi - lo).astype(float)

    sum_e = prefix_e[hi] - prefix_e[lo]
    sum_t = sum_e - nw * starts
    sum_t2 = prefix_e2[hi] - prefix_e2[lo] - 2.0 * starts * sum_e + nw * starts**2
    sum_ge = prefix_ge[hi] - prefix_ge[lo]
    sum_jt = sum_ge + (1.0 - lo) * sum_e - starts * nw * (nw + 1.0) / 2.0

    L = length
    a_term = nw**2 * L - 2.0 * sum_jt + sum_t
    i0 = nw * L - sum_t
    i1 = 0.5 * (nw * L**2 - sum_t2)
    d3 = a_term / L - 4.0 * i0**2 / L**2 + 12.0 * i0 * i1 / L**3 - 12.0 * i1**2 / L**4
    return float(np.mean(d3))


def delta3(
    ensemble: Sequence[UnfoldedSpectrum],
    l_max: int = 60,
    l_step: int = 2,
    window_step: float = 2.0,
) -> Delta3Curve:
    """Ensemble-averaged Dyson-Mehta rigidity over window lengths up to l_max.

    Windows advance in steps of ``window_step`` from the first retained level;
    windows truncated by the spectrum end are dropped.
    """
    if not ensemble:
        raise ValueError("need at least one unfolded spectrum")
    longest = float(l_step * (l_max // l_step))
    span = min(u.levels[-1] - u.levels[0] for u in ensemble)
    if longest > span:
        raise ValueError(f"window length {longest} exceeds retained span {span:.1f}")
    lengths = np.arange(l_step, l_max + 1, l_step, dtype=float)
    values = np.empty(len(lengths))
    for i, L in enumerate(lengths):
        values[i] = float(
            np.mean([_delta3_member(u.levels, float(L), window_step) for u in ensemble])
        )
    return Delta3Curve(
        lengths=lengths,
        values=values,
        goe=goe_delta3_exact(lengths),
        poisson=poisson_delta3(lengths),
    )
