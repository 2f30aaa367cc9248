"""Spectral unfolding and GOE-type fluctuation measures.

Levels are mapped through the fitted smooth distribution function, read from
the decomposition's level-motion series, so the mean spacing is one, then
compared with the Wigner/Poisson spacing laws and the Dyson–Mehta rigidity
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .decomposition import LevelMotionSeries, staircase
from .decomposition import smooth_distribution_values  # noqa: F401  patched by perfbench/tracer.py
from .fock import Statistics
from .spectra import Spectrum

DEFAULT_TRIM = 0.10
DEFAULT_BIN_WIDTH = 0.1
DEFAULT_SPACING_MAX = 4.0
DEFAULT_L_MAX = 60
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# (L - r)^3 (2L^2 - 9Lr - 3r^2) = sum_j coeff_j L^(5 - j) r^j
_KERNEL_POWERS = np.array([0, 1, 2, 3, 5])
_KERNEL_COEFFS = np.array([2.0, -15.0, 30.0, -20.0, 3.0])
# Largest block (window starts x widest window) of Delta3's local prefix table.
_WINDOW_TABLE_ENTRIES = 1 << 18


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


def central_window(n: int, trim: float) -> slice:
    """The central (1 - trim) fraction of n levels: floor(trim/2 * n) cut per end."""
    if not 0.0 <= trim < 1.0:
        raise ValueError("trim fraction must lie in [0, 1)")
    cut = int(math.floor(0.5 * trim * n))
    return slice(cut, n - cut)


def unfold(
    spectrum: Spectrum, series: LevelMotionSeries, trim: float = DEFAULT_TRIM
) -> UnfoldedSpectrum:
    """Map levels through the smooth distribution function and normalize spacings.

    The smooth values are read back from the member's level-motion series as
    staircase - delta, over the ``central_window`` of the levels, before
    rescaling to unit mean spacing.
    """
    window = central_window(spectrum.dimension, trim)
    mapped = (staircase(spectrum) - series.delta)[window]
    if len(mapped) < 2:
        raise ValueError("trim leaves fewer than two levels")
    steps = np.diff(mapped)
    if np.any(steps <= 0.0):
        where = window.start + int(np.argmin(steps))
        raise UnfoldingError(
            f"smooth distribution not increasing between retained levels "
            f"{where} and {where + 1}"
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
    bin_width: float = DEFAULT_BIN_WIDTH,
    s_max: float = DEFAULT_SPACING_MAX,
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


def _delta3_member(levels: np.ndarray, lengths: np.ndarray, window_step: float) -> np.ndarray:
    """Mean least-squares staircase deviation over overlapping windows, per length.

    Windows start at levels[0] + window_step * w, and those truncated by the
    spectrum end are dropped.  With local positions t_j = e_g - x inside
    [x, x + L), j = 1..n, the optimal-line residual reduces to
    A/L - 4 I0^2/L^2 + 12 I0 I1 / L^3 - 12 I1^2 / L^4 where
    A = sum (2j - 1)(L - t_j), I0 = integral of the staircase and I1 its
    first moment over the window.  The sums over t_j are prefix sums taken
    inside each window (a table of window starts x widest window, shared by
    all lengths), so they round like the window's own levels wherever it sits
    in the spectrum.  Windows are taken in blocks that keep every table below
    _WINDOW_TABLE_ENTRIES entries.
    """
    n_windows = np.floor((levels[-1] - levels[0] - lengths) / window_step).astype(np.intp) + 1
    starts = levels[0] + window_step * np.arange(n_windows.max())
    lo = np.searchsorted(levels, starts, side="left")
    width = int(np.max(np.searchsorted(levels, starts + lengths.max(), side="left") - lo))
    local = np.arange(width)
    L = lengths[:, None]
    totals = np.zeros(len(lengths))
    block = max(1, _WINDOW_TABLE_ENTRIES // max(width, len(lengths)))
    for first in range(0, len(starts), block):
        x, lo_x = starts[first : first + block], lo[first : first + block]
        t = levels[np.minimum(lo_x[:, None] + local, len(levels) - 1)] - x[:, None]
        prefix = np.zeros((3, len(x), width + 1))
        np.cumsum(np.stack((t, t * t, (local + 1) * t)), axis=2, out=prefix[:, :, 1:])
        n = np.searchsorted(levels, x + L, side="left") - lo_x
        sum_t, sum_t2, sum_jt = prefix[:, np.arange(len(x)), n]
        a_term = n**2 * L - 2.0 * sum_jt + sum_t
        i0 = n * L - sum_t
        i1 = 0.5 * (n * L**2 - sum_t2)
        d3 = a_term / L - 4.0 * i0**2 / L**2 + 12.0 * i0 * i1 / L**3 - 12.0 * i1**2 / L**4
        kept = first + np.arange(len(x)) < n_windows[:, None]
        totals += np.sum(d3, axis=1, where=kept)
    return totals / n_windows


def delta3(
    ensemble: Sequence[UnfoldedSpectrum],
    l_max: int = DEFAULT_L_MAX,
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
    values = np.mean([_delta3_member(u.levels, lengths, window_step) for u in ensemble], axis=0)
    return Delta3Curve(
        lengths=lengths,
        values=values,
        goe=goe_delta3_exact(lengths),
        poisson=poisson_delta3(lengths),
    )
