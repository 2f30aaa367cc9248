"""Spectral unfolding and GOE-type fluctuation measures.

Levels are mapped through the fitted smooth distribution function, read from
the decomposition's level motion, so the mean spacing is one, then
compared with the Wigner/Poisson spacing laws and the Dyson–Mehta rigidity
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import staircase
from .decomposition import smooth_distribution_values  # noqa: F401  patched by perfbench/tracer.py
from .fock import Statistics
from .qhermite import cumulative_quadrature
from .spectra import Spectrum

DEFAULT_TRIM = 0.10
DEFAULT_BIN_WIDTH = 0.1
DEFAULT_SPACING_MAX = 4.0
DEFAULT_L_MAX = 60
MAX_SPACING_BINS = 1_000_000  # NNSD histogram bins
# Delta3 window lengths run L_STEP, 2 L_STEP, ... up to l_max; window starts
# advance by WINDOW_STEP unfolded spacings.
L_STEP = 2
WINDOW_STEP = 2.0
# (L - r)^3 (2L^2 - 9Lr - 3r^2) = sum_j coeff_j L^(5 - j) r^j
_KERNEL_POWERS = np.array([0, 1, 2, 3, 5])
_KERNEL_COEFFS = np.array([2.0, -15.0, 30.0, -20.0, 3.0])
# Largest block (window starts x widest window) of Delta3's local prefix table.
_WINDOW_TABLE_ENTRIES = 1 << 18


class UnfoldingError(RuntimeError):
    """Smooth distribution function is not increasing over the data range."""


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


def unfold(spectrum: Spectrum, delta: np.ndarray, trim: float = DEFAULT_TRIM) -> np.ndarray:
    """Levels mapped through the smooth distribution function, at unit mean spacing.

    The smooth values are read back from the member's level motion ``delta``
    as staircase - delta, over the ``central_window`` of the levels, before
    rescaling to unit mean spacing.
    """
    window = central_window(spectrum.dimension, trim)
    mapped = (staircase(spectrum) - delta)[window]
    if len(mapped) < 2:
        raise ValueError("trim leaves fewer than two levels")
    steps = np.diff(mapped)
    if not np.all(steps > 0.0):  # a NaN step is refused too
        where = window.start + int(np.argmin(steps))
        raise UnfoldingError(
            f"smooth distribution not increasing between retained levels "
            f"{where} and {where + 1}"
        )
    # Unit mean spacing with the end points exactly 0 and len - 1, so that
    # delta3's window count does not hinge on the last bit of the span.
    return (len(mapped) - 1) * ((mapped - mapped[0]) / (mapped[-1] - mapped[0]))


def wigner_pdf(s) -> np.ndarray:
    """Wigner surmise for the nearest-neighbor spacing density."""
    s = np.asarray(s, dtype=float)
    return 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s**2)


def poisson_pdf(s) -> np.ndarray:
    """Poisson (uncorrelated levels) spacing density."""
    return np.exp(-np.asarray(s, dtype=float))


def spacing_edges(bin_width: float, s_max: float) -> np.ndarray:
    """NNSD bin edges 0, bin_width, ... up to s_max (the last bin may pass it).

    Raises ValueError for a bin_width that is not positive, and for a grid with
    no bin or more than MAX_SPACING_BINS bins, before any edge is allocated.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    stop = s_max + 0.5 * bin_width
    count = stop / bin_width  # numpy's arange makes ceil(stop / step) edges
    if not count > 1:
        raise ValueError(f"spacing_max={s_max:g} and bin_width={bin_width:g} leave no histogram bin")
    if not count <= MAX_SPACING_BINS + 1:
        raise ValueError(f"spacing_max / bin_width exceeds {MAX_SPACING_BINS} histogram bins")
    return np.arange(0.0, stop, bin_width)


def nnsd(
    ensemble: Sequence[np.ndarray],
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
    pooled = np.concatenate([np.diff(levels) for levels in ensemble])
    edges = spacing_edges(bin_width, s_max)
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


def _si_over_pi(r: np.ndarray) -> np.ndarray:
    """Si(pi r) / pi, the integral of sinc over [0, r], at r >= 0, on unit panels."""
    edges = np.arange(np.floor(r.max(initial=0.0)) + 1.0)
    return cumulative_quadrature(lambda t: np.sinc(t)[None], edges, r)[0]


def _goe_cluster_y2(r: np.ndarray) -> np.ndarray:
    """GOE two-level cluster function Y2(r) = s^2 + s'(1/2 - Si(pi r)/pi), s = sinc, at r > 0."""
    s = np.sinc(r)
    ds = (np.cos(math.pi * r) - s) / r
    return s * s + ds * (0.5 - _si_over_pi(r))


def goe_delta3_exact(lengths) -> np.ndarray:
    """GOE spectral rigidity at finite window length L > 0.

    Delta3(L) = L/15 - (15 L^4)^-1 int_0^L (L - r)^3 (2L^2 - 9Lr - 3r^2) Y2(r) dr
    (Mehta, Random Matrices, 3rd ed.), evaluated by ``cumulative_quadrature``
    on unit panels.  The kernel expands to
    2L^5 - 15L^4 r + 30L^3 r^2 - 20L^2 r^3 + 3r^5, so all lengths share the
    cumulative moments int r^j Y2 over unit panels and add one partial panel
    each: cost and memory grow with max(L), not with the sum of the lengths.
    """
    L = np.asarray(lengths, dtype=float)
    flat = L.ravel()
    if np.any(~(flat > 0.0)):
        raise ValueError("window lengths must be positive")
    edges = np.arange(np.floor(flat.max(initial=0.0)) + 1.0)
    moments = cumulative_quadrature(
        lambda r: r ** _KERNEL_POWERS[:, None] * _goe_cluster_y2(r), edges, flat
    )
    integral = (_KERNEL_COEFFS * flat[:, None] ** (5 - _KERNEL_POWERS) * moments.T).sum(axis=1)
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


def delta3(ensemble: Sequence[np.ndarray], l_max: int = DEFAULT_L_MAX) -> Delta3Curve:
    """Ensemble-averaged Dyson-Mehta rigidity over window lengths up to l_max.

    Windows advance in steps of WINDOW_STEP from the first retained level;
    windows truncated by the spectrum end are dropped.
    """
    if not ensemble:
        raise ValueError("need at least one unfolded spectrum")
    longest = float(L_STEP * (l_max // L_STEP))
    span = min(levels[-1] - levels[0] for levels in ensemble)
    if longest > span:
        raise ValueError(f"window length {longest} exceeds retained span {span:.1f}")
    lengths = np.arange(L_STEP, l_max + 1, L_STEP, dtype=float)
    values = np.mean([_delta3_member(levels, lengths, WINDOW_STEP) for levels in ensemble], axis=0)
    return Delta3Curve(
        lengths=lengths,
        values=values,
        goe=goe_delta3_exact(lengths),
        poisson=poisson_delta3(lengths),
    )
