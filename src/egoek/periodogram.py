"""Normalized Lomb-Scargle periodogram of level-motion series.

Quantifies whether a deviation series still carries a coherent long-wavelength
component (a residual smooth mode) or only noise-like fluctuations, through
the peak power and a percentage significance parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_OVERSAMPLE = 4
#: Largest grid refinement (frequencies per 1/T) a run configuration accepts.
MAX_OVERSAMPLE = 64
MIN_SAMPLES = 16
_CHUNK = 256
_FINE = 16  # sqrt(_CHUNK)

#: Supported conventions for the percentage significance of the peak:
#: ``fap``   -- 100 * (1 - false-alarm probability), FAP = 1 - (1 - e^-P)^M
#:              with M the number of samples;
#: ``power_fraction`` -- 100 * 2 P_max / (M - 1), the fraction of the series
#:              variance captured by the best-fit sinusoid at the peak.
LAMBDA_CONVENTIONS = ("fap", "power_fraction")


class DegenerateSeriesError(ValueError):
    """Series has zero variance; the normalized periodogram is undefined."""


@dataclass(frozen=True)
class PeriodogramResult:
    frequency: np.ndarray
    power: np.ndarray
    peak_frequency: float
    peak_power: float
    n_samples: int


def lomb_scargle(
    abscissa: np.ndarray, values: np.ndarray, oversample: int = DEFAULT_OVERSAMPLE
) -> PeriodogramResult:
    """Classical normalized periodogram of an unevenly sampled series.

    The per-frequency phase shift tau satisfies
    tan(2 w tau) = sum(sin 2 w t) / sum(cos 2 w t), and powers are normalized
    by the sample variance so that white noise gives unit-mean exponential
    powers.  The frequency grid runs from 1/(T * oversample) up to the
    average Nyquist frequency n / (2 T) in steps of 1/(T * oversample).  The
    grid is evaluated with the uniform-grid trig recurrence of Press &
    Teukolsky (Numerical Recipes ``period``), re-anchored every block of
    frequencies.

    Parameters
    ----------
    abscissa, values : ndarray
        Sampling positions (normalized energies) and series values.  The mean
        of ``values`` is subtracted internally.
    """
    t = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("abscissa and values must be equal-length 1-d arrays")
    n = len(t)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    n_freq = grid_size(n, oversample)
    y = y - y.mean()
    variance = float(np.sum(y**2)) / (n - 1)
    if variance == 0.0:
        raise DegenerateSeriesError("series is constant")

    span = float(t.max() - t.min())
    if span <= 0.0:
        raise ValueError("abscissa has zero span")
    df = 1.0 / (span * oversample)
    freqs = df * np.arange(1, n_freq + 1)

    # On the uniform grid the phasor exp(i w t) at w = w_lo + j dw is the table
    # row exp(i j dw t) times the anchor exp(i w_lo t) of its block of
    # _CHUNK / 2 frequencies.  Anchors are evaluated directly, so rounding
    # does not accumulate along the grid.  Per block:
    #   s2 = sum exp(2 i w t) = table[2 j] @ anchor^2 gives tan(2 w tau) =
    #        Im/Re s2 and the cosine and sine norms (n + |s2|) / 2, (n - |s2|) / 2;
    #   table[j] @ (anchor y), rotated by exp(-i w tau), holds the cosine (real)
    #        and sine (imaginary) projections.
    # The anchors of up to _CHUNK / 2 blocks form one matrix, so a call makes
    # few BLAS calls (each wakes the BLAS threads).  Row j = _FINE a + b of the
    # table is coarse[a] * fine[b], both evaluated directly.
    dw = 2.0 * math.pi * df
    fine = np.exp(1j * dw * np.arange(_FINE)[:, None] * t)
    coarse = np.exp(1j * dw * np.arange(0, _CHUNK, _FINE)[:, None] * t)
    table = (coarse[:, None, :] * fine).reshape(_CHUNK, n)
    block = _CHUNK // 2
    power = np.empty(n_freq)
    for lo in range(0, n_freq, block * block):
        size = min(block * block, n_freq - lo)
        anchor_phase = t[:, None] * (2.0 * math.pi * freqs[lo : lo + size : block])
        s2 = (table[::2] @ np.exp(2j * anchor_phase)).T.ravel()[:size]
        s2_abs = np.abs(s2)
        proj = (table[:block] @ (np.exp(1j * anchor_phase) * y[:, None])).T.ravel()[:size]
        proj *= np.exp(-0.5j * np.angle(s2))
        # A sine norm of zero up to rounding (every sample on a node of the
        # sine, as at the Nyquist frequency of an even sampling) leaves the
        # sine term without support: it contributes nothing.
        s_norm = 0.5 * (n - s2_abs)
        s_term = np.divide(proj.imag**2, s_norm, out=np.zeros(size), where=s_norm > 0.0)
        power[lo : lo + size] = 0.5 / variance * (proj.real**2 / (0.5 * (n + s2_abs)) + s_term)

    peak_index = int(np.argmax(power))
    return PeriodogramResult(
        frequency=freqs,
        power=power,
        peak_frequency=float(freqs[peak_index]),
        peak_power=float(power[peak_index]),
        n_samples=n,
    )


def grid_size(n_samples: int, oversample: int = DEFAULT_OVERSAMPLE) -> int:
    """Number of frequencies on the grid; ValueError unless the grid is usable.

    ``oversample`` must be an integer in [1, MAX_OVERSAMPLE], and the grid
    must hold at least one frequency.
    """
    if not isinstance(oversample, numbers.Integral) or not 1 <= oversample <= MAX_OVERSAMPLE:
        raise ValueError(
            f"oversample must be an integer in [1, {MAX_OVERSAMPLE}], got {oversample!r}"
        )
    n_freq = int(math.floor(0.5 * oversample * n_samples))
    if n_freq < 1:
        raise ValueError(f"oversample={oversample} leaves no frequency for {n_samples} samples")
    return n_freq


def significance(peak_power: float, n_samples: int, convention: str = "fap") -> float:
    """Percentage significance of a peak power under the chosen convention."""
    if convention == "fap":
        if peak_power <= 0.0:
            return 0.0
        # (1 - e^-P)^M through logs to survive large P without overflow to 1-;
        # below P = ln 2, expm1 keeps 1 - e^-P from rounding to 0.
        tail = math.exp(-min(peak_power, 700.0))
        log_term = math.log1p(-tail) if tail < 0.5 else math.log(-math.expm1(-peak_power))
        return 100.0 * math.exp(n_samples * log_term)
    if convention == "power_fraction":
        return min(100.0, 100.0 * 2.0 * peak_power / (n_samples - 1))
    raise ValueError(f"unknown convention {convention!r}")
