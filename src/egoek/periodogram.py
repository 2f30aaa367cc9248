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
    peak_frequency: float | np.ndarray
    peak_power: float | np.ndarray
    n_samples: int


def lomb_scargle(
    abscissa: np.ndarray, values: np.ndarray, oversample: int = DEFAULT_OVERSAMPLE
) -> PeriodogramResult:
    """Classical normalized periodogram of one or several unevenly sampled series.

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
        Sampling positions (normalized energies), shape (n,), and one series
        (n,) or s series (s, n) on them, each with its mean subtracted.  For s
        series ``power`` is (s, F) and each peak field holds s entries.
    """
    t = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != len(t):
        raise ValueError("abscissa must be 1-d and values (n,) or (s, n) on its n samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("abscissa and values must be finite")
    n = len(t)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    n_freq = grid_size(n, oversample)
    rows = np.atleast_2d(y - y.mean(axis=-1, keepdims=True))
    variance = np.sum(rows**2, axis=1, keepdims=True) / (n - 1)
    if np.any(variance == 0.0):
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
    # The anchors of up to _CHUNK / 2 blocks, times every series, form one
    # matrix, so a call makes few BLAS calls (each wakes the BLAS threads).
    # Row j = _FINE a + b of the table is coarse[a] * fine[b], both direct.
    dw = 2.0 * math.pi * df
    fine = np.exp(1j * dw * np.arange(_FINE)[:, None] * t)
    coarse = np.exp(1j * dw * np.arange(0, _CHUNK, _FINE)[:, None] * t)
    table = (coarse[:, None, :] * fine).reshape(_CHUNK, n)
    block = _CHUNK // 2
    power = np.empty((len(rows), n_freq))
    for lo in range(0, n_freq, block * block):
        size = min(block * block, n_freq - lo)
        anchor_phase = t[:, None] * (2.0 * math.pi * freqs[lo : lo + size : block])
        s2 = (table[::2] @ np.exp(2j * anchor_phase)).T.ravel()[:size]
        s2_abs = np.abs(s2)
        weighted = (np.exp(1j * anchor_phase)[:, None, :] * rows.T[:, :, None]).reshape(n, -1)
        proj = (table[:block] @ weighted).reshape(block, len(rows), -1).transpose(1, 2, 0)
        proj = proj.reshape(len(rows), -1)[:, :size] * np.exp(-0.5j * np.angle(s2))
        # A sine norm of zero up to rounding (every sample on a node of the
        # sine, as at the Nyquist frequency of an even sampling) leaves the
        # sine term without support: it contributes nothing.
        s_norm = 0.5 * (n - s2_abs)
        s_term = np.divide(proj.imag**2, s_norm, out=np.zeros(proj.shape), where=s_norm > 0.0)
        power[:, lo : lo + size] = 0.5 / variance * (proj.real**2 / (0.5 * (n + s2_abs)) + s_term)

    peak = np.argmax(power, axis=1)
    if y.ndim == 1:
        return PeriodogramResult(freqs, power[0], float(freqs[peak[0]]), float(power.max()), n)
    return PeriodogramResult(freqs, power, freqs[peak], power.max(axis=1), n)


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
