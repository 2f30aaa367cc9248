"""Brute-force second-quantization oracles built from explicit operator matrices.

Independent of the package's amplitude bookkeeping: fermion operators are
dense Jordan-Wigner matrices on the full 2^N space, boson operators live on
the total-occupation-truncated product space, and k-body operators are formed
by literal matrix products.  The GOE rigidity oracle integrates the
two-level cluster function with adaptive quadrature; its large-L asymptote
is kept here as a reference too.  The direct Lomb-Scargle form, four trig
calls per (frequency, sample) pair, is the parity oracle of the recurrence.
The per-row CSV writer (``csv.writer`` over f-string fields) and the row
builders of every table are the byte-parity oracle of the block writer.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate, sparse, special

from egoek import periodogram
from egoek.fock import Statistics, enumerate_basis


def fermion_operators(n_sites: int):
    """Annihilators and creators on the 2^N space; sign counts occupied lower bits."""
    dim = 1 << n_sites
    ann = []
    for v in range(n_sites):
        rows, cols, vals = [], [], []
        bit = 1 << v
        for state in range(dim):
            if state & bit:
                sign = (-1) ** bin(state & (bit - 1)).count("1")
                rows.append(state ^ bit)
                cols.append(state)
                vals.append(float(sign))
        ann.append(sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    cre = [a.T.tocsr() for a in ann]
    return cre, ann


def fermion_pair_operator(cre, ann, create_labels, annihilate_labels):
    """Pair-transfer operator: annihilate in decreasing label order, then create
    in increasing order (first-applied factor rightmost in the product)."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in sorted(annihilate_labels, reverse=True):
        op = ann[v] @ op
    for w in sorted(create_labels):
        op = cre[w] @ op
    return op


def fermion_pair_operator_literal(cre, ann, create_labels, annihilate_labels):
    """Same operator written as the literal normal-ordered product
    f+_{w1}..f+_{wk} f_{vk}..f_{v1}; equal to the sequential form because
    reversing each k-block contributes (-1)^(k(k-1)/2) twice."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in sorted(annihilate_labels):
        op = ann[v] @ op
    for w in sorted(create_labels, reverse=True):
        op = cre[w] @ op
    return op


def boson_basis(n_sites: int, max_total: int):
    """Occupation tuples with total <= max_total."""
    states: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == n_sites:
            states.append(tuple(prefix))
            return
        for n in range(remaining + 1):
            rec(prefix + [n], remaining - n)

    rec([], max_total)
    return states, {s: i for i, s in enumerate(states)}


def boson_operators(n_sites: int, max_total: int):
    states, index = boson_basis(n_sites, max_total)
    dim = len(states)
    ann, cre = [], []
    for v in range(n_sites):
        rows, cols, vals = [], [], []
        for i, s in enumerate(states):
            if s[v] > 0:
                t = list(s)
                t[v] -= 1
                rows.append(index[tuple(t)])
                cols.append(i)
                vals.append(math.sqrt(s[v]))
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        ann.append(a)
        cre.append(a.T.tocsr())
    return states, index, cre, ann


def _multiset_norm(labels) -> float:
    mult: dict[int, int] = {}
    for v in labels:
        mult[v] = mult.get(v, 0) + 1
    out = 1.0
    for nu in mult.values():
        out *= math.factorial(nu)
    return out


def boson_pair_operator(cre, ann, create_labels, annihilate_labels):
    """Normalized pair-transfer operator; boson factors commute."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in annihilate_labels:
        op = ann[v] @ op
    for w in create_labels:
        op = cre[w] @ op
    return op / math.sqrt(_multiset_norm(create_labels) * _multiset_norm(annihilate_labels))


def sector_indices(n_sites: int, m: int, statistics: Statistics, index=None):
    """Full-space indices of the m-particle sector, in enumerate_basis order."""
    basis = enumerate_basis(n_sites, m, statistics)
    if statistics is Statistics.FERMION:
        return [cfg.bitmask for cfg in basis]
    return [index[cfg.occupations] for cfg in basis]


def identity_embedding_oracle(n_sites: int, k: int, statistics: Statistics, max_total: int = 6):
    """Full-space matrix of the summed diagonal pair-transfer operators.

    Restricted to an m-particle sector this must equal C(m, k) times the
    identity for every m.
    """
    from egoek.fock import enumerate_kconfigs

    kconfigs = enumerate_kconfigs(n_sites, k, statistics)
    if statistics is Statistics.FERMION:
        cre, ann = fermion_operators(n_sites)
        dim = cre[0].shape[0]
        total = sparse.csr_matrix((dim, dim))
        for kc in kconfigs:
            down = sparse.identity(dim, format="csr")
            for v in sorted(kc.indices, reverse=True):
                down = ann[v] @ down
            total = total + down.T @ down
        return total, None
    states, index, cre, ann = boson_operators(n_sites, max_total)
    dim = cre[0].shape[0]
    total = sparse.csr_matrix((dim, dim))
    for kc in kconfigs:
        down = sparse.identity(dim, format="csr")
        for v in kc.indices:
            down = ann[v] @ down
        down = down / math.sqrt(_multiset_norm(kc.indices))
        total = total + down.T @ down
    return total, index


def embed_oracle(v_matrix: np.ndarray, n_sites: int, m: int, k: int, statistics: Statistics):
    """m-sector matrix of sum_{alpha,gamma} V[alpha,gamma] A+_alpha A_gamma."""
    from egoek.fock import enumerate_kconfigs

    kconfigs = enumerate_kconfigs(n_sites, k, statistics)
    if statistics is Statistics.FERMION:
        cre, ann = fermion_operators(n_sites)
        index = None
        pair = lambda a, g: fermion_pair_operator(cre, ann, a.indices, g.indices)
    else:
        _states, index, cre, ann = boson_operators(n_sites, max_total=m)
        pair = lambda a, g: boson_pair_operator(cre, ann, a.indices, g.indices)
    dim = cre[0].shape[0]
    total = sparse.csr_matrix((dim, dim))
    for ia, alpha in enumerate(kconfigs):
        for ig, gamma in enumerate(kconfigs):
            if v_matrix[ia, ig] != 0.0:
                total = total + v_matrix[ia, ig] * pair(alpha, gamma)
    sector = sector_indices(n_sites, m, statistics, index)
    return np.asarray(total.todense())[np.ix_(sector, sector)]


def goe_cluster_y2(r: float) -> float:
    """GOE two-level cluster function, written out point by point."""
    if r == 0.0:
        return 1.0
    x = math.pi * r
    s = math.sin(x) / x
    ds = math.cos(x) / r - math.sin(x) / (x * r)
    return s * s + ds * (0.5 - special.sici(x)[0] / math.pi)


def goe_delta3_quad(length: float) -> float:
    """GOE Delta3(L) from Mehta's cluster-function integral by adaptive quadrature."""
    L = float(length)
    integral, _err = integrate.quad(
        lambda r: (L - r) ** 3 * (2 * L**2 - 9 * L * r - 3 * r**2) * goe_cluster_y2(r),
        0.0,
        L,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return L / 15.0 - integral / (15.0 * L**4)


def goe_delta3(lengths) -> np.ndarray:
    """Large-L asymptote of the GOE rigidity, (ln(2 pi L) + gamma - 5/4 - pi^2/8) / pi^2.

    Only the L -> infinity limit of ``goe_delta3_exact``: it gives 0.0633
    against the GOE value 0.1024 at L=2, and it is negative below L ~ 1.07.
    """
    L = np.asarray(lengths, dtype=float)
    return (np.log(2.0 * math.pi * L) + np.euler_gamma - 1.25 - math.pi**2 / 8.0) / math.pi**2


def lomb_scargle_direct(
    abscissa: np.ndarray,
    values: np.ndarray,
    oversample: int = periodogram.DEFAULT_OVERSAMPLE,
    hifac: float = periodogram.DEFAULT_HIFAC,
    convention: str = "fap",
) -> periodogram.PeriodogramResult:
    """Normalized Lomb-Scargle periodogram with four trig calls per (frequency, sample).

    The direct form of ``periodogram.lomb_scargle`` on the same grid:
    tan(2 w tau) = sum(sin 2 w t) / sum(cos 2 w t), and the cosine and sine
    projections and norms are summed from cos(w t - w tau) and sin(w t - w tau).
    """
    t = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("abscissa and values must be equal-length 1-d arrays")
    n = len(t)
    if n < periodogram.MIN_SAMPLES:
        raise ValueError(f"need at least {periodogram.MIN_SAMPLES} samples")
    if convention not in periodogram.LAMBDA_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    y = y - y.mean()
    variance = float(np.sum(y**2)) / (n - 1)
    if variance == 0.0:
        raise periodogram.DegenerateSeriesError("series is constant")

    span = float(t.max() - t.min())
    if span <= 0.0:
        raise ValueError("abscissa has zero span")
    df = 1.0 / (span * oversample)
    n_freq = int(math.floor(0.5 * oversample * hifac * n))
    freqs = df * np.arange(1, n_freq + 1)

    chunk = 256
    power = np.empty(n_freq)
    for lo in range(0, n_freq, chunk):
        omega = 2.0 * math.pi * freqs[lo : lo + chunk, None]
        two_wt = 2.0 * omega * t[None, :]
        tau_phase = 0.5 * np.arctan2(np.sum(np.sin(two_wt), axis=1), np.sum(np.cos(two_wt), axis=1))
        arg = omega * t[None, :] - tau_phase[:, None]
        cos_arg = np.cos(arg)
        sin_arg = np.sin(arg)
        c_proj = cos_arg @ y
        s_proj = sin_arg @ y
        c_norm = np.sum(cos_arg**2, axis=1)
        s_norm = np.sum(sin_arg**2, axis=1)
        power[lo : lo + chunk] = 0.5 / variance * (
            c_proj**2 / c_norm + s_proj**2 / s_norm
        )

    peak_index = int(np.argmax(power))
    peak_power = float(power[peak_index])
    return periodogram.PeriodogramResult(
        frequency=freqs,
        power=power,
        peak_frequency=float(freqs[peak_index]),
        peak_power=peak_power,
        significance=periodogram.significance(peak_power, n, convention),
        n_samples=n,
        convention=convention,
    )


def csv_table(header, rows) -> bytes:
    """Bytes of a header and rows written by ``csv.writer`` (excel dialect)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def delta_series_rows(analyses, orders) -> list[list]:
    rows = []
    for analysis in analyses:
        for order in orders:
            series = analysis.decomposition.series[order]
            for e_hat, delta in zip(series.e_hat, series.delta):
                rows.append([analysis.member, order, f"{e_hat:.12g}", f"{delta:.12g}"])
    return rows


def periodogram_rows(k, grouped, orders) -> list[list]:
    rows = []
    for order in orders:
        mean_power = np.mean([r.power for r in grouped[order]], axis=0)
        freqs = grouped[order][0].frequency
        for f, p in zip(freqs, mean_power):
            rows.append([k, order, f"{f:.12g}", f"{p:.12g}"])
    return rows


def nnsd_rows(hist) -> list[list]:
    return [
        [f"{lo:.12g}", f"{hi:.12g}", f"{d:.12g}", f"{w:.12g}", f"{p:.12g}"]
        for lo, hi, d, w, p in zip(
            hist.bin_edges[:-1], hist.bin_edges[1:], hist.density, hist.wigner, hist.poisson
        )
    ]


def delta3_rows(curve) -> list[list]:
    return [
        [f"{L:.12g}", f"{v:.12g}", f"{g:.12g}", f"{p:.12g}"]
        for L, v, g, p in zip(curve.lengths, curve.values, curve.goe, curve.poisson)
    ]


def mode_width_rows(curves) -> list[list]:
    rows = []
    for curve in curves:
        for e_hat, value in zip(curve.grid, curve.values):
            rows.append(
                [
                    curve.statistics.value,
                    curve.m,
                    curve.n_sites,
                    curve.k,
                    f"{curve.q:.12g}",
                    curve.n,
                    f"{e_hat:.12g}",
                    f"{value:.12g}",
                ]
            )
    return rows


def table1_rows(summaries) -> list[list]:
    return [
        [
            summary.statistics,
            summary.m,
            summary.n_sites,
            summary.k,
            summary.members,
            f"{summary.gamma1_mean:.6f}",
            f"{summary.gamma1_se:.6f}",
            f"{summary.gamma2_mean:.6f}",
            f"{summary.gamma2_se:.6f}",
            f"{summary.q_mean:.6f}",
        ]
        for summary in summaries
    ]
