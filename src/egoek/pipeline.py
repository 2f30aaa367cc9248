"""End-to-end driver tying generation, decomposition, and fluctuation analysis.

Members are pure functions of (spec, member index), so the thread count
changes wall time but never results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import decomposition as dc
from . import fluctuations as fl
from . import periodogram as pg
from .archive import MemberRecord, SpectrumArchive
from .ensemble import EnsembleSpec, build_member, check_dense_size, member_seed
from .spectra import Spectrum, eigenvalues, moments


def _map_members(function, items, threads: int) -> list:
    """``function`` over ``items`` in order, on the calling thread when threads == 1."""
    if threads == 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(function, items))


def _member_record(spec: EnsembleSpec, member: int) -> MemberRecord:
    ham = build_member(spec, member)
    return MemberRecord(
        member=member,
        seed=member_seed(spec.master_seed, member),
        eigenvalues=eigenvalues(ham).eigenvalues,
    )


def generate_archive(spec: EnsembleSpec, threads: int = 1) -> SpectrumArchive:
    """Build and diagonalize every member, in member order regardless of threads."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    check_dense_size(spec)
    records = _map_members(lambda i: _member_record(spec, i), range(spec.members), threads)
    return SpectrumArchive(spec=spec, records=tuple(records))


def archive_spectra(archive: SpectrumArchive) -> list[Spectrum]:
    return [
        Spectrum(eigenvalues=r.eigenvalues, spec=archive.spec, member=r.member)
        for r in archive.records
    ]


@dataclass(frozen=True)
class MemberAnalysis:
    member: int
    q: float
    decomposition: dc.MemberDecomposition


def decompose_archive(
    archive: SpectrumArchive, orders: tuple[int, ...], threads: int = 1
) -> list[MemberAnalysis]:
    """Per-member smooth fits and level-motion series for every order."""

    def one(spectrum: Spectrum) -> MemberAnalysis:
        q = moments(spectrum).q_est
        return MemberAnalysis(
            member=spectrum.member,
            q=q,
            decomposition=dc.decompose_member(spectrum, q, orders),
        )

    return _map_members(one, archive_spectra(archive), threads)


def periodograms_by_order(
    analyses: list[MemberAnalysis],
    orders: tuple[int, ...],
    trim: float = fl.DEFAULT_TRIM,
    oversample: int = pg.DEFAULT_OVERSAMPLE,
    convention: str = "fap",
) -> dict[int, list[pg.PeriodogramResult]]:
    """Per-order Lomb-Scargle results over the central window of each member."""
    out: dict[int, list[pg.PeriodogramResult]] = {o: [] for o in orders}
    for analysis in analyses:
        for order in orders:
            series = analysis.decomposition.series[order]
            window = fl.central_window(len(series.delta), trim)
            out[order].append(
                pg.lomb_scargle(
                    series.e_hat[window],
                    series.delta[window],
                    oversample=oversample,
                    convention=convention,
                )
            )
    return out


def unfolded_ensemble(
    archive: SpectrumArchive,
    analyses: list[MemberAnalysis],
    trim: float = fl.DEFAULT_TRIM,
) -> list[fl.UnfoldedSpectrum]:
    """Unfold every member from its level motion at the policy order.

    ``analyses`` come from ``decompose_archive`` and must include the order
    ``fluctuations.unfolding_order`` picks for the archive's system.
    """
    spec = archive.spec
    order = fl.unfolding_order(spec.statistics, spec.k)
    return [
        fl.unfold(spectrum, analysis.decomposition.series[order], trim=trim)
        for spectrum, analysis in zip(archive_spectra(archive), analyses, strict=True)
    ]


@dataclass(frozen=True)
class MomentSummary:
    statistics: str
    m: int
    n_sites: int
    k: int
    members: int
    gamma1_mean: float
    gamma1_se: float
    gamma2_mean: float
    gamma2_se: float
    q_mean: float
    variance_mean: float


def moment_summary(archive: SpectrumArchive) -> MomentSummary:
    """Ensemble means and standard errors of the spectral shape parameters."""
    spec = archive.spec
    stats = [moments(s) for s in archive_spectra(archive)]
    g1 = np.array([s.skewness for s in stats])
    g2 = np.array([s.excess for s in stats])
    root_n = math.sqrt(len(stats))
    return MomentSummary(
        statistics=spec.statistics.value,
        m=spec.m,
        n_sites=spec.n_sites,
        k=spec.k,
        members=spec.members,
        gamma1_mean=float(g1.mean()),
        gamma1_se=float(g1.std(ddof=1) / root_n) if len(stats) > 1 else 0.0,
        gamma2_mean=float(g2.mean()),
        gamma2_se=float(g2.std(ddof=1) / root_n) if len(stats) > 1 else 0.0,
        q_mean=float(np.mean([s.q_est for s in stats])),
        variance_mean=float(np.mean([s.variance for s in stats])),
    )
