"""End-to-end driver tying generation, decomposition, and fluctuation analysis.

Members are pure functions of (spec, member index), so the thread count
changes wall time but never results.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import decomposition as dc
from . import fluctuations as fl
from . import periodogram as pg
from .archive import SpectrumArchive
from .ensemble import EnsembleSpec, build_member, check_dense_size
from .spectra import eigenvalues, moments

#: Read by OpenBLAS when it loads, in this order; the first positive integer wins.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cores() -> int:
    """Cores this process may run on (its affinity set where the OS reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def eigvalsh_slots(cores: int) -> int:
    """How many ``eigvalsh`` calls fit on ``cores`` at once: max(1, cores // BLAS threads).

    Each call is taken to run on the BLAS thread count the environment sets
    through ``BLAS_THREAD_VARIABLES``, or on one thread per core when none
    holds a positive integer.  That is OpenBLAS's pool as it loads; a build's
    thread cap below the core count, or a pool resized at run time, is not
    seen, so on a host with more cores than the cap the count is too low.
    """
    blas_threads = cores
    for name in BLAS_THREAD_VARIABLES:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cores // blas_threads)


# Pool threads beyond these slots would only split the cores one BLAS call
# already uses between calls.
_EIGVALSH_SLOTS = threading.BoundedSemaphore(eigvalsh_slots(usable_cores()))


def _diagonalize(matrix):
    """``eigenvalues`` of one member once an ``eigvalsh`` slot is free."""
    with _EIGVALSH_SLOTS:
        return eigenvalues(matrix)


def _map_members(function, items, threads: int) -> list:
    """``function`` over ``items`` in order, on the calling thread when threads == 1."""
    if threads == 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(function, items))


def generate_archive(spec: EnsembleSpec, threads: int = 1) -> SpectrumArchive:
    """Build and diagonalize every member, in member order regardless of threads.

    Members are built on up to ``threads`` pool threads, but only
    ``_EIGVALSH_SLOTS`` of them diagonalize at once, so one member's build
    overlaps another's ``eigvalsh``.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    check_dense_size(spec, min(threads, spec.members))
    members = range(spec.members)
    records = _map_members(lambda i: _diagonalize(build_member(spec, i)), members, threads)
    return SpectrumArchive(spec=spec, records=tuple(records))


def decompose_archive(
    archive: SpectrumArchive, orders: tuple[int, ...], threads: int = 1
) -> list[dc.MemberDecomposition]:
    """Per-member smooth fits and level-motion series for every order, at q = q_est."""
    return _map_members(
        lambda s: dc.decompose_member(s, moments(s).q_est, orders),
        archive.records,
        threads,
    )


def periodograms_by_order(
    decompositions: list[dc.MemberDecomposition],
    orders: tuple[int, ...],
    trim: float = fl.DEFAULT_TRIM,
    oversample: int = pg.DEFAULT_OVERSAMPLE,
) -> list[pg.PeriodogramResult]:
    """One Lomb-Scargle call per member over its central window; row i is ``orders[i]``."""
    results = []
    for decomposition in decompositions:
        window = fl.central_window(len(decomposition.e_hat), trim)
        deltas = np.stack([decomposition.delta[order][window] for order in orders])
        results.append(pg.lomb_scargle(decomposition.e_hat[window], deltas, oversample=oversample))
    return results


def unfolded_ensemble(
    archive: SpectrumArchive,
    decompositions: list[dc.MemberDecomposition],
    trim: float = fl.DEFAULT_TRIM,
) -> list[np.ndarray]:
    """Unfolded levels of every member, from its level motion at the policy order.

    ``decompositions`` come from ``decompose_archive`` and must include the
    order ``fluctuations.unfolding_order`` picks for the archive's system.
    """
    spec = archive.spec
    order = fl.unfolding_order(spec.statistics, spec.k)
    return [
        fl.unfold(spectrum, decomposition.delta[order], trim=trim)
        for spectrum, decomposition in zip(archive.records, decompositions, strict=True)
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
    stats = [moments(s) for s in archive.records]
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
