"""End-to-end driver tying generation, decomposition, and fluctuation analysis.

Members are pure functions of (spec, member index), so the thread count
changes wall time but never results.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import decomposition as dc
from . import ensemble
from . import fluctuations as fl
from . import periodogram as pg
from .archive import SpectrumArchive
from .ensemble import EnsembleSpec, build_member, check_dense_size
from .spectra import eigenvalues, moments


def eigvalsh_slots() -> int:
    """How many ``eigvalsh`` calls fit at once: max(1, processors // pool threads).

    Both counts are OpenBLAS's own, asked by their numpy 2, numpy 1.x and
    system OpenBLAS names, first of the handle of numpy's linalg extension,
    which resolves the libraries it links, then of the OpenBLAS numpy's wheel
    bundles (all Windows can ask).  A BLAS that answers none gets one slot.
    """
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for library in map(ctypes.CDLL, [np.linalg._umath_linalg.__file__, *bundled]):
        for name in ("scipy_openblas_get_num_{}64_", "openblas_get_num_{}64_",
                     "openblas_get_num_{}"):
            procs, threads = (getattr(library, name.format(n), None) for n in ("procs", "threads"))
            if procs and threads:
                return max(1, procs() // threads())
    return 1


# Pool threads beyond these slots would only split the cores one BLAS call
# already uses between calls.
_EIGVALSH_SLOTS = threading.BoundedSemaphore(eigvalsh_slots())


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
    overlaps another's ``eigvalsh``.  The plan is built once, before the pool.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    check_dense_size(spec, min(threads, spec.members))
    ensemble.build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
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
