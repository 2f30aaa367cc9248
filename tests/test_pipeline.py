"""The member pool of ``generate_archive``: how many ``eigvalsh`` calls run at once."""

import os
import sys
import threading
import time

import pytest

from egoek import pipeline
from egoek.archive import write_archive
from egoek.ensemble import EnsembleSpec
from egoek.fock import Statistics

SPEC = EnsembleSpec(Statistics.FERMION, m=3, n_sites=6, k=2, members=6, master_seed=5)


@pytest.mark.parametrize(
    "environ, cores, slots",
    [
        ({}, 2, 1),  # OpenBLAS takes one thread per core
        ({}, 16, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "2"}, 8, 4),
        ({"GOTO_NUM_THREADS": "3"}, 7, 2),
        ({"OPENBLAS_NUM_THREADS": "two"}, 2, 1),  # not a number: the next one, then cores
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "-2"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 2, 1),  # more BLAS threads than cores
    ],
)
def test_slots_from_environment(environ, cores, slots, monkeypatch):
    for name in pipeline.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    assert pipeline.eigvalsh_slots(cores) == slots


def test_usable_cores_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pipeline.usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline.usable_cores() == 1


def count_concurrent_eigenvalues(monkeypatch, slots: int, threads: int):
    """Peak number of ``eigenvalues`` calls in flight in one ``generate_archive``."""
    lock = threading.Lock()
    running, peak = 0, 0
    original = pipeline.eigenvalues

    def counted(matrix):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.05)  # long enough for the other pool threads to arrive
        try:
            return original(matrix)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(pipeline, "eigenvalues", counted)
    monkeypatch.setattr(pipeline, "_EIGVALSH_SLOTS", threading.BoundedSemaphore(slots))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to give a race its chance
    try:
        archive = pipeline.generate_archive(SPEC, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert [r.member for r in archive.records] == list(range(SPEC.members))
    return peak


def test_one_slot_serializes_eigenvalues(monkeypatch):
    assert count_concurrent_eigenvalues(monkeypatch, slots=1, threads=4) == 1


def test_free_slots_let_calls_overlap(monkeypatch):
    # The counter does see overlap when the slots allow it.
    assert count_concurrent_eigenvalues(monkeypatch, slots=4, threads=4) > 1


@pytest.mark.parametrize("statistics, m, n_sites, k", [
    (Statistics.FERMION, 3, 6, 2),
    (Statistics.BOSON, 3, 4, 3),
])
def test_archives_byte_identical_across_threads(statistics, m, n_sites, k, tmp_path):
    spec = EnsembleSpec(statistics, m=m, n_sites=n_sites, k=k, members=6, master_seed=11)
    files = []
    for threads in (1, 2, 4):
        path = tmp_path / f"t{threads}.egoearc"
        write_archive(path, pipeline.generate_archive(spec, threads=threads))
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]
