"""The member pool of ``generate_archive``: how many ``eigvalsh`` calls run at once."""

import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from egoek import ensemble, pipeline
from egoek.archive import write_archive
from egoek.ensemble import EnsembleSpec
from egoek.fock import Statistics

SPEC = EnsembleSpec(Statistics.FERMION, m=3, n_sites=6, k=2, members=6, master_seed=5)
SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def slots_in_child(code="", **environ):
    """``eigvalsh_slots()`` in a fresh interpreter that runs ``code`` first.

    The pool is sized when OpenBLAS loads, so each environment needs its own process.
    """
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    script = f"{code}\nfrom egoek.pipeline import eigvalsh_slots\nprint(eigvalsh_slots())"
    done = subprocess.run([sys.executable, "-c", script], cwd=SRC, env={**env, **environ},
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


def test_default_pool_leaves_one_slot():
    # OpenBLAS starts one thread per processor, up to its build's cap.
    assert slots_in_child() == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity set")
def test_one_thread_pool_gives_a_slot_per_processor():
    assert slots_in_child(OPENBLAS_NUM_THREADS="1") == len(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity set")
def test_affinity_set_before_load_is_seen():
    pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
    assert slots_in_child(pin, OPENBLAS_NUM_THREADS="1") == 1


class FakeLibrary:
    """A loaded library that answers the named queries with fixed counts."""

    def __init__(self, **answers):
        for name, value in answers.items():
            setattr(self, name, lambda value=value: value)


def use_libraries(monkeypatch, handle, bundled):
    """Make ``handle`` numpy's linalg extension and ``bundled`` the one OpenBLAS in its wheel.

    Returns the list of paths loaded, and of glob patterns searched, as they happen.
    """
    calls = []
    extension = np.linalg._umath_linalg.__file__

    def load(path):
        calls.append(path)
        return handle if path == extension else bundled

    def search(pattern):
        calls.append(pattern)
        return [os.path.join(os.path.dirname(pattern), "libopenblas.so")]

    monkeypatch.setattr(pipeline, "ctypes", SimpleNamespace(CDLL=load))
    monkeypatch.setattr(pipeline, "glob", SimpleNamespace(glob=search))
    return calls


def test_library_without_queries_gives_one_slot(monkeypatch):
    calls = use_libraries(monkeypatch, FakeLibrary(), FakeLibrary())
    assert pipeline.eigvalsh_slots() == 1
    assert len(calls) == 3  # the glob, the handle, the bundled library


@pytest.mark.parametrize("name", ["scipy_openblas_get_num_{}64_", "openblas_get_num_{}64_",
                                  "openblas_get_num_{}"])
def test_slots_are_processors_over_threads(name, monkeypatch):
    answers = {name.format("procs"): 8, name.format("threads"): 2}
    use_libraries(monkeypatch, FakeLibrary(**answers), FakeLibrary())
    assert pipeline.eigvalsh_slots() == 4


def test_more_threads_than_processors_gives_one_slot(monkeypatch):
    answers = {"openblas_get_num_procs": 2, "openblas_get_num_threads": 8}
    use_libraries(monkeypatch, FakeLibrary(**answers), FakeLibrary())
    assert pipeline.eigvalsh_slots() == 1


def test_one_query_name_pair_is_never_mixed(monkeypatch):
    answers = {"scipy_openblas_get_num_procs64_": 8, "openblas_get_num_threads": 2}
    use_libraries(monkeypatch, FakeLibrary(**answers), FakeLibrary())
    assert pipeline.eigvalsh_slots() == 1


def test_wheel_library_asked_when_handle_finds_nothing(monkeypatch):
    answers = {"scipy_openblas_get_num_procs64_": 6, "scipy_openblas_get_num_threads64_": 3}
    calls = use_libraries(monkeypatch, FakeLibrary(), FakeLibrary(**answers))
    assert pipeline.eigvalsh_slots() == 2
    pattern, handle, bundled = calls
    assert handle == np.linalg._umath_linalg.__file__
    assert os.path.dirname(pattern) == os.path.dirname(np.__file__) + ".libs"
    assert bundled == os.path.join(os.path.dirname(np.__file__) + ".libs", "libopenblas.so")


def test_cold_threaded_run_builds_plan_once(monkeypatch):
    spec = EnsembleSpec(Statistics.FERMION, m=6, n_sites=12, k=2, members=4)
    built = Counter()
    original = ensemble.enumerate_basis

    def counted(n_sites, particles, statistics):
        built[particles] += 1
        time.sleep(0.05)  # long enough for the other pool thread to miss the cache too
        return original(n_sites, particles, statistics)

    monkeypatch.setattr(ensemble, "enumerate_basis", counted)
    ensemble.build_embedding_plan.cache_clear()
    pipeline.generate_archive(spec, threads=2)
    assert built == {spec.m - spec.k: 1, spec.k: 1}


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
