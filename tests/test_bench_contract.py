"""The names the benchmark harness under ``perfbench/`` reaches inside egoek.

The harness patches module attributes from outside (``perfbench/tracer.py``)
and reads a few more directly, so renaming one of them in ``src/`` breaks the
benchmark without failing any other test here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import egoek
import egoek.cli  # the harness imports it, and with it egoek.pipeline
from egoek.ensemble import build_embedding_plan
from egoek.fock import Statistics

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Read by perfbench/probe.py, run.py, checks.py and tracer.layer_metrics.
HARNESS_READS = [
    ("archive", "read_archive"),
    ("archive", "write_archive"),
    ("cli", "main"),
    ("config", "RunConfig"),
    ("ensemble", "EnsembleSpec"),
    ("ensemble", "build_embedding_plan"),
    ("ensemble", "build_member"),
    ("fluctuations", "unfolding_order"),
    ("fock", "Statistics"),
    ("pipeline", "generate_archive"),
    ("pipeline", "moment_summary"),
    ("qhermite", "PRODUCT_FLOOR"),
    ("qhermite", "support_halfwidth"),
    ("spectra", "eigenvalues"),
]


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py loaded by path (its dataclasses need a sys.modules entry)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists(tracer):
    table = tracer._wrap_table(egoek)
    assert table
    for module, attr, *_ in table:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("module, attr", HARNESS_READS, ids=[".".join(p) for p in HARNESS_READS])
def test_harness_reads_exist(module, attr):
    assert hasattr(importlib.import_module(f"egoek.{module}"), attr)


def test_plan_groups_unpack_into_equal_length_triples():
    plan = build_embedding_plan(Statistics.FERMION, 4, 8, 2)
    assert plan.groups
    for a_idx, g_idx, w in plan.groups:
        assert len(a_idx) == len(g_idx) == len(w) > 0


def test_harness_keyword_calls(tmp_path):
    """The calls perfbench/ makes, with their keywords, and the fields it reads back."""
    spec = egoek.ensemble.EnsembleSpec(
        statistics=Statistics.FERMION, m=3, n_sites=6, k=2, members=2, master_seed=5
    )
    config = egoek.config.RunConfig(ensemble=spec)
    archive = egoek.pipeline.generate_archive(spec, threads=1)
    assert archive.spec == config.ensemble and len(archive.records) == 2
    # checks.archive_matches compares member, seed and eigenvalues of every
    # record, generated and read back; tracer._member_attr reads the member
    # of the k-body matrix that embed receives.
    path = tmp_path / "spectra.egoearc"
    egoek.archive.write_archive(path, archive)
    for records in (archive.records, egoek.archive.read_archive(path).records):
        for i, record in enumerate(records):
            assert record.member == i == egoek.ensemble.sample_kbody(spec, i).member
            assert record.eigenvalues.shape == (spec.dimension,)
            assert (
                record.seed
                == egoek.ensemble.member_seed(spec.master_seed, i)
                == egoek.ensemble.sample_kbody(spec, i).seed
                == egoek.ensemble.build_member(spec, i).seed
            )
    # checks.trace_identity takes the trace of one member's matrix; probe.py
    # diagonalizes a bare array and tracer._eig_attrs reads its dimension.
    matrix = egoek.ensemble.build_member(spec, 1).matrix
    assert matrix.shape == (spec.dimension, spec.dimension)
    assert egoek.spectra.eigenvalues(matrix).dimension == spec.dimension
    # run.py records the package version in its provenance.
    assert isinstance(egoek.__version__, str) and egoek.__version__


def test_cli_passes_threads_by_keyword(tracer, tmp_path):
    """tracer._threads_attr reads ``threads`` from the keywords of the pipeline calls."""
    recorder = tracer.Recorder()
    archive = str(tmp_path / "spectra.egoearc")
    common = ["--threads", "2", "--out", str(tmp_path)]
    with tracer.Tracing(recorder, egoek):
        assert egoek.cli.main(["generate", "--statistics", "fermion", "-m", "4", "-N", "9",
                               "-k", "2", "--members", "2"] + common) == 0
        for stage in ("decompose", "fluct"):
            assert egoek.cli.main([stage, "--archive", archive, "--orders", "2,3"] + common) == 0
    threads = [
        (s.name, s.attrs["threads"])
        for s in sorted(recorder.spans, key=lambda s: s.start)
        if s.name in ("pipeline.generate_archive", "pipeline.decompose_archive")
    ]
    assert threads == [
        ("pipeline.generate_archive", 2),
        ("pipeline.decompose_archive", 2),
        ("pipeline.decompose_archive", 2),
    ]
