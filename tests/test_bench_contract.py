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
