"""Smoke check of the benchmark itself on criterion 9's system (fermions m=4,
N=8, k=2), traced and untraced.  Not part of Tier-1; run with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared(section):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(section)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        # Each end-to-end metric is printed by name with its unit as well.
        if not trace:
            assert any(line.startswith(f"{name} ") and line.endswith(f" {metric['unit']}")
                       for line in done.stdout.splitlines()), name


def test_traced_spans_nest_under_their_callers():
    sys.path.insert(0, str(HERE))
    import probe
    import tracer

    recorder = tracer.Recorder()
    holder = {}

    def install(egoek):
        holder["tracing"] = tracer.Tracing(recorder, egoek)
        holder["tracing"].__enter__()

    egoek, _timings = probe.measure_setup(ROOT / "src", "fermion", 4, 8, 2, install)
    tracing = holder["tracing"]
    tracing.__exit__(None, None, None)
    spec = egoek.ensemble.EnsembleSpec(egoek.fock.Statistics.FERMION, 4, 8, 2, members=4)
    with tracing:
        archive = egoek.pipeline.generate_archive(spec, threads=2)
    # The wrappers are gone again and the result is the untraced one.
    assert not hasattr(egoek.pipeline.generate_archive, "__wrapped__")
    plain = egoek.pipeline.generate_archive(spec, threads=1)
    assert all((a.eigenvalues == b.eigenvalues).all() for a, b in zip(archive.records, plain.records))

    by_id = {s.sid: s for s in recorder.spans}
    (top,) = [s for s in recorder.spans if s.name == "pipeline.generate_archive"]
    members = [s for s in recorder.spans if s.name == "ensemble.build_member"]
    assert sorted(s.member for s in members) == [0, 1, 2, 3]
    assert all(s.parent == top.sid for s in members)
    for s in recorder.spans:
        if s.name == "ensemble.embed":
            assert by_id[s.parent].name == "ensemble.build_member"
            assert s.member == by_id[s.parent].member
    own = tracer.self_times(recorder.spans)
    assert all(value >= -1e-9 for value in own.values())
