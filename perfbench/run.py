"""Benchmark of egoek's generate -> decompose -> fluct pipeline.

One process acts as a single closed-loop client: it calls ``egoek.cli.main``
for ``generate``, then ``decompose --orders 2,3,4,5,6``, then ``fluct --orders
2,3,4,5,6``, each after the previous one has returned, and runs such jobs,
each on a fresh ensemble, until ``--seconds`` are used.  ``--trace 1``
instead runs a fixed traced plan and reports per-layer figures.  The last
stdout line is the JSON result:

    python3 perfbench/run.py --workload fermion-k2 --seed 7 --seconds 35 --trace 0

Workloads, metrics and their units are defined in BENCHMARK.json at the root
of the checkout; see perfbench/README.md for what each figure is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
ORDERS = (2, 3, 4, 5, 6)
ORDER_ARG = ",".join(map(str, ORDERS))
ARCHIVE = "spectra.egoearc"
FULL_JOB = ("generate", "decompose", "fluct")
SHORT_JOB = FULL_JOB[:2]
# fluct costs about twenty times decompose per member, and a member's
# decompose cost spans an order of magnitude with its shape parameter q on
# boson-k2.  So an untraced run carries only every FLUCT_EVERY-th job through
# fluct and stops the others after decompose: the short stages then see
# several times more members than the long one in the same run time.
FLUCT_EVERY = 5  # jobs
PROBE_EVERY = 10  # jobs
PROBE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    statistics: str
    m: int
    n_sites: int
    k: int
    threads: int
    members: int  # per job of an untraced run: at least one per worker thread
    trace_members: int  # full job of a traced run: 5 periodograms per member
    sweep_members: int  # traced generate + decompose job, for per-call percentiles


WORKLOADS = {
    "fermion-k2": Workload("fermion", 6, 12, 2, 1, 1, 20, 100),
    "boson-k2": Workload("boson", 10, 5, 2, 1, 1, 20, 100),
    "boson-k6-t2": Workload("boson", 10, 5, 6, 2, 2, 20, 100),
    # Criterion 9's small system, for perfbench/test_smoke.py only.
    "smoke": Workload("fermion", 4, 8, 2, 1, 3, 2, 4),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_job(egoek, wl: Workload, seed: int, members: int, out: Path, tally: Tally,
            recorder=None, stages=FULL_JOB) -> dict[str, float]:
    """One batch job; returns the wall times of the ``cli.main`` calls per stage."""
    common = ["--threads", str(wl.threads), "--out", str(out)]
    argv = {
        "generate": ["generate", "--statistics", wl.statistics, "-m", str(wl.m),
                     "-N", str(wl.n_sites), "-k", str(wl.k), "--members", str(members),
                     "--seed", str(seed)] + common,
        "decompose": ["decompose", "--archive", str(out / ARCHIVE), "--orders", ORDER_ARG] + common,
        "fluct": ["fluct", "--archive", str(out / ARCHIVE), "--orders", ORDER_ARG] + common,
    }
    walls: dict[str, float] = {}
    broken = False
    for stage in stages:
        tally.attempted += members
        if broken:
            tally.failed += members
            continue
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if recorder is None:
                    code = egoek.cli.main(argv[stage])
                else:
                    code, _span = recorder.call(f"cli.{stage}", egoek.cli.main, (argv[stage],), {})
        except Exception:  # a crash inside the program is a failed operation
            traceback.print_exc()
            code = -1
        walls[stage] = time.perf_counter() - start
        if code != 0:
            print(f"error: egoek {stage} exited with {code}", file=sys.stderr)
            tally.failed += members
            broken = True
    return walls


def probe_setup(wl: Workload) -> float:
    """Set-up seconds of a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--src", str(ROOT / "src"),
           wl.statistics, str(wl.m), str(wl.n_sites), str(wl.k)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise probe.SetupError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def spec_of(egoek, wl: Workload, seed: int, members: int):
    return egoek.ensemble.EnsembleSpec(
        statistics=egoek.fock.Statistics(wl.statistics), m=wl.m, n_sites=wl.n_sites,
        k=wl.k, members=members, master_seed=seed,
    )


def check_job(egoek, checker, spec, out: Path, ref_dir: Path, reference) -> None:
    """Every check of one full job against the regenerated reference archive."""
    config = egoek.config.RunConfig(ensemble=spec)
    checker.archive_matches(egoek, out, reference, ref_dir)
    checker.decompose_outputs(out, spec.members, ORDERS, spec.dimension)
    checker.fluct_outputs(egoek, out, spec, ORDERS, config.trim, config.oversample)


def git_rev() -> str | None:
    """HEAD of the checkout read from .git, without walking above the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(egoek, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "argv": sys.argv,
        "seed": seed,
        "egoek": egoek.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads_env": {
                var: os.environ.get(var)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EGOE_THREADS")
            },
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def job_seed(seed: int, job: int) -> int:
    """egoek's master seed for job ``job`` of a run with benchmark seed ``seed``.

    Every job draws a fresh ensemble: the cost of decomposing a member grows
    like 1/(1 - q) in its shape parameter, so on ``boson-k2`` one member can
    cost ten times another.  The median over many small ensembles is steady
    where one ensemble is not.
    """
    return 1000 * seed + job


def untraced_run(wl: Workload, seed: int, seconds: float, tally: Tally, record: dict):
    egoek, first = probe.measure_setup(ROOT / "src", wl.statistics, wl.m, wl.n_sites, wl.k)
    setup_samples = [first["setup_s"]]

    import checks

    checker = checks.Checker()
    out, ref_dir = WORK / "job", WORK / "reference"
    jobs = []
    started = time.perf_counter()
    while True:
        # Fresh-process set-up probes between jobs spread the set-up samples
        # over the run, like the jobs, instead of bunching them at its start.
        if len(jobs) % PROBE_EVERY == 0:
            setup_samples.append(probe_setup(wl))
        stages = FULL_JOB if len(jobs) % FLUCT_EVERY == 0 else SHORT_JOB
        spec = spec_of(egoek, wl, job_seed(seed, len(jobs)), wl.members)
        walls = run_job(egoek, wl, spec.master_seed, wl.members, out, tally, stages=stages)
        jobs.append({"seed": spec.master_seed, "walls": walls})
        if len(walls) < len(stages):
            break
        # Outside the timed calls, but inside the run's time budget.  The
        # --threads 1 regeneration costs as much as the generate call, so
        # only jobs that went through fluct get the full set of checks.
        if stages == FULL_JOB:
            reference = checker.reference(egoek, spec, ref_dir)
            check_job(egoek, checker, spec, out, ref_dir, reference)
            jobs[-1]["fingerprint"] = checks.fingerprint(egoek, out, reference)
            if len(jobs) == 1:
                checker.trace_identity(egoek, spec, reference, seed)
        else:
            checker.decompose_outputs(out, spec.members, ORDERS, spec.dimension)
        used = time.perf_counter() - started
        if used * (1 + 1 / len(jobs)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_samples)
    record["fingerprint"] = jobs[0].get("fingerprint")
    record["setup_samples_s"] = setup_samples
    record["jobs"] = jobs
    record["provenance"] = provenance(egoek, seed)

    # A failed stage ends the run; a stage without a single call reports a
    # zero rate, and the failure makes the result incorrect anyway.
    def median_wall(stage):
        walls = [job["walls"][stage] for job in jobs if stage in job["walls"]]
        return statistics.median(walls) if walls else math.inf

    median_s = {stage: median_wall(stage) for stage in FULL_JOB}
    job_s = sum(median_s.values())
    return {
        "setup_s": setup_s,
        "generate_members_per_s": wl.members / median_s["generate"],
        "decompose_members_per_s": wl.members / median_s["decompose"],
        "fluct_members_per_s": wl.members / median_s["fluct"],
        "pipeline_s": setup_s + (job_s if math.isfinite(job_s) else 0.0),
        "peak_rss_mb": peak_rss_mb,
    }, checker


def traced_run(wl: Workload, seed: int, tally: Tally, record: dict):
    """Fixed plan, independent of ``--seconds``:

    1. in-process set-up, traced, so the plan build is seen;
    2. traced generate + decompose of ``sweep_members`` members;
    3. traced full job of ``trace_members`` members;
    4. the untraced run's first job, untraced and traced in turn, twice; the
       difference of the medians is the tracing overhead.

    Every job uses the ensemble of the untraced run's first job (or a larger
    one with the same master seed).
    """
    import tracer

    recorder = tracer.Recorder()
    holder = {}

    def install(egoek):
        holder["tracing"] = tracer.Tracing(recorder, egoek)
        holder["tracing"].__enter__()

    egoek, _first = probe.measure_setup(ROOT / "src", wl.statistics, wl.m, wl.n_sites, wl.k, install)
    tracing = holder["tracing"]
    tracing.__exit__(None, None, None)

    import checks

    checker = checks.Checker()
    first_seed = job_seed(seed, 0)
    config = egoek.config.RunConfig(ensemble=spec_of(egoek, wl, first_seed, wl.members))

    sweep, big, plain, traced = (WORK / name for name in ("sweep", "big", "plain", "traced"))
    with tracing:
        run_job(egoek, wl, first_seed, wl.sweep_members, sweep, tally, recorder, stages=SHORT_JOB)
        run_job(egoek, wl, first_seed, wl.trace_members, big, tally, recorder)
    walls = {"untraced": [], "traced": []}
    for _ in range(2):
        job = run_job(egoek, wl, first_seed, wl.members, plain, tally)
        walls["untraced"].append(sum(job.values()))
        with tracing:
            job = run_job(egoek, wl, first_seed, wl.members, traced, tally, recorder)
        walls["traced"].append(sum(job.values()))

    spec = config.ensemble
    ref_dir = WORK / "reference"
    reference = checker.reference(egoek, spec, ref_dir)
    for out in (plain, traced):
        check_job(egoek, checker, spec, out, ref_dir, reference)
    for out, members in ((sweep, wl.sweep_members), (big, wl.trace_members)):
        checker.decompose_outputs(out, members, ORDERS, spec.dimension)
    checker.fluct_outputs(egoek, big, spec_of(egoek, wl, first_seed, wl.trace_members), ORDERS,
                          config.trim, config.oversample)
    checker.trace_identity(egoek, spec, reference, seed)
    record["fingerprint"] = checks.fingerprint(egoek, traced, reference)
    record["provenance"] = provenance(egoek, seed)
    record["job_walls"] = walls

    metrics = tracer.layer_metrics(recorder.spans, egoek)
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["untraced"]
    )
    spans_path = WORK / f"trace-{record['workload']}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, checker


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="egoek pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "workload_spec": wl.__dict__}
    try:
        if args.trace:
            values, checker = traced_run(wl, args.seed, tally, record)
        else:
            values, checker = untraced_run(wl, args.seed, args.seconds, tally, record)
    except (probe.SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = tally.attempted + checker.attempted
    failed = tally.failed + len(checker.failures)
    for message in checker.failures:
        print(f"check failed: {message}", file=sys.stderr)
    if not args.trace:
        values["ops_ok_frac"] = 1.0 - failed / attempted
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(attempted=attempted, failed=failed, check_failures=checker.failures,
                  metrics=metrics)
    record_path = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
