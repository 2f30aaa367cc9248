"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads fermion-k2,boson-k2 --seeds 1-10 \
        --seconds 30 --trace 0 --out perfbench/baseline/untraced.json

Runs one after another, each in its own process, and records every result
line with the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median for each metric.  The fingerprint
and provenance of each run are copied from its run record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark runs over several seeds")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT, check=False,
            )
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            record_file = WORK / f"record-{workload}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_file.read_text()) if record_file.is_file() else {}
            runs.append({
                "seed": seed,
                "exit_code": done.returncode,
                "result": result,
                "fingerprint": record.get("fingerprint"),
                "provenance": record.get("provenance"),
            })
            print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
        ok = [r["result"] for r in runs if r["result"] is not None]
        names = list(ok[0]["metrics"]) if ok else []
        report["workloads"][workload] = {
            "runs": runs,
            "summary": {
                name: {
                    "unit": ok[0]["metrics"][name]["unit"],
                    **summarize([r["metrics"][name]["value"] for r in ok]),
                }
                for name in names
            },
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:12s} {name:40s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
