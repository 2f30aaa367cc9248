"""Set-up cost of one egoek invocation, measured in the calling process.

Set-up is what a fresh process pays before its first member: importing
``egoek`` (with numpy and scipy), building the embedding plan that
``ensemble.build_embedding_plan`` caches, and the first LAPACK call on a
matrix of the system's dimension.  Run as a script it measures a fresh
interpreter and prints one JSON line:

    python3 perfbench/probe.py --src src fermion 6 12 2
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path


class SetupError(RuntimeError):
    """The checkout does not hold the egoek sources."""


def import_egoek(src: Path):
    """Import egoek from ``src`` and refuse a copy installed anywhere else."""
    src = src.resolve()
    if not (src / "egoek" / "__init__.py").is_file():
        raise SetupError(f"no egoek package under {src}")
    sys.path.insert(0, str(src))
    egoek = importlib.import_module("egoek")
    for name in ("archive", "cli", "decomposition", "ensemble", "fluctuations",
                 "periodogram", "pipeline", "qhermite", "spectra"):
        importlib.import_module(f"egoek.{name}")
    if Path(egoek.__file__).resolve().parent != src / "egoek":
        raise SetupError(f"imported egoek from {egoek.__file__}, not from {src}")
    return egoek


def measure_setup(src: Path, statistics: str, m: int, n_sites: int, k: int, after_import=None):
    """Time import, plan build and first eigensolve; returns (egoek, timings).

    ``after_import(egoek)`` runs between the import and the plan build, outside
    the timed regions, so a tracer can see the plan being built.
    """
    t0 = time.perf_counter()
    egoek = import_egoek(src)
    import_s = time.perf_counter() - t0
    if after_import is not None:
        after_import(egoek)

    import numpy as np

    t0 = time.perf_counter()
    plan = egoek.ensemble.build_embedding_plan(
        egoek.fock.Statistics(statistics), m, n_sites, k
    )
    plan_s = time.perf_counter() - t0

    d = plan.dimension
    matrix = np.random.default_rng(0).standard_normal((d, d))
    matrix += matrix.T
    t0 = time.perf_counter()
    egoek.spectra.eigenvalues(matrix)
    first_eig_s = time.perf_counter() - t0
    return egoek, {
        "import_s": import_s,
        "plan_s": plan_s,
        "first_eig_s": first_eig_s,
        "setup_s": import_s + plan_s + first_eig_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("statistics", choices=["fermion", "boson"])
    parser.add_argument("m", type=int)
    parser.add_argument("N", type=int)
    parser.add_argument("k", type=int)
    args = parser.parse_args(argv)
    try:
        _egoek, timings = measure_setup(Path(args.src), args.statistics, args.m, args.N, args.k)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
