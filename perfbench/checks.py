"""Output checks and the result fingerprint of one benchmark job.

Every check runs outside the timed region.  A failed check is counted against
the run (``failed`` in the result line) and makes the command exit non-zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

ARCHIVE = "spectra.egoearc"
# Fits of increasing order are nested least-squares problems, so the mean
# level motion can only shrink; this slack absorbs rounding in lstsq.
NESTED_SLACK = 1e-12
TRACE_RTOL = 1e-10


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def lomb_scargle_frequencies(dimension: int, trim: float, oversample: int) -> int:
    """Frequency count F of one periodogram of a trimmed level-motion series."""
    cut = int(math.floor(0.5 * trim * dimension))
    samples = dimension - 2 * cut
    return int(math.floor(0.5 * oversample * samples))


class Checker:
    """Counts attempted and failed checks; failures are kept as messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def reference(self, egoek, spec, ref_dir: Path):
        """Regenerate the archive with one thread and write it; returns it in memory."""
        archive = egoek.pipeline.generate_archive(spec, threads=1)
        ref_dir.mkdir(parents=True, exist_ok=True)
        egoek.archive.write_archive(ref_dir / ARCHIVE, archive)
        return archive

    def archive_matches(self, egoek, out: Path, reference, ref_dir: Path) -> None:
        """Read-back equality with the regeneration and sha256 identity of the bytes."""
        got = egoek.archive.read_archive(out / ARCHIVE)
        same = got.spec == reference.spec and len(got.records) == len(reference.records)
        same = same and all(
            a.member == b.member and a.seed == b.seed and np.array_equal(a.eigenvalues, b.eigenvalues)
            for a, b in zip(got.records, reference.records)
        )
        self.check(same, f"{out / ARCHIVE}: read-back differs from the regenerated archive")
        self.check(
            sha256(out / ARCHIVE) == sha256(ref_dir / ARCHIVE),
            f"{out / ARCHIVE}: sha256 differs from the --threads 1 regeneration",
        )

    def trace_identity(self, egoek, spec, reference, seed: int) -> None:
        """Sum of eigenvalues equals Tr H for one member chosen by the seed.

        The tolerance is relative to the larger of |Tr H| and sum |lambda|, the
        scale at which the eigenvalue sum is rounded.
        """
        member = random.Random(seed).randrange(spec.members)
        trace = float(np.trace(egoek.ensemble.build_member(spec, member).matrix))
        eig = reference.records[member].eigenvalues
        scale = max(abs(trace), float(np.sum(np.abs(eig))))
        self.check(
            abs(float(np.sum(eig)) - trace) <= TRACE_RTOL * scale,
            f"member {member}: eigenvalue sum {np.sum(eig)!r} != trace {trace!r}",
        )

    def decompose_outputs(self, out: Path, members: int, orders, dimension: int) -> None:
        summary = json.loads((out / "decompose_summary.json").read_text())
        rms = [summary["mean_delta_rms"][str(o)] for o in sorted(orders)]
        self.check(
            all(b <= a * (1.0 + NESTED_SLACK) for a, b in zip(rms, rms[1:])),
            f"mean delta_rms increases with order: {rms}",
        )
        header, rows = _rows(out / "delta_series.csv")
        expected = members * len(orders) * dimension
        self.check(
            header == ["member", "order", "E_hat", "delta"] and len(rows) == expected,
            f"delta_series.csv has {len(rows)} rows, expected {expected}",
        )

    def fluct_outputs(self, egoek, out: Path, spec, orders, trim: float, oversample: int) -> None:
        header, rows = _rows(out / "periodogram.csv")
        n_freq = lomb_scargle_frequencies(spec.dimension, trim, oversample)
        self.check(
            header == ["k", "order", "f", "P_mean"] and len(rows) == len(orders) * n_freq,
            f"periodogram.csv has {len(rows)} rows, expected {len(orders) * n_freq}",
        )
        power = np.array([float(r[3]) for r in rows])
        self.check(
            bool(np.all(np.isfinite(power)) and np.all(power >= 0.0)),
            "periodogram.csv has a negative or non-finite power",
        )
        summary = json.loads((out / "fluct_summary.json").read_text())
        policy = egoek.fluctuations.unfolding_order(spec.statistics, spec.k)
        self.check(
            summary["unfolding_order"] == policy,
            f"unfolding order {summary['unfolding_order']} != policy {policy}",
        )
        _header, rows = _rows(out / "delta3.csv")
        values = np.array([float(r[1]) for r in rows])
        self.check(
            len(values) > 0 and bool(np.all(np.isfinite(values))),
            "delta3.csv has a non-finite value",
        )


def fingerprint(egoek, out: Path, reference) -> dict:
    """Result figures a later change must reproduce (within 1e-9 relative)."""
    shape = egoek.pipeline.moment_summary(reference)
    dec = json.loads((out / "decompose_summary.json").read_text())
    flu = json.loads((out / "fluct_summary.json").read_text())
    _header, rows = _rows(out / "delta3.csv")
    delta3 = {float(r[0]): float(r[1]) for r in rows}
    return {
        "archive_sha256": sha256(out / ARCHIVE),
        "gamma1_mean": shape.gamma1_mean,
        "gamma2_mean": shape.gamma2_mean,
        "q_mean": shape.q_mean,
        "mean_delta_rms": dec["mean_delta_rms"],
        "mean_lambda": {str(row["order"]): row["mean_lambda"] for row in flu["separation"]},
        "nnsd_sigma2": flu["nnsd_sigma2"],
        "delta3_at_60": delta3.get(60.0),
    }
