"""Byte parity of every CSV table with the per-row ``csv.writer`` oracle, and of
the fluct separation block with the direct-form periodogram."""

import json
import math

import numpy as np
import pytest

from egoek import analytic, fluctuations as fl, pipeline
from egoek.archive import write_archive
from egoek.cli import main, write_table
from egoek.config import VALID_ORDERS, RunConfig
from egoek.decomposition import decompose_member
from egoek.ensemble import EnsembleSpec
from egoek.fock import Statistics
from egoek.periodogram import significance
from egoek.spectra import moments

import oracles
from oracles import QUOTED_Q

F, B = Statistics.FERMION, Statistics.BOSON

EDGE_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 123456789012345.0,
               -1.5e-7, 0.1, 2.0 / 3.0]


class TestWriteTable:
    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES)
        other = values[::-1].copy()
        path = tmp_path / "edge.csv"
        write_table(path, ["member", "order", "a", "b"],
                    [((3, 2), (values, other)), ((12345, 6), (values[:0], other[:0])),
                     ((12345, 6), (values, other))])
        rows = [[3, 2, f"{a:.12g}", f"{b:.12g}"] for a, b in zip(values, other)]
        rows += [[12345, 6, f"{a:.12g}", f"{b:.12g}"] for a, b in zip(values, other)]
        assert path.read_bytes() == oracles.csv_table(["member", "order", "a", "b"], rows)

    def test_fixed_format_and_names(self, tmp_path):
        path = tmp_path / "fixed.csv"
        write_table(path, ["name", "x"], [(("boson",), ([EDGE_VALUES[0]],)),
                                         (("100%",), (EDGE_VALUES,))], fmt="%.6f")
        rows = [["boson", f"{EDGE_VALUES[0]:.6f}"]]
        rows += [["100%", f"{x:.6f}"] for x in EDGE_VALUES]
        assert path.read_bytes() == oracles.csv_table(["name", "x"], rows)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, ["L", "delta3"], [])
        assert path.read_bytes() == b"L,delta3\r\n"


SYSTEMS = {
    "fermion": EnsembleSpec(F, m=4, n_sites=9, k=2, members=3, master_seed=42),
    "boson": EnsembleSpec(B, m=4, n_sites=6, k=2, members=3, master_seed=42),
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def archive_case(request, tmp_path_factory):
    archive = pipeline.generate_archive(SYSTEMS[request.param])
    path = tmp_path_factory.mktemp(request.param) / "spectra.egoearc"
    write_archive(path, archive)
    return archive, path


# Each thread count with the default orders and with an unsorted --orders
# list, whose order the rows keep.
RUNS = pytest.mark.parametrize("threads, orders", [
    pytest.param(threads, orders,
                 id=threads if orders == VALID_ORDERS else f"{threads}-orders-5,2,3")
    for orders in (VALID_ORDERS, (5, 2, 3)) for threads in ("1", "2")
])


def order_flags(orders):
    return [] if orders == VALID_ORDERS else ["--orders", ",".join(map(str, orders))]


@RUNS
def test_decompose_csv_matches_oracle(archive_case, threads, orders, tmp_path):
    archive, path = archive_case
    assert main(["decompose", "--archive", str(path), "--out", str(tmp_path),
                 "--threads", threads, *order_flags(orders)]) == 0
    decompositions = pipeline.decompose_archive(archive, orders)
    expected = oracles.csv_table(["member", "order", "E_hat", "delta"],
                                 oracles.delta_series_rows(decompositions, orders))
    assert (tmp_path / "delta_series.csv").read_bytes() == expected


@RUNS
def test_fluct_csvs_match_oracle(archive_case, threads, orders, tmp_path):
    archive, path = archive_case
    assert main(["fluct", "--archive", str(path), "--out", str(tmp_path),
                 "--threads", threads, *order_flags(orders)]) == 0
    spec = archive.spec
    config = RunConfig(ensemble=spec, orders=orders)
    decompositions = pipeline.decompose_archive(
        archive, config.orders + (fl.unfolding_order(spec.statistics, spec.k),)
    )
    results = pipeline.periodograms_by_order(
        decompositions, config.orders, trim=config.trim, oversample=config.oversample
    )
    unfolded = pipeline.unfolded_ensemble(archive, decompositions, trim=config.trim)
    hist = fl.nnsd(unfolded, bin_width=config.bin_width, s_max=config.spacing_max)
    curve = fl.delta3(unfolded, l_max=config.l_max)
    expected = {
        "periodogram.csv": oracles.csv_table(
            ["k", "order", "f", "P_mean"],
            oracles.periodogram_rows(spec.k, decompositions, results, config.orders,
                                     config.trim, config.oversample),
        ),
        "nnsd.csv": oracles.csv_table(
            ["s_low", "s_high", "density", "wigner", "poisson"], oracles.nnsd_rows(hist)
        ),
        "delta3.csv": oracles.csv_table(
            ["L", "delta3", "goe", "poisson"], oracles.delta3_rows(curve)
        ),
    }
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name


@pytest.mark.parametrize("convention", ["fap", "power_fraction"])
def test_fluct_separation_matches_direct_periodogram(archive_case, convention, tmp_path):
    archive, path = archive_case
    assert main(["fluct", "--archive", str(path), "--out", str(tmp_path), "--orders", "5,2,3",
                 "--convention", convention]) == 0
    summary = json.loads((tmp_path / "fluct_summary.json").read_text())
    config = RunConfig(ensemble=archive.spec)
    orders = (2, 3, 5)
    fits = [decompose_member(s, moments(s).q_est, orders) for s in archive.records]
    assert summary["lambda_convention"] == convention
    assert [(row["k"], row["order"]) for row in summary["separation"]] == [
        (archive.spec.k, order) for order in orders
    ]
    window = fl.central_window(archive.dimension, config.trim)
    for row, order in zip(summary["separation"], orders):
        peaks = [oracles.lomb_scargle_direct(fit.e_hat[window], fit.delta[order][window],
                                             oversample=config.oversample) for fit in fits]
        lam = np.mean([significance(r.peak_power, r.n_samples, convention) for r in peaks])
        assert row["mean_f_p"] == float(np.mean([r.peak_frequency for r in peaks]))
        assert row["mean_lambda"] == pytest.approx(float(lam), rel=1e-9)


@pytest.mark.parametrize(
    "statistics, m, n_sites, q",
    [(F, *QUOTED_Q[F][:2], None), (B, *QUOTED_Q[B][:2], None), (B, 4, 6, 0.3)],
    ids=["fermion-preset", "boson-preset", "explicit-q"],
)
def test_analytic_csv_matches_oracle(statistics, m, n_sites, q, tmp_path):
    ks, modes, points = (2, 3), (2, 3, 4), 101
    argv = ["analytic", "--statistics", statistics.value, "-m", str(m), "-N", str(n_sites),
            "--k-list", "2,3", "--modes", "2,3,4", "--grid-points", str(points),
            "--out", str(tmp_path)]
    assert main(argv + (["--q", str(q)] if q is not None else [])) == 0
    curves = []
    for k in ks:
        q_k = q if q is not None else analytic.ensemble_q(statistics, m, n_sites, k)
        grid = np.linspace(-2.0 / np.sqrt(1.0 - q_k), 2.0 / np.sqrt(1.0 - q_k), points)
        curves += [(statistics, m, n_sites, k, q_k, n, grid,
                    analytic.mode_width_curve(statistics, m, n_sites, k, q_k, n, grid))
                   for n in modes]
    expected = oracles.csv_table(["statistics", "m", "N", "k", "q", "n", "E_hat", "value"],
                                 oracles.mode_width_rows(curves))
    assert (tmp_path / "mode_widths.csv").read_bytes() == expected


def test_table1_csv_matches_oracle(tmp_path):
    specs = [EnsembleSpec(F, m=3, n_sites=6, k=2, members=3, master_seed=4),
             EnsembleSpec(B, m=3, n_sites=4, k=3, members=3, master_seed=4)]
    grid = [{"statistics": s.statistics.value, "m": s.m, "N": s.n_sites, "k": s.k}
            for s in specs]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["table1", "--grid", str(grid_path), "--members", "3", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    summaries = [pipeline.moment_summary(pipeline.generate_archive(s)) for s in specs]
    expected = oracles.csv_table(
        ["statistics", "m", "N", "k", "members", "gamma1", "gamma1_se", "gamma2", "gamma2_se",
         "q"],
        oracles.table1_rows(summaries),
    )
    assert (tmp_path / "table1.csv").read_bytes() == expected
