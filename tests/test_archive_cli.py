import json
import math
import os
import struct
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import egoek.qhermite
from egoek.archive import (
    ArchiveFormatError,
    SpectrumArchive,
    export_json,
    read_archive,
    write_archive,
)
from egoek.cli import DEFAULT_TABLE_GRID, build_parser, main
from egoek.config import (
    VALID_ORDERS,
    ConfigError,
    RunConfig,
    config_from_dict,
    ensemble_from_dict,
    read_json,
)
from egoek.ensemble import (
    MAX_DENSE_DIMENSION,
    DenseMemoryError,
    EnsembleSpec,
    check_dense_size,
    member_seed,
)
from egoek.fluctuations import MAX_SPACING_BINS
from egoek.fock import DEFAULT_BASIS_CAP, MAX_SITES, Statistics, dimension
from egoek.periodogram import MAX_OVERSAMPLE
from egoek.pipeline import generate_archive
from egoek.spectra import Spectrum, eigenvalues, moments

from oracles import QUOTED_Q

F, B = Statistics.FERMION, Statistics.BOSON

SMALL = EnsembleSpec(F, m=3, n_sites=6, k=2, members=3, master_seed=77)


class TestArchiveRoundTrip:
    def test_bytes_and_values(self, tmp_path):
        archive = generate_archive(SMALL)
        path = tmp_path / "a.egoearc"
        write_archive(path, archive)
        loaded = read_archive(path)
        assert loaded.spec == SMALL
        for a, b in zip(archive.records, loaded.records):
            assert a.member == b.member and a.seed == b.seed
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
        second = tmp_path / "b.egoearc"
        write_archive(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.egoearc"
        path.write_bytes(b"NOTANARC" + b"\x00" * 16)
        with pytest.raises(ArchiveFormatError):
            read_archive(path)

    def test_truncated_payload(self, tmp_path):
        archive = generate_archive(SMALL)
        path = tmp_path / "a.egoearc"
        write_archive(path, archive)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ArchiveFormatError):
            read_archive(path)

    def test_record_count_validated(self, tmp_path):
        archive = generate_archive(SMALL)
        broken = SpectrumArchive(spec=SMALL, records=archive.records[:-1])
        with pytest.raises(ValueError):
            write_archive(tmp_path / "x.egoearc", broken)

    def test_export_json(self, tmp_path):
        archive = generate_archive(SMALL)
        out = tmp_path / "dump.json"
        export_json(archive, out)
        payload = json.loads(out.read_text())
        assert payload["header"]["dimension"] == 20
        assert len(payload["members"]) == 3
        assert len(payload["members"][0]["eigenvalues"]) == 20


class TestArchiveWriterContract:
    """Record i must be member i with seed member_seed(master_seed, i)."""

    SPEC = EnsembleSpec(F, m=1, n_sites=4, k=1, members=1)

    def rejected(self, tmp_path, record):
        path = tmp_path / "a.egoearc"
        with pytest.raises(ValueError, match="record 0 is labelled .*; the header implies member"):
            write_archive(path, SpectrumArchive(spec=self.SPEC, records=(record,)))
        assert not path.exists()

    def test_bare_spectrum_rejected(self, tmp_path):
        spectrum = eigenvalues(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert (spectrum.member, spectrum.seed) == (None, None)
        self.rejected(tmp_path, spectrum)

    @pytest.mark.parametrize(
        "member, seed", [(2**32, 0), (-1, 0), (0, 2**64), (0, -1), (0, 1.5), (0.0, 0)]
    )
    def test_out_of_range_or_non_integer_rejected(self, tmp_path, member, seed):
        self.rejected(tmp_path, Spectrum(np.arange(4.0), member=member, seed=seed))


@st.composite
def small_archives(draw):
    """Archives of small systems holding any finite float64 levels in ascending order."""
    stat = draw(st.sampled_from([F, Statistics.BOSON]))
    n_sites = draw(st.integers(1, 6 if stat is F else 4))
    m = draw(st.integers(1, n_sites if stat is F else 4))
    spec = EnsembleSpec(
        stat,
        m=m,
        n_sites=n_sites,
        k=draw(st.integers(1, m)),
        members=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        nu2=draw(st.floats(1e-3, 1e3)),
    )
    levels = st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=spec.dimension,
        max_size=spec.dimension,
    ).map(sorted)
    records = tuple(
        Spectrum(
            member=i,
            seed=member_seed(spec.master_seed, i),
            eigenvalues=np.array(draw(levels), dtype=float),
        )
        for i in range(spec.members)
    )
    return SpectrumArchive(spec=spec, records=records)


class TestArchiveProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(archive=small_archives())
    def test_round_trip_is_bitwise(self, archive, tmp_path):
        path = tmp_path / "a.egoearc"
        write_archive(path, archive)
        loaded = read_archive(path)
        assert loaded.spec == archive.spec
        for a, b in zip(archive.records, loaded.records, strict=True):
            assert (a.member, a.seed) == (b.member, b.seed)
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        again = tmp_path / "b.egoearc"
        write_archive(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(archive=small_archives(), data=st.data())
    def test_cut_at_any_byte_is_rejected(self, archive, data, tmp_path):
        path = tmp_path / "a.egoearc"
        write_archive(path, archive)
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
        path.write_bytes(whole[:cut])
        with pytest.raises(ArchiveFormatError):
            read_archive(path)


def _with_header(data: bytes, edit) -> bytes:
    """Archive bytes with the JSON header replaced by ``edit(header)``."""
    (length,) = struct.unpack("<I", data[8:12])
    header = json.dumps(edit(json.loads(data[12 : 12 + length]))).encode()
    return data[:8] + struct.pack("<I", len(header)) + header + data[12 + length :]


HOSTILE_ARCHIVES = {
    "magic_only": lambda data: data[:8],
    "short_length_field": lambda data: data[:10],
    "header_without_nu2": lambda data: _with_header(
        data, lambda h: {key: v for key, v in h.items() if key != "nu2"}
    ),
    "string_m": lambda data: _with_header(data, lambda h: {**h, "m": "2"}),
    "list_header": lambda data: _with_header(data, lambda h: [h]),
    "infinite_members": lambda data: _with_header(data, lambda h: {**h, "members": math.inf}),
    # d = C(60, 30) ~ 1.2e17: reading one record would need ~1 EB.
    "crafted_dimension": lambda data: _with_header(
        data, lambda h: {**h, "m": 30, "N": 60, "members": 1, "dimension": math.comb(60, 30)}
    ),
    # Record bytes match the claimed d = 20, but m and N claim C(2e6, 1e6):
    # computing that binomial in full takes tens of seconds.
    "huge_binomial": lambda data: _with_header(
        data, lambda h: {**h, "m": 10**6, "N": 2 * 10**6}
    ),
    # Boson amplitudes reach C(m, k) = C(1e12, 5e11): the level rule's binomials stop early.
    "huge_boson_binomial": lambda data: _with_header(
        data, lambda h: {**h, "statistics": "boson", "m": 10**12, "k": 5 * 10**11}
    ),
    "float_dimension": lambda data: _with_header(data, lambda h: {**h, "dimension": 20.0}),
    "bool_master_seed": lambda data: _with_header(data, lambda h: {**h, "master_seed": True}),
    "infinite_nu2": lambda data: _with_header(data, lambda h: {**h, "nu2": math.inf}),
    # Levels near 6e151, whose fourth centred moment leaves float64: the spec refuses it.
    "level_scale_nu2": lambda data: _with_header(data, lambda h: {**h, "nu2": 1e300}),
    "future_format_version": lambda data: _with_header(
        data, lambda h: {**h, "format_version": "99"}
    ),
    "numeric_format_version": lambda data: _with_header(data, lambda h: {**h, "format_version": 7}),
    "null_format_version": lambda data: _with_header(
        data, lambda h: {**h, "format_version": None}
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ARCHIVES))
def test_hostile_archive_ends_in_one_error_line(case, tmp_path, capsys):
    good = tmp_path / "good.egoearc"
    write_archive(good, generate_archive(SMALL))
    path = tmp_path / "hostile.egoearc"
    path.write_bytes(HOSTILE_ARCHIVES[case](good.read_bytes()))
    start = time.perf_counter()
    with pytest.raises(ArchiveFormatError):
        read_archive(path)
    capsys.readouterr()
    assert main(["decompose", "--archive", str(path), "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


INTEGER_FIELDS = [("ensemble", key) for key in ("m", "N", "k", "members", "master_seed")] + [
    ("analysis", key) for key in ("l_max", "oversample", "orders")
]
REAL_FIELDS = [("ensemble", "nu2")] + [
    ("analysis", key) for key in ("trim", "bin_width", "spacing_max")
]


@st.composite
def run_configs(draw):
    """Valid run configurations over small systems.

    nu2 spans 1e-100 to 1e100, inside the level-scale domain every such system accepts.
    """
    stat = draw(st.sampled_from([F, Statistics.BOSON]))
    m = draw(st.integers(1, 6))
    # Below 1e300, so that spacing_max + bin_width / 2 stays finite.
    bin_width = draw(st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    spec = EnsembleSpec(
        stat,
        m=m,
        n_sites=draw(st.integers(m if stat is F else 1, 12)),
        k=draw(st.integers(1, m)),
        members=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        nu2=draw(st.floats(1e-100, 1e100)),
    )
    orders = draw(st.permutations(VALID_ORDERS))[: draw(st.integers(1, len(VALID_ORDERS)))]
    return RunConfig(
        ensemble=spec,
        orders=tuple(orders),
        trim=draw(st.floats(0.0, 1.0, exclude_max=True)),
        l_max=draw(st.integers(2, 10**6)),
        bin_width=bin_width,
        # From two bins to half the bin bound, so rounding cannot carry the count past either.
        spacing_max=draw(st.floats(min_value=2 * bin_width,
                                   max_value=bin_width * MAX_SPACING_BINS / 2)),
        oversample=draw(st.integers(1, MAX_OVERSAMPLE)),
        out_dir=draw(st.text(max_size=20)),
    )


class TestRunConfig:
    def test_defaults_and_validation(self):
        config = config_from_dict(
            {"ensemble": {"statistics": "fermion", "m": 3, "N": 6, "k": 2}}
        )
        assert config.orders == (2, 3, 4, 5, 6)
        assert config.trim == 0.10
        with pytest.raises(ConfigError):
            config_from_dict({"ensemble": {"statistics": "fermion", "m": 3, "N": 6, "k": 2},
                              "analysis": {"orders": [7]}})
        with pytest.raises(ConfigError):
            config_from_dict({})
        with pytest.raises(ConfigError):
            config_from_dict({"ensemble": {"statistics": "fermion", "m": 3, "N": 6, "k": 2,
                                           "members": math.inf}})

    @pytest.mark.parametrize("oversample", [0, -1, MAX_OVERSAMPLE + 1, 10**12, math.inf])
    def test_oversample_bounds(self, oversample):
        ensemble = {"statistics": "fermion", "m": 3, "N": 6, "k": 2}
        with pytest.raises(ConfigError):
            config_from_dict({"ensemble": ensemble, "analysis": {"oversample": oversample}})
        config = config_from_dict({"ensemble": ensemble,
                                   "analysis": {"oversample": MAX_OVERSAMPLE}})
        assert config.oversample == MAX_OVERSAMPLE

    @pytest.mark.parametrize(
        "analysis", [{"bin_width": 1e-12}, {"spacing_max": 1e13}, {"bin_width": 5e-324}]
    )
    def test_histogram_bin_count_bounded(self, analysis):
        ensemble = {"statistics": "fermion", "m": 3, "N": 6, "k": 2}
        with pytest.raises(ConfigError, match="histogram bins"):
            config_from_dict({"ensemble": ensemble, "analysis": analysis})
        edge = {"bin_width": 0.5, "spacing_max": 0.5 * MAX_SPACING_BINS}
        assert config_from_dict({"ensemble": ensemble, "analysis": edge}).spacing_max == 5e5

    def test_load_and_roundtrip(self, tmp_path):
        payload = {
            "ensemble": {"statistics": "boson", "m": 4, "N": 3, "k": 2, "members": 5,
                          "master_seed": 9},
            "analysis": {"orders": [2, 4], "trim": 0.2},
            "out_dir": "somewhere",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = config_from_dict(read_json(path, "config"))
        assert config.ensemble.statistics is Statistics.BOSON
        assert config.orders == (2, 4)
        assert config.to_dict()["analysis"]["trim"] == 0.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(read_json(tmp_path / "nope.json", "config"))

    @pytest.mark.parametrize("field", ["m", "N", "k", "members", "master_seed"])
    def test_fractional_ensemble_field_rejected(self, field):
        ensemble = {"statistics": "fermion", "m": 3, "N": 6, "k": 2, "members": 2,
                    "master_seed": 1}
        with pytest.raises(ConfigError, match="whole number"):
            config_from_dict({"ensemble": {**ensemble, field: ensemble[field] + 0.5}})
        whole = config_from_dict({"ensemble": {**ensemble, field: float(ensemble[field])}})
        assert whole.ensemble == config_from_dict({"ensemble": ensemble}).ensemble

    @settings(max_examples=100, deadline=None)
    @given(config=run_configs())
    def test_json_round_trip(self, config):
        assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @settings(max_examples=100, deadline=None)
    @given(config=run_configs(), data=st.data())
    def test_bool_or_fractional_integer_rejected(self, config, data):
        payload = config.to_dict()
        block, key = data.draw(st.sampled_from(INTEGER_FIELDS), label="field")
        bad = data.draw(st.booleans() | st.floats().filter(lambda x: not x.is_integer()),
                        label="value")
        if key == "orders":
            payload[block][key][data.draw(st.integers(0, len(config.orders) - 1))] = bad
        else:
            payload[block][key] = bad
        with pytest.raises(ConfigError):
            config_from_dict(payload)

    @settings(max_examples=100, deadline=None)
    @given(config=run_configs(), data=st.data())
    def test_non_finite_or_bool_real_rejected(self, config, data):
        payload = config.to_dict()
        block, key = data.draw(st.sampled_from(REAL_FIELDS), label="field")
        payload[block][key] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan,
                                                         True, False]), label="value")
        with pytest.raises(ConfigError):
            config_from_dict(payload)


def run_cli(*argv):
    return main(list(argv))


class TestCliGenerate:
    def test_rerun_and_thread_count_byte_identical(self, tmp_path):
        base = ["generate", "--statistics", "fermion", "-m", "3", "-N", "6", "-k", "2",
                "--members", "4", "--seed", "123"]
        outs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "2")):
            out = tmp_path / name
            assert run_cli(*base, "--out", str(out), "--threads", threads) == 0
            outs.append((out / "spectra.egoearc").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_config_file_with_overrides(self, tmp_path):
        config = {"ensemble": {"statistics": "fermion", "m": 3, "N": 6, "k": 2,
                                "members": 2, "master_seed": 1}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "cfg_run"
        assert run_cli("generate", "--config", str(cfg), "--members", "3",
                       "--out", str(out)) == 0
        archive = read_archive(out / "spectra.egoearc")
        assert archive.spec.members == 3

    def test_failed_export_writes_no_archive(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocker = tmp_path / "file"
        blocker.write_text("")
        capsys.readouterr()
        assert run_cli("generate", "--statistics", "fermion", "-m", "3", "-N", "6",
                       "-k", "2", "--members", "2", "--out", str(out),
                       "--export-json", str(blocker / "dump.json")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_export_json_flag(self, tmp_path):
        # The dump's directory is made like --out's, here the same new one.
        out = tmp_path / "s1" / "f2"
        dump = out / "dump.json"
        assert run_cli("generate", "--statistics", "fermion", "-m", "3", "-N", "6",
                       "-k", "2", "--members", "2", "--seed", "8",
                       "--out", str(out), "--export-json", str(dump)) == 0
        assert json.loads(dump.read_text())["header"]["m"] == 3
        assert read_archive(out / "spectra.egoearc").spec.members == 2

    def test_validation_exit_code(self, tmp_path):
        # k > m is a domain violation -> exit 2 via config validation
        code = run_cli("generate", "--statistics", "fermion", "-m", "2", "-N", "6",
                       "-k", "4", "--members", "1", "--out", str(tmp_path))
        assert code == 2

    def test_missing_ensemble_flags(self, tmp_path):
        assert run_cli("generate", "--out", str(tmp_path)) == 2

    def test_invalid_member_override_exit_code(self, tmp_path, capsys):
        # The same domain error as "members": 0 in a config file: exit 2.
        capsys.readouterr()
        assert run_cli("generate", "--statistics", "fermion", "-m", "3", "-N", "6",
                       "-k", "2", "--members", "0", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("arch")
    spec = EnsembleSpec(F, m=4, n_sites=9, k=2, members=4, master_seed=31)
    archive = generate_archive(spec)
    path = out / "spectra.egoearc"
    write_archive(path, archive)
    return path


class TestCliAnalysis:
    def test_decompose_outputs(self, small_archive, tmp_path):
        out = tmp_path / "dec"
        assert run_cli("decompose", "--archive", str(small_archive),
                       "--orders", "2,3,4", "--out", str(out)) == 0
        with open(out / "delta_series.csv") as fh:
            header = fh.readline().strip()
        assert header == "member,order,E_hat,delta"
        summary = json.loads((out / "decompose_summary.json").read_text())
        assert set(summary["mean_delta_rms"]) == {"2", "3", "4"}
        assert summary["config"]["ensemble"]["k"] == 2
        assert len(summary["member_q"]) == 4

    def test_fluct_outputs(self, small_archive, tmp_path):
        out = tmp_path / "flu"
        assert run_cli("fluct", "--archive", str(small_archive),
                       "--orders", "2,3", "--out", str(out)) == 0
        for name in ("periodogram.csv", "nnsd.csv", "delta3.csv", "fluct_summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "fluct_summary.json").read_text())
        assert summary["lambda_convention"] == "fap"
        assert {row["order"] for row in summary["separation"]} == {2, 3}
        with open(out / "delta3.csv") as fh:
            assert fh.readline().strip() == "L,delta3,goe,poisson"

    def test_fluct_tabulates_integrals_once_per_member(self, small_archive, tmp_path,
                                                       monkeypatch):
        calls = []
        original = egoek.qhermite.cumulative_weighted_integrals

        def counted(points, q, orders):
            calls.append(len(points))
            return original(points, q, orders)

        monkeypatch.setattr(egoek.qhermite, "cumulative_weighted_integrals", counted)
        assert run_cli("fluct", "--archive", str(small_archive), "--orders", "2,3",
                       "--out", str(tmp_path)) == 0
        assert calls == [read_archive(small_archive).dimension] * 4

    @pytest.mark.parametrize("command", ["decompose", "fluct"])
    def test_repeated_orders_in_config_exit_2(self, command, small_archive, tmp_path, capsys):
        config = _config(tmp_path, {"ensemble": SYSTEM, "analysis": {"orders": [2, 2, 3]}})
        capsys.readouterr()
        assert run_cli(command, "--archive", str(small_archive), "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "repeat" in err[0]
        assert not (tmp_path / "out").exists()

    def test_whole_float_order_runs_as_int(self, small_archive, tmp_path):
        config = _config(tmp_path, {"ensemble": SYSTEM, "analysis": {"orders": [2, 3.0]}})
        outs = []
        for name, extra in (("float", ["--config", config]), ("int", ["--orders", "2,3"])):
            out = tmp_path / name
            assert run_cli("decompose", "--archive", str(small_archive), "--out", str(out),
                           *extra) == 0
            outs.append((out / "delta_series.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["decompose", "fluct"])
    @pytest.mark.parametrize("flag", ["--members", "--seed"])
    def test_archive_commands_take_no_ensemble_flags(self, command, flag, small_archive):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--archive", str(small_archive), flag, "3"])
        assert exit_info.value.code == 2

    def test_missing_archive_exit_code(self, tmp_path):
        assert run_cli("fluct", "--archive", str(tmp_path / "absent.egoearc"),
                       "--out", str(tmp_path)) == 1

    def test_analytic_output(self, tmp_path):
        out = tmp_path / "ana"
        assert run_cli("analytic", "--statistics", "fermion", "-m", "10", "-N", "20",
                       "--k-list", "2,3", "--modes", "2,3", "--grid-points", "101",
                       "--out", str(out)) == 0
        lines = (out / "mode_widths.csv").read_text().splitlines()
        assert lines[0] == "statistics,m,N,k,q,n,E_hat,value"
        assert len(lines) == 1 + 2 * 2 * 101

    @pytest.mark.parametrize("k_list, modes", [("2,x", "2,3"), ("2,3", "2,x")],
                             ids=["k-list", "modes"])
    def test_analytic_malformed_list_exit_code(self, k_list, modes, tmp_path):
        code = run_cli("analytic", "--statistics", "fermion", "-m", "10", "-N", "20",
                       "--k-list", k_list, "--modes", modes, "--out", str(tmp_path))
        assert code == 2

    def test_analytic_without_q_reads_ensemble_q(self, tmp_path):
        assert run_cli("analytic", "--statistics", "fermion", "-m", "6", "-N", "12",
                       "--k-list", "2", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "mode_widths.csv").read_text().splitlines()[1:]
        assert {row.split(",")[4] for row in rows} == {"0.286989795918"}

    def test_table_grid(self, tmp_path):
        grid = [{"statistics": "fermion", "m": 3, "N": 6, "k": k} for k in (2, 3)]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "tab"
        assert run_cli("table1", "--grid", str(grid_path), "--members", "3",
                       "--seed", "4", "--out", str(out)) == 0
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[0].startswith("statistics,m,N,k,members,gamma1")
        assert len(lines) == 3
        payload = json.loads((out / "table1.json").read_text())
        assert len(payload["rows"]) == 2


def _table1(tmp_path, entries, members="2"):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(entries))
    return ["table1", "--grid", str(grid), "--members", members, "--out", str(tmp_path / "tab")]


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _generate_config(tmp_path, payload):
    return ["generate", "--config", _config(tmp_path, payload), "--out", str(tmp_path)]


def _generate_analysis(tmp_path, analysis):
    return _generate_config(tmp_path, {"ensemble": SYSTEM, "analysis": analysis})


SYSTEM = {"statistics": "fermion", "m": 3, "N": 6, "k": 2}
GENERATE = ["generate", "--statistics", "fermion", "-m", "3", "-N", "6", "-k", "2", "--members", "2"]

ANALYTIC = ["analytic", "--statistics", "fermion", "-m", "10", "-N", "20", "--k-list", "2"]


def _small_archive(tmp_path):
    """The SMALL ensemble written to an archive under tmp_path; returns its path."""
    path = tmp_path / "small.egoearc"
    write_archive(path, generate_archive(SMALL))
    return str(path)


def _tree(root):
    """Every path under root, mapped to its bytes (None for a directory)."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def _analytic(tmp_path, statistics, m, n_sites, k, q):
    """An analytic run of one rank at an explicit q, into a fresh output directory."""
    return ["analytic", "--statistics", statistics, "-m", str(m), "-N", str(n_sites),
            "--k-list", str(k), "--q", str(q), "--out", str(tmp_path / "ana")]


# Each case maps an output directory to an argv.
INVALID_COMMAND_LINES = {
    "table1_grid_missing_key": lambda p: _table1(p, [{"statistics": "fermion", "m": 3, "N": 6}]),
    "table1_grid_non_object": lambda p: _table1(p, [3]),
    "table1_grid_unknown_statistics": lambda p: _table1(p, [{**SYSTEM, "statistics": "quark"}]),
    "table1_zero_members": lambda p: _table1(p, [SYSTEM], members="0"),
    "table1_fractional_m": lambda p: _table1(p, [{"statistics": "fermion", "m": 6.5, "N": 12,
                                                   "k": 2}]),
    "table1_fractional_N": lambda p: _table1(p, [{**SYSTEM, "N": 6.5}]),
    "table1_fractional_k": lambda p: _table1(p, [{**SYSTEM, "k": 1.5}]),
    "config_fractional_m": lambda p: (
        ["generate", "--config", _config(p, {"ensemble": {**SYSTEM, "m": 2.5}}), "--out", str(p)]
    ),
    "config_bool_m": lambda p: _generate_config(p, {"ensemble": {**SYSTEM, "m": True}}),
    "config_infinite_nu2": lambda p: _generate_config(p, {"ensemble": {**SYSTEM, "nu2": math.inf}}),
    "config_fractional_order": lambda p: _generate_analysis(p, {"orders": [2, 3.5]}),
    "config_analysis_not_object": lambda p: _generate_config(p, {"ensemble": SYSTEM,
                                                                 "analysis": [1, 2]}),
    "config_fractional_l_max": lambda p: _generate_analysis(p, {"l_max": 8.7}),
    "config_bin_width_too_many_bins": lambda p: _generate_analysis(p, {"bin_width": 1e-12}),
    "config_spacing_max_too_many_bins": lambda p: _generate_analysis(p, {"spacing_max": 1e13}),
    "config_spacing_max_below_one_bin": lambda p: _generate_analysis(
        p, {"spacing_max": 0.01, "bin_width": 0.1}),
    "config_fractional_oversample": lambda p: _generate_analysis(p, {"oversample": 4.5}),
    "config_bool_oversample": lambda p: _generate_analysis(p, {"oversample": True}),
    "config_format_version": lambda p: _generate_config(p, {"ensemble": SYSTEM,
                                                            "format_version": "99"}),
    "config_unknown_analysis_key": lambda p: _generate_analysis(p, {"trimm": 0.2}),
    "config_unknown_top_key": lambda p: _generate_config(p, {"ensemble": SYSTEM, "ensembel": {}}),
    "table1_bool_k": lambda p: _table1(p, [{**SYSTEM, "k": True}]),
    "generate_zero_threads": lambda p: GENERATE + ["--threads", "0", "--out", str(p)],
    "decompose_zero_threads": lambda p: ["decompose", "--archive", _small_archive(p),
                                         "--threads", "0", "--out", str(p / "out")],
    "fluct_zero_threads": lambda p: ["fluct", "--archive", _small_archive(p),
                                     "--threads", "0", "--out", str(p / "out")],
    "analytic_zero_grid_points": lambda p: ANALYTIC + ["--grid-points", "0", "--out", str(p)],
    "analytic_q_above_one": lambda p: ANALYTIC + ["--q", "1.5", "--out", str(p)],
    "analytic_q_negative": lambda p: ANALYTIC + ["--q", "-0.5", "--out", str(p)],
    "analytic_q_nan": lambda p: ANALYTIC + ["--q", "nan", "--out", str(p)],
    "analytic_boson_k_above_N": lambda p: _analytic(p, "boson", 10, 5, 6, 0.9),
    "analytic_boson_k_above_m": lambda p: _analytic(p, "boson", 2, 10, 5, 0.5),
    # Without --q: q = 1 - 8.9e-6, past the bounded-support weight's limit.
    "analytic_boson_q_near_one": lambda p: [
        "analytic", "--statistics", "boson", "-m", "1000", "-N", "10", "--k-list", "1",
        "--out", str(p / "ana")],
    "analytic_fermion_scale_overflow_without_q": lambda p: [
        "analytic", "--statistics", "fermion", "-m", "1000000", "-N", "1000000",
        "--k-list", "500000", "--out", str(p / "ana")],
    "analytic_fermion_k_above_m": lambda p: _analytic(p, "fermion", 6, 12, 7, 0.3),
    "analytic_fermion_m_above_N": lambda p: _analytic(p, "fermion", 13, 12, 2, 0.3),
    "analytic_too_many_grid_points": lambda p: (
        _analytic(p, "fermion", 10, 20, 2, 0.465) + ["--grid-points", "10000000000000"]
    ),
    "analytic_too_many_modes": lambda p: (
        _analytic(p, "fermion", 10, 20, 2, 0.465) + ["--modes", "2,20000000"]
    ),
    "analytic_mode_past_float_range": lambda p: (
        ANALYTIC + ["--modes", "1000,2000,5000", "--grid-points", "11", "--out", str(p / "ana")]
    ),
    "analytic_fermion_scale_overflow": lambda p: _analytic(p, "fermion", 600, 1200, 2, 0.5),
    "analytic_boson_scale_overflow": lambda p: _analytic(p, "boson", 600, 1200, 2, 0.5),
    "analytic_empty_modes": lambda p: ANALYTIC + ["--modes", ",", "--out", str(p)],
    "analytic_zero_mode": lambda p: ANALYTIC + ["--modes", "0", "--out", str(p)],
    "decompose_without_archive": lambda p: ["decompose", "--out", str(p)],
    "table1_grid_not_list": lambda p: _table1(p, SYSTEM),
    "config_trim_one": lambda p: _generate_analysis(p, {"trim": 1.0}),
    "config_l_max_one": lambda p: _generate_analysis(p, {"l_max": 1}),
    "config_zero_bin_width": lambda p: _generate_analysis(p, {"bin_width": 0}),
    "config_zero_spacing_max": lambda p: _generate_analysis(p, {"spacing_max": 0}),
    # No --out, so the config's out_dir is the one read.
    "config_null_out_dir": lambda p: ["generate", "--config",
                                      _config(p, {"ensemble": SYSTEM, "out_dir": None})],
    "config_numeric_out_dir": lambda p: ["generate", "--config",
                                         _config(p, {"ensemble": SYSTEM, "out_dir": 5})],
    "config_list_out_dir": lambda p: ["generate", "--config",
                                      _config(p, {"ensemble": SYSTEM, "out_dir": []})],
    # The largest squared boson amplitude, C(1100, 550) ~ 2^1096, passes float64,
    # so the level-scale rule refuses the spec.
    "generate_boson_amplitude_overflow": lambda p: [
        "generate", "--statistics", "boson", "-m", "1100", "-N", "2", "-k", "550",
        "--members", "1", "--out", str(p / "out")],
    "table1_boson_amplitude_overflow": lambda p: _table1(
        p, [{"statistics": "boson", "m": 1100, "N": 2, "k": 550}], members="1"),
    # Fermion bases hold at most 64 sites; table1 refuses before generating its first system.
    "generate_fermion_past_64_sites": lambda p: [
        "generate", "--statistics", "fermion", "-m", "64", "-N", "65", "-k", "1",
        "--members", "1", "--out", str(p / "out")],
    "table1_fermion_past_64_sites": lambda p: _table1(
        p, [{"statistics": "fermion", "m": 6, "N": 12, "k": 2},
            {"statistics": "fermion", "m": 1, "N": 65, "k": 1}], members="1"),
}
# Fermion systems whose d x d Hamiltonian fits but whose k-body draw does not.
PAST_DENSE_MEMORY = {
    "kbody_c30_15": (29, 30, 15),  # d = 30, d_k = 155,117,520
    "kbody_c40_3": (39, 40, 3),  # d = 40, d_k = 9,880: 3.9 GB of draw
}


def _past_dense_memory(tmp_path, command, system):
    m, n_sites, k = PAST_DENSE_MEMORY[system]
    if command == "table1":
        return _table1(tmp_path, [{"statistics": "fermion", "m": m, "N": n_sites, "k": k}], "1")
    return ["generate", "--statistics", "fermion", "-m", str(m), "-N", str(n_sites), "-k", str(k),
            "--members", "1", "--out", str(tmp_path / "out")]


INVALID_COMMAND_LINES.update({
    f"{command}_{system}": lambda p, c=command, s=system: _past_dense_memory(p, c, s)
    for command in ("generate", "table1") for system in PAST_DENSE_MEMORY
})


@pytest.mark.parametrize("case", sorted(INVALID_COMMAND_LINES))
def test_invalid_command_line_exits_2_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative output path that slips through lands here
    argv = INVALID_COMMAND_LINES[case](tmp_path)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert _tree(tmp_path) == before  # no directory made, no file written


def test_analytic_rank_outside_domain_creates_no_output(tmp_path):
    argv = _analytic(tmp_path, "boson", 10, 5, 6, 0.9)
    assert run_cli(*argv) == 2
    assert not (tmp_path / "ana").exists()


@pytest.mark.parametrize(
    "case",
    ["analytic_too_many_grid_points", "analytic_too_many_modes",
     "analytic_fermion_scale_overflow", "analytic_boson_scale_overflow",
     "analytic_mode_past_float_range"],
)
def test_analytic_rejected_size_creates_no_output(case, tmp_path):
    argv = INVALID_COMMAND_LINES[case](tmp_path)
    assert run_cli(*argv) == 2
    assert not (tmp_path / "ana").exists()


def test_analytic_closed_form_q_refuses_oversized_system_fast(tmp_path):
    # The scale check runs before the U(N) sum, whose binomials would have 10^6 bits.
    argv = INVALID_COMMAND_LINES["analytic_fermion_scale_overflow_without_q"](tmp_path)
    start = time.perf_counter()
    assert run_cli(*argv) == 2
    assert time.perf_counter() - start < 1.0


def test_plan_of_230_300_intermediates_generated(tmp_path):
    # Fermions m=48 N=50 k=2 (d = d_k = 1,225): C(50, 46) intermediates of C(4, 2)
    # pairs each, a 33 MB plan.
    argv = ["generate", "--statistics", "fermion", "-m", "48", "-N", "50", "-k", "2",
            "--members", "1", "--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 0
    assert len(read_archive(tmp_path / "out" / "spectra.egoearc").records) == 1


class TestMomentsPastFloat64:
    """Levels whose centred powers leave float64 end in one error line, exit 1."""

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    @pytest.mark.parametrize("command", ["decompose", "fluct"])
    def test_scaled_archive(self, command, scale, tmp_path, capsys):
        archive = generate_archive(SMALL)
        records = tuple(Spectrum(r.eigenvalues * scale, r.member, r.seed) for r in archive.records)
        path = tmp_path / "scaled.egoearc"
        write_archive(path, SpectrumArchive(spec=SMALL, records=records))
        capsys.readouterr()
        assert run_cli(command, "--archive", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]

    def test_table1_levels_near_1e180(self, tmp_path, capsys, monkeypatch):
        # Boson m=600, N=2, k=300 (d=601): C(600, 300) fits a float64, the levels'
        # squares do not, so the level-scale check refuses it before any member.
        monkeypatch.setattr("egoek.pipeline.build_member", TestLevelScaleGuard.refuse)
        argv = _table1(tmp_path, [{"statistics": "boson", "m": 600, "N": 2, "k": 300}], "1")
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]
        assert not (tmp_path / "tab").exists()


class TestLevelScaleGuard:
    """Specs whose levels' fourth centred moment would leave float64 are refused up front.

    ``table1`` grids carry no nu2; its refusal is ``test_table1_levels_near_1e180``.
    """

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a member was built before the level-scale check")

    @pytest.fixture(autouse=True)
    def no_member(self, monkeypatch):
        monkeypatch.setattr("egoek.pipeline.build_member", self.refuse)

    @pytest.mark.parametrize(
        "system",
        [
            # Levels near 6e151, past float64 in their fourth power.
            {"statistics": "boson", "m": 10, "N": 5, "k": 2, "nu2": 1e300},
            # Boson m=600, N=2, k=300 (d=601): C(600, 300) fits a float64, the
            # levels' squares (near 1e359) do not, nor does spectral_variance.
            {"statistics": "boson", "m": 600, "N": 2, "k": 300},
            # Levels near 6e-79, whose fourth powers fall below float64's normal range.
            {"statistics": "boson", "m": 10, "N": 5, "k": 2, "nu2": 1e-160},
            # d = 1, so the dense check passes; sizes past float64 put the variance past it.
            {"statistics": "fermion", "m": 10**400, "N": 10**400, "k": 1},
            # d = 1 again; an exact C(1e9, 5e8) in the variance would stall.
            {"statistics": "fermion", "m": 10**9, "N": 10**9, "k": 5 * 10**8},
        ],
        ids=["nu2-1e300", "boson-m600", "nu2-1e-160", "sizes-past-float64", "fermion-k5e8"],
    )
    def test_generate_refuses_before_any_member(self, system, tmp_path, capsys):
        config = _config(tmp_path, {"ensemble": {**system, "members": 2}})
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli("generate", "--config", config, "--out", str(tmp_path / "out")) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]
        assert not (tmp_path / "out").exists()

    def test_spec_refuses(self):
        with pytest.raises(ValueError, match="10\\^152"):
            EnsembleSpec(Statistics.BOSON, m=10, n_sites=5, k=2, members=1, nu2=1e300)
        spec = EnsembleSpec(Statistics.BOSON, m=10, n_sites=5, k=2, members=1)
        with pytest.raises(ValueError, match="10\\^152"):
            replace(spec, nu2=1e300)

    # The default grid holds every benchmark system.
    @pytest.mark.parametrize("entry", DEFAULT_TABLE_GRID + [
        {"statistics": "fermion", "m": 1, "N": MAX_DENSE_DIMENSION, "k": 1},
        {"statistics": "boson", "m": 1100, "N": 2, "k": 1},
    ])
    def test_reference_systems_accepted(self, entry):
        ensemble_from_dict(entry, keys=("statistics", "m", "N", "k"))


@pytest.mark.parametrize("nu2", [2e146, 6e-157])
def test_level_scale_bound_is_safe(nu2):
    """Boson m=10 N=5 k=2 at the edges of the accepted nu2 has finite moments."""
    spec = EnsembleSpec(Statistics.BOSON, m=10, n_sites=5, k=2, members=1, nu2=nu2)
    with pytest.raises(ValueError, match="float64"):
        replace(spec, nu2=nu2 * 1.1 if nu2 > 1 else nu2 / 1.1)
    scaled = moments(generate_archive(spec).records[0])
    reference = moments(generate_archive(replace(spec, nu2=1.0)).records[0])
    assert scaled.excess == pytest.approx(reference.excess, rel=1e-9)
    assert scaled.skewness == pytest.approx(reference.skewness, rel=1e-9, abs=1e-12)


def _with_levels(data: bytes, dimension: int, edit) -> bytes:
    """Archive bytes with every record's levels replaced by ``edit(levels)``."""
    (length,) = struct.unpack("<I", data[8:12])
    start, record = 12 + length, 12 + 8 * dimension
    out = bytearray(data)
    for offset in range(start, len(data), record):
        levels = np.frombuffer(data, "<f8", dimension, offset + 12)
        out[offset + 12 : offset + record] = np.asarray(edit(levels), "<f8").tobytes()
    return bytes(out)


BAD_LEVELS = {
    "descending": lambda levels: levels[::-1],
    "nan": lambda levels: np.concatenate([levels[:-1], [np.nan]]),
    "inf": lambda levels: np.concatenate([levels[:-1], [np.inf]]),
}


class TestArchiveLevels:
    """Records whose levels are not finite and ascending are refused on write and read."""

    @pytest.mark.parametrize("case", sorted(BAD_LEVELS))
    def test_writer_refuses_before_opening(self, case, tmp_path):
        archive = generate_archive(SMALL)
        records = archive.records[:1] + tuple(
            Spectrum(BAD_LEVELS[case](r.eigenvalues), r.member, r.seed)
            for r in archive.records[1:]
        )
        path = tmp_path / "a.egoearc"
        with pytest.raises(ValueError, match="member 1: levels must be finite and ascending"):
            write_archive(path, SpectrumArchive(spec=SMALL, records=records))
        assert not path.exists()

    def test_ties_accepted(self, tmp_path):
        spec = replace(SMALL, members=1)
        record = Spectrum(np.repeat([-1.0, 0.0, 2.0, 5.0], 5), member=0,
                          seed=member_seed(spec.master_seed, 0))
        write_archive(tmp_path / "a.egoearc", SpectrumArchive(spec=spec, records=(record,)))
        assert read_archive(tmp_path / "a.egoearc").records[0].eigenvalues.tobytes() == (
            record.eigenvalues.tobytes())

    @pytest.mark.parametrize("case", sorted(BAD_LEVELS))
    @pytest.mark.parametrize("command", ["decompose", "fluct"])
    def test_reader_refuses(self, case, command, tmp_path, capsys):
        path = tmp_path / "a.egoearc"
        write_archive(path, generate_archive(SMALL))
        path.write_bytes(_with_levels(path.read_bytes(), SMALL.dimension, BAD_LEVELS[case]))
        with pytest.raises(ArchiveFormatError, match="member 0: levels are not finite"):
            read_archive(path)
        capsys.readouterr()
        assert run_cli(command, "--archive", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "ascending" in err[0]
        assert not (tmp_path / "out").exists()


_HEAD = struct.Struct("<IQ")

# Each edits the (member, seed) labels of SMALL's three records.
BAD_LABELS = {
    "repeated_member": lambda heads: [heads[0]] * len(heads),
    "swapped_members": lambda heads: [heads[1], heads[0], *heads[2:]],
    "wrong_seed": lambda heads: [heads[0], (heads[1][0], heads[1][1] ^ 1), *heads[2:]],
}


def _relabelled(data: bytes, dimension: int, edit) -> bytes:
    """Archive bytes with the records' (member, seed) heads replaced by ``edit(heads)``."""
    (length,) = struct.unpack("<I", data[8:12])
    offsets = range(12 + length, len(data), 12 + 8 * dimension)
    out = bytearray(data)
    for offset, head in zip(offsets, edit([_HEAD.unpack_from(data, o) for o in offsets])):
        _HEAD.pack_into(out, offset, *head)
    return bytes(out)


class TestArchiveLabels:
    """Record i must be member i with seed member_seed(master_seed, i), on write and read."""

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_writer_refuses_before_opening(self, case, tmp_path):
        archive = generate_archive(SMALL)
        heads = BAD_LABELS[case]([(r.member, r.seed) for r in archive.records])
        records = tuple(Spectrum(r.eigenvalues, member, seed)
                        for r, (member, seed) in zip(archive.records, heads, strict=True))
        path = tmp_path / "a.egoearc"
        with pytest.raises(ValueError, match="the header implies member"):
            write_archive(path, SpectrumArchive(spec=SMALL, records=records))
        assert not path.exists()

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    @pytest.mark.parametrize("command", ["decompose", "fluct"])
    def test_reader_refuses(self, case, command, tmp_path, capsys):
        path = tmp_path / "a.egoearc"
        write_archive(path, generate_archive(SMALL))
        path.write_bytes(_relabelled(path.read_bytes(), SMALL.dimension, BAD_LABELS[case]))
        with pytest.raises(ArchiveFormatError, match="the header implies member"):
            read_archive(path)
        capsys.readouterr()
        assert run_cli(command, "--archive", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "is labelled" in err[0]
        assert not (tmp_path / "out").exists()


class TestDelta3WindowGuard:
    def test_fluct_on_tiny_archive_reports_runtime_error(self, tmp_path):
        spec = EnsembleSpec(F, m=2, n_sites=6, k=2, members=2, master_seed=3)
        path = tmp_path / "tiny.egoearc"
        write_archive(path, generate_archive(spec))
        code = run_cli("fluct", "--archive", str(path), "--out", str(tmp_path / "out"))
        assert code == 1  # d=15 gives the periodogram fewer than its 16 samples

    def test_failed_fluct_writes_nothing(self, tmp_path, capsys):
        # d=20 suffices for the periodograms and the NNSD, but not for L=60 Delta3 windows.
        archive, out = _small_archive(tmp_path), tmp_path / "out"
        capsys.readouterr()
        assert run_cli("fluct", "--archive", archive, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "window length" in err[0]
        assert not out.exists()
        config = _config(tmp_path, {"analysis": {"l_max": 4}})
        assert run_cli("fluct", "--archive", archive, "--config", config, "--out", str(out)) == 0
        before = _tree(out)
        assert len(before) == 4
        assert run_cli("fluct", "--archive", archive, "--out", str(out)) == 1
        assert _tree(out) == before


class TestDenseMemoryGuard:
    """Systems whose d x d float64 Hamiltonian would not fit are refused up front."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    @pytest.fixture(autouse=True)
    def no_basis(self, monkeypatch):
        monkeypatch.setattr("egoek.ensemble.enumerate_basis", self.refuse)

    @pytest.mark.parametrize("statistics", [F, Statistics.BOSON], ids=["fermion", "boson"])
    def test_preset_systems_rejected_without_allocation(self, statistics, tmp_path, capsys):
        m, n_sites, _ = QUOTED_Q[statistics]
        spec = EnsembleSpec(statistics, m=m, n_sites=n_sites, k=2, members=2)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DenseMemoryError, match=str(MAX_DENSE_DIMENSION)):
                generate_archive(spec, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        capsys.readouterr()
        argv = ["generate", "--statistics", statistics.value, "-m", str(m), "-N", str(n_sites),
                "-k", "2", "--members", "2", "--threads", "2", "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "out").exists()
        assert time.perf_counter() - start < 1.0

    def test_table1_checks_every_system_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("egoek.pipeline.generate_archive", self.refuse)
        grid = [{"statistics": "fermion", "m": 3, "N": 6, "k": 2},
                {"statistics": "fermion", "m": 10, "N": 20, "k": 2}]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        capsys.readouterr()
        assert run_cli("table1", "--grid", str(grid_path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    # Fermions m=8 in N=16 states: d = 12,870, over the bound for 2 members at once.
    @pytest.mark.parametrize("command", ["generate", "table1"])
    @pytest.mark.parametrize(
        "members, threads, refused",
        [("2", "2", True), ("3", "3", True), ("2", "1", False), ("1", "8", False)],
    )
    def test_cli_counts_members_in_flight(self, command, members, threads, refused, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.setattr("egoek.pipeline.build_member", self.refuse)
        if command == "generate":
            argv = ["generate", "--statistics", "fermion", "-m", "8", "-N", "16", "-k", "2"]
        else:
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps([{"statistics": "fermion", "m": 8, "N": 16, "k": 2}]))
            argv = ["table1", "--grid", str(grid_path)]
        argv += ["--members", members, "--threads", threads, "--out", str(tmp_path / "out")]
        capsys.readouterr()
        if not refused:  # the check passes, and the first member build is reached
            with pytest.raises(AssertionError, match="work started"):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert "dense Hamiltonians at once" in err[0]
        assert not (tmp_path / "out").exists()

    def test_largest_dense_system_accepted(self):
        # Bosons m in N=2 states have d = m + 1 and d_k = 2 at k=1, so only the
        # Hamiltonian binds; m = MAX_DENSE_DIMENSION - 1 sits exactly on the bound.
        def spec(d):
            return EnsembleSpec(Statistics.BOSON, m=d - 1, n_sites=2, k=1)

        check_dense_size(spec(MAX_DENSE_DIMENSION))
        with pytest.raises(DenseMemoryError):
            check_dense_size(spec(MAX_DENSE_DIMENSION + 1))
        # Two members in flight hold at most MAX_DENSE_DIMENSION² entries between them.
        largest = 11_585
        assert 2 * largest**2 <= MAX_DENSE_DIMENSION**2 < 2 * (largest + 1) ** 2
        check_dense_size(spec(largest), workers=2)
        over = spec(largest + 1)
        with pytest.raises(DenseMemoryError, match="2 dense Hamiltonians"):
            check_dense_size(over, workers=2)
        check_dense_size(over, workers=1)

    @pytest.mark.parametrize("command", ["generate", "table1"])
    @pytest.mark.parametrize("system", sorted(PAST_DENSE_MEMORY))
    def test_kbody_and_plan_refused_without_allocation(self, command, system, tmp_path, capsys):
        argv = INVALID_COMMAND_LINES[f"{command}_{system}"](tmp_path)
        capsys.readouterr()
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "k-body draw" in err[0]
        assert not (tmp_path / "out").exists() and not (tmp_path / "tab").exists()

    def test_kbody_draws_counted_per_worker(self):
        # One boson in N sites: d = d_k = N.  One 7,327-row draw fits in 2 GiB at
        # 40 B per entry, two do not (fermions stop at 64 sites).
        largest = math.isqrt(MAX_DENSE_DIMENSION**2 * 8 // 40)
        assert largest == 7_327
        check_dense_size(EnsembleSpec(B, m=1, n_sites=largest, k=1))
        with pytest.raises(DenseMemoryError, match="its k-body draw"):
            check_dense_size(EnsembleSpec(B, m=1, n_sites=largest + 1, k=1))
        with pytest.raises(DenseMemoryError, match="2 k-body draws at once"):
            check_dense_size(EnsembleSpec(B, m=1, n_sites=largest, k=1), workers=2)

    @pytest.mark.parametrize("entry", DEFAULT_TABLE_GRID,
                             ids=lambda e: f"{e['statistics']}-k{e['k']}")
    def test_reference_systems_accepted(self, entry):
        spec = ensemble_from_dict(entry, "system", ("statistics", "m", "N", "k"), members=50)
        check_dense_size(spec, workers=2)

    def test_every_accepted_plan_fits_the_budget(self):
        """No plan rule is needed: each plan that the other rules let through fits their bytes.

        A plan keeps 24 B per (intermediate, k-config) pair and 2N B of occupations per
        intermediate.  Every fermion system on N <= MAX_SITES sites is checked, and boson
        systems on N >= 3 sites until the rules refuse every m; bosons on 2 sites are
        bounded in closed form.  The largest plan, fermions m=33 N=36 k=3, is 1.0 GiB.
        """
        budget = MAX_DENSE_DIMENSION**2 * 8

        def accepted(statistics, m, n_sites, k):
            try:
                check_dense_size(EnsembleSpec(statistics, m=m, n_sites=n_sites, k=k))
            except ValueError:  # refused by the size rules or by the level-scale rule
                return False
            n_inter = dimension(n_sites, m - k, statistics)
            s = dimension(n_sites - m + k if statistics is F else n_sites, k, statistics)
            assert n_inter <= DEFAULT_BASIS_CAP
            assert n_inter * (24 * s + 2 * n_sites) <= budget, (statistics, m, n_sites, k)
            return True

        for n_sites in range(1, MAX_SITES + 1):
            for m in range(1, n_sites + 1):
                for k in range(1, m + 1):
                    accepted(F, m, n_sites, k)
        n_sites = 3
        while True:
            m = 1
            while any([accepted(B, m, n_sites, k) for k in range(1, m + 1)]):
                m += 1
            if m == 1:
                break
            n_sites += 1
        assert n_sites == 7_328  # m = k = 1 and d_k = N: the k-body draw rule ends the loop
        # N = 2: d = m + 1, d_k = k + 1, m - k + 1 intermediates of k + 1 pairs each.
        largest_m, largest_k = MAX_DENSE_DIMENSION - 1, 7_326
        assert accepted(B, largest_m, 2, 1) and not accepted(B, largest_m + 1, 2, 1)
        assert accepted(B, largest_k, 2, largest_k)
        assert not accepted(B, largest_k + 1, 2, largest_k + 1)
        pairs = max((largest_m - k + 1) * (k + 1) for k in range(1, largest_k + 1))
        assert pairs * 24 + (largest_m + 1) * 4 <= budget
