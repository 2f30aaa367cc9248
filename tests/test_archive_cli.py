import json
import math
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import egoek.qhermite
from egoek.archive import (
    ArchiveFormatError,
    MemberRecord,
    SpectrumArchive,
    export_json,
    read_archive,
    write_archive,
)
from egoek.analytic import PRESET_SYSTEMS
from egoek.cli import build_parser, main
from egoek.config import VALID_ORDERS, ConfigError, RunConfig, config_from_dict, load_config
from egoek.ensemble import (
    MAX_DENSE_DIMENSION,
    DenseMemoryError,
    EnsembleSpec,
    check_dense_size,
)
from egoek.fock import Statistics
from egoek.periodogram import MAX_OVERSAMPLE
from egoek.pipeline import generate_archive

F = Statistics.FERMION

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


@st.composite
def small_archives(draw):
    """Archives of small systems holding arbitrary float64 levels (nan and inf too)."""
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
    levels = st.lists(st.floats(width=64), min_size=spec.dimension, max_size=spec.dimension)
    records = tuple(
        MemberRecord(
            member=draw(st.integers(0, 2**32 - 1)),
            seed=draw(st.integers(0, 2**64 - 1)),
            eigenvalues=np.array(draw(levels), dtype=float),
        )
        for _ in range(spec.members)
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
    "float_dimension": lambda data: _with_header(data, lambda h: {**h, "dimension": 20.0}),
    "bool_master_seed": lambda data: _with_header(data, lambda h: {**h, "master_seed": True}),
    "infinite_nu2": lambda data: _with_header(data, lambda h: {**h, "nu2": math.inf}),
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
    """Valid run configurations over small systems."""
    stat = draw(st.sampled_from([F, Statistics.BOSON]))
    m = draw(st.integers(1, 6))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    spec = EnsembleSpec(
        stat,
        m=m,
        n_sites=draw(st.integers(m if stat is F else 1, 12)),
        k=draw(st.integers(1, m)),
        members=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        nu2=draw(positive),
    )
    orders = draw(st.permutations(VALID_ORDERS))[: draw(st.integers(1, len(VALID_ORDERS)))]
    return RunConfig(
        ensemble=spec,
        orders=tuple(orders),
        trim=draw(st.floats(0.0, 1.0, exclude_max=True)),
        l_max=draw(st.integers(2, 10**6)),
        bin_width=draw(positive),
        spacing_max=draw(positive),
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

    def test_load_and_roundtrip(self, tmp_path):
        payload = {
            "ensemble": {"statistics": "boson", "m": 4, "N": 3, "k": 2, "members": 5,
                          "master_seed": 9},
            "analysis": {"orders": [2, 4], "trim": 0.2},
            "out_dir": "somewhere",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = load_config(path)
        assert config.ensemble.statistics is Statistics.BOSON
        assert config.orders == (2, 4)
        assert config.to_dict()["analysis"]["trim"] == 0.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

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

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EGOE_THREADS", "2")
        out = tmp_path / "env"
        code = run_cli("generate", "--statistics", "fermion", "-m", "3", "-N", "6",
                       "-k", "2", "--members", "2", "--seed", "5", "--out", str(out))
        assert code == 0
        assert (out / "spectra.egoearc").exists()

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

    def test_export_json_flag(self, tmp_path):
        out = tmp_path / "dump"
        dump = tmp_path / "dump.json"
        assert run_cli("generate", "--statistics", "fermion", "-m", "3", "-N", "6",
                       "-k", "2", "--members", "2", "--seed", "8",
                       "--out", str(out), "--export-json", str(dump)) == 0
        assert json.loads(dump.read_text())["header"]["m"] == 3

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

    def test_analytic_requires_preset_or_q(self, tmp_path):
        code = run_cli("analytic", "--statistics", "fermion", "-m", "6", "-N", "12",
                       "--k-list", "2", "--out", str(tmp_path))
        assert code == 2  # no preset for that system and no explicit q

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
    return ["generate", "--config", _config(tmp_path, payload), "--out", str(tmp_path)], {}


def _generate_analysis(tmp_path, analysis):
    return _generate_config(tmp_path, {"ensemble": SYSTEM, "analysis": analysis})


SYSTEM = {"statistics": "fermion", "m": 3, "N": 6, "k": 2}
GENERATE = ["generate", "--statistics", "fermion", "-m", "3", "-N", "6", "-k", "2", "--members", "2"]

ANALYTIC = ["analytic", "--statistics", "fermion", "-m", "10", "-N", "20", "--k-list", "2"]

# Each case maps an output directory to (argv, environment overrides).
INVALID_COMMAND_LINES = {
    "table1_grid_missing_key": lambda p: (_table1(p, [{"statistics": "fermion", "m": 3, "N": 6}]), {}),
    "table1_grid_non_object": lambda p: (_table1(p, [3]), {}),
    "table1_grid_unknown_statistics": lambda p: (_table1(p, [{**SYSTEM, "statistics": "quark"}]), {}),
    "table1_zero_members": lambda p: (_table1(p, [SYSTEM], members="0"), {}),
    "table1_fractional_m": lambda p: (_table1(p, [{"statistics": "fermion", "m": 6.5, "N": 12,
                                                   "k": 2}]), {}),
    "table1_fractional_N": lambda p: (_table1(p, [{**SYSTEM, "N": 6.5}]), {}),
    "table1_fractional_k": lambda p: (_table1(p, [{**SYSTEM, "k": 1.5}]), {}),
    "config_fractional_m": lambda p: (
        ["generate", "--config", _config(p, {"ensemble": {**SYSTEM, "m": 2.5}}), "--out", str(p)],
        {},
    ),
    "config_bool_m": lambda p: _generate_config(p, {"ensemble": {**SYSTEM, "m": True}}),
    "config_infinite_nu2": lambda p: _generate_config(p, {"ensemble": {**SYSTEM, "nu2": math.inf}}),
    "config_fractional_order": lambda p: _generate_analysis(p, {"orders": [2, 3.5]}),
    "config_analysis_not_object": lambda p: _generate_config(p, {"ensemble": SYSTEM,
                                                                 "analysis": [1, 2]}),
    "config_fractional_l_max": lambda p: _generate_analysis(p, {"l_max": 8.7}),
    "config_fractional_oversample": lambda p: _generate_analysis(p, {"oversample": 4.5}),
    "config_bool_oversample": lambda p: _generate_analysis(p, {"oversample": True}),
    "config_format_version": lambda p: _generate_config(p, {"ensemble": SYSTEM,
                                                            "format_version": "99"}),
    "config_unknown_analysis_key": lambda p: _generate_analysis(p, {"trimm": 0.2}),
    "config_unknown_top_key": lambda p: _generate_config(p, {"ensemble": SYSTEM, "ensembel": {}}),
    "table1_bool_k": lambda p: (_table1(p, [{**SYSTEM, "k": True}]), {}),
    "generate_zero_threads": lambda p: (GENERATE + ["--threads", "0", "--out", str(p)], {}),
    "generate_env_zero_threads": lambda p: (GENERATE + ["--out", str(p)], {"EGOE_THREADS": "0"}),
    "analytic_zero_grid_points": lambda p: (ANALYTIC + ["--grid-points", "0", "--out", str(p)], {}),
    "analytic_q_above_one": lambda p: (ANALYTIC + ["--q", "1.5", "--out", str(p)], {}),
    "analytic_q_negative": lambda p: (ANALYTIC + ["--q", "-0.5", "--out", str(p)], {}),
    "analytic_q_nan": lambda p: (ANALYTIC + ["--q", "nan", "--out", str(p)], {}),
}


@pytest.mark.parametrize("case", sorted(INVALID_COMMAND_LINES))
def test_invalid_command_line_exits_2_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    argv, env = INVALID_COMMAND_LINES[case](tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


class TestDelta3WindowGuard:
    def test_fluct_on_tiny_archive_reports_runtime_error(self, tmp_path):
        spec = EnsembleSpec(F, m=2, n_sites=6, k=2, members=2, master_seed=3)
        path = tmp_path / "tiny.egoearc"
        write_archive(path, generate_archive(spec))
        code = run_cli("fluct", "--archive", str(path), "--out", str(tmp_path / "out"))
        assert code == 1  # d=15 cannot host L=60 windows


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
        m, n_sites, _ = PRESET_SYSTEMS[statistics]
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
                "-k", "2", "--members", "2", "--threads", "2", "--out", str(tmp_path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert time.perf_counter() - start < 1.0

    def test_table1_checks_every_system_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("egoek.pipeline.generate_archive", self.refuse)
        grid = [{"statistics": "fermion", "m": 3, "N": 6, "k": 2},
                {"statistics": "fermion", "m": 10, "N": 20, "k": 2}]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        capsys.readouterr()
        assert run_cli("table1", "--grid", str(grid_path), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "table1.csv").exists()

    def test_largest_dense_system_accepted(self):
        # Fermions m=1 in N=MAX_DENSE_DIMENSION states sit exactly on the bound.
        check_dense_size(EnsembleSpec(F, m=1, n_sites=MAX_DENSE_DIMENSION, k=1))
        with pytest.raises(DenseMemoryError):
            check_dense_size(EnsembleSpec(F, m=1, n_sites=MAX_DENSE_DIMENSION + 1, k=1))
