"""Command-line pipeline: generate | decompose | fluct | analytic | table1.

Exit codes: 0 success, 2 validation error, 1 runtime error.  All randomness
flows from the master seed; reruns with the same configuration are
byte-identical regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import analytic, archive as arc, fluctuations as fl, periodogram as pg, pipeline
from .config import (
    ENSEMBLE_KEYS,
    FORMAT_VERSION,
    ConfigError,
    RunConfig,
    config_from_dict,
    ensemble_from_dict,
    merge_layers,
    read_json,
)
from .decomposition import goe_delta_rms
from .ensemble import DEFAULT_MEMBERS, DEFAULT_SEED, DenseMemoryError, check_dense_size
from .fock import Statistics
from .qhermite import support_halfwidth

ARCHIVE_NAME = "spectra.egoearc"
MAX_GRID_POINTS = 1_000_000  # of an analytic curve, one float64 each

DEFAULT_TABLE_GRID = (
    [{"statistics": "fermion", "m": 6, "N": 12, "k": k} for k in range(2, 7)]
    + [{"statistics": "boson", "m": 10, "N": 5, "k": k} for k in range(2, 11)]
)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers from a command-line flag."""
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} must list at least one integer")
    return values


def _run_config(args, archive: arc.SpectrumArchive | None = None) -> RunConfig:
    """Parse, once, the --config file overlaid by the flags, then by the archive's spec."""
    flags = {"ensemble": {key: getattr(args, key) for key in ENSEMBLE_KEYS
                          if getattr(args, key, None) is not None}}
    if getattr(args, "orders", None):
        flags["analysis"] = {"orders": list(_parse_ints(args.orders, "orders"))}
    if args.out:
        flags["out_dir"] = args.out
    layers = [read_json(args.config, "config")] if args.config else []
    layers.append(flags)
    if archive is not None:
        layers.append({"ensemble": archive.spec.to_dict()})
    return config_from_dict(merge_layers(*layers))


def _out_dir(path: str) -> Path:
    """The output directory, made with its parents; called once a command's work is done."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_table(path: Path, header: list[str], blocks, fmt: str = "%.12g") -> None:
    """Write a CSV table with ``\r\n`` line ends, one block of rows at a time.

    Each block is ``(fixed, columns)``: its rows start with the constant
    ``fixed`` fields, then hold one value of each column in the %-format
    ``fmt``.  A block is formatted by a single ``%`` operation.  No field
    needs quoting: the fixed fields are integers, names and formatted numbers.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(_block_text(fixed, columns, fmt) for fixed, columns in blocks)


def _block_text(fixed, columns, fmt: str) -> str:
    lead = "".join(f"{field}," for field in fixed).replace("%", "%%")
    values = [np.asarray(column).tolist() for column in columns]
    row = lead + ",".join([fmt] * len(values)) + "\r\n"
    return (row * len(values[0])) % tuple(chain.from_iterable(zip(*values)))


def _write_json(path: Path, payload: dict, config: RunConfig) -> None:
    payload = {"config": config.to_dict(), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def cmd_generate(args) -> None:
    config = _run_config(args)
    archive = pipeline.generate_archive(config.ensemble, threads=args.threads)
    if args.export_json:
        arc.export_json(archive, args.export_json)
    target = _out_dir(config.out_dir) / ARCHIVE_NAME
    arc.write_archive(target, archive)
    print(f"wrote {target} ({config.ensemble.members} members, d={archive.dimension})")


def _read_archive(args) -> arc.SpectrumArchive:
    if not args.archive:
        raise ConfigError("--archive is required")
    return arc.read_archive(args.archive)


def cmd_decompose(args) -> None:
    archive = _read_archive(args)
    config = _run_config(args, archive)
    decompositions = pipeline.decompose_archive(archive, config.orders, threads=args.threads)
    summary = {
        "mean_delta_rms": {
            str(order): float(np.mean([d.delta_rms(order) for d in decompositions]))
            for order in config.orders
        },
        "member_q": {str(d.member): d.q for d in decompositions},
        "goe_delta_rms": goe_delta_rms(archive.dimension),
    }
    out = _out_dir(config.out_dir)
    write_table(
        out / "delta_series.csv",
        ["member", "order", "E_hat", "delta"],
        (((d.member, o), (d.e_hat, d.delta[o])) for d in decompositions for o in config.orders),
    )
    _write_json(out / "decompose_summary.json", summary, config)
    print(f"wrote {out / 'delta_series.csv'} and decompose_summary.json")


def cmd_fluct(args) -> None:
    archive = _read_archive(args)
    config = _run_config(args, archive)
    spec = archive.spec

    policy_order = fl.unfolding_order(spec.statistics, spec.k)
    decompositions = pipeline.decompose_archive(
        archive, config.orders + (policy_order,), threads=args.threads
    )
    results = pipeline.periodograms_by_order(  # row i of each is config.orders[i]
        decompositions, config.orders, trim=config.trim, oversample=config.oversample
    )

    # Each member's grid has its own step, so a row is the member mean at one grid index.
    mean_f = np.mean([r.frequency for r in results], axis=0)
    mean_power = np.mean([r.power for r in results], axis=0)
    unfolded = pipeline.unfolded_ensemble(archive, decompositions, trim=config.trim)
    hist = fl.nnsd(unfolded, bin_width=config.bin_width, s_max=config.spacing_max)
    curve = fl.delta3(unfolded, l_max=config.l_max)
    summary = {
        "lambda_convention": args.convention,
        "separation": [
            {
                "k": spec.k,
                "order": order,
                "mean_lambda": float(np.mean([
                    pg.significance(r.peak_power[i], r.n_samples, args.convention)
                    for r in results
                ])),
                "mean_f_p": float(np.mean([r.peak_frequency[i] for r in results])),
            }
            for order, i in sorted((order, i) for i, order in enumerate(config.orders))
        ],
        "nnsd_sigma2": hist.sigma2,
        "unfolding_order": policy_order,
    }
    out = _out_dir(config.out_dir)
    write_table(
        out / "periodogram.csv",
        ["k", "order", "f", "P_mean"],
        (((spec.k, o), (mean_f, p)) for o, p in zip(config.orders, mean_power)),
    )
    write_table(
        out / "nnsd.csv",
        ["s_low", "s_high", "density", "wigner", "poisson"],
        [((), (hist.bin_edges[:-1], hist.bin_edges[1:], hist.density, hist.wigner, hist.poisson))],
    )
    write_table(
        out / "delta3.csv",
        ["L", "delta3", "goe", "poisson"],
        [((), (curve.lengths, curve.values, curve.goe, curve.poisson))],
    )
    _write_json(out / "fluct_summary.json", summary, config)
    print(f"wrote periodogram.csv, nnsd.csv, delta3.csv, fluct_summary.json in {out}")


def cmd_analytic(args) -> None:
    statistics = Statistics(args.statistics)
    modes = _parse_ints(args.modes, "modes")
    ks = _parse_ints(args.k_list, "k-list")
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--grid-points must lie in [1, {MAX_GRID_POINTS}]")

    blocks = []
    for k in ks:
        try:  # analytic owns the mode, q, rank, table-size and float64 rules
            q = analytic.ensemble_q(statistics, args.m, args.N, k) if args.q is None else args.q
            half = support_halfwidth(q) if q < 1.0 else 6.0
            grid = np.linspace(-half, half, args.grid_points)
            for n in modes:
                values = analytic.mode_width_curve(statistics, args.m, args.N, k, q, n, grid)
                fixed = (statistics.value, args.m, args.N, k, f"{q:.12g}", n)
                blocks.append((fixed, (grid, values)))
        except ValueError as exc:
            raise ConfigError(f"k={k}: {exc}") from exc
    out = _out_dir(args.out or ".")
    write_table(
        out / "mode_widths.csv",
        ["statistics", "m", "N", "k", "q", "n", "E_hat", "value"],
        blocks,
    )
    print(f"wrote {out / 'mode_widths.csv'}")


def cmd_table1(args) -> None:
    grid = read_json(args.grid, "grid file") if args.grid else DEFAULT_TABLE_GRID
    if not isinstance(grid, list):
        raise ConfigError("grid file must hold a JSON list of systems")
    specs = [
        ensemble_from_dict(entry, "table1 system", ("statistics", "m", "N", "k"),
                           members=args.members, master_seed=args.master_seed)
        for entry in grid
    ]
    for spec in specs:  # reject an oversized system before any is generated
        check_dense_size(spec, min(args.threads, spec.members))

    blocks, summaries = [], []
    for spec in specs:
        summary = pipeline.moment_summary(pipeline.generate_archive(spec, threads=args.threads))
        summaries.append(summary.__dict__)
        fixed = (summary.statistics, summary.m, summary.n_sites, summary.k, summary.members)
        shape = (summary.gamma1_mean, summary.gamma1_se, summary.gamma2_mean,
                 summary.gamma2_se, summary.q_mean)
        blocks.append((fixed, [[value] for value in shape]))
        print(
            f"{summary.statistics} m={summary.m} N={summary.n_sites} k={summary.k}: "
            f"gamma1={summary.gamma1_mean:+.4f} gamma2={summary.gamma2_mean:+.4f}"
        )
    out = _out_dir(args.out or ".")
    write_table(
        out / "table1.csv",
        ["statistics", "m", "N", "k", "members", "gamma1", "gamma1_se", "gamma2", "gamma2_se", "q"],
        blocks,
        fmt="%.6f",
    )
    payload = {
        "format_version": FORMAT_VERSION,
        "members": args.members,
        "master_seed": args.master_seed,
        "rows": summaries,
    }
    (out / "table1.json").write_text(json.dumps(payload, sort_keys=True, indent=2))
    print(f"wrote {out / 'table1.csv'} and table1.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoek",
        description="Embedded Gaussian orthogonal ensembles with k-body interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, archive=False, ensemble_flags=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        if archive:
            p.add_argument("--archive", help="spectrum archive path")
            p.add_argument("--orders", help="comma-separated correction orders")
        if ensemble_flags:
            p.add_argument("--statistics", choices=["fermion", "boson"])
            p.add_argument("-m", type=int, help="particle count")
            p.add_argument("-N", type=int, help="single-particle states")
            p.add_argument("-k", type=int, help="interaction rank")
            p.add_argument("--members", type=int, help="member count override")
            p.add_argument("--seed", type=int, dest="master_seed", help="master seed override")

    p_gen = sub.add_parser("generate", help="build, diagonalize, and archive an ensemble")
    common(p_gen, ensemble_flags=True)
    p_gen.add_argument("--export-json", help="also write a human-readable JSON dump")
    p_gen.set_defaults(func=cmd_generate)

    p_dec = sub.add_parser("decompose", help="level-motion series and fitted corrections")
    common(p_dec, archive=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_flu = sub.add_parser("fluct", help="periodograms, NNSD, and spectral rigidity")
    common(p_flu, archive=True)
    p_flu.add_argument(
        "--convention",
        choices=list(pg.LAMBDA_CONVENTIONS),
        default="fap",
        help="peak-significance convention recorded in outputs",
    )
    p_flu.set_defaults(func=cmd_fluct)

    p_ana = sub.add_parser("analytic", help="closed-form mode-width curves")
    p_ana.add_argument("--statistics", required=True, choices=["fermion", "boson"])
    p_ana.add_argument("-m", type=int, required=True)
    p_ana.add_argument("-N", type=int, required=True)
    p_ana.add_argument("--k-list", required=True, help="comma-separated interaction ranks")
    p_ana.add_argument("--q", type=float, help="shape parameter (else the ensemble's own)")
    p_ana.add_argument("--modes", default="2,3,4,6", help="comma-separated mode indices")
    p_ana.add_argument("--grid-points", type=int, default=801)
    p_ana.add_argument("--out")
    p_ana.set_defaults(func=cmd_analytic)

    p_tab = sub.add_parser("table1", help="ensemble-averaged shape parameters grid")
    p_tab.add_argument("--grid", help="JSON list of {statistics, m, N, k}")
    p_tab.add_argument("--members", type=int, default=DEFAULT_MEMBERS)
    p_tab.add_argument("--seed", type=int, dest="master_seed", default=DEFAULT_SEED)
    p_tab.add_argument("--out")
    p_tab.add_argument("--threads", type=int, default=1)
    p_tab.set_defaults(func=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:  # analytic has no --threads
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        args.func(args)
    except (ConfigError, DenseMemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
