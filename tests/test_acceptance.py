"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-9 run at the stated tolerances on 50-member ensembles of the two
reference systems (6 fermions in 12 states, d=924; 10 bosons in 5 states,
d=1001).  Two clauses are expected to fail for documented reasons (see
notes in the failing tests): the boson variance anchor (criterion 2) and the
peak-significance thresholds (criterion 6).  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from egoek import analytic, decomposition as dc, fluctuations as fl, periodogram as pg
from egoek.cli import main as cli_main
from egoek.ensemble import (
    EnsembleSpec,
    KBodyMatrix,
    build_embedding_plan,
    embed,
    spectral_variance,
)
from egoek.fock import Statistics, dimension, enumerate_basis, enumerate_kconfigs
from egoek.pipeline import (
    decompose_archive,
    generate_archive,
    periodograms_by_order,
    trimmed_motion,
    unfolded_ensemble,
)
from egoek.qhermite import qfactorial, support_halfwidth
from egoek.spectra import moments

from oracles import (
    density_moment,
    identity_embedding_oracle,
    orthogonality_integral,
    sector_indices,
)

F = Statistics.FERMION
B = Statistics.BOSON

MEMBERS = 50
MASTER_SEED = 42
ALL_ORDERS = (2, 3, 4, 5, 6)

EGOE_KS = (2, 3, 4, 5, 6)
BEGOE_KS = tuple(range(2, 11))

# Reference ensemble-averaged shape parameters per interaction rank.
TABLE1 = {
    (F, 2): (0.0023, -0.7172),
    (F, 3): (-0.0002, -0.9422),
    (F, 4): (0.0001, -0.9945),
    (F, 5): (0.0001, -0.9980),
    (F, 6): (-0.0003, -0.9991),
    (B, 2): (-0.0025, -0.1463),
    (B, 3): (-0.0125, -0.3083),
    (B, 4): (0.0024, -0.5834),
    (B, 5): (0.0013, -0.8205),
    (B, 6): (0.0005, -0.9504),
    (B, 7): (0.0000, -0.9909),
    (B, 8): (0.0000, -0.9950),
    (B, 9): (0.0000, -0.9984),
    (B, 10): (0.0000, -0.9995),
}


def system(stat):
    return (6, 12) if stat is F else (10, 5)


def spec_for(stat, k, members=MEMBERS, seed=MASTER_SEED):
    m, n_sites = system(stat)
    return EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=members, master_seed=seed)


@pytest.fixture(scope="module")
def archives():
    out = {}
    for stat, ks in ((F, EGOE_KS), (B, BEGOE_KS)):
        for k in ks:
            out[(stat, k)] = generate_archive(spec_for(stat, k))
    return out


@pytest.fixture(scope="module")
def decompositions(archives):
    return {key: decompose_archive(arc, ALL_ORDERS) for key, arc in archives.items()}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{'  [' + detail + ']' if detail else ''}")


def test_criterion_1_table_reproduction(archives):
    failures = []
    for (stat, k), (g1_ref, g2_ref) in TABLE1.items():
        stats = [moments(s) for s in _spectra(archives[(stat, k)])]
        g1 = float(np.mean([s.skewness for s in stats]))
        g2 = float(np.mean([s.excess for s in stats]))
        line = f"  {stat.value:7s} k={k:2d}: gamma1={g1:+.4f} (ref {g1_ref:+.4f})  gamma2={g2:+.4f} (ref {g2_ref:+.4f})"
        ok = abs(g1 - g1_ref) <= 0.03 and abs(g2 - g2_ref) <= 0.06
        print(line + ("" if ok else "  <-- out of band"))
        if not ok:
            failures.append((stat.value, k, g1, g2))
    report("1 (shape-parameter table, 50 members)", not failures)
    assert not failures


def _spectra(archive):
    from egoek.pipeline import archive_spectra

    return archive_spectra(archive)


def _exact_central_variance(stat, m, n_sites, k):
    """Exact expectation of the per-member central eigenvalue variance."""
    plan = build_embedding_plan(stat, m, n_sites, k)
    d = plan.dimension
    dk = dimension(n_sites, k, stat)
    tmaps = [dict(zip(g.tolist(), zip(a.tolist(), w.tolist()))) for a, g, w in plan.groups]
    s1 = sum(sum(w * w for (_t, w) in gd.values()) ** 2 for gd in tmaps)
    rev = {}
    for i, gd in enumerate(tmaps):
        for g, (t, w) in gd.items():
            rev[(g, t)] = i
    s2 = 0.0
    for gd in tmaps:
        for a, (ba, wa) in gd.items():
            for g, (ag, wg) in gd.items():
                other = rev.get((g, ba))
                if other is None:
                    continue
                hit = tmaps[other].get(a)
                if hit is not None and hit[0] == ag:
                    s2 += wa * wg * tmaps[other][g][1] * hit[1]
    t_diag = np.zeros(dk)
    for gd in tmaps:
        for g, (_t, w) in gd.items():
            t_diag[g] += w * w
    return (s1 + s2) / d - 2.0 * np.sum(t_diag**2) / d**2


def test_criterion_2_variance_propagation(archives):
    # NOTE: the boson clause fails by construction.  The propagation target
    # C(m,k) C(N+m-1,k) is only the direct term of <Tr H^2>/d: BEGOE adds an
    # exchange term, and the per-member variance subtracts the centroid
    # fluctuation.  The exact expectation at (m=10, N=5, k=2), computed from
    # the embedding amplitudes, is 4320.0 = +5.49% above the 4095 anchor,
    # outside the stated 5% band no matter how many members are averaged.
    # The gap does not close as m grows (+5.5%, +4.8%, +4.4% at m=10, 20, 30
    # with N=5); it closes as N grows (+0.13% at m=4, N=40).
    results = []
    for stat, k in ((F, 2), (B, 2)):
        m, n_sites = system(stat)
        target = spectral_variance(spec_for(stat, k))
        measured = float(
            np.mean([moments(s).variance for s in _spectra(archives[(stat, k)])])
        )
        exact = _exact_central_variance(stat, m, n_sites, k)
        ok = abs(measured / target - 1.0) <= 0.05
        print(
            f"  {stat.value:7s} k={k}: measured={measured:8.1f}  target={target:8.1f} "
            f"({measured / target - 1.0:+.2%})  exact expectation={exact:8.1f} "
            f"({exact / target - 1.0:+.2%})"
        )
        results.append(ok)
    report("2 (spectral variance propagation)", all(results))
    assert all(results), (
        "boson anchor C(m,k) C(N+m-1,k) omits the exchange term and the centroid "
        "fluctuation; the exact expectation is outside the 5% band"
    )


def test_criterion_3_qhermite_suite():
    ok = True
    for q in (0.0, 0.3, 0.7, 0.99):
        for n in range(9):
            for m in range(n, 9):
                want = qfactorial(n, q) if n == m else 0.0
                got = orthogonality_integral(n, m, q)
                if abs(got - want) > 1e-8:
                    ok = False
                    print(f"  orthogonality miss: n={n} m={m} q={q}: {got} vs {want}")
        if abs(density_moment(0, q) - 1.0) > 1e-8:
            ok = False
        if abs(density_moment(2, q) - 1.0) > 1e-8:
            ok = False
        if abs(density_moment(4, q) - (q + 2.0)) > 1e-6:
            ok = False
    report("3 (q-deformed polynomial suite)", ok)
    assert ok


def _boson_vandermonde_check(n_sites, m, k):
    basis = enumerate_basis(n_sites, m, B)
    for cfg in basis:
        total = 0
        for labels in combinations_with_replacement(range(n_sites), k):
            mult = {}
            for v in labels:
                mult[v] = mult.get(v, 0) + 1
            term = 1
            for v, nu in mult.items():
                if cfg.occupations[v] < nu:
                    term = 0
                    break
                term *= math.comb(cfg.occupations[v], nu)
            total += term
        if total != math.comb(m, k):
            return False
    return True


def test_criterion_4_identity_embedding():
    ok = True
    for stat in (F, B):
        for n_sites in range(1, 9):
            max_m = min(n_sites, 6) if stat is F else 6
            oracle_cache = {}
            for m in range(1, max_m + 1):
                for k in range(1, m + 1):
                    spec = EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=1, master_seed=0)
                    dk = spec.k_dimension
                    ham = embed(KBodyMatrix(np.eye(dk), 0, 0), spec).matrix
                    expected = math.comb(m, k)
                    off = ham - np.diag(np.diag(ham))
                    if stat is F:
                        exact = np.array_equal(ham, expected * np.eye(spec.dimension))
                    else:
                        exact = (
                            not off.any()
                            and np.allclose(np.diag(ham), expected, rtol=1e-10)
                            and _boson_vandermonde_check(n_sites, m, k)
                        )
                    if not exact:
                        ok = False
                        print(f"  embed identity miss: {stat.value} N={n_sites} m={m} k={k}")
                    if k not in oracle_cache:
                        oracle_cache[k] = identity_embedding_oracle(n_sites, k, stat, max_total=6)
                    total, index = oracle_cache[k]
                    sector = sector_indices(n_sites, m, stat, index)
                    block = np.asarray(total.todense())[np.ix_(sector, sector)]
                    if not np.allclose(block, expected * np.eye(len(sector)), atol=1e-9):
                        ok = False
                        print(f"  oracle miss: {stat.value} N={n_sites} m={m} k={k}")
    report("4 (k-body identity embedding, N <= 8)", ok)
    assert ok


def test_criterion_5_average_fluctuation_separation(decompositions):
    clauses = {}

    rms = lambda key, order: float(
        np.mean([a.decomposition.delta_rms(order) for a in decompositions[key]])
    )

    egoe_k2 = rms((F, 2), 4)
    clauses["EGOE k=2 n0=4 in [0.65, 0.95]"] = 0.65 <= egoe_k2 <= 0.95
    print(f"  EGOE k=2 order-4 mean delta_rms = {egoe_k2:.3f}")

    goe_ref = dc.goe_delta_rms(924)
    egoe_k5 = rms((F, 5), 2)
    clauses["EGOE k=5 n0=2 within 15% of GOE"] = abs(egoe_k5 - goe_ref) <= 0.15 * goe_ref
    print(f"  EGOE k=5 order-2 mean delta_rms = {egoe_k5:.3f} (GOE {goe_ref:.3f})")

    for k in range(2, 7):
        value = rms((B, k), 5)
        clauses[f"BEGOE k={k} n0=5 in [0.85, 1.2]"] = 0.85 <= value <= 1.2
        print(f"  BEGOE k={k} order-5 mean delta_rms = {value:.3f}")

    monotone = True
    for key, analyses in decompositions.items():
        for a in analyses:
            series = [a.decomposition.delta_rms(o) for o in ALL_ORDERS]
            if any(b > x + 1e-9 for x, b in zip(series, series[1:])):
                monotone = False
    clauses["delta_rms non-increasing in order for every member"] = monotone

    failures = [name for name, good in clauses.items() if not good]
    report("5 (average-fluctuation separation)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_6_periodogram_thresholds(decompositions):
    # NOTE: expected to fail.  The stated significance convention,
    # 100 (1 - e^-P)^M against a white-noise null, saturates at ~100 for every
    # cell because GOE-type level motion concentrates power at long
    # wavelengths (measured peak powers 45-400 across all cells, while the
    # <15% threshold needs P_max < ~6.1 at M~832).  No monotone map of the
    # peak power can reproduce the required contrasts either: measured cell
    # orderings cross the required threshold sides: at the same sample count,
    # BEGOE k=4 at n0=6 (mean P_max 110.7) must read below 15 while BEGOE k=6
    # at n0=5 (mean P_max 91.3) must read at least 15.
    cells = {
        (F, 2): (3, 4),
        (F, 3): (3, 4),
        (F, 4): (2,),
        (F, 5): (2,),
        (F, 6): (2,),
        (B, 2): (5, 6),
        (B, 3): (5, 6),
        (B, 4): (5, 6),
        (B, 5): (5, 6),
        (B, 6): (5, 6),
        (B, 8): (2,),
        (B, 9): (2,),
        (B, 10): (2,),
    }
    lam = {}
    for key, orders in cells.items():
        grouped = periodograms_by_order(decompositions[key], orders)
        for order, results in grouped.items():
            lam[(key, order)] = (
                float(np.mean([r.significance for r in results])),
                float(np.mean([r.peak_power for r in results])),
            )
    for ((stat, k), order), (sig, peak) in sorted(
        lam.items(), key=lambda item: (item[0][0][0].value, item[0][0][1], item[0][1])
    ):
        print(
            f"  {stat.value:7s} k={k:2d} n0={order}: mean Lambda(fap)={sig:6.2f}  "
            f"mean P_max={peak:7.1f}"
        )

    clauses = {}
    for k in (2, 3):
        clauses[f"EGOE k={k}: Lambda(n0=3) > 70"] = lam[((F, k), 3)][0] > 70.0
        clauses[f"EGOE k={k}: Lambda(n0=4) < 15"] = lam[((F, k), 4)][0] < 15.0
    for k in (4, 5, 6):
        clauses[f"EGOE k={k}: Lambda(n0=2) < 15"] = lam[((F, k), 2)][0] < 15.0
    for k in range(2, 7):
        clauses[f"BEGOE k={k}: Lambda(n0=6) < 15"] = lam[((B, k), 6)][0] < 15.0
        clauses[f"BEGOE k={k}: Lambda(n0=5) >= 15"] = lam[((B, k), 5)][0] >= 15.0
    for k in (8, 9, 10):
        clauses[f"BEGOE k={k}: Lambda(n0=2) < 15"] = lam[((B, k), 2)][0] < 15.0

    failures = [name for name, good in clauses.items() if not good]
    report(
        "6 (periodogram significance thresholds)",
        not failures,
        f"{len(failures)}/{len(clauses)} clauses out of band",
    )
    assert not failures, "white-noise false-alarm convention cannot meet the thresholds"


def test_criterion_7_goe_fluctuations(archives, decompositions):
    sigma_ok, l1_ok, every_l_ok, endpoint_ok = True, True, True, True
    for (stat, k), archive in archives.items():
        unfolded = unfolded_ensemble(archive, decompositions[(stat, k)])
        hist = fl.nnsd(unfolded)
        width = hist.bin_edges[1] - hist.bin_edges[0]
        l1_wigner = float(np.sum(np.abs(hist.density - hist.wigner)) * width)
        l1_poisson = float(np.sum(np.abs(hist.density - hist.poisson)) * width)
        curve = fl.delta3(unfolded)
        closer = np.abs(curve.values - curve.goe) < np.abs(curve.values - curve.poisson)
        bad_l = curve.lengths[~closer]
        print(
            f"  {stat.value:7s} k={k:2d}: sigma2={hist.sigma2:.3f}  "
            f"L1(W)={l1_wigner:.3f} L1(P)={l1_poisson:.3f}  "
            f"d3(60)={curve.values[-1]:.3f} (GOE {curve.goe[-1]:.3f})"
            + (f"  closer-to-Poisson at L={list(map(int, bad_l))}" if len(bad_l) else "")
        )
        if not 0.25 <= hist.sigma2 <= 0.31:
            sigma_ok = False
        if not l1_wigner < l1_poisson:
            l1_ok = False
        if len(bad_l):
            every_l_ok = False
        m, _ = system(stat)
        if k == m and abs(curve.values[-1] - curve.goe[-1]) >= 0.1:
            endpoint_ok = False
    clauses = {
        "sigma2(0) in [0.25, 0.31] for every k": sigma_ok,
        "NNSD L1-closer to Wigner than Poisson": l1_ok,
        "delta3 closer to GOE than L/15 at every L": every_l_ok,
        "|delta3(60) - GOE| < 0.1 for k=m": endpoint_ok,
    }
    failures = [name for name, good in clauses.items() if not good]
    report("7 (GOE-type fluctuations)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_8_analytic_curves():
    # The central intensity is read as the mode amplitude (ensemble-averaged
    # squared mode coefficient): the curve value literally at the center is
    # identically zero for even modes (the degree n-1 factor vanishes there),
    # and the plotted curves carry an undefined per-(n, q) scale that can
    # reorder them.  The amplitudes are scale-free and carry the binomial
    # factors responsible for the decay in both n and k.
    ok = True
    for stat in (F, B):
        m, n_sites, presets = analytic.PRESET_SYSTEMS[stat]
        for k, q in presets.items():
            half = support_halfwidth(q)
            grid = np.linspace(-half, half, 4001)
            peaks = []
            for n in (2, 3, 4, 6):
                curve = analytic.mode_width_curve(stat, m, n_sites, k, q, n, grid)
                if not np.allclose(curve.values, curve.values[::-1], rtol=1e-9, atol=1e-12):
                    ok = False
                    print(f"  evenness miss: {stat.value} k={k} n={n}")
                support = grid[curve.values > 0]
                halfwidth = 0.5 * (support[-1] - support[0])
                if abs(halfwidth - half) > (grid[1] - grid[0]) * 2:
                    ok = False
                    print(f"  support miss: {stat.value} k={k} n={n}")
                peaks.append(curve.peak)
            if not all(b < a for a, b in zip(peaks, peaks[1:])):
                ok = False
                print(f"  curve-peak ordering miss: {stat.value} k={k}: {peaks}")

        def amplitude(n, k):
            if stat is F:
                return analytic.sn2_fermion(n, m, n_sites, k)
            return analytic.sn2_boson(n, n_sites, k)

        for k in sorted(presets):
            in_mode = [amplitude(n, k) for n in (2, 3, 4, 6)]
            if not all(b < a for a, b in zip(in_mode, in_mode[1:])):
                ok = False
                print(f"  mode-intensity ordering miss: {stat.value} k={k}: {in_mode}")
        for n in (2, 3, 4, 6):
            in_rank = [amplitude(n, k) for k in sorted(presets)]
            if not all(b < a for a, b in zip(in_rank, in_rank[1:])):
                ok = False
                print(f"  rank-intensity ordering miss: {stat.value} n={n}: {in_rank}")
    report("8 (closed-form mode-width curves)", ok)
    assert ok


def test_criterion_9_determinism(tmp_path):
    base = [
        "generate", "--statistics", "fermion", "-m", "4", "-N", "8", "-k", "2",
        "--members", "4", "--seed", "2024",
    ]
    payloads = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert cli_main(base + ["--out", str(out), "--threads", threads]) == 0
        payloads.append((out / "spectra.egoearc").read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report("9 (byte-identical regeneration across runs and threads)", ok)
    assert ok
