"""Brute-force second-quantization oracles built from explicit operator matrices.

The per-object amplitude layer (one validated ``OccupationConfig`` per basis
state and one ``KConfig`` per k-config, both built from itertools in the
basis order, and attach/detach/transition amplitudes on them, with fermion
states as N-bit masks) and the per-state double loop over it that built the
embedding plan are the parity oracle of the vectorized plan build and of
``fock``'s occupation table and ranks.  Independent of that
bookkeeping: fermion operators are dense Jordan-Wigner matrices on the full
2^N space, boson operators live on the total-occupation-truncated product
space, and k-body operators are formed by literal matrix products.  The GOE
rigidity oracle integrates the two-level cluster function with adaptive
quadrature, and scipy's sine integral is the accuracy oracle of the
Gauss-Legendre one inside the exact rigidity; the rigidity's large-L
asymptote is kept here as a reference too, and a long-double
window-by-window Delta3 is the accuracy oracle of the prefix-sum form.  The direct Lomb-Scargle form, four trig calls per (frequency, sample)
pair, is the parity oracle of the recurrence.  One ``+=`` update per
intermediate over the embedding plan is the bitwise oracle of embed's chunked
scatter.
The per-row CSV writer (``csv.writer`` over f-string fields) and the row
builders of every table are the byte-parity oracle of the block writer.
The q-normal weight's truncated infinite product is the parity oracle of its
theta series, and the same product at 40 digits (mpmath) is the accuracy
oracle of the series and of the distribution function it integrates to.  The
node-doubling quadrature of moments and orthogonality integrals against the
weight serves the q-Hermite tests.  ``level_motion`` gives the level motion
of a spectrum against a hand-made smooth model, which ``decompose_member``
(fitting its own) cannot.
Reference data: the q values quoted for the paper's systems and the reference
table of ensemble-averaged shape parameters, with Kota's U(N) sum for q written
out in ``math.comb`` and ``Fraction`` as the exact oracle of
``analytic.ensemble_q`` (and of the boson ranks k > N that it refuses).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import mpmath
import numpy as np
from scipy import integrate, sparse, special

from egoek import decomposition as dc, fluctuations as fl, periodogram, qhermite
from egoek.ensemble import EmbeddingPlan
from egoek.fock import FockDomainError, Statistics

F = Statistics.FERMION
B = Statistics.BOSON

# Shape parameters quoted for the paper's systems (fermions: m=10 in N=20;
# bosons: m=20 in N=10), keyed by interaction rank, to their printed decimals.
QUOTED_Q = {
    F: (10, 20, {2: 0.465, 3: 0.176, 4: 0.044, 5: 0.007}),
    B: (20, 10, {2: 0.932, 3: 0.84, 4: 0.712, 5: 0.556}),
}

# The reference systems (m, N) and their ensemble-averaged (gamma1, gamma2) per rank.
REFERENCE_SYSTEMS = {F: (6, 12), B: (10, 5)}
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


def ensemble_q_exact(statistics: Statistics, m: int, n_sites: int, k: int) -> Fraction:
    """q = sum_nu L^nu(m-k) L^nu(k) d(g_nu) / (d L^0(k)^2), nu = 0..min(k, m-k), exactly.

    Fermions: L^nu(r) = C(m-nu, r) C(N-m+r-nu, r), d(g_nu) = C(N,nu)^2 - C(N,nu-1)^2.
    Bosons: L^nu(r) = C(m-nu, r) C(N+m+nu-1, r),
    d(g_nu) = C(N+nu-1,nu)^2 - C(N+nu-2,nu-1)^2.  Needs 1 <= k <= m (and m <= N
    for fermions).
    """
    comb = math.comb
    if statistics is F:
        def lam(nu, r):
            return comb(m - nu, r) * comb(n_sites - m + r - nu, r)

        def irrep(nu):
            return comb(n_sites, nu) ** 2 - (comb(n_sites, nu - 1) ** 2 if nu else 0)

        d = comb(n_sites, m)
    else:
        def lam(nu, r):
            return comb(m - nu, r) * comb(n_sites + m + nu - 1, r)

        def irrep(nu):
            return comb(n_sites + nu - 1, nu) ** 2 - (
                comb(n_sites + nu - 2, nu - 1) ** 2 if nu else 0)

        d = comb(n_sites + m - 1, m)
    total = sum(lam(nu, m - k) * lam(nu, k) * irrep(nu) for nu in range(min(k, m - k) + 1))
    return Fraction(total, d * lam(0, k) ** 2)


@dataclass(frozen=True)
class OccupationConfig:
    """A many-particle basis state |n_1 ... n_N> in occupation representation."""

    statistics: Statistics
    occupations: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.occupations):
            raise FockDomainError("occupations must be non-negative")
        if self.statistics is Statistics.FERMION and any(n > 1 for n in self.occupations):
            raise FockDomainError("fermion occupations must be 0 or 1")

    @property
    def n_sites(self) -> int:
        return len(self.occupations)

    @property
    def total(self) -> int:
        return sum(self.occupations)


def basis_configs(n_sites: int, particles: int, statistics: Statistics) -> list[OccupationConfig]:
    """All m-particle states, one object each, from occupied-site tuples in lexicographic order."""
    if statistics is Statistics.FERMION:
        chooser = combinations(range(n_sites), particles)
    else:
        chooser = combinations_with_replacement(range(n_sites), particles)
    basis = []
    for sites in chooser:
        occ = [0] * n_sites
        for v in sites:
            occ[v] += 1
        basis.append(OccupationConfig(statistics, tuple(occ)))
    return basis


def bitmask(config: OccupationConfig) -> int:
    """Bit i set when site i is occupied (fermions only)."""
    if config.statistics is not Statistics.FERMION:
        raise FockDomainError("bitmask is defined for fermion configs only")
    mask = 0
    for i, n in enumerate(config.occupations):
        mask |= n << i
    return mask


@dataclass(frozen=True)
class KConfig:
    """A k-particle configuration: sorted site labels, repeats allowed for bosons."""

    statistics: Statistics
    indices: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 for i in self.indices):
            raise FockDomainError("site labels must be non-negative")
        pairs = zip(self.indices, self.indices[1:])
        if self.statistics is Statistics.FERMION:
            if not all(a < b for a, b in pairs):
                raise FockDomainError("fermion k-config labels must be strictly increasing")
        elif not all(a <= b for a, b in pairs):
            raise FockDomainError("boson k-config labels must be non-decreasing")

    @property
    def k(self) -> int:
        return len(self.indices)

    def multiplicities(self) -> dict[int, int]:
        """Occupation multiplicity per site label."""
        mult: dict[int, int] = {}
        for v in self.indices:
            mult[v] = mult.get(v, 0) + 1
        return mult


def enumerate_kconfigs(n_sites: int, k: int, statistics: Statistics) -> list[KConfig]:
    """All k-particle configurations, in the same deterministic order as the basis."""
    if k < 0:
        raise FockDomainError("k must be non-negative")
    if statistics is Statistics.FERMION:
        return [KConfig(statistics, c) for c in combinations(range(n_sites), k)]
    if n_sites == 0 and k > 0:
        raise FockDomainError("no single-particle states")
    return [KConfig(statistics, c) for c in combinations_with_replacement(range(n_sites), k)]


def _fermion_detach(mask: int, labels: tuple[int, ...]) -> tuple[int, int] | None:
    # Annihilate in decreasing label order; each step picks up the parity of
    # the occupied sites below the acted label.
    sign = 1
    for v in reversed(labels):
        bit = 1 << v
        if not mask & bit:
            return None
        if bin(mask & (bit - 1)).count("1") & 1:
            sign = -sign
        mask ^= bit
    return sign, mask


def _fermion_attach(mask: int, labels: tuple[int, ...]) -> tuple[int, int] | None:
    # Create in increasing label order, mirror image of _fermion_detach.
    sign = 1
    for v in labels:
        bit = 1 << v
        if mask & bit:
            return None
        if bin(mask & (bit - 1)).count("1") & 1:
            sign = -sign
        mask |= bit
    return sign, mask


def _boson_attach(occupations: tuple[int, ...], kcfg: KConfig) -> tuple[int, tuple[int, ...]]:
    # Squared amplitude and target occupations of the normalized k-fold
    # creator: (1/sqrt(nu!)) * sqrt((s+nu)!/s!) == sqrt(C(s+nu, nu)) per site.
    occ = list(occupations)
    norm_sq = 1
    for v, nu in kcfg.multiplicities().items():
        norm_sq *= math.comb(occ[v] + nu, nu)
        occ[v] += nu
    return norm_sq, tuple(occ)


def detach_amplitude(
    source: OccupationConfig, kcfg: KConfig
) -> tuple[float, OccupationConfig] | None:
    """Amplitude and target of the normalized k-fold annihilator acting on ``source``.

    Returns ``None`` when the operator destroys the state.
    """
    _check_compatible(source, kcfg)
    if source.statistics is Statistics.FERMION:
        res = _fermion_detach(bitmask(source), kcfg.indices)
        if res is None:
            return None
        sign, mask = res
        return float(sign), _config_from_mask(mask, source.n_sites)
    occ = list(source.occupations)
    norm_sq = 1
    for v, nu in kcfg.multiplicities().items():
        if occ[v] < nu:
            return None
        # (1/sqrt(nu!)) * sqrt(s!/(s-nu)!) == sqrt(C(s, nu))
        norm_sq *= math.comb(occ[v], nu)
        occ[v] -= nu
    return math.sqrt(norm_sq), OccupationConfig(Statistics.BOSON, tuple(occ))


def attach_amplitude(
    base: OccupationConfig, kcfg: KConfig
) -> tuple[float, OccupationConfig] | None:
    """Amplitude and target of the normalized k-fold creator acting on ``base``."""
    _check_compatible(base, kcfg)
    if base.statistics is Statistics.FERMION:
        res = _fermion_attach(bitmask(base), kcfg.indices)
        if res is None:
            return None
        sign, mask = res
        return float(sign), _config_from_mask(mask, base.n_sites)
    norm_sq, occ = _boson_attach(base.occupations, kcfg)
    return math.sqrt(norm_sq), OccupationConfig(Statistics.BOSON, occ)


def transition_amplitude(
    source: OccupationConfig, create: KConfig, annihilate: KConfig
) -> tuple[float, OccupationConfig] | None:
    """Matrix element of a normalized pair-transfer operator between basis states.

    Applies the k annihilators of ``annihilate`` (largest label first) and then
    the k creators of ``create`` (smallest label first) to ``source``.  Returns
    ``None`` when the operator annihilates the state.  For fermions the
    amplitude is +-1; for bosons it is the product of square roots of binomial
    factors implied by normalized k-boson configurations.
    """
    if create.k != annihilate.k:
        raise FockDomainError("create and annihilate must transfer the same k")
    step = detach_amplitude(source, annihilate)
    if step is None:
        return None
    amp_down, intermediate = step
    step = attach_amplitude(intermediate, create)
    if step is None:
        return None
    amp_up, target = step
    return amp_down * amp_up, target


def _config_from_mask(mask: int, n_sites: int) -> OccupationConfig:
    occ = tuple((mask >> i) & 1 for i in range(n_sites))
    return OccupationConfig(Statistics.FERMION, occ)


def _check_compatible(config: OccupationConfig, kcfg: KConfig) -> None:
    if config.statistics is not kcfg.statistics:
        raise FockDomainError("statistics mismatch between config and k-config")
    if kcfg.indices and max(kcfg.indices) >= config.n_sites:
        raise FockDomainError("k-config label outside the single-particle space")


def embedding_plan_oracle(
    statistics: Statistics, m: int, n_sites: int, k: int
) -> EmbeddingPlan:
    """The embedding plan by a per-state double loop over intermediates and k-configs."""
    basis = basis_configs(n_sites, m, statistics)
    index = {cfg.occupations: i for i, cfg in enumerate(basis)}
    kconfigs = enumerate_kconfigs(n_sites, k, statistics)
    intermediates = basis_configs(n_sites, m - k, statistics)
    fermionic = statistics is Statistics.FERMION

    targets, kconfig_rows, weight_rows = [], [], []
    for inter in intermediates:
        a_idx, g_idx, weights = [], [], []
        for g, kcfg in enumerate(kconfigs):
            if fermionic:
                res = _fermion_attach(bitmask(inter), kcfg.indices)
                if res is None:
                    continue
                sign, mask = res
                occ = tuple((mask >> i) & 1 for i in range(n_sites))
                a_idx.append(index[occ])
                g_idx.append(g)
                weights.append(float(sign))
            else:
                norm_sq, occ = _boson_attach(inter.occupations, kcfg)
                a_idx.append(index[occ])
                g_idx.append(g)
                weights.append(math.sqrt(norm_sq))
        if a_idx:
            targets.append(a_idx)
            kconfig_rows.append(g_idx)
            weight_rows.append(weights)
    return EmbeddingPlan(
        dimension=len(basis),
        targets=np.array(targets, dtype=np.intp),
        kconfigs=np.array(kconfig_rows, dtype=np.intp),
        weights=np.array(weight_rows),
    )


def embed_loop_oracle(v: np.ndarray, plan: EmbeddingPlan) -> np.ndarray:
    """The embedded matrix by one ``+=`` congruence update per intermediate, in plan order."""
    ham = np.zeros((plan.dimension, plan.dimension))
    for a_idx, g_idx, w in plan.groups:
        block = v[np.ix_(g_idx, g_idx)] * (w[:, None] * w[None, :])
        ham[np.ix_(a_idx, a_idx)] += block
    return ham


def fermion_operators(n_sites: int):
    """Annihilators and creators on the 2^N space; sign counts occupied lower bits."""
    dim = 1 << n_sites
    ann = []
    for v in range(n_sites):
        rows, cols, vals = [], [], []
        bit = 1 << v
        for state in range(dim):
            if state & bit:
                sign = (-1) ** bin(state & (bit - 1)).count("1")
                rows.append(state ^ bit)
                cols.append(state)
                vals.append(float(sign))
        ann.append(sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    cre = [a.T.tocsr() for a in ann]
    return cre, ann


def fermion_pair_operator(cre, ann, create_labels, annihilate_labels):
    """Pair-transfer operator: annihilate in decreasing label order, then create
    in increasing order (first-applied factor rightmost in the product)."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in sorted(annihilate_labels, reverse=True):
        op = ann[v] @ op
    for w in sorted(create_labels):
        op = cre[w] @ op
    return op


def fermion_pair_operator_literal(cre, ann, create_labels, annihilate_labels):
    """Same operator written as the literal normal-ordered product
    f+_{w1}..f+_{wk} f_{vk}..f_{v1}; equal to the sequential form because
    reversing each k-block contributes (-1)^(k(k-1)/2) twice."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in sorted(annihilate_labels):
        op = ann[v] @ op
    for w in sorted(create_labels, reverse=True):
        op = cre[w] @ op
    return op


def boson_basis(n_sites: int, max_total: int):
    """Occupation tuples with total <= max_total."""
    states: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == n_sites:
            states.append(tuple(prefix))
            return
        for n in range(remaining + 1):
            rec(prefix + [n], remaining - n)

    rec([], max_total)
    return states, {s: i for i, s in enumerate(states)}


def boson_operators(n_sites: int, max_total: int):
    states, index = boson_basis(n_sites, max_total)
    dim = len(states)
    ann, cre = [], []
    for v in range(n_sites):
        rows, cols, vals = [], [], []
        for i, s in enumerate(states):
            if s[v] > 0:
                t = list(s)
                t[v] -= 1
                rows.append(index[tuple(t)])
                cols.append(i)
                vals.append(math.sqrt(s[v]))
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        ann.append(a)
        cre.append(a.T.tocsr())
    return states, index, cre, ann


def _multiset_norm(labels) -> float:
    mult: dict[int, int] = {}
    for v in labels:
        mult[v] = mult.get(v, 0) + 1
    out = 1.0
    for nu in mult.values():
        out *= math.factorial(nu)
    return out


def boson_pair_operator(cre, ann, create_labels, annihilate_labels):
    """Normalized pair-transfer operator; boson factors commute."""
    dim = cre[0].shape[0]
    op = sparse.identity(dim, format="csr")
    for v in annihilate_labels:
        op = ann[v] @ op
    for w in create_labels:
        op = cre[w] @ op
    return op / math.sqrt(_multiset_norm(create_labels) * _multiset_norm(annihilate_labels))


def sector_indices(n_sites: int, m: int, statistics: Statistics, index=None):
    """Full-space indices of the m-particle sector, in basis order."""
    basis = basis_configs(n_sites, m, statistics)
    if statistics is Statistics.FERMION:
        return [bitmask(cfg) for cfg in basis]
    return [index[cfg.occupations] for cfg in basis]


def identity_embedding_oracle(n_sites: int, k: int, statistics: Statistics, max_total: int = 6):
    """Full-space matrix of the summed diagonal pair-transfer operators.

    Restricted to an m-particle sector this must equal C(m, k) times the
    identity for every m.
    """
    kconfigs = enumerate_kconfigs(n_sites, k, statistics)
    if statistics is Statistics.FERMION:
        cre, ann = fermion_operators(n_sites)
        dim = cre[0].shape[0]
        total = sparse.csr_matrix((dim, dim))
        for kc in kconfigs:
            down = sparse.identity(dim, format="csr")
            for v in sorted(kc.indices, reverse=True):
                down = ann[v] @ down
            total = total + down.T @ down
        return total, None
    states, index, cre, ann = boson_operators(n_sites, max_total)
    dim = cre[0].shape[0]
    total = sparse.csr_matrix((dim, dim))
    for kc in kconfigs:
        down = sparse.identity(dim, format="csr")
        for v in kc.indices:
            down = ann[v] @ down
        down = down / math.sqrt(_multiset_norm(kc.indices))
        total = total + down.T @ down
    return total, index


def embed_oracle(v_matrix: np.ndarray, n_sites: int, m: int, k: int, statistics: Statistics):
    """m-sector matrix of sum_{alpha,gamma} V[alpha,gamma] A+_alpha A_gamma."""
    kconfigs = enumerate_kconfigs(n_sites, k, statistics)
    if statistics is Statistics.FERMION:
        cre, ann = fermion_operators(n_sites)
        index = None
        pair = lambda a, g: fermion_pair_operator(cre, ann, a.indices, g.indices)
    else:
        _states, index, cre, ann = boson_operators(n_sites, max_total=m)
        pair = lambda a, g: boson_pair_operator(cre, ann, a.indices, g.indices)
    dim = cre[0].shape[0]
    total = sparse.csr_matrix((dim, dim))
    for ia, alpha in enumerate(kconfigs):
        for ig, gamma in enumerate(kconfigs):
            if v_matrix[ia, ig] != 0.0:
                total = total + v_matrix[ia, ig] * pair(alpha, gamma)
    sector = sector_indices(n_sites, m, statistics, index)
    return np.asarray(total.todense())[np.ix_(sector, sector)]


def goe_cluster_y2(r: float) -> float:
    """GOE two-level cluster function, written out point by point."""
    if r == 0.0:
        return 1.0
    x = math.pi * r
    s = math.sin(x) / x
    ds = math.cos(x) / r - math.sin(x) / (x * r)
    return s * s + ds * (0.5 - special.sici(x)[0] / math.pi)


def sine_integral_over_pi(r: np.ndarray) -> np.ndarray:
    """Si(pi r) / pi from ``special.sici``."""
    return special.sici(math.pi * np.asarray(r, dtype=float))[0] / math.pi


def goe_delta3_quad(length: float) -> float:
    """GOE Delta3(L) from Mehta's cluster-function integral by adaptive quadrature."""
    L = float(length)
    integral, _err = integrate.quad(
        lambda r: (L - r) ** 3 * (2 * L**2 - 9 * L * r - 3 * r**2) * goe_cluster_y2(r),
        0.0,
        L,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return L / 15.0 - integral / (15.0 * L**4)


def delta3_long_double(levels: np.ndarray, lengths, window_step: float = 2.0) -> np.ndarray:
    """Delta3 of one spectrum per window length, window by window in long double.

    Windows start at levels[0] + window_step * w and hold the levels in
    [x, x + L); each window's least-squares residual is summed directly from
    its local positions t = e - x.
    """
    e = np.asarray(levels, dtype=np.longdouble)
    out = []
    for length in lengths:
        L = np.longdouble(length)
        n_windows = int(math.floor((float(levels[-1] - levels[0]) - length) / window_step)) + 1
        values = []
        for w in range(n_windows):
            x = e[0] + np.longdouble(window_step) * w
            t = e[(e >= x) & (e < x + L)] - x
            j = np.arange(1, len(t) + 1, dtype=np.longdouble)
            a_term = np.sum((2 * j - 1) * (L - t))
            i0 = np.sum(L - t)
            i1 = np.sum(L * L - t * t) / 2
            values.append(a_term / L - 4 * i0**2 / L**2 + 12 * i0 * i1 / L**3 - 12 * i1**2 / L**4)
        out.append(float(np.mean(np.array(values, dtype=np.longdouble))))
    return np.array(out)


def goe_delta3(lengths) -> np.ndarray:
    """Large-L asymptote of the GOE rigidity, (ln(2 pi L) + gamma - 5/4 - pi^2/8) / pi^2.

    Only the L -> infinity limit of ``goe_delta3_exact``: it gives 0.0633
    against the GOE value 0.1024 at L=2, and it is negative below L ~ 1.07.
    """
    L = np.asarray(lengths, dtype=float)
    return (np.log(2.0 * math.pi * L) + np.euler_gamma - 1.25 - math.pi**2 / 8.0) / math.pi**2


def lomb_scargle_direct(
    abscissa: np.ndarray,
    values: np.ndarray,
    oversample: int = periodogram.DEFAULT_OVERSAMPLE,
    hifac: float = 1.0,
) -> periodogram.PeriodogramResult:
    """Normalized Lomb-Scargle periodogram with four trig calls per (frequency, sample).

    The direct form of ``periodogram.lomb_scargle`` on the same grid:
    tan(2 w tau) = sum(sin 2 w t) / sum(cos 2 w t), and the cosine and sine
    projections and norms are summed from cos(w t - w tau) and sin(w t - w tau).
    """
    t = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("abscissa and values must be equal-length 1-d arrays")
    n = len(t)
    if n < periodogram.MIN_SAMPLES:
        raise ValueError(f"need at least {periodogram.MIN_SAMPLES} samples")
    y = y - y.mean()
    variance = float(np.sum(y**2)) / (n - 1)
    if variance == 0.0:
        raise periodogram.DegenerateSeriesError("series is constant")

    span = float(t.max() - t.min())
    if span <= 0.0:
        raise ValueError("abscissa has zero span")
    df = 1.0 / (span * oversample)
    n_freq = int(math.floor(0.5 * oversample * hifac * n))
    freqs = df * np.arange(1, n_freq + 1)

    chunk = 256
    power = np.empty(n_freq)
    for lo in range(0, n_freq, chunk):
        omega = 2.0 * math.pi * freqs[lo : lo + chunk, None]
        two_wt = 2.0 * omega * t[None, :]
        tau_phase = 0.5 * np.arctan2(np.sum(np.sin(two_wt), axis=1), np.sum(np.cos(two_wt), axis=1))
        arg = omega * t[None, :] - tau_phase[:, None]
        cos_arg = np.cos(arg)
        sin_arg = np.sin(arg)
        c_proj = cos_arg @ y
        s_proj = sin_arg @ y
        c_norm = np.sum(cos_arg**2, axis=1)
        s_norm = np.sum(sin_arg**2, axis=1)
        power[lo : lo + chunk] = 0.5 / variance * (
            c_proj**2 / c_norm + s_proj**2 / s_norm
        )

    peak_index = int(np.argmax(power))
    return periodogram.PeriodogramResult(
        frequency=freqs,
        power=power,
        peak_frequency=float(freqs[peak_index]),
        peak_power=float(power[peak_index]),
        n_samples=n,
    )


def level_motion(spectrum, model) -> np.ndarray:
    """Staircase minus ``model``'s smooth values at every level."""
    return dc.staircase(spectrum) - dc.smooth_distribution_values(model, spectrum.eigenvalues)


def csv_table(header, rows) -> bytes:
    """Bytes of a header and rows written by ``csv.writer`` (excel dialect)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def delta_series_rows(decompositions, orders) -> list[list]:
    rows = []
    for decomposition in decompositions:
        for order in orders:
            for e_hat, delta in zip(decomposition.e_hat, decomposition.delta[order]):
                rows.append([decomposition.member, order, f"{e_hat:.12g}", f"{delta:.12g}"])
    return rows


def periodogram_rows(k, decompositions, results, orders, trim, oversample) -> list[list]:
    """Rows of ``periodogram.csv`` for ``orders``, from each member's stacked ``results``.

    ``f`` and ``P_mean`` are the member means of the frequency and the power
    at each grid index.

    The row of a member's result that belongs to an order is found by content,
    not by position: it is the one closest to that order's one-series
    periodogram, and must agree with it within 1e-12 of its peak power.
    """
    window = fl.central_window(len(decompositions[0].e_hat), trim)
    rows = []
    for order in orders:
        powers = []
        for decomposition, result in zip(decompositions, results, strict=True):
            single = periodogram.lomb_scargle(decomposition.e_hat[window],
                                              decomposition.delta[order][window],
                                              oversample=oversample)
            errors = np.max(np.abs(result.power - single.power), axis=1)
            assert np.min(errors) <= 1e-12 * single.peak_power, order
            powers.append(result.power[int(np.argmin(errors))])
        mean_power = np.mean(powers, axis=0)
        mean_f = np.mean([result.frequency for result in results], axis=0)
        for f, p in zip(mean_f, mean_power):
            rows.append([k, order, f"{f:.12g}", f"{p:.12g}"])
    return rows


def nnsd_rows(hist) -> list[list]:
    return [
        [f"{lo:.12g}", f"{hi:.12g}", f"{d:.12g}", f"{w:.12g}", f"{p:.12g}"]
        for lo, hi, d, w, p in zip(
            hist.bin_edges[:-1], hist.bin_edges[1:], hist.density, hist.wigner, hist.poisson
        )
    ]


def delta3_rows(curve) -> list[list]:
    return [
        [f"{L:.12g}", f"{v:.12g}", f"{g:.12g}", f"{p:.12g}"]
        for L, v, g, p in zip(curve.lengths, curve.values, curve.goe, curve.poisson)
    ]


def mode_width_rows(curves) -> list[list]:
    """CSV rows of (statistics, m, N, k, q, n, grid, values) mode-width curves."""
    rows = []
    for statistics, m, n_sites, k, q, n, grid, values in curves:
        for e_hat, value in zip(grid, values):
            rows.append(
                [statistics.value, m, n_sites, k, f"{q:.12g}", n, f"{e_hat:.12g}", f"{value:.12g}"]
            )
    return rows


def table1_rows(summaries) -> list[list]:
    return [
        [
            summary.statistics,
            summary.m,
            summary.n_sites,
            summary.k,
            summary.members,
            f"{summary.gamma1_mean:.6f}",
            f"{summary.gamma1_se:.6f}",
            f"{summary.gamma2_mean:.6f}",
            f"{summary.gamma2_se:.6f}",
            f"{summary.q_mean:.6f}",
        ]
        for summary in summaries
    ]


def tail_product(u: np.ndarray, q: float) -> np.ndarray:
    """Factors i >= 1 of the weight's infinite product, truncated at q^i < 1e-16.

    ``u`` is the scaled squared coordinate 4 x^2 / x0^2, in [0, 4] on support.
    """
    out = np.ones_like(u)
    qi = q
    while qi >= 1e-16:
        out *= (1.0 - qi * q) * ((1.0 + qi) ** 2 - qi * u)
        qi *= q
    return out


def theta_weight_product(theta: np.ndarray, q: float) -> np.ndarray:
    """Weight in theta = arcsin(x / x0) from the truncated infinite product."""
    return (
        2.0
        * (1.0 - q)
        / math.pi
        * np.cos(theta) ** 2
        * tail_product(4.0 * np.sin(theta) ** 2, q)
    )


_MP_DPS = 40
_MP_FLOOR = mpmath.mpf("1e-45")


def theta_weight_mp(theta, q: float) -> mpmath.mpf:
    """Weight in theta from the explicit finite product at 40 digits.

    2 (1-q)/pi cos^2(theta) prod_{i>=1} (1 - q^(i+1)) (1 + 2 q^i cos(2 theta) + q^(2i)),
    stopped once q^i < 1e-45.  (``mpmath.qp`` does not converge on |z| = 1.)
    """
    with mpmath.workdps(_MP_DPS):
        return _mp_constant_factor(q) * _mp_theta_factor(mpmath.mpf(theta), q)


@functools.lru_cache(maxsize=None)
def _mp_constant_factor(q: float) -> mpmath.mpf:
    with mpmath.workdps(_MP_DPS):
        qm = mpmath.mpf(q)
        out = 2 * (1 - qm) / mpmath.pi
        qi = qm
        while qi >= _MP_FLOOR:
            out *= 1 - qi * qm
            qi *= qm
        return out


def _mp_theta_factor(theta: mpmath.mpf, q: float) -> mpmath.mpf:
    qm = mpmath.mpf(q)
    two_cos = 2 * mpmath.cos(2 * theta)
    out = mpmath.cos(theta) ** 2
    qi = qm
    while qi >= _MP_FLOOR:
        out *= 1 + qi * (two_cos + qi)
        qi *= qm
    return out


@functools.lru_cache(maxsize=None)
def theta_weight_mp_fourier(q: float):
    """The 40-digit weight on an equispaced grid and its cosine coefficients.

    The weight is even and pi-periodic in theta, so the trapezoidal rule on
    M nodes theta_k = k pi / M gives its coefficients b_j (w = sum_j b_j
    cos 2 j theta) up to aliasing by b_(M-j).  M = 2 J + 2, where q^(j(j-1)/2)
    falls below 1e-18 after J terms, keeps that below 1e-18.  The weight
    decreases on [0, pi/2], since every factor of the product grows with
    cos 2 theta, so once one node is below 1e-40 the later ones are set to 0.
    Returns the nodes k = 0..M/2 (as mpf), the weight there, and b_0..b_(M/2-1).
    """
    with mpmath.workdps(_MP_DPS):
        qm, terms = mpmath.mpf(q), 1
        while qm ** (terms * (terms - 1) // 2) >= mpmath.mpf("1e-18"):
            terms += 1
        m = 2 * terms + 2
        nodes = [mpmath.pi * k / m for k in range(m // 2 + 1)]
        weights = []
        for t in nodes:
            below = weights and weights[-1] < mpmath.mpf("1e-40")
            weights.append(mpmath.mpf(0) if below else theta_weight_mp(t, q))
        cosines = [mpmath.cos(2 * mpmath.pi * r / m) for r in range(m)]
        coefficients = []
        for j in range(m // 2):
            total = weights[0] + weights[m // 2] * cosines[(j * m // 2) % m]
            total += 2 * mpmath.fsum(weights[k] * cosines[(j * k) % m] for k in range(1, m // 2))
            coefficients.append(total / m * (1 if j == 0 else 2))
        return nodes, weights, coefficients


def fqn_cdf_mp(x: float, q: float) -> float:
    """Distribution function by term-by-term integration of the 40-digit weight's coefficients."""
    _nodes, _weights, b = theta_weight_mp_fourier(q)
    with mpmath.workdps(_MP_DPS):
        x0 = 2 / mpmath.sqrt(1 - mpmath.mpf(q))
        theta = mpmath.asin(mpmath.mpf(x) / x0)
        total = b[0] * (theta + mpmath.pi / 2)
        total += mpmath.fsum(b[j] * mpmath.sin(2 * j * theta) / (2 * j) for j in range(1, len(b)))
        return float(total)


_leggauss = functools.lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)


def _integrate_weighted(values, q: float) -> float:
    """Integral of values(x) against the weight, by node-doubling Gauss-Legendre.

    Successive rules must agree within 1e-14 of the integrand's absolute mass
    (about the rounding level of the sum; for an orthogonal pair the total
    itself is near 0) or within 1e-13.
    """
    x0 = qhermite.support_halfwidth(q)
    previous = None
    for n_nodes in (128, 256, 512, 1024, 2048, 4096):
        nodes, weights = _leggauss(n_nodes)
        theta = 0.5 * math.pi * nodes
        terms = weights * 0.5 * math.pi * qhermite._theta_weight(theta, q) * values(x0 * np.sin(theta))
        total = float(np.sum(terms))
        if previous is not None and abs(total - previous) <= max(1e-13, 1e-14 * float(np.sum(np.abs(terms)))):
            return total
        previous = total
    raise AssertionError(f"weighted quadrature did not converge by 4096 nodes at q={q}")


def orthogonality_integral(n: int, m: int, q: float) -> float:
    """Integral of H_n H_m against the weight over its support.

    Equals [n]_q! when n == m and vanishes otherwise (to quadrature accuracy).
    Restricted to q <= 1 - 1e-3 so the support stays bounded.
    """
    if n < 0 or m < 0:
        raise ValueError("orders must be non-negative")
    if not 0.0 <= q <= 1.0 - 1e-3:
        raise ValueError("orthogonality integrals require q in [0, 1 - 1e-3]")
    nmax = max(n, m)

    def values(x: np.ndarray) -> np.ndarray:
        table = qhermite.hermite_table(nmax, x, q)
        return table[n] * table[m]

    return _integrate_weighted(values, q)


def density_moment(power: int, q: float) -> float:
    """Raw moment of the density; odd moments vanish, the fourth equals q + 2."""
    if power < 0:
        raise ValueError("power must be non-negative")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if q == 1.0:
        if power % 2 == 1:
            return 0.0
        out = 1.0
        for j in range(1, power, 2):
            out *= j
        return out
    return _integrate_weighted(lambda x: x**power, q)
