"""Sampling of k-particle GOE matrices and their embedding into m-particle space.

Per-member randomness is derived from a single master seed through a SplitMix64
mix, so members are independent yet bit-reproducible regardless of processing
order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (
    DEFAULT_BASIS_CAP,
    BasisSizeError,
    Statistics,
    dimension,
    enumerate_basis,
    kbme_count,
)

DEFAULT_MEMBERS = 50
DEFAULT_SEED = 0
DEFAULT_NU2 = 1.0

#: Largest basis whose dense float64 Hamiltonian is built (d x d: 2 GiB here).
MAX_DENSE_DIMENSION = 16_384

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class DenseMemoryError(ValueError):
    """The m-particle basis is too large for a dense Hamiltonian."""


def whole_number(value, name: str) -> int:
    """An integer field: an int, or a float without fractional part; never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a whole number, got {value!r}")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def finite_real(value, name: str) -> float:
    """A real field: a finite int or float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def splitmix64(value: int) -> int:
    """One output step of the SplitMix64 mixer (Steele-Lea-Flood finalizer)."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def member_seed(master_seed: int, member: int) -> int:
    """64-bit seed for one ensemble member: SplitMix64 of master + member stride."""
    return splitmix64((master_seed + member * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one embedded ensemble: statistics, sizes, and seeding."""

    statistics: Statistics
    m: int
    n_sites: int
    k: int
    members: int = DEFAULT_MEMBERS
    master_seed: int = DEFAULT_SEED
    nu2: float = DEFAULT_NU2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 1 <= self.k <= self.m:
            raise ValueError("require 1 <= k <= m")
        if self.statistics is Statistics.FERMION and self.m > self.n_sites:
            raise ValueError("fermions require m <= N")
        if self.n_sites < 1:
            raise ValueError("need at least one single-particle state")
        if self.members < 1:
            raise ValueError("members must be at least 1")
        if not 0 < self.nu2 < math.inf:
            raise ValueError("nu2 must be finite and positive")

    @property
    def dimension(self) -> int:
        return dimension(self.n_sites, self.m, self.statistics)

    @property
    def k_dimension(self) -> int:
        return dimension(self.n_sites, self.k, self.statistics)

    @property
    def kbme_count(self) -> int:
        return kbme_count(self.n_sites, self.k, self.statistics)

    def to_dict(self) -> dict:
        """JSON-ready form, keyed as in archive headers and run configurations."""
        return {
            "statistics": self.statistics.value,
            "m": self.m,
            "N": self.n_sites,
            "k": self.k,
            "members": self.members,
            "master_seed": self.master_seed,
            "nu2": self.nu2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> EnsembleSpec:
        """Inverse of ``to_dict``; every key is required.

        Raises KeyError, TypeError, ValueError or OverflowError on a missing,
        mistyped, boolean, fractional, non-finite or out-of-range field.
        """
        return cls(
            statistics=Statistics(data["statistics"]),
            m=whole_number(data["m"], "m"),
            n_sites=whole_number(data["N"], "N"),
            k=whole_number(data["k"], "k"),
            members=whole_number(data["members"], "members"),
            master_seed=whole_number(data["master_seed"], "master_seed"),
            nu2=finite_real(data["nu2"], "nu2"),
        )


@dataclass(frozen=True)
class KBodyMatrix:
    """Dense symmetric k-particle matrix of one member, with its seed."""

    matrix: np.ndarray
    member: int
    seed: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EmbeddedHamiltonian:
    """Dense symmetric m-particle matrix with full provenance."""

    matrix: np.ndarray
    spec: EnsembleSpec
    member: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def sample_kbody(spec: EnsembleSpec, member: int) -> KBodyMatrix:
    """Draw the symmetric k-particle matrix of one member.

    Entries are independent zero-mean Gaussians with variance ``nu2`` off the
    diagonal and ``2 * nu2`` on it.  The free entries are drawn in row-major
    upper-triangle order from a PCG64 generator seeded with
    ``member_seed(master_seed, member)``, making the matrix a pure function of
    (spec, member).
    """
    if not 0 <= member < spec.members:
        raise ValueError(f"member {member} outside 0..{spec.members - 1}")
    seed = member_seed(spec.master_seed, member)
    rng = np.random.default_rng(seed)
    dk = spec.k_dimension
    nu = math.sqrt(spec.nu2)
    draws = rng.standard_normal(dk * (dk + 1) // 2)
    mat = np.zeros((dk, dk))
    iu = np.triu_indices(dk)
    mat[iu] = draws
    mat = mat + np.triu(mat, 1).T
    diag = np.arange(dk)
    mat[diag, diag] *= math.sqrt(2.0)
    mat *= nu
    return KBodyMatrix(matrix=mat, member=member, seed=seed)


@dataclass(frozen=True)
class EmbeddingPlan:
    """Precomputed transition structure shared by all members of one system.

    For each (m-k)-particle intermediate state the plan stores the k-configs
    that can be attached to it, the resulting m-state indices, and the
    attachment amplitudes; the embedded matrix is then a sum of small
    congruence updates, one per intermediate state.
    """

    statistics: Statistics
    m: int
    n_sites: int
    k: int
    dimension: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)


def _occupations(n_sites: int, particles: int, statistics: Statistics, dtype) -> np.ndarray:
    """(dimension, N) occupation table of ``enumerate_basis``, in its order."""
    basis = enumerate_basis(n_sites, particles, statistics)
    return np.array([cfg.occupations for cfg in basis], dtype=dtype)


def _above(occupations: np.ndarray) -> np.ndarray:
    """Particles on the sites above each site (exclusive suffix sums)."""
    return np.cumsum(occupations[:, ::-1], axis=1)[:, ::-1] - occupations


def _target_ranks(inter: np.ndarray, kocc: np.ndarray, statistics: Statistics, m: int) -> np.ndarray:
    """Basis index of every state inter[i] + kocc[g], as an (n_inter, d_k) array.

    ``enumerate_basis`` lists occupation vectors in decreasing lexicographic
    order, so the index of a state counts the states that agree with it below
    site v and hold more particles at v.  With S particles on the r = N-1-v
    sites above v that count is C(r, S-1) for an empty fermion site, and
    C(S-1+r, r) (all placements of at most S-1 particles there) for a boson
    site.  The counts of a state sum to its index, below the basis size, and
    every table entry fits int64 (fermion bases have N <= 64).
    """
    fermionic = statistics is Statistics.FERMION
    above_i, above_k = _above(inter), _above(kocc)
    ranks = np.zeros((len(inter), len(kocc)), dtype=np.int64)
    for v in range(inter.shape[1]):
        rest = inter.shape[1] - 1 - v
        counts = np.array(
            [0] + [math.comb(rest, s - 1) if fermionic else math.comb(s - 1 + rest, rest)
                   for s in range(1, m + 1)],
            dtype=np.int64,
        )
        count = counts[above_i[:, v, None] + above_k[None, :, v]]
        if fermionic:
            count[(inter[:, v, None] + kocc[None, :, v]) != 0] = 0
        ranks += count
    return ranks


def _boson_norm_sq(inter: np.ndarray, kocc: np.ndarray, m: int, k: int) -> np.ndarray:
    """Squared amplitudes prod_v C(s_v + nu_v, nu_v) of the normalized k-fold creators.

    (1/sqrt(nu!)) sqrt((s+nu)!/s!) == sqrt(C(s+nu, nu)) per site.  By
    Vandermonde's identity each product is at most C(m, k), which decides
    whether int64 holds it exactly; beyond that the integers stay Python ints.
    """
    dtype = np.int64 if math.comb(m, k) < 2**63 else object
    norm_sq = np.ones((len(inter), len(kocc)), dtype=dtype)
    for s, nu in zip(inter.T, kocc.T):
        s_values, s_at = np.unique(s, return_inverse=True)
        nu_values, nu_at = np.unique(nu, return_inverse=True)
        factors = [[math.comb(a + b, b) for b in nu_values.tolist()] for a in s_values.tolist()]
        norm_sq *= np.array(factors, dtype=dtype)[np.ix_(s_at, nu_at)]
    return norm_sq


@lru_cache(maxsize=32)
def build_embedding_plan(
    statistics: Statistics, m: int, n_sites: int, k: int
) -> EmbeddingPlan:
    """Attachment plan of all k-configs to all (m-k)-particle intermediates.

    Built at once over the integer occupation tables of the intermediates
    and of the k-configs (the k-particle basis, in k-config order).  A fermion
    k-config attaches where it shares no site with the intermediate; creating
    its labels in increasing order gives the sign
    (-1)^(sum_v occupied-below(v) + k(k-1)/2).  Every boson k-config attaches.
    Each intermediate attaches the same number s of k-configs, C(N-m+k, k) for
    fermions and d(N, k) for bosons, so the plan is three (n_inter, s) arrays
    read row by row; ``groups`` holds their rows.  Raises
    :class:`BasisSizeError` when the m-particle basis exceeds the basis cap,
    before any table is built.
    """
    dim = dimension(n_sites, m, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
    dtype = np.min_scalar_type(-m)  # smallest signed type holding 0..m
    inter = _occupations(n_sites, m - k, statistics, dtype)
    kocc = _occupations(n_sites, k, statistics, dtype)
    if statistics is Statistics.FERMION:
        attaches = inter.astype(np.int32) @ kocc.T == 0
        below = np.cumsum(inter, axis=1, dtype=np.int32) - inter
        weights = 1.0 - 2.0 * ((below @ kocc.T + k * (k - 1) // 2) & 1)
    else:
        attaches = np.ones((len(inter), len(kocc)), dtype=bool)
        weights = np.sqrt(_boson_norm_sq(inter, kocc, m, k).astype(float))
    rows, cols = np.nonzero(attaches)
    shape = (len(inter), -1)
    a_idx = _target_ranks(inter, kocc, statistics, m)[rows, cols].astype(np.intp).reshape(shape)
    g_idx = cols.astype(np.intp).reshape(shape)
    return EmbeddingPlan(
        statistics=statistics,
        m=m,
        n_sites=n_sites,
        k=k,
        dimension=dim,
        groups=tuple(zip(a_idx, g_idx, weights[rows, cols].reshape(shape))),
    )


def embed(kmat: KBodyMatrix, spec: EnsembleSpec) -> EmbeddedHamiltonian:
    """Propagate a k-particle matrix into the m-particle space.

    Implements H[B, A] = sum over (alpha, gamma) of V[alpha, gamma] times the
    pair-transfer amplitude <B|A+(alpha) A(gamma)|A>.  The congruence-update
    form, with the symmetric weight product w_i w_j formed before it scales V,
    guarantees an exactly symmetric result, and for k = m the map is the
    identity on matrices.
    """
    dk = spec.k_dimension
    if kmat.matrix.shape != (dk, dk):
        raise ValueError(
            f"k-body matrix dimension {kmat.matrix.shape[0]} does not match d(N,k)={dk}"
        )
    plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
    ham = np.zeros((plan.dimension, plan.dimension))
    v = kmat.matrix
    for a_idx, g_idx, w in plan.groups:
        block = v[np.ix_(g_idx, g_idx)] * (w[:, None] * w[None, :])
        ham[np.ix_(a_idx, a_idx)] += block
    return EmbeddedHamiltonian(matrix=ham, spec=spec, member=kmat.member)


def check_dense_size(spec: EnsembleSpec) -> None:
    """Reject a system whose dense Hamiltonian exceeds MAX_DENSE_DIMENSION rows.

    Only the dimension is computed, stopping early once it passes the bound,
    so the check costs nothing however large the system is.
    """
    limit = MAX_DENSE_DIMENSION
    if dimension(spec.n_sites, spec.m, spec.statistics, limit=limit) > limit:
        gib = limit * limit * 8 / 2**30
        raise DenseMemoryError(
            f"{spec.statistics.value} m={spec.m} N={spec.n_sites} has more than {limit} "
            f"basis states; its dense Hamiltonian would need over {gib:g} GiB"
        )


def build_member(spec: EnsembleSpec, member: int) -> EmbeddedHamiltonian:
    """Sample one member's k-particle matrix and embed it."""
    return embed(sample_kbody(spec, member), spec)


def spectral_variance_fermion(m: int, n_sites: int, k: int, nu2: float = DEFAULT_NU2) -> float:
    """Ensemble-averaged eigenvalue variance of a fermionic embedded member."""
    return math.comb(m, k) * (math.comb(n_sites - m + k, k) + 1) * nu2


def spectral_variance_boson(m: int, n_sites: int, k: int, nu2: float = DEFAULT_NU2) -> float:
    """Direct term C(m,k) C(N+m-1,k) nu2 of <Tr H^2>/d for a bosonic embedded member.

    Not the BEGOE ensemble-averaged variance: the exchange term and the
    centroid fluctuation are left out.  At m=10, N=5, k=2 it gives 4095 where
    the exact expectation of the per-member variance is 4320.
    """
    return math.comb(m, k) * math.comb(n_sites + m - 1, k) * nu2


def spectral_variance(spec: EnsembleSpec) -> float:
    if spec.statistics is Statistics.FERMION:
        return spectral_variance_fermion(spec.m, spec.n_sites, spec.k, spec.nu2)
    return spectral_variance_boson(spec.m, spec.n_sites, spec.k, spec.nu2)
