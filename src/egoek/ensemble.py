"""Sampling of k-particle GOE matrices and their embedding into m-particle space.

Per-member randomness is derived from a single master seed through a SplitMix64
mix, so members are independent yet bit-reproducible regardless of processing
order.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (
    DEFAULT_BASIS_CAP,
    BasisSizeError,
    Statistics,
    basis_rank,
    binomial,
    dimension,
    enumerate_basis,
)

DEFAULT_MEMBERS = 50
DEFAULT_SEED = 0
DEFAULT_NU2 = 1.0

#: Largest basis whose dense float64 Hamiltonian is built (d x d: 2 GiB here).
MAX_DENSE_DIMENSION = 16_384
#: Terms per chunk of ``embed``'s scatter; bounds its temporaries to a few MiB.
_CHUNK_TERMS = 1 << 17

_FLOAT_LIMIT = 2**1024  # every int above it overflows a float64
_TERMS_LIMIT = 2**2048  # variance terms above it break the level bound at any nu2
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_TINY = math.log(sys.float_info.min)  # smallest normal float64
_VARIANCE_SLACK = 16  # a member's level variance over spectral_variance, at most
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
        if self.statistics is Statistics.BOSON:
            try:  # C(m, k) is the largest squared boson amplitude
                float(binomial(self.m, self.k, _FLOAT_LIMIT))
            except OverflowError:
                raise ValueError(f"boson amplitudes reach C(m, k) = C({self.m}, {self.k}), "
                                 "which does not fit a float64") from None
        # A member's level variance V is taken to lie within _VARIANCE_SLACK of
        # spectral_variance, and a level's centred square is at most d·V: the levels'
        # fourth centred moment is a normal float64 when (d·V)² fits one and V² stays
        # normal.  d and the variance terms stop early past limits that already break it.
        log_d = math.log(dimension(self.n_sites, self.m, self.statistics, limit=_FLOAT_LIMIT))
        log_v = math.log(_variance_terms(self, limit=_TERMS_LIMIT)) + math.log(self.nu2)
        slack = math.log(_VARIANCE_SLACK)
        if not (2 * (log_v - slack) >= _LOG_FLOAT_TINY
                and 2 * (log_d + log_v + slack) <= _LOG_FLOAT_MAX):
            raise ValueError(
                f"{self.statistics.value} m={self.m} N={self.n_sites} k={self.k} with "
                f"nu2={self.nu2:g}: levels of scale about 10^{log_v / math.log(100):.0f} would "
                "put their fourth centred moment outside the float64 range"
            )

    @property
    def dimension(self) -> int:
        return dimension(self.n_sites, self.m, self.statistics)

    @property
    def k_dimension(self) -> int:
        return dimension(self.n_sites, self.k, self.statistics)

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
class MemberMatrix:
    """Dense symmetric matrix of one member: its k-particle draw or its embedding."""

    matrix: np.ndarray
    member: int
    seed: int


def sample_kbody(spec: EnsembleSpec, member: int) -> MemberMatrix:
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
    return MemberMatrix(matrix=mat, member=member, seed=seed)


@dataclass(frozen=True)
class EmbeddingPlan:
    """Precomputed transition structure shared by all members of one system.

    Row i of each (n_inter, s) array belongs to the i-th (m-k)-particle
    intermediate state: the m-states it reaches (``targets``), the k-configs
    attached to reach them (``kconfigs``) and the attachment amplitudes
    (``weights``).
    """

    dimension: int
    targets: np.ndarray = field(repr=False)
    kconfigs: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(targets, kconfigs, weights) rows, one triple per intermediate state."""
        return tuple(zip(self.targets, self.kconfigs, self.weights))


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
    and of the k-configs (the k-particle basis, in k-config order); each
    attached pair's target is ``basis_rank`` of its summed occupations.  A fermion
    k-config attaches where it shares no site with the intermediate; creating
    its labels in increasing order gives the sign
    (-1)^(sum_v occupied-below(v) + k(k-1)/2).  Every boson k-config attaches.
    Each intermediate attaches the same number s of k-configs, C(N-m+k, k) for
    fermions and d(N, k) for bosons, so the plan is three (n_inter, s) arrays.
    Raises :class:`BasisSizeError` when the m-particle basis exceeds the basis
    cap, before any table is built.
    """
    dim = dimension(n_sites, m, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
    dtype = np.min_scalar_type(-m - 1)  # smallest signed type holding 0..m
    inter, kocc = (enumerate_basis(n_sites, p, statistics).astype(dtype) for p in (m - k, k))
    if statistics is Statistics.FERMION:
        attaches = inter.astype(np.int32) @ kocc.T == 0
        below = np.cumsum(inter, axis=1, dtype=np.int32) - inter
        weights = 1.0 - 2.0 * ((below @ kocc.T + k * (k - 1) // 2) & 1)
    else:
        attaches = np.ones((len(inter), len(kocc)), dtype=bool)
        weights = np.sqrt(_boson_norm_sq(inter, kocc, m, k).astype(float))
    rows, cols = np.nonzero(attaches)
    shape = (len(inter), -1)
    targets = basis_rank(inter[rows] + kocc[cols], statistics).astype(np.intp)
    return EmbeddingPlan(
        dimension=dim,
        targets=targets.reshape(shape),
        kconfigs=cols.astype(np.intp).reshape(shape),
        weights=weights[rows, cols].reshape(shape),
    )


def embed(kmat: MemberMatrix, spec: EnsembleSpec) -> MemberMatrix:
    """Propagate a k-particle matrix into the m-particle space.

    Implements H[B, A] = sum over (alpha, gamma) of V[alpha, gamma] times the
    pair-transfer amplitude <B|A+(alpha) A(gamma)|A>: one congruence update
    V[g, g] * (w w^T) onto H[a, a] per intermediate, scattered in plan order a
    chunk at a time.  Every boson k-config attaches to every intermediate, in
    k-config order, so for bosons V[g, g] is V itself and is broadcast, not
    gathered.  ``np.add.at`` adds repeated indices one after another
    from zero, so every element sums the same terms in the same order as a
    ``+=`` per intermediate, bitwise.  As w_i w_j is formed before it scales
    V, elements (i, j) and (j, i) of a symmetric V sum equal terms in equal
    order, so H is exactly symmetric; for k = m the map is the identity.
    The result keeps the member index and seed of ``kmat``.
    """
    dk = spec.k_dimension
    if kmat.matrix.shape != (dk, dk):
        raise ValueError(
            f"k-body matrix dimension {kmat.matrix.shape[0]} does not match d(N,k)={dk}"
        )
    plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
    d = plan.dimension
    ham = np.zeros((d, d))
    v = kmat.matrix
    gather = spec.statistics is Statistics.FERMION
    step = max(1, _CHUNK_TERMS // plan.targets.shape[1] ** 2)
    for i in range(0, len(plan.targets), step):
        a, g, w = (x[i:i + step] for x in (plan.targets, plan.kconfigs, plan.weights))
        block = v[g[:, :, None], g[:, None, :]] if gather else v
        vals = block * (w[:, :, None] * w[:, None, :])
        np.add.at(ham.ravel(), (a[:, :, None] * d + a[:, None, :]).ravel(), vals.ravel())
    return MemberMatrix(matrix=ham, member=kmat.member, seed=kmat.seed)


def check_dense_size(spec: EnsembleSpec, workers: int = 1) -> None:
    """Reject a run whose ``workers`` dense Hamiltonians pass MAX_DENSE_DIMENSION² entries.

    ``workers`` members are built at once, and each holds its d x d matrix
    until its ``eigvalsh`` returns; only the calls in ``pipeline``'s
    ``eigvalsh`` slots also hold the working copy ``eigvalsh`` makes.
    workers·d² may not exceed the entries of one MAX_DENSE_DIMENSION-row
    matrix.  Only the dimension is computed, stopping early once it passes
    the bound, so the check costs nothing however large the system is.
    """
    limit = math.isqrt(MAX_DENSE_DIMENSION**2 // workers)
    if dimension(spec.n_sites, spec.m, spec.statistics, limit=limit) > limit:
        gib = MAX_DENSE_DIMENSION**2 * 8 / 2**30
        held = "its dense Hamiltonian" if workers == 1 else f"{workers} dense Hamiltonians at once"
        raise DenseMemoryError(
            f"{spec.statistics.value} m={spec.m} N={spec.n_sites} has more than {limit} "
            f"basis states; {held} would need over {gib:g} GiB, the size of one "
            f"{MAX_DENSE_DIMENSION}-row matrix"
        )


def build_member(spec: EnsembleSpec, member: int) -> MemberMatrix:
    """Sample one member's k-particle matrix and embed it."""
    return embed(sample_kbody(spec, member), spec)


def _variance_terms(spec: EnsembleSpec, limit: int | None = None) -> int:
    """``spectral_variance`` over nu2, an exact integer; past ``limit``, some value above it."""
    m, n_sites, k = spec.m, spec.n_sites, spec.k
    if spec.statistics is Statistics.FERMION:
        pair = binomial(n_sites - m + k, k, limit) + 1
    else:
        pair = binomial(n_sites + m - 1, k, limit)
    return binomial(m, k, limit) * pair


def spectral_variance(spec: EnsembleSpec) -> float:
    """Propagated eigenvalue variance of one embedded member.

    Fermions: C(m,k) (C(N-m+k,k) + 1) nu2, the ensemble-averaged variance.
    Bosons: C(m,k) C(N+m-1,k) nu2, only the direct term of <Tr H^2>/d and
    not the BEGOE ensemble-averaged variance: the exchange term and the
    centroid fluctuation are left out.  At m=10, N=5, k=2 it gives 4095
    where the exact expectation of the per-member variance is 4320.
    """
    return _variance_terms(spec) * spec.nu2
