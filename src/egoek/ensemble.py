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
    MAX_SITES,
    BasisSizeError,
    Statistics,
    basis_rank,
    binomial,
    dimension,
    enumerate_basis,
    lambda_nu,
)

DEFAULT_MEMBERS = 50
DEFAULT_SEED = 0
DEFAULT_NU2 = 1.0

#: Largest basis whose dense float64 Hamiltonian is built (d x d: 2 GiB here).
MAX_DENSE_DIMENSION = 16_384
#: Peak bytes of ``sample_kbody`` per d_k² entry.
_KBODY_BYTES = 40
#: Terms per chunk of ``embed``'s scatter and pairs per plan block: a few MiB of temporaries.
_CHUNK_TERMS = 1 << 17

_FLOAT_LIMIT = 2**1024  # every int above it overflows a float64
_TERMS_LIMIT = 2**2048  # variance terms above it break the level bound at any nu2
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_TINY = math.log(sys.float_info.min)  # smallest normal float64
_VARIANCE_SLACK = 16  # a member's level variance over spectral_variance, at most
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class DenseMemoryError(ValueError):
    """The system is too large for its dense arrays or for a fermion basis."""


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
        # A member's level variance V is taken to lie within _VARIANCE_SLACK of
        # spectral_variance, and a level's centred square is at most d·V: the levels'
        # fourth centred moment is a normal float64 when (d·V)² fits one and V² stays
        # normal.  d and the variance terms stop early past limits that already break it.
        # Boson terms are at least C(m, k)², so the boson amplitudes then fit a float64 too.
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


@lru_cache(maxsize=32)
def build_embedding_plan(statistics: Statistics, m: int, n_sites: int, k: int) -> EmbeddingPlan:
    """Attachment plan of all k-configs to all (m-k)-particle intermediates.

    An intermediate's attached k-configs are the k-particle basis of its free
    sites (its empty sites for fermions, all N sites for bosons) placed onto
    them, in k-config order: each row has s = C(N-m+k, k) or d(N, k) of them,
    and the plan is three (n_inter, s) arrays.  ``basis_rank`` of the placed
    and of the summed occupations gives each pair's k-config and target.
    Creating a fermion k-config's labels in increasing order gives the sign
    (-1)^(sum over its sites of the occupied sites below + k(k-1)/2).  The
    normalized boson k-fold creator puts nu onto s particles of a site with
    amplitude (1/sqrt(nu!)) sqrt((s+nu)!/s!) = sqrt(C(s+nu, nu)); by
    Vandermonde's identity their product is at most C(m, k), exact in int64
    below 2^63.  Rows are built in blocks of at most _CHUNK_TERMS pairs.
    Raises :class:`BasisSizeError` past the basis cap, before any table is built.
    """
    dim = dimension(n_sites, m, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
    dtype = np.min_scalar_type(-m - 1)  # smallest signed type holding 0..m
    fermion = statistics is Statistics.FERMION
    n_free = n_sites - m + k if fermion else n_sites
    inter = enumerate_basis(n_sites, m - k, statistics)
    onto = enumerate_basis(n_free, k, statistics)  # (s, n_free): the k-configs on the free sites
    s = len(onto)
    if not fermion:  # C(a + b, b) at [a - s0, b - nu0] for a held, b placed; s0 = nu0 = 0 if N > 1
        s0, nu0 = int(inter.min()), int(onto.min())
        binom = np.array([[math.comb(a + b, b) for b in range(nu0, k + 1)]
                          for a in range(s0, m - k + 1)],
                         dtype=np.int64 if math.comb(m, k) < 2**63 else object)
    targets, kconfigs, weights = (np.empty(len(inter) * s, t) for t in (np.intp, np.intp, float))
    step = max(1, _CHUNK_TERMS // s)
    for i in range(0, len(inter), step):
        block = inter[i:i + step]
        pairs = slice(i * s, (i + len(block)) * s)
        free = np.nonzero(block == 0)[1].reshape(-1, n_free) if fermion else np.arange(n_sites)
        placed = np.zeros((len(block), s, n_sites), dtype=dtype)
        placed[np.arange(len(block))[:, None], :, free] = onto.T
        kconfigs[pairs] = basis_rank(placed.reshape(-1, n_sites), statistics)
        if fermion:  # free site j has free[j] - j occupied sites below it
            below = (free - np.arange(n_free)) @ onto.T
            weights[pairs] = (1.0 - 2.0 * ((below + k * (k - 1) // 2) & 1)).ravel()
        else:
            norm_sq = np.ones((len(block), s), dtype=binom.dtype)
            for v in range(n_sites):
                norm_sq *= binom[block[:, v, None] - s0, placed[:, :, v] - nu0]
            weights[pairs] = np.sqrt(norm_sq.astype(float)).ravel()
        placed += block[:, None]
        targets[pairs] = basis_rank(placed.reshape(-1, n_sites), statistics)
    return EmbeddingPlan(dim, *(x.reshape(len(inter), s) for x in (targets, kconfigs, weights)))


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
    """Reject a run whose dense arrays would pass the bytes of one MAX_DENSE_DIMENSION-row matrix.

    Those are workers·8·d² for the ``workers`` Hamiltonians built at once
    (each held until its ``eigvalsh`` returns; the calls in ``pipeline``'s
    slots also hold a working copy) and workers·_KBODY_BYTES·d_k² for their
    k-body draws; every embedding plan they let through (24 B per pair) fits
    too.  Fermions on more than MAX_SITES sites are refused first.  Dimensions
    stop early past their bounds, so any size is checked at once.
    """
    n, m, k, statistics = spec.n_sites, spec.m, spec.k, spec.statistics
    if statistics is Statistics.FERMION and n > MAX_SITES:
        raise DenseMemoryError(f"fermion N={n}: fermion bases support at most {MAX_SITES} sites")
    budget = MAX_DENSE_DIMENSION**2 * 8
    for particles, size, states, held in ((m, 8, "basis states", "dense Hamiltonian"),
                                          (k, _KBODY_BYTES, f"{k}-particle states", "k-body draw")):
        limit = math.isqrt(budget // (size * workers))
        if dimension(n, particles, statistics, limit=limit) > limit:
            held = f"its {held}" if workers == 1 else f"{workers} {held}s at once"
            raise DenseMemoryError(
                f"{statistics.value} m={m} N={n} has more than {limit} {states}; {held} would need "
                f"over {budget / 2**30:g} GiB, the size of one {MAX_DENSE_DIMENSION}-row matrix"
            )


def build_member(spec: EnsembleSpec, member: int) -> MemberMatrix:
    """Sample one member's k-particle matrix and embed it."""
    return embed(sample_kbody(spec, member), spec)


def _variance_terms(spec: EnsembleSpec, limit: int | None = None) -> int:
    """``spectral_variance`` over nu2, an exact integer; past ``limit``, some value above it."""
    terms = lambda_nu(spec.statistics, spec.n_sites, spec.m, 0, spec.k, limit)
    if spec.statistics is Statistics.FERMION:
        terms += binomial(spec.m, spec.k, limit)
    return terms


def spectral_variance(spec: EnsembleSpec) -> float:
    """Propagated eigenvalue variance of one embedded member.

    Fermions: C(m,k) (C(N-m+k,k) + 1) nu2, the ensemble-averaged variance.
    Bosons: C(m,k) C(N+m-1,k) nu2, only the direct term of <Tr H^2>/d and
    not the BEGOE ensemble-averaged variance: the exchange term and the
    centroid fluctuation are left out.  At m=10, N=5, k=2 it gives 4095
    where the exact expectation of the per-member variance is 4320.  The exact
    product of the integer terms and nu2 is rounded once, so it never overflows early.
    """
    numerator, denominator = spec.nu2.as_integer_ratio()
    return _variance_terms(spec) * numerator / denominator
