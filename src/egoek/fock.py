"""Occupation-number bases and elementary k-body operator amplitudes.

Fermions live in N single-particle states with 0/1 occupations (configs are
representable as N-bit masks, N <= 64); bosons carry unrestricted integer
occupations.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement

DEFAULT_BASIS_CAP = 2_000_000
MAX_SITES = 64


class Statistics(str, Enum):
    FERMION = "fermion"
    BOSON = "boson"


class FockDomainError(ValueError):
    """Arguments outside the domain of a basis/operator function."""


class BasisSizeError(RuntimeError):
    """Requested basis exceeds the configured size cap."""


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

    @property
    def bitmask(self) -> int:
        """Bit i set when site i is occupied (fermions only)."""
        if self.statistics is not Statistics.FERMION:
            raise FockDomainError("bitmask is defined for fermion configs only")
        mask = 0
        for i, n in enumerate(self.occupations):
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


def _binomial(n: int, j: int, limit: int | None) -> int:
    """C(n, j), or with ``limit`` some value above ``limit`` once C(n, j) exceeds it.

    The partial products C(n - j + i, i), i <= min(j, n - j), grow at least as
    2^i, so a limited call stops within about log2(limit) steps however large
    n is.
    """
    if limit is None:
        return math.comb(n, j)
    j = min(j, n - j)
    value = 1
    for i in range(1, j + 1):
        value = value * (n - j + i) // i
        if value > limit:
            break
    return value


def dim_fermion(n_sites: int, particles: int, limit: int | None = None) -> int:
    """Number of m-fermion configurations in N single-particle states, C(N, m)."""
    if particles < 0 or n_sites < 0:
        raise FockDomainError("negative arguments")
    if particles > n_sites:
        raise FockDomainError(f"cannot place {particles} fermions in {n_sites} states")
    return _binomial(n_sites, particles, limit)


def dim_boson(n_sites: int, particles: int, limit: int | None = None) -> int:
    """Number of m-boson configurations in N single-particle states, C(N+m-1, m)."""
    if particles < 0 or n_sites < 0:
        raise FockDomainError("negative arguments")
    if n_sites == 0:
        if particles > 0:
            raise FockDomainError("no single-particle states to hold bosons")
        return 1
    return _binomial(n_sites + particles - 1, particles, limit)


def dimension(
    n_sites: int, particles: int, statistics: Statistics, limit: int | None = None
) -> int:
    """Basis size; with ``limit``, a value above ``limit`` means only "larger than limit"."""
    if statistics is Statistics.FERMION:
        return dim_fermion(n_sites, particles, limit)
    return dim_boson(n_sites, particles, limit)


def kbme_count(n_sites: int, k: int, statistics: Statistics) -> int:
    """Number of independent matrix elements of a symmetric k-particle matrix."""
    if k < 1:
        raise FockDomainError("k must be at least 1")
    d = dimension(n_sites, k, statistics)
    return d * (d + 1) // 2


def enumerate_basis(
    n_sites: int,
    particles: int,
    statistics: Statistics,
    cap: int = DEFAULT_BASIS_CAP,
) -> list[OccupationConfig]:
    """Enumerate all m-particle configurations in a fixed deterministic order.

    States are generated from occupied-site tuples in lexicographic order, so
    the first config fills the lowest-labelled sites; e.g. for (N=2, m=1)
    fermions the order is |10>, |01>.  Raises :class:`BasisSizeError` when the
    dimension exceeds ``cap``.
    """
    if statistics is Statistics.FERMION and n_sites > MAX_SITES:
        raise FockDomainError(f"fermion bases support at most {MAX_SITES} sites")
    dim = dimension(n_sites, particles, statistics)
    if dim > cap:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {cap}")
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
    assert len(basis) == dim
    return basis


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
        res = _fermion_detach(source.bitmask, kcfg.indices)
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
        res = _fermion_attach(base.bitmask, kcfg.indices)
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
    the k creators of ``create`` (smallest label first) to ``source``.

    Parameters
    ----------
    source : OccupationConfig
        Initial m-particle configuration.
    create, annihilate : KConfig
        k-particle configurations sharing the source's statistics.

    Returns
    -------
    (amplitude, target) or None
        ``None`` when the operator annihilates the state.  For fermions the
        amplitude is +-1; for bosons it is the product of square roots of
        binomial factors implied by normalized k-boson configurations.
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
