"""Occupation-number bases and their dimensions.

Fermions live in N single-particle states with 0/1 occupations (N <= 64);
bosons carry unrestricted integer occupations.  Everything here is a pure
function of immutable inputs.
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
    """Requested basis exceeds DEFAULT_BASIS_CAP."""


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


def binomial(n: int, j: int, limit: int | None) -> int:
    """C(n, j), or with ``limit`` some value above ``limit`` once C(n, j) exceeds it.

    The partial products C(n - j + i, i), i <= min(j, n - j), grow at least as
    2^i, so a limited call stops within about log2(limit) steps however large
    n is.
    """
    if limit is None or j > n:
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
    return binomial(n_sites, particles, limit)


def dim_boson(n_sites: int, particles: int, limit: int | None = None) -> int:
    """Number of m-boson configurations in N single-particle states, C(N+m-1, m)."""
    if particles < 0 or n_sites < 0:
        raise FockDomainError("negative arguments")
    if n_sites == 0:
        if particles > 0:
            raise FockDomainError("no single-particle states to hold bosons")
        return 1
    return binomial(n_sites + particles - 1, particles, limit)


def dimension(
    n_sites: int, particles: int, statistics: Statistics, limit: int | None = None
) -> int:
    """Basis size; with ``limit``, a value above ``limit`` means only "larger than limit"."""
    if statistics is Statistics.FERMION:
        return dim_fermion(n_sites, particles, limit)
    return dim_boson(n_sites, particles, limit)


def enumerate_basis(n_sites: int, particles: int, statistics: Statistics) -> list[OccupationConfig]:
    """Enumerate all m-particle configurations in a fixed deterministic order.

    States are generated from occupied-site tuples in lexicographic order, so
    the first config fills the lowest-labelled sites and the occupation
    vectors come in decreasing lexicographic order; e.g. for (N=2, m=1)
    fermions the order is |10>, |01>.  Raises :class:`BasisSizeError` when the
    dimension exceeds DEFAULT_BASIS_CAP.
    """
    if statistics is Statistics.FERMION and n_sites > MAX_SITES:
        raise FockDomainError(f"fermion bases support at most {MAX_SITES} sites")
    dim = dimension(n_sites, particles, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
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
