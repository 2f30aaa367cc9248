"""Occupation-number bases: their dimensions, their one order, and ranks in it.

Fermions live in N single-particle states with 0/1 occupations (N <= 64);
bosons carry unrestricted integer occupations.  A basis is a (dimension, N)
integer table with one occupation vector per row; ``enumerate_basis`` fixes
the order of its rows and ``basis_rank`` inverts it.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

DEFAULT_BASIS_CAP = 2_000_000
MAX_SITES = 64


class Statistics(str, Enum):
    FERMION = "fermion"
    BOSON = "boson"


class FockDomainError(ValueError):
    """Arguments outside the domain of a basis/operator function."""


class BasisSizeError(RuntimeError):
    """Requested basis exceeds DEFAULT_BASIS_CAP."""


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


def dimension(
    n_sites: int, particles: int, statistics: Statistics, limit: int | None = None
) -> int:
    """Basis size, C(N, m) for fermions and C(N+m-1, m) for bosons.

    With ``limit``, a value above ``limit`` means only "larger than limit".
    """
    if particles < 0 or n_sites < 0:
        raise FockDomainError("negative arguments")
    if statistics is Statistics.FERMION:
        if particles > n_sites:
            raise FockDomainError(f"cannot place {particles} fermions in {n_sites} states")
        return binomial(n_sites, particles, limit)
    if n_sites == 0:
        if particles > 0:
            raise FockDomainError("no single-particle states to hold bosons")
        return 1
    return binomial(n_sites + particles - 1, particles, limit)


def lambda_nu(
    statistics: Statistics, n_sites: int, particles: int, nu: int, r: int, limit: int | None = None
) -> int:
    """U(N) factor Λ^ν(N, m, r) (Kota, LNP 884, 2014), a product of two ``binomial``s.

    Fermions: C(m-ν, r) C(N-m+r-ν, r); bosons: C(m-ν, r) C(N+m+ν-1, r).
    """
    fermion = statistics is Statistics.FERMION
    other = n_sites - particles + r - nu if fermion else n_sites + particles + nu - 1
    return binomial(particles - nu, r, limit) * binomial(other, r, limit)


def enumerate_basis(n_sites: int, particles: int, statistics: Statistics) -> np.ndarray:
    """(dimension, N) occupation table of all m-particle states, in a fixed order.

    States are generated from occupied-site tuples in lexicographic order, so
    the first row fills the lowest-labelled sites and the occupation vectors
    come in decreasing lexicographic order; e.g. for (N=2, m=1) fermions the
    rows are [1, 0], [0, 1].  Entries have the smallest signed integer type
    that holds 0..m.  Raises :class:`BasisSizeError` when the dimension
    exceeds DEFAULT_BASIS_CAP, before anything is built.
    """
    if statistics is Statistics.FERMION and n_sites > MAX_SITES:
        raise FockDomainError(f"fermion bases support at most {MAX_SITES} sites")
    dim = dimension(n_sites, particles, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
    chooser = combinations if statistics is Statistics.FERMION else combinations_with_replacement
    sites = np.fromiter(chain.from_iterable(chooser(range(n_sites), particles)), dtype=np.intp,
                        count=dim * particles).reshape(dim, particles)
    table = np.zeros((dim, n_sites), dtype=np.min_scalar_type(-particles - 1))
    rows = np.arange(dim)
    for column in sites.T:
        table[rows, column] += 1
    return table


def basis_rank(table: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Row index in ``enumerate_basis`` order of each state (row) of ``table``.

    The rows must be m-particle states in an integer type that holds m.  In
    decreasing lexicographic order the index of a state counts the states
    that agree with it below site v and hold more particles at v.  With S
    particles on the r = N-1-v sites above v that count is C(r, S-1) for an
    empty fermion site, and C(S-1+r, r) (all placements of at most S-1
    particles there) for a boson site.  Every count is at most the basis
    size or C(63, 31) (fermion bases have N <= 64), so int64 holds them.
    """
    n_sites, m = table.shape[1], int(table[:1].sum())
    # Row v: the particles on sites v..N-1 of every state, one contiguous row per site.
    held = np.cumsum(np.ascontiguousarray(table.T)[::-1], axis=0, dtype=table.dtype)[::-1]
    ranks = np.zeros(len(table), dtype=np.int64)
    for v in range(n_sites - 1):  # no site lies above the last one, so it counts 0
        rest = n_sites - 1 - v
        counts = np.array(
            [0] + [math.comb(rest, s - 1) if statistics is Statistics.FERMION
                   else math.comb(s - 1 + rest, rest) for s in range(1, m + 1)],
            dtype=np.int64,
        )
        count = counts[held[v + 1]]
        if statistics is Statistics.FERMION:
            count[held[v] != held[v + 1]] = 0  # an occupied site counts 0
        ranks += count
    return ranks
