"""Occupation-number bases: their dimensions, their one order, and ranks in it.

Fermions live in N single-particle states with 0/1 occupations (N <= 64);
bosons carry unrestricted integer occupations.  A basis is a (dimension, N)
integer table with one occupation vector per row; the counts of ``basis_rank``
fix the order of its rows and ``enumerate_basis`` walks them back.
"""

from __future__ import annotations

import math
from enum import Enum

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


def _counts(statistics: Statistics, rest: int, m: int) -> np.ndarray:
    """counts[S], S = 0..m: the states ranked before a state at site v by site v.

    These agree with it below v and hold more particles at v: with S particles
    on the ``rest`` = N-1-v sites above v, C(rest, S-1) for an empty fermion
    site (0 for an occupied one) and C(S-1+rest, rest) for a boson site (the
    placements of at most S-1 there); at most the basis size or C(63, 31).
    """
    fermion = statistics is Statistics.FERMION
    return np.array([0] + [math.comb(rest, s - 1) if fermion else math.comb(s - 1 + rest, rest)
                           for s in range(1, m + 1)], dtype=np.int64)


def enumerate_basis(n_sites: int, particles: int, statistics: Statistics) -> np.ndarray:
    """(dimension, N) occupation table of all m-particle states, in ``basis_rank`` order.

    Occupation vectors come in decreasing lexicographic order ([1, 0], [0, 1]
    for N=2, m=1 fermions).  Row r is read site by site, subtracting each
    site's ``_counts`` entry from r, in int64 arrays of one entry per state.
    Entries have the smallest signed type that holds 0..m.  Raises
    :class:`BasisSizeError` past DEFAULT_BASIS_CAP, before anything is built.
    """
    if statistics is Statistics.FERMION and n_sites > MAX_SITES:
        raise FockDomainError(f"fermion bases support at most {MAX_SITES} sites")
    dim = dimension(n_sites, particles, statistics)
    if dim > DEFAULT_BASIS_CAP:
        raise BasisSizeError(f"basis dimension {dim} exceeds cap {DEFAULT_BASIS_CAP}")
    table = np.zeros((dim, n_sites), dtype=np.min_scalar_type(-particles - 1))
    rank, left = np.arange(dim, dtype=np.int64), np.full(dim, particles, dtype=np.int64)
    for v in range(n_sites - 1):  # left: the particles on sites v..N-1; the last takes them all
        counts = _counts(statistics, n_sites - 1 - v, particles)
        if statistics is Statistics.FERMION:  # occupied iff the rank falls below the count
            held = rank < counts[left]
            rank -= np.where(held, 0, counts[left])
        else:  # the most particles above v whose count the rank reaches
            above = np.searchsorted(counts, rank, "right") - 1
            rank -= counts[above]
            held = left - above
        table[:, v] = held
        left -= held
    table[:, n_sites - 1:] = left[:, None]  # no column at all when N = 0
    return table


def basis_rank(table: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Row index in ``enumerate_basis`` order of each state (row) of ``table``.

    The rows must be m-particle states in an integer type that holds m.  The
    index sums each site's ``_counts`` entry at the particles above it.
    """
    n_sites, m = table.shape[1], int(table[:1].sum())
    # Row v: the particles on sites v..N-1 of every state, one contiguous row per site.
    held = np.cumsum(np.ascontiguousarray(table.T)[::-1], axis=0, dtype=table.dtype)[::-1]
    ranks = np.zeros(len(table), dtype=np.int64)
    for v in range(n_sites - 1):  # no site lies above the last one, so it counts 0
        count = _counts(statistics, n_sites - 1 - v, m)[held[v + 1]]
        if statistics is Statistics.FERMION:
            count[held[v] != held[v + 1]] = 0  # an occupied site counts 0
        ranks += count
    return ranks
