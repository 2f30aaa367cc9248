import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egoek.fock import (
    BasisSizeError,
    FockDomainError,
    Statistics,
    basis_rank,
    binomial,
    dimension,
    enumerate_basis,
)

from oracles import (
    KConfig,
    OccupationConfig,
    attach_amplitude,
    basis_configs,
    bitmask,
    boson_operators,
    boson_pair_operator,
    detach_amplitude,
    enumerate_kconfigs,
    fermion_operators,
    fermion_pair_operator,
    fermion_pair_operator_literal,
    transition_amplitude,
)

F = Statistics.FERMION
B = Statistics.BOSON


class TestDimensions:
    @pytest.mark.parametrize(
        "n, m, expected",
        [(12, 6, 924), (20, 10, 184756), (5, 0, 1), (8, 8, 1), (8, 0, 1)],
    )
    def test_fermion(self, n, m, expected):
        assert dimension(n, m, F) == expected

    @pytest.mark.parametrize(
        "n, m, expected",
        [(5, 10, 1001), (10, 20, 10015005), (3, 0, 1), (1, 7, 1)],
    )
    def test_boson(self, n, m, expected):
        assert dimension(n, m, B) == expected

    def test_fermion_domain_errors(self):
        with pytest.raises(FockDomainError):
            dimension(4, 5, F)
        with pytest.raises(FockDomainError):
            dimension(4, -1, F)

    def test_boson_domain_errors(self):
        with pytest.raises(FockDomainError):
            dimension(0, 3, B)
        with pytest.raises(FockDomainError):
            dimension(3, -2, B)

    @pytest.mark.parametrize("limit", [1, 923, 924, 10**6])
    def test_limited_dimension(self, limit):
        # Exact up to the limit; above it, only "larger than limit".
        for stat, (n, m) in ((F, (12, 6)), (B, (7, 6))):
            exact = dimension(n, m, stat)
            limited = dimension(n, m, stat, limit=limit)
            if exact <= limit:
                assert limited == exact
            else:
                assert limited > limit
        assert dimension(2 * 10**6, 10**6, F, limit=10**6) > 10**6

    def test_limited_binomial_of_more_than_n_is_zero(self):
        assert binomial(2, 5, None) == binomial(2, 5, 10) == 0


class TestEnumerateBasis:
    def test_single_fermion_order(self):
        basis = enumerate_basis(2, 1, F)
        assert basis.tolist() == [[1, 0], [0, 1]]

    def test_counts_match_dimensions(self):
        assert len(enumerate_basis(12, 6, F)) == 924
        assert len(enumerate_basis(5, 10, B)) == 1001

    @pytest.mark.parametrize("stat", [F, B])
    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 1)])
    def test_no_duplicates_and_totals(self, stat, n, m):
        basis = enumerate_basis(n, m, stat)
        assert len({tuple(row) for row in basis.tolist()}) == len(basis)
        assert np.all(basis.sum(axis=1) == m)

    @pytest.mark.parametrize("stat,n,m", [(F, 12, 6), (F, 7, 0), (F, 64, 2), (F, 64, 62),
                                          (B, 5, 10), (B, 3, 0), (B, 2, 130), (B, 1, 7),
                                          (B, 2, 4000)])
    def test_table_matches_object_basis(self, stat, n, m):
        # Same rows in the same order as one OccupationConfig per state, in
        # the smallest signed type that holds 0..m.  (F, 64, 62) reads counts
        # near C(63, 31); (B, 1, 7) has one site; (B, 2, 4000) two full ones.
        basis = enumerate_basis(n, m, stat)
        assert basis.shape == (dimension(n, m, stat), n)
        assert basis.dtype == (np.int8 if m <= 127 else np.int16)
        assert [tuple(row) for row in basis.tolist()] == [
            c.occupations for c in basis_configs(n, m, stat)
        ]

    def test_capacity_error(self):
        # C(64, 32) ~ 1.8e18 states: only the dimension is computed.
        with pytest.raises(BasisSizeError):
            enumerate_basis(64, 32, F)

    def test_too_many_fermion_sites(self):
        with pytest.raises(FockDomainError):
            enumerate_basis(65, 1, F)

    def test_kconfig_count_matches_dimension(self):
        assert len(enumerate_kconfigs(12, 2, F)) == dimension(12, 2, F)
        assert len(enumerate_kconfigs(5, 3, B)) == dimension(5, 3, B)


@st.composite
def bases(draw):
    """(N, m, statistics) of a basis of at most 20,000 states; fermions up to N = 64."""
    stat = draw(st.sampled_from([F, B]))
    n_sites = draw(st.integers(1, 64 if stat is F else 8))
    m = draw(st.integers(0, n_sites if stat is F else 12))
    if dimension(n_sites, m, stat, limit=20_000) > 20_000:
        m = min(m, 2)  # C(64, 2) and C(9, 2) states at most
    return n_sites, m, stat


class TestBasisRank:
    @settings(max_examples=80, deadline=None)
    @given(system=bases())
    @example(system=(64, 3, F))  # 41,664 states on the widest fermion table
    @example(system=(64, 62, F))  # count tables reach C(63, 31) > 2^59, held by int64 only
    @example(system=(2, 130, B))  # occupations past int8
    def test_rank_inverts_enumeration(self, system):
        n_sites, m, stat = system
        basis = enumerate_basis(n_sites, m, stat)
        ranks = basis_rank(basis, stat)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, np.arange(len(basis)))

    def test_rank_of_reordered_rows(self):
        basis = enumerate_basis(6, 3, B)
        order = np.random.default_rng(5).permutation(len(basis))
        assert np.array_equal(basis_rank(basis[order], B), order)


class TestConfigValidation:
    def test_fermion_occupations_binary(self):
        with pytest.raises(FockDomainError):
            OccupationConfig(F, (2, 0))

    def test_kconfig_ordering(self):
        with pytest.raises(FockDomainError):
            KConfig(F, (2, 2))
        with pytest.raises(FockDomainError):
            KConfig(B, (3, 1))
        KConfig(B, (1, 1, 3))  # repeats allowed for bosons


class TestTransitionAmplitude:
    def test_diagonal_pair_no_sign(self):
        src = OccupationConfig(F, (1, 1, 0))
        amp, target = transition_amplitude(src, KConfig(F, (0, 1)), KConfig(F, (0, 1)))
        assert amp == 1.0
        assert target == src

    def test_offdiagonal_sign_matches_oracle(self):
        cre, ann = fermion_operators(3)
        src = OccupationConfig(F, (1, 1, 0))
        amp, target = transition_amplitude(src, KConfig(F, (1, 2)), KConfig(F, (0, 1)))
        assert target.occupations == (0, 1, 1)
        op = fermion_pair_operator(cre, ann, (1, 2), (0, 1))
        assert op[bitmask(target), bitmask(src)] == amp
        assert abs(amp) == 1.0

    def test_boson_single_site_roundtrip(self):
        src = OccupationConfig(B, (2,))
        amp, target = transition_amplitude(src, KConfig(B, (0, 0)), KConfig(B, (0, 0)))
        assert amp == pytest.approx(1.0, abs=1e-15)
        assert target == src

    def test_blocked_transitions_return_none(self):
        src = OccupationConfig(F, (1, 0, 1))
        assert transition_amplitude(src, KConfig(F, (0, 1)), KConfig(F, (0, 1))) is None
        assert transition_amplitude(src, KConfig(F, (2,)), KConfig(F, (0,))) is None
        boson = OccupationConfig(B, (1, 0))
        assert transition_amplitude(boson, KConfig(B, (0, 0)), KConfig(B, (0, 0))) is None

    def test_statistics_mismatch_rejected(self):
        with pytest.raises(FockDomainError):
            transition_amplitude(
                OccupationConfig(F, (1, 0)), KConfig(B, (0,)), KConfig(B, (0,))
            )

    def test_unequal_k_rejected(self):
        with pytest.raises(FockDomainError):
            transition_amplitude(
                OccupationConfig(F, (1, 1, 0)), KConfig(F, (0,)), KConfig(F, (0, 1))
            )

    def test_label_outside_space_rejected(self):
        with pytest.raises(FockDomainError):
            transition_amplitude(
                OccupationConfig(F, (1, 0)), KConfig(F, (5,)), KConfig(F, (0,))
            )


def _fermion_cases(n_sites, k):
    basis = basis_configs(n_sites, k + 1, F) + basis_configs(n_sites, k, F)
    kcfgs = [KConfig(F, c) for c in combinations(range(n_sites), k)]
    return basis, kcfgs


class TestFermionAgainstOracle:
    @pytest.mark.parametrize("n_sites,k", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_all_matrix_elements(self, n_sites, k):
        cre, ann = fermion_operators(n_sites)
        basis, kcfgs = _fermion_cases(n_sites, k)
        for create in kcfgs:
            for annihilate in kcfgs:
                op = fermion_pair_operator(cre, ann, create.indices, annihilate.indices)
                dense = np.asarray(op.todense())
                for src in basis:
                    res = transition_amplitude(src, create, annihilate)
                    col = dense[:, bitmask(src)]
                    if res is None:
                        assert not col.any()
                    else:
                        amp, target = res
                        assert col[bitmask(target)] == amp
                        assert np.count_nonzero(col) == 1

    def test_sequential_equals_literal_product(self):
        # Reversing both operator blocks leaves the product invariant.
        cre, ann = fermion_operators(4)
        for create in combinations(range(4), 2):
            for annihilate in combinations(range(4), 2):
                a = fermion_pair_operator(cre, ann, create, annihilate)
                b = fermion_pair_operator_literal(cre, ann, create, annihilate)
                assert (a - b).nnz == 0


class TestBosonAgainstOracle:
    @pytest.mark.parametrize("n_sites,m,k", [(2, 2, 1), (2, 3, 2), (3, 3, 2), (3, 2, 2)])
    def test_all_matrix_elements(self, n_sites, m, k):
        states, index, cre, ann = boson_operators(n_sites, max_total=m)
        basis = basis_configs(n_sites, m, B)
        kcfgs = [KConfig(B, c) for c in combinations_with_replacement(range(n_sites), k)]
        for create in kcfgs:
            for annihilate in kcfgs:
                op = boson_pair_operator(cre, ann, create.indices, annihilate.indices)
                dense = np.asarray(op.todense())
                for src in basis:
                    res = transition_amplitude(src, create, annihilate)
                    col = dense[:, index[src.occupations]]
                    if res is None:
                        assert not col.any()
                    else:
                        amp, target = res
                        assert col[index[target.occupations]] == pytest.approx(amp, rel=1e-12)


class TestHermiticitySeed:
    @pytest.mark.parametrize("stat,n_sites,m,k", [(F, 5, 3, 2), (B, 3, 4, 2), (B, 4, 3, 3)])
    def test_reverse_transition(self, stat, n_sites, m, k):
        basis = basis_configs(n_sites, m, stat)
        kcfgs = enumerate_kconfigs(n_sites, k, stat)
        checked = 0
        for src in basis:
            for create in kcfgs:
                for annihilate in kcfgs:
                    res = transition_amplitude(src, create, annihilate)
                    if res is None:
                        continue
                    amp, target = res
                    back = transition_amplitude(target, annihilate, create)
                    assert back is not None
                    back_amp, back_target = back
                    assert back_target == src
                    assert back_amp == pytest.approx(amp, rel=1e-12)
                    checked += 1
        assert checked > 0


class TestIdentityPropagation:
    # Small cases here; the full (N <= 8, m <= 6) sweep runs in the acceptance
    # suite against the operator oracle.
    @pytest.mark.parametrize("stat,n_sites,m,k", [(F, 5, 3, 2), (F, 4, 4, 2), (B, 3, 3, 2)])
    def test_summed_diagonal_pairs(self, stat, n_sites, m, k):
        basis = basis_configs(n_sites, m, stat)
        kcfgs = enumerate_kconfigs(n_sites, k, stat)
        for src in basis:
            total = 0.0
            for kc in kcfgs:
                res = transition_amplitude(src, kc, kc)
                if res is not None:
                    amp, target = res
                    assert target == src
                    total += amp
            assert total == pytest.approx(math.comb(m, k), rel=1e-12)


class TestAttachDetach:
    def test_detach_then_attach_identity(self):
        src = OccupationConfig(B, (2, 1, 0))
        kc = KConfig(B, (0, 1))
        amp_down, mid = detach_amplitude(src, kc)
        amp_up, back = attach_amplitude(mid, kc)
        assert back == src
        assert amp_down == pytest.approx(amp_up, rel=1e-12)

    def test_detach_blocked(self):
        assert detach_amplitude(OccupationConfig(F, (1, 0)), KConfig(F, (1,))) is None
