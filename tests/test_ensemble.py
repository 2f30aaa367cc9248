import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egoek import ensemble
from egoek.ensemble import (
    EnsembleSpec,
    MemberMatrix,
    build_embedding_plan,
    build_member,
    embed,
    member_seed,
    sample_kbody,
    spectral_variance,
    splitmix64,
)
from egoek.fock import BasisSizeError, Statistics, binomial, enumerate_basis
from egoek.spectra import eigenvalues, moments

from oracles import (
    basis_configs,
    embed_loop_oracle,
    embed_oracle,
    embedding_plan_oracle,
    enumerate_kconfigs,
    transition_amplitude,
)

F = Statistics.FERMION
B = Statistics.BOSON


def fermion_spec(**kw):
    base = dict(statistics=F, m=4, n_sites=8, k=2, members=4, master_seed=11)
    base.update(kw)
    return EnsembleSpec(**base)


class TestSpecValidation:
    def test_k_range(self):
        with pytest.raises(ValueError):
            fermion_spec(k=5)
        with pytest.raises(ValueError):
            fermion_spec(k=0)

    def test_fermion_capacity(self):
        with pytest.raises(ValueError):
            fermion_spec(m=9)

    def test_positive_nu2_and_members(self):
        with pytest.raises(ValueError):
            fermion_spec(nu2=0.0)
        with pytest.raises(ValueError):
            fermion_spec(members=0)

    def test_k_equal_one_allowed(self):
        assert fermion_spec(k=1).k_dimension == 8

    def test_dimensions(self):
        spec = fermion_spec()
        assert spec.dimension == 70
        assert spec.k_dimension == 28


class TestSeeding:
    def test_splitmix_is_64_bit_and_deterministic(self):
        a = splitmix64(12345)
        assert a == splitmix64(12345)
        assert 0 <= a < 1 << 64
        assert splitmix64(12346) != a

    def test_member_seeds_distinct(self):
        seeds = {member_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_same_inputs_same_matrix(self):
        spec = fermion_spec()
        a = sample_kbody(spec, 1)
        b = sample_kbody(spec, 1)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.seed == b.seed

    def test_members_differ(self):
        spec = fermion_spec()
        assert not np.array_equal(sample_kbody(spec, 0).matrix, sample_kbody(spec, 1).matrix)

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            sample_kbody(fermion_spec(), 4)


class TestSamplingStatistics:
    def test_entry_moments(self):
        # Statistical oracle: pooled entries over enough members for ~20k
        # off-diagonal and ~10k diagonal draws.
        spec = EnsembleSpec(F, m=4, n_sites=20, k=2, members=53, master_seed=3, nu2=1.0)
        diag, off = [], []
        for i in range(spec.members):
            mat = sample_kbody(spec, i).matrix
            diag.append(np.diag(mat))
            off.append(mat[np.triu_indices(mat.shape[0], 1)])
        diag = np.concatenate(diag)
        off = np.concatenate(off)
        assert len(diag) >= 10_000

        pooled = np.concatenate([diag, off])
        se = np.sqrt(np.mean(pooled**2) / len(pooled))
        assert abs(pooled.mean()) < 4 * se

        assert np.var(diag) == pytest.approx(2.0, rel=0.10)
        assert np.var(off) == pytest.approx(1.0, rel=0.05)

    def test_nu2_scales_variances(self):
        spec = EnsembleSpec(F, m=4, n_sites=20, k=2, members=20, master_seed=3, nu2=4.0)
        mats = [sample_kbody(spec, i).matrix for i in range(20)]
        off = np.concatenate([m[np.triu_indices(m.shape[0], 1)] for m in mats])
        assert np.var(off) == pytest.approx(4.0, rel=0.10)


class TestEmbedding:
    def test_k_equals_m_is_identity(self):
        for spec in (
            EnsembleSpec(F, m=3, n_sites=6, k=3, members=1, master_seed=5),
            EnsembleSpec(B, m=3, n_sites=4, k=3, members=1, master_seed=5),
        ):
            kmat = sample_kbody(spec, 0)
            assert np.array_equal(embed(kmat, spec).matrix, kmat.matrix)

    def test_identity_embeds_to_scaled_identity(self):
        spec = fermion_spec()
        kmat = MemberMatrix(np.eye(spec.k_dimension), member=0, seed=0)
        ham = embed(kmat, spec).matrix
        assert np.array_equal(ham, math.comb(4, 2) * np.eye(spec.dimension))

    def test_boson_identity_embedding(self):
        spec = EnsembleSpec(B, m=4, n_sites=4, k=2, members=1, master_seed=0)
        ham = embed(MemberMatrix(np.eye(spec.k_dimension), 0, 0), spec).matrix
        off = ham - np.diag(np.diag(ham))
        assert not off.any()
        assert np.allclose(np.diag(ham), math.comb(4, 2), rtol=1e-12)

    def test_linearity(self):
        spec = fermion_spec()
        rng = np.random.default_rng(0)
        v1 = rng.standard_normal((28, 28))
        v1 = v1 + v1.T
        v2 = rng.standard_normal((28, 28))
        v2 = v2 + v2.T
        combo = embed(MemberMatrix(2.5 * v1 - 0.5 * v2, 0, 0), spec).matrix
        parts = 2.5 * embed(MemberMatrix(v1, 0, 0), spec).matrix - 0.5 * embed(
            MemberMatrix(v2, 0, 0), spec
        ).matrix
        assert np.allclose(combo, parts, atol=1e-12 * np.abs(parts).max())

    @pytest.mark.parametrize(
        "spec",
        [
            fermion_spec(),
            EnsembleSpec(B, m=10, n_sites=5, k=2, members=3, master_seed=42),
            EnsembleSpec(B, m=10, n_sites=5, k=6, members=3, master_seed=42),
        ],
        ids=["fermion-k2", "boson-k2", "boson-k6"],
    )
    def test_exact_symmetry(self, spec):
        for member in range(3):
            ham = build_member(spec, member).matrix
            assert np.array_equal(ham, ham.T)

    def test_dimension_mismatch(self):
        spec = fermion_spec()
        with pytest.raises(ValueError):
            embed(MemberMatrix(np.eye(5), 0, 0), spec)

    @pytest.mark.parametrize(
        "stat,n_sites,m,k",
        [(F, 3, 2, 2), (F, 5, 3, 2), (B, 3, 3, 2), (B, 2, 3, 2)],
    )
    def test_embed_matches_operator_oracle(self, stat, n_sites, m, k):
        spec = EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=1, master_seed=9)
        kmat = sample_kbody(spec, 0)
        ours = embed(kmat, spec).matrix
        reference = embed_oracle(kmat.matrix, n_sites, m, k, stat)
        assert np.allclose(ours, reference, atol=1e-10)

    @pytest.mark.parametrize("stat,n_sites,m,k", [(F, 5, 3, 2), (B, 3, 3, 2)])
    def test_embed_matches_transition_double_loop(self, stat, n_sites, m, k):
        spec = EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=1, master_seed=2)
        kmat = sample_kbody(spec, 0)
        basis = basis_configs(n_sites, m, stat)
        kcfgs = enumerate_kconfigs(n_sites, k, stat)
        index = {cfg.occupations: i for i, cfg in enumerate(basis)}
        ham = np.zeros((len(basis), len(basis)))
        for a, src in enumerate(basis):
            for ig, gamma in enumerate(kcfgs):
                for ia, alpha in enumerate(kcfgs):
                    res = transition_amplitude(src, alpha, gamma)
                    if res is not None:
                        amp, target = res
                        ham[index[target.occupations], a] += kmat.matrix[ia, ig] * amp
        assert np.allclose(embed(kmat, spec).matrix, ham, atol=1e-11)


def assert_same_plan(plan, reference):
    """Equal dimension, and equal shape, dtype and bytes of each of the three arrays."""
    assert plan.dimension == reference.dimension
    for name in ("targets", "kconfigs", "weights"):
        ours, theirs = getattr(plan, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize(
    "stat,m,n_sites,k",
    # The reference systems, then bosons whose occupations sum past int8
    # (m=200) and whose norm bound C(m, k) passes int64, so that the norms
    # stay Python ints (both).
    [(F, 6, 12, 2), (B, 10, 5, 2), (B, 10, 5, 6), (B, 200, 2, 150), (B, 70, 2, 35)],
)
def test_plan_matches_double_loop_on_reference_systems(stat, m, n_sites, k):
    assert_same_plan(build_embedding_plan(stat, m, n_sites, k), embedding_plan_oracle(stat, m, n_sites, k))


REFERENCE_SYSTEMS = [
    EnsembleSpec(F, m=6, n_sites=12, k=2, members=3, master_seed=42),
    EnsembleSpec(B, m=10, n_sites=5, k=2, members=3, master_seed=42),
    EnsembleSpec(B, m=10, n_sites=5, k=6, members=3, master_seed=42),
]


@pytest.mark.parametrize("spec", REFERENCE_SYSTEMS, ids=["fermion-k2", "boson-k2", "boson-k6"])
def test_embed_bytes_match_loop_oracle_on_reference_systems(spec):
    # 167 intermediates per chunk over 495 (a partial last chunk) on fermions,
    # and two per chunk on boson k=6.
    plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
    for member in range(spec.members):
        kmat = sample_kbody(spec, member)
        assert embed(kmat, spec).matrix.tobytes() == embed_loop_oracle(kmat.matrix, plan).tobytes()


def test_embed_transient_memory_is_bounded():
    # Boson k=6 scatters 3.1M terms per member: unchunked, the gathered
    # values, weights and indices peak near 47 MiB; chunked, near 2 MiB.
    spec = REFERENCE_SYSTEMS[2]
    kmat = sample_kbody(spec, 0)
    build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
    tracemalloc.start()
    try:
        ham = embed(kmat, spec).matrix
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ham.nbytes < 8 * 2**20


def traced_peak(function, *args):
    """Peak bytes ``tracemalloc`` sees while ``function(*args)`` runs."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stat, m, n_sites, k", [(F, 13, 16, 3), (B, 6, 12, 3)])
def test_kbody_bytes_per_entry(stat, m, n_sites, k):
    # Per d_k² entry: 4 for the draws, 8 for the triangle's indices, and 8 each
    # for the matrix, its upper triangle and their sum; the diagonal adds ~1/d_k.
    spec = EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=1)
    per_entry = traced_peak(sample_kbody, spec, 0) / spec.k_dimension**2
    assert 0.85 * ensemble._KBODY_BYTES < per_entry <= ensemble._KBODY_BYTES


@pytest.mark.parametrize("stat, m, n_sites, k", [(F, 13, 16, 3), (B, 6, 12, 3), (F, 20, 24, 2)])
def test_plan_bytes(stat, m, n_sites, k):
    # Above the kept 24 B per pair, the build holds the intermediates' occupation
    # table (N B each) and one block of at most _CHUNK_TERMS pairs: a few MiB at
    # these N, however many (intermediate, k-config) pairs the system has.
    build_embedding_plan.cache_clear()
    peak = traced_peak(build_embedding_plan, stat, m, n_sites, k)
    plan = build_embedding_plan(stat, m, n_sites, k)
    kept = sum(x.nbytes for x in (plan.targets, plan.kconfigs, plan.weights))
    assert kept == 24 * plan.targets.size
    assert peak - kept < 16 * 2**20
    assert peak < 100 * 2**20


@pytest.mark.parametrize("build, args", [(enumerate_basis, (2, 4000, B)),
                                         (build_embedding_plan, (B, 4000, 2, 1)),
                                         (build_embedding_plan, (B, 10**5, 1, 1))],
                         ids=["basis", "plan", "one_site_plan"])
def test_many_bosons_on_few_sites_build_in_linear_memory(build, args):
    # 4,001 states of up to 4,000 particles each: a (states x particles) table of
    # site labels would take 122 MiB, where the kept arrays take well under 1 MiB.
    # On one site the plan is one pair, and the norm table holds only C(m, k).
    build_embedding_plan.cache_clear()
    peak = traced_peak(build, *args)
    kept = build(*args)
    arrays = (kept,) if build is enumerate_basis else (kept.targets, kept.kconfigs, kept.weights)
    assert peak - sum(x.nbytes for x in arrays) < 2 * 2**20


def test_plan_refuses_basis_above_cap_before_building_tables():
    # d = C(64, 6) = 74,974,368; the (C(64,3) x C(64,3)) tables would need ~14 GB.
    with pytest.raises(BasisSizeError):
        build_embedding_plan(F, 6, 64, 3)


@st.composite
def small_systems(draw):
    """Fermions with N <= 7, bosons with N <= 4 and m <= 5, and 1 <= k <= m."""
    stat = draw(st.sampled_from([F, B]))
    n_sites = draw(st.integers(1, 7 if stat is F else 4))
    m = draw(st.integers(1, n_sites if stat is F else 5))
    k = draw(st.integers(1, m))
    return EnsembleSpec(stat, m=m, n_sites=n_sites, k=k, members=1)


@st.composite
def boson_specs(draw):
    """Boson (m, N, k, nu2) up to 10^13, biased to small k and m - k, nu2 down to subnormals."""
    m = draw(st.one_of(st.integers(1, 2000), st.integers(1, 10**13)))
    k = draw(st.one_of(st.integers(1, min(m, 64)), st.integers(1, m),
                       st.integers(max(1, m - 64), m)))
    n_sites = draw(st.one_of(st.integers(1, 64), st.integers(1, 10**13)))
    return m, n_sites, k, draw(st.floats(5e-324, 1e300))


@settings(max_examples=300, deadline=None)
@given(system=boson_specs())
@example(system=(600, 2, 300, 1e-250))
@example(system=(1100, 2, 550, 5e-324))
def test_accepted_boson_amplitudes_fit_float64(system):
    """The level-scale rule alone keeps every boson amplitude within float64."""
    m, n_sites, k, nu2 = system
    try:
        EnsembleSpec(B, m=m, n_sites=n_sites, k=k, members=1, nu2=nu2)
    except ValueError:
        return
    assert binomial(m, k, 2**1024) < 2**1024  # stops early, so a huge C(m, k) fails fast
    # C(m, k), the largest squared amplitude, is that of one site holding all m bosons.
    assert math.isfinite(math.sqrt(math.comb(m, k)))


def random_symmetric(dk, seed):
    v = np.random.default_rng(seed).standard_normal((dk, dk))
    return v + v.T


class TestEmbeddingProperties:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_systems(), chunk=st.sampled_from([1, 7, ensemble._CHUNK_TERMS]))
    def test_plan_matches_double_loop_and_is_rectangular(self, spec, chunk):
        # Chunk 1 builds one row per block; chunk 7 builds a few rows per block,
        # or one where a row has more than 7 pairs.
        build_embedding_plan.cache_clear()
        try:
            with mock.patch.object(ensemble, "_CHUNK_TERMS", chunk):
                plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
        finally:
            build_embedding_plan.cache_clear()
        assert_same_plan(plan, embedding_plan_oracle(spec.statistics, spec.m, spec.n_sites, spec.k))
        assert plan.targets.ndim == 2 and plan.targets.shape[1] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        spec=small_systems(),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 7, 64, ensemble._CHUNK_TERMS]),
    )
    def test_embed_bytes_match_loop_oracle(self, spec, seed, chunk):
        v = random_symmetric(spec.k_dimension, seed)
        plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
        with mock.patch.object(ensemble, "_CHUNK_TERMS", chunk):
            ham = embed(MemberMatrix(v, 0, 0), spec).matrix
        assert ham.tobytes() == embed_loop_oracle(v, plan).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(spec=small_systems(), seed=st.integers(0, 2**32 - 1))
    def test_embed_is_exactly_symmetric(self, spec, seed):
        ham = embed(MemberMatrix(random_symmetric(spec.k_dimension, seed), 0, 0), spec).matrix
        assert np.array_equal(ham, ham.T)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=small_systems(),
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(-4.0, 4.0),
        b=st.floats(-4.0, 4.0),
    )
    @example(spec=EnsembleSpec(B, m=2, n_sites=1, k=1, members=1), seed=0, a=0.0, b=5e-324)
    def test_embed_is_linear(self, spec, seed, a, b):
        v1 = random_symmetric(spec.k_dimension, seed)
        v2 = random_symmetric(spec.k_dimension, seed + 1)
        combo = embed(MemberMatrix(a * v1 + b * v2, 0, 0), spec).matrix
        h1 = embed(MemberMatrix(v1, 0, 0), spec).matrix
        h2 = embed(MemberMatrix(v2, 0, 0), spec).matrix
        scale = (abs(a) * np.abs(h1).max() + abs(b) * np.abs(h2).max()) or 1.0
        # The rounding of a*v1 + b*v2 is absolute for subnormal a, b: hence the floor.
        atol = 1e-12 * scale + 4 * np.finfo(float).smallest_subnormal
        assert np.allclose(combo, a * h1 + b * h2, rtol=0.0, atol=atol)

    @settings(max_examples=60, deadline=None)
    @given(spec=small_systems(), seed=st.integers(0, 2**32 - 1))
    def test_trace_from_plan_weights(self, spec, seed):
        v = random_symmetric(spec.k_dimension, seed)
        ham = embed(MemberMatrix(v, 0, 0), spec).matrix
        plan = build_embedding_plan(spec.statistics, spec.m, spec.n_sites, spec.k)
        w_sq = plan.weights.ravel() ** 2
        expected = np.diag(v) @ np.bincount(
            plan.kconfigs.ravel(), weights=w_sq, minlength=spec.k_dimension
        )
        assert np.trace(ham) == pytest.approx(expected, rel=1e-12, abs=1e-12 * np.abs(v).max())


def exact_second_moment(stat, m, n_sites, k, central=False):
    """E[(1/d)Tr H^2] from the amplitude matrices and the entry covariances.

    With ``central=True`` the expected centroid fluctuation is subtracted,
    giving the expectation of the per-member central variance.
    """
    basis = basis_configs(n_sites, m, stat)
    kcfgs = enumerate_kconfigs(n_sites, k, stat)
    d, dk = len(basis), len(kcfgs)
    index = {c.occupations: i for i, c in enumerate(basis)}
    amp = np.zeros((dk, dk, d, d))
    for a, src in enumerate(basis):
        for ig, gamma in enumerate(kcfgs):
            for ia, alpha in enumerate(kcfgs):
                res = transition_amplitude(src, alpha, gamma)
                if res is not None:
                    value, target = res
                    amp[ia, ig, index[target.occupations], a] = value
    direct = np.einsum("agxy,agxy->", amp, amp)
    exchange = np.einsum("agxy,gaxy->", amp, amp)
    raw = (direct + exchange) / d
    if not central:
        return raw
    diag_traces = np.array([np.trace(amp[a, a]) for a in range(dk)])
    return raw - 2.0 * np.sum(diag_traces**2) / d**2


class TestSpectralVariancePropagation:
    def test_formula_values(self):
        assert spectral_variance(EnsembleSpec(F, m=6, n_sites=12, k=2)) == 435
        assert spectral_variance(EnsembleSpec(B, m=10, n_sites=5, k=2)) == 4095

    def test_terms_past_float64(self):
        # Boson m=600, N=2, k=300 (d=601): the terms C(600, 300) C(601, 300) pass
        # float64, and nu2 = 1e-250 brings the variance back to about 3.6e108.
        spec = EnsembleSpec(B, m=600, n_sites=2, k=300, nu2=1e-250)
        terms = math.comb(600, 300) * math.comb(601, 300)
        assert terms > 2**1024
        assert spectral_variance(spec) == float(Fraction(terms) * Fraction(1e-250))

    @settings(max_examples=60, deadline=None)
    @given(spec=small_systems(), nu2=st.floats(1e-100, 1e100))
    def test_small_terms_match_float_product(self, spec, nu2):
        terms = ensemble._variance_terms(spec)
        assert terms < 2**53
        assert spectral_variance(replace(spec, nu2=nu2)) == terms * nu2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), statistics=st.sampled_from([F, B]),
           limit=st.sampled_from([None, 2**8, 2**64, 2**1024, 2**2048]))
    def test_terms_are_the_limited_binomial_product(self, data, statistics, limit):
        # Lambda^0(N, m, k), plus C(m, k) for fermions, is the product of limited
        # binomials it replaced, bitwise, also past the limit.  The stand-in spec
        # skips EnsembleSpec's own level rule, which reads these terms.
        top = 2000 if limit is None else 10**13
        m = data.draw(st.one_of(st.integers(1, 60), st.integers(1, top)))
        n_sites = data.draw(st.integers(m if statistics is F else 1, m + top))
        k = data.draw(st.one_of(st.integers(1, min(m, 60)), st.integers(max(1, m - 60), m)))
        spec = SimpleNamespace(statistics=statistics, m=m, n_sites=n_sites, k=k)
        if statistics is F:
            pair = binomial(n_sites - m + k, k, limit) + 1
        else:
            pair = binomial(n_sites + m - 1, k, limit)
        assert ensemble._variance_terms(spec, limit) == binomial(m, k, limit) * pair

    def test_fermion_formula_is_exact(self):
        # The embedded second moment reproduces the propagation formula to
        # rounding.  The boson formula is only the direct term: with the
        # exchange term and the centroid fluctuation the exact expectation is
        # +5.5%, +4.8%, +4.4% above it at m=10, 20, 30 (N=5, k=2) and +0.13%
        # at m=4, N=40, so it closes with N, not m; see the acceptance suite.
        assert exact_second_moment(F, 4, 8, 2) == pytest.approx(
            spectral_variance(EnsembleSpec(F, m=4, n_sites=8, k=2)), rel=1e-12
        )
        assert exact_second_moment(F, 3, 6, 2) == pytest.approx(
            spectral_variance(EnsembleSpec(F, m=3, n_sites=6, k=2)), rel=1e-12
        )

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(F, m=4, n_sites=8, k=2, members=60, master_seed=17),
            EnsembleSpec(B, m=4, n_sites=4, k=2, members=60, master_seed=17),
        ],
    )
    def test_ensemble_variance_and_centroid(self, spec):
        stats = [moments(eigenvalues(build_member(spec, i))) for i in range(spec.members)]
        mean_var = np.mean([s.variance for s in stats])
        target = exact_second_moment(
            spec.statistics, spec.m, spec.n_sites, spec.k, central=True
        )
        assert mean_var == pytest.approx(target, rel=0.05)
        centroids = np.array([s.centroid for s in stats])
        se = centroids.std(ddof=1) / math.sqrt(len(centroids))
        assert abs(centroids.mean()) < 4 * se
