"""Tests for generate_trial's cluster sizes and outcome law, and trial I/O."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from zipcrt import (
    ArmProfile,
    ClusterSizeModel,
    ConfigError,
    DomainError,
    TrialDataset,
    build_design,
    generate_trial,
    marginal_variance,
    pairwise_covariance_factor,
    read_dataset,
    simulate,
    write_dataset,
    zero_probability,
)
from zipcrt import dataset as dataset_io  # the module; `dataset` builds test datasets
from zipcrt.design import MAX_SIZE_CELLS

from conftest import (
    DU_10_80,
    DU_34_56,
    NOT_UTF8,
    SE_MULTIPLE,
    TRUNPOIS,
    arm_outcomes,
    assert_same_moments,
    cluster_sum_moments,
    dataset,
    engine_table,
    grid_design,
    pooled_pair_correlation,
    reference_read_dataset,
    subject_trial,
)


def assert_size_moments(sizes, seed):
    """generate_trial's cluster sizes lie in the law's support and have its
    mean and variance, within SE_MULTIPLE standard errors."""
    m = generate_trial(grid_design(cluster_sizes=sizes), 20_000, seed=seed).size
    assert sizes.lo <= m.min() and m.max() <= sizes.hi
    mean, mean_se, var, var_se = cluster_sum_moments(m.astype(float))
    assert abs(mean - sizes.eta_m) <= SE_MULTIPLE * mean_se
    assert abs(var - sizes.sigma2_m) <= SE_MULTIPLE * var_se


class TestSampleClusterSize:
    """The cluster sizes generate_trial draws."""

    def test_fixed_is_constant(self):
        data = generate_trial(grid_design(ClusterSizeModel.fixed(45)), 100, seed=1)
        assert (data.size == 45).all()

    def test_discrete_uniform_moments(self):
        assert_size_moments(DU_34_56, seed=2)

    def test_truncated_poisson_moments(self):
        assert_size_moments(TRUNPOIS, seed=3)
        # this support rejects about half of the Poisson draws, so a sampler
        # that clipped to the support instead of redrawing would miss
        assert_size_moments(ClusterSizeModel.truncated_poisson(45.0, 40, 50), seed=3)

    def test_far_tail_truncated_poisson_frequencies(self):
        # Poisson(45) lands in [90, 100] with probability about 1e-9.  Each
        # size's frequency must match the renormalized Poisson pmf (scipy's)
        # within SE_MULTIPLE binomial standard errors; the rarest size, 100,
        # has about 6 expected clusters of 20,000
        sizes = ClusterSizeModel.truncated_poisson(45.0, 90, 100)
        n = 20_000
        m = generate_trial(grid_design(cluster_sizes=sizes), n, seed=4).size
        assert 90 <= m.min() and m.max() <= 100
        pmf = stats.poisson.pmf(np.arange(90, 101), 45.0)
        pmf /= pmf.sum()
        frequency = np.bincount(m - 90, minlength=11) / n
        assert (np.abs(frequency - pmf) <= SE_MULTIPLE * np.sqrt(pmf * (1.0 - pmf) / n)).all()


def fixed_size_trial(**cell):
    """A design with clusters of 20 and the given zero and correlation
    parameters, and a generate_trial dataset of it with 5,000 clusters per arm."""
    design = build_design(
        mu1=1.0, beta2=-0.431, cluster_sizes=ClusterSizeModel.fixed(20), **cell
    )
    return design, generate_trial(design, 10_000, seed=3)


def cluster_mean_se(per_cluster):
    """Standard error of the mean of per-cluster values; clusters are independent."""
    return per_cluster.std(ddof=1) / math.sqrt(per_cluster.size)


def assert_outcome_moments(design, data):
    """Each arm's outcome mean and variance against the closed forms, and its
    within-cluster pair correlation, by pooled_pair_correlation, against
    pairwise_covariance_factor / marginal_variance; within SE_MULTIPLE
    standard errors of the per-cluster statistics."""
    for a, profile in enumerate((design.control, design.intervention)):
        y = arm_outcomes(data, a).reshape(-1, data.size[0]).astype(float)  # a row per cluster
        assert abs(y.mean() - profile.mu) <= SE_MULTIPLE * cluster_mean_se(y.mean(axis=1))
        centred = y - y.mean()
        squares = (centred**2).mean(axis=1)
        variance = marginal_variance(profile)
        assert abs(squares.mean() - variance) <= SE_MULTIPLE * cluster_mean_se(squares)
        # the pooled correlation is a ratio of two cluster means, of pair
        # products and of squares; its standard error is that of the
        # per-cluster linearisation
        m = y.shape[1]
        pairs = (centred.sum(axis=1) ** 2 - (centred**2).sum(axis=1)) / (m * (m - 1))
        got = pooled_pair_correlation(y)
        target = pairwise_covariance_factor(profile, design.rho_s, design.rho_u) / variance
        se = cluster_mean_se((pairs - got * squares) / squares.mean())
        assert abs(got - target) <= SE_MULTIPLE * se


class TestStructuralZeros:
    """The structural-zero part of generate_trial's law, with rho_u = 0."""

    def test_no_inflation_gives_all_zero(self):
        # p = 0: no subject is a structural zero, so each arm has Poisson's
        # zero fraction exp(-mu)
        design, data = fixed_size_trial(p1=0.0, q=0.0, rho_s=0.3, rho_u=0.0)
        for a, profile in enumerate((design.control, design.intervention)):
            zeros = (arm_outcomes(data, a) == 0).reshape(-1, 20).mean(axis=1)
            expected = math.exp(-profile.mu)
            assert abs(zeros.mean() - expected) <= SE_MULTIPLE * cluster_mean_se(zeros)

    def test_independent_case_is_uncorrelated(self):
        assert_outcome_moments(*fixed_size_trial(p1=0.5, q=0.5, rho_s=0.0, rho_u=0.0))

    def test_target_moments(self):
        assert_outcome_moments(*fixed_size_trial(p1=0.5, q=0.5, rho_s=0.1, rho_u=0.0))

    def test_validation(self):
        # the design rejects what a structural-zero draw cannot take
        with pytest.raises(DomainError, match=r"p must lie in \[0, 1\)"):
            ArmProfile(1.0, 1.0)
        for rho_s in (-0.1, 1.0):
            with pytest.raises(DomainError, match=r"rho_s must lie in \[0, 1\)"):
                build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=rho_s, rho_u=0.03,
                             cluster_sizes=DU_34_56)


class TestCorrelatedPoisson:
    """The count part of generate_trial's law, with no structural zeros."""

    def test_independent_case(self):
        assert_outcome_moments(*fixed_size_trial(p1=0.0, q=0.0, rho_s=0.3, rho_u=0.0))

    def test_full_sharing_limit(self):
        # with both ICCs just below 1 every subject takes its cluster's shared
        # zero and shared count, so all outcomes in a cluster are equal
        near_one = 1.0 - 1e-12
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=near_one, rho_u=near_one,
            cluster_sizes=DU_34_56,
        )
        data = generate_trial(design, 2000, seed=9)
        first = data.outcomes[np.cumsum(data.size) - data.size]
        assert (data.outcomes == np.repeat(first, data.size)).all()
        assert (first == 0).any() and np.unique(first).size > 2

    def test_target_moments(self):
        # rho_s has nothing to act on without structural zeros
        assert_outcome_moments(*fixed_size_trial(p1=0.0, q=0.0, rho_s=0.3, rho_u=0.1))

    def test_validation(self):
        # the design rejects what a correlated Poisson draw cannot take
        with pytest.raises(DomainError, match="must be positive"):
            ArmProfile((1 - 0.5) * 0.0, 0.5)
        for rho_u in (-0.1, 1.0):
            with pytest.raises(DomainError, match=r"rho_u must lie in \[0, 1\)"):
                build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=rho_u,
                             cluster_sizes=DU_34_56)


class TestPoissonSample:
    """_poisson_sample's values: the multiset below a mean of 10, numpy's
    per-value draw from 10 on."""

    N = 200_000
    MEANS = [0.05, 1.9, 9.9, 10.0, 40.0]  # three on the multiset branch, two on rng.poisson

    @pytest.mark.parametrize("lam", MEANS)
    def test_value_frequencies_match_poisson(self, lam):
        # every value expected 25 times or more is its own bin, the rest one
        # pooled bin; each bin's count lies within SE_MULTIPLE binomial SEs
        values = simulate._poisson_sample(lam, self.N, np.random.default_rng(11))
        assert values.dtype == np.int64 and values.shape == (self.N,)
        support = np.arange(int(values.max()) + 200)
        expected = stats.poisson.pmf(support, lam)
        own_bin = self.N * expected >= 25
        counts = np.bincount(values, minlength=support.size)
        got = np.append(counts[own_bin], self.N - counts[own_bin].sum())
        prob = np.append(expected[own_bin], 1.0 - expected[own_bin].sum())
        se = np.sqrt(self.N * prob * (1.0 - prob))
        assert (np.abs(got - self.N * prob) <= SE_MULTIPLE * se).all()

    @pytest.mark.parametrize("lam", MEANS)
    def test_no_values(self, lam):
        assert simulate._poisson_sample(lam, 0, np.random.default_rng(1)).size == 0

    @pytest.mark.parametrize("lam", [0.05, 1.9, 9.9])
    def test_order_is_exchangeable(self, lam):
        # a multiset left unshuffled would start with its zeros and end with
        # its largest values
        values = simulate._poisson_sample(lam, self.N, np.random.default_rng(12))
        edge = self.N // 100
        se = math.sqrt(lam / edge)
        for part in (values[:edge], values[-edge:]):
            assert abs(part.mean() - lam) <= SE_MULTIPLE * se

    def test_each_arm_draws_its_own_mean(self):
        # control 1.9 on the multiset, intervention 57 on rng.poisson
        design = grid_design(beta2=math.log(30.0), rho=0.05, q=0.0)
        arms, sizes, nonzero, shared, own = simulate._draw_trial(design, 2_000, 8)
        for a, (arm, parts) in enumerate(zip((design.control, design.intervention), own)):
            assert parts.size == nonzero[arms == a].sum()
            lam = arm.lam * (1.0 - design.rho_u)
            assert abs(parts.mean() - lam) <= SE_MULTIPLE * math.sqrt(lam / parts.size)


def nonzero_count_law(design, p):
    """The exact law of a cluster's ``(m, K)`` in an arm with structural-zero
    probability ``p``: arrays of every cell's ``m``, ``k`` and probability,
    from scipy's size pmf and binomials, ``m`` ascending, then ``k``."""
    sizes = design.cluster_sizes
    support = np.arange(sizes.lo, sizes.hi + 1)
    if sizes.kind == "truncated_poisson":
        size_pmf = stats.poisson.pmf(support, sizes.rate)
        size_pmf /= size_pmf.sum()
    else:
        size_pmf = np.full(support.size, 1.0 / support.size)
    share = math.sqrt(design.rho_s)
    shared_zero = (1.0 - share) * (1.0 - p)  # success probability given c = 1
    no_shared_zero = 1.0 - (1.0 - share) * p  # given c = 0
    m = np.repeat(support, support + 1)
    k = np.concatenate([np.arange(size + 1) for size in support])
    prob = np.repeat(size_pmf, support + 1) * (
        p * stats.binom.pmf(k, m, shared_zero) + (1.0 - p) * stats.binom.pmf(k, m, no_shared_zero)
    )
    return m, k, prob


class TestNonzeroCounts:
    """_draw_nonzero_counts' cells (m, K) against their exact law, on laws
    that tabulate their cells."""

    N = 100_000  # clusters per arm

    @pytest.mark.parametrize("design", [
        grid_design(DU_34_56, rho=0.1, p1=0.3),
        grid_design(DU_10_80, rho=0.1, p1=0.3),
        grid_design(TRUNPOIS, rho=0.1, p1=0.3),
        grid_design(ClusterSizeModel.truncated_poisson(45.0, 90, 100), rho=0.1, p1=0.3),
        grid_design(ClusterSizeModel.fixed(20), rho=0.1, p1=0.3),
        grid_design(DU_34_56, rho=0.1, p1=0.0, q=0.0),
        grid_design(DU_34_56, rho=1.0 - 1e-12),
    ], ids=["du34-56", "du10-80", "trunpois", "trunpois-far-tail", "fixed", "no-zeros",
            "full-sharing"])
    def test_cell_frequencies_match_the_exact_law(self, design):
        # the arms alternate over a (rows, clusters) layout, as in a study;
        # every cell expected 25 times or more is its own bin, the rest one
        # pooled bin, and each bin's count lies within SE_MULTIPLE binomial SEs
        arm = (np.arange(2 * self.N) % 2).reshape(-1, 40)
        m, nonzero = simulate._draw_nonzero_counts(design, arm, np.random.default_rng(21))
        assert m.shape == nonzero.shape == arm.shape
        for a, profile in enumerate((design.control, design.intervention)):
            law_m, law_k, prob = nonzero_count_law(design, profile.p)
            cell = {(mi, ki): i for i, (mi, ki) in enumerate(zip(law_m.tolist(), law_k.tolist()))}
            drawn = [cell[pair] for pair in zip(m[arm == a].tolist(), nonzero[arm == a].tolist())]
            counts = np.bincount(drawn, minlength=prob.size)
            own_bin = self.N * prob >= 25
            got = np.append(counts[own_bin], self.N - counts[own_bin].sum())
            expected = np.append(prob[own_bin], 1.0 - prob[own_bin].sum())
            se = np.sqrt(self.N * expected * (1.0 - expected))
            assert (np.abs(got - self.N * expected) <= SE_MULTIPLE * se).all()

    def test_order_is_exchangeable(self):
        # a multiset left unshuffled would start with its smallest cells and
        # end with its largest
        design = grid_design(DU_10_80, rho=0.1, p1=0.3)
        law_m, law_k, prob = nonzero_count_law(design, design.control.p)
        mean = float(np.dot(law_k, prob))
        sd = math.sqrt(float(np.dot((law_k - mean) ** 2, prob)))
        arm = np.zeros(self.N, dtype=np.int64)
        nonzero = simulate._draw_nonzero_counts(design, arm, np.random.default_rng(22))[1]
        edge = self.N // 100
        for part in (nonzero[:edge], nonzero[-edge:]):
            assert abs(part.mean() - mean) <= SE_MULTIPLE * sd / math.sqrt(edge)

    @pytest.mark.parametrize("sizes", [
        ClusterSizeModel.discrete_uniform(1, 254), ClusterSizeModel.discrete_uniform(1, 255),
        ClusterSizeModel.discrete_uniform(1, 400), ClusterSizeModel.fixed(32_767),
        ClusterSizeModel.fixed(32_768), DU_10_80, TRUNPOIS,
        ClusterSizeModel.truncated_poisson(500.0, 400, 600),
    ])
    def test_a_law_has_its_cells_exactly_up_to_the_cap(self, sizes):
        cells = sum(m + 1 for m in range(sizes.lo, sizes.hi + 1))
        assert (sizes._cells is not None) == (cells <= MAX_SIZE_CELLS)
        if sizes._cells is not None:
            assert sizes._cells.m.size == cells


def fresh_joint_law(design, profile):
    """An arm's law of ``(m, Y)``, built afresh."""
    return simulate._joint_law(
        design.cluster_sizes, design.rho_s, design.rho_u, profile.p, profile.lam
    )


def clear_law_caches():
    for cache in (simulate._two_law_table, simulate._law_slot):
        cache.cache_clear()


def law_arguments(build, design):
    """The shared parameters of ``design``'s laws ``build``, and each arm's."""
    arms = (design.control, design.intervention)
    if build is simulate._nonzero_law:
        return (design.rho_s,), [(arm.p,) for arm in arms]
    return (design.rho_s, design.rho_u), [(arm.p, arm.lam) for arm in arms]


def full_law(build, sizes, shared, law):
    """An arm's full cumulative law, every cell kept, and each cell's ``m``
    and ``v``."""
    if build is simulate._nonzero_law:
        cells = sizes._cells
        return simulate._nonzero_cdf(cells, *law, *shared), cells.m, cells.k
    (rho_s, rho_u), (p, lam) = shared, law
    return simulate._joint_cdf(sizes._cells, p, rho_s, lam, rho_u)


def replicate_arrays(design, seed=3):
    """The arm, size and outcome-sum arrays of 40 replicates of 31 clusters."""
    arm, my, _ = simulate._draw_replicates(design, 31, np.random.default_rng(seed), 40)
    return (arm, *my)


class TestArmCdf:
    """The memo of each design's laws, as one table: the control arm's law
    in row 0, then the intervention arm's, or one law for both arms."""

    @pytest.mark.parametrize("build", [simulate._nonzero_law, simulate._joint_law], ids=["m-k", "m-y"])
    def test_the_cached_law_is_a_fresh_one_and_read_only(self, build):
        # the alternative's table, which the null design reads too
        design = grid_design(DU_10_80, rho=0.05, p1=0.3)
        clear_law_caches()
        shared, arms = law_arguments(build, design)
        fresh = simulate._law_table([build(DU_10_80, *shared, *arm) for arm in arms])
        table, own_rows = simulate._design_table(build, DU_10_80, shared, *arms)
        assert own_rows and table.bounds.size == 3 and table.shift == fresh.shift
        for name in ("keys", "guide", "bounds", "m", "v"):
            part, fresh_part = getattr(table, name), getattr(fresh, name)
            assert part.dtype == fresh_part.dtype
            assert part.tobytes() == fresh_part.tobytes()
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0
        null = law_arguments(build, design.under_null())
        assert simulate._design_table(build, DU_10_80, null[0], *null[1]) == (table, False)

    def test_equal_laws_share_one_entry(self):
        clear_law_caches()
        sizes = [ClusterSizeModel.discrete_uniform(10, 80) for _ in range(2)]
        first, second = (
            simulate._design_table(simulate._nonzero_law, du, (0.05,), (0.3,), (0.6,))[0]
            for du in sizes
        )
        assert second is first
        # a p of -0.0 is 0.0, so a design of the two reads one law from
        # row 0, and each shares the other's slot
        zero, own_rows = simulate._design_table(simulate._nonzero_law, DU_10_80, (0.05,), (-0.0,), (0.0,))
        assert not own_rows and zero.bounds.size == 2
        assert zero is simulate._one_law_table(simulate._nonzero_law, DU_10_80, (0.05,), (0.0,))
        info = simulate._two_law_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        info = simulate._law_slot.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_a_null_design_shares_its_alternatives_control_law(self, monkeypatch):
        # drawn first, the null design builds a table of its one law; its
        # alternative then builds the two laws' table from row 0 of that
        # one, building only the intervention arm's law, and the null
        # design draws alike from row 0 of the new table
        built = []

        def counted(cells, p, rho_s, lam, rho_u):
            built.append((p, lam))
            return fresh(cells, p, rho_s, lam, rho_u)

        fresh = simulate._joint_cdf
        monkeypatch.setattr(simulate, "_joint_cdf", counted)
        design = grid_design(DU_10_80, rho=0.05)
        null = design.under_null()
        clear_law_caches()
        own, own_rows = engine_table(null)
        assert not own_rows and own.bounds.size == 2
        before = replicate_arrays(null)
        alternative, own_rows = engine_table(design)
        assert own_rows and alternative.bounds.size == 3
        assert engine_table(null)[0] is alternative
        for name in ("keys", "m", "v"):
            part, own_part = getattr(alternative, name), getattr(own, name)
            np.testing.assert_array_equal(part[:alternative.bounds[1]], own_part)
        assert built == [(arm.p, arm.lam) for arm in (design.control, design.intervention)]
        for array, earlier in zip(replicate_arrays(null), before):
            np.testing.assert_array_equal(array, earlier)
        clear_law_caches()  # keep no table the stand-in built
        # a p of -0.0 shares 0.0's slot
        slot = simulate._law_slot(simulate._joint_law, DU_10_80, (0.05, 0.05), (0.0, 1.0))
        assert simulate._law_slot(simulate._joint_law, DU_10_80, (0.05, 0.05), (-0.0, 1.0)) is slot


# An arm's law by its builder, size law and shared parameters, and the
# parameters of each of the table's one or two laws.  Of (m, K): DU(10,80)
# with structural zeros, DU(34,56) without, and two laws stacked.  Of (m,
# Y): the bundled grid's DU(10,80) at ICC 0.05, a wide one-size law, a law
# of 240 sizes whose tiny mean keeps its grid within the bound, a law
# without structural zeros and one of shared parts alone (rho_u = 1)
LAWS = {
    "arm": (simulate._nonzero_law, DU_10_80, (0.05,), [(0.3,)]),
    "arm-no-zeros": (simulate._nonzero_law, DU_34_56, (0.05,), [(0.0,)]),
    "arms-stacked": (simulate._nonzero_law, DU_10_80, (0.05,), [(0.3,), (0.6,)]),
    "sums": (simulate._joint_law, DU_10_80, (0.05, 0.05), [(0.5, 2.0)]),
    "sums-stacked": (simulate._joint_law, DU_10_80, (0.05, 0.05), [(0.5, 2.0), (0.6, 1.625)]),
    "sums-wide": (simulate._joint_law, ClusterSizeModel.fixed(2), (0.05, 0.05), [(0.3, 400.0)]),
    "sums-most-rows": (
        simulate._joint_law, ClusterSizeModel.discrete_uniform(1, 240), (0.05, 0.05), [(0.5, 2e-6)]
    ),
    "sums-no-zeros": (simulate._joint_law, DU_34_56, (0.05, 0.05), [(0.0, 1.0)]),
    "sums-shared-only": (
        simulate._joint_law, ClusterSizeModel.discrete_uniform(1, 6), (0.2, 1.0), [(0.4, 2.5), (0.0, 0.7)]
    ),
}


class TestJointCdf:
    """An arm's law of (m, Y), as the table implies it, against a sum over
    K and the shared part U of scipy's size pmf, binomials and Poisson
    pmfs, on laws small enough to sum by brute force."""

    Y_VALUES = 400  # past every y these laws reach with mass above 1e-30

    @pytest.mark.parametrize("sizes, p, rho_s, lam, rho_u", [
        (ClusterSizeModel.discrete_uniform(1, 6), 0.4, 0.2, 2.5, 0.3),
        (ClusterSizeModel.discrete_uniform(1, 6), 0.0, 0.2, 2.5, 0.3),
        (ClusterSizeModel.discrete_uniform(1, 6), 0.4, 0.2, 2.5, 0.0),
        (ClusterSizeModel.discrete_uniform(1, 6), 0.4, 0.2, 2.5, 1.0),
        (ClusterSizeModel.fixed(3), 0.3, 0.5, 4.0, 0.6),
        (ClusterSizeModel.fixed(3), 0.0, 0.0, 0.7, 1.0),
        (ClusterSizeModel.truncated_poisson(3.0, 2, 7), 0.5, 0.05, 1.2, 0.05),
    ], ids=["du1-6", "du1-6-no-zeros", "du1-6-own-only", "du1-6-shared-only", "fixed3",
            "fixed3-no-zeros-shared-only", "trunpois"])
    def test_the_law_is_the_sum_over_k_and_u(self, sizes, p, rho_s, lam, rho_u):
        # nonzero_count_law reads only the design's sizes and rho_s
        design = dataclasses.replace(grid_design(sizes), rho_s=rho_s)
        own, shared = lam * (1.0 - rho_u), lam * rho_u
        y = np.arange(self.Y_VALUES)
        exact = np.zeros((sizes.hi + 1, self.Y_VALUES))
        for m, k, prob in zip(*nonzero_count_law(design, p)):
            if k == 0:
                given_k = (y == 0).astype(float)
            else:
                given_k = np.zeros(self.Y_VALUES)
                for u in range(60):
                    weight = stats.poisson.pmf(u, shared) if shared > 0 else float(u == 0)
                    sums = stats.poisson.pmf(y - k * u, k * own) if own > 0 else (y == k * u)
                    given_k += weight * sums
            exact[m] += prob * given_k
        law = simulate._joint_law(sizes, rho_s, rho_u, p, lam)
        implied = np.zeros_like(exact)
        implied[law.m, law.v] = np.diff(np.ldexp(law.keys, -53), prepend=0.0)
        assert np.abs(implied - exact).max() <= 1e-12


class TestKeyedTable:
    """simulate._entries selects, in each row of a tabulated law, the cell
    np.searchsorted(row, u, side="right") selects in the full law, every
    cell kept, for the tables the draws use."""

    @pytest.mark.parametrize("name", LAWS)
    def test_inversion_is_searchsorted_on_each_row(self, name):
        build, sizes, shared, laws = LAWS[name]
        table = simulate._law_table([build(sizes, *shared, *law) for law in laws])
        rows = [full_law(build, sizes, shared, law) for law in laws]
        assert table.bounds.size == len(rows) + 1
        # the uniforms numpy draws are multiples of 2**-53: 10**6 of them in
        # random rows, then every entry's grid points ceil(F * 2**53) and
        # floor(F * 2**53) and their neighbours in its own row, and the ends
        rng = np.random.default_rng(51)
        u = [rng.random(1_000_000)]
        row = [rng.integers(0, len(rows), 1_000_000)]
        for r, (cdf, _, _) in enumerate(rows):
            scaled = np.ldexp(cdf, 53)
            points = np.concatenate([np.ceil(scaled) + d for d in (-1, 0, 1)] + [np.floor(scaled)])
            points = np.concatenate((points, [0.0, 1.0, 2.0**53 - 1.0]))
            u.append(np.ldexp(np.clip(points, 0.0, 2.0**53 - 1.0), -53))
            row.append(np.full(u[-1].size, r))
        u, row = np.concatenate(u), np.concatenate(row)
        assert u.max() == 1.0 - 2.0**-53 and 2.0**-53 in u and 0.0 in u
        expected = np.empty(u.size, dtype=np.int64)
        order = np.argsort(row, kind="stable")
        bounds = np.searchsorted(row[order], np.arange(len(rows) + 1))
        for r, (cdf, _, _) in enumerate(rows):
            where = order[bounds[r]:bounds[r + 1]]
            expected[where] = np.searchsorted(cdf, u[where], side="right")
        # a table of one law also takes one row for all uniforms
        for rows_given in ([row] if len(rows) > 1 else [row, 0]):
            entry = simulate._entries(table, rows_given, u)
            for r, (_, m, v) in enumerate(rows):
                where = row == r
                assert table.bounds[r] <= entry[where].min() <= entry[where].max() < table.bounds[r + 1]
                np.testing.assert_array_equal(table.m[entry[where]], m[expected[where]])
                np.testing.assert_array_equal(table.v[entry[where]], v[expected[where]])

    @pytest.mark.parametrize("sizes, mu1", [
        (DU_10_80, 5.0), (ClusterSizeModel.discrete_uniform(1, 254), 1.0),
        (ClusterSizeModel.fixed(1), 2.0**59), (ClusterSizeModel.fixed(1), 1e4),
    ], ids=["grid-past-the-bound", "du1-254", "shared-mean-past-the-grid", "passes-past-the-bound"])
    def test_a_joint_law_past_its_bounds_is_not_built(self, sizes, mu1):
        # DU(10,80) at mu1 5 and DU(1,254) have grids past 2**17 cells, a
        # shared part of mean 5.8e16 would alone pass it, and a one-size law
        # at mu1 1e4 would spread its shared part in 560 passes over two rows
        # of 20,279 values, 22.7 million multiply-adds: each is refused
        # before its grid is allocated
        design = dataclasses.replace(grid_design(sizes, rho=0.05), beta1=math.log(mu1))
        tracemalloc.start()
        try:
            assert fresh_joint_law(design, design.control) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the shared part's row at most; a grid would be 1 MB
        clear_law_caches()
        assert engine_table(design)[0] is None

    def test_a_joint_law_of_more_entries_than_the_cap_is_not_built(self, monkeypatch):
        # DU(10,80) at mu1 2.2 fits its grid but keeps more than 2**15 cells;
        # the bundled grid's widest law keeps 23,091, and is refused exactly
        # when the cap is one less
        wide = dataclasses.replace(grid_design(DU_10_80, rho=0.05), beta1=math.log(2.2))
        grid = simulate._joint_cdf(DU_10_80._cells, wide.control.p, 0.05, wide.control.lam, 0.05)
        assert grid is not None
        assert fresh_joint_law(wide, wide.control) is None
        design = grid_design(DU_10_80, rho=0.05)
        assert fresh_joint_law(design, design.control).keys.size == 23_091
        monkeypatch.setattr(simulate, "MAX_SIZE_CELLS", 23_090)
        assert fresh_joint_law(design, design.control) is None

    @pytest.mark.parametrize("sizes", [TRUNPOIS, DU_34_56, DU_10_80], ids=["trunpois", "du34-56", "du10-80"])
    @pytest.mark.parametrize("rho", [0.03, 0.05])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_each_joint_table_answers_most_draws_from_its_guide(self, sizes, rho, q):
        # a uniform goes to the searchsorted when its bucket holds two or
        # more entries, so a row's share of such buckets is the share of
        # its draws that do
        table = engine_table(grid_design(sizes, rho=rho, q=q))[0]
        crowded = (table.guide.reshape(table.bounds.size - 1, -1) < 0).mean(axis=1)
        assert crowded.max() <= 0.05

    @pytest.mark.parametrize("name", ["arm", "arms-stacked", "sums", "sums-stacked"])
    def test_each_arm_draws_from_its_own_law(self, name):
        # a design of two laws draws each arm from its own row, and a design
        # of one law both arms from row 0: a dataset's (m, K) and a study's
        # (m, Y) of each arm are the cell of its arm's full law that the
        # cluster's uniform selects
        design = grid_design(DU_10_80, rho=0.05)
        if not name.endswith("stacked"):
            design = design.under_null()
        if name.startswith("sums"):
            build = simulate._joint_law
            # 40 clusters at r_bar 0.5 draw no tie coin before the uniforms
            arm, (m, v), _ = simulate._draw_replicates(design, 40, np.random.default_rng(5), 64)
        else:
            build = simulate._nonzero_law
            arm = np.random.default_rng(6).integers(0, 2, (64, 40))
            m, v = simulate._draw_nonzero_counts(design, arm, np.random.default_rng(5))
            assert m.dtype == v.dtype == np.int64
        u = np.random.default_rng(5).random(arm.shape)
        shared, laws = law_arguments(build, design)
        for a, law in enumerate(laws):
            cdf, law_m, law_v = full_law(build, DU_10_80, shared, law)
            cell = np.searchsorted(cdf, u[arm == a], side="right")
            np.testing.assert_array_equal(m[arm == a], law_m[cell])
            np.testing.assert_array_equal(v[arm == a], law_v[cell])


class TestAgainstSubjectOracle:
    """generate_trial against the subject-by-subject oracle: in each arm, the
    per-cluster outcome sum, sum of squares and zero count have the same
    mean and variance, within SE_MULTIPLE standard errors."""

    @pytest.mark.parametrize("design", [
        grid_design(rho=0.1),
        grid_design(DU_10_80, rho=0.05, q=0.3),
        grid_design(TRUNPOIS, rho=0.0),
        grid_design(ClusterSizeModel.fixed(20), rho=0.3, p1=0.0, q=0.0),
        # no cells: sizes, shared zeros and K drawn one after the other
        grid_design(ClusterSizeModel.discrete_uniform(1, 400), rho=0.05),
    ], ids=["du34-56", "du10-80", "trunpois-independent", "fixed-no-zeros", "du1-400-above-cap"])
    def test_cluster_statistics(self, design):
        data = generate_trial(design, 10_000, seed=4)
        oracle = subject_trial(design, 10_000, seed=4)
        for statistic in (lambda y: y, lambda y: y * y, lambda y: y == 0):
            got = data.cluster_sums(statistic(data.outcomes))
            expected = oracle.cluster_sums(statistic(oracle.outcomes))
            for a in (0, 1):
                assert_same_moments(got[data.arm == a], expected[oracle.arm == a])

    def test_nonzero_draws_come_first_in_a_cluster(self):
        # each cluster is its K non-zero draws, then its m - K structural zeros
        data = generate_trial(grid_design(DU_10_80), 200, seed=5)
        arms, sizes, nonzero, shared, own = simulate._draw_trial(grid_design(DU_10_80), 200, 5)
        rows = np.split(data.outcomes, np.cumsum(data.size)[:-1])
        parts = [None] * arms.size  # each cluster's own parts, from its arm's
        for a in (0, 1):
            in_arm = np.flatnonzero(arms == a)
            for i, p in zip(in_arm, np.split(own[a], np.cumsum(nonzero[in_arm])[:-1])):
                parts[i] = p
        assert (data.size == sizes).all() and (data.arm == arms).all()
        for y, k, u, p in zip(rows, nonzero, shared, parts):
            assert (y[:k] == p + u).all() and not y[k:].any()


class TestGenerateTrial:
    def test_poisson_subcase_recovers_means(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.0, q=0.0, rho_s=0.03, rho_u=0.03,
            cluster_sizes=DU_34_56,
        )
        data = generate_trial(design, 10**4, seed=11)
        for arm, profile in enumerate((design.control, design.intervention)):
            outcomes = arm_outcomes(data, arm)
            assert outcomes.mean() == pytest.approx(profile.mu, rel=0.01)

    def test_identical_seed_identical_dataset(self, config_a):
        first = generate_trial(config_a, 40, seed=123)
        second = generate_trial(config_a, 40, seed=123)
        assert first == second
        assert first != generate_trial(config_a, 40, seed=124)

    def test_zero_proportion_matches_mixture_mass(self, config_a):
        # ~2300 clusters of ~45 subjects ≈ 1e5 subjects
        data = generate_trial(config_a, 2300, seed=12)
        for arm, profile in enumerate((config_a.control, config_a.intervention)):
            outcomes = arm_outcomes(data, arm)
            target = zero_probability(profile)
            se = math.sqrt(target * (1 - target) / outcomes.size)
            observed = (outcomes == 0).mean()
            assert abs(observed - target) < 3 * se

    def test_balanced_allocation(self, config_a):
        arms = generate_trial(config_a, 20, seed=13).arm
        assert arms.sum() == 10
        # odd count: the extra cluster falls to either arm via a fair draw
        arms = generate_trial(config_a, 19, seed=13).arm
        assert arms.sum() in (9, 10)

    def test_unbalanced_allocation_rounds(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            r_bar=0.3, cluster_sizes=DU_34_56,
        )
        arms = generate_trial(design, 20, seed=14).arm
        assert arms.sum() == 6  # round(20 * 0.3)

    @pytest.mark.parametrize("n, r_bar, counts", [(19, 0.5, {9, 10}), (13, 0.3, {4}), (20, 0.3, {6})])
    def test_a_dataset_and_a_replicate_share_one_count_rule(self, n, r_bar, counts):
        # a dataset's intervention count is the first draw of its stream,
        # and a replicate chunk's counts the first draws of the chunk's
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
                              r_bar=r_bar, cluster_sizes=DU_34_56)
        for seed in range(5):
            rng = simulate.substream(seed, simulate.TRIAL_STREAM_TAG)
            (count,) = simulate._intervention_counts(n, r_bar, rng, 1)
            assert generate_trial(design, n, seed).arm.sum() == count
        drawn = simulate._intervention_counts(n, r_bar, np.random.default_rng(3), 40)
        arm = simulate._draw_replicates(design, n, np.random.default_rng(3), 40)[0]
        np.testing.assert_array_equal(arm.sum(axis=1), drawn)
        assert set(drawn.tolist()) == counts

    def test_bernoulli_allocation(self, config_a):
        data = generate_trial(config_a, 60, seed=15, bernoulli_allocation=True)
        arms = data.arm
        assert 0 < arms.sum() < 60

    def test_empty_arm_rejected(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            r_bar=0.01, cluster_sizes=DU_34_56,
        )
        with pytest.raises(ConfigError, match="empty arm"):
            generate_trial(design, 2, seed=16)

    def test_cluster_sizes_in_support(self, config_a):
        data = generate_trial(config_a, 200, seed=17)
        assert data.size.min() >= 34 and data.size.max() <= 56

    def test_minimum_clusters(self, config_a):
        with pytest.raises(ConfigError):
            generate_trial(config_a, 1, seed=18)


class TestDatasetTypes:
    def test_record_validation(self):
        with pytest.raises(DomainError, match="arm"):
            dataset([(0, 2, [1])])
        with pytest.raises(DomainError, match="at least one outcome"):
            dataset([(0, 0, [])])
        with pytest.raises(DomainError, match="nonnegative"):
            dataset([(0, 0, [-1])])
        with pytest.raises(DomainError, match="sum to"):
            TrialDataset(cluster_id=[0, 1], arm=[0, 1], size=[2, 2], outcomes=[1, 2, 3])
        with pytest.raises(DomainError, match="one entry per cluster"):
            TrialDataset(cluster_id=[0, 1], arm=[0], size=[1, 1], outcomes=[1, 2])
        # two clusters numbered 0 would merge into one on a round trip
        with pytest.raises(DomainError, match="distinct"):
            dataset([
                (0, 0, [1, 2]), (0, 0, [0, 3]), (1, 0, [2, 1]),
                (2, 1, [1, 1]), (3, 1, [0, 2]), (4, 1, [3, 0]),
            ])

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            dataset([])


def python_zeros(data):
    """Each cluster's number of zero outcomes, counted in Python."""
    counts, start = [], 0
    for size in data.size.tolist():
        counts.append(data.outcomes[start:start + size].tolist().count(0))
        start += size
    return counts


class TestClusterZeros:
    def test_match_a_python_count_with_clusters_of_no_nonzero_subject(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.5, rho_u=0.05,
            cluster_sizes=ClusterSizeModel.discrete_uniform(1, 4),
        )
        nonzero = simulate._draw_trial(design, 400, 5)[2]
        assert (nonzero == 0).any()  # clusters with K = 0
        data = generate_trial(design, 400, seed=5)
        zeros = data.cluster_zeros()
        assert zeros.dtype == np.int64
        assert zeros.tolist() == python_zeros(data)

    @pytest.mark.parametrize("wide", [256, 65_536])
    def test_a_count_past_a_narrow_type_counts_in_full(self, wide):
        # 256 and 65,536 zeros overflow a uint8 and a uint16 count
        data = dataset([(0, 0, [0] * wide), (1, 1, [0, 3, 0]), (2, 0, [0] * 255 + [1])])
        assert data.cluster_zeros().tolist() == python_zeros(data) == [wide, 2, 255]

    def test_match_a_python_count_on_a_file_of_interleaved_rows(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("cluster_id,arm,y\n4,0,1\n9,1,0\n4,0,0\n2,1,0\n9,1,0\n4,0,0\n2,1,5\n")
        data = read_dataset(str(path))
        assert data.cluster_zeros().tolist() == python_zeros(data) == [2, 2, 1]


class TestDatasetIO:
    def test_round_trip(self, config_a, tmp_path):
        data = generate_trial(config_a, 30, seed=19)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        loaded = read_dataset(str(path))
        assert loaded.seed is None
        assert loaded == dataclasses.replace(data, seed=None)

    def test_file_format(self, config_a, tmp_path):
        data = generate_trial(config_a, 4, seed=20)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        raw = path.read_bytes()
        assert raw.startswith(b"cluster_id,arm,y\n")
        assert b"\r" not in raw
        assert raw.count(b"\n") == data.n_subjects + 1

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,arm,y\n0,0,1\n")
        with pytest.raises(ConfigError, match="header"):
            read_dataset(str(path))

    def test_arm_flip_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n0,1,2\n")
        with pytest.raises(ConfigError, match="changes arm"):
            read_dataset(str(path))

    def test_negative_outcome_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,-1\n")
        with pytest.raises(ConfigError, match="negative"):
            read_dataset(str(path))

    def test_cluster_id_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n9223372036854775808,1,2\n")
        with pytest.raises(ConfigError, match=":3: cluster id 9223372036854775808 outside"):
            read_dataset(str(path))

    def test_outcome_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,1,9223372036854775808\n")
        with pytest.raises(ConfigError, match=":3: outcome 9223372036854775808 outside"):
            read_dataset(str(path))

    def test_arm_other_than_0_or_1_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,9223372036854775808,2\n")
        with pytest.raises(ConfigError, match=":3: arm must be 0 or 1"):
            read_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n")
        with pytest.raises(ConfigError, match="no data"):
            read_dataset(str(path))

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,1,2\n0,0,3\n1,1,0\n")
        assert read_dataset(str(path)) == dataset([(0, 0, [1, 3]), (1, 1, [2, 0])])

    def test_a_cluster_split_in_two_runs_regroups(self, tmp_path):
        # cluster 7's rows come in two runs around clusters 3 and 5
        path = tmp_path / "split.csv"
        path.write_text("cluster_id,arm,y\n7,1,4\n7,1,0\n3,0,1\n5,0,2\n5,0,0\n7,1,6\n")
        assert read_dataset(str(path)) == dataset(
            [(7, 1, [4, 0, 6]), (3, 0, [1]), (5, 0, [2, 0])]
        )

    def test_bytes_pinned_across_versions(self, tmp_path):
        # simulate.py promises bit-for-bit replay of a seed; the hash pins
        # the bytes this seed produces with GENERATOR_VERSION 7, and changes
        # only together with that version
        assert simulate.GENERATOR_VERSION == 7
        data = generate_trial(grid_design(), 12, seed=2024)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        assert data.n_subjects == 509
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d51553125b8464dd49f4e917f2100065b2c01e45bb475e353b3c6b93db58d757"
        )

    @pytest.mark.parametrize("sizes, n, r_bar, bernoulli, changes, subjects, digest", [
        (DU_34_56, 13, 0.5, False, {}, 589,
         "6dc59f12a7b6715c5da12a7d98f0b9ff2d3f79e9c8e3ced232f3aaff3462346f"),
        (DU_10_80, 13, 0.3, False, {}, 529,
         "afa580dd0f781df443e60c6b83372c5a9292f614676800257bb028ffdc86b1e8"),
        (DU_34_56, 12, 0.5, True, {}, 557,
         "c56d51b8f6626ac4fb09a75fb439815266071e1324a7cf032412ad1e91f144f0"),
        (DU_10_80, 200, 0.3, False, dict(p1=0.9, rho_s=0.3), 9312,
         "94808a051eaf45f78b356bcb884fc13e8117f41ac9a1fe029c7861646adce876"),
        (DU_34_56, 30, 0.5, False, dict(mu1=30.0), 1340,
         "da54b01e050513a63adae33fd993019230e33b5b008a0346312a5d3b44eee344"),
    ], ids=["tie-coin", "r_bar-0.3", "bernoulli", "many-empty-clusters", "mu1-30"])
    def test_arm_layouts_pinned_across_versions(
        self, tmp_path, sizes, n, r_bar, bernoulli, changes, subjects, digest
    ):
        # the layouts N = 12 above never reaches: an odd N draws the tie
        # coin, r_bar 0.3 rounds, and a Bernoulli layout flips a coin per
        # cluster.  Then each arm's own parts: p1 0.9 and rho_s 0.3 leave 26
        # of the 140 control clusters and 12 of the 60 intervention clusters
        # with K = 0, and at mu1 30 both arms' own parts take rng.poisson.
        # Like the hash above, these change only with GENERATOR_VERSION 7.
        design = build_design(**{
            **dict(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
                   r_bar=r_bar, cluster_sizes=sizes),
            **changes,
        })
        data = generate_trial(design, n, seed=2024, bernoulli_allocation=bernoulli)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        assert data.n_subjects == subjects
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    PLAIN = "cluster_id,arm,y\n0,0,1\n1,1,2\n0,0,3\n"

    @pytest.mark.parametrize("text", [
        PLAIN.replace("\n", "\r\n"),
        "cluster_id,arm,y\n\n0,0,1\n\n1,1,2\n0,0,3\n\n",
        " cluster_id , arm , y \n 0 , 0 , 1 \n1 ,1, 2\n0,0 ,3 \n",
        'cluster_id,arm,y\n"0","0","1"\n1,"1",2\n0,0,"3"\n',
        PLAIN.rstrip("\n"),
        "\ufeff" + PLAIN,
    ], ids=["crlf", "blank-lines", "spaces", "quoted", "no-final-newline", "bom"])
    def test_accepted_forms_read_as_the_plain_file(self, tmp_path, text):
        path = tmp_path / "trial.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_dataset(str(path)) == dataset([(0, 0, [1, 3]), (1, 1, [2])])

    @pytest.mark.parametrize("row", ["#x", "0,0,1.0", "0,0", "0,0,1_0", "0,0,1,"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        # Python's int() reads "1_0" as 10; the reader takes plain base-10 integers only
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster_id,arm,y\n0,0,1\n{row}\n1,1,2\n")
        with pytest.raises(ConfigError, match=":3: malformed row"):
            read_dataset(str(path))

    @pytest.mark.parametrize("second_line", ["0,0,1\n", '0,0,"1\n"'], ids=["blank", "quoted-break"])
    def test_line_numbers_are_physical_lines(self, tmp_path, second_line):
        # a blank line, or a line break inside a quoted field, is still a line
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster_id,arm,y\n{second_line}\n1,1,-2\n")
        with pytest.raises(ConfigError, match=r"bad\.csv:4: negative outcome -2"):
            read_dataset(str(path))

    @pytest.fixture(scope="class")
    def large_trial(self):
        data = generate_trial(grid_design(cluster_sizes=DU_10_80), 2000, seed=8)
        ids = np.repeat(data.cluster_id, data.size)
        arms = np.repeat(data.arm, data.size)
        return data, list(zip(ids.tolist(), arms.tolist(), data.outcomes.tolist()))

    def test_shuffled_rows_group_by_first_appearance(self, large_trial, tmp_path):
        rows = list(large_trial[1])
        np.random.default_rng(3).shuffle(rows)
        path = tmp_path / "shuffled.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([("cluster_id", "arm", "y"), *rows])
        grouped = {}  # insertion order is the order of first appearance
        for cid, arm, y in rows:
            grouped.setdefault((cid, arm), []).append(y)
        expected = dataset([(cid, arm, ys) for (cid, arm), ys in grouped.items()])
        assert read_dataset(str(path)) == expected

    def test_bytes_match_a_csv_writer(self, large_trial, tmp_path):
        data, rows = large_trial
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([("cluster_id", "arm", "y"), *rows])
        assert path.read_bytes() == reference.read_bytes()


HEADERS = [
    "cluster_id,arm,y", " cluster_id , arm , y ", '"cluster_id","arm","y"',
    '"cluster_id\n",arm,y', 'cluster_id,"arm\r\n",y', "cluster_id,arm", "cluster,arm,y",
]
FIELD_FORMS = [  # what a field can turn into, besides its plain digits
    " {} ", '"{}"', '"{}\n"', '"{}\r\n"', "+{}", "-{}", "00{}", "{}.0", "{}e3", "#{}", "",
    "{}_0", " ", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "{}5", '"{}"5',
]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_dataset_text(rng):
    """A small dataset CSV, valid or not, in the forms the reader meets.

    Headers with spaces, quotes and quoted line breaks; rows from a few
    cluster ids whose fields may gain spaces, quotes, signs, leading zeros,
    a quoted line break, a float, ``#``, int64 overflow or nothing at all;
    rows with a field too few or too many; blank and space-only lines; LF,
    CRLF and CR line endings, mixed within a file; a byte-order mark.
    """
    noise = rng.choice([0.0, 0.03, 0.15])
    arms = {cid: rng.randrange(2) for cid in range(-2, 6)}
    lines = [rng.choice(HEADERS) if rng.random() < 0.3 else HEADERS[0]]
    for _ in range(rng.randrange(12)):
        cid = rng.randrange(-2, 6)
        arm = arms[cid] if rng.random() >= noise / 2 else rng.choice([1 - arms[cid], 2])
        fields = [str(cid), str(arm), str(rng.randrange(30))]
        for i in range(3):
            if rng.random() < noise:
                fields[i] = rng.choice(FIELD_FORMS).format(fields[i])
        if rng.random() < noise:
            fields = rng.choice([fields[:2], fields + ["1"], fields + [""]])
        lines.append(",".join(fields))
        if rng.random() < noise:
            lines.append(rng.choice(["", "", "  ", "#"]))
    ends = LINE_ENDS if rng.random() < 0.2 else [rng.choice(LINE_ENDS)]
    text = "".join(line + rng.choice(ends) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return ("\ufeff" if rng.random() < 0.1 else "") + text


def read_or_message(read, path):
    """The dataset a reader returns, or the message of its ConfigError."""
    try:
        return read(path)
    except ConfigError as exc:
        return str(exc)


class TestDatasetReading:
    def test_random_files_read_as_the_reference_reads_them(self, tmp_path):
        path = str(tmp_path / "trial.csv")
        outcomes = {"dataset": 0, "error": 0}
        for seed in range(500):
            text = random_dataset_text(random.Random(seed))
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            expected = read_or_message(reference_read_dataset, path)
            assert read_or_message(read_dataset, path) == expected, (seed, text)
            outcomes["error" if isinstance(expected, str) else "dataset"] += 1
        assert min(outcomes.values()) >= 100  # both kinds of file are well represented

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_reads_as_plain_text(self, tmp_path, suffix):
        # numpy picks a decompressor by the extension of a path it is given
        text = "cluster_id,arm,y\n0,0,1\n1,1,2\n0,0,3\n"
        plain, named = tmp_path / "trial.csv", tmp_path / f"trial.csv{suffix}"
        plain.write_text(text, encoding="utf-8")
        named.write_text(text, encoding="utf-8")
        assert read_dataset(str(named)) == read_dataset(str(plain))
        named.write_text(text + "1,1,-2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"trial\\.csv\\{suffix}:5: negative outcome -2"):
            read_dataset(str(named))

    def test_a_relative_path_shaped_like_a_url_is_a_file(self, tmp_path, monkeypatch):
        # numpy takes a string with a scheme and a host for a URL to fetch
        folder = tmp_path / "http:" / "localhost"
        folder.mkdir(parents=True)
        (folder / "trial.csv").write_text("cluster_id,arm,y\n0,0,1\n1,1,2\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert read_dataset("http://localhost/trial.csv") == dataset([(0, 0, [1]), (1, 1, [2])])

    @pytest.mark.parametrize("body, line", NOT_UTF8, ids=["header", "middle", "last"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "trial.csv"
        path.write_bytes(body)
        message = f"trial\\.csv:{line}: not UTF-8 text \\(byte 0xe9\\)"
        with pytest.raises(ConfigError, match=message):
            read_dataset(str(path))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_reads_as_a_file(self):
        # a pipe cannot be opened a second time; its bytes are read once
        with piped(b"cluster_id,arm,y\n0,0,1\n1,1,2\n") as path:
            assert read_dataset(path) == dataset([(0, 0, [1]), (1, 1, [2])])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("body, message", [
        (b"cluster_id,arm,y\n0,0,1\n1,1,-2\n", ":3: negative outcome -2"),
        (b"cluster_id,arm,y\r\n0,0,1\r\n1,1,x\r\n", r":3: malformed row \['1', '1', 'x'\]"),
        (NOT_UTF8[1][0], r":3: not UTF-8 text \(byte 0xe9\)"),
    ], ids=["plain", "crlf", "not-utf8"])
    def test_a_bad_line_read_from_a_pipe_is_named(self, body, message):
        # the error scan reads the bytes the parse read, not the drained pipe
        with piped(body) as path:
            with pytest.raises(ConfigError, match=message):
                read_dataset(path)


@contextlib.contextmanager
def piped(body):
    """A ``/dev/fd`` path that reads ``body`` from a pipe."""
    read_end, write_end = os.pipe()
    os.write(write_end, body)
    os.close(write_end)
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


class TestPlainForm:
    """The chunked byte parse of the form write_dataset writes, at its edges."""

    def test_chunk_cuts_leave_the_bytes_and_the_dataset_as_they_are(self, tmp_path, monkeypatch):
        data = generate_trial(grid_design(cluster_sizes=DU_10_80), 40, seed=3)
        whole = tmp_path / "whole.csv"
        write_dataset(data, str(whole))
        # rows and clusters straddle the cuts of chunks of a few bytes and
        # of a few subjects; 1 byte cuts at every line, 1 subject at every cluster
        for read_bytes, write_subjects in [(1, 1), (7, 5), (61, 33)]:
            monkeypatch.setattr(dataset_io, "_READ_CHUNK_BYTES", read_bytes)
            monkeypatch.setattr(dataset_io, "_WRITE_CHUNK_SUBJECTS", write_subjects)
            path = tmp_path / "chunked.csv"
            write_dataset(data, str(path))
            assert path.read_bytes() == whole.read_bytes()
            assert dataset_io._parse_plain(path.read_bytes()) is not None
            assert read_dataset(str(path)) == reference_read_dataset(str(path))
            assert read_dataset(str(path)) == dataclasses.replace(data, seed=None)

    @pytest.mark.parametrize("read_bytes", [5, dataset_io._READ_CHUNK_BYTES])
    @pytest.mark.parametrize("body, plain", [
        ("999999999999999999,1,123456789012345678\n0,0,1\n5,1,100000000000000000\n", True),
        ("9223372036854775807,1,9223372036854775807\n0,0,1\n", False),
        ("0,0,1\n1,1,2", False),
        ("0,0,1\n1,,2\n", False),
        ("007,0,01\n7,0,000\n10,1,0010\n", True),
        ("0,0,1\n0,2,1\n", True),
        ("-5,0,1\n7,1,2\n-123456789012345678,1,3\n-0,1,4\n-5,0,0\n", False),
        ("0,0,1\n1,1,-2\n", False),
        ("0,-1,1\n", False),
    ], ids=[
        "18-digits", "19-digits", "no-final-lf", "empty-field", "leading-zeros", "arm-2",
        "negative-ids", "negative-outcome", "negative-arm",
    ])
    def test_edge_forms_read_as_the_reference_reads_them(
        self, tmp_path, monkeypatch, read_bytes, body, plain
    ):
        # 18 digits stay below 2**63 and take the byte parse; 19 may not, and
        # go to numpy's reader with every other form, a "-" sign included
        monkeypatch.setattr(dataset_io, "_READ_CHUNK_BYTES", read_bytes)
        path = tmp_path / "trial.csv"
        path.write_bytes(b"cluster_id,arm,y\n" + body.encode("ascii"))
        assert (dataset_io._parse_plain(path.read_bytes()) is not None) == plain
        expected = read_or_message(reference_read_dataset, str(path))
        assert read_or_message(read_dataset, str(path)) == expected


class TestWriterAgainstCsvWriter:
    @pytest.mark.parametrize("rows", [
        [(-(2**63), 0, [0]), (2**63 - 1, 1, [2**63 - 1])],
        [(-5, 1, [0, 0, 0]), (1234567890123456789, 0, [0])],
        [(cid, cid % 2, [cid + 3]) for cid in range(-3, 12)],
        [(7, 0, [10, 9, 100, 0, 99]), (-1, 1, [1000000])],
    ], ids=["int64-limits", "all-zero", "one-subject-clusters", "mixed-widths"])
    def test_bytes_match_a_csv_writer(self, tmp_path, rows):
        path = tmp_path / "trial.csv"
        write_dataset(dataset(rows), str(path))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("cluster_id", "arm", "y"))
            writer.writerows((cid, arm, y) for cid, arm, ys in rows for y in ys)
        assert path.read_bytes() == reference.read_bytes()
        assert read_dataset(str(path)) == dataset(rows)

    @pytest.mark.parametrize("write_subjects", [1, 5, dataset_io._WRITE_CHUNK_SUBJECTS])
    def test_random_files_at_each_packing_boundary(self, tmp_path, monkeypatch, write_subjects):
        # a prefix of 7 to 17 bytes spans one to three 8-byte words, with and
        # without a sign column; the largest outcome has 1 to 4 digits, or 7
        # and 8, which with their LF fill one word and spill into a second
        monkeypatch.setattr(dataset_io, "_WRITE_CHUNK_SUBJECTS", write_subjects)
        rng = random.Random(30)
        cases = [
            (width, signed, top)
            for width in (7, 8, 9, 16, 17)
            for signed in (False, True)
            for top in (0, 9, 999, 1000, 10**7 - 1, 10**8 - 1)
        ]
        for width, signed, top in cases:
            digits = width - 3 - signed
            ids = rng.sample(range(10 ** (digits - 1), 10**digits), 1)  # the widest id
            ids += rng.sample(range(1, 10 ** (digits - 1)), rng.randint(0, 11))
            if signed:  # at least one id negative, and no two equal
                ids = [-cid if rng.random() < 0.5 else cid for cid in ids[:-1]] + [-ids[-1]]
            rows = [
                (cid, rng.randint(0, 1), [rng.randint(0, top) for _ in range(rng.randint(1, 4))])
                for cid in ids
            ]
            rows[-1][2].append(top)
            self.assert_bytes_match_a_csv_writer(tmp_path, rows)
        self.assert_bytes_match_a_csv_writer(tmp_path, [
            (-(2**63), 1, [2**63 - 1, 0]), (2**63 - 1, 0, [10**18]), (-1, 1, [7]), (0, 0, [0]),
        ])

    def assert_bytes_match_a_csv_writer(self, tmp_path, rows):
        path = tmp_path / "trial.csv"
        write_dataset(dataset(rows), str(path))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("cluster_id", "arm", "y"))
        writer.writerows((cid, arm, y) for cid, arm, ys in rows for y in ys)
        assert path.read_bytes() == expected.getvalue().encode("utf-8"), rows
        assert read_dataset(str(path)) == dataset(rows), rows
