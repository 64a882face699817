"""Tests for Monte Carlo studies: the cluster-sum engine against the fit, the
simulator and the design variance; which replicates fail, and why; the
Poisson-model ICC."""

import functools
import hashlib
import math

import numpy as np
import pytest

from zipcrt import (
    ClusterSizeModel,
    ConfigError,
    DomainError,
    EstimationError,
    StudyConfig,
    TrialDataset,
    ZipCrtError,
    build_design,
    design_variance,
    estimate_poisson_icc,
    fit_zip,
    generate_trial,
    mc,
    pairwise_covariance_factor,
    run_power_study,
    sample_size_t,
    wald_test,
)
from zipcrt.design import poisson_icc_limit

from conftest import (
    DU_10_80,
    DU_34_56,
    SE_MULTIPLE,
    TRUNPOIS,
    assert_same_moments,
    cluster_rows,
    cluster_sum_moments,
    grid_design,
    subject_trial,
)


def engine_draws(design, n_clusters, seed, chunk, rows):
    """The arm, size and outcome-sum arrays that one engine chunk tests."""
    rng = np.random.default_rng([seed, mc.STREAM_TAG, chunk])
    return mc._draw_clusters(design, n_clusters, rng, rows)[:3]


# (design, clusters, reference, df): the two reference laws at
# their t-sized N, then small trials whose replicates fail in every way a
# fit or a test can: an all-zero arm, a deletion that empties an arm or
# leaves it all-zero, a zero variance, and no degrees of freedom
GATE_CASES = {
    "du34-56": (grid_design(DU_34_56, rho=0.05), 28, "t", 26),
    "trunpois": (grid_design(TRUNPOIS, rho=0.05), 30, "normal", None),
    "fixed-sparse": (
        build_design(mu1=0.3, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                     cluster_sizes=ClusterSizeModel.fixed(2)),
        6, "t", 4,
    ),
    "fixed-tiny": (
        build_design(mu1=0.7, beta2=-0.431, p1=0.0, q=0.0, rho_s=0.0, rho_u=0.0,
                     cluster_sizes=ClusterSizeModel.fixed(1)),
        4, "t", 0,
    ),
    "du-three": (grid_design(ClusterSizeModel.discrete_uniform(1, 3), rho=0.05), 3, "t", 1),
    "du-two": (grid_design(ClusterSizeModel.discrete_uniform(1, 3), rho=0.05), 2, "t", 0),
}


class TestEngineMatchesFit:
    """The exactness gate: a chunk's statistics are fit_zip's and wald_test's."""

    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_chunk_equals_fit_of_each_replicate(self, case):
        design, n, reference, df = GATE_CASES[case]
        seed, rows = 17, mc.CHUNK_REPLICATES
        chunk = mc._simulate_chunk(design, n, seed, 0, rows, reference, df, 0.05)
        arm, m, y = engine_draws(design, n, seed, 0, rows)
        for r in range(rows):
            # Y_i on the cluster's first subject and 0 on the others
            starts = np.cumsum(m[r]) - m[r]
            column = np.zeros(int(m[r].sum()), dtype=np.int64)
            column[starts] = y[r]
            data = TrialDataset(np.arange(n), arm[r].astype(np.int64), m[r], column)
            try:
                fit = fit_zip(data)
                beta2 = float(fit.beta_hat[1])
                sigma2 = [fit.sigma2_sq(e) for e in ("naive", "jackknife")]
                got = [chunk.beta2_hat[r], chunk.sigma2_naive[r], chunk.sigma2_jackknife[r]]
                assert got == [beta2] + sigma2
                tests = [wald_test(beta2, s, n, reference, 0.05, df) for s in sigma2]
            except ZipCrtError as exc:
                assert chunk.failure[r] == str(exc)
                assert not chunk.reject_naive[r] and not chunk.reject_jackknife[r]
                continue
            assert chunk.failure[r] is None
            assert chunk.reject_naive[r] == tests[0].reject
            assert chunk.reject_jackknife[r] == tests[1].reject

    def test_gate_cases_reach_every_fit_and_test_failure(self):
        kinds = {
            "control arm has all-zero", "intervention arm has all-zero",
            "jackknife needs", "empties arm", "leaves all-zero outcomes in arm",
            "sigma2_sq must be positive", "t quantile needs",
        }
        seen = set()
        for design, n, reference, df in GATE_CASES.values():
            chunk = mc._simulate_chunk(design, n, 17, 0, mc.CHUNK_REPLICATES, reference, df, 0.05)
            seen.update(k for k in kinds for f in chunk.failure if f is not None and k in f)
        assert seen == kinds

    def test_allocation_failure_matches_generate_trial(self):
        # 4 * 0.125 = 0.5 clusters: a fair draw gives the intervention 0 or 1
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                              r_bar=0.125, cluster_sizes=DU_34_56)
        expected = set()
        for seed in range(20):
            try:
                generate_trial(design, 4, seed)
            except ZipCrtError as exc:
                expected.add(str(exc))
        chunk = mc._simulate_chunk(design, 4, 3, 0, 64, "normal", None, 0.05)
        messages = [f for f in chunk.failure if f is not None and "allocation" in f]
        assert expected == set(messages) == {"allocation left an empty arm (n=4, r_bar=0.125)"}
        assert 0 < len(messages) < 64


# The distribution gates' cells: clusters of fixed size FIXED_SIZE, on the
# grid, with no structural zeros, and with no within-cluster correlation
FIXED_SIZE = 30
FIXED_CELLS = {
    "grid": dict(rho=0.05), "p1=0": dict(rho=0.05, p1=0.0, q=0.0), "rho=0": dict(rho=0.0),
}


@functools.lru_cache(maxsize=None)
def fixed_size_trial(cell):
    """A cell's design, and a subject_trial dataset of it with 4,000 clusters per arm."""
    design = grid_design(ClusterSizeModel.fixed(FIXED_SIZE), **FIXED_CELLS[cell])
    return design, subject_trial(design, 8000, 5)


class TestClusterSums:
    """The distribution gate: the engine's Y_i given m_i against the closed
    forms and against the cluster sums of the subject-by-subject oracle."""

    @pytest.mark.parametrize("cell", FIXED_CELLS)
    def test_mean_and_variance(self, cell):
        design, data = fixed_size_trial(cell)
        m = FIXED_SIZE
        arm, _, y = engine_draws(design, 40, 5, 0, 500)  # 10,000 clusters per arm
        trial_sums = data.cluster_sums(data.outcomes)
        for a, profile in enumerate((design.control, design.intervention)):
            odds = profile.p / (1.0 - profile.p)
            mean = m * profile.mu
            var = m * profile.mu * (1.0 + odds * profile.mu) + m * (m - 1) * (
                pairwise_covariance_factor(profile, design.rho_s, design.rho_u)
            )
            sums = y[arm == a].astype(float)
            got = cluster_sum_moments(sums)
            assert abs(got[0] - mean) <= SE_MULTIPLE * math.sqrt(var / sums.size)
            assert abs(got[2] - var) <= SE_MULTIPLE * got[3]
            assert_same_moments(sums, trial_sums[data.arm == a])


class TestCalibration:
    """Smoke test of the sizing formula against simulation, on 3 reference cells."""

    REPS = 20_000
    # MC error of a variance ratio is about sqrt(2 / L); 0.05 is the allowance
    # for the formula being asymptotic.  The bound comes from these two, not
    # from observed ratios.
    BOUND = 0.05 + 4.0 * math.sqrt(2.0 / REPS)

    @pytest.mark.parametrize("sizes", [TRUNPOIS, DU_34_56, DU_10_80],
                             ids=["trunpois", "du34-56", "du10-80"])
    def test_variance_ratio(self, sizes):
        design = mc.reference_design(sizes, 0.05, 0.5)
        config = StudyConfig(design=design, replications=self.REPS, use_t_sizing=True, seed=2)
        n = sample_size_t(design).n_clusters
        chunks = [mc._simulate_chunk(*a) for a in mc._chunk_args(config, n)]
        beta2 = np.concatenate([
            c.beta2_hat[[f is None for f in c.failure]] for c in chunks
        ])
        assert beta2.size == self.REPS
        ratio = n * beta2.var(ddof=1) / design_variance(design)
        assert abs(ratio - 1.0) <= self.BOUND


class TestReplicateFailures:
    @pytest.mark.parametrize("null", [True, False], ids=["type-i", "power"])
    def test_rare_zero_design_loses_no_replicate(self, null):
        # few structural zeros: many arms' p_hat solve to the boundary 0,
        # which no Wald decision depends on (the engine never forms it)
        design = grid_design(rho=0.03, p1=0.05, q=0.1)
        report = run_power_study(
            StudyConfig(
                design=design, replications=20, use_t_sizing=True, seed=11,
                null_hypothesis=null,
            )
        )
        assert report.n_clusters_used == 15
        assert report.replicate_failures == 0
        generating = design.under_null() if null else design
        fits = [fit_zip(generate_trial(generating, 15, seed)) for seed in range(20)]
        assert any(0.0 in fit.p_hat for fit in fits)

    def test_all_zero_arm_fails_its_replicate(self):
        # a mean of 0.01 over 4 subjects per arm leaves an arm all-zero
        design = build_design(
            mu1=0.01, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            cluster_sizes=ClusterSizeModel.fixed(2),
        )
        chunk = mc._simulate_chunk(design, 4, 0, 0, mc.CHUNK_REPLICATES, "t", 2, 0.05)
        error = "intervention arm has all-zero outcomes; log-mean undefined"
        failed = [r for r, f in enumerate(chunk.failure) if f == error]
        assert failed
        assert not chunk.reject_naive[failed].any()
        assert not chunk.reject_jackknife[failed].any()

    def test_far_tail_cluster_sizes_lose_no_replicate(self):
        # Poisson(45) lands in [90, 100] with probability about 1e-9; the
        # sizer accepts the law, so the ICC and a study must run on it too
        design = grid_design(ClusterSizeModel.truncated_poisson(45.0, 90, 100))
        assert math.isfinite(estimate_poisson_icc(design, seed=1))
        report = run_power_study(
            StudyConfig(design=design, replications=300, use_t_sizing=True, seed=1)
        )
        assert (report.replications, report.replicate_failures) == (300, 0)


class TestWorkers:
    def test_two_workers_give_the_same_report(self):
        # more than two chunks, so the pool really splits the study
        config = StudyConfig(
            design=grid_design(), replications=2 * mc.CHUNK_REPLICATES + 8,
            use_t_sizing=True, seed=3,
        )
        assert len(mc._chunk_args(config, 28)) == 3
        assert run_power_study(config, workers=2) == run_power_study(config, workers=1)


def test_seeded_study_rates_pinned_across_versions():
    # the study streams are pinned apart from the engine version, which also
    # moves when only the ICC's draws change: this hash holds from engine
    # version 4 on and changes only when a study's draws do
    reports = mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    text = "".join(report.to_text() for report in reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "f5828ceebb1fc4cea535268ba8f011192f666f8fd97133ec8801ad862dff6383"
    )


def icc_draws(design, n_clusters, seed):
    """The per-cluster arm, size, sum of y and sum of y**2 that estimate_poisson_icc uses."""
    return mc._draw_icc_sums(design, n_clusters, seed)


class TestPoissonIcc:
    @pytest.mark.parametrize("sizes", [DU_10_80, TRUNPOIS], ids=["du10-80", "trunpois"])
    def test_equals_residual_loop(self, sizes):
        # the statistic works from per-cluster sums of y and y**2; the loop
        # forms every Pearson residual, so the two differ only in rounding
        design = grid_design(cluster_sizes=sizes, rho=0.05)
        data = generate_trial(design, 500, seed=7)
        mu_by_arm = (data.arm_outcomes(0).mean(), data.arm_outcomes(1).mean())
        pair_sum = pair_count = square_sum = 0.0
        for _, arm, y in cluster_rows(data):
            e = (y - mu_by_arm[arm]) / math.sqrt(mu_by_arm[arm])
            pair_sum += (e.sum() ** 2 - (e * e).sum()) / 2.0
            pair_count += y.size * (y.size - 1) / 2.0
            square_sum += (e * e).sum()
        expected = (pair_sum / pair_count) / (square_sum / data.n_subjects)
        got = mc._poisson_icc(
            data.arm, data.size, data.cluster_sums(data.outcomes),
            data.cluster_sums(data.outcomes * data.outcomes),
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_statistic_of_the_draws(self):
        design = grid_design(cluster_sizes=DU_10_80, rho=0.05)
        expected = mc._poisson_icc(*icc_draws(design, 500, 7))
        assert estimate_poisson_icc(design, 500, seed=7) == expected

    @pytest.mark.parametrize("sizes", [TRUNPOIS, DU_34_56, DU_10_80],
                             ids=["trunpois", "du34-56", "du10-80"])
    def test_statistic_of_generate_trial(self, sizes):
        # the same draws as the dataset, reduced to integer cluster sums, so
        # the two values are equal, not close
        design = grid_design(cluster_sizes=sizes, rho=0.05)
        for seed in (0, 1, 2**64 - 1):
            data = generate_trial(design, 300, seed)
            expected = mc._poisson_icc(
                data.arm, data.size, data.cluster_sums(data.outcomes),
                data.cluster_sums(data.outcomes * data.outcomes),
            )
            assert estimate_poisson_icc(design, 300, seed) == expected

    # ICC_TOL_10K of the benchmark harness: about 5 SD of an estimate at
    # 10,000 clusters, fixed before any run
    LIMIT_TOL = 0.008

    @pytest.mark.parametrize("sizes", [DU_34_56, DU_10_80], ids=["du34-56", "du10-80"])
    def test_near_the_large_sample_limit(self, sizes):
        for rho in (0.03, 0.05):
            for q in (0.3, 0.4, 0.5, 0.6, 0.7):
                design = mc.reference_design(sizes, rho, q)
                limit = poisson_icc_limit(design)
                for seed in range(3):
                    value = estimate_poisson_icc(design, 10_000, seed)
                    assert abs(value - limit) <= self.LIMIT_TOL, (rho, q, seed)


class TestIccSums:
    """The distribution gate of the ICC engine: each cluster's Y_i and sum of
    y**2 given m_i against the cluster sums of the subject-by-subject oracle."""

    @pytest.mark.parametrize("cell", FIXED_CELLS)
    def test_mean_and_variance(self, cell):
        design, data = fixed_size_trial(cell)
        arm, m, y, ysq = icc_draws(design, 20_000, 5)  # 10,000 clusters per arm
        assert (m == FIXED_SIZE).all()
        trial_y = data.cluster_sums(data.outcomes)
        trial_ysq = data.cluster_sums(data.outcomes * data.outcomes)
        for a, profile in enumerate((design.control, design.intervention)):
            assert np.count_nonzero(arm == a) == 10_000
            # E[y**2] = Var(y) + mu**2, per subject
            mean_sq = profile.mu * (1.0 + profile.mu / (1.0 - profile.p))
            got = cluster_sum_moments(ysq[arm == a].astype(float))
            assert abs(got[0] - FIXED_SIZE * mean_sq) <= SE_MULTIPLE * got[1]
            got = cluster_sum_moments(y[arm == a].astype(float))
            assert abs(got[0] - FIXED_SIZE * profile.mu) <= SE_MULTIPLE * got[1]
            assert_same_moments(y[arm == a], trial_y[data.arm == a])
            assert_same_moments(ysq[arm == a], trial_ysq[data.arm == a])


ARM_NAMES = ("control", "intervention")


def raised(call, *args):
    """The type and message of the ZipCrtError a call raises."""
    with pytest.raises(ZipCrtError) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


class TestIccFailures:
    """estimate_poisson_icc fails with generate_trial's and fit_zip's errors."""

    def test_too_few_clusters(self):
        design = grid_design()
        assert raised(estimate_poisson_icc, design, 1, 0) == raised(generate_trial, design, 1, 0)

    def test_empty_arm(self):
        # round(3 * 0.1) = 0 clusters receive the intervention
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                              r_bar=0.1, cluster_sizes=DU_34_56)
        expected = raised(generate_trial, design, 3, 0)
        assert expected[0] is ConfigError
        assert raised(estimate_poisson_icc, design, 3, 0) == expected

    def test_seed_out_of_range(self):
        design = grid_design()
        expected = raised(generate_trial, design, 10, 2**64)
        assert expected[0] is DomainError
        assert raised(estimate_poisson_icc, design, 10, 2**64) == expected
        assert raised(estimate_poisson_icc, design, 10, -1) == raised(generate_trial, design, 10, -1)

    # a seed gives a nonzero control arm and an all-zero intervention arm
    # with probability about 0.04, so 200 seeds miss it with probability
    # about 4e-4 for each generator
    ALL_ZERO_SEEDS = 200

    def test_all_zero_arm(self):
        # a mean of 0.01 over 4 subjects per arm leaves an arm all-zero.  The
        # control arm is checked first, so the intervention arm's message
        # needs a dataset whose control arm has a nonzero outcome.
        design = build_design(
            mu1=0.01, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            cluster_sizes=ClusterSizeModel.fixed(2),
        )

        def trial_sums(seed):
            data = generate_trial(design, 4, seed)
            return data.arm, data.cluster_sums(data.outcomes)

        def icc_sums(seed):
            arm, _, y, _ = icc_draws(design, 4, seed)
            return arm, y

        for sums, call in (
            (trial_sums, lambda seed: fit_zip(generate_trial(design, 4, seed))),
            (icc_sums, lambda seed: estimate_poisson_icc(design, 4, seed)),
        ):
            # the scenario: within ALL_ZERO_SEEDS seeds, a dataset whose first
            # all-zero arm is the control arm and one where it is the intervention arm
            seed_of = {}
            for seed in range(self.ALL_ZERO_SEEDS):
                arm, y = sums(seed)
                name = next((n for a, n in enumerate(ARM_NAMES) if not y[arm == a].any()), None)
                if name is not None:
                    seed_of.setdefault(name, seed)
            assert set(seed_of) == set(ARM_NAMES)
            for name, seed in seed_of.items():
                with pytest.raises(EstimationError) as exc:
                    call(seed)
                assert str(exc.value) == f"{name} arm has all-zero outcomes; log-mean undefined"

    def test_no_within_cluster_pairs(self):
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                              cluster_sizes=ClusterSizeModel.fixed(1))
        assert raised(estimate_poisson_icc, design, 200, 0) == (
            EstimationError, "no within-cluster pairs: all clusters have size 1",
        )
