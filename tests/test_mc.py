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
    simulate,
    wald_test,
)
from zipcrt.design import poisson_icc_limit
from zipcrt.gee import ESTIMATORS

from conftest import (
    DU_10_80,
    DU_34_56,
    SE_MULTIPLE,
    TRUNPOIS,
    arm_outcomes,
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


def draw_arrays(draws):
    """A study's or a chunk's per-replicate arrays, by name."""
    return {
        "beta2_hat": draws.beta2_hat,
        **{f"sigma2 {name}": array for name, array in draws.sigma2.items()},
        **{f"reject {name}": array for name, array in draws.reject.items()},
    }


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
                got = [chunk.beta2_hat[r], chunk.sigma2["naive"][r], chunk.sigma2["jackknife"][r]]
                assert got == [beta2] + sigma2
                tests = [wald_test(beta2, s, n, reference, 0.05, df) for s in sigma2]
            except ZipCrtError as exc:
                assert chunk.failure[r] == str(exc)
                assert not chunk.reject["naive"][r] and not chunk.reject["jackknife"][r]
                continue
            assert chunk.failure[r] is None
            assert chunk.reject["naive"][r] == tests[0].reject
            assert chunk.reject["jackknife"][r] == tests[1].reject

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
        n = sample_size_t(design).n_clusters
        # a t-sized study of REPS replicates with seed 2
        draws = mc.simulate_study(design, n, self.REPS, 2, n - 2)
        beta2 = draws.beta2_hat[[f is None for f in draws.failure]]
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
        assert not chunk.reject["naive"][failed].any()
        assert not chunk.reject["jackknife"][failed].any()

    def test_a_failed_jackknife_test_leaves_no_naive_decision(self, monkeypatch):
        # clusters of size 49 with one outcome sum per arm: the sandwich
        # variance is a rounding residue above 0 and the Jackknife's exactly
        # 0, so the naive test alone rejects, but the replicate has failed
        arm = np.array([[0, 0, 0, 1, 1, 1]])
        m, y = np.full(arm.shape, 49), 1 + arm
        monkeypatch.setattr(mc, "_draw_clusters", lambda *_: (arm, m, y, np.zeros(1, dtype=bool)))
        chunk = mc._simulate_chunk(grid_design(), 6, 0, 0, 1, "t", 4, 0.05)
        assert chunk.sigma2["naive"][0] > 0.0 and chunk.sigma2["jackknife"][0] == 0.0
        assert wald_test(chunk.beta2_hat[0], chunk.sigma2["naive"][0], 6, "t", 0.05, 4).reject
        assert chunk.failure == ["sigma2_sq must be positive, got 0.0"]
        assert not chunk.reject["naive"][0] and not chunk.reject["jackknife"][0]

    def test_far_tail_cluster_sizes_lose_no_replicate(self):
        # Poisson(45) lands in [90, 100] with probability about 1e-9; the
        # sizer accepts the law, so the ICC and a study must run on it too
        design = grid_design(ClusterSizeModel.truncated_poisson(45.0, 90, 100))
        assert math.isfinite(estimate_poisson_icc(design, seed=1))
        report = run_power_study(
            StudyConfig(design=design, replications=300, use_t_sizing=True, seed=1)
        )
        assert (report.replications, report.replicate_failures) == (300, 0)


def test_multi_chunk_study_does_not_depend_on_chunk_order():
    # three chunks, the last one short; each draws from its own stream, so
    # running them last to first gives the study's counts
    config = StudyConfig(
        design=grid_design(), replications=2 * mc.CHUNK_REPLICATES + 8,
        use_t_sizing=True, seed=3,
    )
    n = sample_size_t(config.design).n_clusters
    chunks = [
        mc._simulate_chunk(config.design, n, config.seed, k, rows, "t", n - 2, 0.05)
        for k, rows in ((2, 8), (1, mc.CHUNK_REPLICATES), (0, mc.CHUNK_REPLICATES))
    ]
    failures = sum(f is not None for chunk in chunks for f in chunk.failure)
    effective = config.replications - failures
    report = run_power_study(config)
    assert report.replicate_failures == failures
    assert report.rejection_rate["naive"] == (
        sum(int(c.reject["naive"].sum()) for c in chunks) / effective
    )
    assert report.rejection_rate["jackknife"] == (
        sum(int(c.reject["jackknife"].sum()) for c in chunks) / effective
    )
    # the keyword stays for callers that pass workers=1, and takes nothing else
    assert run_power_study(config, workers=1) == report
    with pytest.raises(ConfigError, match="workers must be 1, got 2"):
        run_power_study(config, workers=2)


@pytest.mark.parametrize("reference, alpha", [("t", 0.05), ("normal", 0.2)])
def test_study_at_a_chosen_n_is_its_chunks_concatenated(reference, alpha):
    # three chunks, the last one short, at a cluster count the sizing did
    # not choose; the test runs at the design's alpha, against the t
    # distribution when a df is given and the normal when none is
    design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
                          cluster_sizes=DU_34_56, alpha=alpha)
    seed, reps = 3, 2 * mc.CHUNK_REPLICATES + 8
    n = sample_size_t(design).n_clusters - 3
    df = n - 2 if reference == "t" else None
    draws = mc.simulate_study(design, n, reps, seed, df)
    chunks = [
        mc._simulate_chunk(design, n, seed, k, rows, reference, df, alpha)
        for k, rows in enumerate((mc.CHUNK_REPLICATES, mc.CHUNK_REPLICATES, 8))
    ]
    assert list(draws.sigma2) == list(draws.reject) == list(ESTIMATORS)
    for name, array in draw_arrays(draws).items():
        expected = np.concatenate([draw_arrays(chunk)[name] for chunk in chunks])
        assert array.dtype == expected.dtype
        np.testing.assert_array_equal(array, expected)
    assert draws.failure == [f for chunk in chunks for f in chunk.failure]


def test_study_report_is_the_reduction_of_its_draws():
    for null in (True, False):
        config = StudyConfig(
            design=grid_design(), replications=2 * mc.CHUNK_REPLICATES + 8,
            use_t_sizing=True, seed=3, null_hypothesis=null,
        )
        n = sample_size_t(config.design).n_clusters
        generating = config.design.under_null() if null else config.design
        draws = mc.simulate_study(generating, n, config.replications, 3, n - 2)
        assert run_power_study(config) == draws.report(n)


@pytest.mark.parametrize("reps", [0, -1])
def test_a_study_of_no_replicates_is_a_config_error(reps):
    with pytest.raises(ConfigError, match=f"replications must be >= 1, got {reps}"):
        mc.simulate_study(grid_design(), 20, reps, 0, 18)


@pytest.mark.parametrize("null", [False, True], ids=["alternative", "null"])
def test_a_cold_arm_law_cache_gives_the_warm_study(null):
    design = grid_design(DU_10_80, rho=0.05)
    if null:
        design = design.under_null()
    study = functools.partial(mc.simulate_study, design, 30, mc.CHUNK_REPLICATES + 8, 5, 28)
    simulate._arm_cdf.cache_clear()
    cold = study()
    hits = simulate._arm_cdf.cache_info().hits
    warm = study()
    assert simulate._arm_cdf.cache_info().hits > hits
    for name, array in draw_arrays(warm).items():
        np.testing.assert_array_equal(array, draw_arrays(cold)[name])
    assert warm.failure == cold.failure


def test_each_arm_law_is_built_once_per_process(monkeypatch):
    # two studies of three chunks each, then a dataset: the alternative's two
    # arm laws are built once, and the null's arms share the control's
    built = []

    def counted(cells, p, rho_s):
        built.append((p, rho_s))
        return fresh(cells, p, rho_s)

    fresh = simulate._nonzero_cdf
    monkeypatch.setattr(simulate, "_nonzero_cdf", counted)
    simulate._arm_cdf.cache_clear()
    design = grid_design(DU_10_80, rho=0.05)
    for generating in (design, design.under_null()):
        mc.simulate_study(generating, 30, 2 * mc.CHUNK_REPLICATES + 8, 3, 28)
    generate_trial(design, 30, 1)
    simulate._arm_cdf.cache_clear()  # keep no entry the stand-in built
    assert built == [(design.control.p, 0.05), (design.intervention.p, 0.05)]


def test_a_table_walk_keeps_the_arm_law_cache_within_its_bound():
    mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    info = simulate._arm_cdf.cache_info()
    assert info.maxsize == 64 and 0 < info.currsize <= info.maxsize


def test_a_table_walk_builds_each_arm_law_once():
    # table1 then table2 use 36 keys, 6 control arms and 30 intervention
    # arms; a bound of 32 evicted them cyclically, so table2 rebuilt 30
    simulate._arm_cdf.cache_clear()
    mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    assert simulate._arm_cdf.cache_info().misses == 36


def test_seeded_study_rates_pinned_across_versions():
    # the study streams are pinned apart from the engine version, which also
    # moves when only the ICC's draws change: this hash holds from engine
    # version 5 on and changes only when a study's draws do
    reports = mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    text = "".join(report.to_text() for report in reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "0d789de30759ed9f67c6b29ea3ef08dafe92ea7a4116a266cf17d220ff7fa85c"
    )


def test_seeded_icc_table_pinned():
    # the ICC table's rows and their dataset seeds
    text = mc.reproduce_tables(["table3-icc"], 0, seed=4)[0].to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "20dec6cebb9f41750d09093f05c9cc2e9f614d25e3f3b63ac1814188c83f18d4"
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
        mu_by_arm = (arm_outcomes(data, 0).mean(), arm_outcomes(data, 1).mean())
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

    def test_a_large_mean_is_near_the_limit(self):
        # the cluster sums of y**2 passed 2**63 and wrapped in int64: -0.111
        design = build_design(mu1=1e9, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                              cluster_sizes=DU_34_56)
        # about 5 SD of an estimate at 2,000 clusters (SD 0.0018 over 30 seeds)
        assert abs(estimate_poisson_icc(design, 2_000, 1) - poisson_icc_limit(design)) <= 0.01

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
    """estimate_poisson_icc fails with generate_trial's and fit_zip's errors,
    and a study with generate_trial's seed check."""

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

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_study_seed_out_of_range(self, seed):
        # 2**64 ran silently and -1 raised numpy's bare ValueError
        design = grid_design()
        expected = raised(generate_trial, design, 10, seed)
        assert raised(run_power_study, StudyConfig(design, 10, seed=seed)) == expected

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
