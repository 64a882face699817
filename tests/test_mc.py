"""Tests for Monte Carlo studies: the cluster-sum engine against the fit, the
simulator and the design variance; which replicates fail, and why; the
Poisson-model ICC."""

import functools
import hashlib
import itertools
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
    sample_size_normal,
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
    engine_table,
    grid_design,
    subject_trial,
)


def engine_draws(design, n_clusters, seed, chunk, rows):
    """The arm, size and outcome-sum arrays that one engine chunk tests."""
    rng = np.random.default_rng([seed, mc.STREAM_TAG, chunk])
    arm, my, _ = simulate._draw_replicates(design, n_clusters, rng, rows)
    return (arm, *my.astype(np.int64))


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
        chunk = mc._simulate_chunk(design, n, seed, 0, rows, df)
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
            chunk = mc._simulate_chunk(design, n, 17, 0, mc.CHUNK_REPLICATES, df)
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
        chunk = mc._simulate_chunk(design, 4, 3, 0, 64, None)
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


# (arm, m_i, Y_i) of six-cluster rows that no check fails; the second is a
# strong effect that both estimators' tests reject
CLEAN_ROWS = [
    ([0, 0, 0, 1, 1, 1], [3, 4, 5, 2, 6, 3], [2, 0, 5, 1, 4, 3]),
    ([0, 0, 0, 1, 1, 1], [5, 5, 5, 5, 5, 5], [1, 2, 1, 9, 8, 9]),
    ([1, 0, 1, 0, 0, 1], [2, 7, 1, 4, 3, 9], [0, 3, 1, 2, 2, 7]),
]
# a row for each message a fit or a Wald test gives a row that fails alone
LONE_FAILURES = {
    "both arms must be present in the data": ([0] * 6, [3] * 6, [1] * 6),
    "control arm has all-zero outcomes; log-mean undefined": (
        [0, 0, 0, 1, 1, 1], [3] * 6, [0, 0, 0, 1, 2, 3],
    ),
    "intervention arm has all-zero outcomes; log-mean undefined": (
        [0, 0, 0, 1, 1, 1], [3] * 6, [1, 2, 3, 0, 0, 0],
    ),
    # the sandwich's test alone would reject this row
    "removing cluster 5 empties arm 1": ([0, 0, 0, 0, 0, 1], [3] * 6, [1, 2, 1, 2, 1, 30]),
    "removing cluster 1 leaves all-zero outcomes in arm 0": (
        [0, 0, 0, 1, 1, 1], [3] * 6, [0, 4, 0, 1, 2, 3],
    ),
    # each arm's clusters share one mean, so both variances are exactly 0
    "sigma2_sq must be positive, got 0.0": (
        [0, 0, 0, 1, 1, 1], [2, 2, 2, 4, 4, 4], [1, 1, 1, 2, 2, 2],
    ),
}


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
        chunk = mc._simulate_chunk(design, 4, 0, 0, mc.CHUNK_REPLICATES, 2)
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
        my = np.array((np.full(arm.shape, 49), 1 + arm), dtype=np.float64)
        monkeypatch.setattr(mc, "_draw_replicates", lambda *_: (arm, my, np.zeros(1, dtype=bool)))
        chunk = mc._simulate_chunk(grid_design(), 6, 0, 0, 1, 4)
        assert chunk.sigma2["naive"][0] > 0.0 and chunk.sigma2["jackknife"][0] == 0.0
        assert wald_test(chunk.beta2_hat[0], chunk.sigma2["naive"][0], 6, "t", 0.05, 4).reject
        assert chunk.failure == ["sigma2_sq must be positive, got 0.0"]
        assert not chunk.reject["naive"][0] and not chunk.reject["jackknife"][0]

    def test_a_row_fails_with_the_message_of_its_first_failing_test(self, monkeypatch):
        # both estimators' Wald tests are one pass; a row whose Jackknife
        # variance alone is not positive takes the Jackknife's message, and
        # a row where both are not takes the naive test's, as one wald_test
        # per estimator in ESTIMATORS order would raise; a failed row keeps
        # no decision under either estimator
        log_mean = np.array([[0.0, -0.9]] * 3)
        terms = np.array([
            [[0.01, 0.02], [0.01, 0.02], [0.0, 0.0]],  # naive
            [[0.01, 0.02], [-0.5, 0.0], [-1.0, 0.0]],  # jackknife
        ])
        monkeypatch.setattr(mc, "_fit_rows", lambda *_: (None, None, log_mean, terms))
        chunk = mc._simulate_chunk(grid_design(), 6, 0, 0, 3, 4)
        assert chunk.failure == [
            None, "sigma2_sq must be positive, got -3.0", "sigma2_sq must be positive, got 0.0",
        ]
        assert wald_test(-0.9, chunk.sigma2["naive"][1], 6, "t", 0.05, 4).reject
        assert chunk.reject["naive"].tolist() == chunk.reject["jackknife"].tolist() == [True, False, False]

    @pytest.mark.parametrize("message", list(LONE_FAILURES))
    def test_a_lone_failing_row_fails_alone(self, message, monkeypatch):
        # the checks run only when some row of the chunk can fail: then the
        # failing row gets its message and the clean rows keep the values
        # and decisions they have when tested on their own
        def chunk_of(rows):
            arm, m, y = (np.array(part) for part in zip(*rows))
            my = np.array((m, y), dtype=np.float64)
            empty = np.zeros(len(rows), dtype=bool)
            monkeypatch.setattr(mc, "_draw_replicates", lambda *_: (arm, my, empty))
            return mc._simulate_chunk(grid_design(), 6, 0, 0, len(rows), 4)

        chunk = chunk_of([*CLEAN_ROWS[:2], LONE_FAILURES[message], CLEAN_ROWS[2]])
        assert chunk.failure == [None, None, message, None]
        assert not chunk.reject["naive"][2] and not chunk.reject["jackknife"][2]
        assert chunk.reject["naive"][1] and chunk.reject["jackknife"][1]
        for r, row in zip((0, 1, 3), CLEAN_ROWS):
            alone = chunk_of([row])
            assert alone.failure == [None]
            for name, array in draw_arrays(alone).items():
                assert draw_arrays(chunk)[name][r] == array[0]

    @pytest.mark.parametrize("n_clusters", [0, 1])
    def test_fewer_than_2_clusters_fail_every_replicate(self, n_clusters):
        # 0 clusters once raised a bare ZeroDivisionError from the Jackknife's
        # (N - 2) / N; the draws are (R, 0) arrays then
        reps = mc.CHUNK_REPLICATES + 4
        draws = mc.simulate_study(grid_design(), n_clusters, reps, 3, 18)
        assert draws.failure == [f"need at least 2 clusters, got {n_clusters}"] * reps
        assert draws.beta2_hat.shape == (reps,)
        assert not any(reject.any() for reject in draws.reject.values())
        arm, m, y = engine_draws(grid_design(), n_clusters, 3, 0, 5)
        assert arm.shape == m.shape == y.shape == (5, n_clusters)

    def test_two_clusters_with_an_empty_arm_fail_without_a_warning(self):
        # r_bar 0.125 puts both of 2 clusters in the control arm, and at a
        # mean of 0.05 a cluster's deletion often leaves the arm all-zero,
        # so its sum of squared deviations is inf: times the Jackknife's
        # factor (N - 2) / N = 0 that warns unless numpy is told not to,
        # and a RuntimeWarning is an error here
        design = build_design(
            mu1=0.05, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05, r_bar=0.125,
            cluster_sizes=ClusterSizeModel.discrete_uniform(1, 6),
        )
        draws = mc.simulate_study(design, 2, 40, 3, None)
        assert draws.failure == [simulate._empty_arm_message(2, 0.125)] * 40
        assert not any(reject.any() for reject in draws.reject.values())

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
        mc._simulate_chunk(config.design, n, config.seed, k, rows, n - 2)
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
        mc._simulate_chunk(design, n, seed, k, rows, df)
        for k, rows in enumerate((mc.CHUNK_REPLICATES, mc.CHUNK_REPLICATES, 8))
    ]
    assert list(draws.sigma2) == list(draws.reject) == list(ESTIMATORS)
    for name, array in draw_arrays(draws).items():
        expected = np.concatenate([draw_arrays(chunk)[name] for chunk in chunks])
        assert array.dtype == expected.dtype
        np.testing.assert_array_equal(array, expected)
    assert draws.failure == [f for chunk in chunks for f in chunk.failure]


def test_study_seconds_sum_its_chunks_layer_times(monkeypatch):
    # a clock that advances by 1 at each read: every layer of every chunk
    # takes 1, and a study of three chunks 3
    monkeypatch.setattr(mc.time, "perf_counter", functools.partial(next, itertools.count()))
    config = StudyConfig(
        design=grid_design(), replications=2 * mc.CHUNK_REPLICATES + 8, use_t_sizing=True, seed=3,
    )
    assert run_power_study(config).seconds == {"draw": 3, "fit": 3, "wald": 3}
    n = sample_size_t(config.design).n_clusters
    assert mc.simulate_study(config.design, n, 8, 3, None).seconds == {"draw": 1, "fit": 1, "wald": 1}


def test_a_table_sums_its_studies_layer_times(monkeypatch):
    # the clock above: each one-chunk study takes 1 a layer, and table1's 30
    # rows run a null and an alternative study each
    monkeypatch.setattr(mc.time, "perf_counter", functools.partial(next, itertools.count()))
    table1, icc = mc.reproduce_tables(["table1", "table3-icc"], 8, seed=4)
    assert table1.seconds == {"draw": 60, "fit": 60, "wald": 60}
    assert icc.seconds == mc.reproduce_tables(["table1"], 0, seed=4)[0].seconds == {}


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


@pytest.mark.parametrize("null", [True, False], ids=["null", "alternative"])
def test_a_study_is_its_draws_at_the_t_size(null, monkeypatch):
    # a null config draws from a design equal to design.under_null(), at
    # the alternative's t-sized cluster count
    design = grid_design(DU_10_80, rho=0.05)
    config = StudyConfig(design=design, replications=40, use_t_sizing=True, seed=3, null_hypothesis=null)
    n = sample_size_t(design).n_clusters
    generating = design.under_null() if null else design
    expected = mc.simulate_study(generating, n, 40, 3, n - 2).report(n)
    calls = []
    study = mc.simulate_study
    monkeypatch.setattr(mc, "simulate_study", lambda *args: calls.append(args) or study(*args))
    assert run_power_study(config) == expected
    assert calls == [(generating, n, 40, 3, n - 2)]


def test_a_design_that_cannot_be_sized_raises_before_drawing(monkeypatch):
    monkeypatch.setattr(mc, "simulate_study", None)
    config = StudyConfig(design=grid_design(beta2=0.0), replications=10, use_t_sizing=True)
    with pytest.raises(DomainError, match="beta2 == 0"):
        run_power_study(config)


def test_mc_standard_error_is_the_jackknifes_in_any_estimator_order(monkeypatch):
    # the SE was read from the last name of ESTIMATORS, so a new estimator
    # appended there would have taken it over; reversed, naive is last
    monkeypatch.setattr(mc, "ESTIMATORS", tuple(reversed(ESTIMATORS)))
    report = mc.simulate_study(grid_design(DU_10_80, rho=0.05), 30, 600, 3, 28).report(30)
    rate = report.rejection_rate["jackknife"]
    assert (report.replicate_failures, rate) == (0, 477 / 600)
    assert report.rejection_rate["naive"] == 499 / 600
    assert report.mc_standard_error == math.sqrt(rate * (1.0 - rate) / 600)


@pytest.mark.parametrize("reps", [0, -1])
def test_a_study_of_no_replicates_is_a_config_error(reps):
    with pytest.raises(ConfigError, match=f"replications must be >= 1, got {reps}"):
        mc.simulate_study(grid_design(), 20, reps, 0, 18)


# the caches of datasets' and studies' laws: the tables of designs whose
# arms differ, and the slot of each control arm's law, which designs whose
# arms share it read
LAW_CACHES = (simulate._two_law_table, simulate._law_slot)


@pytest.mark.parametrize("null", [False, True], ids=["alternative", "null"])
def test_a_cold_arm_law_cache_gives_the_warm_study(null):
    design = grid_design(DU_10_80, rho=0.05)
    if null:
        design = design.under_null()
    drawn_from = simulate._law_slot if null else simulate._two_law_table
    study = functools.partial(mc.simulate_study, design, 30, mc.CHUNK_REPLICATES + 8, 5, 28)
    for cache in LAW_CACHES:
        cache.cache_clear()
    cold = study()
    hits = drawn_from.cache_info().hits
    warm = study()
    assert drawn_from.cache_info().hits > hits
    for name, array in draw_arrays(warm).items():
        np.testing.assert_array_equal(array, draw_arrays(cold)[name])
    assert warm.failure == cold.failure


def test_each_design_table_is_built_once_per_process(monkeypatch):
    # two studies of three chunks each, then two datasets: the alternative's
    # table builds its two arms' laws of (m, Y) once, and the null reads
    # its control law's row of that table; the datasets build the two arms'
    # laws of (m, K) once, the null's read from the alternative's table
    built, nonzero_built = [], []

    def counted(cells, p, rho_s, lam, rho_u):
        built.append((p, lam, rho_s, rho_u))
        return fresh(cells, p, rho_s, lam, rho_u)

    def counted_nonzero(cells, p, rho_s):
        nonzero_built.append((p, rho_s))
        return fresh_nonzero(cells, p, rho_s)

    fresh, fresh_nonzero = simulate._joint_cdf, simulate._nonzero_cdf
    monkeypatch.setattr(simulate, "_joint_cdf", counted)
    monkeypatch.setattr(simulate, "_nonzero_cdf", counted_nonzero)
    for cache in LAW_CACHES:
        cache.cache_clear()
    design = grid_design(DU_10_80, rho=0.05)
    for generating in (design, design.under_null()):
        mc.simulate_study(generating, 30, 2 * mc.CHUNK_REPLICATES + 8, 3, 28)
    for generating in (design, design.under_null()):
        generate_trial(generating, 30, 1)
    for cache in LAW_CACHES:
        cache.cache_clear()  # keep no entry the stand-ins built
    arms = (design.control, design.intervention)
    assert built == [(arm.p, arm.lam, 0.05, 0.05) for arm in arms]
    assert nonzero_built == [(arm.p, 0.05) for arm in arms]


def test_a_null_designs_datasets_do_not_depend_on_the_caches():
    # a null design reads its one law from row 0 of its slot's table, which
    # its alternative's dataset fills with the two arms' laws: read from
    # row `arm`, its intervention clusters would take the alternative's
    # law.  Studies build laws of (m, Y), which a dataset never reads.
    design = grid_design(DU_10_80, rho=0.05)
    null = design.under_null()

    def null_bytes():
        data = generate_trial(null, 200, 3)
        icc = mc.estimate_poisson_icc(null, 2_000, 4)
        return [data.arm.tobytes(), data.size.tobytes(), data.outcomes.tobytes(), np.float64(icc).tobytes()]

    for cache in LAW_CACHES:
        cache.cache_clear()
    cold = null_bytes()
    generate_trial(design, 200, 3)
    assert null_bytes() == cold
    for cache in LAW_CACHES:
        cache.cache_clear()
    for generating in (design, null):
        mc.simulate_study(generating, 30, 40, 5, 28)
    assert null_bytes() == cold


def test_a_table_walk_keeps_the_arm_law_cache_within_its_bound():
    mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    for cache in LAW_CACHES:
        info = cache.cache_info()
        assert info.maxsize == 64 and 0 < info.currsize <= info.maxsize


def test_a_table_walk_builds_each_arm_law_once(monkeypatch):
    # table1 then table2 use 30 alternative designs and 6 null ones, whose
    # 36 laws are 6 control arms' and 30 intervention arms'.  Each null
    # design comes just before its alternatives, which take its control
    # law from its slot; table2 finds every table table1 built
    built = []

    def counted(cells, p, rho_s, lam, rho_u):
        built.append((cells.m.size, p, rho_s, lam, rho_u))
        return fresh(cells, p, rho_s, lam, rho_u)

    fresh = simulate._joint_cdf
    monkeypatch.setattr(simulate, "_joint_cdf", counted)
    for cache in LAW_CACHES:
        cache.cache_clear()
    mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    assert [cache.cache_info().misses for cache in LAW_CACHES] == [30, 6]
    assert len(built) == len(set(built)) == 36
    for cache in LAW_CACHES:
        cache.cache_clear()  # keep no table the stand-in built


class TestJointLaw:
    """Each arm's (m, Y) of the study engine against the cluster sums of
    datasets (simulate._trial_cluster_sums), which draw (m, K), the own
    Poisson parts and the shared parts separately."""

    CLUSTERS = 40_000  # per arm, in each sample

    @pytest.mark.parametrize("design", [
        grid_design(ClusterSizeModel.discrete_uniform(1, 6), rho=0.2),
        build_design(mu1=3.0, beta2=-0.431, p1=0.0, q=0.0, rho_s=0.0, rho_u=0.3,
                     cluster_sizes=ClusterSizeModel.fixed(3)),
        build_design(mu1=2.0, beta2=0.3, p1=0.3, q=0.6, rho_s=0.1, rho_u=0.05,
                     cluster_sizes=ClusterSizeModel.discrete_uniform(4, 12)),
    ], ids=["du1-6", "fixed3-no-zeros", "du4-12"])
    def test_each_arm_matches_the_datasets(self, design):
        # every (m, y) cell expected 25 times or more in a sample is its own
        # bin, the rest one pooled bin, and the two samples' shares of each
        # bin differ by at most SE_MULTIPLE binomial SEs of the difference
        table, two_laws = engine_table(design)
        assert table is not None and two_laws
        n = 100
        arm, my, _ = simulate._draw_replicates(
            design, n, np.random.default_rng(17), 2 * self.CLUSTERS // n
        )
        m, y = my.astype(np.int64)
        data_arm, data_m, data_y, _ = simulate._trial_cluster_sums(design, 2 * self.CLUSTERS, 18)
        width = int(max(y.max(), data_y.max())) + 1
        for a in (0, 1):
            counts = [
                np.bincount(sizes[arms == a].astype(np.int64) * width + sums[arms == a],
                            minlength=(design.cluster_sizes.hi + 1) * width)
                for arms, sizes, sums in ((arm, m, y), (data_arm, data_m, data_y))
            ]
            assert counts[0].sum() == counts[1].sum() == self.CLUSTERS
            share = (counts[0] + counts[1]) / (2.0 * self.CLUSTERS)
            own_bin = self.CLUSTERS * share >= 25
            got = [np.append(c[own_bin], self.CLUSTERS - c[own_bin].sum()) for c in counts]
            pooled = np.append(share[own_bin], 1.0 - share[own_bin].sum())
            se = np.sqrt(pooled * (1.0 - pooled) * 2.0 / self.CLUSTERS)
            gap = np.abs(got[0] - got[1]) / self.CLUSTERS
            assert own_bin.sum() >= 10
            assert (gap <= SE_MULTIPLE * se).all(), a


def test_seeded_study_rates_pinned_across_versions():
    # the study streams are pinned apart from the engine version, which also
    # moves when only the ICC's draws change: this hash holds from engine
    # version 7 on and changes only when a study's draws do
    reports = mc.reproduce_tables(["table1", "table2"], 40, seed=4)
    text = "".join(report.to_text() for report in reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "31d001765b119e969a2a64630147726cba2c4323adfc7c798bea5e484097e3c7"
    )


@pytest.mark.parametrize("table, index, label, sizes, rho, q", [
    ("table2", 0, "TrunPoisson(45,20,70)", TRUNPOIS, 0.03, 0.3),
    ("table2", 29, "DU(10,80)", DU_10_80, 0.05, 0.7),
    ("table1", 17, "DU(34,56)", DU_34_56, 0.05, 0.5),
])
def test_a_table_row_is_its_design_studied_at_its_own_size(table, index, label, sizes, rho, q):
    # the seed contract the pinned hash above holds, spelled out: row i sizes
    # its design once, studies the alternative from replicate_seed(seed, 2i)
    # and the null from 2i + 1, and reports the alternative study's MC SE
    (report,) = mc.reproduce_tables([table], 40, seed=4)
    row = report.rows[index]
    design = grid_design(sizes, rho=rho, q=q)
    sizing = sample_size_t if table == "table2" else sample_size_normal
    n = sizing(design).n_clusters
    df = n - 2 if table == "table2" else None
    assert (row["distribution"], row["rho_s"], row["rho_u"], row["q"]) == (label, rho, rho, q)
    assert row["n_clusters"] == n
    for kind, generating, seed_index in (
        ("power", design, 2 * index), ("type_i", design.under_null(), 2 * index + 1),
    ):
        study = mc.simulate_study(generating, n, 40, mc.replicate_seed(4, seed_index), df).report(n)
        for name in ESTIMATORS:
            assert row[f"{kind}_{name}"] == study.rejection_rate[name]
        if kind == "power":
            assert row["mc_standard_error"] == study.mc_standard_error


def test_seeded_study_draws_pinned_at_an_odd_n():
    # N = 31 draws the tie coin of every replicate before its clusters, and
    # 300 replicates are two chunks; the hash holds from engine version 7 on
    # and changes only when a study's draws do
    draws = mc.simulate_study(grid_design(DU_10_80, rho=0.05), 31, 300, 2024, 29)
    text = "".join(
        f"{b!r},{','.join(repr(float(draws.sigma2[name][i])) for name in ESTIMATORS)},"
        f"{','.join(str(bool(draws.reject[name][i])) for name in ESTIMATORS)},{draws.failure[i]}\n"
        for i, b in enumerate(draws.beta2_hat.tolist())
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "a425e9f0e5f910365fc2ee4d4495d6fe62b4b3ad92f17a640d5b65b7f6ec2859"
    )


@pytest.mark.parametrize("design, digest", [
    # past the joint table's grid: (m, K) from its table, then the own sums
    # and the shared parts by rng.poisson over an np.where array of two means
    (build_design(mu1=5.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                  cluster_sizes=DU_10_80),
     "2afb672ed5c8e6a0f8172e324285a11c6d9d6d71cfd8feba030944ca48d0ba5a"),
    # above the size law's cell cap: size, shared zero and binomial per cluster
    (grid_design(ClusterSizeModel.discrete_uniform(1, 400), rho=0.05),
     "7cc0108a75dfcb140f24e3a9eed6071bcd40daa5b35ad2e4129c9bba98c09ab7"),
], ids=["mu1-5-du10-80", "du1-400"])
def test_seeded_per_cluster_study_draws_pinned(design, digest):
    # the draw paths the bundled grid never takes, hashed as the test above
    # hashes the joint table's; engine version 7
    assert engine_table(design)[0] is None
    draws = mc.simulate_study(design, 31, 300, 2024, 29)
    text = "".join(
        f"{b!r},{','.join(repr(float(draws.sigma2[name][i])) for name in ESTIMATORS)},"
        f"{','.join(str(bool(draws.reject[name][i])) for name in ESTIMATORS)},{draws.failure[i]}\n"
        for i, b in enumerate(draws.beta2_hat.tolist())
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_seeded_icc_table_pinned():
    # the ICC table's rows and their dataset seeds
    text = mc.reproduce_tables(["table3-icc"], 0, seed=4)[0].to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "7786496709a5c5c247014aa2c61843148c342f2bc9d4f70b7a4dc108ea994290"
    )


def icc_draws(design, n_clusters, seed):
    """The per-cluster arm, size, sum of y and sum of y**2 that estimate_poisson_icc uses."""
    return simulate._trial_cluster_sums(design, n_clusters, seed)


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

    @pytest.mark.parametrize("design, expected", [
        (build_design(mu1=30.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                      cluster_sizes=DU_34_56), 0.053575142635844265),
        (grid_design(ClusterSizeModel.discrete_uniform(1, 400), rho=0.05), 0.03727171383031318),
        (grid_design(ClusterSizeModel.fixed(2), rho=0.05), 0.0032645134175850886),
    ], ids=["mu1-30", "du1-400-above-cap", "fixed2"])
    def test_pinned_values(self, design, expected):
        # own parts by rng.poisson, a law above the cell cap, and clusters of
        # two; like the dataset hashes, these change only with GENERATOR_VERSION 7
        assert simulate.GENERATOR_VERSION == 7
        assert estimate_poisson_icc(design, 300, 3) == expected

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


def dataset_sums(design, n_clusters, seed):
    """generate_trial's per-cluster arm, size, sum of y and sum of y**2."""
    data = generate_trial(design, n_clusters, seed)
    y = data.outcomes
    return data.arm, data.size, data.cluster_sums(y), data.cluster_sums(y * y)


def assert_same_cluster_sums(design, n_clusters, seed):
    for got, expected in zip(icc_draws(design, n_clusters, seed),
                             dataset_sums(design, n_clusters, seed)):
        np.testing.assert_array_equal(got, expected)


class TestIccSums:
    """The distribution gate of the ICC engine: each cluster's Y_i and sum of
    y**2 given m_i against the cluster sums of the subject-by-subject oracle;
    and, entry by entry, against the cluster sums of generate_trial."""

    @pytest.mark.parametrize("design", [
        grid_design(DU_10_80, rho=0.05),
        build_design(mu1=30.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                     cluster_sizes=DU_34_56),
        grid_design(ClusterSizeModel.discrete_uniform(1, 400), rho=0.05),
        grid_design(ClusterSizeModel.fixed(2), rho=0.05),
        build_design(mu1=1.0, beta2=-0.431, p1=0.9, q=0.5, rho_s=0.3, rho_u=0.03,
                     r_bar=0.3, cluster_sizes=DU_10_80),
    ], ids=["du10-80", "mu1-30", "du1-400-above-cap", "fixed2", "r_bar-0.3"])
    def test_equal_the_datasets_cluster_sums(self, design):
        for seed in (0, 1, 2**64 - 1):
            assert_same_cluster_sums(design, 300, seed)

    def test_an_arm_without_own_parts(self):
        # p1 0.95 and rho_s 0.9 on clusters of 5 leave every cluster of one
        # arm with K = 0 for 198 of these 200 seeds
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.95, q=0.5, rho_s=0.9, rho_u=0.05,
                              cluster_sizes=ClusterSizeModel.fixed(5))
        without = 0
        for seed in range(200):
            arm, _, nonzero = simulate._draw_trial(design, 4, seed)[:3]
            without += any(not nonzero[arm == a].any() for a in (0, 1))
            assert_same_cluster_sums(design, 4, seed)
        assert without == 198

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

    def test_every_residual_zero(self):
        # seed 5 gives each arm's one cluster the outcomes (1, 1), so every
        # Pearson residual is 0; the ratio 0 / 0 raised a bare ZeroDivisionError
        design = build_design(mu1=1, beta2=0, p1=0, p2=0, rho_s=0, rho_u=0,
                              cluster_sizes=ClusterSizeModel.fixed(2))
        assert generate_trial(design, 2, 5).outcomes.tolist() == [1, 1, 1, 1]
        assert raised(estimate_poisson_icc, design, 2, 5) == (
            EstimationError, "every Pearson residual is 0: the ICC is undefined",
        )

    def test_no_within_cluster_pairs(self):
        design = build_design(mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.05, rho_u=0.05,
                              cluster_sizes=ClusterSizeModel.fixed(1))
        assert raised(estimate_poisson_icc, design, 200, 0) == (
            EstimationError, "no within-cluster pairs: all clusters have size 1",
        )
