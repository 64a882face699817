"""Tests for the design variance and the sample-size rules."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from zipcrt import (
    ClusterSizeModel,
    DomainError,
    build_design,
    design_variance,
    q_sweep,
    sample_size_normal,
    sample_size_t,
)
from zipcrt.mc import reference_design
from zipcrt import gee, mc, power
from zipcrt.power import _raw_count, normal_quantile, predicted_power, t_cdf, t_quantile

from conftest import DU_10_80, DU_34_56, TRUNPOIS, grid_design


class TestDesignVariance:
    def test_reference_value_low_icc(self, config_a):
        assert design_variance(config_a) == pytest.approx(0.44162, abs=1e-5)

    def test_reference_value_high_icc(self):
        design = grid_design(rho=0.05)
        assert design_variance(design) == pytest.approx(0.59013, abs=1e-5)

    def test_singleton_poisson_limit(self):
        design = build_design(
            mu1=2.0, beta2=-0.5, p1=0.0, q=0.0, rho_s=0.17, rho_u=0.29,
            r_bar=0.4, cluster_sizes=ClusterSizeModel.fixed(1),
        )
        mu1, mu2 = design.control.mu, design.intervention.mu
        expected = 1.0 / (0.6 * mu1) + 1.0 / (0.4 * mu2)
        assert design_variance(design) == pytest.approx(expected, abs=1e-12)

    def test_increasing_in_correlations(self):
        values = [design_variance(grid_design(rho=r)) for r in (0.01, 0.03, 0.05, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_increasing_in_size_variability_at_fixed_mean(self):
        # eta_m = 45 in all three, sigma2_m = 0, 44, 420
        sizes = [ClusterSizeModel.fixed(45), DU_34_56, DU_10_80]
        values = [design_variance(grid_design(cluster_sizes=s)) for s in sizes]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSampleSizeNormal:
    def test_reference_low_icc(self, config_a):
        result = sample_size_normal(config_a)
        assert result.n_clusters == 19
        assert result.n_clusters == math.ceil(result.n_raw)
        assert result.critical_basis == "normal"
        assert result.df is None

    def test_reference_high_icc(self):
        assert sample_size_normal(grid_design(rho=0.05)).n_clusters == 25

    def test_inverse_square_law(self, config_a):
        result = sample_size_normal(config_a)
        quantiles = normal_quantile(0.975) + normal_quantile(0.8)
        doubled = result.sigma2_sq * quantiles**2 / (2 * config_a.beta2) ** 2
        assert doubled == pytest.approx(result.n_raw / 4.0, abs=1e-12)

    def test_zero_effect_rejected(self, config_a):
        with pytest.raises(DomainError):
            sample_size_normal(config_a.under_null())

    @pytest.mark.parametrize("beta2", [1e-300, -1e-160, 1e-10])
    def test_an_effect_too_small_to_size_is_a_domain_error(self, beta2):
        # beta2**2 underflowed to a ZeroDivisionError, n_raw = inf failed in
        # math.ceil, and 1e-10 gave an N_t below N_z
        design = grid_design(beta2=beta2)
        for size in (sample_size_normal, sample_size_t):
            with pytest.raises(DomainError, match=re.escape(f"beta2 = {beta2} is too small")):
                size(design)

    def test_a_count_up_to_2_53_is_sized(self):
        assert _raw_count(2.0**53, 1.0, 1.0) == 2.0**53
        with pytest.raises(DomainError, match="more than 2\\*\\*53"):
            _raw_count(math.nextafter(2.0**53, math.inf), 1.0, 1.0)
        design = grid_design(beta2=1e-7)  # about 2.8e14 clusters
        assert sample_size_normal(design).n_clusters <= sample_size_t(design).n_clusters

    def test_arm_swap_symmetry(self, config_a):
        swapped = build_design(
            beta1=config_a.beta1 + config_a.beta2,
            beta2=-config_a.beta2,
            p1=config_a.intervention.p,
            p2=config_a.control.p,
            rho_s=config_a.rho_s,
            rho_u=config_a.rho_u,
            r_bar=1.0 - config_a.r_bar,
            cluster_sizes=config_a.cluster_sizes,
        )
        assert sample_size_normal(swapped).n_raw == pytest.approx(
            sample_size_normal(config_a).n_raw, abs=1e-10
        )


class TestSampleSizeT:
    def test_reference_high_icc(self):
        result = sample_size_t(grid_design(rho=0.05))
        assert result.n_clusters == 28
        assert result.df == 23  # normal-based count minus the 2 parameters

    def test_reference_low_icc_near_boundary(self, config_a):
        # raw value sits just above 21, so ceiling gives 22; quoted value 21
        result = sample_size_t(config_a)
        assert result.n_clusters in (21, 22)
        assert result.n_raw == pytest.approx(21.0, abs=0.1)

    def test_never_below_normal_size(self):
        for rho in (0.0, 0.03, 0.05, 0.2):
            for q in (0.0, 0.5, 1.0):
                design = grid_design(rho=rho, q=q)
                assert (
                    sample_size_t(design).n_clusters
                    >= sample_size_normal(design).n_clusters
                )

    def test_shrinking_alpha_inflates_size(self):
        raws = []
        for alpha in (0.2, 0.05, 0.01, 0.001, 1e-6):
            design = build_design(
                mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
                cluster_sizes=DU_34_56, alpha=alpha,
            )
            raws.append(sample_size_t(design).n_raw)
        assert all(b > a for a, b in zip(raws, raws[1:]))

    def test_insufficient_clusters(self):
        design = build_design(
            mu1=100.0, beta2=-2.0, p1=0.0, q=0.0, rho_s=0.0, rho_u=0.0,
            cluster_sizes=ClusterSizeModel.fixed(100),
        )
        assert sample_size_normal(design).n_clusters < 3
        with pytest.raises(DomainError, match="insufficient"):
            sample_size_t(design)


class TestQuantiles:
    def test_against_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
        assert normal_quantile(0.8) == pytest.approx(0.8416212336, abs=1e-8)
        assert t_quantile(19, 0.975) == pytest.approx(2.0930240544, abs=1e-7)

    def test_df_validation(self):
        with pytest.raises(DomainError):
            t_quantile(0, 0.975)
        with pytest.raises(DomainError):
            t_cdf(1.0, 0.5)

    @pytest.mark.parametrize("prob", [0.0, 1.0, 1.5])
    def test_prob_validation(self, prob):
        with pytest.raises(DomainError):
            t_quantile(10, prob)

    def test_a_nan_df_is_a_domain_error(self, config_a):
        # each returned nan
        with pytest.raises(DomainError, match="t CDF needs a finite df >= 1, got nan"):
            t_cdf(1.0, math.nan)
        with pytest.raises(DomainError, match="t quantile needs a finite df >= 1, got nan"):
            t_quantile(math.nan, 0.975)
        with pytest.raises(DomainError, match="t quantile needs a finite df >= 1, got nan"):
            predicted_power(config_a, 20, math.nan)

    def test_an_infinite_df_is_a_domain_error(self, config_a):
        # inf passed df >= 1, and each raised a bare math domain error
        for call in (
            lambda: t_cdf(1.0, math.inf),
            lambda: t_quantile(math.inf, 0.975),
            lambda: power.quantile(0.975, math.inf),
            lambda: gee.wald_test(-0.3, 1.0, 30, "t", 0.05, math.inf),
            lambda: predicted_power(config_a, 30, math.inf),
        ):
            with pytest.raises(DomainError, match="needs a finite df >= 1, got inf"):
                call()
        # a study fails its replicates instead of aborting
        draws = mc.simulate_study(config_a, 28, 10, 1, math.inf)
        assert draws.failure == ["t quantile needs a finite df >= 1, got inf"] * 10
        assert not any(reject.any() for reject in draws.reject.values())

    def test_a_subnormal_prob_is_a_domain_error(self):
        # a subnormal tail keeps too few bits to invert
        with pytest.raises(DomainError, match=re.escape("needs prob >= 2**-1022, got 1e-310")):
            t_quantile(10, 1e-310)
        assert t_quantile(10, 2.0**-1022) < 0.0

    def test_an_unconverged_continued_fraction_is_a_domain_error(self, monkeypatch):
        # the fraction returned its last, unconverged value
        monkeypatch.setattr(power, "_CF_TERMS", 3)
        with pytest.raises(DomainError, match="did not converge in 3 terms"):
            t_cdf(2.0, 50.0)

    def test_the_series_test_cannot_pass_below_its_least_df(self):
        # _t_split sums no expansion below _SERIES_MIN_DF (62.9, just below
        # the 62.9026 where the test's left side can first reach 2**-54), as
        # the left side only falls as df grows; 0.01 above it the test passes
        def left_side(t, df):
            return abs(power._t_cdf_expansion(t, df)[1]) * max(t, 1.0 / t)

        grid = np.logspace(-12, 8, 2001).tolist()
        assert min(left_side(t, power._SERIES_MIN_DF) for t in grid) > 2.0**-54
        assert min(left_side(t, power._SERIES_MIN_DF + 0.01) for t in grid) <= 2.0**-54

    @pytest.mark.parametrize("prob", [0.0, 1.0, 1.0 - 1e-300, -0.5, 1.5, math.nan])
    def test_normal_prob_validation(self, prob):
        # statistics.NormalDist raised its own StatisticsError at 0 and 1
        with pytest.raises(DomainError, match="normal quantile needs 0 < prob < 1"):
            normal_quantile(prob)


class TestQSweep:
    def test_reference_row(self):
        design = grid_design(cluster_sizes=TRUNPOIS, rho=0.05)
        entries = q_sweep(design, [0.3, 0.4, 0.5, 0.6, 0.7])
        assert [e.result.n_clusters for e in entries] == [24, 25, 25, 26, 27]
        assert entries[2].p2 == pytest.approx(0.59693, abs=1e-5)

    def test_nondecreasing_for_negative_effect(self, config_a):
        qs = [i / 20 for i in range(21)]
        entries = q_sweep(config_a, qs)
        raws = [e.result.n_raw for e in entries]
        assert all(b >= a for a, b in zip(raws, raws[1:]))

    def test_single_q_matches_direct_call(self, config_a):
        entry = q_sweep(config_a, [0.5])[0]
        assert entry.result == sample_size_normal(config_a)

    def test_domain_errors_reported_inline(self, config_a):
        entries = q_sweep(config_a, [0.5, 1.2, 0.7])
        assert entries[0].error is None and entries[2].error is None
        assert entries[1].error is not None and entries[1].result is None

    def test_an_effect_too_small_to_size_is_reported_inline(self):
        for basis in ("normal", "t"):
            entry = q_sweep(grid_design(beta2=1e-10), [0.5], basis=basis)[0]
            assert entry.result is None and "beta2 = 1e-10 is too small" in entry.error

    def test_t_basis(self):
        design = grid_design(cluster_sizes=TRUNPOIS, rho=0.05)
        entries = q_sweep(design, [0.3, 0.4, 0.5, 0.6, 0.7], basis="t")
        assert [e.result.n_clusters for e in entries] == [27, 27, 28, 28, 29]

    def test_unknown_basis(self, config_a):
        with pytest.raises(DomainError):
            q_sweep(config_a, [0.5], basis="wald")


CELLS = [grid_design(), grid_design(rho=0.05), grid_design(cluster_sizes=DU_10_80, q=0.2),
         grid_design(cluster_sizes=TRUNPOIS, beta2=-0.3)]


class TestPredictedPower:
    @pytest.mark.parametrize("design", CELLS)
    def test_normal_power_at_the_raw_count_is_the_target(self, design):
        n_raw = sample_size_normal(design).n_raw
        assert predicted_power(design, n_raw, None) == pytest.approx(design.power, abs=1e-12)

    @pytest.mark.parametrize("design", CELLS)
    @pytest.mark.parametrize("reference", ["normal", "t"])
    def test_nondecreasing_in_clusters(self, design, reference):
        values = [
            predicted_power(design, n, None if reference == "normal" else n - 2)
            for n in range(3, 200)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("design", CELLS)
    def test_t_power_at_the_t_count_reaches_the_target(self, design):
        n_clusters = sample_size_t(design).n_clusters
        assert predicted_power(design, n_clusters, n_clusters - 2) >= design.power


# scipy is the oracle below; the package computes these without it.  The
# bounds were fixed before the comparisons were run.
TAIL_PROBS = [0.001, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.45, 0.55, 0.7, 0.8, 0.9, 0.95,
              0.975, 0.99, 0.999]  # |p - 0.5| >= 0.05
SMALL_DF = [1, 1.5, 2, 2.5, 3, 3.7, 4, 5, 7, 10, 17.25, 19, 26, 30, 49.9, 50, 64, 98,
            150.5, 333, 512.75, 999.5, 1000]
LARGE_DF = [1e4, 31622.5, 1e5, 3e5, 1e6]
T_RANGES = [(SMALL_DF, 1e-11), (LARGE_DF, 1e-9)]


def relative_error(value, reference):
    return abs(value - reference) / abs(reference)


class TestAgainstScipy:
    def test_normal_quantile(self):
        probs = [1e-12, 1e-6, 0.001, 0.025, 0.2, 0.4999, 0.5001, 0.8, 0.975, 0.999, 1 - 1e-9]
        for prob in probs:
            assert relative_error(normal_quantile(prob), stats.norm.ppf(prob)) <= 1e-14, prob

    @pytest.mark.parametrize("design", CELLS)
    def test_normal_predicted_power(self, design):
        quantile = stats.norm.ppf(1.0 - design.alpha / 2.0)
        for n in [2, 3.5, 10, 19, 27.25, 60, 200, 1000]:
            delta = math.sqrt(n * design.beta2**2 / design_variance(design))
            expected = stats.norm.cdf(delta - quantile)
            assert relative_error(predicted_power(design, n, None), expected) <= 1e-13, n

    @pytest.mark.parametrize("dfs, bound", T_RANGES, ids=["df-1-to-1000", "df-1e4-to-1e6"])
    def test_t_quantile_and_cdf(self, dfs, bound):
        for df in dfs:
            for prob in TAIL_PROBS:
                expected = stats.t.ppf(prob, df)
                assert relative_error(t_quantile(df, prob), expected) <= bound, (df, prob)
                expected_cdf = stats.t.cdf(expected, df)
                assert relative_error(t_cdf(expected, df), expected_cdf) <= bound, (df, prob)

    def test_t_quantile_at_large_df(self):
        # the continued fraction of the t CDF stops at _CF_TERMS terms, which
        # put the quantile 4.9e-13 off at df = 1e5 and 4.2e-4 off at 1e14
        for df in [1e4, 3e4, 1e5, 1e6, 1e7, 1e8, 1e10, 1e12, 1e14]:
            for upper in [0.8, 0.9, 0.975, 0.995, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]:
                for prob in (upper, 1.0 - upper):
                    expected = stats.t.ppf(prob, df)
                    assert relative_error(t_quantile(df, prob), expected) <= 2e-15, (df, prob)

    def test_t_cdf_at_large_df(self):
        # the continued fraction stops at _CF_TERMS terms, which put the CDF
        # at the 0.975 quantile -2.2e-8 off at df = 1e10 and -6.9e-7 at 1e12
        for df in [1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14]:
            for upper in [0.8, 0.9, 0.975, 0.995, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]:
                for prob in (upper, 1.0 - upper):
                    t = stats.t.ppf(prob, df)
                    assert relative_error(t_cdf(t, df), stats.t.cdf(t, df)) <= 1e-13, (df, prob)

    def test_t_quantile_from_df_1000_to_1600(self):
        # the Cornish-Fisher expansion answered from about df 1,500 at 0.975
        # and put these up to 3.4e-14 off (df 1,400)
        dfs = np.repeat(np.arange(1000, 1601), 2)
        probs = np.tile([0.025, 0.975], 601)
        expected = stats.t.ppf(probs, dfs)
        for df, prob, reference in zip(dfs.tolist(), probs.tolist(), expected.tolist()):
            assert relative_error(t_quantile(df, prob), reference) <= 1e-14, (df, prob)

    @pytest.mark.parametrize("df, prob", [(1, 1e-200), (1.5, 1e-300), (1000, 2.3e-308)])
    def test_t_quantile_in_the_far_tail_inverts_the_cdf(self, df, prob):
        # at df 1 the root's t**2 overflows, where the CDF was nan; at df 1.5
        # Newton's method did not converge; at df 1000 its first step from the
        # normal quantile passes the root to where the tail underflows
        t = t_quantile(df, prob)
        assert relative_error(t_cdf(t, df), prob) <= 1e-12

    @pytest.mark.parametrize("t, df", [(1.4612264704762292, 3), (2.105006414799795, 5),
                                       (2.937609304517225, 10)])
    def test_t_cdf_at_a_root_of_the_first_omitted_term(self, t, df):
        # g_9(t) is near 0 at these t, so the expansion in 1 / df answered,
        # 3.5e-6, 1.5e-6 and 3.3e-7 off
        assert relative_error(t_cdf(t, df), stats.t.cdf(t, df)) <= 1e-13

    def test_t_cdf_past_the_square_root_of_the_largest_float(self):
        # t**2 overflowed, and the CDF was nan
        assert relative_error(t_cdf(-1e200, 1.0), 1.0 / (math.pi * 1e200)) <= 1e-13
        assert t_cdf(1e200, 1.0) == 1.0

    @pytest.mark.parametrize("dfs, bound", T_RANGES, ids=["df-1-to-1000", "df-1e4-to-1e6"])
    def test_t_predicted_power(self, dfs, bound):
        design = grid_design()
        prob = 1.0 - design.alpha / 2.0
        for df in dfs:
            n = df + 2
            delta = math.sqrt(n * design.beta2**2 / design_variance(design))
            expected = stats.t.cdf(delta - stats.t.ppf(prob, df), df)
            assert relative_error(predicted_power(design, n, df), expected) <= bound, df

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 10.5, 100, 1e5])
    def test_t_quantile_near_the_median_inverts_the_cdf(self, df):
        # scipy is no oracle here: stats.t.ppf(0.5000001, 4) is 4e-4 off the
        # root 2.6667e-7, so the identity is checked instead
        for prob in [0.5 - 1e-3, 0.5 - 1e-7, 0.5 - 1e-12, 0.5 + 1e-12, 0.5000001, 0.5 + 0.04]:
            assert abs(t_cdf(t_quantile(df, prob), df) - prob) <= 1e-13, prob
        assert t_quantile(df, 0.5) == 0.0 and t_cdf(0.0, df) == 0.5

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 10.5, 100])
    def test_t_quantile_near_the_median_keeps_its_relative_accuracy(self, df):
        # within 1e-12 of the median the CDF is linear to 1e-24, with slope the
        # density at 0, so the quantile is known to full relative accuracy (the
        # lgamma difference would lose more than the bound past df = 1e4)
        log_density = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
        prob = 0.5 + 1e-12
        assert relative_error(t_quantile(df, prob), (prob - 0.5) / math.exp(log_density)) <= 1e-11


# n_clusters of the table1 (normal) and table2 (t) cells: TrunPoisson(45,20,70),
# DU(34,56) and DU(10,80), each at ICC 0.03 then 0.05, q = 0.3 to 0.7
TABLE_LAWS = [TRUNPOIS, DU_34_56, DU_10_80]
TABLE1_N = [[18, 19, 19, 20, 20], [24, 25, 25, 26, 27],
            [18, 19, 19, 20, 20], [24, 25, 25, 26, 27],
            [20, 20, 21, 21, 22], [27, 28, 28, 29, 30]]
TABLE2_N = [[21, 21, 22, 22, 22], [27, 27, 28, 28, 29],
            [21, 21, 22, 22, 22], [27, 27, 28, 28, 29],
            [22, 23, 23, 24, 24], [29, 30, 31, 31, 32]]


@pytest.mark.parametrize("law_index", range(3))
@pytest.mark.parametrize("rho_index", range(2))
def test_reference_cells_match_the_scipy_formula(law_index, rho_index):
    for column, q in enumerate([0.3, 0.4, 0.5, 0.6, 0.7]):
        design = reference_design(TABLE_LAWS[law_index], [0.03, 0.05][rho_index], q)
        scale = design_variance(design) / design.beta2**2
        n_z = math.ceil(scale * (stats.norm.ppf(0.975) + stats.norm.ppf(0.8)) ** 2)
        df = n_z - 2
        n_t = math.ceil(scale * (stats.t.ppf(0.975, df) + stats.t.ppf(0.8, df)) ** 2)
        row = 2 * law_index + rho_index
        assert sample_size_normal(design).n_clusters == n_z == TABLE1_N[row][column]
        assert sample_size_t(design).n_clusters == n_t == TABLE2_N[row][column]
