"""Tests for the design variance and the sample-size rules."""

import math

import pytest

from zipcrt import (
    ClusterSizeModel,
    DomainError,
    build_design,
    design_variance,
    q_sweep,
    sample_size_normal,
    sample_size_t,
)
from zipcrt.power import normal_quantile, predicted_power, t_quantile

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
        assert predicted_power(design, n_raw, "normal") == pytest.approx(design.power, abs=1e-12)

    @pytest.mark.parametrize("design", CELLS)
    @pytest.mark.parametrize("reference", ["normal", "t"])
    def test_nondecreasing_in_clusters(self, design, reference):
        values = [predicted_power(design, n, reference) for n in range(3, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("design", CELLS)
    def test_t_power_at_the_t_count_reaches_the_target(self, design):
        n_clusters = sample_size_t(design).n_clusters
        assert predicted_power(design, n_clusters, "t") >= design.power

    def test_unknown_reference(self, config_a):
        with pytest.raises(DomainError, match="reference"):
            predicted_power(config_a, 20, "chi2")
