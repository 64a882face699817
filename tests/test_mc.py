"""Tests for Monte Carlo studies: which replicates fail, and why; the Poisson-model ICC."""

import math

import pytest

from zipcrt import (
    ClusterSizeModel,
    StudyConfig,
    build_design,
    estimate_poisson_icc,
    generate_trial,
    mc,
    run_power_study,
)

from conftest import DU_10_80, TRUNPOIS, cluster_rows, grid_design


class TestReplicateFailures:
    @pytest.mark.parametrize("null", [True, False], ids=["type-i", "power"])
    def test_rare_zero_design_loses_no_replicate(self, null, monkeypatch):
        # few structural zeros: many arms' p_hat solve to the boundary 0,
        # which no Wald decision depends on
        fits = []
        original = mc.fit_zip

        def recording(data, **kwargs):
            fits.append(original(data, **kwargs))
            return fits[-1]

        monkeypatch.setattr(mc, "fit_zip", recording)
        design = grid_design(rho=0.03, p1=0.05, q=0.1)
        report = run_power_study(
            StudyConfig(
                design=design, replications=20, use_t_sizing=True, seed=11,
                null_hypothesis=null,
            )
        )
        assert report.n_clusters_used == 15
        assert report.replicate_failures == 0
        assert len(fits) == 20
        assert any(0.0 in fit.p_hat for fit in fits)

    def test_all_zero_arm_fails_its_replicate(self):
        # a mean of 0.01 over 4 subjects per arm leaves an arm all-zero
        design = build_design(
            mu1=0.01, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            cluster_sizes=ClusterSizeModel.fixed(2),
        )
        naive, jack, error = mc._run_replicate(design, 4, 0, "t", 2, 0.05)
        assert naive is None and jack is None
        assert error == "intervention arm has all-zero outcomes; log-mean undefined"


class TestWorkers:
    def test_two_workers_give_the_same_report(self):
        config = StudyConfig(
            design=grid_design(), replications=40, use_t_sizing=True, seed=3
        )
        assert run_power_study(config, workers=2) == run_power_study(config, workers=1)


class TestPoissonIcc:
    @pytest.mark.parametrize("sizes", [DU_10_80, TRUNPOIS], ids=["du10-80", "trunpois"])
    def test_equals_residual_loop(self, sizes):
        # the estimator works from per-cluster sums of y and y**2; the loop
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
        assert estimate_poisson_icc(design, 500, seed=7) == pytest.approx(expected, rel=1e-12)
