"""Tests for Monte Carlo studies: which replicates fail, and why."""

import pytest

from zipcrt import ClusterSizeModel, StudyConfig, build_design, mc, run_power_study

from conftest import grid_design


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
