"""Tests for the GEE fit, the ES iteration, and both variance estimators."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from zipcrt import (
    DomainError,
    EstimationError,
    fit_zip,
    generate_trial,
    wald_test,
)
from zipcrt.gee import ESTIMATORS, _alpha_from_p
from zipcrt.power import t_quantile

from conftest import (
    DU_10_80,
    DU_34_56,
    TRUNPOIS,
    arm_outcomes,
    arm_totals,
    cluster_rows,
    dataset,
    es_oracle,
    es_step,
    first_seed,
    grid_design,
    jackknife_oracle,
    newton_beta,
    sandwich_oracle,
    zero_states,
)


def doubled_denominator_p(beta, p):
    """Per-arm ``p'`` with ``1 + odds(p') * mu = 2 * (1 + odds(p) * mu)``: every weight halves."""
    mu = (math.exp(beta[0]), math.exp(beta[0] + beta[1]))
    rescaled = []
    for arm, p_a in enumerate(p):
        denom = 2.0 * (1.0 + p_a / (1 - p_a) * mu[arm])
        odds = (denom - 1.0) / mu[arm]
        rescaled.append(odds / (1.0 + odds))
    return tuple(rescaled)


class TestFitBeta:
    def test_equals_arm_log_means_on_random_data(self, config_a):
        for seed in (101, 102, 103, 104, 105):
            data = generate_trial(config_a, 24, seed=seed)
            fit = fit_zip(data)
            control = arm_outcomes(data, 0).mean()
            intervention = arm_outcomes(data, 1).mean()
            assert fit.beta_hat[0] == pytest.approx(math.log(control), abs=1e-8)
            assert fit.beta_hat[1] == pytest.approx(
                math.log(intervention) - math.log(control), abs=1e-8
            )

    def test_equal_arm_means_give_zero_effect(self):
        data = dataset([(0, 0, [1, 3]), (1, 1, [2, 2]), (2, 0, [2, 2]), (3, 1, [3, 1])])
        fit = fit_zip(data)
        assert fit.beta_hat[1] == pytest.approx(0.0, abs=1e-10)

    def test_equals_newton_oracle(self, config_a):
        # the weighted score has the arm log-means as its root whatever the
        # plug-in p, so the fit matches the Newton solve at every p
        data = generate_trial(config_a, 20, seed=3)
        fit = fit_zip(data)
        for p in [(0.0, 0.0), (0.5, 0.5), (0.1, 0.8), (0.9, 0.2), fit.p_hat]:
            oracle = newton_beta(arm_totals(data), p)
            assert np.allclose(fit.beta_hat, oracle, rtol=0.0, atol=1e-12)

    def test_all_zero_arm_rejected(self):
        data = dataset([(0, 0, [0, 0, 0]), (1, 1, [1, 2]), (2, 0, [0, 0]), (3, 1, [0, 3])])
        with pytest.raises(EstimationError, match="control arm has all-zero"):
            fit_zip(data)

    def test_single_arm_rejected(self):
        data = dataset([(0, 0, [1, 2]), (1, 0, [2, 3]), (2, 0, [0, 1])])
        with pytest.raises(EstimationError, match="both arms"):
            fit_zip(data)


class TestFitAlphaES:
    def test_rare_zeros_give_boundary_p(self):
        # without zero inflation an arm's p_hat is exactly 0 when its zero
        # fraction is at most the Poisson mass exp(-ybar), and otherwise the
        # ES fixed point; sampling puts about half the arms on each side
        design = grid_design(p1=0.0, q=0.0)
        data = generate_trial(design, 400, seed=21)
        fit = fit_zip(data)
        totals = arm_totals(data)
        _, oracle_p = es_oracle(totals)
        for (m, s, z), p, p_oracle in zip(totals, fit.p_hat, oracle_p):
            if z / m <= math.exp(-s / m):
                assert p == 0.0
            else:
                assert p > 0.0
                assert abs(p - p_oracle) < 1e-6

        # zero fraction 0.25 below exp(-1) = 0.368 in both arms: the boundary
        data = dataset([
            (1, 0, [0, 1, 1, 2]),
            (2, 0, [1, 2, 0, 1]),
            (3, 1, [0, 1, 2, 1]),
            (4, 1, [2, 1, 1, 0]),
        ])
        fit = fit_zip(data)
        assert fit.p_hat == (0.0, 0.0)
        assert fit.alpha_hat[0] == -math.inf
        assert fit.alpha_hat[1] == 0.0
        assert not fit.degenerate
        # the ES iteration from the zero fractions shrinks p by exp(1) / 4
        # per step towards the same boundary
        _, oracle_p = es_oracle(arm_totals(data))
        assert max(oracle_p) < 1e-9

    def test_consistency_on_large_trial(self, config_a):
        data = generate_trial(config_a, 10**4, seed=22)
        fit = fit_zip(data)
        assert fit.p_hat[0] == pytest.approx(0.5, abs=0.02)
        assert fit.p_hat[1] == pytest.approx(0.59693, abs=0.02)
        assert fit.beta_hat[1] == pytest.approx(-0.431, abs=0.02)
        assert fit.alpha_hat[0] == pytest.approx(
            math.log(fit.p_hat[0] / (1 - fit.p_hat[0])), abs=1e-9
        )

    def test_fixed_point(self, config_a):
        data = generate_trial(config_a, 50, seed=23)
        fit = fit_zip(data)
        # one oracle ES pass from the closed form leaves it in place
        beta, p = es_step(arm_totals(data), tuple(fit.beta_hat), fit.p_hat)
        assert abs(beta[0] - fit.beta_hat[0]) < 1e-6
        assert abs(beta[1] - fit.beta_hat[1]) < 1e-6
        assert abs(p[0] - fit.p_hat[0]) < 1e-6
        assert abs(p[1] - fit.p_hat[1]) < 1e-6

    def test_moment_solution_equals_logistic_mle(self):
        # with the latent indicators observed, the zero-model moment
        # equations and the Bernoulli likelihood have the same root:
        # arm-wise proportions on the logit scale
        rng = np.random.default_rng(77)
        for _ in range(5):
            arms = rng.integers(0, 2, size=200)
            while len(set(arms)) < 2:
                arms = rng.integers(0, 2, size=200)
            s = rng.random(200) < np.where(arms == 0, 0.35, 0.6)
            p0 = s[arms == 0].mean()
            p1 = s[arms == 1].mean()
            moment_alpha = _alpha_from_p(float(p0), float(p1))

            def nll(a):
                eta = a[0] + a[1] * arms
                return float(np.sum(np.log1p(np.exp(eta)) - s * eta))

            mle = optimize.minimize(nll, x0=[0.0, 0.0], method="Nelder-Mead",
                                    options={"xatol": 1e-10, "fatol": 1e-12})
            assert moment_alpha[0] == pytest.approx(mle.x[0], abs=1e-5)
            assert moment_alpha[1] == pytest.approx(mle.x[1], abs=1e-5)


class TestClosedFormMatchesOracle:
    """The closed-form fit against the ES iteration and its Jackknife refits."""

    # the p1 = 0 case takes the first seed from 0 on at which one arm's
    # zero fraction puts p_hat on the boundary 0 and the other's is
    # interior, so one dataset runs both of the oracle's paths
    CASES = pytest.mark.parametrize(
        "sizes, rho, p1, q, n_clusters, seed",
        [
            (DU_34_56, 0.03, 0.5, 0.5, 24, 41),
            (DU_10_80, 0.05, 0.5, 0.5, 30, 42),
            (TRUNPOIS, 0.05, 0.5, 0.3, 22, 43),
            (DU_34_56, 0.05, 0.0, 0.0, 20, None),
        ],
        ids=["du34-56", "du10-80", "trunpois", "boundary-p1-0"],
    )

    @staticmethod
    def case_data(sizes, rho, p1, q, n_clusters, seed):
        design = grid_design(cluster_sizes=sizes, rho=rho, p1=p1, q=q)
        if seed is None:
            seed = first_seed(
                design, n_clusters, lambda d: sorted(zero_states(d)) == ["boundary", "interior"]
            )
        return generate_trial(design, n_clusters, seed=seed)

    @CASES
    def test_fit_zip_equals_es_oracle(self, sizes, rho, p1, q, n_clusters, seed):
        data = self.case_data(sizes, rho, p1, q, n_clusters, seed)
        fit = fit_zip(data)
        beta, p = es_oracle(arm_totals(data))
        assert np.allclose(fit.beta_hat, beta, rtol=0.0, atol=1e-12)
        assert np.allclose(fit.p_hat, p, rtol=0.0, atol=1e-6)
        assert np.allclose(
            fit.variance["jackknife"], jackknife_oracle(data), rtol=1e-10, atol=0.0
        )
        if p1 == 0.0:
            assert 0.0 in fit.p_hat  # the case reaches the boundary

    @CASES
    def test_sigma_naive_equals_sandwich_oracle(self, sizes, rho, p1, q, n_clusters, seed):
        # the per-subject sandwich at the fit's p_hat, and at a p that
        # halves every working weight, equals the closed form, which has
        # no weights at all
        data = self.case_data(sizes, rho, p1, q, n_clusters, seed)
        fit = fit_zip(data)
        for p in (fit.p_hat, doubled_denominator_p(fit.beta_hat, fit.p_hat)):
            sandwich = fit.n_clusters * fit.variance["naive"]
            assert np.allclose(sandwich, sandwich_oracle(data, p), rtol=1e-12, atol=0.0)

    def test_es_oracle_reaches_the_root(self):
        # near the boundary each ES step shrinks the distance to the fixed
        # point by a factor close to 1, so a stop on the step size alone
        # ends short of it.  The design has no structural zeros, so an arm
        # whose zero fraction exceeds exp(-ybar) has a root just above 0
        # (factors about 0.9994 and 0.9977 at the seed chosen); brentq needs
        # such a root in both arms.
        design = grid_design(p1=0.0, q=0.0)
        seed = first_seed(design, 400, lambda d: zero_states(d) == ("interior", "interior"))
        data = generate_trial(design, 400, seed=seed)
        totals = arm_totals(data)
        _, oracle_p = es_oracle(totals)
        for (m, s, z), p in zip(totals, oracle_p):
            ybar, zero_fraction = s / m, z / m
            root = optimize.brentq(
                lambda q: q + (1.0 - q) * math.exp(-ybar / (1.0 - q)) - zero_fraction,
                0.0, zero_fraction, xtol=1e-15,
            )
            assert abs(p - root) < 1e-11


class TestSandwichVariance:
    def test_perfect_fit_gives_zero(self):
        data = dataset([(0, 0, [3, 3, 3]), (1, 1, [3, 3, 3]), (2, 0, [3, 3]), (3, 1, [3])])
        assert np.allclose(fit_zip(data).variance["naive"], 0.0, atol=1e-20)

    def test_uniform_weight_rescaling_cancels(self, config_a):
        data = generate_trial(config_a, 30, seed=24)
        fit = fit_zip(data)
        base = sandwich_oracle(data, (0.4, 0.5))
        doubled = sandwich_oracle(data, doubled_denominator_p(fit.beta_hat, (0.4, 0.5)))
        assert np.allclose(base, doubled, rtol=1e-10)
        assert np.allclose(fit.n_clusters * fit.variance["naive"], base, rtol=1e-12, atol=0.0)

    def test_symmetric_psd(self, config_a):
        data = generate_trial(config_a, 40, seed=25)
        sigma = fit_zip(data).variance["naive"]
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12

    def test_single_arm_rejected(self):
        data = dataset([(0, 0, [1, 2]), (1, 0, [3, 1]), (2, 0, [2, 0])])
        with pytest.raises(EstimationError, match="both arms"):
            fit_zip(data)

    def test_invariant_to_within_cluster_relabeling(self, config_a):
        data = generate_trial(config_a, 25, seed=26)
        fit = fit_zip(data)
        shuffled = dataset([(cid, arm, y[::-1]) for cid, arm, y in cluster_rows(data)])
        assert np.array_equal(fit_zip(shuffled).variance["naive"], fit.variance["naive"])


class TestJackknifeVariance:
    def test_identical_clusters_give_zero(self):
        rows = [(i, i % 2, [0, 2, 3] if i % 2 == 0 else [0, 1, 2]) for i in range(8)]
        sigma = fit_zip(dataset(rows)).variance["jackknife"]
        assert np.allclose(sigma, 0.0, atol=1e-16)

    def test_needs_three_clusters(self):
        data = dataset([(0, 0, [1, 2]), (1, 1, [2, 3])])
        with pytest.raises(EstimationError, match="at least 3"):
            fit_zip(data)

    def test_removal_emptying_arm_rejected(self):
        data = dataset([(0, 0, [1, 2]), (1, 0, [0, 1]), (2, 1, [2, 1])])
        with pytest.raises(EstimationError, match="empties arm"):
            fit_zip(data)

    def test_removal_leaving_arm_all_zero_rejected(self):
        data = dataset([(0, 0, [1, 2]), (1, 0, [0, 1]), (2, 1, [0, 0]), (3, 1, [2, 1])])
        with pytest.raises(EstimationError, match="removing cluster 3 leaves all-zero"):
            fit_zip(data)

    def test_order_invariance(self, config_a):
        data = generate_trial(config_a, 20, seed=27)
        sigma = fit_zip(data).variance["jackknife"]
        reordered = dataset(cluster_rows(data)[::-1])
        assert np.allclose(fit_zip(reordered).variance["jackknife"], sigma, atol=1e-14)

    def test_same_scale_as_sandwich_after_rescaling(self, config_a):
        # both estimators target Var(beta_hat): the fit keeps the sandwich
        # rescaled by 1 / N
        data = generate_trial(config_a, 20, seed=28)
        fit = fit_zip(data)
        jack22 = float(fit.variance["jackknife"][1, 1])
        naive22 = float(fit.variance["naive"][1, 1])
        assert jack22 > 0.0
        assert 0.5 < jack22 / naive22 < 2.0

    def test_symmetric_psd(self, config_a):
        data = generate_trial(config_a, 22, seed=29)
        sigma = fit_zip(data).variance["jackknife"]
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-15


class TestWaldTest:
    def test_zero_effect_never_rejects(self):
        for reference in ("normal", "t"):
            test = wald_test(0.0, 1.0, 25, reference)
            assert not test.reject and test.statistic == 0.0

    def test_statistic_at_quantile_is_not_rejected(self):
        critical = wald_test(1.0, 1.0, 1, "normal").critical_value
        test = wald_test(critical, 1.0, 1, "normal")
        assert test.statistic == critical
        assert not test.reject

    def test_reference_decision(self):
        test = wald_test(-0.431, 0.44, 21, "t")
        assert test.df == 19
        assert abs(test.statistic) == pytest.approx(2.9776, abs=1e-3)
        assert test.critical_value == pytest.approx(t_quantile(19, 0.975), abs=1e-12)
        assert test.reject

    def test_df_override(self):
        test = wald_test(-0.431, 0.44, 21, "t", df=17)
        assert test.df == 17

    def test_validation(self):
        with pytest.raises(DomainError):
            wald_test(1.0, 0.0, 10, "normal")
        with pytest.raises(DomainError):
            wald_test(1.0, 1.0, 10, "wilks")


class TestFitZip:
    def test_bundles_consistent_pieces(self, config_a):
        data = generate_trial(config_a, 30, seed=30)
        fit = fit_zip(data)
        assert fit.n_clusters == 30
        assert np.array_equal(fit.alpha_hat, _alpha_from_p(*fit.p_hat))
        assert fit.degenerate == any(z == 0 for _, _, z in arm_totals(data))
        assert fit.sigma2_sq("naive") == 30 * fit.variance["naive"][1, 1]
        assert fit.sigma2_sq("jackknife") == pytest.approx(
            30 * fit.variance["jackknife"][1, 1], abs=1e-15
        )
        with pytest.raises(DomainError):
            fit.sigma2_sq("bootstrap")

    @pytest.mark.parametrize("method", ["se", "sigma2_sq"])
    def test_an_unknown_estimator_is_a_domain_error(self, config_a, method):
        # se raised a bare KeyError
        fit = fit_zip(generate_trial(config_a, 12, seed=30))
        with pytest.raises(DomainError, match=re.escape(f"one of {ESTIMATORS}, got 'bogus'")):
            getattr(fit, method)("bogus")

    def test_se_properties(self, config_a):
        data = generate_trial(config_a, 30, seed=31)
        fit = fit_zip(data)
        assert fit.se("naive")[1] == pytest.approx(
            math.sqrt(fit.variance["naive"][1, 1]), abs=1e-15
        )
        assert fit.se("jackknife")[1] == pytest.approx(
            math.sqrt(fit.variance["jackknife"][1, 1]), abs=1e-15
        )

    def test_peak_memory_below_half_the_outcome_column(self):
        # the fit needs per-arm zero counts only, so it may allocate byte
        # masks as long as the outcome column but no int64 copy of it
        data = generate_trial(grid_design(cluster_sizes=DU_10_80), 2000, seed=3)
        tracemalloc.start()
        try:
            fit_zip(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.outcomes.nbytes / 2
