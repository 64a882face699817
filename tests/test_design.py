"""Tests for arm profiles, effect decomposition, and covariance factors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, stats

from zipcrt import (
    ArmProfile,
    ClusterSizeModel,
    ConfigError,
    DesignInputs,
    DomainError,
    build_design,
    decompose_effect,
    infer_p1_from_observed,
    marginal_variance,
    p2_from_q,
    pairwise_covariance_factor,
    zero_probability,
)
from zipcrt.design import MAX_CLUSTER_MEAN

from conftest import DU_34_56, enumerated_pair_covariance, grid_design


class TestArmProfile:
    def test_identity_holds_by_construction(self):
        arm = ArmProfile(1.21, 0.19)
        assert abs(arm.mu - (1 - arm.p) * arm.lam) <= 1e-12
        assert arm.lam == pytest.approx(1.21 / 0.81)

    def test_from_poisson(self):
        # a profile built from the Poisson-component mean gives it back
        arm = ArmProfile((1 - 0.25) * 2.0, 0.25)
        assert arm.mu == 1.5 and arm.lam == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_p_out_of_range(self, p):
        with pytest.raises(DomainError):
            ArmProfile(1.0, p)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(DomainError):
            ArmProfile(0.0, 0.2)

    @given(
        mu=st.floats(0.01, 50.0),
        p=st.floats(0.0, 0.99, exclude_max=False),
    )
    def test_overdispersion(self, mu, p):
        arm = ArmProfile(mu, p)
        var = marginal_variance(arm)
        assert var >= arm.mu
        if p > 1e-9:
            assert var > arm.mu  # strict once structural zeros exist


class TestMarginalVariance:
    def test_poisson_limit(self):
        assert marginal_variance(ArmProfile(1.0, 0.0)) == 1.0

    def test_half_inflated(self):
        assert marginal_variance(ArmProfile(1.0, 0.5)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_application_profile(self):
        arm = ArmProfile(1.21, 0.121)
        expected = 1.21 + (0.121 / 0.879) * 1.21**2
        assert marginal_variance(arm) == pytest.approx(expected, abs=1e-12)
        assert marginal_variance(arm) == pytest.approx(1.4115, abs=5e-5)

    def test_monte_carlo_mixture(self):
        # independent check of the variance identity by simulating the mixture
        rng = np.random.default_rng(1234)
        arm = ArmProfile(1.0, 0.5)
        structural = rng.random(10**6) < arm.p
        draws = np.where(structural, 0, rng.poisson(arm.lam, 10**6))
        assert draws.var() == pytest.approx(marginal_variance(arm), rel=0.01)
        assert draws.mean() == pytest.approx(arm.mu, rel=0.01)


class TestZeroProbability:
    def test_pure_poisson(self):
        arm = ArmProfile(1.0, 0.0)
        assert zero_probability(arm) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_degenerate_point_mass(self):
        arm = ArmProfile(1e-9, 1.0 - 1e-9)
        assert zero_probability(arm) > 0.999

    def test_application_target(self):
        arm = ArmProfile(1.21, 0.19)
        assert zero_probability(arm) == pytest.approx(0.3718, abs=5e-4)


class TestP2FromQ:
    def test_q_zero_keeps_p1(self):
        assert p2_from_q(0.5, -0.431, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_reference_point(self):
        assert p2_from_q(0.5, -0.431, 0.5) == pytest.approx(0.59693, abs=1e-5)

    def test_application_point(self):
        # direct evaluation: 1 - exp(-0.09025) * 0.879
        assert p2_from_q(0.121, -0.1805, 0.5) == pytest.approx(0.196855, abs=1e-5)

    def test_positive_effect_can_escape_range(self):
        with pytest.raises(DomainError):
            p2_from_q(0.1, 1.5, 1.0)

    @pytest.mark.parametrize("q", [-0.01, 1.2])
    def test_q_out_of_range(self, q):
        with pytest.raises(DomainError):
            p2_from_q(0.5, -0.431, q)


class TestDecomposeEffect:
    def test_equal_zero_probabilities_give_q_zero(self):
        design = build_design(
            mu1=1.0, beta2=math.log(0.65), p1=0.5, p2=0.5,
            rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
        )
        split = decompose_effect(design)
        assert split.zero_log_effect == pytest.approx(0.0, abs=1e-12)
        assert split.q == pytest.approx(0.0, abs=1e-12)

    def test_reference_split(self):
        design = grid_design(q=0.5)
        split = decompose_effect(design)
        assert split.zero_log_effect == pytest.approx(
            math.log(0.40307 / 0.5), abs=1e-4
        )
        assert split.q == pytest.approx(0.5, abs=1e-10)
        assert split.poisson_log_effect + split.zero_log_effect == pytest.approx(
            design.beta2, abs=1e-12
        )

    def test_no_structural_zeros(self):
        design = build_design(
            mu1=1.0, beta2=-0.7, p1=0.0, p2=0.0,
            rho_s=0.0, rho_u=0.0, cluster_sizes=DU_34_56,
        )
        assert decompose_effect(design).q == pytest.approx(0.0, abs=1e-12)

    def test_null_effect_has_undefined_q(self):
        assert decompose_effect(grid_design().under_null()).q is None

    @pytest.mark.parametrize("beta2", [-1.0, -0.431, -0.18])
    @pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_round_trip(self, beta2, q):
        design = grid_design(beta2=beta2, q=q)
        assert decompose_effect(design).q == pytest.approx(q, abs=1e-10)


class TestInferP1:
    def test_no_inflation_needed(self):
        assert infer_p1_from_observed(1.21, math.exp(-1.21)) == 0.0

    def test_application_mixture_root(self):
        p = infer_p1_from_observed(1.21, 0.372)
        assert p == pytest.approx(0.190, abs=2e-3)
        arm = ArmProfile(1.21, p)
        assert zero_probability(arm) == pytest.approx(0.372, abs=1e-8)

    def test_forward_check(self):
        p = infer_p1_from_observed(1.0, 0.60)
        lam = 1.0 / (1.0 - p)
        assert p + (1 - p) * math.exp(-lam) == pytest.approx(0.60, abs=1e-8)

    def test_objective_is_monotone(self):
        for mean in (0.2, 1.0, 1.21, 5.0):
            grid = np.linspace(0.0, 1.0 - 1e-6, 400)
            values = [p + (1 - p) * math.exp(-mean / (1 - p)) for p in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    @given(p=st.floats(0.001, 0.95), mean=st.floats(0.05, 10.0))
    def test_round_trip_property(self, p, mean):
        target = zero_probability(ArmProfile(mean, p))
        recovered = infer_p1_from_observed(mean, target)
        assert recovered == pytest.approx(p, abs=1e-7)

    def test_matches_brentq(self):
        # brentq's default xtol of 2e-12 is looser than the bound
        for mean in (0.05, 0.3, 1.0, 1.21, 4.0, 10.0):
            for p in (1e-6, 0.01, 0.19, 0.5, 0.8, 0.95):
                target = p + (1 - p) * math.exp(-mean / (1 - p))
                root = optimize.brentq(
                    lambda x: x + (1 - x) * math.exp(-mean / (1 - x)) - target,
                    0.0, 1.0 - 1e-9, xtol=1e-15,
                )
                assert abs(infer_p1_from_observed(mean, target) - root) <= 1e-12, (mean, p)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            infer_p1_from_observed(-1.0, 0.5)
        with pytest.raises(DomainError):
            infer_p1_from_observed(1.0, 1.0)


class TestPairwiseCovariance:
    def test_reference_value(self):
        arm = ArmProfile(1.0, 0.5)
        assert pairwise_covariance_factor(arm, 0.03, 0.03) == pytest.approx(
            0.04545, abs=1e-12
        )

    def test_vanishes_without_shared_structure(self):
        arm = ArmProfile(2.7, 0.0)
        assert pairwise_covariance_factor(arm, 0.9, 0.0) == 0.0

    def test_intervention_arm_value(self):
        arm = ArmProfile(0.64986, 0.59693)
        assert pairwise_covariance_factor(arm, 0.05, 0.05) == pytest.approx(
            0.045339, abs=1e-5
        )

    def test_matches_enumeration_oracle(self):
        for mu in (0.2, 0.64986, 1.0, 2.5, 7.0):
            for p in (0.0, 0.1, 0.3, 0.5, 0.8):
                for rho_s in (0.0, 0.03, 0.2):
                    for rho_u in (0.0, 0.05, 0.4):
                        arm = ArmProfile(mu, p)
                        closed = pairwise_covariance_factor(arm, rho_s, rho_u)
                        oracle = enumerated_pair_covariance(mu, p, rho_s, rho_u)
                        assert closed == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_a_mean_whose_square_overflows_is_a_domain_error(self, p):
        # mu**2 raised OverflowError, even where p == 0 makes its term 0
        arm = ArmProfile(1e300, p)
        with pytest.raises(DomainError, match=r"mean mu=1e\+300 is too large"):
            pairwise_covariance_factor(arm, 0.03, 0.03)
        with pytest.raises(DomainError, match=r"mean mu=1e\+300 is too large"):
            marginal_variance(arm)

    def test_monotone_in_both_correlations(self):
        arm = ArmProfile(1.3, 0.4)
        grid = np.linspace(0.0, 0.6, 13)
        in_rho_u = [pairwise_covariance_factor(arm, 0.1, r) for r in grid]
        in_rho_s = [pairwise_covariance_factor(arm, r, 0.1) for r in grid]
        assert all(b > a for a, b in zip(in_rho_u, in_rho_u[1:]))
        assert all(b > a for a, b in zip(in_rho_s, in_rho_s[1:]))


class TestClusterSizeModel:
    def test_discrete_uniform_moments(self):
        model = ClusterSizeModel.discrete_uniform(34, 56)
        assert model.eta_m == 45.0
        assert model.sigma2_m == 44.0

    def test_wide_uniform_moments(self):
        model = ClusterSizeModel.discrete_uniform(10, 80)
        assert model.eta_m == 45.0
        assert model.sigma2_m == 420.0

    def test_fixed_moments(self):
        model = ClusterSizeModel.fixed(45)
        assert (model.eta_m, model.sigma2_m) == (45.0, 0.0)

    def test_truncated_poisson_moments_match_direct_summation(self):
        model = ClusterSizeModel.truncated_poisson(45.0, 20, 70)
        # independent renormalized-pmf summation via log factorials
        log_rate = math.log(45.0)
        weights = [
            math.exp(-45.0 + k * log_rate - math.lgamma(k + 1)) for k in range(20, 71)
        ]
        total = sum(weights)
        mean = sum(k * w for k, w in zip(range(20, 71), weights)) / total
        second = sum(k * k * w for k, w in zip(range(20, 71), weights)) / total
        assert model.eta_m == pytest.approx(mean, abs=1e-10)
        assert model.sigma2_m == pytest.approx(second - mean**2, abs=1e-8)
        assert model.eta_m == pytest.approx(45.0, abs=0.01)
        assert model.sigma2_m == pytest.approx(44.8, abs=0.1)

    @pytest.mark.parametrize("rate, lo, hi", [
        (45.0, 20, 70), (45.0, 90, 100), (45.0, 40, 50), (0.5, 1, 5), (3.0, 1, 10),
        (20.0, 1, 200), (500.0, 400, 600), (1000.0, 1, 3000),
    ])
    def test_truncated_poisson_moments_match_scipy(self, rate, lo, hi):
        model = ClusterSizeModel.truncated_poisson(rate, lo, hi)
        support = np.arange(lo, hi + 1)
        pmf = stats.poisson.pmf(support, rate)
        pmf /= pmf.sum()
        eta = np.dot(support, pmf)
        sigma2 = np.dot((support - eta) ** 2, pmf)
        assert abs(model.eta_m / eta - 1.0) <= 1e-12
        assert abs(model.sigma2_m / sigma2 - 1.0) <= 1e-12

    def test_truncated_poisson_without_mass_is_rejected(self):
        with pytest.raises(DomainError, match="no mass"):
            ClusterSizeModel.truncated_poisson(1e-5, 200, 300)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, None])
    def test_truncated_poisson_needs_a_finite_positive_rate(self, rate):
        # a NaN or infinite rate left every size at lo, or crashed the sizer
        with pytest.raises(DomainError, match="requires a finite rate > 0"):
            ClusterSizeModel(kind="truncated_poisson", lo=20, hi=70, rate=rate)

    def test_validation(self):
        with pytest.raises(DomainError):
            ClusterSizeModel.discrete_uniform(0, 5)
        with pytest.raises(DomainError):
            ClusterSizeModel.discrete_uniform(6, 5)
        with pytest.raises(DomainError):
            ClusterSizeModel.truncated_poisson(-1.0, 2, 5)
        with pytest.raises(DomainError):
            ClusterSizeModel(kind="poisson", lo=1, hi=5)


class TestBuildDesign:
    def test_default_q_is_half(self):
        explicit = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5,
            rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
        )
        implicit = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5,
            rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
        )
        assert implicit.intervention.p == explicit.intervention.p

    def test_consistent_p2_and_q_accepted(self):
        p2 = p2_from_q(0.5, -0.431, 0.5)
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, p2=p2,
            rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
        )
        assert design.intervention.p == pytest.approx(p2, abs=1e-12)

    def test_contradictory_p2_and_q_rejected(self):
        with pytest.raises(ConfigError, match="contradictory"):
            build_design(
                mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, p2=0.7,
                rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
            )

    def test_mu1_xor_beta1(self):
        with pytest.raises(ConfigError):
            build_design(
                mu1=1.0, beta1=0.0, beta2=-0.431, p1=0.5,
                rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56,
            )
        with pytest.raises(ConfigError):
            build_design(
                beta2=-0.431, p1=0.5, rho_s=0.03, rho_u=0.03,
                cluster_sizes=DU_34_56,
            )

    @pytest.mark.parametrize("means, key", [
        (dict(beta1=1000.0), "'beta1'=1000.0 makes the control mean"),
        (dict(mu1=1e300, beta2=100.0), "'beta2'=100.0 makes the intervention mean"),
    ], ids=["beta1", "beta2"])
    def test_an_arm_mean_that_overflows_names_its_key(self, means, key):
        # math.exp raised OverflowError
        means = {"beta2": -0.431, **means}
        with pytest.raises(DomainError, match=key):
            build_design(**means, p1=0.0, q=0.0, rho_s=0.03, rho_u=0.03, cluster_sizes=DU_34_56)

    @pytest.mark.parametrize("means, key", [
        (dict(mu1=1e19), r"'mu1'=1e\+19 with cluster_size.hi=5 gives the control arm"),
        (dict(beta1=math.log(1e19)), "'beta1'=43.749"),
        (dict(mu1=1e17, beta2=math.log(20.0)), "'beta2'=2.995.* gives the intervention arm"),
    ], ids=["mu1", "beta1", "beta2"])
    def test_a_cluster_mean_beyond_the_draw_bound_names_its_key(self, means, key):
        # numpy's Poisson draw refused the mean hi * lam with a bare ValueError
        means = {"beta2": -0.431, **means}
        with pytest.raises(DomainError, match=key):
            build_design(**means, p1=0.0, q=0.0, rho_s=0.03, rho_u=0.03,
                         cluster_sizes=ClusterSizeModel.discrete_uniform(3, 5))

    def test_the_draw_bound_is_on_hi_times_lam(self):
        # lam = mu1 with p1 = 0, so hi * lam crosses MAX_CLUSTER_MEAN with mu1
        at_bound = MAX_CLUSTER_MEAN / 4
        sizes = ClusterSizeModel.discrete_uniform(3, 4)
        build_design(mu1=at_bound * (1 - 1e-9), beta2=-0.431, p1=0.0, q=0.0, rho_s=0.03,
                     rho_u=0.03, cluster_sizes=sizes)
        with pytest.raises(DomainError, match="simulation needs it below"):
            build_design(mu1=at_bound * (1 + 1e-9), beta2=-0.431, p1=0.0, q=0.0, rho_s=0.03,
                         rho_u=0.03, cluster_sizes=sizes)

    @pytest.mark.parametrize("arm, key", [
        ("control", "'beta1'=43.749.* gives the control arm"),
        ("intervention", "'beta2'=43.749.* gives the intervention arm"),
    ])
    def test_the_draw_bound_holds_for_designs_not_built_by_build_design(self, arm, key):
        # a DesignInputs made with dataclasses.replace reached numpy's bare ValueError
        design = grid_design(cluster_sizes=ClusterSizeModel.discrete_uniform(3, 5), p1=0.0)
        if arm == "control":
            changes = dict(beta1=math.log(1e19), beta2=0.0)
        else:
            changes = dict(beta2=math.log(1e19))
        with pytest.raises(DomainError, match=key):
            dataclasses.replace(design, **changes)

    def test_under_null_shares_control_profile(self):
        design = grid_design()
        null = design.under_null()
        assert null.beta2 == 0.0
        assert null.intervention == null.control
        # a copy, not checked again, equal to the design the constructor checks
        checked = dataclasses.replace(design, beta2=0.0, p2=design.p1)
        assert vars(null) == vars(checked) and hash(null) == hash(checked)
        assert design.beta2 != 0.0 and design.intervention != design.control

    def test_the_arm_profiles_are_derived(self):
        design = DesignInputs(beta1=0.2, beta2=-0.431, p1=0.5, p2=0.6, rho_s=0.03, rho_u=0.03,
                              r_bar=0.5, cluster_sizes=DU_34_56)
        assert design.control == ArmProfile(math.exp(0.2), 0.5)
        assert design.intervention == ArmProfile(math.exp(0.2 - 0.431), 0.6)
        assert dataclasses.replace(design, p2=0.7).intervention.p == 0.7

    def test_a_large_mean_builds(self):
        # exp(log(50000)) = 50000.00000000001 missed (1 - p1) * lam by more
        # than an absolute 1e-12, and the design was rejected as inconsistent
        design = build_design(mu1=50000, beta2=-0.431, p1=0.3, q=0.5, rho_s=0.05, rho_u=0.05,
                              cluster_sizes=DU_34_56)
        assert design.control.mu == math.exp(design.beta1)
        assert design.control.lam == design.control.mu / 0.7

    @given(
        log10_mu1=st.floats(-3.0, 12.0),
        p1=st.floats(0.0, 0.95),
        beta2=st.floats(-2.0, -0.01),
        q=st.floats(0.0, 1.0),
    )
    def test_every_mean_and_zero_probability_builds(self, log10_mu1, p1, beta2, q):
        # hi * lam is at most 56 * 1e12 / 0.05, far inside MAX_CLUSTER_MEAN,
        # so each of these designs can be simulated and must build
        design = build_design(mu1=10.0**log10_mu1, beta2=beta2, p1=p1, q=q, rho_s=0.05,
                              rho_u=0.05, cluster_sizes=DU_34_56)
        for arm, p in ((design.control, p1), (design.intervention, p2_from_q(p1, beta2, q))):
            assert arm.p == p
            assert arm.lam == arm.mu / (1.0 - p)
