"""Design variance and required numbers of clusters.

The test statistic for the overall effect is asymptotically normal with
variance ``sigma2_sq / N`` where ``N`` is the number of clusters, so the
cluster count needed for two-sided level ``alpha`` and power ``1 - gamma``
is ``sigma2_sq * (z_{1-alpha/2} + z_{1-gamma})**2 / beta2**2``, rounded up.
A refinement replaces the normal quantiles by Student-t quantiles whose
degrees of freedom come from a first normal-based pass (clusters minus the
two regression parameters), which guards against the optimism of the normal
approximation when few clusters are affordable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy import stats

from .design import ArmProfile, DesignInputs, _odds, p2_from_q, pairwise_covariance_factor
from .errors import DomainError


@dataclass(frozen=True)
class SampleSizeResult:
    """Outcome of a sample-size calculation.

    Attributes:
        sigma2_sq: asymptotic variance of sqrt(N) times the effect estimate.
        n_raw: unrounded cluster count.
        n_clusters: ``ceil(n_raw)``.
        df: Student-t degrees of freedom used, ``None`` for the normal basis.
        critical_basis: ``"normal"`` or ``"t"``.
    """

    sigma2_sq: float
    n_raw: float
    n_clusters: int
    df: Optional[int]
    critical_basis: str


@dataclass(frozen=True)
class QSweepEntry:
    """One row of a sensitivity sweep over the effect split ``q``."""

    q: float
    p2: Optional[float]
    result: Optional[SampleSizeResult]
    error: Optional[str] = None


@functools.lru_cache(maxsize=256)
def normal_quantile(prob: float) -> float:
    """Standard normal inverse CDF, cached like :func:`t_quantile`."""
    return float(stats.norm.ppf(prob))


@functools.lru_cache(maxsize=256)
def t_quantile(df: int, prob: float) -> float:
    """Student-t inverse CDF for integer degrees of freedom.

    Cached per ``(df, prob)``: a study tests every replicate at one critical
    value, and scipy takes about 0.1 ms to compute it.
    """
    if df < 1:
        raise DomainError(f"t quantile needs df >= 1, got {df}")
    return float(stats.t.ppf(prob, df))


def _arm_variance_block(arm: ArmProfile, design: DesignInputs) -> float:
    """Per-arm numerator: subject-level variance plus pair-covariance mass."""
    eta = design.cluster_sizes.eta_m
    pair_mass = eta * eta + design.cluster_sizes.sigma2_m - eta
    zeta = pairwise_covariance_factor(arm, design.rho_s, design.rho_u)
    return eta * arm.mu * (1.0 + _odds(arm.p) * arm.mu) + pair_mass * zeta


def design_variance(design: DesignInputs) -> float:
    """Asymptotic variance ``sigma2_sq`` of sqrt(N) times the effect estimate.

    Combines each arm's subject-level variance and within-cluster pairwise
    covariance, weighted by the allocation fractions:

        sigma2_sq = block(control) / ((1 - r_bar) * mu1**2 * eta_m**2)
                    + block(intervention) / (r_bar * mu2**2 * eta_m**2)

    where ``block(arm) = eta_m * mu * (1 + odds(p) * mu)
    + (eta_m**2 + sigma2_m - eta_m) * zeta(arm)``.
    """
    if design.r_bar in (0.0, 1.0):
        raise DomainError("degenerate allocation: r_bar must lie strictly in (0, 1)")
    eta_sq = design.cluster_sizes.eta_m**2
    control = _arm_variance_block(design.control, design) / (
        (1.0 - design.r_bar) * design.control.mu**2 * eta_sq
    )
    intervention = _arm_variance_block(design.intervention, design) / (
        design.r_bar * design.intervention.mu**2 * eta_sq
    )
    return control + intervention


def sample_size_normal(design: DesignInputs) -> SampleSizeResult:
    """Required clusters under the normal approximation."""
    if design.beta2 == 0.0:
        raise DomainError("beta2 == 0: effect size undefined for sample size")
    sigma2_sq = design_variance(design)
    quantile_sum = normal_quantile(1.0 - design.alpha / 2.0) + normal_quantile(
        design.power
    )
    n_raw = sigma2_sq * quantile_sum**2 / design.beta2**2
    return SampleSizeResult(
        sigma2_sq=sigma2_sq,
        n_raw=n_raw,
        n_clusters=math.ceil(n_raw),
        df=None,
        critical_basis="normal",
    )


def sample_size_t(design: DesignInputs) -> SampleSizeResult:
    """Required clusters under the Student-t refinement.

    Two passes: the normal-based count fixes the degrees of freedom
    (clusters minus the two regression parameters), then the t quantiles at
    those df replace the normal ones.  Always at least as large as the
    normal-based count.
    """
    normal_result = sample_size_normal(design)
    df = normal_result.n_clusters - 2
    if df < 1:
        raise DomainError(
            f"insufficient clusters for a t-based size: normal pass gave "
            f"{normal_result.n_clusters} clusters (df={df})"
        )
    quantile_sum = t_quantile(df, 1.0 - design.alpha / 2.0) + t_quantile(
        df, design.power
    )
    n_raw = normal_result.sigma2_sq * quantile_sum**2 / design.beta2**2
    return SampleSizeResult(
        sigma2_sq=normal_result.sigma2_sq,
        n_raw=n_raw,
        n_clusters=math.ceil(n_raw),
        df=df,
        critical_basis="t",
    )


def predicted_power(design: DesignInputs, n_clusters: float, reference: str) -> float:
    """The formula's power at ``n_clusters`` clusters.

    This inverts the sample-size rule: with ``delta = sqrt(N * beta2**2 /
    sigma2_sq)``, the ``"normal"`` reference gives ``Phi(delta -
    z_{1-alpha/2})`` and the ``"t"`` reference the t CDF of ``delta -
    t_{1-alpha/2}`` with ``N - 2`` degrees of freedom.  At
    ``sample_size_normal(design).n_raw`` the normal value is
    ``design.power``; at an integer N above it, the value is the power the
    rounded-up count actually buys.
    """
    delta = math.sqrt(n_clusters * design.beta2**2 / design_variance(design))
    prob = 1.0 - design.alpha / 2.0
    if reference == "normal":
        return float(stats.norm.cdf(delta - normal_quantile(prob)))
    if reference == "t":
        df = n_clusters - 2
        return float(stats.t.cdf(delta - t_quantile(df, prob), df))
    raise DomainError(f"reference must be 'normal' or 't', got {reference!r}")


def q_sweep(
    design: DesignInputs,
    q_values: Sequence[float],
    *,
    basis: str = "normal",
) -> list[QSweepEntry]:
    """Sample sizes across a grid of effect splits ``q``.

    The intervention arm is re-derived for each ``q`` with ``beta2`` held
    fixed.  Rows whose ``q`` is out of range (or yields an inadmissible p2)
    are reported with an error message instead of aborting the sweep.
    """
    if basis not in ("normal", "t"):
        raise DomainError(f"basis must be 'normal' or 't', got {basis!r}")
    size = sample_size_normal if basis == "normal" else sample_size_t
    entries: list[QSweepEntry] = []
    for q in q_values:
        try:
            p2 = p2_from_q(design.control.p, design.beta2, q)
            per_q = DesignInputs(
                control=design.control,
                intervention=ArmProfile.from_mean(design.intervention.mu, p2),
                beta1=design.beta1,
                beta2=design.beta2,
                rho_s=design.rho_s,
                rho_u=design.rho_u,
                r_bar=design.r_bar,
                cluster_sizes=design.cluster_sizes,
                alpha=design.alpha,
                power=design.power,
            )
            entries.append(QSweepEntry(q=q, p2=p2, result=size(per_q)))
        except DomainError as exc:
            entries.append(QSweepEntry(q=q, p2=None, result=None, error=str(exc)))
    return entries
