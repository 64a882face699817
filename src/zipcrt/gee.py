"""GEE estimation of the marginal ZIP model with robust variances, in closed form.

The mean model is ``log mu_i = beta1 + beta2 * r_i`` with a cluster-level
arm indicator ``r_i``, an independence working correlation and per-subject
working variances ``mu_i * (1 + odds(p_i) * mu_i)``, where the
structural-zero probabilities enter as plug-in values ``p_hat``.  With only
the intercept and the arm indicator as covariates, every estimate is a
function of the per-arm totals (subjects ``M_a``, outcome sums ``S_a``, zero
counts ``Z_a``) and the per-cluster sums:

  * the working weights are constant within an arm and cancel from the
    score and the sandwich, so ``beta_hat`` is the pair of arm log-means
    ``log(S_a / M_a)`` (intercept, contrast) whatever ``p_hat`` is;
  * the expectation-solution (ES) iteration for the zero model, which
    replaces latent zero indicators by their posterior means and re-solves
    the moment equation, has its fixed point at the root of
    ``p + (1 - p) * exp(-ybar_a / (1 - p)) = Z_a / M_a`` with
    ``ybar_a = S_a / M_a``, or at the boundary 0 when
    ``Z_a / M_a <= exp(-ybar_a)``;
  * deleting cluster ``i`` changes only its own arm's totals, so the ``N``
    leave-one-cluster-out ``beta`` of the Jackknife are log-means of reduced
    totals, evaluated in one array pass.

A fit therefore fails only when the mean model is undefined: an arm is
absent or has all-zero outcomes, in the data or after a Jackknife deletion.

Variance scale conventions (important):

  * :func:`sandwich_variance` returns the model-based covariance of
    ``sqrt(N) * beta_hat`` (entries are O(1) as N grows);
  * :func:`jackknife_variance` returns the resampling covariance of
    ``beta_hat`` itself (entries shrink like 1/N).

:meth:`GeeFit.sigma2_sq` reconciles the two scales for Wald testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import infer_p1_from_observed
from .errors import DomainError, EstimationError
from .power import normal_quantile, t_quantile
from .simulate import TrialDataset

_ARM_NAMES = ("control", "intervention")


class _ClusterStats:
    """Per-cluster aggregates of a dataset, in cluster order, and arm totals."""

    def __init__(self, data: TrialDataset):
        self.n = data.n_clusters
        self.ids = data.cluster_id
        self.arm = data.arm
        self.m = data.size.astype(np.float64)
        self.ysum = data.cluster_sums(data.outcomes).astype(np.float64)
        nzero = data.cluster_sums(data.outcomes == 0)
        self.subjects = np.bincount(self.arm, weights=self.m, minlength=2)
        self.outcomes = np.bincount(self.arm, weights=self.ysum, minlength=2)
        self.zeros = np.bincount(self.arm, weights=nzero, minlength=2)

    def log_means(self) -> np.ndarray:
        """Arm log-means ``log(S_a / M_a)``.

        Raises:
            EstimationError: an arm is absent or has all-zero outcomes.
        """
        if self.subjects.min() <= 0:
            raise EstimationError("both arms must be present in the data")
        for arm in (0, 1):
            if self.outcomes[arm] <= 0:
                raise EstimationError(
                    f"{_ARM_NAMES[arm]} arm has all-zero outcomes; log-mean undefined"
                )
        return np.log(self.outcomes / self.subjects)

    def beta(self) -> np.ndarray:
        log_mean = self.log_means()
        return np.array([log_mean[0], log_mean[1] - log_mean[0]])

    def p_hat(self) -> tuple[float, float]:
        """ES fixed point of each arm's structural-zero probability."""
        p = []
        for arm in (0, 1):
            zero_fraction = self.zeros[arm] / self.subjects[arm]
            if zero_fraction <= 0.0:  # no zeros at all: the boundary
                p.append(0.0)
            else:
                ybar = self.outcomes[arm] / self.subjects[arm]
                p.append(infer_p1_from_observed(float(ybar), float(zero_fraction)))
        return p[0], p[1]


def _logit(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


def _alpha_from_p(p0: float, p1: float) -> np.ndarray:
    """Zero-model coefficients (intercept, arm contrast) on the logit scale."""
    a1 = _logit(p0)
    a2 = _logit(p1) - a1
    if math.isnan(a2):  # both arms at the boundary: the contrast is 0, not nan
        a2 = 0.0
    return np.array([a1, a2])


@dataclass
class BetaFit:
    """Mean-model fit; ``converged`` is always True for a defined fit."""

    beta: np.ndarray
    converged: bool


@dataclass
class ESFit:
    """Joint fit of the mean model and the structural-zero model.

    ``alpha_hat`` parameterizes the zero model on the logit scale
    (intercept, arm contrast); a component is ``-inf`` when its arm's
    ``p_hat`` is at the boundary 0, and the contrast is 0 when both are.
    Each arm's ``p_hat`` is its intercept-only ZIP maximum-likelihood
    estimate; it is only a plug-in for the working weights and moves
    neither ``beta_hat`` nor either variance.  ``degenerate`` flags an arm
    with no zeros at all.  ``converged`` is always True for a defined fit.
    """

    alpha_hat: np.ndarray
    p_hat: tuple[float, float]
    beta_hat: np.ndarray
    converged: bool
    degenerate: bool


@dataclass
class GeeFit:
    """Complete fit: estimates, both variance matrices, and diagnostics.

    ``sigma_naive`` is the sandwich covariance of ``sqrt(N) * beta_hat``;
    ``sigma_jackknife`` is the leave-one-cluster-out covariance of
    ``beta_hat`` (``None`` when not computed).  Use :meth:`sigma2_sq` or the
    ``se_*`` properties rather than mixing the raw scales.  ``converged`` is
    always True for a defined fit.
    """

    beta_hat: np.ndarray
    alpha_hat: np.ndarray
    p_hat: tuple[float, float]
    sigma_naive: np.ndarray
    sigma_jackknife: Optional[np.ndarray]
    converged: bool
    degenerate: bool
    n_clusters: int

    def sigma2_sq(self, estimator: str = "naive") -> float:
        """Variance of sqrt(N) * beta2_hat under the chosen estimator."""
        if estimator == "naive":
            return float(self.sigma_naive[1, 1])
        if estimator == "jackknife":
            if self.sigma_jackknife is None:
                raise EstimationError("jackknife variance was not computed")
            return float(self.n_clusters * self.sigma_jackknife[1, 1])
        raise DomainError(f"estimator must be 'naive' or 'jackknife', got {estimator!r}")

    @property
    def se_naive(self) -> np.ndarray:
        """Standard errors of beta_hat from the sandwich estimator."""
        return np.sqrt(np.diag(self.sigma_naive) / self.n_clusters)

    @property
    def se_jackknife(self) -> Optional[np.ndarray]:
        """Standard errors of beta_hat from the Jackknife estimator."""
        if self.sigma_jackknife is None:
            return None
        return np.sqrt(np.diag(self.sigma_jackknife))


@dataclass(frozen=True)
class WaldTest:
    """Two-sided Wald decision for the overall-effect hypothesis."""

    statistic: float
    reference: str
    df: Optional[int]
    critical_value: float
    reject: bool
    alpha_level: float


def fit_beta(data: TrialDataset, p_hat: tuple[float, float]) -> BetaFit:
    """Fit the mean model given plug-in zero probabilities.

    With the cluster-level arm indicator as the only covariate the working
    weights are constant within arm and cancel from the score, so the
    solution is the pair of arm log-means for every admissible ``p_hat``.

    Raises:
        DomainError: a plug-in ``p`` outside [0, 1).
        EstimationError: an arm is absent or has all-zero outcomes.
    """
    for p in p_hat:
        if not (0.0 <= p < 1.0):
            raise DomainError(f"plug-in p must lie in [0, 1), got {p}")
    return BetaFit(beta=_ClusterStats(data).beta(), converged=True)


def conditional_zero_mean(y: int, p: float, lam: float) -> float:
    """Posterior mean of the structural-zero indicator given an outcome.

    Positive outcomes cannot be structural zeros.  For an observed zero the
    posterior probability of the structural component is
    ``[1 + ((1 - p) / p) * exp(-lam)]**-1``; when ``p == 0`` no structural
    zeros exist and the value is 0.
    """
    if y < 0:
        raise DomainError(f"counts must be nonnegative, got {y}")
    if not (0.0 <= p < 1.0):
        raise DomainError(f"p must lie in [0, 1), got {p}")
    if not (lam > 0.0):
        raise DomainError(f"lam must be positive, got {lam}")
    if y > 0 or p == 0.0:
        return 0.0
    return 1.0 / (1.0 + ((1.0 - p) / p) * math.exp(-lam))


def fit_alpha_es(data: TrialDataset) -> ESFit:
    """Estimate the zero model and mean model jointly at the ES fixed point.

    ``beta_hat`` is the pair of arm log-means and each arm's ``p_hat`` solves
    ``p + (1 - p) * exp(-ybar / (1 - p)) = zero fraction``, or is 0 when
    the zero fraction does not exceed ``exp(-ybar)``.  With an intercept per
    arm that root is also the arm's intercept-only ZIP maximum-likelihood
    estimate.  Without zero inflation the zero fraction falls at or below
    ``exp(-ybar)`` in about half the arms, which then sit at the boundary 0;
    in the others ``p_hat`` is positive by sampling chance.  The working
    weights it sets are constant within an arm and cancel, so ``p_hat``
    moves neither ``beta_hat``, the sandwich nor the Jackknife, and no Wald
    decision depends on it.  A fit is flagged ``degenerate`` when an arm
    contains no zeros.

    Raises:
        EstimationError: an arm is absent or has all-zero outcomes.
    """
    return _es_from_stats(_ClusterStats(data))


def _es_from_stats(stats: _ClusterStats) -> ESFit:
    beta = stats.beta()
    p = stats.p_hat()
    return ESFit(
        alpha_hat=_alpha_from_p(*p),
        p_hat=p,
        beta_hat=beta,
        converged=True,
        degenerate=bool(stats.zeros.min() <= 0),
    )


def _sandwich_from_stats(
    stats: _ClusterStats, beta_hat: np.ndarray, p_hat: tuple[float, float]
) -> np.ndarray:
    mu = np.exp(beta_hat[0] + beta_hat[1] * stats.arm.astype(np.float64))
    odds = np.array([p_hat[0] / (1.0 - p_hat[0]), p_hat[1] / (1.0 - p_hat[1])])
    weight = 1.0 / (1.0 + odds[stats.arm] * mu)
    residual_sum = stats.ysum - stats.m * mu

    q = np.bincount(stats.arm, weights=stats.m * mu * weight, minlength=2)
    v = np.bincount(stats.arm, weights=(weight * residual_sum) ** 2, minlength=2)
    if q[0] <= 0.0 or q[1] <= 0.0:
        raise EstimationError("singular weight matrix: an arm is absent")

    n = stats.n
    a_mat = np.array([[q[0] + q[1], q[1]], [q[1], q[1]]]) / n
    v_mat = np.array([[v[0] + v[1], v[1]], [v[1], v[1]]]) / n
    a_inv = np.linalg.inv(a_mat)
    sigma = a_inv @ v_mat @ a_inv
    return (sigma + sigma.T) / 2.0


def sandwich_variance(
    data: TrialDataset, beta_hat: np.ndarray, p_hat: tuple[float, float]
) -> np.ndarray:
    """Sandwich covariance of ``sqrt(N) * beta_hat``.

    Assembles the weighted information and the squared cluster residual
    sums (residuals within a cluster are summed before squaring, which is
    what captures the within-cluster covariance) and returns
    ``A**-1 V A**-1``.

    Raises:
        EstimationError: the information matrix is singular (one-arm data).
    """
    return _sandwich_from_stats(_ClusterStats(data), np.asarray(beta_hat), p_hat)


def _jackknife_from_stats(stats: _ClusterStats) -> np.ndarray:
    n = stats.n
    if n < 3:
        raise EstimationError(f"jackknife needs at least 3 clusters, got {n}")
    log_mean = stats.log_means()
    # Deleting cluster i leaves the other arm's totals, and so its log-mean,
    # unchanged; only its own arm's log-mean moves, by delta_i.
    loo_subjects = stats.subjects[stats.arm] - stats.m
    loo_outcomes = stats.outcomes[stats.arm] - stats.ysum
    for what, bad in (
        ("empties arm", loo_subjects <= 0),
        ("leaves all-zero outcomes in arm", loo_outcomes <= 0),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise EstimationError(
                f"removing cluster {stats.ids[i]} {what} {stats.arm[i]}"
            )
    delta = np.log(loo_outcomes / loo_subjects) - log_mean[stats.arm]
    # Deviations of (beta1, beta2) are (delta, -delta) for a control cluster
    # and (0, delta) for an intervention cluster, so sum(dev dev^T) needs
    # only each arm's sum of squared deltas.
    d0, d1 = np.bincount(stats.arm, weights=delta * delta, minlength=2)
    scale = (n - 2) / n
    return scale * np.array([[d0, -d0], [-d0, d0 + d1]])


def jackknife_variance(data: TrialDataset) -> np.ndarray:
    """Leave-one-cluster-out covariance of ``beta_hat``.

    Evaluates the fit on every dataset with one cluster removed and combines
    the deviations from the full-data estimate with the small-sample factor
    ``(N - 2) / N``.  Each deletion's ``beta`` is a pair of log-means of the
    reduced arm totals, so the refits are exact.

    Resampling at cluster level preserves the within-cluster correlation.

    Raises:
        EstimationError: fewer than 3 clusters, an arm absent or all-zero in
            the data, or a removal that empties an arm or leaves it all-zero.
    """
    return _jackknife_from_stats(_ClusterStats(data))


def wald_test(
    beta2_hat: float,
    sigma2_sq: float,
    n_clusters: int,
    reference: str = "t",
    alpha_level: float = 0.05,
    df: Optional[int] = None,
) -> WaldTest:
    """Two-sided Wald test of no overall effect.

    The statistic is ``sqrt(N) * beta2_hat / sqrt(sigma2_sq)`` with
    ``sigma2_sq`` on the sqrt(N) scale (see :meth:`GeeFit.sigma2_sq`).
    Rejection requires the absolute statistic to strictly exceed the
    reference quantile; a statistic exactly at the quantile is retained.
    ``df`` defaults to ``n_clusters - 2`` for the t reference.
    """
    if not (sigma2_sq > 0.0):
        raise DomainError(f"sigma2_sq must be positive, got {sigma2_sq}")
    if not (0.0 < alpha_level < 1.0):
        raise DomainError(f"alpha_level must lie in (0, 1), got {alpha_level}")
    statistic = math.sqrt(n_clusters) * beta2_hat / math.sqrt(sigma2_sq)
    if reference == "normal":
        critical = normal_quantile(1.0 - alpha_level / 2.0)
        used_df = None
    elif reference == "t":
        used_df = n_clusters - 2 if df is None else df
        critical = t_quantile(used_df, 1.0 - alpha_level / 2.0)
    else:
        raise DomainError(f"reference must be 'normal' or 't', got {reference!r}")
    return WaldTest(
        statistic=statistic,
        reference=reference,
        df=used_df,
        critical_value=critical,
        reject=abs(statistic) > critical,
        alpha_level=alpha_level,
    )


def fit_zip(data: TrialDataset, *, jackknife: bool = True) -> GeeFit:
    """Fit the full model and both variance estimators on a dataset.

    Raises:
        EstimationError: the mean model is undefined (see
            :func:`jackknife_variance` for the Jackknife's own conditions).
    """
    stats = _ClusterStats(data)
    es = _es_from_stats(stats)
    return GeeFit(
        beta_hat=es.beta_hat,
        alpha_hat=es.alpha_hat,
        p_hat=es.p_hat,
        sigma_naive=_sandwich_from_stats(stats, es.beta_hat, es.p_hat),
        sigma_jackknife=_jackknife_from_stats(stats) if jackknife else None,
        converged=True,
        degenerate=es.degenerate,
        n_clusters=stats.n,
    )
