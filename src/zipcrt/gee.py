"""GEE estimation of the marginal ZIP model with robust variances, in closed form.

The mean model is ``log mu_i = beta1 + beta2 * r_i`` with a cluster-level
arm indicator ``r_i``, an independence working correlation and per-subject
working variances ``mu_i * (1 + odds(p_i) * mu_i)``, where the
structural-zero probabilities enter as plug-in values ``p_hat``.  With only
the intercept and the arm indicator as covariates, every estimate is a
function of the per-cluster sizes ``m_i`` and outcome sums ``Y_i`` and of
the per-arm totals (subjects ``M_a``, outcome sums ``S_a``, zero counts
``Z_a``), with arm means ``ybar_a = S_a / M_a``:

  * ``beta_hat`` is the pair of arm log-means ``log ybar_a`` (intercept,
    contrast);
  * each arm's ``p_hat`` is the fixed point of the expectation-solution (ES)
    iteration for the zero model, which replaces latent zero indicators by
    their posterior means and re-solves the moment equation: the root of
    ``p + (1 - p) * exp(-ybar_a / (1 - p)) = Z_a / M_a``, or the boundary 0
    when ``Z_a / M_a <= exp(-ybar_a)``.  With an intercept per arm that root
    is also the arm's intercept-only ZIP maximum-likelihood estimate;
  * both variances have the arm-diagonal form
    ``[[d_0, -d_0], [-d_0, d_0 + d_1]]``, because a control cluster moves
    the intercept and the contrast and an intervention cluster only the
    contrast:

      - the sandwich ``A**-1 V A**-1`` is the covariance of
        ``sqrt(N) * beta_hat`` (entries are O(1) as N grows); it is ``N``
        times the form with ``d_a = sum_{i in a} (Y_i - m_i * ybar_a)**2 / S_a**2``;
      - the leave-one-cluster-out Jackknife is the covariance of
        ``beta_hat`` itself (entries shrink like 1/N); it is ``(N - 2) / N``
        times the form with ``d_a`` the sum, over the arm's clusters, of the
        squared shifts ``log((S_a - Y_i) / (M_a - m_i)) - log ybar_a``.
        Deleting cluster ``i`` changes only its own arm's totals, so the
        ``N`` refits are exact log-means of reduced totals.

``p_hat`` moves neither ``beta_hat`` nor either variance.  The working
weight ``w_a = 1 / (1 + odds(p_a) * mu_a)`` is constant within an arm, so it
factors out of the arm's score, whose root it cannot move, and it scales
the arm's information by ``w_a`` and its squared cluster scores by
``w_a**2``, which cancel in ``A**-1 V A**-1``.  No Wald decision depends on
``p_hat``.

A fit fails only when the mean model is undefined (an arm is absent or has
all-zero outcomes, in the data or after a Jackknife deletion) or when there
are fewer than 3 clusters to delete from.  :meth:`GeeFit.sigma2_sq` puts
both variances on the sqrt(N) scale for Wald testing.
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


def _arm_diagonal(d0: float, d1: float) -> np.ndarray:
    return np.array([[d0, -d0], [-d0, d0 + d1]])


def _arm_totals(data: TrialDataset) -> tuple[np.ndarray, ...]:
    """Per-cluster sizes ``m_i`` and outcome sums ``Y_i``, then per-arm ``M_a`` and ``S_a``.

    Raises:
        EstimationError: as :func:`_arm_sums`.
    """
    m = data.size.astype(np.float64)
    y = data.cluster_sums(data.outcomes).astype(np.float64)
    return (m, y, *_arm_sums(data.arm, m, y))


def _arm_sums(arm: np.ndarray, m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm ``M_a`` and ``S_a`` from each cluster's arm, ``m_i`` and ``Y_i``.

    Raises:
        EstimationError: an arm is absent or has all-zero outcomes, so its
            log-mean is undefined.
    """
    subjects = np.bincount(arm, weights=m, minlength=2)
    outcomes = np.bincount(arm, weights=y, minlength=2)
    if subjects.min() <= 0:
        raise EstimationError("both arms must be present in the data")
    for name, total in zip(_ARM_NAMES, outcomes):
        if total <= 0:
            raise EstimationError(f"{name} arm has all-zero outcomes; log-mean undefined")
    return subjects, outcomes


@dataclass
class GeeFit:
    """Complete fit: estimates, both variance matrices, and diagnostics.

    ``sigma_naive`` is the sandwich covariance of ``sqrt(N) * beta_hat``;
    ``sigma_jackknife`` is the leave-one-cluster-out covariance of
    ``beta_hat``.  Use :meth:`sigma2_sq` or the ``se_*`` properties rather
    than mixing the raw scales.  ``alpha_hat`` is the zero model on the
    logit scale (intercept, arm contrast); a component is ``-inf`` when its
    arm's ``p_hat`` is at the boundary 0, and the contrast is 0 when both
    are.  ``degenerate`` flags an arm with no zeros at all.  ``converged``
    is always True for a defined fit.
    """

    beta_hat: np.ndarray
    alpha_hat: np.ndarray
    p_hat: tuple[float, float]
    sigma_naive: np.ndarray
    sigma_jackknife: np.ndarray
    converged: bool
    degenerate: bool
    n_clusters: int

    def sigma2_sq(self, estimator: str = "naive") -> float:
        """Variance of sqrt(N) * beta2_hat under the chosen estimator."""
        if estimator == "naive":
            return float(self.sigma_naive[1, 1])
        if estimator == "jackknife":
            return float(self.n_clusters * self.sigma_jackknife[1, 1])
        raise DomainError(f"estimator must be 'naive' or 'jackknife', got {estimator!r}")

    @property
    def se_naive(self) -> np.ndarray:
        """Standard errors of beta_hat from the sandwich estimator."""
        return np.sqrt(np.diag(self.sigma_naive) / self.n_clusters)

    @property
    def se_jackknife(self) -> np.ndarray:
        """Standard errors of beta_hat from the Jackknife estimator."""
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


def fit_zip(data: TrialDataset) -> GeeFit:
    """Fit the mean and zero models and both variance estimators on a dataset.

    Raises:
        EstimationError: an arm is absent or has all-zero outcomes, there
            are fewer than 3 clusters, or deleting a cluster empties its arm
            or leaves it all-zero.
    """
    m, y, subjects, outcomes = _arm_totals(data)
    arm = data.arm
    ybar = outcomes / subjects
    log_mean = np.log(ybar)

    # zero counts from byte masks: an int64 copy of the outcome column would
    # be the largest allocation of the fit
    is_zero = data.outcomes == 0
    zeros_1 = np.count_nonzero(is_zero & np.repeat(arm == 1, data.size))
    zeros = (np.count_nonzero(is_zero) - zeros_1, zeros_1)
    p_hat = tuple(
        infer_p1_from_observed(float(ybar[a]), float(z / subjects[a])) if z > 0 else 0.0
        for a, z in enumerate(zeros)
    )

    residual = y - m * ybar[arm]
    s = np.bincount(arm, weights=residual * residual, minlength=2) / (outcomes * outcomes)

    n = data.n_clusters
    if n < 3:
        raise EstimationError(f"jackknife needs at least 3 clusters, got {n}")
    loo_subjects = subjects[arm] - m
    loo_outcomes = outcomes[arm] - y
    for what, bad in (
        ("empties arm", loo_subjects <= 0),
        ("leaves all-zero outcomes in arm", loo_outcomes <= 0),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise EstimationError(f"removing cluster {data.cluster_id[i]} {what} {arm[i]}")
    delta = np.log(loo_outcomes / loo_subjects) - log_mean[arm]
    d = np.bincount(arm, weights=delta * delta, minlength=2)

    return GeeFit(
        beta_hat=np.array([log_mean[0], log_mean[1] - log_mean[0]]),
        alpha_hat=_alpha_from_p(*p_hat),
        p_hat=p_hat,
        sigma_naive=n * _arm_diagonal(*s),
        sigma_jackknife=(n - 2) / n * _arm_diagonal(*d),
        converged=True,
        degenerate=bool(min(zeros) == 0),
        n_clusters=n,
    )
