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

The log-means, ``s_a``, ``d_a`` and the failure checks are written once, in
``_fit_rows``, over ``(R, N)`` arrays of each cluster's arm, ``m_i`` and
``Y_i``: :func:`fit_zip` runs it on its dataset as one row, and the study
engine (:mod:`zipcrt.mc`) on a chunk of ``R`` replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .design import infer_p1_from_observed
from .errors import DomainError, EstimationError
from .power import normal_quantile, t_quantile
from .simulate import TrialDataset

_ARM_NAMES = ("control", "intervention")

DF_RULES = ("n-2", "n-4")


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


def _fail(
    failure: list[Optional[str]], bad: np.ndarray, message: Union[str, Callable[[int], str]]
) -> None:
    """Give each row flagged in ``bad`` that has not failed yet ``message``, or
    ``message(r)`` when it is callable."""
    for r in bad.nonzero()[0]:
        if failure[r] is None:
            failure[r] = message(r) if callable(message) else message


def _per_arm(key: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """Each row's per-arm sums of a cluster value, as an ``(R, 2)`` array, from
    each cluster's key ``arm + 2 * row``; each sum adds its clusters in order."""
    return np.bincount(key.ravel(), weights=values.ravel(), minlength=2 * rows).reshape(rows, 2)


def _arm_sums(
    key: np.ndarray, m: np.ndarray, y: np.ndarray, failure: list[Optional[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's per-arm ``M_a`` and ``S_a``, as ``(R, 2)`` arrays, from each
    cluster's key ``arm + 2 * row``, ``m_i`` and ``Y_i``.

    A row whose arm is absent or has all-zero outcomes, so that its log-mean
    is undefined, fails in ``failure``.
    """
    subjects = _per_arm(key, m, len(failure))
    outcomes = _per_arm(key, y, len(failure))
    _fail(failure, (subjects <= 0).any(axis=1), "both arms must be present in the data")
    for a, name in enumerate(_ARM_NAMES):
        _fail(failure, outcomes[:, a] <= 0, f"{name} arm has all-zero outcomes; log-mean undefined")
    return subjects, outcomes


def _fit_rows(
    arm: np.ndarray, m: np.ndarray, y: np.ndarray, ids: np.ndarray, failure: list[Optional[str]]
) -> tuple[np.ndarray, ...]:
    """The mean model and both variances' terms for each row of ``(R, N)``
    cluster arrays: arm, ``m_i``, ``Y_i``; ``ids`` numbers the N clusters.

    Returns ``(R, 2)`` arrays of the per-arm ``M_a``, ``ybar_a``,
    ``log ybar_a``, sandwich terms ``s_a`` and Jackknife terms ``d_a`` (see
    the module docstring).  A row fails in ``failure`` with the message
    :func:`fit_zip` raises on it, at the first of its checks; a row that has
    already failed keeps its message.  A failed row's values are
    meaningless.
    """
    rows, n = arm.shape
    key = arm + 2 * np.arange(rows)[:, None]
    subjects, outcomes = _arm_sums(key, m, y, failure)
    if n < 3:
        _fail(failure, np.ones(rows, dtype=bool), f"jackknife needs at least 3 clusters, got {n}")

    with np.errstate(divide="ignore", invalid="ignore"):
        ybar = outcomes / subjects
        log_mean = np.log(ybar)
        residual = y - m * ybar.take(key)
        s = _per_arm(key, residual * residual, rows) / (outcomes * outcomes)

        loo_subjects = subjects.take(key) - m
        loo_outcomes = outcomes.take(key) - y
        for what, bad in (
            ("empties arm", loo_subjects <= 0),
            ("leaves all-zero outcomes in arm", loo_outcomes <= 0),
        ):

            def removal(r: int) -> str:
                i = np.argmax(bad[r])
                return f"removing cluster {ids[i]} {what} {int(arm[r, i])}"

            _fail(failure, bad.any(axis=1), removal)
        delta = np.log(loo_outcomes / loo_subjects) - log_mean.take(key)
        d = _per_arm(key, delta * delta, rows)
    return subjects, ybar, log_mean, s, d


@dataclass
class GeeFit:
    """Complete fit: estimates, both variance matrices, and diagnostics.

    ``sigma_naive`` is the sandwich covariance of ``sqrt(N) * beta_hat``;
    ``sigma_jackknife`` is the leave-one-cluster-out covariance of
    ``beta_hat``.  Use :meth:`sigma2_sq` or the ``se_*`` properties rather
    than mixing the raw scales.  ``alpha_hat`` is the zero model on the
    logit scale (intercept, arm contrast); a component is ``-inf`` when its
    arm's ``p_hat`` is at the boundary 0, and the contrast is 0 when both
    are.  ``degenerate`` flags an arm with no zeros at all.
    """

    beta_hat: np.ndarray
    alpha_hat: np.ndarray
    p_hat: tuple[float, float]
    sigma_naive: np.ndarray
    sigma_jackknife: np.ndarray
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


def _test_df(rule: str, n_clusters: int) -> int:
    """The t reference's degrees of freedom under a rule of ``DF_RULES``."""
    return n_clusters - 2 if rule == "n-2" else n_clusters - 4


def _critical_value(reference: str, alpha_level: float, df: Optional[int]) -> float:
    """The two-sided Wald test's normal or t(``df``) quantile.

    Raises:
        DomainError: an unknown reference, or a t quantile with no degrees
            of freedom.
    """
    if reference == "normal":
        return normal_quantile(1.0 - alpha_level / 2.0)
    if reference == "t":
        return t_quantile(df, 1.0 - alpha_level / 2.0)
    raise DomainError(f"reference must be 'normal' or 't', got {reference!r}")


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
    used_df = None
    if reference == "t":
        used_df = _test_df("n-2", n_clusters) if df is None else df
    critical = _critical_value(reference, alpha_level, used_df)
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
    arm = data.arm
    failure: list[Optional[str]] = [None]
    subjects, ybar, log_mean, s, d = _fit_rows(
        arm[None],
        data.size.astype(np.float64)[None],
        data.cluster_sums(data.outcomes).astype(np.float64)[None],
        data.cluster_id,
        failure,
    )
    if failure[0] is not None:
        raise EstimationError(failure[0])

    # zero counts from byte masks: an int64 copy of the outcome column would
    # be the largest allocation of the fit
    is_zero = data.outcomes == 0
    zeros_1 = np.count_nonzero(is_zero & np.repeat(arm == 1, data.size))
    zeros = (np.count_nonzero(is_zero) - zeros_1, zeros_1)
    p_hat = tuple(
        infer_p1_from_observed(float(ybar[0, a]), float(z / subjects[0, a])) if z > 0 else 0.0
        for a, z in enumerate(zeros)
    )

    n = data.n_clusters
    return GeeFit(
        beta_hat=np.array([log_mean[0, 0], log_mean[0, 1] - log_mean[0, 0]]),
        alpha_hat=_alpha_from_p(*p_hat),
        p_hat=p_hat,
        sigma_naive=n * _arm_diagonal(*s[0]),
        sigma_jackknife=(n - 2) / n * _arm_diagonal(*d[0]),
        degenerate=bool(min(zeros) == 0),
        n_clusters=n,
    )
