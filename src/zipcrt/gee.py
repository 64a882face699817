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
  * each variance estimator of ``ESTIMATORS`` gives a covariance of
    ``beta_hat`` (entries shrink like 1/N) with the arm-diagonal form
    ``[[t_0, -t_0], [-t_0, t_0 + t_1]]``, because a control cluster moves
    the intercept and the contrast and an intervention cluster only the
    contrast.  Each is its per-arm terms ``t_a``:

      - the sandwich ("naive") ``A**-1 V A**-1 / N`` has
        ``t_a = s_a = sum_{i in a} (Y_i - m_i * ybar_a)**2 / S_a**2``;
      - the leave-one-cluster-out Jackknife has ``t_a = (N - 2) / N * d_a``,
        with ``d_a`` the sum, over the arm's clusters, of the squared
        shifts ``log((S_a - Y_i) / (M_a - m_i)) - log ybar_a``.  Deleting
        cluster ``i`` changes only its own arm's totals, so the ``N``
        refits are exact log-means of reduced totals.

``p_hat`` moves neither ``beta_hat`` nor any variance.  The working
weight ``w_a = 1 / (1 + odds(p_a) * mu_a)`` is constant within an arm, so it
factors out of the arm's score, whose root it cannot move, and it scales
the arm's information by ``w_a`` and its squared cluster scores by
``w_a**2``, which cancel in ``A**-1 V A**-1``.  No Wald decision depends on
``p_hat``.

A fit fails only when the mean model is undefined (an arm is absent or has
all-zero outcomes, in the data or after a Jackknife deletion) or when there
are fewer than 3 clusters to delete from.  A fit keeps each estimator's
covariance in ``GeeFit.variance[name]``; :meth:`GeeFit.se` gives its
standard errors and :meth:`GeeFit.sigma2_sq` its variance of
``sqrt(N) * beta2_hat``, the scale of the Wald test.

The log-means, each estimator's terms and the failure checks are written
once, in ``_fit_rows``, over ``(R, N)`` arrays of each cluster's arm,
``m_i`` and ``Y_i``: :func:`fit_zip` runs it on its dataset as one row, and
the study engine (:mod:`zipcrt.mc`) on a chunk of ``R`` replicates.  The Wald test's
checks, critical value and decisions are written once too, in
``_wald_rows``: :func:`wald_test` runs it on one statistic, and the study
engine on a chunk's variances, one estimator after another.
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

# The variance estimators, in the order every fit, study, table and report
# lists them.
ESTIMATORS = ("naive", "jackknife")


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The mean model and each variance estimator's terms for each row of
    ``(R, N)`` cluster arrays: arm, ``m_i``, ``Y_i``; ``ids`` numbers the N
    clusters.

    Returns ``(R, 2)`` arrays of the per-arm ``M_a``, ``ybar_a`` and
    ``log ybar_a``, and a mapping from each name of ``ESTIMATORS`` to its
    ``(R, 2)`` per-arm terms ``t_a`` on the scale of ``beta_hat`` (see the
    module docstring).  A row fails in ``failure`` with the message
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
    return subjects, ybar, log_mean, {"naive": s, "jackknife": (n - 2) / n * d}


@dataclass
class GeeFit:
    """Complete fit: estimates, each estimator's covariance, and diagnostics.

    ``variance[name]`` is the covariance of ``beta_hat`` under the estimator
    ``name`` of ``ESTIMATORS``.  ``alpha_hat`` is the zero model on the
    logit scale (intercept, arm contrast); a component is ``-inf`` when its
    arm's ``p_hat`` is at the boundary 0, and the contrast is 0 when both
    are.  ``degenerate`` flags an arm with no zeros at all.
    """

    beta_hat: np.ndarray
    alpha_hat: np.ndarray
    p_hat: tuple[float, float]
    variance: dict[str, np.ndarray]
    degenerate: bool
    n_clusters: int

    def sigma2_sq(self, estimator: str) -> float:
        """Variance of sqrt(N) * beta2_hat under the estimator."""
        if estimator not in self.variance:
            raise DomainError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
        return float(self.n_clusters * self.variance[estimator][1, 1])

    def se(self, estimator: str) -> np.ndarray:
        """Standard errors of beta_hat under the estimator."""
        return np.sqrt(np.diag(self.variance[estimator]))

    @property
    def se_jackknife(self) -> np.ndarray:
        # perfbench reads this name; ROADMAP item 1 deletes it
        return self.se("jackknife")


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


def _wald_rows(
    beta2_hat: np.ndarray,
    sigma2_sq: np.ndarray,
    n_clusters: int,
    reference: str,
    alpha_level: float,
    df: Optional[int],
    failure: list[Optional[str]],
) -> tuple[np.ndarray, float, np.ndarray]:
    """:func:`wald_test` on each row of ``beta2_hat`` and ``sigma2_sq``.

    A row fails in ``failure`` with the message :func:`wald_test` raises on
    it, at the first of its checks; a row that has already failed keeps its
    message.  Returns the statistics, the two-sided normal or t(``df``)
    critical value (``inf`` when it is undefined) and the decisions; a
    failed row is never rejected.
    """
    _fail(
        failure,
        ~(sigma2_sq > 0.0),
        lambda r: f"sigma2_sq must be positive, got {float(sigma2_sq[r])}",
    )
    critical = math.inf
    try:
        if not (0.0 < alpha_level < 1.0):
            raise DomainError(f"alpha_level must lie in (0, 1), got {alpha_level}")
        if reference == "normal":
            critical = normal_quantile(1.0 - alpha_level / 2.0)
        elif reference == "t":
            critical = t_quantile(df, 1.0 - alpha_level / 2.0)
        else:
            raise DomainError(f"reference must be 'normal' or 't', got {reference!r}")
    except DomainError as exc:
        _fail(failure, np.ones(len(failure), dtype=bool), str(exc))
    ok = np.array([f is None for f in failure])
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = math.sqrt(n_clusters) * beta2_hat / np.sqrt(sigma2_sq)
    return statistic, critical, ok & (np.abs(statistic) > critical)


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
    if reference == "t" and df is None:
        df = _test_df("n-2", n_clusters)
    failure: list[Optional[str]] = [None]
    statistic, critical, reject = _wald_rows(
        np.array([beta2_hat], dtype=np.float64), np.array([sigma2_sq], dtype=np.float64),
        n_clusters, reference, alpha_level, df, failure,
    )
    if failure[0] is not None:
        raise DomainError(failure[0])
    return WaldTest(
        statistic=float(statistic[0]),
        reference=reference,
        df=df if reference == "t" else None,
        critical_value=critical,
        reject=bool(reject[0]),
        alpha_level=alpha_level,
    )


def fit_zip(data: TrialDataset) -> GeeFit:
    """Fit the mean and zero models and every variance estimator on a dataset.

    Raises:
        EstimationError: an arm is absent or has all-zero outcomes, there
            are fewer than 3 clusters, or deleting a cluster empties its arm
            or leaves it all-zero.
    """
    arm = data.arm
    failure: list[Optional[str]] = [None]
    subjects, ybar, log_mean, terms = _fit_rows(
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

    return GeeFit(
        beta_hat=np.array([log_mean[0, 0], log_mean[0, 1] - log_mean[0, 0]]),
        alpha_hat=_alpha_from_p(*p_hat),
        p_hat=p_hat,
        variance={name: _arm_diagonal(*t[0]) for name, t in terms.items()},
        degenerate=bool(min(zeros) == 0),
        n_clusters=data.n_clusters,
    )
