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
are fewer than 3 clusters to delete from.  The checks that name the failure
run only when a guard fails: ``N >= 3``, both arms present in every row,
and every leave-one-out subject total ``M_a - m_i`` and outcome total
``S_a - Y_i`` positive.  Those totals imply a positive ``S_a``, since an
arm's ``k`` clusters' totals sum to ``(k - 1) * S_a``.  Likewise the Wald
test checks ``sigma2_sq`` row by row only when one is not positive.

A fit keeps each estimator's covariance in ``GeeFit.variance[name]``;
:meth:`GeeFit.se` gives its standard errors and :meth:`GeeFit.sigma2_sq`
its variance of ``sqrt(N) * beta2_hat``, the scale of the Wald test.

The log-means, each estimator's terms and the failure checks are written
once, in ``_fit_rows``, over an ``(R, N)`` array of each cluster's arm and
one ``(2, R, N)`` array of its ``m_i`` and ``Y_i``, stacked, so that each
step both quantities take is one numpy call: one ``np.bincount`` gives
every row's ``M_a`` and ``S_a``, one ``take`` their leave-one-out totals,
and one more ``np.bincount`` the sums of the squared residuals and of the
squared shifts of the log-means.  The terms come back as one
``(len(ESTIMATORS), R, 2)`` array.  The work runs cluster-major, on
``(2, N, R)`` arrays, as ``np.bincount`` runs faster over a chunk's arrays
in that order and each sum still adds its row's clusters in order; the
study engine's draw lays ``my`` out that way in memory, as a transposed
view, so reading it costs no copy.  :func:`fit_zip` runs it as one row on
a :class:`zipcrt.dataset.TrialDataset`, whose per-cluster zero counts
(``TrialDataset.cluster_zeros``) give each arm's ``Z_a`` by one
``np.bincount``, and the study engine (:mod:`zipcrt.mc`) on a chunk of
``R`` replicates.  The Wald test's checks, critical value and decisions are
written once too, in ``_wald_rows``, over an ``(E, R)`` array of variances,
a row per estimator: :func:`wald_test` runs it on one statistic, and the
study engine once on a chunk's variances under every estimator.  Inside the
package the test's reference distribution is named by its ``df`` alone, as
in :func:`zipcrt.power.quantile`: ``None`` is the normal and a number is
t(``df``).  :func:`wald_test` keeps its ``reference`` string and maps it to
that ``df`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dataset import TrialDataset
from .design import infer_p1_from_observed
from .errors import DomainError, EstimationError
from .power import quantile

_ARM_NAMES = ("control", "intervention")

DF_RULES = ("n-2", "n-4")

# The variance estimators, in the order every fit, study, table and report
# lists them.
ESTIMATORS = ("naive", "jackknife")


def _logit(p: float) -> float:
    # p is 0.0 or infer_p1_from_observed's root, which is at most 1 - 1e-9
    if p <= 0.0:
        return -math.inf
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


def _arm_keys(arm: np.ndarray) -> np.ndarray:
    """The keys ``arm + 2 * (q * R + r)`` of the clusters of ``(R, N)`` arm
    indicators, for quantity ``q`` of two and row ``r``, as a cluster-major
    ``(2, N, R)`` array: every pair of per-arm sums of a row is one
    :func:`_per_arm`."""
    rows, n = arm.shape
    keys = np.empty((2, n, rows), dtype=np.intp)
    np.add(arm.T, np.arange(0, 2 * rows, 2), out=keys[0])
    np.add(keys[0], 2 * rows, out=keys[1])
    return keys


def _per_arm(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's per-arm sums of each of two stacked cluster-major ``(2, N,
    R)`` cluster values, as a ``(2, R, 2)`` array, from the clusters'
    :func:`_arm_keys`.  Each sum adds its row's clusters in order, as it
    would over row-major ``(2, R, N)`` arrays, and ``np.bincount`` sums a
    chunk's arrays laid out this way in about half the time."""
    sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=4 * keys.shape[2])
    return sums.astype(np.float64, copy=False).reshape(2, -1, 2)  # int zeros for no clusters


def _check_arms(subjects: np.ndarray, outcomes: np.ndarray, failure: list[Optional[str]]) -> None:
    """Fail each row whose arm is absent or has all-zero outcomes, so that
    its log-mean is undefined, given its per-arm ``M_a`` and ``S_a``."""
    _fail(failure, (subjects <= 0).any(axis=1), "both arms must be present in the data")
    for a, name in enumerate(_ARM_NAMES):
        _fail(failure, outcomes[:, a] <= 0, f"{name} arm has all-zero outcomes; log-mean undefined")


def _fit_rows(
    arm: np.ndarray, my: np.ndarray, ids: np.ndarray, failure: list[Optional[str]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The mean model and each variance estimator's terms for each row of
    ``(R, N)`` cluster arms and of their ``m_i`` and ``Y_i``, stacked as one
    ``(2, R, N)`` float64 array ``my``; ``ids`` numbers the N clusters.

    Returns ``(R, 2)`` arrays of the per-arm ``M_a``, ``ybar_a`` and
    ``log ybar_a``, and a ``(len(ESTIMATORS), R, 2)`` array of each
    estimator's per-arm terms ``t_a`` on the scale of ``beta_hat``, in the
    order of ``ESTIMATORS`` (see the module docstring).  A row fails in
    ``failure`` with the message :func:`fit_zip` raises on it, at the first
    of its checks; a row that has already failed keeps its message.  A
    failed row's values are meaningless.

    The work runs cluster-major (see :func:`_per_arm`): a ``my`` whose
    memory is ``(2, N, R)``, as the study engine's draw lays it out, costs
    no copy.
    """
    rows, n = arm.shape
    my = my.transpose(0, 2, 1)
    keys = _arm_keys(arm)
    totals = _per_arm(keys, my)
    subjects, outcomes = totals
    loo = totals.take(keys)
    loo -= my  # each deletion's M_a - m_i and S_a - Y_i
    # An arm's k clusters' leave-one-out totals sum to (k - 1) times its
    # total, so positive ones imply a positive total: the guard needs no
    # all-zero arm term.
    if not (n >= 3 and subjects.min() > 0 and loo.min() > 0):
        _check_arms(subjects, outcomes, failure)
        if n < 3:
            _fail(failure, np.ones(rows, dtype=bool), f"jackknife needs at least 3 clusters, got {n}")
        for what, bad in (("empties arm", loo[0] <= 0), ("leaves all-zero outcomes in arm", loo[1] <= 0)):

            def removal(r: int) -> str:
                i = np.argmax(bad[:, r])
                return f"removing cluster {ids[i]} {what} {int(arm[r, i])}"

            _fail(failure, bad.any(axis=0), removal)

    with np.errstate(divide="ignore", invalid="ignore"):
        ybar = outcomes / subjects
        log_mean = np.log(ybar)
        # each cluster's arm's ybar_a and log ybar_a, overwritten by the
        # residual Y_i - m_i ybar_a and by the shift of log ybar_a that
        # deleting the cluster makes, then squared
        deviation = np.array((ybar, log_mean)).take(keys)
        residual, shift = deviation
        residual *= my[0]
        np.subtract(my[1], residual, out=residual)
        ratio = np.divide(loo[1], loo[0], out=loo[1])
        np.subtract(np.log(ratio, out=ratio), shift, out=shift)
        np.square(deviation, out=deviation)
        terms = _per_arm(keys, deviation)
        terms[0] /= outcomes * outcomes
        # with no clusters every row has failed above, and the factor is
        # moot; with 2 it is 0, and a row with an empty arm, already
        # failed, has an inf in its sum of squared shifts
        terms[1] *= (n - 2) / n if n else 1.0
    return subjects, ybar, log_mean, terms


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

    def _covariance(self, estimator: str) -> np.ndarray:
        if estimator not in self.variance:
            raise DomainError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
        return self.variance[estimator]

    def sigma2_sq(self, estimator: str) -> float:
        """Variance of sqrt(N) * beta2_hat under the estimator."""
        return float(self.n_clusters * self._covariance(estimator)[1, 1])

    def se(self, estimator: str) -> np.ndarray:
        """Standard errors of beta_hat under the estimator."""
        return np.sqrt(np.diag(self._covariance(estimator)))

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
    alpha_level: float,
    df: Optional[int],
    failure: list[Optional[str]],
) -> tuple[np.ndarray, float, np.ndarray]:
    """:func:`wald_test` on each row of ``beta2_hat`` under each estimator,
    against the normal when ``df`` is None and t(``df``) otherwise:
    ``sigma2_sq`` is ``(E, R)``, a row of ``R`` variances per estimator, in
    the order of ``ESTIMATORS``.

    A row fails in ``failure`` with the message that one :func:`wald_test`
    per estimator, in that order, raises on it first; a row that has
    already failed keeps its message.  Returns the ``(E, R)`` statistics,
    the two-sided critical value (``inf`` when it is undefined) and the
    ``(E, R)`` decisions; a failed row is never rejected, under any
    estimator.
    """
    critical, error = math.inf, None
    try:
        if not (0.0 < alpha_level < 1.0):
            raise DomainError(f"alpha_level must lie in (0, 1), got {alpha_level}")
        critical = quantile(1.0 - alpha_level / 2.0, df)
    except DomainError as exc:
        error = str(exc)
    if error is not None or not (sigma2_sq.min() > 0.0):  # nan is not positive
        # each wald_test checks its variance, then the critical value
        for e, bad_e in enumerate(~(sigma2_sq > 0.0)):
            _fail(failure, bad_e, lambda r, e=e: f"sigma2_sq must be positive, got {float(sigma2_sq[e, r])}")
            if error is not None:
                _fail(failure, np.ones(len(failure), dtype=bool), error)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = math.sqrt(n_clusters) * beta2_hat / np.sqrt(sigma2_sq)
    reject = np.abs(statistic) > critical
    if failure.count(None) < len(failure):
        reject &= np.array([f is None for f in failure])
    return statistic, critical, reject


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
    ``reference`` is ``"normal"``, which ignores ``df``, or ``"t"``, whose
    ``df`` defaults to ``n_clusters - 2``.
    """
    if reference not in ("normal", "t"):
        raise DomainError(f"reference must be 'normal' or 't', got {reference!r}")
    if reference == "normal":
        df = None
    elif df is None:
        df = _test_df("n-2", n_clusters)
    failure: list[Optional[str]] = [None]
    statistic, critical, reject = _wald_rows(
        np.array([beta2_hat], dtype=np.float64), np.array([[sigma2_sq]], dtype=np.float64),
        n_clusters, alpha_level, df, failure,
    )
    if failure[0] is not None:
        raise DomainError(failure[0])
    return WaldTest(
        statistic=float(statistic[0, 0]),
        reference=reference,
        df=df,
        critical_value=critical,
        reject=bool(reject[0, 0]),
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
        np.array((data.size, data.cluster_sums(data.outcomes)), dtype=np.float64)[:, None],
        data.cluster_id,
        failure,
    )
    if failure[0] is not None:
        raise EstimationError(failure[0])

    zeros = np.bincount(arm, weights=data.cluster_zeros(), minlength=2).tolist()
    p_hat = tuple(
        infer_p1_from_observed(float(ybar[0, a]), float(z / subjects[0, a])) if z > 0 else 0.0
        for a, z in enumerate(zeros)
    )

    return GeeFit(
        beta_hat=np.array([log_mean[0, 0], log_mean[0, 1] - log_mean[0, 0]]),
        alpha_hat=_alpha_from_p(*p_hat),
        p_hat=p_hat,
        variance={name: _arm_diagonal(*t[0]) for name, t in zip(ESTIMATORS, terms)},
        degenerate=bool(min(zeros) == 0),
        n_clusters=data.n_clusters,
    )
