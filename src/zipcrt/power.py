"""Design variance and required numbers of clusters.

The test statistic for the overall effect is asymptotically normal with
variance ``sigma2_sq / N`` where ``N`` is the number of clusters, so the
cluster count needed for two-sided level ``alpha`` and power ``1 - gamma``
is ``sigma2_sq * (z_{1-alpha/2} + z_{1-gamma})**2 / beta2**2``, rounded up.
A refinement replaces the normal quantiles by Student-t quantiles whose
degrees of freedom come from a first normal-based pass (clusters minus the
two regression parameters), which guards against the optimism of the normal
approximation when few clusters are affordable.

The normal and Student-t quantiles and CDFs are computed here with the
standard library alone: the normal ones from ``statistics.NormalDist`` and
``math.erfc``, the t tail as a regularized incomplete beta function.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .design import DesignInputs, _odds, p2_from_q, pairwise_covariance_factor
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


_STANDARD_NORMAL = statistics.NormalDist()
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_CF_TERMS = 100_000  # the t CDF's continued fraction needs O(sqrt(df)) terms
_MAX_CLUSTERS = 2.0**53  # the largest count up to which every integer is a float


@functools.lru_cache(maxsize=256)
def normal_quantile(prob: float) -> float:
    """Standard normal inverse CDF, cached like :func:`t_quantile`."""
    if not 0.0 < prob < 1.0:
        raise DomainError(f"normal quantile needs 0 < prob < 1, got {prob}")
    return _STANDARD_NORMAL.inv_cdf(prob)


def _log_gamma_ratio(a: float) -> float:
    """``log Gamma(a + 1/2) - log Gamma(a)``.

    From a = 25 on this is the asymptotic series, whose first omitted term
    is below 1e-17 there: the difference of two ``lgamma`` values would
    lose about ``1e-16 * a * log(a)`` to cancellation.
    """
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    series = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b) * a * B(a, b) / (x**a * (1 - x)**b)``.

    Modified Lentz evaluation; it converges fast for
    ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_TERMS):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2e-16:
            break
    return h


def _t_split(t: float, df: float) -> tuple[float, float, float]:
    """``P(T > t)``, ``P(|T| < t)`` and ``t`` times the density, for ``t > 0``.

    With ``x = df / (df + t**2)`` the tail is ``I_x(df/2, 1/2) / 2`` and the
    central probability ``I_{1-x}(1/2, df/2)``.  The continued fraction is
    summed for the one it converges fast for, which near either end is the
    small one, so it keeps its relative accuracy; the other is its
    complement.
    """
    a = 0.5 * df
    tt = t * t
    x, y = df / (df + tt), tt / (df + tt)  # y = 1 - x without cancellation
    # x**a * y**(1/2) / B(a, 1/2), which is also t times the density
    front = math.exp(
        _log_gamma_ratio(a) - a * math.log1p(tt / df) + 0.5 * math.log(y) - _LOG_SQRT_PI
    )
    if x < (a + 1.0) / (a + 2.5):
        tail = 0.5 * front * _beta_continued_fraction(a, 0.5, x) / a
        return tail, 1.0 - 2.0 * tail, front
    central = 2.0 * front * _beta_continued_fraction(0.5, a, y)
    return 0.5 - 0.5 * central, central, front


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF for real ``df >= 1``."""
    if df < 1:
        raise DomainError(f"t CDF needs df >= 1, got {df}")
    if t == 0.0:
        return 0.5
    tail, central, _ = _t_split(abs(t), df)
    return tail if t < 0.0 else 0.5 + 0.5 * central


def _cornish_fisher(z: float, df: float) -> tuple[float, float]:
    """The t quantile's expansion in ``1 / df`` about the normal quantile
    ``z``, to the ``df**-4`` term, and the first term it omits."""
    s = z * z
    g1 = (s + 1.0) * z / 4.0
    g2 = ((5.0 * s + 16.0) * s + 3.0) * z / 96.0
    g3 = (((3.0 * s + 19.0) * s + 17.0) * s - 15.0) * z / 384.0
    g4 = ((((79.0 * s + 776.0) * s + 1482.0) * s - 1920.0) * s - 945.0) * z / 92160.0
    g5 = (((((27.0 * s + 339.0) * s + 930.0) * s - 1782.0) * s - 765.0) * s + 17955.0) * z
    omitted = g5 / 368640.0 * (1.0 / df) ** 5
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df, omitted


@functools.lru_cache(maxsize=256)
def t_quantile(df: float, prob: float) -> float:
    """Student-t inverse CDF for real ``df >= 1``.

    Closed forms at df 1 and 2.  Otherwise the Cornish-Fisher value, which
    is the quantile once the first term it omits is below half an ulp of
    it (from about df = 1,500 at ``prob = 0.975``), where the CDF's
    continued fraction would need O(sqrt(df)) terms.  Below that, Newton's
    method from the Cornish-Fisher value, on the log of ``P(T > |t|)`` (or,
    near ``prob = 0.5``, of ``P(|T| < |t|)``, so that a small quantile keeps
    its relative accuracy) as a function of ``log |t|``.  On that scale a
    heavy tail is nearly a straight line, so the iterates reach even a far
    root in a few steps.  They stop once a step is below 1e-13 or no
    smaller than the one before, which happens only at the CDF's rounding
    noise.  Cached per ``(df, prob)``, since a study tests every replicate
    at one critical value.
    """
    if df < 1:
        raise DomainError(f"t quantile needs df >= 1, got {df}")
    if not 0.0 < prob < 1.0:
        raise DomainError(f"t quantile needs 0 < prob < 1, got {prob}")
    sign = 1.0 if prob > 0.5 else -1.0
    tail = min(prob, 1.0 - prob)  # exact: 1 - prob for prob >= 0.5
    central = 1.0 - 2.0 * tail  # exact for tail >= 0.25
    if central == 0.0:
        return 0.0
    if df == 1:
        t = 1.0 / math.tan(math.pi * tail) if tail < 0.25 else math.tan(0.5 * math.pi * central)
    elif df == 2:
        t = central / math.sqrt(2.0 * tail * (1.0 - tail))
    else:
        t, omitted = _cornish_fisher(-normal_quantile(tail), df)
        if abs(omitted) > 0.5 * math.ulp(t):
            previous = math.inf
            for _ in range(100):
                upper, inner, front = _t_split(t, df)
                if tail < 0.25:
                    step = math.log(upper / tail) * upper / front
                else:
                    step = -math.log(inner / central) * inner / (2.0 * front)
                if abs(step) >= previous:  # the rounding noise of the CDF
                    break
                t *= math.exp(step)
                if abs(step) <= 1e-13:
                    break
                previous = abs(step)
            else:
                raise DomainError(f"t quantile did not converge at df={df}, prob={prob}")
    return sign * t


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
    eta = design.cluster_sizes.eta_m
    pair_mass = eta * eta + design.cluster_sizes.sigma2_m - eta
    total = 0.0
    for arm, share in ((design.control, 1.0 - design.r_bar), (design.intervention, design.r_bar)):
        zeta = pairwise_covariance_factor(arm, design.rho_s, design.rho_u)
        block = eta * arm.mu * (1.0 + _odds(arm.p) * arm.mu) + pair_mass * zeta
        total += block / (share * arm.mu**2 * eta**2)
    return total


def _raw_count(sigma2_sq: float, quantile_sum: float, beta2: float) -> float:
    """The unrounded cluster count ``sigma2_sq * quantile_sum**2 / beta2**2``.

    Raises:
        DomainError: the count is not finite or exceeds 2**53, past which a
            cluster count is not an exact float.
    """
    effect = beta2**2
    n_raw = sigma2_sq * quantile_sum**2 / effect if effect > 0.0 else math.inf
    if not n_raw <= _MAX_CLUSTERS:
        raise DomainError(
            f"beta2 = {beta2} is too small an effect to size: it needs {n_raw:.4g} "
            f"clusters, more than 2**53"
        )
    return n_raw


def sample_size_normal(design: DesignInputs) -> SampleSizeResult:
    """Required clusters under the normal approximation."""
    if design.beta2 == 0.0:
        raise DomainError("beta2 == 0: effect size undefined for sample size")
    sigma2_sq = design_variance(design)
    quantile_sum = normal_quantile(1.0 - design.alpha / 2.0) + normal_quantile(
        design.power
    )
    n_raw = _raw_count(sigma2_sq, quantile_sum, design.beta2)
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
    n_raw = _raw_count(normal_result.sigma2_sq, quantile_sum, design.beta2)
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
        return 0.5 * math.erfc((normal_quantile(prob) - delta) / math.sqrt(2.0))
    if reference == "t":
        df = n_clusters - 2
        return t_cdf(delta - t_quantile(df, prob), df)
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
            p2 = p2_from_q(design.p1, design.beta2, q)
            entries.append(QSweepEntry(q=q, p2=p2, result=size(replace(design, p2=p2))))
        except DomainError as exc:
            entries.append(QSweepEntry(q=q, p2=None, result=None, error=str(exc)))
    return entries
