"""Design variance and required numbers of clusters.

The test statistic for the overall effect is asymptotically normal with
variance ``sigma2_sq / N`` where ``N`` is the number of clusters, so the
cluster count needed for two-sided level ``alpha`` and power ``1 - gamma``
is ``sigma2_sq * (z_{1-alpha/2} + z_{1-gamma})**2 / beta2**2``, rounded up.
A refinement replaces the normal quantiles by Student-t quantiles whose
degrees of freedom come from a first normal-based pass (clusters minus the
two regression parameters), which guards against the optimism of the normal
approximation when few clusters are affordable.

A reference distribution is named by its degrees of freedom ``df`` alone:
``None`` is the standard normal and a number is Student-t with ``df``
degrees of freedom.  :func:`quantile` gives either one's quantile.  The
one sizing body behind :func:`sample_size_normal` and
:func:`sample_size_t`, :func:`predicted_power`, the Wald test's rows
(``gee._wald_rows``) and the study engine (``mc.simulate_study``) all name
their reference that way.

The normal and Student-t quantiles and CDFs are computed here with the
standard library alone: the normal ones from ``statistics.NormalDist`` and
``math.erfc``.  One function, ``_t_split``, evaluates the t distribution:
Fisher's expansion in ``1 / df`` about the normal where it is exact to an
ulp, as at every large ``df`` but in the far tails, and the regularized
incomplete beta function's continued fraction elsewhere.  ``t_cdf`` reads
its result, and ``t_quantile`` inverts it by Newton's method.  Both take a
real, finite ``df >= 1``.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .design import DesignInputs, marginal_variance, p2_from_q, pairwise_covariance_factor
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
# _t_split's continued fraction took at most 72 terms over df 1 to 1e15 and t
# 1e-12 to 1e8, near df = 145 and t = sqrt(3), where it switches between tail
# and centre and the series stops answering; 1,000 leaves a margin of 14
_CF_TERMS = 1_000
_MAX_CLUSTERS = 2.0**53  # the largest count up to which every integer is a float


@functools.lru_cache(maxsize=256)
def normal_quantile(prob: float) -> float:
    """Standard normal inverse CDF, cached like :func:`t_quantile`."""
    if not 0.0 < prob < 1.0:
        raise DomainError(f"normal quantile needs 0 < prob < 1, got {prob}")
    return _STANDARD_NORMAL.inv_cdf(prob)


def quantile(prob: float, df: Optional[float]) -> float:
    """Inverse CDF of the reference distribution ``df`` names: the standard
    normal when it is None, Student-t with ``df`` degrees of freedom otherwise."""
    return normal_quantile(prob) if df is None else t_quantile(df, prob)


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

    Raises:
        DomainError: it has not converged within ``_CF_TERMS`` terms.
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
            return h
    raise DomainError(
        f"the incomplete beta continued fraction at a={a}, b={b}, x={x} did not "
        f"converge in {_CF_TERMS} terms"
    )


# The t CDF's expansion in 1 / df about the normal CDF (Fisher, 1925),
# F(t) = Phi(t) - phi(t) * sum_k g_k(t) / df**k, where g_k is the odd
# polynomial with g_k' - t g_k = -b_k for the df**-k term b_k of the t
# density's expansion phi(t) * (1 + sum_k b_k(t) / df**k).  Each row is one
# g_k(t) = t * P_k(t**2) / d_k as (d_k, the coefficients of P_k from the
# highest power down), for k = 1 .. 9; the last is the first term omitted.
_T_CDF_SERIES = (
    (4, (1, 1)),
    (96, (3, -7, -5, -3)),
    (384, (1, -11, 14, 6, -3, -15)),
    (92160, (15, -375, 2225, -2141, -939, -213, 915, 945)),
    (368640, (3, -133, 1764, -7516, 5994, 2490, 1140, 180, 5355, 17955)),
    (185794560, (63, -4347, 101115, -946043, 3237542, -2253390, -876282, -384150, 263115,
                 129465, -2329425, -2463615)),
    (743178240, (9, -891, 32010, -519710, 3845611, -11213649, 7034364, 2607948, 1208655,
                 -783405, -2545830, -4881870, -35519715, -111486375)),
    (356725555200, (135, -18135, 929565, -23142945, 294349195, -1831354675, 4717343001,
                    -2723449941, -971108667, -476844165, 175806855, 608864445, -621196695,
                    -298409265, 13660121475, 14223634425)),
    (1426902220800, (15, -2625, 181800, -6424216, 124474196, -1319882348, 7170886776,
                     -16714073544, 9011238090, 3107212650, 1579613400, -362131560,
                     -1882995660, 2870550900, 19236155400, 66308041800, 397586764575,
                     1221207562575)),
)


def _t_cdf_expansion(t: float, df: float) -> tuple[float, float]:
    """``sum_k g_k(t) / df**k`` of the t CDF's expansion (``_T_CDF_SERIES``)
    to the ``df**-8`` term, and a bound on ``|g_9(t)| / df**9``, the first
    term it omits, for ``t > 0``.

    The bound is ``g_9`` with the absolute values of its coefficients.
    ``g_9`` itself has eight positive roots; at one the omitted term
    vanishes while the next, of order ``df**-10``, is the whole error, as
    much as 3.5e-6 of the CDF at df 3 and t = 1.4612.
    """
    s = t * t

    def term(denominator: int, coeffs: Sequence[int]) -> float:
        return t * functools.reduce(lambda acc, c: acc * s + c, coeffs, 0.0) / denominator

    *kept, (denominator, coeffs) = _T_CDF_SERIES
    correction = 0.0
    for row in reversed(kept):  # Horner's rule in 1 / df
        correction = (correction + term(*row)) / df
    omitted = term(denominator, [abs(c) for c in coeffs])
    for _ in _T_CDF_SERIES:
        omitted /= df  # a power df**9 could overflow
    return correction, omitted


# _t_split's series test cannot pass below this df.  Its left side is
# |g_9(t)| / df**9, with g_9's coefficients made positive, times max(t, 1/t):
# that is t**2 P(t**2) / (d df**9) from t = 1 up and P(t**2) / (d df**9)
# below, for g_9(t) = t P(t**2) / d.  Both grow with t, so the left side is
# never below its limit as t -> 0, c / (d df**9) = 0.856 / df**9 (c the
# constant term of P), which is above 2**-54 for df < (0.856 * 2**54)**(1/9)
# = 62.9026.  At 62.9 it is 0.04% above, far beyond its rounding error.
_SERIES_MIN_DF = 62.9


def _t_split(t: float, df: float) -> tuple[float, float, float]:
    """``P(T > t)``, ``P(|T| < t)`` and ``t`` times the density, for ``t > 0``.

    The expansion of ``_T_CDF_SERIES`` where the first term it omits is
    below an ulp of both probabilities, as at large ``df`` outside the far
    tails, where the continued fraction would need O(sqrt(df)) terms.  Both
    probabilities are at least about ``phi(t) / (2 * max(t, 1/t))``, so the
    omitted term ``phi(t) * g_9(t) / df**9`` is below ``2**-53`` times
    either when :func:`_t_cdf_expansion`'s bound on ``|g_9(t)| / df**9`` is
    below ``2**-54 / max(t, 1/t)``; this test needs no ``phi(t)``, which
    underflows in the far tails.  Below ``df = 62.9`` it cannot pass
    (``_SERIES_MIN_DF``), and the expansion is not summed.

    Elsewhere, with ``x = df / (df + t**2)``, the tail is ``I_x(df/2,
    1/2) / 2`` and the central probability ``I_{1-x}(1/2, df/2)``.  The
    continued fraction is summed for the one it converges fast for, which
    near either end is the small one, so it keeps its relative accuracy;
    the other is its complement.
    """
    a = 0.5 * df
    tt = t * t
    if tt == math.inf:  # x = df / t**2 < 1e-308, where the fraction is 1
        front = math.exp(_log_gamma_ratio(a) - df * math.log(t / math.sqrt(df)) - _LOG_SQRT_PI)
        return front / df, 1.0, front
    x, y = df / (df + tt), tt / (df + tt)  # y = 1 - x without cancellation
    # x**a * y**(1/2) / B(a, 1/2), which is also t times the density
    front = math.exp(
        _log_gamma_ratio(a) - a * math.log1p(tt / df) + 0.5 * math.log(y) - _LOG_SQRT_PI
    )
    if df >= _SERIES_MIN_DF:
        correction, omitted = _t_cdf_expansion(t, df)
        if abs(omitted) * max(t, 1.0 / t) <= 2.0**-54:
            density = math.exp(-0.5 * tt) / math.sqrt(2.0 * math.pi)
            tail = 0.5 * math.erfc(t / math.sqrt(2.0)) + density * correction
            return tail, math.erf(t / math.sqrt(2.0)) - 2.0 * density * correction, front
    if x < (a + 1.0) / (a + 2.5):
        tail = 0.5 * front * _beta_continued_fraction(a, 0.5, x) / a
        return tail, 1.0 - 2.0 * tail, front
    central = 2.0 * front * _beta_continued_fraction(0.5, a, y)
    return 0.5 - 0.5 * central, central, front


def _check_df(df: float, what: str) -> None:
    if not 1.0 <= df < math.inf:
        raise DomainError(f"{what} needs a finite df >= 1, got {df}")


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF for real, finite ``df >= 1``: ``P(T > |t|)`` from
    :func:`_t_split` below the median, ``(1 + P(|T| < t)) / 2`` above it."""
    _check_df(df, "t CDF")
    if t == 0.0:
        return 0.5
    tail, central, _ = _t_split(abs(t), df)
    return tail if t < 0.0 else 0.5 + 0.5 * central


@functools.lru_cache(maxsize=256)
def t_quantile(df: float, prob: float) -> float:
    """Student-t inverse CDF for real, finite ``df >= 1``.

    Newton's method from the normal quantile, on the log of ``P(T > |t|)``
    (or, near ``prob = 0.5``, of ``P(|T| < |t|)``, so that a small quantile
    keeps its relative accuracy) as a function of ``log |t|``, both from
    :func:`_t_split`.  On that scale a heavy tail is nearly a straight
    line, so the iterates reach even a far root in a few steps.  The t
    quantile lies beyond the normal one, so the first step is outward; a
    step that passes the root to where the tail underflows is halved.  The
    iterates stop once a step is below 1e-13 or no smaller than the one
    before, which happens only at the CDF's rounding noise.  A subnormal
    ``prob`` has too few bits to invert and is rejected.  Cached per ``(df,
    prob)``, since a study tests every replicate at one critical value.
    """
    _check_df(df, "t quantile")
    if not 0.0 < prob < 1.0:
        raise DomainError(f"t quantile needs 0 < prob < 1, got {prob}")
    if prob < 2.0**-1022:
        raise DomainError(f"t quantile needs prob >= 2**-1022, got {prob}")
    sign = 1.0 if prob > 0.5 else -1.0
    tail = min(prob, 1.0 - prob)  # exact: 1 - prob for prob >= 0.5
    central = 1.0 - 2.0 * tail  # exact for tail >= 0.25
    if central == 0.0:
        return 0.0
    t = -normal_quantile(tail)
    previous = math.inf
    for _ in range(100):
        upper, inner, front = _t_split(t, df)
        if upper == 0.0:
            step *= 0.5
            t *= math.exp(-step)
            continue
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

    where ``block(arm) = eta_m * marginal_variance(arm)
    + (eta_m**2 + sigma2_m - eta_m) * zeta(arm)`` and the marginal variance
    is ``mu + odds(p) * mu**2``.

    Raises:
        DomainError: an arm's denominator underflows to 0, as ``mu**2`` does
            for a mean below about 1.6e-162; the message names the arm.
    """
    eta = design.cluster_sizes.eta_m
    pair_mass = eta * eta + design.cluster_sizes.sigma2_m - eta
    total = 0.0
    for name, arm, share in (
        ("control", design.control, 1.0 - design.r_bar),
        ("intervention", design.intervention, design.r_bar),
    ):
        zeta = pairwise_covariance_factor(arm, design.rho_s, design.rho_u)
        block = eta * marginal_variance(arm) + pair_mass * zeta
        scale = share * arm.mu**2 * eta**2
        if scale == 0.0:
            raise DomainError(
                f"the {name} arm's mean mu={arm.mu:g} is too small to size: "
                f"its share * mu**2 * eta_m**2 underflows to 0"
            )
        total += block / scale
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


def _sample_size(design: DesignInputs, t_pass: bool) -> SampleSizeResult:
    """Required clusters with the normal quantiles, then, when ``t_pass``,
    with the t quantiles at the df that count gives (see
    :func:`sample_size_t`); both passes share one design variance.

    Raises:
        DomainError: ``beta2`` is 0, ``power`` is at most ``alpha / 2``, an
            arm's mean is too small to size, the count passes 2**53, or
            the normal pass leaves the t pass fewer than 1 df.
    """
    if design.beta2 == 0.0:
        raise DomainError("beta2 == 0: effect size undefined for sample size")
    # Phi(delta - z_{1-alpha/2}) never falls below alpha/2; below it delta
    # would be negative, and squared into a count
    if not design.power > design.alpha / 2.0:
        raise DomainError(
            f"power = {design.power:g} must exceed alpha/2 = {design.alpha / 2.0:g}, "
            f"the power the sizing rule gives at 0 clusters"
        )
    sigma2_sq = design_variance(design)

    def raw_count(df: Optional[int]) -> float:
        quantile_sum = quantile(1.0 - design.alpha / 2.0, df) + quantile(design.power, df)
        return _raw_count(sigma2_sq, quantile_sum, design.beta2)

    df = None
    n_raw = raw_count(df)
    if t_pass:
        df = math.ceil(n_raw) - 2
        if df < 1:
            raise DomainError(
                f"insufficient clusters for a t-based size: normal pass gave "
                f"{df + 2} clusters (df={df})"
            )
        n_raw = raw_count(df)
    return SampleSizeResult(
        sigma2_sq=sigma2_sq,
        n_raw=n_raw,
        n_clusters=math.ceil(n_raw),
        df=df,
        critical_basis="normal" if df is None else "t",
    )


def sample_size_normal(design: DesignInputs) -> SampleSizeResult:
    """Required clusters under the normal approximation."""
    return _sample_size(design, False)


def sample_size_t(design: DesignInputs) -> SampleSizeResult:
    """Required clusters under the Student-t refinement.

    Two passes: the normal-based count fixes the degrees of freedom
    (clusters minus the two regression parameters), then the t quantiles at
    those df replace the normal ones.  Always at least as large as the
    normal-based count.
    """
    return _sample_size(design, True)


def predicted_power(design: DesignInputs, n_clusters: float, df: Optional[float]) -> float:
    """The formula's power at ``n_clusters`` clusters, with the reference
    ``df`` names (see :func:`quantile`).

    This inverts the sample-size rule: with ``delta = sqrt(N * beta2**2 /
    sigma2_sq)``, the normal reference gives ``Phi(delta - z_{1-alpha/2})``
    and t(``df``) its CDF at ``delta - t_{1-alpha/2}``; the sizing rule's t
    pass uses ``df = N - 2``.  At ``sample_size_normal(design).n_raw`` the
    normal value is ``design.power``; at an integer N above it, the value is
    the power the rounded-up count actually buys.
    """
    delta = math.sqrt(n_clusters * design.beta2**2 / design_variance(design))
    critical = quantile(1.0 - design.alpha / 2.0, df)
    if df is None:
        return 0.5 * math.erfc((critical - delta) / math.sqrt(2.0))
    return t_cdf(delta - critical, df)


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
