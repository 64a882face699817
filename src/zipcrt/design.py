"""Marginal zero-inflated Poisson (ZIP) model and design-stage parameter math.

A ZIP outcome is a two-component mixture: with probability ``p`` the
observation is a structural zero, otherwise it is a Poisson draw with mean
``lam``.  The marginal mean is ``mu = (1 - p) * lam`` and the marginal
variance is ``mu + (p / (1 - p)) * mu**2``, so any ``p > 0`` produces
overdispersion relative to a Poisson outcome with the same mean.

Everything in this module is a pure function of its inputs: profiles for the
two trial arms, the effect decomposition on the log-mean scale, and the
within-cluster covariance implied by exchangeable correlation of the latent
structural-zero indicators (``rho_s``) and of the latent Poisson components
(``rho_u``).  A design's config form, the dict a JSON design file gives, is
read by :func:`design_from_dict` and written by :func:`design_to_dict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, ZipCrtError

# A size law tabulates its cells (m, k), 0 <= k <= m, only up to this many:
# DU(10,80) has 3,266, and DU(1,254) is the widest DU(1, hi) within it.  An
# arm's tabulated law, of (m, K) or of (m, Y) (simulate._Law), keeps at
# most as many cells too.  The cap bounds a table's memory and its build,
# paid once per design in a process; built, a table draws each cluster in
# O(1) expected time.  Timed on one core (x86_64, numpy 2.4) for
# alternative designs, whose table holds both arms' laws.  A table holds,
# per entry, an 8-byte key, 2 to 4 bytes of guide, and the entry's m and
# v: 16 bytes in a law of (m, K), whose m and K are int64, so 26 to 28
# bytes an entry, and 2 to 6 in one of (m, Y), so 12 to 18.  An (m, K)
# table builds in 5 to 7 ms near the cap; a (256, 14) chunk's (m, K) takes
# 0.15 ms on DU(1,254) against 0.80 ms for the per-cluster draws on
# DU(1,255), and 6 clusters' 0.022 against 0.039 ms, so the table wins at
# any size.  At the bundled grid's largest design, DU(10,80) at ICC 0.05,
# whose laws of (m, Y) keep 23,091 and 19,474 entries (0.6 MB), a cold
# 6-cluster study draw builds its table in 8 to 9 ms, and in 11 to 13 ms
# at mu1 = 2.1, whose control law keeps 32,248 entries, just within the
# cap.  Warm, an (80, 31) chunk's (m, Y) takes 28 ns a cluster there,
# against 121 for the per-cluster draws of (m, K), the own sum and the
# shared part, and 6 clusters' 29 against 44 us, so this table wins at
# any size too.
MAX_SIZE_CELLS = 2**15
# The largest cluster mean hi * lam a design may have.  A simulated cluster
# sum is one Poisson draw of a mean up to hi * lam (numpy takes means up to
# about 9.2e18) and is stored as an int64; 2**62 is half of either limit.
MAX_CLUSTER_MEAN = 2.0**62
# The largest cluster size a law may have: the fit reads each size as a
# float64, exact up to 2**53.  A truncated Poisson also tabulates its mass
# function over each size lo..hi and keeps the cumulative sum for its draws,
# so it takes at most 2**20 sizes: that many build in about 0.13 s with a
# 40 MB peak and keep 8 MB (2-core x86_64, numpy 2.4).  Both are checked
# before anything is allocated.
MAX_CLUSTER_SIZE = 2**53
MAX_POISSON_SIZES = 2**20


def _odds(p: float) -> float:
    """Structural-zero odds p/(1-p), with the p == 0 case exactly 0."""
    return p / (1.0 - p)


@dataclass(frozen=True)
class ArmProfile:
    """ZIP parameters of one trial arm.

    Attributes:
        mu: marginal mean of the outcome, ``mu = (1 - p) * lam``.
        p: probability that an observation is a structural zero, in [0, 1).
    """

    mu: float
    p: float

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (0.0 <= self.p < 1.0):
            raise DomainError(f"p must lie in [0, 1), got {self.p}")

    @property
    def lam(self) -> float:
        """Mean of the Poisson component, ``mu / (1 - p)``."""
        return self.mu / (1.0 - self.p)


class SizeCells(NamedTuple):
    """The cells ``(m, k)``, ``0 <= k <= m``, of a size law's support, ``m``
    ascending and ``k`` ascending within each ``m``: each cell's ``m``, ``k``,
    ``m - k`` and ``log P(m) + log C(m, k)``."""

    m: np.ndarray
    k: np.ndarray
    rest: np.ndarray
    log_base: np.ndarray


def _size_cells(support: np.ndarray, log_pmf: np.ndarray) -> SizeCells:
    """The cells of a law with ``log P(m)`` ``log_pmf`` on ``support``."""
    width = support + 1
    m = np.repeat(support, width)
    k = np.arange(m.size) - np.repeat(np.cumsum(width) - width, width)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, support[-1] + 1)))))
    rest = m - k
    log_base = np.repeat(log_pmf, width) + log_factorial[m] - log_factorial[k] - log_factorial[rest]
    return SizeCells(m, k, rest, log_base)


@dataclass(frozen=True)
class ClusterSizeModel:
    """Distribution of the number of subjects per cluster.

    Supported kinds:
      * ``discrete_uniform``: uniform over the integers ``lo..hi``.
      * ``truncated_poisson``: Poisson(``rate``) conditioned on ``lo..hi``.
      * ``fixed``: every cluster has exactly ``lo`` (== ``hi``) subjects.

    ``hi`` is at most ``MAX_CLUSTER_SIZE`` (2**53), and a truncated Poisson
    has at most ``MAX_POISSON_SIZES`` (2**20) sizes.

    ``eta_m`` and ``sigma2_m`` are the exact mean and variance of the declared
    distribution (truncated-Poisson moments by direct summation of the
    renormalized mass function, weighted in logs).  A truncated Poisson also
    keeps that mass function's cumulative sum, ending in exactly 1.0, from
    which :mod:`zipcrt.simulate` draws its sizes.

    A law with at most ``MAX_SIZE_CELLS`` cells ``(m, k)``, ``0 <= k <= m``
    on its support (``sum(m + 1)``) also keeps them as :class:`SizeCells`,
    the part of the joint law of a cluster's size and non-structural-zero
    count that does not depend on the arm.  :mod:`zipcrt.simulate` draws
    ``(m, K)`` by inverting that law; a wider law keeps None and draws ``m``
    and ``K`` one after the other.
    """

    kind: str
    lo: int
    hi: int
    rate: Optional[float] = None
    eta_m: float = field(init=False, compare=False)
    sigma2_m: float = field(init=False, compare=False)
    _cdf: Optional[np.ndarray] = field(init=False, compare=False, repr=False, default=None)
    _cells: Optional[SizeCells] = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise DomainError(f"cluster sizes must be >= 1, got lo={self.lo}")
        if self.hi < self.lo:
            raise DomainError(f"empty support: lo={self.lo} > hi={self.hi}")
        key = "cluster_size." + ("m" if self.kind == "fixed" else "hi")
        if self.hi > MAX_CLUSTER_SIZE:
            raise DomainError(f"{key} must be at most 2**53, got {self.hi}")
        n = self.hi - self.lo + 1
        if self.kind == "truncated_poisson" and n > MAX_POISSON_SIZES:
            raise DomainError(
                f"{key}={self.hi} gives a truncated_poisson {n} sizes from lo={self.lo}; "
                f"it tabulates at most 2**20"
            )
        if self.kind == "discrete_uniform":
            eta = (self.lo + self.hi) / 2.0
            sigma2 = (n * n - 1) / 12.0
            log_pmf = -math.log(n)
        elif self.kind == "truncated_poisson":
            if self.rate is None or not (math.isfinite(self.rate) and self.rate > 0.0):
                raise DomainError(f"truncated_poisson requires a finite rate > 0, got {self.rate}")
            support = np.arange(self.lo, self.hi + 1)
            # log(rate**k / k!) up to a constant: the ratio of neighbours is rate / k
            log_weight = np.cumsum(np.log(self.rate) - np.log(support))
            peak = int(np.argmax(log_weight))
            log_peak_pmf = (
                support[peak] * math.log(self.rate) - self.rate - math.lgamma(support[peak] + 1)
            )
            if math.exp(log_peak_pmf) == 0.0:
                raise DomainError(
                    f"truncated_poisson({self.rate}) has no mass on [{self.lo}, {self.hi}]"
                )
            pmf = np.exp(log_weight - log_weight[peak])
            total = pmf.sum()
            pmf /= total
            log_pmf = log_weight - log_weight[peak] - math.log(total)
            eta = float(np.dot(support, pmf))
            sigma2 = float(np.dot((support - eta) ** 2, pmf))
            cdf = np.cumsum(pmf)
            cdf[-1] = 1.0  # a uniform draw in [0, 1) then always lands on the support
            object.__setattr__(self, "_cdf", cdf)
        elif self.kind == "fixed":
            if self.lo != self.hi:
                raise DomainError("fixed cluster size requires lo == hi")
            eta = float(self.lo)
            sigma2 = 0.0
            log_pmf = 0.0
        else:
            raise DomainError(f"unknown cluster size kind: {self.kind!r}")
        object.__setattr__(self, "eta_m", float(eta))
        object.__setattr__(self, "sigma2_m", float(max(sigma2, 0.0)))
        if n * (self.lo + self.hi + 2) // 2 <= MAX_SIZE_CELLS:  # sum(m + 1) over the support
            support = np.arange(self.lo, self.hi + 1)
            cells = _size_cells(support, np.broadcast_to(log_pmf, support.shape))
            object.__setattr__(self, "_cells", cells)

    @classmethod
    def from_dict(cls, spec) -> "ClusterSizeModel":
        """The law a config's ``cluster_size`` object gives: its ``kind`` and
        exactly that kind's keys (``_SIZE_KEYS``), each a whole number but
        the ``rate``."""
        if not isinstance(spec, dict):
            raise ConfigError("'cluster_size' must be an object")
        kind = spec.get("kind")
        if kind not in _SIZE_KEYS:
            raise ConfigError(
                f"cluster_size.kind must be discrete_uniform, truncated_poisson or fixed, "
                f"got {kind!r}"
            )
        missing = [k for k in _SIZE_KEYS[kind] if k not in spec]
        if missing:
            raise ConfigError(f"cluster_size of kind {kind} is missing keys: {missing}")
        stray = sorted(set(spec) - {"kind", *_SIZE_KEYS[kind]})
        if stray:  # an unknown key, or one of another kind: the config may mean another law
            raise ConfigError(f"cluster_size of kind {kind} does not take keys: {stray}")
        values = {k: _number(spec, k, "cluster_size.", whole=k != "rate") for k in _SIZE_KEYS[kind]}
        return getattr(cls, kind)(**values)  # each kind's keys are its constructor's arguments

    def to_dict(self) -> dict:
        """The ``cluster_size`` object :meth:`from_dict` reads back to this law."""
        keys = {"lo": self.lo, "hi": self.hi, "rate": self.rate, "m": self.lo}
        return {"kind": self.kind, **{k: keys[k] for k in _SIZE_KEYS[self.kind]}}

    @classmethod
    def discrete_uniform(cls, lo: int, hi: int) -> "ClusterSizeModel":
        return cls(kind="discrete_uniform", lo=lo, hi=hi)

    @classmethod
    def truncated_poisson(cls, rate: float, lo: int, hi: int) -> "ClusterSizeModel":
        return cls(kind="truncated_poisson", lo=lo, hi=hi, rate=rate)

    @classmethod
    def fixed(cls, m: int) -> "ClusterSizeModel":
        return cls(kind="fixed", lo=m, hi=m)


@dataclass(frozen=True)
class DesignInputs:
    """Complete design-stage specification of a two-arm cluster trial.

    Each arm's largest cluster mean ``cluster_sizes.hi * lam`` must lie
    below ``MAX_CLUSTER_MEAN``, so that every design can be simulated.

    Attributes:
        beta1: log marginal mean of the control arm.
        beta2: log of the marginal-mean ratio intervention/control (the
            overall effect on the log scale).  May be 0 for null-scenario
            data generation; sample-size operations then refuse to run.
        p1: structural-zero probability of the control arm, in [0, 1).
        p2: structural-zero probability of the intervention arm, in [0, 1).
        rho_s: exchangeable within-cluster correlation of the structural-zero
            indicators, in [0, 1).
        rho_u: exchangeable within-cluster correlation of the Poisson
            components, in [0, 1).
        r_bar: probability that a cluster is allocated to the intervention
            arm, in (0, 1).
        cluster_sizes: distribution of cluster sizes.
        alpha: two-sided type I error rate.
        power: target power (1 - type II error rate).
        control: ZIP profile of the control arm, mean ``exp(beta1)`` (derived).
        intervention: ZIP profile of the intervention arm, mean
            ``exp(beta1 + beta2)`` (derived).
    """

    beta1: float
    beta2: float
    p1: float
    p2: float
    rho_s: float
    rho_u: float
    r_bar: float
    cluster_sizes: ClusterSizeModel
    alpha: float = 0.05
    power: float = 0.8
    control: ArmProfile = field(init=False, compare=False)
    intervention: ArmProfile = field(init=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "rho_s", "rho_u"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise DomainError(f"{name} must lie in [0, 1), got {value}")
        key1, key2 = f"'beta1'={self.beta1}", f"'beta2'={self.beta2}"
        control = ArmProfile(_arm_mean(self.beta1, key1, "control"), self.p1)
        intervention = ArmProfile(_arm_mean(self.beta1 + self.beta2, key2, "intervention"), self.p2)
        for arm in (control, intervention):
            _mean_squared(arm.mu)  # a mean sizing cannot square is named as such first
        _check_cluster_mean(self.cluster_sizes, control, key1, "control")
        _check_cluster_mean(self.cluster_sizes, intervention, key2, "intervention")
        if not (0.0 < self.r_bar < 1.0):
            raise DomainError(f"r_bar must lie strictly in (0, 1), got {self.r_bar}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.power < 1.0):
            raise DomainError(f"power must lie in (0, 1), got {self.power}")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "intervention", intervention)

    def under_null(self) -> "DesignInputs":
        """The same design with no intervention effect (both arms == control).

        Used to generate null-scenario data while the original design keeps
        the effect size used for sample-size calculation.  Both of its arms
        are this design's checked control arm, so it is a copy with three
        fields set, not a new design checked again, which took about 7 us
        of a 200 us null study (2-core x86_64).
        """
        null = object.__new__(DesignInputs)
        vars(null).update(vars(self), beta2=0.0, p2=self.p1, intervention=self.control)
        return null


def _check_cluster_mean(sizes: ClusterSizeModel, arm: ArmProfile, key: str, name: str) -> None:
    """A DomainError naming ``key`` if the arm's largest cluster mean
    ``hi * lam`` reaches ``MAX_CLUSTER_MEAN``."""
    if sizes.hi * arm.lam >= MAX_CLUSTER_MEAN:
        raise DomainError(
            f"{key} with cluster_size.hi={sizes.hi} gives the {name} arm a cluster mean "
            f"hi*lam={sizes.hi * arm.lam:g}; simulation needs it below {MAX_CLUSTER_MEAN:g}"
        )


def _arm_mean(log_mean: float, key: str, arm: str) -> float:
    """``exp(log_mean)``, or a DomainError naming ``key`` if it overflows a float."""
    try:
        return math.exp(log_mean)
    except OverflowError:
        raise DomainError(f"{key} makes the {arm} mean exp({log_mean:g}) overflow") from None


# The config form of a design: its numbers, the ones it must give, and the
# keys of each cluster-size kind
_NUMBER_KEYS = (
    "mu1", "beta1", "beta2", "p1", "p2", "q", "rho_s", "rho_u", "r_bar", "alpha", "power",
)
_REQUIRED_KEYS = ("beta2", "p1", "rho_s", "rho_u", "cluster_size")
_SIZE_KEYS = {
    "discrete_uniform": ("lo", "hi"),
    "truncated_poisson": ("rate", "lo", "hi"),
    "fixed": ("m",),
}


def _number(spec: dict, key: str, prefix: str = "", whole: bool = False) -> float:
    """``spec[key]`` as a float: a JSON number, not a boolean, a string or a
    null, and one a float can hold.  With ``whole``, an int: a number with
    no fractional part, written ``34`` or ``34.0``.  ``prefix`` is the key's
    path in the config, for the error message."""
    value = spec[key]
    plain = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if plain else None
    except OverflowError:
        raise ConfigError(f"{prefix}{key} is an integer too large for a float") from None
    if number is None or (whole and not number.is_integer()):
        kind = "a whole number" if whole else "a number"
        raise ConfigError(f"{prefix}{key} must be {kind}, got {value!r}")
    return int(number) if whole else number


def design_from_dict(config: dict) -> DesignInputs:
    """The design a config dict describes, as a JSON design file gives it::

        {
          "mu1": 1.0, "beta2": -0.431, "p1": 0.5, "q": 0.5,
          "rho_s": 0.05, "rho_u": 0.05, "r_bar": 0.5,
          "alpha": 0.05, "power": 0.8,
          "cluster_size": {"kind": "discrete_uniform", "lo": 34, "hi": 56}
        }

    The keys mirror :func:`build_design`'s arguments.  The control mean is
    ``mu1`` or its log ``beta1``; the intervention arm's zero structure is
    ``q`` (preferred) or ``p2``; ``q`` defaults to 0.5 when neither is
    given.  A null optional key is an absent one.  ``cluster_size`` takes
    exactly the keys of its kind: ``lo`` and ``hi`` (discrete_uniform),
    ``rate``, ``lo`` and ``hi`` (truncated_poisson), or ``m`` (fixed);
    ``lo``, ``hi`` and ``m`` are whole numbers (``34`` or ``34.0``).

    Raises:
        ConfigError: an unknown, missing or malformed key (named in the message).
        DomainError: resolved parameters outside their admissible ranges.
    """
    unknown = set(config) - {*_NUMBER_KEYS, "cluster_size"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in config]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    # a null optional key is an absent one, so build_design's default holds
    numbers = {
        key: _number(config, key)
        for key in _NUMBER_KEYS
        if key in _REQUIRED_KEYS or config.get(key) is not None
    }
    try:
        return build_design(**numbers, cluster_sizes=ClusterSizeModel.from_dict(config["cluster_size"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ZipCrtError):
            raise
        raise ConfigError(f"invalid config value: {exc}")


def design_to_dict(design: DesignInputs) -> dict:
    """The design as a config that :func:`design_from_dict` reads back to
    an equal design: each parameter once, and the size law's own keys."""
    config = {f.name: getattr(design, f.name) for f in fields(design) if f.init}
    config["cluster_size"] = config.pop("cluster_sizes").to_dict()
    return config


def build_design(
    *,
    beta2: float,
    p1: float,
    mu1: Optional[float] = None,
    beta1: Optional[float] = None,
    q: Optional[float] = None,
    p2: Optional[float] = None,
    rho_s: float,
    rho_u: float,
    r_bar: float = 0.5,
    cluster_sizes: ClusterSizeModel,
    alpha: float = 0.05,
    power: float = 0.8,
) -> DesignInputs:
    """Assemble a :class:`DesignInputs` from designer-facing parameters.

    The control mean is given either as ``mu1`` or as its log ``beta1``
    (exactly one of the two).  The intervention arm's structural-zero
    probability is resolved from ``q`` (the fraction of the log-scale effect
    attributed to the change in structural zeros) or given directly as
    ``p2``; if both are supplied they must agree to 1e-6.  When neither is
    supplied, ``q = 0.5`` is used as the neutral default.

    Raises:
        ConfigError: missing or contradictory parameters (named in the message).
        DomainError: resolved parameters outside their admissible ranges.
    """
    if (mu1 is None) == (beta1 is None):
        raise ConfigError("exactly one of 'mu1' or 'beta1' must be given")
    if beta1 is None:
        if mu1 is None or mu1 <= 0.0:
            raise ConfigError(f"'mu1' must be positive, got {mu1}")
        beta1 = math.log(mu1)

    if q is None and p2 is None:
        q = 0.5
    if q is not None:
        p2_from_q_value = p2_from_q(p1, beta2, q)
        if p2 is not None and abs(p2 - p2_from_q_value) > 1e-6:
            raise ConfigError(
                f"contradictory zero structure: 'p2'={p2} but 'q'={q} implies "
                f"p2={p2_from_q_value:.8f} (fields: p1, p2, q, beta2)"
            )
        p2 = p2_from_q_value
    try:
        return DesignInputs(
            beta1=beta1,
            beta2=beta2,
            p1=p1,
            p2=p2,
            rho_s=rho_s,
            rho_u=rho_u,
            r_bar=r_bar,
            cluster_sizes=cluster_sizes,
            alpha=alpha,
            power=power,
        )
    except DomainError as exc:
        # DesignInputs names the control's cluster mean by 'beta1', which a
        # caller who gave 'mu1' did not give
        named = f"'beta1'={beta1} with"
        if mu1 is None or not str(exc).startswith(named):
            raise
        raise DomainError(f"'mu1'={mu1} with{str(exc)[len(named):]}") from None


def _mean_squared(mu: float) -> float:
    """``mu**2``, or a DomainError naming the mean if it overflows a float."""
    try:
        return mu**2
    except OverflowError:
        raise DomainError(f"mean mu={mu:g} is too large: mu**2 overflows a float") from None


def marginal_variance(arm: ArmProfile) -> float:
    """Marginal variance of a ZIP outcome: ``mu + (p/(1-p)) * mu**2``.

    Equals the mean exactly when ``p == 0`` (pure Poisson) and exceeds it,
    i.e. is overdispersed, whenever ``p > 0``.

    Raises:
        DomainError: ``mu**2`` overflows a float.
    """
    return arm.mu + _odds(arm.p) * _mean_squared(arm.mu)


def zero_probability(arm: ArmProfile) -> float:
    """Probability that a ZIP outcome equals zero.

    The mixture mass at zero is ``p + (1 - p) * exp(-lam)``: a structural
    zero, or a sampling zero from the Poisson component.
    """
    return arm.p + (1.0 - arm.p) * math.exp(-arm.lam)


def p2_from_q(p1: float, beta2: float, q: float) -> float:
    """Intervention-arm structural-zero probability implied by effect split ``q``.

    ``q`` is the fraction of the overall log-scale effect ``beta2`` carried
    by the change in structural-zero probability; the two arms then satisfy
    ``log(1 - p2) - log(1 - p1) = q * beta2``, i.e.
    ``p2 = 1 - exp(q * beta2) * (1 - p1)``.

    Raises:
        DomainError: ``q`` outside [0, 1], ``p1`` outside [0, 1), or a
            resolved ``p2`` outside [0, 1) (possible when ``beta2 > 0``).
    """
    if not (0.0 <= p1 < 1.0):
        raise DomainError(f"p1 must lie in [0, 1), got {p1}")
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q}")
    try:
        p2 = 1.0 - math.exp(q * beta2) * (1.0 - p1)
    except OverflowError:  # q * beta2 past about 709.78
        p2 = -math.inf
    if not (0.0 <= p2 < 1.0):
        raise DomainError(
            f"p2={p2:.8f} outside [0, 1) for p1={p1}, beta2={beta2}, q={q}"
        )
    return p2


class EffectDecomposition(NamedTuple):
    """Split of the overall log-scale effect into its two sources."""

    poisson_log_effect: float
    zero_log_effect: float
    q: Optional[float]


def decompose_effect(design: DesignInputs) -> EffectDecomposition:
    """Split ``beta2`` into Poisson-mean and structural-zero components.

    The overall effect satisfies
    ``beta2 = [log lam2 - log lam1] + [log(1-p2) - log(1-p1)]``.
    ``q`` is the structural-zero share ``zero_log_effect / beta2``, reported
    as ``None`` when ``beta2 == 0`` (the share is then undefined).
    """
    poisson_log_effect = math.log(design.intervention.lam) - math.log(design.control.lam)
    zero_log_effect = math.log(1.0 - design.intervention.p) - math.log(
        1.0 - design.control.p
    )
    q = zero_log_effect / design.beta2 if design.beta2 != 0.0 else None
    return EffectDecomposition(poisson_log_effect, zero_log_effect, q)


def infer_p1_from_observed(mean: float, zero_proportion: float) -> float:
    """Back out the structural-zero probability from observed summaries.

    Given an observed marginal mean and zero proportion, solves
    ``p + (1 - p) * exp(-mean / (1 - p)) = zero_proportion`` for ``p`` by
    bisection on [0, 1 - 1e-9], until the interval stops shrinking.  The
    objective is continuous and strictly increasing in ``p`` (derivative
    ``1 - exp(-lam) * (1 + lam) > 0``), so the root is unique when it
    exists.

    Returns 0 when the observed zero proportion does not exceed the pure
    Poisson mass ``exp(-mean)`` (no zero inflation is needed).

    Raises:
        DomainError: invalid summaries, or no root in [0, 1 - 1e-9).
    """
    if not (mean > 0.0 and math.isfinite(mean)):
        raise DomainError(f"mean must be positive and finite, got {mean}")
    if not (0.0 < zero_proportion < 1.0):
        raise DomainError(f"zero_proportion must lie in (0, 1), got {zero_proportion}")

    def objective(p: float) -> float:
        return p + (1.0 - p) * math.exp(-mean / (1.0 - p)) - zero_proportion

    lo, hi = 0.0, 1.0 - 1e-9
    if objective(lo) >= 0.0:
        return 0.0
    if objective(hi) < 0.0:
        raise DomainError(
            f"zero proportion {zero_proportion} unreachable for mean {mean}: "
            "no root in [0, 1)"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if objective(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def pairwise_covariance_factor(arm: ArmProfile, rho_s: float, rho_u: float) -> float:
    """Within-cluster covariance of two distinct subjects' ZIP outcomes.

    For subjects j != j' sharing a cluster, exchangeable correlation rho_s of
    the structural-zero indicators and rho_u of the Poisson components imply

        Cov(y_j, y_j') = mu * rho_u * [1 - p * (1 - rho_s)]
                         + mu**2 * rho_s * p / (1 - p).

    This is obtained by enumerating the three structural-zero patterns of
    the pair, weighting each conditional cross-moment by its probability;
    the covariance vanishes exactly when ``rho_u == 0`` and ``p * rho_s == 0``.

    Raises:
        DomainError: an ICC outside [0, 1), or ``mu**2`` overflows a float.
    """
    if not (0.0 <= rho_s < 1.0 and 0.0 <= rho_u < 1.0):
        raise DomainError(f"ICCs must lie in [0, 1), got rho_s={rho_s}, rho_u={rho_u}")
    mu, p = arm.mu, arm.p
    return mu * rho_u * (1.0 - p * (1.0 - rho_s)) + _mean_squared(mu) * rho_s * _odds(p)


def poisson_icc_limit(design: DesignInputs) -> float:
    """Limit of :func:`zipcrt.mc.estimate_poisson_icc` as the cluster count grows.

    In each arm the Pearson residuals ``(y - mu) / sqrt(mu)`` of a Poisson
    working model have within-cluster pair mean
    ``pairwise_covariance_factor / mu`` and square mean
    ``marginal_variance / mu = 1 + odds(p) * mu``.  Balanced allocation and
    one cluster-size law for both arms weigh the arms equally in both means.
    """
    arms = (design.control, design.intervention)
    pair = [pairwise_covariance_factor(a, design.rho_s, design.rho_u) / a.mu for a in arms]
    square = [marginal_variance(a) / a.mu for a in arms]
    return sum(pair) / sum(square)
