"""Monte Carlo studies: empirical power, type I error, and model comparisons.

A study draws ``L`` replicate trials at the design's computed cluster count,
fits each replicate, and reports the fraction rejected by the Wald test
under each variance estimator of ``gee.ESTIMATORS``, keyed by its name.
Type-I studies size the trial with the design's effect but generate data
with the effect removed.

Studies, the ICC and :func:`zipcrt.simulate.generate_trial` draw from one
core, ``simulate._draw_nonzero_counts``: given each cluster's arm, it draws
the size ``m`` and the number ``K`` of subjects that are not structural
zeros, each arm's clusters as one multiset from its tabulated joint law of
``(m, K)`` (see :mod:`zipcrt.simulate`).  A chunk's ``(R, N)`` clusters of
one arm are one such multiset.  Every Wald decision depends on a trial
only through each cluster's arm, ``m_i`` and outcome sum ``Y_i`` (see
:mod:`zipcrt.gee`), so the study engine never forms subject-level data: it
draws ``Y = Poisson(K * lam * (1 - rho_u)) + K * Poisson(lam * rho_u)``,
the ``K`` own Poisson parts in one draw plus ``K`` copies of the shared
part.  Replicate ``r`` puts the intervention arm on its first clusters.

:func:`simulate_study` is the one study primitive: at a cluster count the
caller chooses, it returns every replicate's estimate and failure, and its
variance and Wald decision under each estimator, as one
:class:`StudyDraws`.  It draws the replicates in chunks of
``CHUNK_REPLICATES`` as ``(R, N)`` arrays, one chunk after another in one
process.  A chunk's estimates and failures come from ``gee._fit_rows``,
the code :func:`fit_zip` runs on one dataset, and its Wald decisions from
``gee._wald_rows``, the code :func:`wald_test` runs on one statistic.
Chunk ``k`` draws from the stream ``(seed, STREAM_TAG, k)``, so no chunk's
results depend on the chunks before it.  :func:`run_power_study` is its
reduction: it sizes the trial, runs :func:`simulate_study` at that size and
reduces the draws to rates with :meth:`StudyDraws.report`.

:func:`estimate_poisson_icc` is a statistic of the dataset
``generate_trial(design, n_clusters, seed)``: it makes the same draws from
the stream ``(seed, simulate.TRIAL_STREAM_TAG)`` and reduces them to each
cluster's sums of ``y`` and ``y**2`` without forming the dataset (see
:func:`_draw_icc_sums`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .design import ClusterSizeModel, DesignInputs, build_design, poisson_icc_limit
from .errors import ConfigError, EstimationError, StudyError
from .gee import DF_RULES, ESTIMATORS, _arm_sums, _fail, _fit_rows, _test_df, _wald_rows
# perfbench looks fit_zip up on this module; ROADMAP item 1 deletes the import
from .gee import fit_zip  # noqa: F401
from .power import sample_size_normal, sample_size_t
from .simulate import (
    _balanced_count,
    _draw_nonzero_counts,
    _draw_trial,
    _empty_arm_message,
    substream,
)

_REPLICATE_TAG = 0x52455053  # distinguishes replicate-seed derivation
_MAX_FAILURE_FRACTION = 0.01

# What a study or table manifest records about the engine.  A change to a
# stream, the chunk size or the draws changes seeded results and bumps the
# version; version 3 drew truncated-Poisson sizes by rejection, and version
# 4 drew each cluster's size, shared zero and ``K`` in turn.
ENGINE = "cluster-sum"
ENGINE_VERSION = 5
STREAM_TAG = 0x43535553  # the chunk streams (seed, STREAM_TAG, chunk index)
CHUNK_REPLICATES = 256


def replicate_seed(seed: int, index: int) -> int:
    """64-bit seed for one replicate, mixed from the study seed and index."""
    ss = np.random.SeedSequence([seed, _REPLICATE_TAG, index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class StudyConfig:
    """One simulation-study scenario.

    ``null_hypothesis`` keeps the design's effect for sizing but removes it
    from the generated data, which is how empirical type I error is
    measured.  ``use_t_sizing`` selects the Student-t cluster count and the
    t reference for testing (df per ``test_df_rule``); otherwise the normal
    count and the normal reference are used.
    """

    design: DesignInputs
    replications: int
    use_t_sizing: bool = False
    test_df_rule: str = "n-2"
    seed: int = 0
    null_hypothesis: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.test_df_rule not in DF_RULES:
            raise ConfigError(
                f"test_df_rule must be one of {DF_RULES}, got {self.test_df_rule!r}"
            )


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study outcome.

    ``rejection_rate`` maps each name of ``ESTIMATORS`` to its rate;
    ``mc_standard_error`` is the binomial standard error of the last
    estimator's (the Jackknife's) rate.
    """

    n_clusters_used: int
    rejection_rate: dict[str, float]
    mc_standard_error: float
    replicate_failures: int
    replications: int

    @property
    def rejection_rate_jackknife(self) -> float:
        # perfbench reads this name; ROADMAP item 1 deletes it
        return self.rejection_rate["jackknife"]


@dataclass(frozen=True)
class StudyDraws:
    """Per-replicate results of a study, or of one of its chunks.

    ``sigma2`` and ``reject`` map each name of ``ESTIMATORS`` to the
    replicates' variances of ``sqrt(N) * beta2_hat`` and Wald decisions
    under it.  ``failure`` holds the message of the error the replicate's
    fit or test raised, or None.  The decisions of a failed replicate are
    False and its estimates are meaningless.
    """

    beta2_hat: np.ndarray
    sigma2: dict[str, np.ndarray]
    reject: dict[str, np.ndarray]
    failure: list[Optional[str]]

    def report(self, n_clusters: int) -> StudyReport:
        """The study's rejection rates over the replicates that did not fail.

        Raises:
            StudyError: 1% or more of the replicates failed, so the rates
                would no longer be trustworthy.
        """
        replications = len(self.failure)
        failures = [f for f in self.failure if f is not None]
        if len(failures) / replications >= _MAX_FAILURE_FRACTION:
            sample = "; ".join(sorted(set(failures))[:3])
            raise StudyError(
                f"{len(failures)}/{replications} replicates failed "
                f"(>= {_MAX_FAILURE_FRACTION:.0%}); first causes: {sample}"
            )
        effective = replications - len(failures)
        rates = {name: int(reject.sum()) / effective for name, reject in self.reject.items()}
        rate = rates[ESTIMATORS[-1]]
        return StudyReport(
            n_clusters_used=n_clusters,
            rejection_rate=rates,
            mc_standard_error=math.sqrt(rate * (1.0 - rate) / effective),
            replicate_failures=len(failures),
            replications=replications,
        )


def _draw_clusters(
    design: DesignInputs, n_clusters: int, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, ...]:
    """``(R, N)`` arrays of arm, size and outcome sum, and an empty-arm mask.

    Replicate ``r`` allocates clusters ``0 .. n_intervention[r] - 1`` to the
    intervention arm; the clusters are exchangeable, so which ones receive it
    changes no statistic.  The mask marks replicates whose allocation left an
    arm empty.
    """
    count, tie = _balanced_count(n_clusters, design.r_bar)
    n_intervention = np.full(rows, count)
    if tie:
        n_intervention += rng.random(rows) < 0.5
    arm = np.arange(n_clusters) < n_intervention[:, None]
    m, nonzero = _draw_nonzero_counts(design, arm, rng)
    # a null design keeps lam a scalar: numpy draws the same values from it as
    # from an array of equal means, and skips the array
    lam = design.control.lam
    if design.intervention.lam != lam:
        lam = np.where(arm, design.intervention.lam, lam)
    y = rng.poisson(nonzero * lam * (1.0 - design.rho_u))
    y += nonzero * rng.poisson(lam * design.rho_u, arm.shape)
    empty_arm = (n_intervention == 0) | (n_intervention == n_clusters)
    return arm, m, y, empty_arm


def _simulate_chunk(
    design: DesignInputs,
    n_clusters: int,
    seed: int,
    chunk: int,
    rows: int,
    reference: str,
    df: Optional[int],
    alpha: float,
) -> StudyDraws:
    """Draw and test ``rows`` replicates from the stream of chunk ``chunk``.

    A replicate fails with the message, and at the first of the checks,
    that :func:`generate_trial`, :func:`fit_zip` and :func:`wald_test` would
    raise on it, in their order.
    """
    rng = substream(seed, STREAM_TAG, chunk)
    arm, m, y, empty_arm = _draw_clusters(design, n_clusters, rng, rows)
    failure: list[Optional[str]] = [None] * rows
    if n_clusters < 2:
        _fail(failure, np.ones(rows, dtype=bool), f"need at least 2 clusters, got {n_clusters}")
    _fail(failure, empty_arm, _empty_arm_message(n_clusters, design.r_bar))

    _, _, log_mean, terms = _fit_rows(arm, m, y, np.arange(n_clusters), failure)
    with np.errstate(invalid="ignore"):
        beta2_hat = log_mean[:, 1] - log_mean[:, 0]
        sigma2 = {name: n_clusters * (t[:, 0] + t[:, 1]) for name, t in terms.items()}
    reject = {
        name: _wald_rows(beta2_hat, variance, n_clusters, reference, alpha, df, failure)[2]
        for name, variance in sigma2.items()
    }
    # a replicate whose test failed under a later estimator has no decision
    # under an earlier one either
    ok = np.array([f is None for f in failure])
    return StudyDraws(beta2_hat, sigma2, {name: r & ok for name, r in reject.items()}, failure)


def simulate_study(
    design: DesignInputs,
    n_clusters: int,
    replications: int,
    seed: int,
    df: Optional[int],
) -> StudyDraws:
    """Draw and test ``replications`` replicate trials of ``n_clusters``
    clusters each, at the design's level ``alpha``.  The Wald test refers to
    the t distribution with ``df`` degrees of freedom, or to the normal
    when ``df`` is None.

    Chunk ``k`` holds replicates ``k * CHUNK_REPLICATES`` onwards and draws
    from the stream ``(seed, STREAM_TAG, k)``; the result is the chunks'
    arrays, concatenated in order.

    Raises:
        ConfigError: ``replications < 1``.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    reference = "normal" if df is None else "t"
    chunks = []
    for k, start in enumerate(range(0, replications, CHUNK_REPLICATES)):
        rows = min(CHUNK_REPLICATES, replications - start)
        chunks.append(
            _simulate_chunk(design, n_clusters, seed, k, rows, reference, df, design.alpha)
        )
    sigma2, reject = (
        {name: np.concatenate([part[name] for part in parts]) for name in ESTIMATORS}
        for parts in ([c.sigma2 for c in chunks], [c.reject for c in chunks])
    )
    return StudyDraws(
        np.concatenate([c.beta2_hat for c in chunks]),
        sigma2,
        reject,
        [f for c in chunks for f in c.failure],
    )


def run_power_study(config: StudyConfig, *, workers: int = 1) -> StudyReport:
    """Empirical rejection rates for one scenario: the design's cluster
    count, then :func:`simulate_study` at that count, then
    :meth:`StudyDraws.report`.

    Failed replicates (an arm absent or all-zero, in the data or after a
    Jackknife deletion, so the mean model is undefined) are excluded from
    the denominators; if they reach 1% of the replications the study
    aborts, since the rates would no longer be trustworthy.

    ``workers`` is kept only because ``perfbench/workloads.py`` passes
    ``workers=1``; any other value is a ConfigError.  ROADMAP item 1
    deletes the keyword together with that call.
    """
    if workers != 1:
        raise ConfigError(f"workers must be 1, got {workers}")
    sizing = sample_size_t if config.use_t_sizing else sample_size_normal
    n_clusters = sizing(config.design).n_clusters
    design = config.design.under_null() if config.null_hypothesis else config.design
    df = _test_df(config.test_df_rule, n_clusters) if config.use_t_sizing else None
    draws = simulate_study(design, n_clusters, config.replications, config.seed, df)
    return draws.report(n_clusters)


def _draw_icc_sums(design: DesignInputs, n_clusters: int, seed: int) -> tuple[np.ndarray, ...]:
    """The per-cluster arm, size, sum of ``y`` and sum of ``y**2`` of
    ``generate_trial(design, n_clusters, seed)``, from the same draws.

    Each of a cluster's ``K`` non-structural-zero subjects has the outcome
    ``P_j + U``.  With ``T = sum P_j`` and ``Q = sum P_j**2`` the cluster's
    sums are ``Y = T + K * U`` and ``sum y**2 = Q + 2 * U * T + K * U**2``.
    """
    arm, m, nonzero, shared, own = _draw_trial(design, n_clusters, seed)
    # per-cluster sums of P and P**2 as differences of running sums, which
    # also gives 0 for a cluster with K = 0.  The squares are summed in
    # float64, in the same buffer: exact below 2**53, and past 2**63 (a mean
    # near 1e9) they would wrap in int64.
    ends = np.cumsum(nonzero)
    starts = ends - nonzero
    running = np.zeros(own.size + 1, dtype=np.int64)
    np.cumsum(own, out=running[1:])
    t = running[ends] - running[starts]
    squares = running.view(np.float64)  # squares[0] stays 0.0, the bits of int 0
    squares[1:] = own
    squares[1:] *= squares[1:]  # faster than a multiply that casts as it goes
    np.cumsum(squares, out=squares)
    q = squares[ends] - squares[starts]
    y = t + nonzero * shared
    ysq = q + shared * (2.0 * t + nonzero * shared)
    return arm, m, y, ysq


def _poisson_icc(arm: np.ndarray, m: np.ndarray, ysum: np.ndarray, ysq: np.ndarray) -> float:
    """:func:`estimate_poisson_icc`'s statistic from each cluster's arm, size
    ``m_i``, outcome sum ``Y_i`` and sum of squared outcomes.

    Per cluster, the Pearson residuals ``e = (y - mu_a) / sqrt(mu_a)`` sum
    to ``(Y_i - m_i mu_a) / sqrt(mu_a)``; per arm, their squares sum to
    ``sum y**2 / mu_a - S_a``, because ``mu_a = S_a / M_a``.

    Raises:
        EstimationError: an arm is absent or all-zero, or every cluster has
            size 1.
    """
    m = m.astype(np.float64)
    ysum = ysum.astype(np.float64)
    failure: list[Optional[str]] = [None]
    # one row, so each cluster's key arm + 2 * row is its arm
    subjects, outcomes = (total[0] for total in _arm_sums(arm, m, ysum, failure))
    if failure[0] is not None:
        raise EstimationError(failure[0])
    mu = outcomes / subjects
    square_sum = float((np.bincount(arm, weights=ysq, minlength=2) / mu - outcomes).sum())
    total = (ysum - m * mu[arm]) ** 2 / mu[arm]
    pair_sum = (float(total.sum()) - square_sum) / 2.0
    pair_count = float((m * (m - 1)).sum()) / 2.0
    if pair_count == 0:
        raise EstimationError("no within-cluster pairs: all clusters have size 1")
    return (pair_sum / pair_count) / (square_sum / float(subjects.sum()))


def estimate_poisson_icc(
    design: DesignInputs, n_clusters: int = 10_000, seed: int = 0
) -> float:
    """Intracluster correlation a Poisson working model would report on the
    dataset ``generate_trial(design, n_clusters, seed)``.

    Fits the arm means under a Poisson working model and forms Pearson
    residuals ``e = (y - mu_hat) / sqrt(mu_hat)``.  The moment estimator is
    the mean within-cluster pairwise residual product divided by the mean
    squared residual:

        rho_hat = [sum_i sum_{j<j'} e_ij e_ij' / total pair count]
                  / [sum e**2 / total subjects]

    This is what a sample-size method built on a Poisson model would be fed
    when the outcomes are actually zero-inflated.  The value is exactly that
    of the dataset, but only its per-cluster sums are formed, from the same
    draws (see :func:`_draw_icc_sums`).  Its limit as ``n_clusters`` grows
    is :func:`zipcrt.design.poisson_icc_limit`.

    Raises:
        ConfigError: fewer than 2 clusters, or an arm left empty.
        DomainError: a seed outside ``[0, 2**64)``.
        EstimationError: an all-zero arm, or no within-cluster pairs.
    """
    return _poisson_icc(*_draw_icc_sums(design, n_clusters, seed))


# Bundled reference grid: the scenarios tabulated by the bundled studies.
# Control mean 1 with half the outcomes structural zeros, a -0.431 log-mean
# effect, 1:1 allocation, 80% power at two-sided 5% alpha.
_GRID_DISTRIBUTIONS: Sequence[tuple[str, ClusterSizeModel]] = (
    ("TrunPoisson(45,20,70)", ClusterSizeModel.truncated_poisson(45.0, 20, 70)),
    ("DU(34,56)", ClusterSizeModel.discrete_uniform(34, 56)),
    ("DU(10,80)", ClusterSizeModel.discrete_uniform(10, 80)),
)
_GRID_ICCS = (0.03, 0.05)
_GRID_Q = (0.3, 0.4, 0.5, 0.6, 0.7)
TABLE_IDS = ("table1", "table2", "table3-icc")


def reference_design(
    cluster_sizes: ClusterSizeModel, rho: float, q: float
) -> DesignInputs:
    """One cell of the bundled study grid."""
    return build_design(
        mu1=1.0,
        beta2=-0.431,
        p1=0.5,
        q=q,
        rho_s=rho,
        rho_u=rho,
        r_bar=0.5,
        cluster_sizes=cluster_sizes,
        alpha=0.05,
        power=0.8,
    )


@dataclass
class TableReport:
    """Rows of a reproduced study table plus the column order."""

    table: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def to_text(self) -> str:
        """The table as CSV; a label with a comma, such as ``DU(34,56)``, is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_format_cell(row.get(c)) for c in self.columns] for row in self.rows)
        return out.getvalue()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _study_columns(with_rates: bool) -> list[str]:
    columns = ["distribution", "rho_s", "rho_u", "q", "n_clusters"]
    if with_rates:
        columns += [f"{kind}_{name}" for name in ESTIMATORS for kind in ("type_i", "power")]
        columns.append("mc_standard_error")
    return columns


def reproduce_tables(
    selection: Sequence[str], replications: int = 0, seed: int = 0
) -> list[TableReport]:
    """Recompute the bundled study tables.

    ``table1`` and ``table2`` list the normal- and t-based cluster counts
    over the full grid; with ``replications > 0`` the empirical type I
    error and power of each variance estimator are appended (one null and
    one alternative study per row).  ``table3-icc`` lists the Poisson-model
    ICC obtained from a 10,000-cluster ZIP dataset for the two discrete-
    uniform grids, next to its large-sample limit.

    Raises:
        ConfigError: an unknown table identifier or ``replications < 0``.
    """
    unknown = [s for s in selection if s not in TABLE_IDS]
    if unknown:
        raise ConfigError(f"unknown table identifiers: {unknown}; valid: {TABLE_IDS}")
    if replications < 0:
        raise ConfigError(f"replications must be >= 0, got {replications}")

    return [_reproduce_table(table, replications, seed) for table in selection]


def _reproduce_table(table: str, replications: int, seed: int) -> TableReport:
    """One table, row by row over the reference grid.

    Row ``i`` of ``table1`` or ``table2`` runs its alternative study from
    ``replicate_seed(seed, 2 * i)`` and its null study from
    ``replicate_seed(seed, 2 * i + 1)``.  ``table3-icc`` covers the two DU
    laws only, and its row ``i`` draws its dataset from
    ``replicate_seed(seed, i)``.
    """
    icc, use_t = table == "table3-icc", table == "table2"
    sizing = sample_size_t if use_t else sample_size_normal
    columns = _study_columns(replications > 0 and not icc)
    if icc:
        columns += ["rho_hat_poisson", "rho_limit_poisson"]
    report = TableReport(table, columns)
    cells = [
        (label, dist, rho, q)
        for label, dist in _GRID_DISTRIBUTIONS
        if not (icc and label.startswith("TrunPoisson"))
        for rho in _GRID_ICCS
        for q in _GRID_Q
    ]
    for index, (label, dist, rho, q) in enumerate(cells):
        design = reference_design(dist, rho, q)
        row = {
            "distribution": label,
            "rho_s": rho,
            "rho_u": rho,
            "q": q,
            "n_clusters": sizing(design).n_clusters,
        }
        if icc:
            row["rho_hat_poisson"] = estimate_poisson_icc(
                design, 10_000, replicate_seed(seed, index)
            )
            row["rho_limit_poisson"] = poisson_icc_limit(design)
        elif replications > 0:
            for null in (True, False):
                study = run_power_study(
                    StudyConfig(
                        design=design,
                        replications=replications,
                        use_t_sizing=use_t,
                        seed=replicate_seed(seed, index * 2 + null),
                        null_hypothesis=null,
                    )
                )
                kind = "type_i" if null else "power"
                row.update({f"{kind}_{name}": r for name, r in study.rejection_rate.items()})
                row["mc_standard_error"] = study.mc_standard_error
        report.rows.append(row)
    return report
