"""Monte Carlo studies: empirical power, type I error, and model comparisons.

A study draws ``L`` replicate trials at the design's computed cluster count,
fits each replicate, and reports the fraction rejected by the Wald test
under the sandwich ("naive") and leave-one-out ("jackknife") variance
estimators.  Type-I studies size the trial with the design's effect but
generate data with the effect removed.

Studies, the ICC and :func:`zipcrt.simulate.generate_trial` draw from one
core, ``simulate._draw_nonzero_counts``: given each cluster's arm, it draws
the size ``m`` and the number ``K`` of subjects that are not structural
zeros (see :mod:`zipcrt.simulate`).  Every Wald decision depends on a trial
only through each cluster's arm, ``m_i`` and outcome sum ``Y_i`` (see
:mod:`zipcrt.gee`), so the study engine never forms subject-level data: it
draws ``Y = Poisson(K * lam * (1 - rho_u)) + K * Poisson(lam * rho_u)``,
the ``K`` own Poisson parts in one draw plus ``K`` copies of the shared
part.  Replicate ``r`` puts the intervention arm on its first clusters.

Replicates are drawn in chunks of ``CHUNK_REPLICATES`` as ``(R, N)`` arrays,
and each chunk's statistics are row reductions with :func:`fit_zip`'s and
:func:`wald_test`'s formulas.  Chunk ``k`` of a study draws from the stream
``(seed, STREAM_TAG, k)``, so a seeded report is the same for any number of
workers and any order in which chunks complete.

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
from .errors import ConfigError, DomainError, EstimationError, StudyError
# fit_zip is not called here; the benchmark harness looks it up on this module
from .gee import _arm_sums, fit_zip  # noqa: F401
from .power import normal_quantile, sample_size_normal, sample_size_t, t_quantile
from .simulate import (
    _balanced_count,
    _draw_nonzero_counts,
    _draw_trial,
    _empty_arm_message,
    _stalled_message,
)

_REPLICATE_TAG = 0x52455053  # distinguishes replicate-seed derivation
_MAX_FAILURE_FRACTION = 0.01

DF_RULES = ("n-2", "n-4")

# What a study or table manifest records about the engine.  A change to a
# stream, the chunk size or the draws changes seeded results and bumps the
# version.
ENGINE = "cluster-sum"
ENGINE_VERSION = 3
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
    """Aggregated study outcome."""

    n_clusters_used: int
    rejection_rate_naive: float
    rejection_rate_jackknife: float
    mc_standard_error: float
    replicate_failures: int
    replications: int


def _test_df(rule: str, n_clusters: int) -> int:
    return n_clusters - 2 if rule == "n-2" else n_clusters - 4


@dataclass(frozen=True)
class _Chunk:
    """Per-replicate results of one chunk.

    ``failure`` holds the message of the error the replicate's fit or test
    raised, or None.  The decisions of a failed replicate are False and its
    estimates are meaningless.
    """

    beta2_hat: np.ndarray
    sigma2_naive: np.ndarray
    sigma2_jackknife: np.ndarray
    reject_naive: np.ndarray
    reject_jackknife: np.ndarray
    failure: list[Optional[str]]


def _draw_clusters(
    design: DesignInputs, n_clusters: int, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, ...]:
    """``(R, N)`` arrays of arm, size and outcome sum, and two failure masks.

    Replicate ``r`` allocates clusters ``0 .. n_intervention[r] - 1`` to the
    intervention arm; the clusters are exchangeable, so which ones receive it
    changes no statistic.  The masks mark replicates whose allocation left an
    arm empty and replicates with a stalled cluster-size draw.
    """
    count, tie = _balanced_count(n_clusters, design.r_bar)
    n_intervention = np.full(rows, count)
    if tie:
        n_intervention += rng.random(rows) < 0.5
    arm = np.arange(n_clusters) < n_intervention[:, None]
    m, nonzero, stalled = _draw_nonzero_counts(design, arm, rng)
    lam = np.where(arm, design.intervention.lam, design.control.lam)
    y = rng.poisson(nonzero * lam * (1.0 - design.rho_u))
    y += nonzero * rng.poisson(lam * design.rho_u)
    empty_arm = (n_intervention == 0) | (n_intervention == n_clusters)
    return arm, m, y, empty_arm, stalled.any(axis=1)


def _simulate_chunk(
    design: DesignInputs,
    n_clusters: int,
    seed: int,
    chunk: int,
    rows: int,
    reference: str,
    df: Optional[int],
    alpha: float,
) -> _Chunk:
    """Draw and test ``rows`` replicates from the stream of chunk ``chunk``.

    A replicate fails with the message, and at the first of the checks,
    that :func:`generate_trial`, :func:`fit_zip` and :func:`wald_test` would
    raise on it, in their order.
    """
    rng = np.random.default_rng([seed, STREAM_TAG, chunk])
    arm, m, y, empty_arm, stalled = _draw_clusters(design, n_clusters, rng, rows)
    failure: list[Optional[str]] = [None] * rows

    def fail(bad: np.ndarray, message) -> None:
        for r in np.flatnonzero(bad):
            if failure[r] is None:
                failure[r] = message(r) if callable(message) else message

    everyone = np.ones(rows, dtype=bool)
    if n_clusters < 2:
        fail(everyone, f"need at least 2 clusters, got {n_clusters}")
    fail(empty_arm, _empty_arm_message(n_clusters, design.r_bar))
    fail(stalled, _stalled_message(design.cluster_sizes))

    # per-arm totals are sums of integers, exact in float64; the allocation
    # check leaves both arms present, so fit_zip's arm-absent check never fires
    in_arm = (~arm, arm)
    subjects = [np.where(a, m, 0).sum(axis=1).astype(np.float64) for a in in_arm]
    outcomes = [np.where(a, y, 0).sum(axis=1).astype(np.float64) for a in in_arm]
    for name, total in zip(("control", "intervention"), outcomes):
        fail(total <= 0, f"{name} arm has all-zero outcomes; log-mean undefined")
    if n_clusters < 3:
        fail(everyone, f"jackknife needs at least 3 clusters, got {n_clusters}")

    m = m.astype(np.float64)
    y = y.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ybar = [s / n for s, n in zip(outcomes, subjects)]
        log_mean = [np.log(v) for v in ybar]
        beta2_hat = log_mean[1] - log_mean[0]

        def own(values):  # each cluster's own-arm value of a per-arm pair
            return np.where(arm, values[1][:, None], values[0][:, None])

        residual = y - m * own(ybar)
        squares = residual * residual
        s = [np.where(a, squares, 0.0).sum(axis=1) / (o * o) for a, o in zip(in_arm, outcomes)]
        sigma2_naive = n_clusters * (s[0] + s[1])

        loo_subjects = own(subjects) - m
        loo_outcomes = own(outcomes) - y
        for what, bad in (
            ("empties arm", loo_subjects <= 0),
            ("leaves all-zero outcomes in arm", loo_outcomes <= 0),
        ):
            first = np.argmax(bad, axis=1)
            fail(
                bad.any(axis=1),
                lambda r: f"removing cluster {first[r]} {what} {int(arm[r, first[r]])}",
            )
        delta = np.log(loo_outcomes / loo_subjects) - own(log_mean)
        deltas = delta * delta
        d = [np.where(a, deltas, 0.0).sum(axis=1) for a in in_arm]
        sigma2_jackknife = n_clusters * ((n_clusters - 2) / n_clusters * (d[0] + d[1]))

    # wald_test: the naive test's variance, its critical value, then the
    # jackknife test's variance
    def positive(sigma2: np.ndarray) -> None:
        fail(~(sigma2 > 0.0), lambda r: f"sigma2_sq must be positive, got {float(sigma2[r])}")

    positive(sigma2_naive)
    critical = math.inf
    try:
        if reference == "normal":
            critical = normal_quantile(1.0 - alpha / 2.0)
        else:
            critical = t_quantile(df, 1.0 - alpha / 2.0)
    except DomainError as exc:
        fail(everyone, str(exc))
    positive(sigma2_jackknife)

    ok = np.array([f is None for f in failure])
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = math.sqrt(n_clusters) * beta2_hat
        reject_naive = ok & (np.abs(scaled / np.sqrt(sigma2_naive)) > critical)
        reject_jackknife = ok & (np.abs(scaled / np.sqrt(sigma2_jackknife)) > critical)
    return _Chunk(
        beta2_hat, sigma2_naive, sigma2_jackknife, reject_naive, reject_jackknife, failure
    )


def _chunk_args(config: StudyConfig, n_clusters: int) -> list[tuple]:
    """:func:`_simulate_chunk` arguments for every chunk of a study."""
    design = config.design.under_null() if config.null_hypothesis else config.design
    reference = "t" if config.use_t_sizing else "normal"
    df = _test_df(config.test_df_rule, n_clusters) if reference == "t" else None
    return [
        (design, n_clusters, config.seed, chunk,
         min(CHUNK_REPLICATES, config.replications - start), reference, df,
         config.design.alpha)
        for chunk, start in enumerate(range(0, config.replications, CHUNK_REPLICATES))
    ]


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def run_power_study(config: StudyConfig, *, workers: int = 1) -> StudyReport:
    """Empirical rejection rates for one scenario.

    Failed replicates (an arm absent or all-zero, in the data or after a
    Jackknife deletion, so the mean model is undefined) are excluded from
    the denominators; if they exceed 1% of the replications the study
    aborts, since the rates would no longer be trustworthy.  With
    ``workers > 1`` a study of more than one chunk runs its chunks in a
    process pool; the report is the same for any worker count.  ``workers``
    below 1 is a ConfigError.
    """
    _check_workers(workers)
    sizing = sample_size_t if config.use_t_sizing else sample_size_normal
    n_clusters = sizing(config.design).n_clusters

    args = _chunk_args(config, n_clusters)
    if workers > 1 and len(args) > 1:  # a pool costs more than one chunk
        # imported here: multiprocessing would cost every start-up its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            chunks = list(pool.map(_simulate_chunk, *zip(*args)))
    else:
        chunks = [_simulate_chunk(*a) for a in args]

    failures = [f for chunk in chunks for f in chunk.failure if f is not None]
    naive_rejections = sum(int(chunk.reject_naive.sum()) for chunk in chunks)
    jack_rejections = sum(int(chunk.reject_jackknife.sum()) for chunk in chunks)
    n_failed = len(failures)
    if n_failed / config.replications >= _MAX_FAILURE_FRACTION:
        sample = "; ".join(sorted(set(failures))[:3])
        raise StudyError(
            f"{n_failed}/{config.replications} replicates failed "
            f"(>= {_MAX_FAILURE_FRACTION:.0%}); first causes: {sample}"
        )
    effective = config.replications - n_failed
    rate_naive = naive_rejections / effective
    rate_jack = jack_rejections / effective
    return StudyReport(
        n_clusters_used=n_clusters,
        rejection_rate_naive=rate_naive,
        rejection_rate_jackknife=rate_jack,
        mc_standard_error=math.sqrt(rate_jack * (1.0 - rate_jack) / effective),
        replicate_failures=n_failed,
        replications=config.replications,
    )


def _draw_icc_sums(design: DesignInputs, n_clusters: int, seed: int) -> tuple[np.ndarray, ...]:
    """The per-cluster arm, size, sum of ``y`` and sum of ``y**2`` of
    ``generate_trial(design, n_clusters, seed)``, from the same draws.

    Each of a cluster's ``K`` non-structural-zero subjects has the outcome
    ``P_j + U``.  With ``T = sum P_j`` and ``Q = sum P_j**2`` the cluster's
    sums are ``Y = T + K * U`` and ``sum y**2 = Q + 2 * U * T + K * U**2``.
    """
    arm, m, nonzero, shared, own = _draw_trial(design, n_clusters, seed)
    # per-cluster sums of P and P**2 as differences of running sums, which
    # also gives 0 for a cluster with K = 0
    ends = np.cumsum(nonzero)
    starts = ends - nonzero
    running = np.zeros(own.size + 1, dtype=np.int64)
    np.cumsum(own, out=running[1:])
    t = running[ends] - running[starts]
    np.cumsum(np.multiply(own, own, out=own), out=running[1:])
    q = running[ends] - running[starts]
    y = t + nonzero * shared
    ysq = q + shared * (2 * t + nonzero * shared)
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
    subjects, outcomes = _arm_sums(arm, m, ysum)
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
        ZipCrtError: a stalled truncated-Poisson cluster-size draw.
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
        columns += [
            "type_i_naive",
            "power_naive",
            "type_i_jackknife",
            "power_jackknife",
            "mc_standard_error",
        ]
    return columns


def reproduce_tables(
    selection: Sequence[str],
    replications: int = 0,
    seed: int = 0,
    *,
    workers: int = 1,
) -> list[TableReport]:
    """Recompute the bundled study tables.

    ``table1`` and ``table2`` list the normal- and t-based cluster counts
    over the full grid; with ``replications > 0`` the empirical type I
    error and power of both variance estimators are appended (one null and
    one alternative study per row).  ``table3-icc`` lists the Poisson-model
    ICC obtained from a 10,000-cluster ZIP dataset for the two discrete-
    uniform grids, next to its large-sample limit.

    Raises:
        ConfigError: an unknown table identifier, ``replications < 0`` or
            ``workers < 1``.
    """
    unknown = [s for s in selection if s not in TABLE_IDS]
    if unknown:
        raise ConfigError(f"unknown table identifiers: {unknown}; valid: {TABLE_IDS}")
    if replications < 0:
        raise ConfigError(f"replications must be >= 0, got {replications}")
    _check_workers(workers)

    reports = []
    for table in selection:
        if table in ("table1", "table2"):
            reports.append(_reproduce_size_table(table, replications, seed, workers))
        else:
            reports.append(_reproduce_icc_table(seed))
    return reports


def _reproduce_size_table(
    table: str, replications: int, seed: int, workers: int
) -> TableReport:
    use_t = table == "table2"
    report = TableReport(table=table, columns=_study_columns(replications > 0))
    row_index = 0
    for label, dist in _GRID_DISTRIBUTIONS:
        for rho in _GRID_ICCS:
            for q in _GRID_Q:
                design = reference_design(dist, rho, q)
                sizing = sample_size_t if use_t else sample_size_normal
                row = {
                    "distribution": label,
                    "rho_s": rho,
                    "rho_u": rho,
                    "q": q,
                    "n_clusters": sizing(design).n_clusters,
                }
                if replications > 0:
                    for null in (True, False):
                        study = run_power_study(
                            StudyConfig(
                                design=design,
                                replications=replications,
                                use_t_sizing=use_t,
                                seed=replicate_seed(seed, row_index * 2 + null),
                                null_hypothesis=null,
                            ),
                            workers=workers,
                        )
                        kind = "type_i" if null else "power"
                        row[f"{kind}_naive"] = study.rejection_rate_naive
                        row[f"{kind}_jackknife"] = study.rejection_rate_jackknife
                        row["mc_standard_error"] = study.mc_standard_error
                report.rows.append(row)
                row_index += 1
    return report


def _reproduce_icc_table(seed: int) -> TableReport:
    report = TableReport(
        table="table3-icc",
        columns=[
            "distribution", "rho_s", "rho_u", "q", "n_clusters",
            "rho_hat_poisson", "rho_limit_poisson",
        ],
    )
    row_index = 0
    for label, dist in _GRID_DISTRIBUTIONS:
        if label.startswith("TrunPoisson"):
            continue  # the comparison table covers the two DU grids
        for rho in _GRID_ICCS:
            for q in _GRID_Q:
                design = reference_design(dist, rho, q)
                report.rows.append(
                    {
                        "distribution": label,
                        "rho_s": rho,
                        "rho_u": rho,
                        "q": q,
                        "n_clusters": sample_size_normal(design).n_clusters,
                        "rho_hat_poisson": estimate_poisson_icc(
                            design, 10_000, replicate_seed(seed, row_index)
                        ),
                        "rho_limit_poisson": poisson_icc_limit(design),
                    }
                )
                row_index += 1
    return report
