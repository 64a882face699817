"""Monte Carlo studies: empirical power, type I error, and model comparisons.

A study draws ``L`` replicate trials at the design's computed cluster count,
fits each replicate, and reports the fraction rejected by the Wald test
under each variance estimator of ``gee.ESTIMATORS``, keyed by its name.
Type-I studies size the trial with the design's effect but generate data
with the effect removed.

Every Wald decision depends on a trial only through each cluster's arm,
size ``m_i`` and outcome sum ``Y_i`` (see :mod:`zipcrt.gee`), and the
Poisson-model ICC only through those and each cluster's sum of ``y**2``.
So this module draws nothing itself and never forms subject-level data:
``simulate._draw_replicates`` gives a chunk's ``(R, N)`` array of arms and
one ``(2, R, N)`` float64 array of its sizes and outcome sums, stacked, and
``simulate._trial_cluster_sums`` a dataset's per-cluster sums.  How they
are drawn, and from which tables, is :mod:`zipcrt.simulate`'s alone.

:func:`simulate_study` is the one study primitive: at a cluster count the
caller chooses, it returns every replicate's estimate and failure, and its
variance and Wald decision under each estimator, as one
:class:`StudyDraws`.  It draws the replicates in chunks of
``CHUNK_REPLICATES``, one chunk after another in one process.  A chunk's
estimates and failures come from ``gee._fit_rows``, the code
:func:`fit_zip` runs on one dataset, and its Wald decisions from one call
of ``gee._wald_rows``, the code :func:`wald_test` runs on one statistic,
on the ``(E, R)`` variances of every estimator at once.
Chunk ``k`` draws from the stream ``(seed, STREAM_TAG, k)``, so no chunk's
results depend on the chunks before it.  A study of more than one chunk
concatenates their arrays; a study of one chunk, such as any of at most
``CHUNK_REPLICATES`` replicates, returns that chunk's arrays as they are.
Each chunk times its draw, fit and Wald layers, and the study sums them in
:attr:`StudyDraws.seconds`.  :func:`run_power_study` is its reduction: it
sizes the trial, runs :func:`simulate_study` at that size and reduces the
draws to rates with :meth:`StudyDraws.report`; it is the one place a study
is sized and then run.  The bundled tables run it twice a row: row ``i``
of ``table1`` or ``table2`` runs its null study from
``replicate_seed(seed, 2 * i + 1)`` and its alternative study from
``replicate_seed(seed, 2 * i)``, both at the row's cluster count, and the
table sums its studies' layer times in :attr:`TableReport.seconds`.

:func:`estimate_poisson_icc` is a statistic of the dataset
``generate_trial(design, n_clusters, seed)``: ``simulate._trial_cluster_sums``
makes the same draws and reduces them to each cluster's sums of ``y`` and
``y**2`` without forming the dataset.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .design import ClusterSizeModel, DesignInputs, build_design, poisson_icc_limit
from . import gee
from .errors import ConfigError, DomainError, EstimationError, StudyError
from .gee import DF_RULES, ESTIMATORS, _check_arms, _fail, _fit_rows, _test_df, _wald_rows
# perfbench looks fit_zip up on this module; ROADMAP item 1 deletes the import
from .gee import fit_zip  # noqa: F401
from .power import sample_size_normal, sample_size_t
from .simulate import (
    _draw_replicates, _empty_arm_message, _intervention_range, _trial_cluster_sums, substream,
)

_REPLICATE_TAG = 0x52455053  # distinguishes replicate-seed derivation
_MAX_FAILURE_FRACTION = 0.01

# What a study or table manifest records about the engine.  A change to a
# stream, the chunk size or the draws changes seeded results and bumps the
# version; version 3 drew truncated-Poisson sizes by rejection, version 4
# drew each cluster's size, shared zero and ``K`` in turn, version 5 drew
# each arm's ``(m, K)`` as one sorted, shuffled multiset and every own
# Poisson sum with ``rng.poisson``, and version 6 drew each cluster's
# ``(m, K)``, then its own Poisson sum, each by one uniform from a keyed
# table, then its shared part with ``rng.poisson``.
ENGINE = "cluster-sum"
ENGINE_VERSION = 7
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
    ``mc_standard_error`` is the binomial standard error of the Jackknife's
    rate.  ``seconds`` is the study's :attr:`StudyDraws.seconds`.
    """

    n_clusters_used: int
    rejection_rate: dict[str, float]
    mc_standard_error: float
    replicate_failures: int
    replications: int
    seconds: dict[str, float] = field(compare=False)

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

    ``seconds`` maps each layer of a chunk to its ``time.perf_counter``
    seconds, summed over the chunks: ``"draw"`` (the chunk's stream and
    ``simulate._draw_replicates``), ``"fit"`` (the draw's failures and
    ``gee._fit_rows``) and ``"wald"`` (``gee._wald_rows`` under every
    estimator at once).  Like :attr:`StudyReport.seconds`, it takes no part
    in equality.
    """

    beta2_hat: np.ndarray
    sigma2: dict[str, np.ndarray]
    reject: dict[str, np.ndarray]
    failure: list[Optional[str]]
    seconds: dict[str, float] = field(compare=False)

    def report(self, n_clusters: int) -> StudyReport:
        """The study's rejection rates over the replicates that did not fail.

        Raises:
            StudyError: 1% or more of the replicates failed, so the rates
                would no longer be trustworthy.
        """
        replications = len(self.failure)
        effective = self.failure.count(None)
        failed = replications - effective
        if failed / replications >= _MAX_FAILURE_FRACTION:
            sample = "; ".join(sorted(set(self.failure) - {None})[:3])
            raise StudyError(
                f"{failed}/{replications} replicates failed "
                f"(>= {_MAX_FAILURE_FRACTION:.0%}); first causes: {sample}"
            )
        rates = {name: np.count_nonzero(reject) / effective for name, reject in self.reject.items()}
        rate = rates["jackknife"]
        return StudyReport(
            n_clusters_used=n_clusters,
            rejection_rate=rates,
            mc_standard_error=math.sqrt(rate * (1.0 - rate) / effective),
            replicate_failures=failed,
            replications=replications,
            seconds=self.seconds,
        )


def _simulate_chunk(
    design: DesignInputs,
    n_clusters: int,
    seed: int,
    chunk: int,
    rows: int,
    df: Optional[int],
) -> StudyDraws:
    """Draw and test ``rows`` replicates from the stream of chunk ``chunk``, at
    the design's ``alpha`` against the normal (``df`` None) or t(``df``).

    A replicate fails with the message, and at the first of the checks,
    that :func:`generate_trial`, :func:`fit_zip` and :func:`wald_test` would
    raise on it, in their order.
    """
    start = time.perf_counter()
    rng = substream(seed, STREAM_TAG, chunk)
    arm, my, empty_arm = _draw_replicates(design, n_clusters, rng, rows)
    drawn = time.perf_counter()
    failure: list[Optional[str]] = [None] * rows
    if n_clusters < 2:
        _fail(failure, np.ones(rows, dtype=bool), f"need at least 2 clusters, got {n_clusters}")
    if empty_arm.any():
        _fail(failure, empty_arm, _empty_arm_message(n_clusters, design.r_bar))

    _, _, log_mean, terms = _fit_rows(arm, my, np.arange(n_clusters), failure)
    with np.errstate(invalid="ignore"):
        beta2_hat = log_mean[:, 1] - log_mean[:, 0]
        sigma2 = n_clusters * (terms[..., 0] + terms[..., 1])  # (E, R)
    fitted = time.perf_counter()
    reject = _wald_rows(beta2_hat, sigma2, n_clusters, design.alpha, df, failure)[2]
    seconds = {"draw": drawn - start, "fit": fitted - drawn, "wald": time.perf_counter() - fitted}
    names = gee.ESTIMATORS  # the order of _fit_rows' terms
    return StudyDraws(beta2_hat, dict(zip(names, sigma2)), dict(zip(names, reject)), failure, seconds)


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
    arrays, concatenated in order, or the one chunk's arrays themselves
    when there is one chunk.

    Raises:
        ConfigError: ``replications < 1``.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    chunks = []
    for k, start in enumerate(range(0, replications, CHUNK_REPLICATES)):
        rows = min(CHUNK_REPLICATES, replications - start)
        chunks.append(_simulate_chunk(design, n_clusters, seed, k, rows, df))
    if len(chunks) == 1:
        return chunks[0]
    sigma2, reject = (
        {name: np.concatenate([part[name] for part in parts]) for name in ESTIMATORS}
        for parts in ([c.sigma2 for c in chunks], [c.reject for c in chunks])
    )
    return StudyDraws(
        np.concatenate([c.beta2_hat for c in chunks]),
        sigma2,
        reject,
        [f for c in chunks for f in c.failure],
        {layer: sum(c.seconds[layer] for c in chunks) for layer in chunks[0].seconds},
    )


def run_power_study(config: StudyConfig, *, workers: int = 1) -> StudyReport:
    """Empirical rejection rates for one scenario: the design's cluster
    count, then :func:`simulate_study` at that count, then
    :meth:`StudyDraws.report`.

    Failed replicates (an arm absent or all-zero, in the data or after a
    Jackknife deletion, so the mean model is undefined) are excluded from
    the denominators; if they reach 1% of the replications the study
    aborts, since the rates would no longer be trustworthy.  A count whose
    balanced layouts can leave an arm fewer than 2 clusters would abort
    it: a jackknife deletion empties that arm in half of the layouts, or in
    all, so it raises a DomainError before anything is drawn.

    ``workers`` is kept only because ``perfbench/workloads.py`` passes
    ``workers=1``; any other value is a ConfigError.  ROADMAP item 1
    deletes the keyword together with that call.
    """
    if workers != 1:
        raise ConfigError(f"workers must be 1, got {workers}")
    sizing = sample_size_t if config.use_t_sizing else sample_size_normal
    n_clusters = sizing(config.design).n_clusters
    low, high = _intervention_range(n_clusters, config.design.r_bar)
    fewest = min(low, n_clusters - high)
    if fewest < 2:
        raise DomainError(
            f"N = {n_clusters} clusters at r_bar = {config.design.r_bar} can leave an arm "
            f"{fewest} of them, and a study needs at least 2 in each arm"
        )
    design = config.design.under_null() if config.null_hypothesis else config.design
    df = _test_df(config.test_df_rule, n_clusters) if config.use_t_sizing else None
    draws = simulate_study(design, n_clusters, config.replications, config.seed, df)
    return draws.report(n_clusters)


def _poisson_icc(arm: np.ndarray, m: np.ndarray, ysum: np.ndarray, ysq: np.ndarray) -> float:
    """:func:`estimate_poisson_icc`'s statistic from each cluster's arm, size
    ``m_i``, outcome sum ``Y_i`` and sum of squared outcomes.

    Per cluster, the Pearson residuals ``e = (y - mu_a) / sqrt(mu_a)`` sum
    to ``(Y_i - m_i mu_a) / sqrt(mu_a)``; per arm, their squares sum to
    ``sum y**2 / mu_a - S_a``, because ``mu_a = S_a / M_a``.

    Raises:
        EstimationError: an arm is absent or all-zero, every cluster has
            size 1, or every residual is 0.
    """
    m, ysum = np.array((m, ysum), dtype=np.float64)
    subjects, outcomes = (np.bincount(arm, weights=w, minlength=2) for w in (m, ysum))
    failure: list[Optional[str]] = [None]
    _check_arms(subjects[None], outcomes[None], failure)
    if failure[0] is not None:
        raise EstimationError(failure[0])
    mu = outcomes / subjects
    square_sum = float((np.bincount(arm, weights=ysq, minlength=2) / mu - outcomes).sum())
    total = (ysum - m * mu[arm]) ** 2 / mu[arm]
    pair_sum = (float(total.sum()) - square_sum) / 2.0
    pair_count = float((m * (m - 1)).sum()) / 2.0
    if pair_count == 0:
        raise EstimationError("no within-cluster pairs: all clusters have size 1")
    if square_sum <= 0:
        raise EstimationError("every Pearson residual is 0: the ICC is undefined")
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
    draws (see ``simulate._trial_cluster_sums``).  Its limit as
    ``n_clusters`` grows is :func:`zipcrt.design.poisson_icc_limit`.

    Raises:
        ConfigError: fewer than 2 clusters, or an arm left empty.
        DomainError: a seed outside ``[0, 2**64)``.
        EstimationError: an all-zero arm, no within-cluster pairs, or every
            Pearson residual 0.
    """
    return _poisson_icc(*_trial_cluster_sums(design, n_clusters, seed))


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
    """Rows of a reproduced study table plus the column order.

    ``seconds`` sums the :attr:`StudyReport.seconds` of the table's studies,
    by layer, and is empty when it ran none.  It takes no part in equality
    or in :meth:`to_text`.
    """

    table: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def to_text(self) -> str:
        """The table as CSV; a label with a comma, such as ``DU(34,56)``, is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_format_cell(row[c]) for c in self.columns] for row in self.rows)
        return out.getvalue()


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def reproduce_tables(
    selection: Sequence[str], replications: int = 0, seed: int = 0
) -> list[TableReport]:
    """Recompute the bundled study tables.

    ``table1`` and ``table2`` list the normal- and t-based cluster counts
    over the full grid; with ``replications > 0`` the empirical type I
    error and power of each variance estimator are appended (one null and
    one alternative study per row), and ``mc_standard_error`` is the
    binomial MC standard error of the alternative study's Jackknife power.
    ``table3-icc`` lists the Poisson-model ICC obtained from a
    10,000-cluster ZIP dataset for the two discrete-uniform grids, next to
    its large-sample limit.

    Raises:
        ConfigError: an unknown table identifier or ``replications < 0``.
    """
    unknown = [s for s in selection if s not in TABLE_IDS]
    if unknown:
        raise ConfigError(f"unknown table identifiers: {unknown}; valid: {TABLE_IDS}")
    if replications < 0:
        raise ConfigError(f"replications must be >= 0, got {replications}")

    return [
        _icc_table(seed) if table == "table3-icc" else _study_table(table, replications, seed)
        for table in selection
    ]


_LABEL_COLUMNS = ["distribution", "rho_s", "rho_u", "q", "n_clusters"]


def _grid_cells(
    distributions: Sequence[tuple[str, ClusterSizeModel]],
) -> list[tuple[dict, DesignInputs]]:
    """Each grid cell over ``distributions`` in row order: its label columns
    other than ``n_clusters``, and its design."""
    return [
        (dict(distribution=label, rho_s=rho, rho_u=rho, q=q), reference_design(dist, rho, q))
        for label, dist in distributions
        for rho in _GRID_ICCS
        for q in _GRID_Q
    ]


def _study_table(table: str, replications: int, seed: int) -> TableReport:
    """``table1`` (normal sizing and test) or ``table2`` (t sizing, tested
    against t(N - 2)) over the full grid.

    Row ``i`` runs two :func:`run_power_study` of its design: the null
    study from ``replicate_seed(seed, 2 * i + 1)``, then the alternative
    study from ``replicate_seed(seed, 2 * i)``.
    """
    t_based = table == "table2"
    sizing = sample_size_t if t_based else sample_size_normal
    rates = [f"{kind}_{name}" for name in ESTIMATORS for kind in ("type_i", "power")]
    columns = _LABEL_COLUMNS + (rates + ["mc_standard_error"] if replications > 0 else [])
    report = TableReport(table, columns)
    for i, (row, design) in enumerate(_grid_cells(_GRID_DISTRIBUTIONS)):
        row["n_clusters"] = sizing(design).n_clusters
        if replications > 0:
            for kind, k, null in (("type_i", 2 * i + 1, True), ("power", 2 * i, False)):
                config = StudyConfig(design, replications, t_based, "n-2", replicate_seed(seed, k), null)
                study = run_power_study(config)
                row.update({f"{kind}_{name}": r for name, r in study.rejection_rate.items()})
                for layer, spent in study.seconds.items():
                    report.seconds[layer] = report.seconds.get(layer, 0.0) + spent
            row["mc_standard_error"] = study.mc_standard_error  # the alternative's, run last
        report.rows.append(row)
    return report


def _icc_table(seed: int) -> TableReport:
    """``table3-icc`` over the two DU laws, sized by the normal rule; row
    ``i`` draws its dataset from ``replicate_seed(seed, i)``."""
    report = TableReport("table3-icc", [*_LABEL_COLUMNS, "rho_hat_poisson", "rho_limit_poisson"])
    for i, (row, design) in enumerate(_grid_cells(_GRID_DISTRIBUTIONS[1:])):
        row["n_clusters"] = sample_size_normal(design).n_clusters
        row["rho_hat_poisson"] = estimate_poisson_icc(design, 10_000, replicate_seed(seed, i))
        row["rho_limit_poisson"] = poisson_icc_limit(design)
        report.rows.append(row)
    return report
