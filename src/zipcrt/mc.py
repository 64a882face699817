"""Monte Carlo studies: empirical power, type I error, and model comparisons.

A study draws ``L`` replicate trials at the design's computed cluster count,
fits each replicate, and reports the fraction rejected by the Wald test
under the sandwich ("naive") and leave-one-out ("jackknife") variance
estimators.  Type-I studies size the trial with the design's effect but
generate data with the effect removed.

Replicates draw from substreams derived from ``(seed, replicate index)``,
so reports are reproducible and independent of worker count or completion
order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .design import ClusterSizeModel, DesignInputs, build_design
from .errors import ConfigError, EstimationError, StudyError, ZipCrtError
from .gee import _arm_totals, fit_zip, wald_test
from .power import sample_size_normal, sample_size_t
from .simulate import generate_trial

_REPLICATE_TAG = 0x52455053  # distinguishes replicate-seed derivation
_MAX_FAILURE_FRACTION = 0.01

DF_RULES = ("n-2", "n-4")


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


def _run_replicate(
    gen_design: DesignInputs,
    n_clusters: int,
    seed: int,
    reference: str,
    df: Optional[int],
    alpha: float,
) -> tuple[Optional[bool], Optional[bool], Optional[str]]:
    """(naive reject, jackknife reject, error) for one replicate."""
    try:
        data = generate_trial(gen_design, n_clusters, seed)
        fit = fit_zip(data)
        naive = wald_test(
            float(fit.beta_hat[1]), fit.sigma2_sq("naive"), n_clusters,
            reference, alpha, df,
        )
        jack = wald_test(
            float(fit.beta_hat[1]), fit.sigma2_sq("jackknife"), n_clusters,
            reference, alpha, df,
        )
        return naive.reject, jack.reject, None
    except ZipCrtError as exc:
        return None, None, str(exc)


def _replicate_args(config: StudyConfig, n_clusters: int):
    gen_design = (
        config.design.under_null() if config.null_hypothesis else config.design
    )
    reference = "t" if config.use_t_sizing else "normal"
    df = _test_df(config.test_df_rule, n_clusters) if reference == "t" else None
    alpha = config.design.alpha
    for index in range(config.replications):
        yield (
            gen_design,
            n_clusters,
            replicate_seed(config.seed, index),
            reference,
            df,
            alpha,
        )


def run_power_study(config: StudyConfig, *, workers: int = 1) -> StudyReport:
    """Empirical rejection rates for one scenario.

    Failed replicates (an arm absent or all-zero, in the data or after a
    Jackknife deletion, so the mean model is undefined) are excluded from
    the denominators; if they exceed 1% of the replications the study
    aborts, since the rates would no longer be trustworthy.
    """
    sizing = sample_size_t if config.use_t_sizing else sample_size_normal
    n_clusters = sizing(config.design).n_clusters

    results: list[tuple[Optional[bool], Optional[bool], Optional[str]]]
    args = list(_replicate_args(config, n_clusters))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate_star, args, chunksize=16))
    else:
        results = [_run_replicate(*a) for a in args]

    naive_rejections = 0
    jack_rejections = 0
    failures = []
    for naive, jack, error in results:
        if error is not None:
            failures.append(error)
        else:
            naive_rejections += bool(naive)
            jack_rejections += bool(jack)
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


def _run_replicate_star(args) -> tuple[Optional[bool], Optional[bool], Optional[str]]:
    return _run_replicate(*args)


def estimate_poisson_icc(
    design: DesignInputs, n_clusters: int = 10_000, seed: int = 0
) -> float:
    """Intracluster correlation a Poisson working model would report.

    Generates one ZIP dataset, fits the arm means under a Poisson working
    model, and forms Pearson residuals ``e = (y - mu_hat) / sqrt(mu_hat)``.
    The moment estimator is the mean within-cluster pairwise residual
    product divided by the mean squared residual:

        rho_hat = [sum_i sum_{j<j'} e_ij e_ij' / total pair count]
                  / [sum e**2 / total subjects]

    This is what a sample-size method built on a Poisson model would be fed
    when the outcomes are actually zero-inflated.
    """
    data = generate_trial(design, n_clusters, seed)
    m, ysum, subjects, outcomes = _arm_totals(data)
    mu = (outcomes / subjects)[data.arm]
    # per-cluster sum and sum of squares of e, from the cluster's m, sum y
    # and sum y**2; the dataset is this function's own, so y is squared in
    # place rather than in a copy as long as the outcome column
    ysq = data.cluster_sums(np.multiply(data.outcomes, data.outcomes, out=data.outcomes))
    total = (ysum - m * mu) / np.sqrt(mu)
    squares = (ysq - 2.0 * mu * ysum + m * mu * mu) / mu
    pair_sum = float((total * total - squares).sum()) / 2.0
    pair_count = float((m * (m - 1)).sum()) / 2.0
    if pair_count == 0:
        raise EstimationError("no within-cluster pairs: all clusters have size 1")
    return (pair_sum / pair_count) / (float(squares.sum()) / data.n_subjects)


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
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"


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
    uniform grids.

    Raises:
        ConfigError: an unknown table identifier.
    """
    unknown = [s for s in selection if s not in TABLE_IDS]
    if unknown:
        raise ConfigError(f"unknown table identifiers: {unknown}; valid: {TABLE_IDS}")

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
        columns=["distribution", "rho_s", "rho_u", "q", "n_clusters", "rho_hat_poisson"],
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
                    }
                )
                row_index += 1
    return report
