"""The three benchmark workloads and the checks of their outputs.

Each workload builds its inputs from the run seed, runs the same amount of
work in every ``round(index)`` (round ``index`` draws its data from
``(seed, index)``), and keeps what it needs to check its outputs once timing
is over.  The program is driven only through public ``zipcrt`` functions,
looked up on their modules at call time so that the tracer can wrap them.

Every timed call into the program goes through the workload's
:class:`clock.Clock`.  Round results count operations attempted and failed,
the work units that succeeded (study replicates, ICC datasets or
simulate-and-fit round trips) and the clusters those units simulated and
reduced.  Failed operations never count as work done.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zipcrt import ClusterSizeModel, EstimationError, StudyError, cli, mc, power, simulate

from clock import Clock
from tracing import patched

# The two discrete-uniform grids of table3-icc and the TrunPoisson grid of
# table1/table2; every one has mean cluster size 45.
GRIDS = (
    ("TrunPoisson(45,20,70)", ClusterSizeModel.truncated_poisson(45.0, 20, 70)),
    ("DU(34,56)", ClusterSizeModel.discrete_uniform(34, 56)),
    ("DU(10,80)", ClusterSizeModel.discrete_uniform(10, 80)),
)
DU_GRIDS = GRIDS[1:]
ICCS = (0.03, 0.05)
QS = (0.3, 0.4, 0.5, 0.6, 0.7)

_CHOICE_TAG = 0x43484F53  # stream for the run-level choice of grid cells


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    clusters: int = 0
    raw_s: float = 0.0  # seconds inside timed calls
    scaled_s: float = 0.0  # the same, scaled to the reference host speed
    speeds: list = field(default_factory=list)


def round_seeds(seed: int, index: int, count: int) -> list[int]:
    """``count`` 64-bit data seeds for round ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(count, np.uint64)
    return [int(s) for s in state]


def _pick_cells(seed: int) -> list[tuple[str, ClusterSizeModel, float, float]]:
    """One (ICC, q) cell of table3-icc per discrete-uniform grid, chosen by seed."""
    rng = np.random.default_rng([seed, _CHOICE_TAG])
    return [
        (label, sizes, float(rng.choice(ICCS)), float(rng.choice(QS)))
        for label, sizes in DU_GRIDS
    ]


# ---------------------------------------------------------------------------
# Oracles


def jackknife_oracle(arm: np.ndarray, m: np.ndarray, ysum: np.ndarray):
    """Closed-form ``beta`` and leave-one-cluster-out covariance from cluster totals.

    ``beta`` is the pair of arm log-means (intercept, arm contrast).  Deleting
    cluster ``i`` changes only its own arm's subject and outcome totals, so
    each leave-one-out ``beta`` is a log-mean of reduced totals, and the
    covariance is ``(N - 2) / N * sum(dev dev^T)``.
    """
    n = arm.size
    subjects = np.bincount(arm, weights=m, minlength=2)
    outcomes = np.bincount(arm, weights=ysum, minlength=2)
    log_mean = np.log(outcomes / subjects)
    beta = np.array([log_mean[0], log_mean[1] - log_mean[0]])
    loo_subjects = np.tile(subjects, (n, 1))
    loo_outcomes = np.tile(outcomes, (n, 1))
    loo_subjects[np.arange(n), arm] -= m
    loo_outcomes[np.arange(n), arm] -= ysum
    loo_log = np.log(loo_outcomes / loo_subjects)
    dev = np.column_stack([loo_log[:, 0], loo_log[:, 1] - loo_log[:, 0]]) - beta
    return beta, (n - 2) / n * (dev.T @ dev)


def oracle_from_csv(path: Path):
    """:func:`jackknife_oracle` of a ``cluster_id,arm,y`` dataset file."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != "cluster_id,arm,y":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = np.loadtxt(handle, delimiter=",", dtype=np.int64, ndmin=2)
    ids, cluster = np.unique(rows[:, 0], return_inverse=True)
    arm = np.zeros(ids.size, dtype=np.int64)
    arm[cluster] = rows[:, 1]
    if not np.array_equal(arm[cluster], rows[:, 1]):
        raise ValueError(f"{path}: a cluster changes arm")
    m = np.bincount(cluster).astype(np.float64)
    ysum = np.bincount(cluster, weights=rows[:, 2].astype(np.float64))
    return jackknife_oracle(arm, m, ysum)


def large_sample_icc(design) -> float:
    """Limit of ``estimate_poisson_icc`` as the cluster count grows.

    Pearson residuals ``(y - mu) / sqrt(mu)`` have within-cluster pair mean
    ``zeta / mu`` and square mean ``1 + odds(p) * mu`` in each arm, with
    ``zeta = mu rho_u (1 - p (1 - rho_s)) + mu^2 rho_s p / (1 - p)``.  With
    balanced allocation and equal cluster-size laws both arms weigh equally.
    """
    pair, square = [], []
    for arm in (design.control, design.intervention):
        odds = arm.p / (1.0 - arm.p)
        zeta = (
            arm.mu * design.rho_u * (1.0 - arm.p * (1.0 - design.rho_s))
            + arm.mu**2 * design.rho_s * odds
        )
        pair.append(zeta / arm.mu)
        square.append(1.0 + odds * arm.mu)
    return float(np.mean(pair) / np.mean(square))


# Tolerances, fixed before any run.
BETA_ATOL = 1e-8  # the solver's Newton step tolerance
SE_RTOL = 1e-6
PRINTED_RTOL = 1e-5  # the CLI prints 6 significant digits
PRINTED_ATOL = 1e-12  # round-off of a log-mean that is exactly 0
ICC_TOL_10K = 0.008  # about 5 SD of the estimate at 10,000 clusters
RATE_SE_MULTIPLE = 4.0
TYPE_I_ALLOWANCE = 0.03  # model error allowed beyond MC error
POWER_ALLOWANCE = 0.08


def _check_estimate(label: str, beta, se_jack, oracle) -> list[str]:
    beta_o, jack_o = oracle
    se_o = np.sqrt(np.diag(jack_o))
    errors = []
    if not np.allclose(beta, beta_o, rtol=0.0, atol=BETA_ATOL):
        errors.append(f"{label}: beta {list(beta)} != oracle {list(beta_o)}")
    if not np.allclose(se_jack, se_o, rtol=SE_RTOL, atol=0.0):
        errors.append(f"{label}: se_jackknife {list(se_jack)} != oracle {list(se_o)}")
    return errors


def _rate_error(label: str, hits: int, n: int, target: float, allowance: float):
    if n == 0:
        return f"{label}: no successful replicates to check"
    rate = hits / n
    bound = allowance + RATE_SE_MULTIPLE * math.sqrt(target * (1.0 - target) / n)
    if abs(rate - target) > bound:
        return f"{label}: {rate:.4f} over {n} replicates, outside {target} +- {bound:.4f}"
    return None


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class _Cell:
    label: str
    rho: float
    design: object
    n_clusters: int


class GridStudy:
    """t-sized null and alternative studies on the six q = 0.5 grid cells."""

    REPS = 80
    CHECK_REPS = 10

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock: Clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.reps = 3 if tiny else self.REPS
        self.cells = []
        for label, sizes in GRIDS:
            for rho in ICCS:
                design = mc.reference_design(sizes, rho, 0.5)
                n = power.sample_size_t(design).n_clusters
                self.cells.append(_Cell(label, rho, design, n))
        self.reports: list[tuple[_Cell, bool, object]] = []

    def _studies(self, index: int, reps: int):
        seeds = round_seeds(self.seed, index, 2 * len(self.cells))
        for i, cell in enumerate(self.cells):
            for j, null in enumerate((True, False)):
                yield cell, null, mc.StudyConfig(
                    design=cell.design,
                    replications=reps,
                    use_t_sizing=True,
                    seed=seeds[2 * i + j],
                    null_hypothesis=null,
                )

    def warmup(self) -> None:
        mc.run_power_study(mc.StudyConfig(self.cells[0].design, 2, use_t_sizing=True))

    def round(self, index: int) -> Round:
        out = Round()
        for cell, null, config in self._studies(index, self.reps):
            out.attempted += config.replications
            try:
                report = self.clock.call(mc.run_power_study, config, workers=1)
            except StudyError:
                out.failed += config.replications
                continue
            ok = report.replications - report.replicate_failures
            out.failed += report.replicate_failures
            out.units += ok
            out.clusters += ok * report.n_clusters_used
            self.reports.append((cell, null, report))
        return out

    def check(self) -> list[str]:
        errors = []
        hits = {True: 0, False: 0}
        counted = {True: 0, False: 0}
        for cell, null, report in self.reports:
            if report.n_clusters_used != cell.n_clusters:
                errors.append(
                    f"{cell.label} rho={cell.rho}: study used {report.n_clusters_used} "
                    f"clusters, sample_size_t gives {cell.n_clusters}"
                )
            effective = report.replications - report.replicate_failures
            hits[null] += round(report.rejection_rate_jackknife * effective)
            counted[null] += effective
        alpha = self.cells[0].design.alpha
        target_power = self.cells[0].design.power
        for error in (
            _rate_error("jackknife type I", hits[True], counted[True], alpha, TYPE_I_ALLOWANCE),
            _rate_error("jackknife power", hits[False], counted[False], target_power, POWER_ALLOWANCE),
        ):
            if error:
                errors.append(error)
        return errors + self._check_fits()

    def _check_fits(self) -> list[str]:
        """Re-run round 0 at ``CHECK_REPS`` replicates and check every fit."""
        fits = []
        original = mc.fit_zip

        def recording(data, *args, **kwargs):
            fit = original(data, *args, **kwargs)
            fits.append((data, fit))
            return fit

        with patched([(mc, "fit_zip", recording)]):
            for _, _, config in self._studies(0, self.CHECK_REPS):
                try:
                    mc.run_power_study(config, workers=1)
                except StudyError:
                    pass  # counted as failures in the timed rounds
        errors = []
        path = self.workdir / "check.csv"
        for k, (data, fit) in enumerate(fits):
            if not fit.converged:
                continue
            simulate.write_dataset(data, str(path))
            errors += _check_estimate(
                f"fit {k}", fit.beta_hat, fit.se_jackknife, oracle_from_csv(path)
            )
        return errors


@dataclass(frozen=True)
class _IccRow:
    label: str
    design: object
    expected: float


class IccRows:
    """Poisson-model ICC of 10,000-cluster datasets on table3-icc rows."""

    N_CLUSTERS = 10_000

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock: Clock):
        self.seed = seed
        self.clock = clock
        self.n_clusters = 300 if tiny else self.N_CLUSTERS
        self.rows = []
        for label, sizes, rho, q in _pick_cells(seed):
            design = mc.reference_design(sizes, rho, q)
            self.rows.append(_IccRow(f"{label} rho={rho} q={q}", design, large_sample_icc(design)))
        self.values: list[tuple[_IccRow, float]] = []

    def warmup(self) -> None:
        mc.estimate_poisson_icc(self.rows[0].design, 200, 0)

    def round(self, index: int) -> Round:
        out = Round()
        for row, seed in zip(self.rows, round_seeds(self.seed, index, len(self.rows))):
            out.attempted += 1
            try:
                value = self.clock.call(mc.estimate_poisson_icc, row.design, self.n_clusters, seed)
            except EstimationError:
                out.failed += 1
                continue
            out.units += 1
            out.clusters += self.n_clusters
            self.values.append((row, value))
        return out

    def check(self) -> list[str]:
        tol = ICC_TOL_10K * math.sqrt(self.N_CLUSTERS / self.n_clusters)
        return [
            f"{row.label}: ICC {value:.5f}, large-sample value {row.expected:.5f} +- {tol:.4f}"
            for row, value in self.values
            if abs(value - row.expected) > tol
        ]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``zipcrt.cli.main`` in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class RoundTrip:
    """``zipcrt simulate`` then ``zipcrt fit`` on thousand-cluster datasets."""

    N_CLUSTERS = 2000

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock: Clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.n_clusters = 60 if tiny else self.N_CLUSTERS
        self.configs = []
        for i, (label, sizes, rho, q) in enumerate(_pick_cells(seed)):
            path = workdir / f"design{i}.json"
            config = {
                "mu1": 1.0, "beta2": -0.431, "p1": 0.5, "q": q,
                "rho_s": rho, "rho_u": rho, "r_bar": 0.5,
                "cluster_size": {"kind": "discrete_uniform", "lo": sizes.lo, "hi": sizes.hi},
            }
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append(path)
        self.outputs: list[tuple[Path, str]] = []

    def _trip(self, config: Path, n_clusters: int, seed: int, csv: Path, out: Round):
        out.attempted += 1
        code, _ = self.clock.call(call_cli, [
            "simulate", "--config", str(config), "--clusters", str(n_clusters),
            "--seed", str(seed), "--out", str(csv),
        ])
        if code != 0:
            out.failed += 1
            return None
        out.attempted += 1
        code, text = self.clock.call(call_cli, ["fit", "--data", str(csv)])
        if code != 0:
            out.failed += 1
            return None
        out.units += 1
        out.clusters += n_clusters
        return text

    def warmup(self) -> None:
        self._trip(self.configs[0], 40, 0, self.workdir / "warmup.csv", Round())

    def round(self, index: int) -> Round:
        out = Round()
        seeds = round_seeds(self.seed, index, len(self.configs))
        for i, (config, seed) in enumerate(zip(self.configs, seeds)):
            csv = self.workdir / f"round{index}-{i}.csv"
            text = self._trip(config, self.n_clusters, seed, csv, out)
            if text is not None:
                self.outputs.append((csv, text))
        return out

    def check(self) -> list[str]:
        errors = []
        for csv, text in self.outputs:
            printed = {}
            for line in text.splitlines():
                fields = line.split(",")
                if fields[0] in ("beta1", "beta2"):
                    printed[fields[0]] = (float(fields[1]), float(fields[3]))
            if set(printed) != {"beta1", "beta2"}:
                errors.append(f"{csv.name}: fit printed no estimates")
                continue
            beta_o, jack_o = oracle_from_csv(csv)
            se_o = np.sqrt(np.diag(jack_o))
            for i, name in enumerate(("beta1", "beta2")):
                for what, got, want in (
                    ("estimate", printed[name][0], beta_o[i]),
                    ("se_jackknife", printed[name][1], se_o[i]),
                ):
                    if abs(got - want) > PRINTED_RTOL * abs(want) + PRINTED_ATOL:
                        errors.append(f"{csv.name}: {name} {what} {got} != oracle {want}")
        return errors


WORKLOADS = {"grid-study": GridStudy, "icc": IccRows, "roundtrip": RoundTrip}


def build(name: str, seed: int, tiny: bool, workdir: Path, clock: Clock):
    return WORKLOADS[name](seed, tiny, workdir, clock)
