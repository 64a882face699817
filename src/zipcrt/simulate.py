"""Generation of correlated ZIP trial datasets and their text format.

Each subject's outcome is ``y = (1 - s) * u``, with a structural-zero
indicator ``s`` and a Poisson count ``u``.  Within-cluster dependence enters
separately for the two parts:

  * each subject takes the cluster's shared zero indicator ``c ~ Bern(p)``
    with probability ``sqrt(rho_s)`` and its own ``Bern(p)`` otherwise,
    giving marginal ``p`` and pairwise correlation ``rho_s``.  Given ``c``
    the subjects are independent, so the number ``K`` of a cluster's ``m``
    subjects that are not structural zeros is one
    ``Bin(m, (1 - sqrt(rho_s)) * (1 - p) + (1 - c) * sqrt(rho_s))``;
  * ``u_j = P_j + U``, an own ``P_j ~ Poisson(lam * (1 - rho_u))`` and the
    cluster's shared ``U ~ Poisson(lam * rho_u)``, giving marginal
    Poisson(lam) and pairwise correlation ``rho_u``.

:func:`_draw_nonzero_counts` draws ``m`` and ``K`` for any arm layout; the
study engine in :mod:`zipcrt.mc` draws from it too.  It draws each arm's
clusters as one multiset of cells ``(m, k)`` of the arm's joint law of
``(m, K)``: sorted uniforms inverted through the law's cumulative sum
(:func:`_nonzero_cdf`, over the cells ``ClusterSizeModel`` tabulates), then
one shuffle.  The cumulative sum costs two ``exp`` passes over the cells,
paid once per law, ``p`` and ``rho_s`` in a process: :func:`_arm_cdf` keeps
it.  A law with more than ``design.MAX_SIZE_CELLS`` (2**15) cells is not
tabulated, since there one binomial per cluster costs less than those
passes did when every draw paid them; it draws each size (a
discrete-uniform size one integer, a truncated-Poisson size one uniform at
which it inverts the law's cumulative mass function), then ``c``, then
``K``.  Either way any law
:class:`ClusterSizeModel` accepts can be drawn.  A dataset draws every
value, arms and sizes included, as whole arrays from one stream,
``(seed, TRIAL_STREAM_TAG)``, and lays each cluster's ``K`` non-zero draws
on its first ``K`` rows; no statistic depends on the order within a
cluster.  The own parts of an arm are iid with one mean, so
:func:`_poisson_sample` draws them together: below a mean of 10 as the
multiset of their values in random order, which takes about a dozen
binomial draws and one shuffle instead of one Poisson draw per subject.
The same seed replays the same dataset bit for bit.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .design import ClusterSizeModel, DesignInputs, SizeCells
from .errors import ConfigError, DomainError

# What a simulate manifest records about the generator.  A change to the
# stream or to the order of the draws changes seeded datasets and bumps the
# version; version 1 drew each cluster from its own substream, version 2
# drew each subject's zero and count, version 3 drew truncated-Poisson
# sizes by rejection, version 4 drew every own Poisson part by itself, and
# version 5 drew each cluster's size, shared zero and ``K`` in turn.
GENERATOR = "subject-array"
GENERATOR_VERSION = 6
TRIAL_STREAM_TAG = 0x54524941  # a dataset's stream (seed, TRIAL_STREAM_TAG)

_SEED_LIMIT = 2**64
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # the range of the int64 columns
_PLAIN_INT = re.compile(r"\s*[+-]?[0-9]+\s*")  # what numpy's reader takes as an integer


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic, statistically independent generator for (seed, *path)."""
    if not (0 <= seed < _SEED_LIMIT):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.default_rng([seed, *path])


_COLUMNS = ("cluster_id", "arm", "size", "outcomes")


@dataclass(eq=False)
class TrialDataset:
    """A simulated or ingested cluster-randomized trial, stored as columns.

    ``cluster_id``, ``arm`` and ``size`` hold one entry per cluster, and
    ``outcomes`` holds every subject's count, cluster by cluster: the first
    ``size[0]`` outcomes are cluster ``cluster_id[0]``'s, and so on.  All
    four are int64 arrays.
    """

    cluster_id: np.ndarray
    arm: np.ndarray
    size: np.ndarray
    outcomes: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = self.cluster_id.size
        if n < 1:
            raise DomainError("a dataset needs at least one cluster")
        if not self.cluster_id.shape == self.arm.shape == self.size.shape == (n,):
            raise DomainError("cluster_id, arm and size need one entry per cluster")
        if ((self.arm != 0) & (self.arm != 1)).any():
            raise DomainError(f"every arm must be 0 or 1, got {np.unique(self.arm)}")
        if self.size.min() < 1:
            raise DomainError("each cluster needs at least one outcome")
        if self.outcomes.ndim != 1 or self.size.sum() != self.outcomes.size:
            raise DomainError("cluster sizes must sum to the number of outcomes")
        if self.outcomes.min() < 0:
            raise DomainError("outcomes must be nonnegative integers")
        if np.unique(self.cluster_id).size != n:
            raise DomainError("cluster ids must be distinct")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_id)

    @property
    def n_subjects(self) -> int:
        return len(self.outcomes)

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cluster sums of an integer column aligned with ``outcomes``."""
        starts = np.cumsum(self.size) - self.size
        return np.add.reduceat(values, starts, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialDataset):
            return NotImplemented
        return self.seed == other.seed and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )


def _draw_cluster_sizes(
    model: ClusterSizeModel, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Cluster sizes of the given shape.

    A truncated-Poisson size is ``lo`` plus the number of entries of the
    law's cumulative mass function (``ClusterSizeModel._cdf``, the one its
    moments come from) at or below one uniform draw in ``[0, 1)``: one draw
    per size, whatever the support.
    """
    if model.kind == "fixed":
        return np.full(shape, model.lo, dtype=np.int64)
    if model.kind == "discrete_uniform":
        return rng.integers(model.lo, model.hi + 1, size=shape)
    return model.lo + np.searchsorted(model._cdf, rng.random(shape), side="right")


def _nonzero_cdf(cells: SizeCells, p: float, rho_s: float) -> np.ndarray:
    """The cumulative law of one arm's ``(m, K)`` over a size law's cells.

    Cell ``(m, k)`` has the mass
    ``P(m) C(m, k) [p pi1**k (1 - pi1)**(m - k) + (1 - p) pi0**k (1 - pi0)**(m - k)]``
    with ``pi1 = (1 - sqrt(rho_s)) (1 - p)`` and
    ``pi0 = 1 - (1 - sqrt(rho_s)) p``, the binomial's success probability
    given a shared zero ``c = 1`` and ``c = 0``.  Each probability and its
    complement is a product or a sum of non-negative terms, never ``1 - x``,
    so none cancels as ``rho_s`` nears 1.  At ``p = 0`` only ``c = 0`` has
    mass, and it is the point mass ``k = m``.  The last entry is exactly 1.0.
    """
    if p == 0.0:
        mass = np.exp(cells.log_base) * (cells.rest == 0)
    else:
        share = math.sqrt(rho_s)
        apart = (1.0 - rho_s) / (1.0 + share)  # 1 - sqrt(rho_s)
        mass = np.zeros(cells.log_base.size)
        for weight, success, failure in (
            (p, apart * (1.0 - p), p + share * (1.0 - p)),  # c = 1: pi1, 1 - pi1
            (1.0 - p, (1.0 - p) + share * p, apart * p),  # c = 0: pi0, 1 - pi0
        ):
            log_mass = cells.k * math.log(success)
            log_mass += cells.rest * math.log(failure)
            log_mass += cells.log_base
            log_mass += math.log(weight)
            mass += np.exp(log_mass, out=log_mass)
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    cdf[-1] = 1.0  # a uniform draw in [0, 1) then always lands on a cell
    return cdf


# Keyed by the law's value (ClusterSizeModel hashes its defining fields, and
# its cells are a function of them), so two equal laws share an entry; a p
# or rho_s of -0.0 shares 0.0's, which _nonzero_cdf treats alike.  Worst
# case: 64 read-only CDFs of at most MAX_SIZE_CELLS (2**15) float64 cells,
# 256 KB each (16 MB), plus the laws they keep alive (their cells, at most
# about 1 MB each).  A table1 then table2 walk uses 36 keys (6 control
# arms, 30 intervention arms), so each law is built once.
@functools.lru_cache(maxsize=64)
def _arm_cdf(sizes: ClusterSizeModel, p: float, rho_s: float) -> np.ndarray:
    """:func:`_nonzero_cdf` over ``sizes``' cells, built once per
    ``(sizes, p, rho_s)`` while the cache holds it, and read-only."""
    cdf = _nonzero_cdf(sizes._cells, p, rho_s)
    cdf.flags.writeable = False
    return cdf


def _draw_nonzero_counts(
    design: DesignInputs, arm: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Size ``m`` and non-structural-zero count ``K`` of each cluster, for an
    array of arm indicators of any shape.

    A law with cells (``ClusterSizeModel._cells``) draws the control arm's
    clusters, then the intervention arm's, each as one multiset: sorted
    uniform draws, each inverted through the arm's :func:`_arm_cdf`, then
    one shuffle, laid on the arm's clusters in order.  A wider law draws, in
    this order, the sizes, each cluster's shared zero ``c``, then ``K`` as
    one binomial draw (see the module docstring).
    """
    cells = design.cluster_sizes._cells
    if cells is None:
        m = _draw_cluster_sizes(design.cluster_sizes, rng, arm.shape)
        p = np.where(arm, design.intervention.p, design.control.p)
        mix = math.sqrt(design.rho_s)
        shared_zero = rng.random(arm.shape) < p
        nonzero = rng.binomial(m, (1.0 - mix) * (1.0 - p) + np.where(shared_zero, 0.0, mix))
        return m, nonzero
    m = np.empty(arm.shape, dtype=np.int64)
    nonzero = np.empty(arm.shape, dtype=np.int64)
    in_arm1 = arm.astype(bool)
    for profile, where in ((design.control, ~in_arm1), (design.intervention, in_arm1)):
        cdf = _arm_cdf(design.cluster_sizes, profile.p, design.rho_s)
        cell = np.searchsorted(cdf, np.sort(rng.random(np.count_nonzero(where))), side="right")
        rng.shuffle(cell)
        m[where] = cells.m[cell]
        nonzero[where] = cells.k[cell]
    return m, nonzero


def _allocate_arms(
    n_clusters: int, r_bar: float, rng: np.random.Generator, bernoulli: bool
) -> np.ndarray:
    """Arm indicators for each cluster id.

    Default allocation is deterministic-balanced: round(n * r_bar) clusters
    receive the intervention (an exact .5 remainder is settled by one fair
    draw) and the receiving clusters are chosen by a seeded permutation.
    ``bernoulli=True`` instead flips an independent r_bar-coin per cluster.
    """
    if bernoulli:
        arms = (rng.random(n_clusters) < r_bar).astype(np.int64)
    else:
        n_intervention, tie = _balanced_count(n_clusters, r_bar)
        if tie:
            n_intervention += int(rng.random() < 0.5)
        arms = np.zeros(n_clusters, dtype=np.int64)
        arms[rng.permutation(n_clusters)[:n_intervention]] = 1
    if arms.sum() in (0, n_clusters):
        raise ConfigError(_empty_arm_message(n_clusters, r_bar))
    return arms


def _balanced_count(n_clusters: int, r_bar: float) -> tuple[int, bool]:
    """Intervention clusters under balanced allocation, before any fair draw.

    The count is ``round(n * r_bar)``, except that an exact .5 remainder
    gives ``floor(n * r_bar)`` and True: one fair draw then adds 1 or 0.
    """
    target = n_clusters * r_bar
    floor = math.floor(target)
    if abs(target - floor - 0.5) < 1e-12:
        return floor, True
    return round(target), False


def _empty_arm_message(n_clusters: int, r_bar: float) -> str:
    return f"allocation left an empty arm (n={n_clusters}, r_bar={r_bar})"


# numpy draws a Poisson mean of 10 or more by PTRS, in O(1) per value, while
# the multiset walks about as many categories as the mean: from there the
# per-value draw is the faster one
_MULTISET_MAX_LAM = 10.0
# the multiset's categories 0 .. 79: past them Poisson(10) has mass below
# 1e-43, which the last category takes
_MULTISET_CATEGORIES = 80


def _poisson_sample(lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` iid Poisson(``lam``) values.

    Below ``_MULTISET_MAX_LAM`` the values are drawn as one multiset and
    then put in random order.  The number ``N_k`` of values equal to ``k``
    is multinomial, drawn by sequential conditional binomials (Devroye,
    1986): ``N_k ~ Bin(rest, p_k / P(X >= k))`` until no value is left.
    The pmf comes from ``p_k = p_{k-1} * lam / k`` from ``p_0 = exp(-lam)``,
    and ``P(X >= k)`` is its reversed cumulative sum.  At ``lam`` near 2
    and 100,000 values that is about a dozen binomial draws and one
    shuffle, where ``rng.poisson`` draws every value.
    """
    if lam >= _MULTISET_MAX_LAM:
        return rng.poisson(lam, n)
    steps = np.empty(_MULTISET_CATEGORIES)
    steps[0] = math.exp(-lam)
    steps[1:] = lam / np.arange(1, _MULTISET_CATEGORIES)
    pmf = np.cumprod(steps)
    tail = np.cumsum(pmf[::-1])[::-1]
    counts = []
    rest = n
    for p_k, tail_k in zip(pmf.tolist(), tail.tolist()):
        if rest == 0:
            break
        count = int(rng.binomial(rest, p_k / tail_k))
        counts.append(count)
        rest -= count
    values = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    rng.shuffle(values)
    return values


def _draw_trial(
    design: DesignInputs, n_clusters: int, seed: int, bernoulli_allocation: bool = False
) -> tuple[np.ndarray, ...]:
    """One dataset's draws: each cluster's arm, size ``m``, count ``K`` and
    shared ``U``, and the ``K`` own Poisson parts of every cluster in turn.

    From the stream ``(seed, TRIAL_STREAM_TAG)``, in this order: the arms
    (:func:`_allocate_arms`), :func:`_draw_nonzero_counts`, the shared
    parts, then the own parts of the control arm and those of the
    intervention arm, each arm's as one :func:`_poisson_sample` laid on its
    subjects in cluster order.

    Raises:
        ConfigError: fewer than 2 clusters, or the allocation left an arm empty.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    if n_clusters < 2:
        raise ConfigError(f"need at least 2 clusters, got {n_clusters}")
    rng = substream(seed, TRIAL_STREAM_TAG)
    arms = _allocate_arms(n_clusters, design.r_bar, rng, bernoulli_allocation)
    sizes, nonzero = _draw_nonzero_counts(design, arms, rng)
    lam = np.where(arms, design.intervention.lam, design.control.lam)
    shared = rng.poisson(lam * design.rho_u)
    in_arm1 = np.repeat(arms == 1, nonzero)  # each own part's arm, in cluster order
    own = np.empty(in_arm1.size, dtype=np.int64)
    for arm, where in ((design.control, ~in_arm1), (design.intervention, in_arm1)):
        own[where] = _poisson_sample(arm.lam * (1.0 - design.rho_u), int(where.sum()), rng)
    return arms, sizes, nonzero, shared, own


def generate_trial(
    design: DesignInputs,
    n_clusters: int,
    seed: int,
    *,
    bernoulli_allocation: bool = False,
) -> TrialDataset:
    """Simulate a complete trial dataset.

    Each cluster's first ``K`` subjects have the outcomes ``P_j + U`` of
    :func:`_draw_trial`'s draws and the others are structural zeros.
    Identical seeds give identical datasets.

    Raises:
        ConfigError: fewer than 2 clusters, or the allocation left an arm empty.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    arms, sizes, nonzero, shared, own = _draw_trial(
        design, n_clusters, seed, bernoulli_allocation
    )
    # own part k of a cluster goes to row k after the cluster's start
    shift = np.repeat(np.cumsum(sizes - nonzero) - (sizes - nonzero), nonzero)
    outcomes = np.zeros(int(sizes.sum()), dtype=np.int64)
    outcomes[np.arange(own.size) + shift] = own + np.repeat(shared, nonzero)
    return TrialDataset(np.arange(n_clusters), arms, sizes, outcomes, seed)


DATASET_HEADER = ("cluster_id", "arm", "y")


def write_dataset(dataset: TrialDataset, path: str) -> None:
    """Write one row per subject as ``cluster_id,arm,y`` (UTF-8, LF).

    The body is built as one byte matrix with a row per subject: the
    cluster's ``cluster_id,arm,`` prefix, the outcome's decimal digits
    right-aligned, and a line feed, with NUL in the unused cells.  No byte
    of a row is NUL, so dropping the NULs leaves the file's bytes in order.
    """
    prefixes = np.array(
        [f"{cid},{arm}," for cid, arm in zip(dataset.cluster_id.tolist(), dataset.arm.tolist())],
        dtype=np.bytes_,
    )  # NUL-padded to the longest prefix
    width = prefixes.itemsize
    y = dataset.outcomes
    units = width + len(str(int(y.max()))) - 1  # the column of the units digit
    rows = np.zeros((y.size, units + 2), dtype=np.uint8)
    rows[:, :width] = np.repeat(prefixes.view(np.uint8).reshape(-1, width), dataset.size, axis=0)
    rest = y
    for column in range(units, width - 1, -1):
        shown = rest > 0 if column < units else True  # a leading zero stays NUL
        rest, digit = np.divmod(rest, 10)
        rows[:, column] = np.where(shown, digit + ord("0"), 0)
    rows[:, -1] = ord("\n")
    with open(path, "wb") as handle:
        handle.write((",".join(DATASET_HEADER) + "\n").encode("utf-8"))
        handle.write(rows[rows != 0].tobytes())


# numpy's loadtxt opens a path by its extension, so a file named with one of
# these would be decompressed; such a file is read through its open handle
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_dataset(path: str) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset`.

    Rows may appear in any order; each cluster id must map to a single arm.
    Clusters keep the order in which they first appear and each cluster's
    outcomes keep their file order.  The stored seed is unknown for ingested
    data and left unset.

    After the header, numpy's C reader parses every row into one int64
    array, and the checks (three columns, at least one row, arms 0 or 1,
    nonnegative outcomes, one arm per cluster) run on its columns.  Only
    when the parse or a check fails is the file scanned line by line, to
    name the first bad line in the error.  The file is plain UTF-8 text
    whatever its name; a byte that is not names its line in the error.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != DATASET_HEADER:
                raise ConfigError(
                    f"{path}: expected header {','.join(DATASET_HEADER)!r}, got {header}"
                )
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode) and (
                os.path.splitext(path)[1] not in _COMPRESSED_SUFFIXES
            ):
                # numpy reads a path in C chunks but a handle line by line; an
                # absolute path is never taken for a URL
                source, skiprows = os.path.abspath(path), reader.line_num
            else:  # a pipe cannot be opened a second time from its start
                source, skiprows = handle, 0
            try:
                with warnings.catch_warnings():
                    # "input contained no data", and numpy < 2's deprecated parse of
                    # an integer through a float, must fail rather than give rows
                    warnings.simplefilter("error")
                    rows = np.loadtxt(
                        source, delimiter=",", dtype=np.int64, ndmin=2, skiprows=skiprows,
                        quotechar='"', comments=None, encoding="utf-8-sig",
                    )
            except (ValueError, Warning) as exc:
                _raise_first_bad_line(path, str(exc))
    except UnicodeDecodeError:
        _raise_undecodable_line(path)
    if rows.shape[0] < 1 or rows.shape[1] != 3:
        _raise_first_bad_line(path, f"parsed rows of shape {rows.shape}")
    cid, arm, y = rows.T
    # runs of equal consecutive ids: a cluster's rows are usually one run
    starts = np.flatnonzero(np.concatenate(([True], cid[1:] != cid[:-1])))
    lengths = np.diff(np.append(starts, cid.size))
    ids, first, inverse = np.unique(cid[starts], return_index=True, return_inverse=True)
    first_arm = np.repeat(arm[starts[first]][inverse], lengths)  # each row's cluster's first arm
    if ((arm != 0) & (arm != 1)).any() or (y < 0).any() or (arm != first_arm).any():
        _raise_first_bad_line(path, "a row failed the array checks")
    if ids.size == starts.size:  # each cluster is one run, as write_dataset writes them
        return TrialDataset(cid[starts], arm[starts], lengths, np.ascontiguousarray(y))
    order = np.argsort(first)  # clusters in order of first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    key = np.repeat(rank[inverse], lengths)  # each row's cluster index
    return TrialDataset(
        cluster_id=ids[order],
        arm=arm[starts[first[order]]],
        size=np.bincount(key),
        # a stable sort groups the rows by cluster and keeps file order within each
        outcomes=y[np.argsort(key, kind="stable")],
    )


def _raise_first_bad_line(path: str, reason: str) -> NoReturn:
    """Raise the ConfigError that names the first bad line of ``path``.

    Used only after the array path of :func:`read_dataset` has failed.  Line
    numbers are physical lines, blank ones included; a row that a quoted
    line break spreads over several lines is named by its last.  If no line
    is at fault, the error carries ``reason``, the array path's own message.
    """
    arm_of: dict[int, int] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # the header, already checked
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != 3 or not all(_PLAIN_INT.fullmatch(v) for v in row):
                raise ConfigError(f"{path}:{lineno}: malformed row {row}")
            cid, arm, y = (int(v) for v in row)
            if cid not in arm_of:  # a new cluster: check the id and arm once
                if not _INT64_MIN <= cid <= _INT64_MAX:
                    raise ConfigError(
                        f"{path}:{lineno}: cluster id {cid} outside the int64 range"
                    )
                if arm not in (0, 1):
                    raise ConfigError(f"{path}:{lineno}: arm must be 0 or 1, got {arm}")
                arm_of[cid] = arm
            elif arm_of[cid] != arm:
                raise ConfigError(f"{path}:{lineno}: cluster {cid} changes arm")
            if not 0 <= y <= _INT64_MAX:
                if y < 0:
                    raise ConfigError(f"{path}:{lineno}: negative outcome {y}")
                raise ConfigError(f"{path}:{lineno}: outcome {y} outside the int64 range")
    if not arm_of:
        raise ConfigError(f"{path}: no data rows")
    raise ConfigError(f"{path}: malformed rows ({reason})")


def _raise_undecodable_line(path: str) -> NoReturn:
    """Raise the ConfigError that names the first line of ``path`` that is not UTF-8.

    Lines are physical lines, as :func:`_raise_first_bad_line` counts them.
    A pipe cannot be read a second time, so its error names no line.
    """
    if os.path.isfile(path):
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        for lineno, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: not UTF-8 text (byte 0x{line[exc.start]:02x})"
                ) from None
    raise ConfigError(f"{path}: not UTF-8 text") from None
