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

:func:`_draw_nonzero_counts` draws ``m`` and ``K`` for any arm layout.
It draws one uniform per cluster, in the order of the layout, and inverts
it through its arm's joint law of ``(m, K)`` (:func:`_nonzero_cdf`, over
the cells ``ClusterSizeModel`` tabulates) in O(1) expected time, by the
keyed, guided search of :class:`_KeyedTable`.  The cumulative law costs
two ``exp`` passes over the cells, paid once per design in a process:
:func:`_nonzero_table` keeps one table of the control arm's law, then the
intervention arm's, or of one law when the arms share it.  A law with
more than ``design.MAX_SIZE_CELLS`` (2**15) cells is not tabulated, which
bounds a table's memory and build time; it draws each size (a
discrete-uniform size one integer, a truncated-Poisson size one uniform
at which it inverts the law's cumulative mass function), then ``c``, then
``K``.  Either way any law :class:`ClusterSizeModel` accepts can be drawn.

A dataset draws every value, arms and sizes included, as whole arrays
from one stream, ``(seed, TRIAL_STREAM_TAG)``, and lays each cluster's
``K`` non-zero draws on its first ``K`` rows; no statistic depends on the
order within a cluster.  The own parts of an arm are iid with one mean,
so :func:`_poisson_sample` draws them together: below a mean of 10 as the
multiset of their values in random order, which takes about a dozen
binomial draws and one shuffle instead of one Poisson draw per subject.
Each arm's parts stay in their own array, its clusters' parts in turn.
The same seed replays the same dataset bit for bit.
:func:`_trial_cluster_sums` reduces the same draws to each cluster's sums
of ``y`` and ``y**2``, all the Poisson-model ICC of :mod:`zipcrt.mc`
needs, without forming the dataset: one ``np.add.reduceat`` per arm and
sum over that arm's parts.

Every Wald decision depends on a trial only through each cluster's arm,
``m_i`` and outcome sum ``Y_i``, so the study engine of :mod:`zipcrt.mc`
draws a replicate trial as those alone (:func:`_draw_replicates`), ``R``
replicates at once as ``(R, N)`` arrays:
``Y = Poisson(K * lam * (1 - rho_u)) + K * Poisson(lam * rho_u)``, the
sum of the ``K`` own Poisson parts in one draw, inverted through row
``K`` of the same kind of table (:func:`_draw_own_sums`,
:func:`_own_sum_table`), plus ``K`` copies of the shared part.  A dataset
and a replicate take their balanced intervention counts from one rule,
:func:`_intervention_counts`.  This module alone knows the draws and the
tables' layout.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Optional

import numpy as np

from .design import MAX_SIZE_CELLS, ClusterSizeModel, DesignInputs, SizeCells
from .errors import ConfigError, DomainError

# What a simulate manifest records about the generator.  A change to the
# stream or to the order of the draws changes seeded datasets and bumps the
# version; version 1 drew each cluster from its own substream, version 2
# drew each subject's zero and count, version 3 drew truncated-Poisson
# sizes by rejection, version 4 drew every own Poisson part by itself,
# version 5 drew each cluster's size, shared zero and ``K`` in turn, and
# version 6 drew each arm's ``(m, K)`` as one sorted, shuffled multiset.
GENERATOR = "subject-array"
GENERATOR_VERSION = 7
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


# numpy's uniform draw u is an integer U in [0, 2**53) times 2**-53
_UNIFORM_BITS = 53
# A key is row * 2**53 + ceil(F * 2**53) with ceil(F * 2**53) <= 2**53, so
# an int64 key holds rows 0 .. 1022
_MAX_TABLE_ROWS = (2**63 - 1) >> _UNIFORM_BITS


class _KeyedTable(NamedTuple):
    """Rows of cumulative laws, each inverted in O(1) expected time.

    Entry ``j`` of row ``r``, with cumulative probability ``F``, has the
    key ``r * 2**53 + ceil(F * 2**53)``; the keys of all rows form one
    sorted int64 array.  A row's last ``F`` is exactly 1.0, so a row's keys
    lie in ``[r * 2**53, (r + 1) * 2**53]``.  For ``u = U * 2**-53`` the
    entries of row ``r`` with ``F <= u`` are exactly those whose key is at
    most the query ``r * 2**53 + U``, so one ``searchsorted`` over all rows
    finds the answer ``searchsorted(F_r, u, side="right")`` of any row.

    The guide (Chen and Asau, 1974; Devroye, 1986, III.2.4) cuts each row's
    range of ``U`` into ``2**(53 - shift)`` equal buckets, so the query's
    bucket is ``query >> shift``.  A bucket whose range holds at most one
    entry's ``ceil(F * 2**53)`` stores the index, within its row, of the
    first entry past its start, and the answer is that index, plus one when
    that entry's key is at most the query; a bucket with two or more holds
    -1 and is answered by the ``searchsorted``.  A row has at most
    ``MAX_SIZE_CELLS`` (2**15) entries, so an index fits an int16.

    A design's table holds its control arm's rows, then its intervention
    arm's, which start ``arm_rows`` rows later; when the two arms have one
    law it holds that law's rows once, and ``arm_rows`` is 0.
    """

    keys: np.ndarray
    guide: np.ndarray
    shift: int
    row_start: np.ndarray
    arm_rows: int


def _keyed_table(laws: list[tuple[np.ndarray, np.ndarray]], buckets: int) -> _KeyedTable:
    """The read-only :class:`_KeyedTable` of one or two arms' laws, in
    turn, with a power of two ``buckets`` buckets per row.  A law is its
    rows of ``widths`` entries, laid end to end in ``cdf``, each ending in
    exactly 1.0, as ``(cdf, widths)``."""
    # in place where it can be, since a table's first build in a process
    # holds these temporaries beside every table already cached
    widths = np.concatenate([law_widths for _, law_widths in laws])
    row_start = np.cumsum(widths) - widths
    keys = np.concatenate([cdf for cdf, _ in laws])
    np.ldexp(keys, _UNIFORM_BITS, out=keys)
    np.ceil(keys, out=keys)
    keys = keys.astype(np.int64)
    keys += np.repeat(np.arange(widths.size, dtype=np.int64) << _UNIFORM_BITS, widths)
    shift = _UNIFORM_BITS + 1 - buckets.bit_length()
    query = np.arange(widths.size * buckets, dtype=np.int64) << shift  # each bucket's first U
    first = np.searchsorted(keys, query, side="right")
    query += (1 << shift) - 1  # each bucket's last U
    entries = np.searchsorted(keys, query, side="right")
    del query
    entries -= first
    first -= np.repeat(row_start, buckets)
    first[entries > 1] = -1
    arm_rows = laws[0][1].size if len(laws) == 2 else 0
    table = _KeyedTable(keys, first.astype(np.int16), shift, row_start, arm_rows)
    for part in (table.keys, table.guide, table.row_start):
        part.flags.writeable = False
    return table


def _invert(table: _KeyedTable, row, u: np.ndarray) -> np.ndarray:
    """``searchsorted(F_row, u, side="right")`` for each uniform ``u`` and
    its row of ``table`` (an array of ``u``'s shape, or one row for all)."""
    query = (u * 2.0**_UNIFORM_BITS).astype(np.int64)  # exact
    query += np.asarray(row, dtype=np.int64) << _UNIFORM_BITS
    start = table.row_start[row]
    found = start + table.guide[query >> table.shift]  # an index into keys
    crowded = found < start
    found += table.keys[found] <= query
    if crowded.any():
        found[crowded] = np.searchsorted(table.keys, query[crowded], side="right")
    found -= start
    return found


def _draw_rows(table: _KeyedTable, arm: np.ndarray, row, rng: np.random.Generator) -> np.ndarray:
    """One uniform per cluster, in the order of ``arm``, inverted through row
    ``row`` of its arm's rows of a design's ``table``."""
    u = rng.random(arm.shape)
    if table.arm_rows:
        row = row + arm * table.arm_rows
    return _invert(table, row, u)


# Keyed by the design's laws' values (ClusterSizeModel hashes its defining
# fields, and its cells are a function of them), so two equal designs share
# an entry; a p or rho_s of -0.0 shares 0.0's, which _nonzero_cdf treats
# alike.  An entry holds 8 bytes of key and 2 to 4 bytes of guide per cell
# of each of its one or two rows: worst case, 64 read-only tables of two
# rows of MAX_SIZE_CELLS (2**15) cells, 640 KB each (40 MB), plus the laws
# they keep alive (their cells, at most about 1 MB each).  A table1 then
# table2 walk uses 36 keys (30 alternative designs, 6 null ones), so each
# design's table is built once.  On the bundled grid a row is at most
# 3,266 cells and a table 68 KB.
@functools.lru_cache(maxsize=64)
def _nonzero_table(
    sizes: ClusterSizeModel, p_control: float, p_intervention: float, rho_s: float
) -> _KeyedTable:
    """The read-only :class:`_KeyedTable` of :func:`_nonzero_cdf` over
    ``sizes``' cells, a row for each arm's ``p``, or one when the two are
    equal, built once per key while the cache holds it."""
    # dict keys drop an equal second p, -0.0 beside 0.0 included
    ps = dict.fromkeys((p_control, p_intervention))
    laws = [_nonzero_cdf(sizes._cells, p, rho_s) for p in ps]
    cells = laws[0].size
    return _keyed_table([(cdf, np.array([cells])) for cdf in laws], 1 << (cells - 1).bit_length())


def _draw_nonzero_counts(
    design: DesignInputs, arm: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Size ``m`` and non-structural-zero count ``K`` of each cluster, for an
    array of arm indicators of any shape.

    A law with cells (``ClusterSizeModel._cells``) draws one uniform per
    cluster, in the order of ``arm``, and inverts it through its arm's row
    of the design's :func:`_nonzero_table` (:func:`_draw_rows`).  A wider
    law draws, in this order, the sizes, each cluster's shared zero ``c``,
    then ``K`` as one binomial draw (see the module docstring).
    """
    cells = design.cluster_sizes._cells
    if cells is None:
        m = _draw_cluster_sizes(design.cluster_sizes, rng, arm.shape)
        p = np.where(arm, design.intervention.p, design.control.p)
        mix = math.sqrt(design.rho_s)
        shared_zero = rng.random(arm.shape) < p
        nonzero = rng.binomial(m, (1.0 - mix) * (1.0 - p) + np.where(shared_zero, 0.0, mix))
        return m, nonzero
    table = _nonzero_table(
        design.cluster_sizes, design.control.p, design.intervention.p, design.rho_s
    )
    cell = _draw_rows(table, arm, 0, rng)
    return cells.m[cell], cells.k[cell]


def _draw_own_sums(
    design: DesignInputs, arm: np.ndarray, nonzero: np.ndarray, lam, rng: np.random.Generator
) -> np.ndarray:
    """Each cluster's sum of its ``K`` own Poisson parts, Poisson(``K *
    lam_a * (1 - rho_u)``), for arrays of arms and ``K``; ``lam`` is each
    cluster's ``lam_a``, or one value for both arms.

    One uniform per cluster, inverted through row ``K`` of its arm's rows
    of the design's :func:`_own_sum_table`.  When an arm has no rows (more
    than ``MAX_SIZE_CELLS`` entries, or a ``hi`` above 510), one
    ``rng.poisson`` draw per cluster.
    """
    own = 1.0 - design.rho_u
    table = _own_sum_table(
        design.control.lam * own, design.intervention.lam * own, design.cluster_sizes.hi
    )
    if table is None:
        return rng.poisson(nonzero * lam * own)
    return _draw_rows(table, arm, nonzero, rng)


def _allocate_arms(
    n_clusters: int, r_bar: float, rng: np.random.Generator, bernoulli: bool
) -> np.ndarray:
    """Arm indicators for each cluster id.

    Default allocation is deterministic-balanced: the
    :func:`_intervention_counts` of one layout receive the intervention,
    chosen by a seeded permutation.  ``bernoulli=True`` instead flips an
    independent r_bar-coin per cluster.
    """
    if bernoulli:
        arms = (rng.random(n_clusters) < r_bar).astype(np.int64)
    else:
        # drawn first: inside the index below it would follow the permutation
        count = _intervention_counts(n_clusters, r_bar, rng, 1)[0]
        arms = np.zeros(n_clusters, dtype=np.int64)
        arms[rng.permutation(n_clusters)[:count]] = 1
    if arms.sum() in (0, n_clusters):
        raise ConfigError(_empty_arm_message(n_clusters, r_bar))
    return arms


def _intervention_counts(
    n_clusters: int, r_bar: float, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """Intervention clusters of each of ``rows`` layouts under balanced
    allocation: ``round(n * r_bar)``, except that an exact .5 remainder
    gives ``floor(n * r_bar)`` plus one fair draw per layout, from one
    ``rng.random(rows)``; its first value is the double ``rng.random()``
    draws.
    """
    target = n_clusters * r_bar
    floor = math.floor(target)
    if abs(target - floor - 0.5) < 1e-12:
        return floor + (rng.random(rows) < 0.5)
    return np.full(rows, round(target))


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


# Row k of the own-sum table covers Poisson(k * mean) on 0 .. W_k with
# W_k = ceil(lam + 14 + sqrt(196 + 84 * lam)), lam = k * mean.  The Chernoff
# bound P(X >= lam + x) <= exp(-x**2 / (2 * (lam + x / 3))) puts less than
# exp(-42) < 2**-60 past W_k, far below the 2**-53 step of a uniform draw.
_TAIL_OFFSET, _TAIL_SQUARE, _TAIL_SLOPE = 14.0, 196.0, 84.0


def _sum_buckets(mean: float, hi: int) -> int:
    """Buckets per row of the own-sum tables of arms with own means up to
    ``mean``: the power of two at or above ``2 * sqrt(196 + 84 * lam)`` at
    the widest row's ``lam = hi * mean``, or the largest that keeps the
    guide within ``2 * MAX_SIZE_CELLS`` entries.

    Poisson(``lam``)'s entries are densest near ``lam``, one per about
    ``1 / sqrt(2 pi lam)`` of probability, and that count of buckets is at
    least 7.3 times ``sqrt(2 pi lam)`` (and 28 at ``lam = 0``), so no row
    sends more than about 5% of its uniforms to the ``searchsorted``.
    A design's two arms share one table, so both take the buckets of the
    larger own mean."""
    spread = math.ceil(2.0 * math.sqrt(_TAIL_SQUARE + _TAIL_SLOPE * hi * mean))
    fitting = (2 * MAX_SIZE_CELLS // (hi + 1)).bit_length() - 1
    return 1 << min((spread - 1).bit_length(), fitting)


def _poisson_sum_cdf(mean: float, hi: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The rows ``k = 0 .. hi`` of the cumulative law of a sum of ``k`` own
    Poisson parts, Poisson(``k * mean``), laid end to end, and their widths.

    Row ``k`` is built on ``0 .. W_k`` and cut after its first entry of
    exactly 1.0.  None when the built rows would have more than
    ``MAX_SIZE_CELLS`` entries, or when two arms of them would have more
    rows than one table can hold (a ``hi`` above 510).
    """
    lam = mean * np.arange(1, hi + 1)
    width = np.ceil(lam + _TAIL_OFFSET + np.sqrt(_TAIL_SQUARE + _TAIL_SLOPE * lam)) + 1.0
    # counted in float64, which a mean near MAX_CLUSTER_MEAN cannot overflow
    if not (mean > 0.0 and 1.0 + width.sum() <= MAX_SIZE_CELLS and 2 * (hi + 1) <= _MAX_TABLE_ROWS):
        return None
    widths = np.concatenate(([1], width.astype(np.int64)))  # row 0 is the point 0
    # each row in full, up to the widest, its mass 0 past its own width
    values = np.arange(widths[-1])
    inside = values < widths[1:, None]
    cdf = np.multiply.outer(np.log(lam), values)
    cdf -= lam[:, None]
    cdf -= np.concatenate(([0.0], np.cumsum(np.log(values[1:]))))  # log k!
    np.exp(cdf, out=cdf)
    cdf[~inside] = 0.0
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]  # the last entry of each row is then exactly 1.0
    # past the first entry of exactly 1.0 no uniform can reach an entry, so
    # each row ends there
    widths[1:] = 1 + np.count_nonzero(cdf < 1.0, axis=1)
    rows = np.empty(widths.sum())
    rows[0] = 1.0
    rows[1:] = cdf[values < widths[1:, None]]
    return rows, widths


# Keyed like _nonzero_table, by the design's two own means and hi; an arm's
# rows hold at most MAX_SIZE_CELLS keys and 2 * MAX_SIZE_CELLS guide
# buckets, so an entry at most 768 KB.  A table1 then table2 walk uses 36
# keys (30 alternative designs, 6 null ones).
@functools.lru_cache(maxsize=64)
def _own_sum_table(
    mean_control: float, mean_intervention: float, hi: int
) -> Optional[_KeyedTable]:
    """The read-only :class:`_KeyedTable` of :func:`_poisson_sum_cdf` for
    each arm's own mean, or for one when the two are equal, with
    :func:`_sum_buckets` of the larger; None where either law is None."""
    means = dict.fromkeys((mean_control, mean_intervention))
    laws = [_poisson_sum_cdf(mean, hi) for mean in means]
    if any(law is None for law in laws):
        return None
    return _keyed_table(laws, _sum_buckets(max(mean_control, mean_intervention), hi))


def _draw_replicates(
    design: DesignInputs, n_clusters: int, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, ...]:
    """``(R, N)`` arrays of arm, size and outcome sum of ``rows`` replicate
    trials, and an empty-arm mask, for the study engine.

    In this order: each replicate's :func:`_intervention_counts`,
    :func:`_draw_nonzero_counts`, :func:`_draw_own_sums`, then the shared
    parts, so ``Y = own sum + K * U``.  Replicate ``r`` allocates clusters
    ``0 .. n_intervention[r] - 1`` to the intervention arm; the clusters
    are exchangeable, so which ones receive it changes no statistic.  The
    mask marks replicates whose allocation left an arm empty.
    """
    n_intervention = _intervention_counts(n_clusters, design.r_bar, rng, rows)
    arm = np.arange(n_clusters) < n_intervention[:, None]
    m, nonzero = _draw_nonzero_counts(design, arm, rng)
    # a null design keeps lam a scalar: numpy draws the same values from it as
    # from an array of equal means, and skips the array
    lam = design.control.lam
    if design.intervention.lam != lam:
        lam = np.where(arm, design.intervention.lam, lam)
    y = _draw_own_sums(design, arm, nonzero, lam, rng)
    y += nonzero * rng.poisson(lam * design.rho_u, arm.shape)
    empty_arm = (n_intervention == 0) | (n_intervention == n_clusters)
    return arm, m, y, empty_arm


def _draw_trial(
    design: DesignInputs, n_clusters: int, seed: int, bernoulli_allocation: bool = False
) -> tuple[np.ndarray, ...]:
    """One dataset's draws: each cluster's arm, size ``m``, count ``K`` and
    shared ``U``, and a pair of arrays, the control arm's own Poisson parts
    and the intervention arm's, each the ``K`` parts of its arm's clusters
    in turn.

    From the stream ``(seed, TRIAL_STREAM_TAG)``, in this order: the arms
    (:func:`_allocate_arms`), :func:`_draw_nonzero_counts`, the shared
    parts, then the own parts of the control arm and those of the
    intervention arm, each arm's as one :func:`_poisson_sample`.

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
    own = tuple(
        _poisson_sample(arm.lam * (1.0 - design.rho_u), int(nonzero[arms == a].sum()), rng)
        for a, arm in enumerate((design.control, design.intervention))
    )
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
    :func:`_draw_trial`'s draws and the others are structural zeros; each
    arm's own parts go to that arm's clusters' rows.  Identical seeds give
    identical datasets.

    Raises:
        ConfigError: fewer than 2 clusters, or the allocation left an arm empty.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    arms, sizes, nonzero, shared, own = _draw_trial(
        design, n_clusters, seed, bernoulli_allocation
    )
    starts = np.cumsum(sizes) - sizes
    outcomes = np.zeros(int(sizes.sum()), dtype=np.int64)
    for a, parts in enumerate(own):
        in_arm = arms == a
        counts = nonzero[in_arm]
        # own part k of a cluster goes to row k after the cluster's start
        rows = np.repeat(starts[in_arm] - (np.cumsum(counts) - counts), counts)
        rows += np.arange(parts.size)
        outcomes[rows] = parts + np.repeat(shared[in_arm], counts)
    return TrialDataset(np.arange(n_clusters), arms, sizes, outcomes, seed)


def _trial_cluster_sums(design: DesignInputs, n_clusters: int, seed: int) -> tuple[np.ndarray, ...]:
    """The per-cluster arm, size, sum of ``y`` and sum of ``y**2`` of
    ``generate_trial(design, n_clusters, seed)``, from the same draws.

    Each of a cluster's ``K`` non-structural-zero subjects has the outcome
    ``P_j + U``.  With ``T = sum P_j`` and ``Q = sum P_j**2`` the cluster's
    sums are ``Y = T + K * U`` and ``sum y**2 = Q + 2 * U * T + K * U**2``.
    ``T`` and ``Q`` are one ``np.add.reduceat`` each over an arm's own
    parts, at the starts of its clusters with ``K > 0``; a cluster with
    ``K = 0`` keeps 0.

    Raises:
        ConfigError: fewer than 2 clusters, or the allocation left an arm empty.
        DomainError: a seed outside ``[0, 2**64)``.
    """
    arm, m, nonzero, shared, own = _draw_trial(design, n_clusters, seed)
    t = np.zeros(n_clusters, dtype=np.int64)
    q = np.zeros(n_clusters)
    for a, parts in enumerate(own):
        clusters = np.flatnonzero((arm == a) & (nonzero > 0))
        counts = nonzero[clusters]
        starts = np.cumsum(counts) - counts
        t[clusters] = np.add.reduceat(parts, starts)
        # the squares in float64: exact below 2**53, and past 2**63 (a mean
        # near 1e9) they would wrap in int64.  Freed before the next arm's,
        # whose buffer then reuses the memory instead of faulting in new pages.
        q[clusters] = np.add.reduceat(np.square(parts, dtype=np.float64), starts)
    y = t + nonzero * shared
    ysq = q + shared * (2.0 * t + nonzero * shared)
    return arm, m, y, ysq


DATASET_HEADER = ("cluster_id", "arm", "y")

# The plain form, as write_dataset writes it: the header line, then lines
# of three fields of 1 to 18 digits, each line ended by a LF.  18 digits
# stay below 2**63, so no field overflows the int64 columns.
_PLAIN_HEADER = (",".join(DATASET_HEADER) + "\n").encode("ascii")
_PLAIN_DIGITS = 18
# _ZERO_DIGITS[k - 1] = 48 * (10**k - 1) / 9, what k places add when each
# byte counts as its code rather than its digit
_ZERO_DIGITS = np.cumsum(ord("0") * 10 ** np.arange(_PLAIN_DIGITS, dtype=np.int64))


# The CSV is written and read in bounded chunks: numpy temporaries of a whole
# large file pass glibc's mmap threshold and are page-faulted in again on
# every call, while a chunk's stay in the heap.  On a 2,000-cluster DU(10,80)
# file of 757 KB, a whole-file write took 1,073 minor faults a call and a
# whole-file parse 1,729; these chunks took none.  A write chunk is whole
# clusters of about this many subjects; a read chunk about this many bytes,
# cut at a line end.
_WRITE_CHUNK_SUBJECTS = 8192
_READ_CHUNK_BYTES = 64 * 1024


def write_dataset(dataset: TrialDataset, path: str) -> None:
    """Write one row per subject as ``cluster_id,arm,y`` (UTF-8, LF).

    Each chunk of whole clusters is built as one byte matrix with a row per
    subject: the cluster's ``cluster_id,arm,`` prefix, the outcome's decimal
    digits right-aligned, and a line feed, with NUL in the unused cells.  No
    byte of a row is NUL, so dropping the NULs leaves the file's bytes in order.
    """
    prefixes = np.array(
        [f"{cid},{arm}," for cid, arm in zip(dataset.cluster_id.tolist(), dataset.arm.tolist())],
        dtype=np.bytes_,
    ).view(np.uint8).reshape(dataset.n_clusters, -1)  # NUL-padded to the longest prefix
    width = prefixes.shape[1]
    first_row = np.concatenate(([0], np.cumsum(dataset.size)))  # and the end of the last cluster
    # a chunk starts at the first cluster at or after a multiple of its size
    cuts = np.unique(np.append(
        np.searchsorted(first_row, np.arange(0, dataset.n_subjects, _WRITE_CHUNK_SUBJECTS)),
        dataset.n_clusters,
    )).tolist()
    with open(path, "wb") as handle:
        handle.write(_PLAIN_HEADER)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            size = dataset.size[lo:hi]
            y = dataset.outcomes[first_row[lo]:first_row[hi]]
            units = width + len(str(int(y.max()))) - 1  # the column of the units digit
            rows = np.zeros((y.size, units + 2), dtype=np.uint8)
            rows[:, :width] = np.repeat(prefixes[lo:hi], size, axis=0)
            rest = y
            for column in range(units, width - 1, -1):
                shown = rest > 0 if column < units else True  # a leading zero stays NUL
                rest, digit = np.divmod(rest, 10)
                rows[:, column] = np.where(shown, digit + ord("0"), 0)
            rows[:, -1] = ord("\n")
            handle.write(rows[rows != 0].tobytes())


def _parse_plain(data: bytes) -> Optional[np.ndarray]:
    """The ``(3, rows)`` int64 columns of a file in the plain form, else None.

    Each chunk takes one pass for its delimiters (the bytes below ``0``), a
    check that they repeat as ``, , LF``, and per column one gather per digit
    place, most significant first, by Horner's rule.  A field shorter than
    the column's longest reads as ``0`` at the places it lacks.
    """
    start, row = len(_PLAIN_HEADER), 0
    if len(data) == start or not (data.startswith(_PLAIN_HEADER) and data.endswith(b"\n")):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    # one block: once freed it lifts glibc's mmap threshold above the other
    # temporaries of a simulate-and-fit round trip, which three separate
    # columns did not (910 minor faults a 2,000-cluster round trip against 1)
    columns = np.empty((3, data.count(b"\n") - 1), dtype=np.int64)
    while start < len(data):
        stop = data.index(b"\n", min(start + _READ_CHUNK_BYTES, len(data)) - 1) + 1
        chunk = text[start:stop]
        if chunk.max() > ord("9"):
            return None
        delimiters = np.flatnonzero(chunk < ord("0"))
        rows = delimiters.size // 3
        if chunk[delimiters].tobytes() != b",,\n" * rows:
            return None
        lengths = np.diff(delimiters, prepend=-1)
        lengths -= 1
        # each field's units digit: text[start - place:][units] is the digit
        # `place` places to its left, and as place < 18 the 17-byte header
        # keeps start - place >= 0
        units = delimiters - 1
        for j in range(3):
            length, at = lengths[j::3], units[j::3]
            lo, hi = int(length.min()), int(length.max())
            if lo < 1 or hi > _PLAIN_DIGITS:
                return None
            value = columns[j, row:row + rows]
            value[...] = 0
            for place in range(hi - 1, -1, -1):
                digit = text[start - place:stop - place][at]
                if place >= lo:
                    np.copyto(digit, ord("0"), where=length <= place)
                value *= 10
                value += digit
            value -= _ZERO_DIGITS[hi - 1]
        start, row = stop, row + rows
    return columns


# numpy's loadtxt opens a path by its extension, so a file named with one of
# these would be decompressed; such a file is read through its open handle
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_dataset(path: str) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset`.

    Rows may appear in any order; each cluster id must map to a single arm.
    Clusters keep the order in which they first appear and each cluster's
    outcomes keep their file order.  The stored seed is unknown for ingested
    data and left unset.

    The file's bytes are read once.  A file in the plain form that
    :func:`write_dataset` writes is parsed by numpy byte passes, chunk by
    chunk; every other form (CR or CRLF line ends, blank lines, spaces,
    quotes, signs, a byte-order mark, 19-digit fields) by numpy's C reader.
    The checks (three columns, at least one row, arms 0 or 1, nonnegative
    outcomes, one arm per cluster) run on the parsed columns.  Only when the
    parse or a check fails are the bytes scanned line by line, to name the
    first bad line in the error.  The file is plain UTF-8 text whatever its
    name; a byte that is not names its line in the error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    columns = _parse_plain(data)
    if columns is None:
        try:
            columns = _load_text(path, data, regular)
        except UnicodeDecodeError:
            _raise_undecodable_line(path, data)
    cid, arm, y = columns
    # runs of equal consecutive ids: a cluster's rows are usually one run
    starts = np.flatnonzero(np.concatenate(([True], cid[1:] != cid[:-1])))
    lengths = np.diff(np.append(starts, cid.size))
    ids, first, inverse = np.unique(cid[starts], return_index=True, return_inverse=True)
    run_arm = arm[starts]
    # arms of 0 and 1 only, so a run's arm sum is its length times its first
    # arm exactly when all of its rows share that arm
    if (
        arm.min() < 0 or arm.max() > 1 or y.min() < 0
        or (np.add.reduceat(arm, starts) != run_arm * lengths).any()
        or (run_arm != run_arm[first][inverse]).any()  # each run has its cluster's first arm
    ):
        _raise_first_bad_line(path, data, "a row failed the array checks")
    if ids.size == starts.size:  # each cluster is one run, as write_dataset writes them
        # a copy, so that the dataset does not keep the id and arm columns alive
        return TrialDataset(cid[starts], run_arm, lengths, y.copy())
    order = np.argsort(first)  # clusters in order of first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    key = np.repeat(rank[inverse], lengths)  # each row's cluster index
    return TrialDataset(
        cluster_id=ids[order],
        arm=run_arm[first[order]],
        size=np.bincount(key),
        # a stable sort groups the rows by cluster and keeps file order within each
        outcomes=y[np.argsort(key, kind="stable")],
    )


def _text(data: bytes) -> io.TextIOWrapper:
    """A file's bytes as the text handle ``open(path, encoding="utf-8-sig", newline="")`` gives."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _load_text(path: str, data: bytes, regular: bool) -> np.ndarray:
    """The ``(3, rows)`` int64 columns of a file in any accepted form, by numpy's C reader."""
    handle = _text(data)
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != DATASET_HEADER:
        raise ConfigError(f"{path}: expected header {','.join(DATASET_HEADER)!r}, got {header}")
    if regular and os.path.splitext(path)[1] not in _COMPRESSED_SUFFIXES:
        # numpy reads a path in C chunks but a handle line by line; an
        # absolute path is never taken for a URL
        source, skiprows = os.path.abspath(path), reader.line_num
    else:  # a pipe, read to its end, cannot be opened again
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
        _raise_first_bad_line(path, data, str(exc))
    if rows.shape[0] < 1 or rows.shape[1] != 3:
        _raise_first_bad_line(path, data, f"parsed rows of shape {rows.shape}")
    return rows.T


def _raise_first_bad_line(path: str, data: bytes, reason: str) -> NoReturn:
    """Raise the ConfigError that names the first bad line of the file ``data`` holds.

    Used only after the parse of :func:`read_dataset` or its checks have
    failed.  Line numbers are physical lines, blank ones included; a row that
    a quoted line break spreads over several lines is named by its last.  If
    no line is at fault, the error carries ``reason``, the parse's own message.
    """
    arm_of: dict[int, int] = {}
    reader = csv.reader(_text(data))
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
                raise ConfigError(f"{path}:{lineno}: cluster id {cid} outside the int64 range")
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


def _raise_undecodable_line(path: str, data: bytes) -> NoReturn:
    """Raise the ConfigError that names the first line of the file ``data`` holds that is not UTF-8.

    Lines are physical lines, as :func:`_raise_first_bad_line` counts them.
    """
    for lineno, line in enumerate(data.splitlines(), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not UTF-8 text (byte 0x{line[exc.start]:02x})"
            ) from None
    raise ConfigError(f"{path}: not UTF-8 text") from None
