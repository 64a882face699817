"""Generation of correlated ZIP trial datasets and of study replicates.

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

A dataset or a study draws each cluster as one uniform, in the order of
the layout, inverted through its arm's tabulated law (:class:`_Law`) in
O(1) expected time, by the keyed, guided search of :class:`_LawTable`
(:func:`_draw_law`).  A law keeps only the cells a uniform can select.  A
dataset's law is of ``(m, K)`` (:func:`_nonzero_law`, over the cells
``ClusterSizeModel`` tabulates), and a study's of ``(m, Y)``.  A law is
built once per process: a design whose arms differ keeps one table of
its control arm's law, then its intervention arm's, and a design whose
arms share a law, such as a null design, reads row 0 of the last such
table with that law for its control arm, or of the law's own table.
:func:`_draw_nonzero_counts` draws ``m`` and ``K`` for any arm layout.  A
size law with more than ``design.MAX_SIZE_CELLS`` (2**15) cells is not
tabulated, which bounds a table's memory and build time; it draws each
size (a discrete-uniform size one integer, a truncated-Poisson size one
uniform at which it inverts the law's cumulative mass function), then
``c``, then ``K``.  Either way any law :class:`ClusterSizeModel` accepts
can be drawn.

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
replicates at once: an ``(R, N)`` array of arms and one ``(2, R, N)``
float64 array of ``m_i`` and ``Y_i``, stacked and laid out cluster-major in
memory, which the fit (``gee._fit_rows``) reads without a copy.  An arm's
law of ``(m, Y)``
(:func:`_joint_cdf`) is ``P(m, y) = sum_k P(m, k) g_k(y)``, with ``g_k``
the law of ``k`` own Poisson parts plus ``k`` copies of the shared part,
summed once per law on a grid (:func:`_joint_law`).  A law whose grid or
whose kept cells pass their bounds is not tabulated, and its design draws
``(m, K)`` as a dataset does, then each cluster's own sum and shared part
with ``rng.poisson``.  A dataset and a replicate take their balanced
intervention counts from one rule, :func:`_intervention_counts`.
This module alone knows the draws and the tables' layout.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dataset import TrialDataset
# perfbench calls simulate.write_dataset; ROADMAP item 1 deletes the re-export
from .dataset import write_dataset  # noqa: F401
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


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic, statistically independent generator for (seed, *path)."""
    if not (0 <= seed < _SEED_LIMIT):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.default_rng([seed, *path])


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


def _nonzero_mass(cells: SizeCells, p: float, rho_s: float) -> np.ndarray:
    """The law of one arm's ``(m, K)`` over a size law's cells.

    Cell ``(m, k)`` has the mass
    ``P(m) C(m, k) [p pi1**k (1 - pi1)**(m - k) + (1 - p) pi0**k (1 - pi0)**(m - k)]``
    with ``pi1 = (1 - sqrt(rho_s)) (1 - p)`` and
    ``pi0 = 1 - (1 - sqrt(rho_s)) p``, the binomial's success probability
    given a shared zero ``c = 1`` and ``c = 0``.  Each probability and its
    complement is a product or a sum of non-negative terms, never ``1 - x``,
    so none cancels as ``rho_s`` nears 1.  At ``p = 0`` only ``c = 0`` has
    mass, and it is the point mass ``k = m``.
    """
    if p == 0.0:
        return np.exp(cells.log_base) * (cells.rest == 0)
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
    return mass


def _nonzero_cdf(cells: SizeCells, p: float, rho_s: float) -> np.ndarray:
    """The cumulative law of one arm's ``(m, K)`` over a size law's cells,
    :func:`_nonzero_mass` summed in order.  The last entry is exactly 1.0."""
    cdf = np.cumsum(_nonzero_mass(cells, p, rho_s))
    cdf /= cdf[-1]
    cdf[-1] = 1.0  # a uniform draw in [0, 1) then always lands on a cell
    return cdf


# numpy's uniform draw u is an integer U in [0, 2**53) times 2**-53
_UNIFORM_BITS = 53


class _Law(NamedTuple):
    """An arm's law on the cells a uniform draw can select: each cell's key
    ``ceil(F * 2**53)``, of its cumulative probability ``F``, the last
    exactly ``2**53``, and its size ``m`` and value ``v``, all read-only.
    ``v`` is ``K`` in a dataset's law of ``(m, K)`` and the outcome sum
    ``Y`` in a study's law of ``(m, Y)``; ``m`` and ``v`` are each in the
    smallest unsigned type that holds its values, ``hi`` for both ``m`` and
    ``K``, and the grid's largest ``m`` or ``y`` for ``m`` or ``Y``."""

    keys: np.ndarray
    m: np.ndarray
    v: np.ndarray


def _law(cdf: np.ndarray, m: np.ndarray, v: np.ndarray) -> Optional[_Law]:
    """The :class:`_Law` of a cumulative law ``cdf`` over cells of sizes
    ``m`` and values ``v``, ending in exactly 1.0; None when more than
    ``MAX_SIZE_CELLS`` cells can be selected.  ``cdf`` is overwritten.

    A uniform ``u = U * 2**-53`` selects the cell ``j`` with
    ``key[j - 1] <= U < key[j]``, so a cell whose key equals the one before
    it (or 0, for the first) is never selected, and dropping it leaves the
    draw's law as it was.
    """
    keys = np.ldexp(cdf, _UNIFORM_BITS, out=cdf)
    np.ceil(keys, out=keys)
    kept = np.empty(keys.size, dtype=bool)
    kept[0] = keys[0] > 0.0
    np.not_equal(keys[1:], keys[:-1], out=kept[1:])
    cell = np.flatnonzero(kept)
    if cell.size > MAX_SIZE_CELLS:
        return None
    law = _Law(keys[cell].astype(np.int64), m[cell], v[cell])
    for part in law:
        part.flags.writeable = False
    return law


def _nonzero_law(sizes: ClusterSizeModel, rho_s: float, p: float) -> Optional[_Law]:
    """:func:`_nonzero_cdf` over ``sizes``' cells as the :class:`_Law` of
    ``(m, K)``; None when ``sizes`` has no cells."""
    cells = sizes._cells
    if cells is None:
        return None
    narrow = np.min_scalar_type(sizes.hi)
    return _law(_nonzero_cdf(cells, p, rho_s), cells.m.astype(narrow), cells.k.astype(narrow))


class _LawTable(NamedTuple):
    """Rows of :class:`_Law`, each inverted in O(1) expected time.

    Entry ``j`` of row ``r``, with cumulative probability ``F``, has the
    key ``r * 2**53 + ceil(F * 2**53)``; the keys of all rows form one
    sorted int64 array, and ``m`` and ``v`` hold each entry's size and
    value.  Row ``r`` is entries ``bounds[r]`` to ``bounds[r + 1] - 1``.
    A row's last ``F`` is exactly 1.0, so a row's keys lie in
    ``[r * 2**53, (r + 1) * 2**53]``.  For ``u = U * 2**-53`` the entries
    of row ``r`` with ``F <= u`` are exactly those whose key is at most the
    query ``r * 2**53 + U``, so one ``searchsorted`` over all rows finds
    the answer ``searchsorted(F_r, u, side="right")`` of any row.

    The guide (Chen and Asau, 1974; Devroye, 1986, III.2.4) cuts each row's
    range of ``U`` into ``2**(53 - shift)`` equal buckets, so the query's
    bucket is ``query >> shift``.  A bucket whose range holds at most one
    entry's ``ceil(F * 2**53)`` stores the index, within its row, of the
    first entry past its start, and the answer is that index, plus one when
    that entry's key is at most the query; a bucket with two or more holds
    -1 and is answered by the ``searchsorted``.  A row has at most
    ``MAX_SIZE_CELLS`` (2**15) entries, so an index fits an int16.

    A design whose arms differ reads its control arm's law from row 0 and
    its intervention arm's from row 1; a design whose arms share a law
    reads it from row 0 whatever the arm (:func:`_design_table`).
    """

    keys: np.ndarray
    guide: np.ndarray
    shift: int
    bounds: np.ndarray
    m: np.ndarray
    v: np.ndarray


def _law_table(laws: list[_Law]) -> _LawTable:
    """The read-only :class:`_LawTable` of one or two laws, in turn, with a
    bucket per entry of the widest, rounded up to a power of two; a table
    of one law shares its arrays."""
    keys, m, v = (part[0] if len(laws) == 1 else np.concatenate(part) for part in zip(*laws))
    widths = [law.keys.size for law in laws]
    bounds = np.cumsum([0, *widths])
    buckets = 1 << (max(widths) - 1).bit_length()
    shift = _UNIFORM_BITS + 1 - buckets.bit_length()
    guide = np.empty((len(laws), buckets), dtype=np.int16)
    for row in range(len(laws)):
        row_keys = keys[bounds[row]:bounds[row + 1]]
        # bucket b covers U in [b 2**shift, (b + 1) 2**shift); a key k is at
        # most its first U when (k - 1) >> shift < b, and lies past its
        # first U and at or before its last when (k - 1) >> shift == b and
        # k is not (b + 1) 2**shift.  Counted in one pass over the keys.
        bucket = (row_keys - 1) >> shift  # -1 for a key of 0
        count = np.bincount(bucket + 1, minlength=buckets + 1)
        first = np.cumsum(count[:buckets])  # the keys at most each bucket's first U
        inside = count[1:]
        inside -= np.bincount(bucket[row_keys & ((1 << shift) - 1) == 0] + 1, minlength=buckets + 1)[1:]
        first[inside > 1] = -1
        guide[row] = first
        if row:  # a one-law table shares its law's read-only keys
            row_keys += row << _UNIFORM_BITS
    table = _LawTable(keys, guide.ravel(), shift, bounds, m, v)
    for part in (keys, table.guide, bounds, m, v):
        part.flags.writeable = False
    return table


def _entries(table: _LawTable, row, u: np.ndarray) -> np.ndarray:
    """The entry that each uniform ``u`` selects in its row of ``table``
    (an array of ``u``'s shape, or one row for all): the
    ``searchsorted(F_row, u, side="right")``-th entry of the row."""
    query = (u * 2.0**_UNIFORM_BITS).astype(np.int64)  # exact
    query += np.asarray(row, dtype=np.int64) << _UNIFORM_BITS
    start = table.bounds.take(row)
    found = start + table.guide.take(query >> table.shift)  # an index into keys
    crowded = found < start
    found += table.keys.take(found) <= query
    if crowded.any():
        found[crowded] = table.keys.searchsorted(query[crowded], side="right")
    return found


_LawBuilder = Callable[..., Optional[_Law]]


# The tables of a process's designs, keyed by the law builder and the
# values of the laws' parameters: ClusterSizeModel hashes its defining
# fields, and its cells are a function of them, so equal designs share an
# entry, and a p of -0.0 shares 0.0's.  A design whose arms differ draws
# from its entry here; a design whose arms share one law, such as a null
# design, from row 0 of its law's slot (_law_slot): the table of the last
# design built with that law for its control arm, or until there is one,
# the law's own.  A null design and its alternatives then share one copy
# of the control arm's law, built once, whichever is drawn first.
#
# A table holds, per entry of each of its one or two rows, 8 bytes of key,
# 2 to 4 of guide, and its m and v, 1 or 2 bytes each: a law of (m, K)
# has at most MAX_SIZE_CELLS cells, so hi < 2**15, and the grid of a law
# of (m, Y) at most 2**17 cells in hi + 1 >= 2 rows of more than 28
# values y, so m and y < 2**16.  A row has at most MAX_SIZE_CELLS
# (2**15) entries and buckets, so a table holds at most 0.92 MB, and the
# 64 entries and 64 slots, each of which may keep a table the entries no
# longer do, at most 128 tables, 117 MB.  The two-arm (m, K) table of
# DU(1,254), just within the cap, holds 0.60 to 0.72 MB (1.27 to 1.54 MB
# with int64 m and K).  On the bundled grid a table of (m, Y) is at most
# 0.6 MB and one of (m, K) 0.08 MB.  A table1 then table2 walk uses 30
# entries and 6 slots, and builds each of its 36 laws once.
@functools.lru_cache(maxsize=64)
def _two_law_table(
    build: _LawBuilder, sizes: ClusterSizeModel, shared: tuple, control: tuple, intervention: tuple
) -> Optional[_LawTable]:
    """The :func:`_law_table` of the laws ``build(sizes, *shared, *arm)``
    of a design's control arm and intervention arm, None when either is
    None.  The control arm's law is row 0 of its :func:`_one_law_table`,
    and the new table becomes its slot's."""
    first = _one_law_table(build, sizes, shared, control)
    if first is None:
        return None
    law = build(sizes, *shared, *intervention)
    if law is None:
        return None
    row = slice(0, first.bounds[1])
    table = _law_table([_Law(first.keys[row], first.m[row], first.v[row]), law])
    _law_slot(build, sizes, shared, control)[:] = [table]
    return table


@functools.lru_cache(maxsize=64)
def _law_slot(
    build: _LawBuilder, sizes: ClusterSizeModel, shared: tuple, params: tuple
) -> list[Optional[_LawTable]]:
    """The slot of the law ``build(sizes, *shared, *params)``: empty until a
    table of it is built, then that table, or None when the law is None."""
    return []


def _one_law_table(
    build: _LawBuilder, sizes: ClusterSizeModel, shared: tuple, params: tuple
) -> Optional[_LawTable]:
    """The table whose row 0 is the law ``build(sizes, *shared, *params)``;
    None when the law is None."""
    slot = _law_slot(build, sizes, shared, params)
    if not slot:
        law = build(sizes, *shared, *params)
        slot.append(None if law is None else _law_table([law]))
    return slot[0]


def _design_table(
    build: _LawBuilder, sizes: ClusterSizeModel, shared: tuple, control: tuple, intervention: tuple
) -> tuple[Optional[_LawTable], bool]:
    """The table a design draws its laws ``build(sizes, *shared, *arm)``
    from, and whether each arm reads its own row.  A design whose arms
    share a law reads row 0: its slot's table may be an alternative's, with
    that alternative's intervention law in row 1."""
    if control == intervention:
        return _one_law_table(build, sizes, shared, control), False
    return _two_law_table(build, sizes, shared, control, intervention), True


def _draw_law(
    build: _LawBuilder, sizes: ClusterSizeModel, shared: tuple, control: tuple,
    intervention: tuple, arm: np.ndarray, rng: np.random.Generator,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Each cluster's ``m`` and ``v``, in the table's types, for an array of
    arm indicators of any shape: one uniform per cluster, in the order of
    ``arm``, that selects an entry of its arm's law in the
    :func:`_design_table`.  None, with nothing drawn, when the table is
    None."""
    table, own_rows = _design_table(build, sizes, shared, control, intervention)
    if table is None:
        return None
    entry = _entries(table, arm if own_rows else 0, rng.random(arm.shape))
    return table.m.take(entry), table.v.take(entry)


def _draw_nonzero_counts(
    design: DesignInputs, arm: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Size ``m`` and non-structural-zero count ``K`` of each cluster, as
    int64, for an array of arm indicators of any shape.

    A law with cells (``ClusterSizeModel._cells``) draws each cluster's
    ``(m, K)`` from its arm's :func:`_nonzero_law` (:func:`_draw_law`).  A
    wider law draws, in this order, the sizes, each cluster's shared zero
    ``c``, then ``K`` as one binomial draw (see the module docstring).
    """
    drawn = _draw_law(
        _nonzero_law, design.cluster_sizes, (design.rho_s,),
        (design.control.p,), (design.intervention.p,), arm, rng,
    )
    if drawn is not None:
        # signed: generate_trial offsets row indices by the sizes
        return tuple(part.astype(np.int64) for part in drawn)
    m = _draw_cluster_sizes(design.cluster_sizes, rng, arm.shape)
    p = np.where(arm, design.intervention.p, design.control.p)
    mix = math.sqrt(design.rho_s)
    shared_zero = rng.random(arm.shape) < p
    nonzero = rng.binomial(m, (1.0 - mix) * (1.0 - p) + np.where(shared_zero, 0.0, mix))
    return m, nonzero


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


# Values 0 .. W of Poisson(lam), W = ceil(lam + 14 + sqrt(196 + 84 * lam)),
# hold all but less than 2**-60 of its mass: the Chernoff bound
# P(X >= lam + x) <= exp(-x**2 / (2 * (lam + x / 3))) puts less than
# exp(-42) past W, far below the 2**-53 step of a uniform draw.
_TAIL_OFFSET, _TAIL_SQUARE, _TAIL_SLOPE = 14.0, 196.0, 84.0
# The shared part's values are cut where less than this much of its mass
# lies beyond them, on each side
_SHARED_TAIL = 2.0**-61
# A joint law of (m, Y) is summed on a grid of hi + 1 rows k by S columns
# y; a law whose grid would pass this many cells (1 MB of float64), or
# whose shared part's values would take more than _MAX_JOINT_PASSES
# multiply-adds to spread over it, is not built.  Both are counted before
# the grid is allocated.
_MAX_JOINT_GRID = 4 * MAX_SIZE_CELLS
_MAX_JOINT_PASSES = 64 * MAX_SIZE_CELLS
# Rows m of the joint law summed in one np.einsum: each block sums only
# the k and y its largest m reaches
_JOINT_BLOCK_ROWS = 8


def _tail_width(lam: float) -> int:
    """The ``W + 1`` values ``0 .. W`` that hold all but less than 2**-60
    of Poisson(``lam``)'s mass."""
    return math.ceil(lam + _TAIL_OFFSET + math.sqrt(_TAIL_SQUARE + _TAIL_SLOPE * lam)) + 1


def _poisson_rows(means: np.ndarray, width: int) -> np.ndarray:
    """The Poisson(``mean``) probabilities of ``0 .. width - 1``, a row for
    each mean; a mean of 0 is the point 0."""
    rows = np.empty((means.size, width))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply.outer(np.log(means), np.arange(width), out=rows)
    rows[:, 0] = 0.0  # 0 * log(0) is nan
    rows -= means[:, None]
    rows[:, 1:] -= np.cumsum(np.log(np.arange(1, width)))  # log k!
    return np.exp(rows, out=rows)


class _JointGrid(NamedTuple):
    """An arm's cumulative law of ``(m, Y)`` on a grid, row ``m`` after row
    ``m``, each ``y = 0 .. width - 1``: each cell's ``F``, the last exactly
    1.0, and its ``m`` and ``y``, each in the smallest unsigned type that
    holds the grid's values."""

    cdf: np.ndarray
    m: np.ndarray
    y: np.ndarray


def _joint_cdf(
    cells: SizeCells, p: float, rho_s: float, lam: float, rho_u: float
) -> Optional[_JointGrid]:
    """The cumulative law of one arm's ``(m, Y)``, with ``Y`` a cluster's
    outcome sum, over a size law's cells; None when its grid would pass
    ``_MAX_JOINT_GRID`` cells or its sum ``_MAX_JOINT_PASSES``.

    ``P(m, y) = sum_k P(m, k) g_k(y)``, with ``P(m, k)`` of
    :func:`_nonzero_mass` and ``g_k`` the law of ``Y`` given ``K = k``: the
    sum ``T`` of ``k`` own parts, Poisson(``k a``), plus ``k`` copies of the
    shared part ``U``, Poisson(``b``), with ``a = lam (1 - rho_u)`` and
    ``b = lam rho_u``.  So ``g_k(y) = sum_u Pois(u; b) Pois(y - k u; k a)``.
    ``G`` holds the rows ``g_0 .. g_hi``: row ``k`` of ``Pois(t; k a)`` is
    added, weighted by ``Pois(u; b)``, at columns ``k u + t``, one pass over
    all rows per ``u``, through a view of ``G``'s buffer whose rows are
    ``S + u`` long.  Then each block of rows ``m`` is one ``np.einsum`` of
    its ``P(m, k)`` with the rows and columns of ``G`` that its largest
    ``m`` reaches, and the blocks, laid end to end, are summed in place.

    ``U`` keeps the values with less than 2**-61 of its mass beyond them on
    each side, and row ``m`` the ``y`` up to ``m u_hi`` plus the tail
    bound of Poisson(``m a``), so less than 2**-59 of the law's mass is
    left out.  The grid's size is known before it is allocated.
    """
    lo, hi = int(cells.m[0]), int(cells.m[-1])
    own, shared = lam * (1.0 - rho_u), lam * rho_u
    k_rows = hi + 1
    # U takes values past shared - 1, so the grid would have more than
    # k_rows * hi * (shared - 1) cells: bound the row of U before making it
    if k_rows * hi * (shared - 1.0) > _MAX_JOINT_GRID:
        return None
    weight = _poisson_rows(np.array([shared]), _tail_width(shared))[0]
    u_lo = int(np.count_nonzero(np.cumsum(weight) < _SHARED_TAIL))
    u_hi = weight.size - 1 - int(np.count_nonzero(np.cumsum(weight[::-1]) < _SHARED_TAIL))
    own_width = _tail_width(hi * own)
    width = hi * u_hi + own_width  # g_k lies in 0 .. k u_hi + own_width - 1
    # in Python integers, which do not overflow
    passes = (u_hi - u_lo + 1) * k_rows * own_width
    if k_rows * (width + u_hi) > _MAX_JOINT_GRID or passes > _MAX_JOINT_PASSES:
        return None
    own_rows = _poisson_rows(own * np.arange(k_rows), own_width)
    g = np.zeros(k_rows * (width + u_hi))
    term = np.empty_like(own_rows)
    for u in range(u_lo, u_hi + 1):
        np.multiply(own_rows, weight[u], out=term)
        # element (k, t) of this view is element (k, k u + t) of G
        g[: k_rows * (width + u)].reshape(k_rows, width + u)[:, :own_width] += term
    del own_rows, term
    g = g[: k_rows * width].reshape(k_rows, width)

    nonzero = np.zeros((hi - lo + 1, k_rows))
    nonzero.ravel()[(cells.m - lo) * k_rows + cells.k] = _nonzero_mass(cells, p, rho_s)
    tops = [*range(lo + _JOINT_BLOCK_ROWS - 1, hi, _JOINT_BLOCK_ROWS), hi]  # each block's largest m
    block_width = [top * u_hi + _tail_width(top * own) for top in tops]
    block_rows = np.diff([lo - 1, *tops]).tolist()
    widths = np.repeat(block_width, block_rows)  # of each row m
    row_start = np.concatenate(([0], np.cumsum(widths)))
    cdf = np.empty(row_start[-1])
    first = 0
    for top, rows, columns in zip(tops, block_rows, block_width):
        out = cdf[row_start[first]:row_start[first + rows]].reshape(rows, columns)
        block = nonzero[first:first + rows, :top + 1]
        np.einsum("mk,ky->my", block, g[:top + 1, :columns], out=out)
        first += rows
    del g, nonzero
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]  # the last entry is then exactly 1.0
    m = np.repeat(np.arange(lo, hi + 1, dtype=np.min_scalar_type(hi)), widths)
    # each block's rows repeat its y values, tiled in the narrow type: an
    # int64 grid of y raised a grid study's peak memory by 0.5 MB
    y = np.arange(block_width[-1], dtype=np.min_scalar_type(block_width[-1] - 1))
    y = np.concatenate([np.tile(y[:columns], rows) for rows, columns in zip(block_rows, block_width)])
    return _JointGrid(cdf, m, y)


def _joint_law(
    sizes: ClusterSizeModel, rho_s: float, rho_u: float, p: float, lam: float
) -> Optional[_Law]:
    """:func:`_joint_cdf` over ``sizes``' cells as the :class:`_Law` of
    ``(m, Y)``; None when ``sizes`` has no cells, the grid is too large, or
    more than ``MAX_SIZE_CELLS`` cells can be selected."""
    cells = sizes._cells
    grid = None if cells is None else _joint_cdf(cells, p, rho_s, lam, rho_u)
    return None if grid is None else _law(*grid)


def _draw_replicates(
    design: DesignInputs, n_clusters: int, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, ...]:
    """The ``(R, N)`` arm array of ``rows`` replicate trials, their sizes and
    outcome sums stacked as one ``(2, R, N)`` float64 array, and an
    empty-arm mask, for the study engine.  The stacked array is a
    transposed view of a ``(2, N, R)`` one: ``gee._fit_rows`` works
    cluster-major.

    First each replicate's :func:`_intervention_counts`.  A design whose
    laws :func:`_joint_law` have tables then draws each cluster's ``(m,
    Y)`` as one uniform, in the order of the layout (:func:`_draw_law`).
    Any other design draws :func:`_draw_nonzero_counts`, then each
    cluster's own sum, Poisson(``K lam (1 - rho_u)``), then its shared part
    ``U``, Poisson(``lam rho_u``), so ``Y = own sum + K * U``.  Replicate
    ``r`` allocates clusters ``0 .. n_intervention[r] - 1`` to the
    intervention arm; the clusters are exchangeable, so which ones receive
    it changes no statistic.  The mask marks replicates whose allocation
    left an arm empty.
    """
    n_intervention = _intervention_counts(n_clusters, design.r_bar, rng, rows)
    arm = np.arange(n_clusters) < n_intervention[:, None]
    rho_u = design.rho_u
    control = (design.control.p, design.control.lam)
    intervention = (design.intervention.p, design.intervention.lam)
    my = _draw_law(
        _joint_law, design.cluster_sizes, (design.rho_s, rho_u), control, intervention, arm, rng
    )
    if my is None:
        m, nonzero = _draw_nonzero_counts(design, arm, rng)
        # a null design keeps lam a scalar: numpy draws the same values from
        # it as from an array of equal means, and skips the array
        lam = control[1]
        if intervention[1] != lam:
            lam = np.where(arm, intervention[1], lam)
        y = rng.poisson(nonzero * (lam * (1.0 - rho_u)))
        y += nonzero * rng.poisson(lam * rho_u, arm.shape)
        my = (m, y)
    empty_arm = (n_intervention == 0) | (n_intervention == n_clusters)
    my = np.array([part.T for part in my], dtype=np.float64)
    return arm, my.transpose(0, 2, 1), empty_arm


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
