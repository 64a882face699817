"""Generation of correlated ZIP trial datasets and their text format.

Each subject's outcome is composed from two latent draws: a structural-zero
indicator ``s`` and a Poisson count ``u``, with ``y = (1 - s) * u``.
Within-cluster dependence enters separately for the two parts:

  * exchangeable binary indicators via a mixing construction
    ``s_j = w_j * c + (1 - w_j) * e_j`` with ``c, e_j ~ Bernoulli(p)`` shared
    and individual draws and ``w_j ~ Bernoulli(sqrt(rho_s))``, giving
    marginal ``p`` and pairwise correlation ``rho_s``;
  * additive Poisson components ``u_j = v_j + v_star`` with
    ``v_j ~ Poisson(lam * (1 - rho_u))`` and the shared
    ``v_star ~ Poisson(lam * rho_u)``, giving marginal Poisson(lam) and
    pairwise correlation ``rho_u``.

Every cluster draws from its own deterministic substream derived from
``(seed, cluster_id)``, so generation is replayable bit for bit and clusters
may be generated in any order or concurrently.
"""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import ClusterSizeModel, DesignInputs
from .errors import ConfigError, DomainError, ZipCrtError

# Stream-derivation tags; distinct leading tags keep substreams disjoint.
_ALLOCATION_STREAM = 0
_CLUSTER_STREAM = 1

_MAX_REJECTION_ATTEMPTS = 10**6
_SEED_LIMIT = 2**64
_WRITE_BLOCK = 4096  # rows formatted per csv.writerows call
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # the range of the int64 columns


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

    def arm_outcomes(self, arm: int) -> np.ndarray:
        """All outcomes from clusters in the given arm, in cluster order."""
        return self.outcomes[np.repeat(self.arm == arm, self.size)]

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


def sample_cluster_size(model: ClusterSizeModel, rng: np.random.Generator) -> int:
    """Draw one cluster size from the declared distribution.

    Truncated-Poisson draws use rejection of Poisson(rate) values outside
    the support; the acceptance rate for realistic configurations is near 1,
    but a hard attempt cap guards against degenerate supports.
    """
    if model.kind == "fixed":
        return model.lo
    if model.kind == "discrete_uniform":
        return int(rng.integers(model.lo, model.hi + 1))
    # truncated_poisson
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        draw = int(rng.poisson(model.rate))
        if model.lo <= draw <= model.hi:
            return draw
    raise ZipCrtError(
        f"rejection sampling for truncated_poisson({model.rate}) on "
        f"[{model.lo}, {model.hi}] stalled after {_MAX_REJECTION_ATTEMPTS} attempts"
    )


def sample_structural_zeros(
    m: int, p: float, rho_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Exchangeable binary vector with marginal ``p`` and pairwise correlation ``rho_s``.

    Mixes a cluster-shared Bernoulli(p) draw into individual Bernoulli(p)
    draws with mixing probability sqrt(rho_s); the cross-product of the two
    independent mixing indicators then reproduces the target correlation.
    """
    if not (0.0 <= p < 1.0):
        raise DomainError(f"p must lie in [0, 1), got {p}")
    if not (0.0 <= rho_s < 1.0):
        raise DomainError(f"rho_s must lie in [0, 1), got {rho_s}")
    if p == 0.0:
        return np.zeros(m, dtype=np.int64)
    use_shared = rng.random(m) < math.sqrt(rho_s)
    shared = rng.random() < p
    individual = rng.random(m) < p
    return np.where(use_shared, shared, individual).astype(np.int64)


def sample_correlated_poisson(
    m: int, lam: float, rho_u: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson(lam) vector with exchangeable pairwise correlation ``rho_u``.

    Additive decomposition: individual Poisson(lam * (1 - rho_u)) draws plus
    one cluster-shared Poisson(lam * rho_u) draw.
    """
    if not (lam > 0.0):
        raise DomainError(f"lam must be positive, got {lam}")
    if not (0.0 <= rho_u < 1.0):
        raise DomainError(f"rho_u must lie in [0, 1), got {rho_u}")
    individual = rng.poisson(lam * (1.0 - rho_u), size=m)
    shared = rng.poisson(lam * rho_u)
    return (individual + shared).astype(np.int64)


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
        target = n_clusters * r_bar
        n_intervention = math.floor(target)
        fraction = target - n_intervention
        if abs(fraction - 0.5) < 1e-12:
            n_intervention += int(rng.random() < 0.5)
        else:
            n_intervention = round(target)
        arms = np.zeros(n_clusters, dtype=np.int64)
        arms[rng.permutation(n_clusters)[:n_intervention]] = 1
    if arms.sum() in (0, n_clusters):
        raise ConfigError(
            f"allocation left an empty arm (n={n_clusters}, r_bar={r_bar})"
        )
    return arms


def generate_trial(
    design: DesignInputs,
    n_clusters: int,
    seed: int,
    *,
    bernoulli_allocation: bool = False,
) -> TrialDataset:
    """Simulate a complete trial dataset.

    For each cluster: draw its size, then the structural-zero vector with
    the arm's ``p``, then the correlated Poisson vector with the arm's
    ``lam``, and compose ``y = (1 - s) * u``.  Cluster ``i`` uses the
    substream ``(seed, cluster-tag, i)``, so identical seeds give identical
    datasets regardless of generation order.
    """
    if n_clusters < 2:
        raise ConfigError(f"need at least 2 clusters, got {n_clusters}")
    alloc_rng = substream(seed, _ALLOCATION_STREAM)
    arms = _allocate_arms(n_clusters, design.r_bar, alloc_rng, bernoulli_allocation)

    # every cluster is written into one buffer with room for the largest
    # clusters, which is then shrunk in place to the filled length
    outcomes = np.empty(n_clusters * design.cluster_sizes.hi, dtype=np.int64)
    sizes = np.empty(n_clusters, dtype=np.int64)
    end = 0
    for cid in range(n_clusters):
        profile = design.arm(int(arms[cid]))
        rng = substream(seed, _CLUSTER_STREAM, cid)
        m = sample_cluster_size(design.cluster_sizes, rng)
        zeros = sample_structural_zeros(m, profile.p, design.rho_s, rng)
        counts = sample_correlated_poisson(m, profile.lam, design.rho_u, rng)
        outcomes[end:end + m] = np.where(zeros == 1, 0, counts)
        sizes[cid] = m
        end += m
    outcomes.resize(end)
    return TrialDataset(np.arange(n_clusters), arms, sizes, outcomes, seed)


DATASET_HEADER = ("cluster_id", "arm", "y")


def write_dataset(dataset: TrialDataset, path: str) -> None:
    """Write one row per subject as ``cluster_id,arm,y`` (UTF-8, LF)."""
    ids = np.repeat(dataset.cluster_id, dataset.size)
    arms = np.repeat(dataset.arm, dataset.size)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DATASET_HEADER)
        # a block of rows at a time, so no whole-file list of Python ints is built
        for start in range(0, dataset.n_subjects, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            writer.writerows(zip(*(c[block].tolist() for c in (ids, arms, dataset.outcomes))))


def read_dataset(path: str) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset`.

    Rows may appear in any order; each cluster id must map to a single arm.
    The stored seed is unknown for ingested data and left unset.
    """
    arm_of: dict[int, int] = {}  # in order of first appearance
    index_of: dict[int, int] = {}
    keys = array.array("q")  # each row's cluster index
    ys = array.array("q")
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != DATASET_HEADER:
            raise ConfigError(
                f"{path}: expected header {','.join(DATASET_HEADER)!r}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                cid, arm, y = (int(v) for v in row)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed row {row}") from exc
            if cid not in index_of:  # a new cluster: check the id and arm once
                if not _INT64_MIN <= cid <= _INT64_MAX:
                    raise ConfigError(
                        f"{path}:{lineno}: cluster id {cid} outside the int64 range"
                    )
                if arm not in (0, 1):
                    raise ConfigError(f"{path}:{lineno}: arm must be 0 or 1, got {arm}")
                index_of[cid] = len(index_of)
                arm_of[cid] = arm
            elif arm_of[cid] != arm:
                raise ConfigError(f"{path}:{lineno}: cluster {cid} changes arm")
            if not 0 <= y <= _INT64_MAX:
                if y < 0:
                    raise ConfigError(f"{path}:{lineno}: negative outcome {y}")
                raise ConfigError(f"{path}:{lineno}: outcome {y} outside the int64 range")
            keys.append(index_of[cid])
            ys.append(y)
    if not ys:
        raise ConfigError(f"{path}: no data rows")
    key = np.frombuffer(keys, dtype=np.int64)
    return TrialDataset(
        cluster_id=list(arm_of),
        arm=list(arm_of.values()),
        size=np.bincount(key),
        # a stable sort groups the rows by cluster and keeps file order within each
        outcomes=np.frombuffer(ys, dtype=np.int64)[np.argsort(key, kind="stable")],
    )
