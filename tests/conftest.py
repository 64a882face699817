"""Shared fixtures and independent oracles used across the test modules."""

import collections
import csv
import math
import re

import numpy as np
import pytest

from zipcrt import (
    ClusterSizeModel, ConfigError, TrialDataset, build_design, generate_trial, simulate,
)
from zipcrt.simulate import _draw_cluster_sizes

DU_34_56 = ClusterSizeModel.discrete_uniform(34, 56)
DU_10_80 = ClusterSizeModel.discrete_uniform(10, 80)
TRUNPOIS = ClusterSizeModel.truncated_poisson(45.0, 20, 70)


# Latin-1 files: an e-acute (0xe9) in the header, in a middle row, in the last
# row; with the physical line each names.  The middle one ends its lines in CR.
NOT_UTF8 = [
    (b"cluster_id,arm,\xe9\n0,0,1\n1,1,2\n", 1),
    (b"cluster_id,arm,y\r0,0,1\r1,1,\xe9\r0,0,2\r", 3),
    (b"cluster_id,arm,y\n0,0,1\n1,1,2\n" + b"0,0,3\n" * 5000 + b"1,1,\xe9\n", 5004),
]


def grid_design(cluster_sizes=DU_34_56, rho=0.03, q=0.5, beta2=-0.431, p1=0.5):
    """A cell of the reference grid: control mean 1, half structural zeros."""
    return build_design(
        mu1=1.0, beta2=beta2, p1=p1, q=q, rho_s=rho, rho_u=rho,
        r_bar=0.5, cluster_sizes=cluster_sizes, alpha=0.05, power=0.8,
    )


def engine_table(design):
    """The table a study of ``design`` draws its ``(m, Y)`` from, and
    whether each arm reads its own row."""
    return simulate._design_table(
        simulate._joint_law, design.cluster_sizes, (design.rho_s, design.rho_u),
        (design.control.p, design.control.lam), (design.intervention.p, design.intervention.lam),
    )


@pytest.fixture
def config_a():
    """The baseline scenario: DU(34,56), both ICCs 0.03, q = 0.5."""
    return grid_design()


def enumerated_pair_covariance(mu, p, rho_s, rho_u):
    """Brute-force pair covariance: enumerate the structural-zero patterns.

    For a within-cluster pair, condition on whether each member is a
    structural zero, multiply each pattern's probability (exchangeable
    correlated Bernoulli pair) by the conditional cross-moment
    E[(y - mu)(y' - mu) | pattern], and sum.  Kept deliberately independent
    of the closed form it checks.
    """
    lam = mu / (1.0 - p)
    prob_both = p * p + p * (1.0 - p) * rho_s
    prob_one = 2.0 * p * (1.0 - p) * (1.0 - rho_s)  # either member, not both
    prob_neither = (1.0 - p) * (1.0 - p + rho_s * p)
    # both structural: outcomes are (0, 0)
    cross_both = mu * mu
    # one structural: (0, u') with u' ~ Poisson(lam) independent of the zeros
    cross_one = -mu * (lam - mu)
    # neither: (u, u') with Cov(u, u') = rho_u * lam and common mean lam
    cross_neither = rho_u * lam + (lam - mu) ** 2
    return (
        prob_both * cross_both
        + prob_one * cross_one
        + prob_neither * cross_neither
    )


def pooled_pair_correlation(matrix):
    """Pairwise within-row correlation pooled over an (n, m) sample matrix."""
    values = np.asarray(matrix, dtype=float)
    centered = values - values.mean()
    row_sums = centered.sum(axis=1)
    row_squares = (centered**2).sum(axis=1)
    m = values.shape[1]
    pair_products = ((row_sums**2 - row_squares) / 2.0).sum()
    n_pairs = values.shape[0] * m * (m - 1) / 2.0
    return (pair_products / n_pairs) / centered.var()


SE_MULTIPLE = 5.0  # each distribution comparison is allowed 5 standard errors


def cluster_sum_moments(sums):
    """Mean and variance of a sample with the standard errors of both."""
    n = sums.size
    mean = sums.mean()
    centred = sums - mean
    var = float((centred**2).sum() / (n - 1))
    fourth = float((centred**4).mean())
    return mean, math.sqrt(var / n), var, math.sqrt(max(fourth - var * var, 0.0) / n)


def assert_same_moments(sums, reference):
    """Equal mean and variance within SE_MULTIPLE standard errors."""
    got = cluster_sum_moments(sums.astype(float))
    ref = cluster_sum_moments(reference.astype(float))
    assert abs(got[0] - ref[0]) <= SE_MULTIPLE * math.hypot(got[1], ref[1])
    assert abs(got[2] - ref[2]) <= SE_MULTIPLE * math.hypot(got[3], ref[3])


def dataset(rows):
    """Build a dataset from (cluster_id, arm, outcomes) triples."""
    ids, arms, ys = zip(*rows) if rows else ((), (), ())
    return TrialDataset(
        cluster_id=np.array(ids, dtype=np.int64),
        arm=np.array(arms, dtype=np.int64),
        size=np.array([len(y) for y in ys], dtype=np.int64),
        outcomes=np.array([v for y in ys for v in y], dtype=np.int64),
    )


PLAIN_INT = re.compile(r"\s*[+-]?[0-9]+\s*")  # a field the dataset format takes as an integer
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_read_dataset(path):
    """The dataset CSV format read row by row with ``csv.reader``.

    A pure-Python oracle for ``read_dataset``: the same header check,
    accepted fields, row checks, error messages with physical line numbers,
    and cluster order of first appearance.
    """
    clusters = {}  # cluster id -> (arm, outcomes), in order of first appearance
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("cluster_id", "arm", "y"):
            raise ConfigError(f"{path}: expected header 'cluster_id,arm,y', got {header}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if not row:
                continue
            if len(row) != 3 or not all(PLAIN_INT.fullmatch(v) for v in row):
                raise ConfigError(f"{where}: malformed row {row}")
            cid, arm, y = (int(v) for v in row)
            if cid not in clusters:
                if not INT64_MIN <= cid <= INT64_MAX:
                    raise ConfigError(f"{where}: cluster id {cid} outside the int64 range")
                if arm not in (0, 1):
                    raise ConfigError(f"{where}: arm must be 0 or 1, got {arm}")
                clusters[cid] = (arm, [])
            elif clusters[cid][0] != arm:
                raise ConfigError(f"{where}: cluster {cid} changes arm")
            if y < 0:
                raise ConfigError(f"{where}: negative outcome {y}")
            if y > INT64_MAX:
                raise ConfigError(f"{where}: outcome {y} outside the int64 range")
            clusters[cid][1].append(y)
    if not clusters:
        raise ConfigError(f"{path}: no data rows")
    return dataset([(cid, arm, ys) for cid, (arm, ys) in clusters.items()])


def cluster_rows(data):
    """A dataset's (cluster_id, arm, outcomes) triples, in cluster order."""
    outcomes = np.split(data.outcomes, np.cumsum(data.size)[:-1])
    return list(zip(data.cluster_id.tolist(), data.arm.tolist(), outcomes))


def arm_outcomes(data, arm):
    """All outcomes from clusters in the given arm, in cluster order."""
    return data.outcomes[np.repeat(data.arm == arm, data.size)]


def arm_totals(data):
    """(subjects, outcome sum, zero count) of each arm, read off the outcomes."""
    totals = []
    for arm in (0, 1):
        y = arm_outcomes(data, arm)
        totals.append((float(y.size), float(y.sum()), float(np.count_nonzero(y == 0))))
    return totals


def zero_states(data):
    """Each arm's zero fraction against a Poisson model with the arm's mean.

    ``"boundary"`` when the arm has zeros but its zero fraction is at most
    ``exp(-ybar)``, so that ``p_hat`` is the boundary 0; ``"interior"`` when
    it exceeds ``exp(-ybar)``; ``"no zeros"`` when the arm has none.
    """
    states = []
    for m, s, z in arm_totals(data):
        if z == 0:
            states.append("no zeros")
        else:
            states.append("boundary" if z / m <= math.exp(-s / m) else "interior")
    return tuple(states)


SUBJECT_ORACLE_TAG = 0x4F52434C  # the oracle's stream (seed, SUBJECT_ORACLE_TAG)


def subject_trial(design, n_clusters, seed):
    """generate_trial's law, built subject by subject: the oracle of the draw core.

    ``round(n_clusters * r_bar)`` clusters, chosen by a permutation, receive
    the intervention; sizes come from the package's size sampler.  Each
    cluster draws a shared zero ``c ~ Bern(p)`` and a shared count
    ``U ~ Poisson(lam * rho_u)``; each subject draws a mixing indicator
    ``w ~ Bern(sqrt(rho_s))``, an own zero ``e ~ Bern(p)`` and an own count
    ``P ~ Poisson(lam * (1 - rho_u))``, and its outcome is 0 if it is a
    structural zero (``c`` when ``w``, else ``e``) and ``P + U`` otherwise.
    """
    rng = np.random.default_rng([seed, SUBJECT_ORACLE_TAG])
    arms = np.zeros(n_clusters, dtype=np.int64)
    arms[rng.permutation(n_clusters)[:round(n_clusters * design.r_bar)]] = 1
    sizes = _draw_cluster_sizes(design.cluster_sizes, rng, (n_clusters,))
    p = np.where(arms == 1, design.intervention.p, design.control.p)
    lam = np.where(arms == 1, design.intervention.lam, design.control.lam)
    shared_zero = rng.random(n_clusters) < p
    shared_count = rng.poisson(lam * design.rho_u)
    n_subjects = int(sizes.sum())
    takes_shared = rng.random(n_subjects) < math.sqrt(design.rho_s)
    own_zero = rng.random(n_subjects) < np.repeat(p, sizes)
    own_count = rng.poisson(np.repeat(lam * (1.0 - design.rho_u), sizes))
    zero = np.where(takes_shared, np.repeat(shared_zero, sizes), own_zero)
    outcomes = np.where(zero, 0, own_count + np.repeat(shared_count, sizes))
    return TrialDataset(np.arange(n_clusters), arms, sizes, outcomes, seed)


def first_seed(design, n_clusters, scenario, start=0, bound=100):
    """The first seed from ``start`` on, below ``start + bound``, whose
    ``generate_trial`` dataset satisfies ``scenario``."""
    for seed in range(start, start + bound):
        if scenario(generate_trial(design, n_clusters, seed)):
            return seed
    raise AssertionError(f"no seed in [{start}, {start + bound}) gives the scenario")


def newton_beta(totals, p, beta=None, tol=1e-10, max_iter=100):
    """Newton-Raphson solve of the weighted mean-model score on arm totals.

    The working weight of arm ``a`` is ``1 / (1 + odds(p_a) * mu_a)``; the
    information is ``[[x + y, y], [y, y]]`` with ``x``, ``y`` the weighted
    expected totals of the control and intervention arm.
    """
    (m0, s0, _), (m1, s1, _) = totals
    odds0, odds1 = p[0] / (1.0 - p[0]), p[1] / (1.0 - p[1])
    b1, b2 = (0.0, 0.0) if beta is None else beta
    for _ in range(max_iter):
        mu0, mu1 = math.exp(b1), math.exp(b1 + b2)
        w0, w1 = 1.0 / (1.0 + odds0 * mu0), 1.0 / (1.0 + odds1 * mu1)
        u2 = w1 * (s1 - m1 * mu1)
        u1 = w0 * (s0 - m0 * mu0) + u2
        x, y = w0 * m0 * mu0, w1 * m1 * mu1
        d1 = (u1 - u2) / x
        d2 = u2 / y - d1
        b1, b2 = b1 + d1, b2 + d2
        if max(abs(d1), abs(d2)) < tol:
            return b1, b2
    raise AssertionError("Newton oracle did not converge")


def sandwich_oracle(data, p):
    """Textbook sandwich ``N * A**-1 V A**-1`` at plug-in ``p``, built per subject.

    Each subject has covariates ``x = (1, r)``, mean ``mu = exp(x beta)`` at
    the Newton solution for ``p``, and working weight
    ``1 / (1 + odds(p_arm) * mu)``; ``A`` sums ``w mu x x^T`` over subjects
    and ``V`` the outer products of each cluster's summed scores
    ``w (y - mu) x``.
    """
    beta = np.array(newton_beta(arm_totals(data), p))
    r = np.repeat(data.arm, data.size)
    x = np.column_stack([np.ones(r.size), r])
    mu = np.exp(x @ beta)
    odds = np.array([p[0] / (1.0 - p[0]), p[1] / (1.0 - p[1])])[r]
    w = 1.0 / (1.0 + odds * mu)
    a = (x * (w * mu)[:, None]).T @ x
    starts = np.cumsum(data.size) - data.size
    scores = np.add.reduceat(x * (w * (data.outcomes - mu))[:, None], starts, axis=0)
    a_inv = np.linalg.inv(a)
    return data.n_clusters * (a_inv @ (scores.T @ scores) @ a_inv)


def es_step(totals, beta, p):
    """One expectation-solution pass: refit beta, then update p.

    Each observed zero's structural indicator is replaced by its posterior
    mean ``[1 + ((1 - p) / p) exp(-lam)]**-1`` with ``lam = mu / (1 - p)``,
    and the zero-model moment equation sets ``p`` to the arm mean of those
    weights: ``weight * zero fraction``.
    """
    beta = newton_beta(totals, p, beta)
    mu = (math.exp(beta[0]), math.exp(beta[0] + beta[1]))
    new_p = []
    for (m, _, z), p_a, mu_a in zip(totals, p, mu):
        weight = 0.0 if p_a <= 0.0 else 1.0 / (
            1.0 + (1.0 - p_a) / p_a * math.exp(-mu_a / (1.0 - p_a))
        )
        new_p.append(weight * z / m)
    return beta, tuple(new_p)


ES_SPAN = 100  # ES steps per run in the oracle's stop rule


def es_oracle(totals, init=None, tol=1e-12, max_iter=200_000):
    """The ES iteration run to its fixed point; returns ``(beta, p)``.

    Starts from the arm zero fractions (or ``init = (beta, p)``).  Near the
    fixed point each ``p`` contracts by a ratio ``r`` per step, and for a
    ``p`` near the boundary 0 ``r`` is close to 1, so a step can move ``p``
    by far less than the distance still to go.  The stop rule bounds that
    distance: if the last two runs of ``ES_SPAN`` steps moved ``p`` by ``b``
    and then ``a``, the runs contract by ``R = a / b`` and ``p`` is
    ``|a| R / (1 - R)`` from the fixed point.  The iteration stops when
    that is below ``tol`` in every arm.  Runs of steps, not single steps:
    when ``1 - r`` is small, the rounding in each step is enough to spoil
    the ratio of two single steps.
    """
    if init is None:
        beta, p = None, tuple(min(z / m, 1.0 - 1e-12) for m, _, z in totals)
    else:
        beta, p = init
    trail = collections.deque([p], maxlen=2 * ES_SPAN + 1)
    for _ in range(max_iter):
        beta, p = es_step(totals, beta, p)
        trail.append(p)
        if len(trail) == trail.maxlen and all(
            _distance_left(*path) < tol for path in zip(trail[0], trail[ES_SPAN], p)
        ):
            return np.array(beta), p
    raise AssertionError("ES oracle did not converge")


def _distance_left(start, middle, end):
    """Distance from ``end`` to the limit of a geometric sequence through the three points."""
    a, b = end - middle, middle - start
    if a == 0.0:
        return 0.0
    ratio = a / b if b != 0.0 else math.inf
    if not 0.0 < ratio < 1.0:
        return math.inf
    return abs(a) * ratio / (1.0 - ratio)


def jackknife_oracle(data):
    """Leave-one-cluster-out covariance of beta from ES refits of each deletion."""
    beta, p = es_oracle(arm_totals(data))
    rows = cluster_rows(data)
    n = len(rows)
    deviations = []
    for k in range(n):
        reduced = dataset(rows[:k] + rows[k + 1:])
        loo_beta, _ = es_oracle(arm_totals(reduced), init=(tuple(beta), p))
        deviations.append(loo_beta - beta)
    dev = np.array(deviations)
    return (n - 2) / n * (dev.T @ dev)
