"""Instance distances: min-cost matchings over agents and goods.

Two instances are compared entrywise (l1) after optimally relabeling agents
and goods. The full valuation distance minimizes over both labelings and is
exact but exponential in n (branch-and-bound over agent matchings, each node
bounded by a goods-assignment relaxation). The demand distance compares the
multiset of sorted demand columns and needs one polynomial matching; it never
exceeds the valuation distance, which makes it both a cheap stand-in at scale
and the root bound of the exact search.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import CapError, ShapeMismatch, UtilityMatrix, ValidationError

EXACT_SEARCH_CAP = 8

METRICS = ("demand", "valuation")

# Matchings are frequently tied in exact arithmetic (swapping two goods whose
# demand columns sit on the same side of two others changes nothing), and an
# order-sensitive float sum would let tied matchings differ by an ulp
# depending on which one the solver happened to return. All reported
# distances therefore go through one canonical evaluation: the correctly
# rounded exact sum (fsum) of the elementary |x - y| terms, which is
# order-free and monotone in the true cost.


class ExactSearchCapExceeded(CapError):
    def __init__(self, n: int, cap: int):
        self.n, self.cap = n, cap
        super().__init__(
            f"exact valuation search is exponential in n; n={n} exceeds cap {cap}"
        )


def _assignment_total(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _demand_stack(matrices) -> np.ndarray:
    """(k, m, n) C-contiguous demand vectors of k same-shape instances,
    sorted in one call."""
    values = np.array([u.values for u in matrices])
    return np.ascontiguousarray(np.sort(values, axis=1)[:, ::-1].transpose(0, 2, 1))


def _demand_row(vectors: np.ndarray, i: int) -> list[float]:
    """Demand distances from instance i to every later one, given the stacked
    (k, m, n) demand vectors. One broadcast prices every pair's goods, summing
    over the same contiguous length-n axis a single (m, m) cost would, so each
    pair's assignment and canonical fsum see the same numbers either way."""
    d1, rest = vectors[i], vectors[i + 1 :]
    costs = np.abs(d1[None, :, None, :] - rest[:, None, :, :]).sum(axis=3)
    cols = [linear_sum_assignment(c)[1] for c in costs]
    matched = rest[np.arange(len(rest))[:, None], cols]
    terms = np.abs(d1 - matched).reshape(len(rest), -1).tolist()
    return [math.fsum(t) for t in terms]


def _goods_matched_l1(a1: np.ndarray, b2: np.ndarray, cost: np.ndarray) -> float:
    """Canonical l1 between a1 and b2 with the goods (columns) of b2 matched
    to those of a1 by a min-cost assignment; cost[j, j'] prices good j of a1
    against good j' of b2. For a square cost, linear_sum_assignment returns
    rows 0..m-1 in order, so its cols are the goods permutation."""
    _, cols = linear_sum_assignment(cost)
    return math.fsum(np.abs(a1 - b2[:, cols]).ravel().tolist())


# Slack for branch pruning. Relaxation totals are plain float sums and can
# land an ulp or two off the canonical leaf values; pruning strictly at the
# incumbent could then discard a leaf that canonically ties or beats it.
# Values here are at most 2n, so a couple of ulps is well under 1e-12.
_PRUNE_SLACK = 1e-12


def _valuation_search(a1: np.ndarray, a2: np.ndarray, root_lb: float) -> float:
    """Branch-and-bound over agent matchings.

    Nodes carry the goods-cost matrix of the committed agent pairs; its
    assignment relaxation is a lower bound because appending agents only adds
    nonnegative cost. Agents are processed in decreasing entry variance
    (spiky rows first, a pruning heuristic only; the minimum is order
    independent). Leaves are scored with the canonical evaluation.
    """
    n, m = a1.shape
    tensor = np.abs(a1[:, None, :, None] - a2[None, :, None, :])
    order = np.argsort(-a1.var(axis=1), kind="stable")

    ident = np.arange(n)
    best = _goods_matched_l1(a1, a2, tensor[ident, ident].sum(axis=0))
    used = np.zeros(n, dtype=bool)
    assign = np.full(n, -1, dtype=np.intp)

    def rec(cost: np.ndarray, depth: int) -> None:
        nonlocal best
        if best <= root_lb:
            return
        i = int(order[depth])
        last = depth == n - 1
        children = []
        for i2 in range(n):
            if used[i2]:
                continue
            child_cost = cost + tensor[i, i2]
            if last:
                assign[i] = i2
                val = _goods_matched_l1(a1, a2[assign], child_cost)
                best = min(best, val)
                continue
            val = _assignment_total(child_cost)
            if val >= best + _PRUNE_SLACK:
                continue
            children.append((val, i2, child_cost))
        if last:
            assign[i] = -1
            return
        children.sort(key=lambda c: c[0])
        for val, i2, child_cost in children:
            if val >= best + _PRUNE_SLACK:
                continue
            used[i2] = True
            assign[i] = i2
            rec(child_cost, depth + 1)
            used[i2] = False
        assign[i] = -1

    rec(np.zeros((m, m)), 0)
    return best


def _check_matrices(matrices, metric: str, cap: int) -> None:
    """Every instance must share one shape, and the exact search refuses
    n > cap."""
    shapes = {u.values.shape for u in matrices}
    if len(shapes) > 1:
        raise ShapeMismatch(*sorted(shapes)[:2])
    n = matrices[0].n
    if metric == "valuation" and n > cap:
        raise ExactSearchCapExceeded(n, cap)


def demand_distance(u1: UtilityMatrix, u2: UtilityMatrix) -> float:
    """Min-cost matching of demand vectors (anonymous per-good demand)."""
    pair = (u1, u2)
    _check_matrices(pair, "demand", EXACT_SEARCH_CAP)
    return _distance_row(0, pair, _demand_stack(pair), "demand")[0]


def valuation_distance(
    u1: UtilityMatrix, u2: UtilityMatrix, cap: int = EXACT_SEARCH_CAP
) -> float:
    """Exact min over all agent and good relabelings of the entrywise l1
    difference. Exponential in n; refuses n > cap."""
    pair = (u1, u2)
    _check_matrices(pair, "valuation", cap)
    return _distance_row(0, pair, _demand_stack(pair), "valuation")[0]


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances with instance labels."""

    labels: list[str]
    values: np.ndarray
    metric: str

    def __post_init__(self):
        k = len(self.labels)
        shape = check_distances(self.values).shape
        if shape != (k, k):
            raise ShapeMismatch(shape, (k, k))


def check_distances(values) -> np.ndarray:
    """The distance-matrix rule, returning the float64 array: square, finite,
    symmetric within 1e-12, zero on the diagonal within 1e-12, and
    nonnegative."""
    d = np.asarray(values, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValidationError("distance matrix has NaN or infinite entries")
    if not np.allclose(d, d.T, rtol=0.0, atol=1e-12):
        raise ValidationError("distance matrix is not symmetric")
    if np.abs(np.diag(d)).max(initial=0.0) > 1e-12:
        raise ValidationError("distance matrix diagonal is not zero")
    if d.min(initial=0.0) < 0.0:
        raise ValidationError("distance matrix has negative entries")
    return d


def _distance_row(i: int, matrices, vectors: np.ndarray, metric: str) -> list[float]:
    """Distances from instance i to every later instance; ``vectors`` is
    ``_demand_stack(matrices)``. The demand row is also the valuation
    search's root bounds. Callers check shapes and the cap with
    ``_check_matrices``."""
    row = _demand_row(vectors, i)
    if metric == "demand":
        return row
    a1 = matrices[i].values
    return [
        _valuation_search(a1, matrices[j].values, lb)
        for j, lb in enumerate(row, start=i + 1)
    ]


_POOL_STATE: dict = {}


def _pool_init(matrices, metric):
    _POOL_STATE.update(matrices=matrices, vectors=_demand_stack(matrices), metric=metric)


def _pool_row(i: int) -> list[float]:
    return _distance_row(i, **_POOL_STATE)


def pairwise_distances(
    records, metric: str, threads: int = 1, cap: int = EXACT_SEARCH_CAP
) -> DistanceMatrix:
    """All-pairs distance matrix over a dataset (instances must share n, m).

    With threads > 1 the pair grid is computed by a process pool; entries are
    assembled by index, so the result is identical for any thread count.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not records:
        raise ValidationError("need at least one instance, got none")
    matrices = [rec.matrix for rec in records]
    _check_matrices(matrices, metric, cap)
    k = len(records)
    if threads > 1 and k > 2:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_pool_init, initargs=(matrices, metric)
        ) as pool:
            rows = list(pool.map(_pool_row, range(k - 1)))
    else:
        vectors = _demand_stack(matrices)
        rows = [_distance_row(i, matrices, vectors, metric) for i in range(k - 1)]
    values = np.zeros((k, k))
    for i, row in enumerate(rows):
        values[i, i + 1 :] = row
        values[i + 1 :, i] = row
    return DistanceMatrix(labels=[rec.label for rec in records], values=values, metric=metric)
