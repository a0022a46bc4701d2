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

import itertools
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


def _demand_stack(values: np.ndarray) -> np.ndarray:
    """(k, m, n) C-contiguous demand vectors of the stacked (k, n, m) values
    of k instances, sorted in one call."""
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


# Slack for branch pruning. Relaxation totals are plain float sums and can
# land an ulp or two off the canonical leaf values; pruning strictly at the
# incumbent could then discard a leaf that canonically ties or beats it.
# Values here are at most 2n, so a couple of ulps is well under 1e-12.
_PRUNE_SLACK = 1e-12

# Below a node (the root of every pair of a block, then each node where the
# priced levels end), its whole subtree is priced in one call when it has at
# most this many nodes, else only its children. Whole trees fit up to n = 5
# (325 nodes). An 8x8 tree has 109,600: its top three levels go one node at a
# time and each node below them prices its whole 325-node subtree, so a
# near-duplicate pair whose walk stops after a few nodes prices few more.
_NODE_BUDGET = 400

# Pairs of a row are priced in blocks of at most this many float64 entries of
# goods costs (the agent-to-agent tensor plus the widest level priced ahead).
_BLOCK_ENTRIES = 1 << 16


def _ahead(n: int, depth: int) -> list[int]:
    """Level sizes priced ahead below a node that has ``depth`` agents
    matched: its whole subtree if that fits the budget, else its children."""
    sizes = [math.perm(n - depth, t) for t in range(1, n - depth + 1)]
    return sizes if sum(sizes) <= _NODE_BUDGET else sizes[:1]


def _matched_l1(tensor, pairs, rows, paths, costs) -> list[float]:
    """Canonical l1 of N agent matchings, each with its goods matched by a
    min-cost assignment of ``costs[t]``. Matching t pairs instance i with
    block partner ``pairs[t]`` and matches agent ``rows[s]`` of i to agent
    ``paths[t, s]`` of the partner."""
    cols = np.array([linear_sum_assignment(cost)[1] for cost in costs])
    goods = np.arange(costs.shape[-1])
    terms = tensor[pairs[:, None, None], rows[:, None], paths[:, :, None], goods, cols[:, None]]
    return [math.fsum(t) for t in terms.reshape(len(costs), -1).tolist()]


def _price(tensor, order, pairs, paths, costs, bounds) -> list[list[list[float]]]:
    """Node values of the search trees below N nodes of one depth d, priced
    level by level for all N at once.

    Node t belongs to block pair ``pairs[t]``, matches agent ``order[s]`` of
    instance i to agent ``paths[t, s]`` of its partner for s < d, and has the
    goods cost ``costs[t]``. A child matches agent ``order[d]`` to a free
    agent; children come in increasing agent order, and a child's cost is its
    parent's plus one agent pair's goods costs, so every cost is summed along
    its path in matching order. A node's value is its assignment relaxation
    total (a lower bound on every leaf below it, since matching more agents
    only adds nonnegative cost), or the canonical fsum of its goods-matched
    entries when every agent is matched. Only children of nodes valued below
    ``bounds[t]`` are priced.

    Returns, per level below depth d and per node t, the values of that
    level's nodes by rank (children of rank r at ranks r*c .. r*c+c-1);
    unpriced ranks hold NaN.
    """
    count, depth = paths.shape
    n, m = order.size, costs.shape[-1]
    owner, ranks = np.arange(count), np.zeros(count, dtype=np.intp)
    goods = np.arange(m)
    levels = []
    for size in _ahead(n, depth):
        c = n - depth
        free = np.ones((len(paths), n), dtype=bool)
        free[np.arange(len(paths))[:, None], paths] = False
        agents = free.nonzero()[1].reshape(-1, c)
        costs = (costs[:, None] + tensor[pairs[:, None], order[depth], agents]).reshape(-1, m, m)
        owner, pairs = np.repeat(owner, c), np.repeat(pairs, c)
        ranks = (ranks[:, None] * c + np.arange(c)).ravel()
        paths = np.concatenate([np.repeat(paths, c, axis=0), agents.reshape(-1, 1)], axis=1)
        depth += 1
        if depth < n:
            cols = np.array([linear_sum_assignment(cost)[1] for cost in costs])
            totals = costs[np.arange(len(costs))[:, None], goods, cols].sum(axis=-1)
            values = totals.tolist()
        else:
            values = _matched_l1(tensor, pairs, order, paths, costs)
        level = np.full((count, size), np.nan)
        level[owner, ranks] = values
        levels.append(level.tolist())
        if depth == n:
            break
        keep = totals < bounds[owner]
        if not keep.any():
            break
        owner, ranks, pairs, paths, costs = (x[keep] for x in (owner, ranks, pairs, paths, costs))
    return levels


def _walk(tensor, order, k, best: float, bound: float, levels) -> float:
    """Branch and bound over the agent matchings of block pair k.

    Agents of instance i are matched in decreasing entry variance (``order``,
    a pruning heuristic only; the minimum is order independent). Children are
    visited in increasing relaxation and skipped once they cannot beat the
    incumbent, and the search stops at the first incumbent within the demand
    ``bound``. ``levels`` are the values ``_price`` gave below the root; where
    they end, the walk prices below the one node it reached.
    """
    n, m = order.size, tensor.shape[-1]

    def rec(depth, levels, start, t, rank):
        nonlocal best
        if best <= bound:
            return
        if t == len(levels):
            # the node at this rank below ``start``: its agent path and cost
            positions = []
            for s in range(depth - 1, depth - t - 1, -1):
                rank, p = divmod(rank, n - s)
                positions.append(p)
            free = [a for a in range(n) if a not in start]
            start += tuple(free.pop(p) for p in reversed(positions))
            cost = np.zeros((m, m))
            for s, a in enumerate(start):
                cost = cost + tensor[k, order[s], a]
            priced = _price(
                tensor, order, np.array([k]), np.array([start], dtype=np.intp),
                cost[None], np.array([best + _PRUNE_SLACK]),
            )
            levels, t, rank = [level[0] for level in priced], 0, 0
        c = n - depth
        values = levels[t][rank * c : rank * c + c]
        if depth == n - 1:
            best = min(best, values[0])
            return
        for r in sorted(range(c), key=values.__getitem__):
            if values[r] < best + _PRUNE_SLACK:
                rec(depth + 1, levels, start, t + 1, rank * c + r)

    rec(0, levels, (), 0, 0)
    return best


def _settle(tensor, order, live, best, lbs) -> list[int]:
    """Leaf pass over block pairs ``live`` whose whole tree fits the node
    budget: price all n! leaves of each (costs summed in matching order, as
    ``_price`` sums them, so each leaf gets the bits ``_price`` gives it) and
    settle ``best[k]`` where the walk's result follows from the leaves alone.
    Returns the pairs left for the walk.

    The walk skips a leaf only below a relaxation >= its incumbent plus
    ``_PRUNE_SLACK``, and a leaf never falls below an ancestor's relaxation
    by more than a few ulps, so no skipped leaf could lower the minimum or
    stop the walk. With no leaf within the bound the walk returns the least
    leaf or the incumbent; with leaves within it the walk stops at the first
    it reaches, which only its order decides unless they all tie.
    """
    n, m = order.size, tensor.shape[-1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    f = len(perms)
    pairs, paths = np.repeat(live, f), np.tile(perms, (len(live), 1))
    costs = np.zeros((len(paths), m, m))
    for s in range(n):
        costs += tensor[pairs, order[s], paths[:, s]]
    leaves = _matched_l1(tensor, pairs, order, paths, costs)
    undecided = []
    for t, k in enumerate(live):
        values = leaves[t * f : t * f + f]
        below = {v for v in values if v <= lbs[k]}
        if not below:
            best[k] = min(best[k], *values)
        elif len(below) == 1:
            best[k] = below.pop()
        else:
            undecided.append(k)
    return undecided


def _valuation_row(values: np.ndarray, i: int, demand: list[float]) -> list[float]:
    """Valuation distances from instance i to every later instance of the
    stacked (k, n, m) ``values``, with the demand row as root bounds.

    Pairs go in blocks. One broadcast builds each block's agent-to-agent
    goods-cost tensor; the identity matchings (costs summed in agent order)
    give every pair's first incumbent. Where the whole tree fits the node
    budget (n <= 5), ``_settle`` prices every leaf of the pairs still above
    their bounds and settles almost all of them; ``_price`` values the top
    levels of every pair left, then ``_walk`` searches each.
    """
    a1 = values[i]
    n, m = a1.shape
    order = np.argsort(-a1.var(axis=1), kind="stable")
    step = max(1, _BLOCK_ENTRIES // ((n * n + max(_ahead(n, 0))) * m * m))
    ident = np.arange(n)
    out = []
    for lo in range(i + 1, len(values), step):
        rest = values[lo : lo + step]
        lbs = demand[lo - i - 1 : lo - i - 1 + len(rest)]
        tensor = np.abs(a1[None, :, None, :, None] - rest[:, None, :, None, :])
        best = _matched_l1(
            tensor, np.arange(len(rest)), ident, np.tile(ident, (len(rest), 1)),
            tensor[:, ident, ident].sum(axis=1),
        )
        live = [k for k in range(len(rest)) if best[k] > lbs[k]]
        if live and len(_ahead(n, 0)) == n:
            live = _settle(tensor, order, live, best, lbs)
        if live:
            priced = _price(
                tensor, order, np.array(live), np.empty((len(live), 0), dtype=np.intp),
                np.zeros((len(live), m, m)), np.array([best[k] for k in live]) + _PRUNE_SLACK,
            )
            for t, k in enumerate(live):
                best[k] = _walk(tensor, order, k, best[k], lbs[k], [level[t] for level in priced])
        out += best
    return out


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
    _check_matrices((u1, u2), "demand", EXACT_SEARCH_CAP)
    values = np.array([u1.values, u2.values])
    return _distance_row(0, values, _demand_stack(values), "demand")[0]


def valuation_distance(
    u1: UtilityMatrix, u2: UtilityMatrix, cap: int = EXACT_SEARCH_CAP
) -> float:
    """Exact min over all agent and good relabelings of the entrywise l1
    difference. Exponential in n; refuses n > cap."""
    _check_matrices((u1, u2), "valuation", cap)
    values = np.array([u1.values, u2.values])
    return _distance_row(0, values, _demand_stack(values), "valuation")[0]


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


def _distance_row(i: int, values: np.ndarray, vectors: np.ndarray, metric: str) -> list[float]:
    """Distances from instance i to every later instance of the stacked
    (k, n, m) ``values``; ``vectors`` is ``_demand_stack(values)``. The
    demand row is also the valuation search's root bounds. Callers check
    shapes and the cap with ``_check_matrices``."""
    row = _demand_row(vectors, i)
    if metric == "demand":
        return row
    return _valuation_row(values, i, row)


_POOL_STATE: dict = {}


def _pool_init(values, metric):
    _POOL_STATE.update(values=values, vectors=_demand_stack(values), metric=metric)


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
    values = np.array([u.values for u in matrices])
    k = len(records)
    if threads > 1 and k > 2:
        # the pool has k - 1 rows to hand out, and it starts every worker at once
        with ProcessPoolExecutor(
            max_workers=min(threads, k - 1), initializer=_pool_init, initargs=(values, metric)
        ) as pool:
            rows = list(pool.map(_pool_row, range(k - 1)))
    else:
        vectors = _demand_stack(values)
        rows = [_distance_row(i, values, vectors, metric) for i in range(k - 1)]
    dist = np.zeros((k, k))
    for i, row in enumerate(rows):
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return DistanceMatrix(labels=[rec.label for rec in records], values=dist, metric=metric)
