"""Instance distances: min-cost matchings over agents and goods.

Two instances are compared entrywise (l1) after optimally relabeling agents
and goods. The full valuation distance minimizes over both labelings and is
exact but exponential in n: a leaf pass bounds all n! agent matchings by the
reduced costs of their goods assignment problems, matches the goods of only
those the bound cannot rule out by one assignment each, and where leaves of
distinct value lie within the demand bound takes the one a depth-first
branch-and-bound walk would reach first. The demand distance compares the
multiset of sorted demand columns and needs one polynomial matching; it
never exceeds the valuation distance, which makes it both a cheap stand-in
at scale and the search's stopping bound.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

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
    matched = rest[np.arange(len(rest))[:, None], _assign(costs)]
    terms = np.abs(d1 - matched).reshape(len(rest), -1).tolist()
    return [math.fsum(t) for t in terms]


# Slack for pruning, for the leaf pass's reduced-cost bounds and for its
# candidates. Relaxations, bounds and leaf totals are plain float sums and
# can land a few ulps off the canonical leaf values; pruning strictly at the
# incumbent could then discard a leaf that canonically ties or beats it.
# Values here are at most 2n, so a few ulps is well under 1e-12.
_PRUNE_SLACK = 1e-12

# Pairs of a row go in blocks of at most this many float64 entries of the
# agent-to-agent goods-cost tensor, and the leaf pass builds its leaves'
# goods costs in chunks of at most this many entries.
_BLOCK_ENTRIES = 1 << 16


def _assign(costs) -> np.ndarray:
    """The goods column of each row in one min-cost assignment per (m, m)
    cost of ``costs``."""
    # deferred so that importing allocmap never loads SciPy; once per block
    from scipy.optimize import linear_sum_assignment

    return np.array([linear_sum_assignment(cost)[1] for cost in costs])


def _matched_l1(tensor, pairs, rows, paths, cols) -> list[float]:
    """Canonical l1 of N matchings. Matching t pairs instance i with block
    partner ``pairs[t]``, matches agent ``rows[s]`` of i to agent
    ``paths[t, s]`` of the partner and good g to good ``cols[t, g]``."""
    goods = np.arange(cols.shape[-1])
    terms = tensor[pairs[:, None, None], rows[:, None], paths[:, :, None], goods, cols[:, None]]
    return [math.fsum(t) for t in terms.reshape(len(cols), rows.size * goods.size).tolist()]


def _reduced_bound(costs) -> np.ndarray:
    """A lower bound on the least assignment total of each (m, m) cost of
    ``costs``, to a few ulps: the row minima plus the column minima of the
    row-reduced costs, or the column-first mirror, whichever is larger. Both
    are feasible duals of the assignment problem. The reductions run on one
    leaves-last copy, where each is a vectorized pass over contiguous rows."""
    c = np.ascontiguousarray(costs.transpose(1, 2, 0))
    rows, cols = c.min(axis=1), c.min(axis=0)
    by_rows = rows.sum(axis=0) + (c - rows[:, None]).min(axis=0).sum(axis=0)
    by_cols = cols.sum(axis=0) + (c - cols[None]).min(axis=1).sum(axis=0)
    return np.maximum(by_rows, by_cols)


def _settle(tensor, order, live, best, lbs) -> None:
    """Leaf pass over the block pairs ``live``: bound all n! agent matchings
    of each, solve those the bound cannot rule out and settle ``best[k]``
    with the value a branch-and-bound walk would return.

    That walk matches agent ``order[s]`` of instance i at step s, prices a
    node by the goods-assignment relaxation of its costs summed from zero in
    matching order, visits children in increasing relaxation, skips a child
    whose relaxation is at least the incumbent plus ``_PRUNE_SLACK`` and
    stops at the first incumbent within the demand bound.

    A leaf's goods costs are summed the same way, so the solver matches its
    goods as the walk would. Each chunk of leaves first solves the leaf of
    least reduced-cost bound of each of its pairs, which sets the pair's
    least total, then every other leaf whose bound is within
    ``_PRUNE_SLACK`` of the pair's demand bound or least total. Only leaves
    whose plain total is within the same slack get a canonical value. A
    leaf's bound lies at most a few ulps above its total, and its total
    within a few ulps of its canonical value, so a leaf left out either way
    can neither be the least leaf nor lie within the demand bound.

    A leaf never falls below an ancestor's relaxation by more than a few
    ulps, so no leaf the walk skips could lower the minimum or stop the
    walk. With no leaf within the bound the walk returns the least leaf or
    the incumbent; with leaves within it the walk stops at the first it
    reaches, the least by ``_walk_key`` where their values differ.
    """
    n, m = order.size, tensor.shape[-1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    f, live = len(perms), np.array(live, dtype=np.intp)
    bounds, least = np.array(lbs), np.full(len(lbs), np.inf)
    leaves = {k: [] for k in live.tolist()}
    goods, step = np.arange(m), max(1, _BLOCK_ENTRIES // (m * m))
    for lo in range(0, len(live) * f, step):
        t = np.arange(lo, min(lo + step, len(live) * f))
        pairs, paths = live[t // f], perms[t % f]
        costs = np.zeros((len(t), m, m))
        for s in range(n):
            costs += tensor[pairs, order[s], paths[:, s]]
        lower = _reduced_bound(costs)
        cols = np.zeros((len(t), m), dtype=np.intp)
        totals = np.full(len(t), np.inf)  # until the leaf is solved

        def solve(idx):
            cols[idx] = _assign(costs[idx])
            totals[idx] = costs[idx[:, None], goods, cols[idx]].sum(axis=-1)
            np.minimum.at(least, pairs[idx], totals[idx])

        # in (pair, bound) order each pair's first leaf is its least-bound leaf
        by_bound = np.lexsort((lower, pairs))
        solve(by_bound[np.unique(pairs[by_bound], return_index=True)[1]])
        rest = np.flatnonzero((totals == np.inf) & (lower <= np.maximum(bounds, least)[pairs] + _PRUNE_SLACK))
        if rest.size:
            solve(rest)
        keep = totals <= np.maximum(bounds, least)[pairs] + _PRUNE_SLACK
        values = _matched_l1(tensor, pairs[keep], order, paths[keep], cols[keep])
        for k, leaf in zip(pairs[keep].tolist(), zip(values, (t % f)[keep].tolist())):
            leaves[k].append(leaf)
    for k, found in leaves.items():
        below = [leaf for leaf in found if leaf[0] <= lbs[k]]
        if len({value for value, _ in below}) > 1:
            below.sort(key=lambda leaf: _walk_key(tensor, order, k, perms[leaf[1]]))
        best[k] = below[0][0] if below else min(best[k], *(value for value, _ in found))


def _walk_key(tensor, order, k, path) -> list:
    """Where the leaf ``path`` of block pair k comes in the walk of
    ``_settle``: that walk reaches leaves in increasing order of
    [t_1, a_1, ..., t_{n-1}, a_{n-1}], where a_s is the partner agent
    matched at step s and t_s the relaxation of the first s steps, since
    ties between siblings go to the lower partner agent."""
    m = tensor.shape[-1]
    cost, key = np.zeros((m, m)), []
    for s, a in enumerate(path[:-1]):
        cost = cost + tensor[k, order[s], a]
        key += [cost[np.arange(m), _assign([cost])[0]].sum(), a]
    return key


def _valuation_row(values: np.ndarray, i: int, demand: list[float]) -> list[float]:
    """Valuation distances from instance i to every later instance of the
    stacked (k, n, m) ``values``, with the demand row as root bounds.

    Pairs go in blocks. One broadcast builds each block's agent-to-agent
    goods-cost tensor; the identity matchings (costs summed in agent order)
    give every pair's first incumbent. ``_settle`` prices the leaves of the
    pairs still above their bounds and settles each of them.
    """
    a1 = values[i]
    n, m = a1.shape
    order = np.argsort(-a1.var(axis=1), kind="stable")
    step = max(1, _BLOCK_ENTRIES // (n * n * m * m))
    ident = np.arange(n)
    out = []
    for lo in range(i + 1, len(values), step):
        rest = values[lo : lo + step]
        lbs = demand[lo - i - 1 : lo - i - 1 + len(rest)]
        tensor = np.abs(a1[None, :, None, :, None] - rest[:, None, :, None, :])
        best = _matched_l1(
            tensor, np.arange(len(rest)), ident, np.tile(ident, (len(rest), 1)),
            _assign(tensor[:, ident, ident].sum(axis=1)),
        )
        _settle(tensor, order, [k for k in range(len(rest)) if best[k] > lbs[k]], best, lbs)
        out += best
    return out


def check_threads(threads: int) -> None:
    """Worker counts below 1 are refused, by every entry that takes one."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


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
    return _rows(np.array([u1.values, u2.values]), "demand", (0, 1))[0][0]


def valuation_distance(
    u1: UtilityMatrix, u2: UtilityMatrix, cap: int = EXACT_SEARCH_CAP
) -> float:
    """Exact min over all agent and good relabelings of the entrywise l1
    difference. Exponential in n; refuses n > cap."""
    _check_matrices((u1, u2), "valuation", cap)
    return _rows(np.array([u1.values, u2.values]), "valuation", (0, 1))[0][0]


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


def _rows(values: np.ndarray, metric: str, span: tuple[int, int]) -> list[list[float]]:
    """Distances from each instance i in ``range(*span)`` to every later
    instance of the stacked (k, n, m) ``values``. A demand row is also the
    valuation search's root bounds. Callers check shapes and the cap with
    ``_check_matrices``."""
    vectors = _demand_stack(values)
    rows = [_demand_row(vectors, i) for i in range(*span)]
    if metric == "demand":
        return rows
    return [_valuation_row(values, i, row) for i, row in zip(range(*span), rows)]


def _spans(k: int, count: int) -> list[tuple[int, int]]:
    """At most ``count`` contiguous, nonempty row ranges (lo, hi) that cover
    rows 0..k-2 in order, with about equal pair counts (row i has k-1-i)."""
    done = np.cumsum(np.arange(k - 1, 0, -1))
    cuts = np.searchsorted(done, done[-1] * np.arange(1, count) / count) + 1
    edges = np.unique(np.r_[0, cuts, k - 1]).tolist()
    return list(zip(edges[:-1], edges[1:]))


def pairwise_distances(
    records, metric: str, threads: int = 1, cap: int = EXACT_SEARCH_CAP
) -> DistanceMatrix:
    """All-pairs distance matrix over a dataset (instances must share n, m).

    With threads > 1 a process pool computes the rows in about four spans
    per worker, each span a contiguous range of rows with about equal pair
    counts, since every pair costs about the same at a given shape. Rows are
    assembled in order, so the result is identical for any thread count.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    check_threads(threads)
    if not records:
        raise ValidationError("need at least one instance, got none")
    matrices = [rec.matrix for rec in records]
    _check_matrices(matrices, metric, cap)
    values = np.array([u.values for u in matrices])
    k = len(records)
    if threads > 1 and k > 2:
        # the pool has k - 1 rows to hand out, and it starts every worker at once
        workers = min(threads, k - 1)
        # forked workers inherit the solver instead of each importing SciPy
        import scipy.optimize  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = pool.map(partial(_rows, values, metric), _spans(k, 4 * workers))
            rows = [row for block in blocks for row in block]
    else:
        rows = _rows(values, metric, (0, k - 1))
    dist = np.zeros((k, k))
    for i, row in enumerate(rows):
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return DistanceMatrix(labels=[rec.label for rec in records], values=dist, metric=metric)
