"""Instance distances: min-cost matchings over agents and goods.

Two instances are compared entrywise (l1) after optimally relabeling agents
and goods. The full valuation distance minimizes over both labelings and is
exact but exponential in n: a leaf pass bounds all n! agent matchings by the
reduced costs of their goods assignment problems, matches the goods of only
those the bound cannot rule out by one assignment each, and keeps each leaf
that can decide its pair with the pair and the agent matching. The identity
matching, each pair's first incumbent, is bounded the same way and solved
only where it can decide the pair. Where leaves of distinct value lie within
the demand bound, the pair takes the one a depth-first branch-and-bound walk
would reach first, an order priced from the two instances' rows. The demand
distance compares the multiset of sorted demand columns and needs one
polynomial matching; it never exceeds the valuation distance, which makes it
both a cheap stand-in at scale and the search's stopping bound.

The pairs i < j of a matrix are numbered once, in row order, as
``np.triu_indices`` gives them, and every cut of the work is a slice of that
order: the pool's slices, and the groups, which may hold pairs of several
rows. A group is one unit of work: one demand broadcast, one goods-cost
tensor for the valuation search and one batch of canonical sums; only the
leaf pass cuts it further, into chunks of whole pairs. Demand vectors are
agent-major, so each demand group prices its goods in one temporary of
contiguous (m, m) slabs, one per pair and agent rank, made absolute and
summed in place in NumPy's pairwise order, since a second one of that size
made glibc trim and re-fault the heap. The valuation search gathers leaf
costs and matched terms by flat takes from its group tensor.
"""

from __future__ import annotations

import itertools
import math
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
# order-free and monotone in the true cost. The canonical sums are taken per
# group of pairs, by one call of ``_fsum_rows``, which returns math.fsum's
# bits for a whole array of rows.


class ExactSearchCapExceeded(CapError):
    def __init__(self, n: int, cap: int):
        self.n, self.cap = n, cap
        super().__init__(
            f"exact valuation search is exponential in n; n={n} exceeds cap {cap}"
        )


# Below this many terms in all, one math.fsum per row costs less than the
# fixed number of array passes of the certificate in ``_fsum_rows``: the
# measured crossover is about 110 rows of 18 terms, 75 rows of 25, and
# under 16 rows of 200.
_KERNEL_ENTRIES = 2048


def _two_sum(a, b):
    """a + b rounded, and its exact rounding error (Knuth's TwoSum):
    (a - (s - z)) + (b - z), with z = s - a, in place."""
    s = a + b
    z = s - a
    e = s - z
    np.subtract(a, e, out=e)
    np.subtract(b, z, out=z)
    e += z
    return s, e


def _cascade(x):
    """The float sum of the rows of x, added pairwise by TwoSum down to one
    row, and the rounding errors of those additions, stacked: the sum plus
    the errors is exactly the sum of the rows."""
    errors, done = np.empty((len(x) - 1, x.shape[1])), 0
    while len(x) > 1:
        h = len(x) // 2
        s, errors[done : done + h] = _two_sum(x[:h], x[h : 2 * h])
        done += h
        x = np.concatenate([s, x[2 * h :]]) if len(x) % 2 else s
    return x[0], errors


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """``[math.fsum(row) for row in terms]`` of an (L, N) float64 array, bit
    for bit.

    The rows' terms are summed by a cascade of TwoSums, and their errors by
    a second one, so each row's exact sum is hi + lo + sum(f), where f are
    the second cascade's errors (Ogita, Rump and Oishi, *Accurate Sum and
    Dot Product*, 2005). Let r be hi + lo rounded and d its rounding error.
    r is the correctly rounded sum, which fsum returns (Shewchuk 1997),
    where every f is zero, since IEEE addition rounds the exact hi + lo
    with ties to even as fsum does, or where |d| + 2 tail lies below half
    the smaller gap between r and its neighbours, tail being the float sum
    of |f|, which is within a factor 2 of the exact one. Terms may have
    either sign. Every other row, every zero sum (whose sign is fsum's to
    choose), rows of fewer than two terms and batches of fewer than
    ``_KERNEL_ENTRIES`` terms go to math.fsum.
    """
    if terms.size < _KERNEL_ENTRIES or terms.shape[1] < 2:
        return np.array([math.fsum(row) for row in terms.tolist()])
    hi, e = _cascade(np.ascontiguousarray(terms.T))
    lo, f = _cascade(e)
    tail = np.abs(f, out=f).sum(axis=0)
    r, d = _two_sum(hi, lo)
    size = np.abs(r)
    gap = size - np.nextafter(size, 0.0)
    certain = (r != 0.0) & ((tail == 0.0) | (2.0 * (np.abs(d) + 2.0 * tail) < gap))
    rest = np.flatnonzero(~certain)
    r[rest] = [math.fsum(row) for row in terms[rest].tolist()]
    return r


def _demand_stack(values: np.ndarray) -> np.ndarray:
    """(k, n, m) C-contiguous demand vectors of the stacked (k, n, m) values
    of k instances, agent-major: entry [i, s, g] is the s-th largest value
    of good g in instance i. One call sorts them all."""
    vectors = np.sort(values, axis=1)
    return vectors[:, ::-1].copy()


def _agent_sum(slabs: np.ndarray) -> np.ndarray:
    """The sum over axis 1 of the nonnegative (P, n, m, m) ``slabs``, added
    in place into the first slab, which is returned. The slabs are added in
    the order NumPy's pairwise summation adds a contiguous last axis of
    length n, so each (m, m) sum has the bits of ``.sum(axis=-1)`` over a
    goods-major copy: in sequence below 8 terms, in 8 lanes and then a fixed
    tree up to 128, and in two halves, the first a multiple of 8 long, above
    128 (Higham, *The accuracy of floating point summation*, 1993)."""
    n = slabs.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _agent_sum(slabs[:, :half])
        out += _agent_sum(slabs[:, half:])
        return out
    out, rest = slabs[:, 0], 1
    if n >= 8:
        lanes, rest = slabs[:, :8], n - n % 8
        for s in range(8, rest, 8):
            lanes += slabs[:, s : s + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), into r0
        for gap in (1, 2, 4):
            lanes[:, :: 2 * gap] += lanes[:, gap :: 2 * gap]
    for s in range(rest, n):
        out += slabs[:, s]
    return out


def _demand_pairs(vectors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Demand distances of the pairs (a[p], b[p]), given the stacked (k, n,
    m) demand vectors. One broadcast prices every pair's goods: n contiguous
    (m, m) slabs per pair, one per agent rank, which ``_agent_sum`` adds in
    place in the order a sum over a contiguous length-n axis takes, so each
    pair's assignment sees the bits of a single goods-major (m, m) cost. The
    canonical sums are one ``_fsum_rows`` call."""
    d1, d2 = vectors.take(a, axis=0), vectors.take(b, axis=0)
    # one temporary, absolute in place: a second made glibc trim and re-fault the heap
    slabs = d1[:, :, :, None] - d2[:, :, None, :]
    cols = _assign(_agent_sum(np.abs(slabs, out=slabs)))
    del slabs  # freed before the canonical sums' temporaries are made
    matched = np.take_along_axis(d2, cols[:, None, :], axis=2)
    return _fsum_rows(np.abs(d1 - matched).reshape(len(d1), -1))


# Slack for pruning, for the leaf pass's reduced-cost bounds and for its
# candidates. Relaxations, bounds and leaf totals are plain float sums and
# can land a few ulps off the canonical leaf values; pruning strictly at the
# incumbent could then discard a leaf that canonically ties or beats it.
# Values here are at most 2n, so a few ulps is well under 1e-12.
_PRUNE_SLACK = 1e-12

# The leaf pass builds its leaves' goods costs in chunks of whole pairs, of
# at most this many float64 entries (or one pair).
_LEAF_ENTRIES = 1 << 16

# Pairs go in groups of at most this many l1 terms in all (or one pair). A
# group's canonical sums, with its leaves', and the temporaries of
# ``_fsum_rows`` are a few times this many float64 entries; its valuation
# goods-cost tensor is n m times this many.
_GROUP_TERMS = 1 << 14


def _assign(costs) -> np.ndarray:
    """The goods column of each row in one min-cost assignment per (m, m)
    cost of ``costs``."""
    # deferred so that importing allocmap never loads SciPy
    from scipy.optimize import linear_sum_assignment

    cols = np.empty(costs.shape[:2], dtype=np.intp)
    for t, cost in enumerate(costs):
        cols[t] = linear_sum_assignment(cost)[1]
    return cols


def _matched_terms(tensor, cells, cols) -> np.ndarray:
    """The l1 terms of N matchings, one row each, in one flat take from the
    group tensor. Matching t takes, at each step s, the (m, m) agent-to-agent
    slab ``cells[t, s]`` of the tensor's (pairs x agents x agents) slabs in
    C order, and matches good g to good ``cols[t, g]`` in each."""
    m = cols.shape[-1]
    terms = tensor.take((cells[:, :, None] * m + np.arange(m)) * m + cols[:, None])
    return terms.reshape(len(cols), cells.shape[1] * m)


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


def _settle(tensor, orders, live, bounds, perms):
    """Leaf pass over the group pairs ``live``, whose identity values lie
    above their demand ``bounds``: bound all n! agent matchings ``perms`` of
    each, solve those the bound cannot rule out, and return the leaves whose
    canonical values can decide what a branch-and-bound walk returns, as
    three arrays with one row per leaf: its group pair, its agent matching
    (a row of ``perms``) and its l1 terms. They are empty if ``live`` is. A
    fourth array holds each group pair's least leaf total, infinite for
    pairs not in ``live``.

    The walk of group pair p matches agent ``orders[p, s]`` of its first
    instance at step s, prices a node by the goods-assignment relaxation of
    its costs summed from zero in matching order, visits children in
    increasing relaxation, skips a child whose relaxation is at least the
    incumbent plus ``_PRUNE_SLACK`` and stops at the first incumbent within
    the demand bound.

    A leaf's goods costs are summed the same way, so the solver matches its
    goods as the walk would: each step's (m, m) slab of the tensor is one
    flat take, and the first starts the sum. Leaves go in chunks of whole
    pairs. Each chunk first solves the leaf of least reduced-cost bound of
    each of its pairs (the first of equal bounds), which sets the pair's
    least total, then every other leaf whose bound is within
    ``_PRUNE_SLACK`` of the pair's demand bound or least total. Only leaves
    whose plain total is within the same slack are returned, their l1 terms
    taken by ``_matched_terms``. A leaf's bound lies at most a few ulps
    above its total, and its total within a few ulps of its canonical value,
    so a leaf left out either way can neither be the least leaf nor lie
    within the demand bound.

    A leaf never falls below an ancestor's relaxation by more than a few
    ulps, so no leaf the walk skips could lower the minimum or stop the
    walk. With no leaf within the bound the walk returns the least leaf or
    the identity incumbent; with leaves within it the walk stops at the
    first it reaches, the least by ``_walk_key`` where their values differ.
    """
    n, m, f = orders.shape[1], tensor.shape[-1], len(perms)
    least = np.full(len(bounds), np.inf)
    goods, step = np.arange(m), max(1, _LEAF_ENTRIES // (m * m * f))
    slabs = tensor.reshape(-1, m, m)
    kept = [(live[:0], perms[:0], np.empty((0, n * m)))]
    for lo in range(0, len(live), step):
        chunk = live[lo : lo + step]
        pairs, paths = chunk.repeat(f), np.tile(perms, (len(chunk), 1))
        cells = (pairs[:, None] * n + orders[pairs]) * n + paths  # each step's slab
        costs = slabs.take(cells[:, 0], axis=0)
        for s in range(1, n):
            costs += slabs.take(cells[:, s], axis=0)
        lower = _reduced_bound(costs)
        cols = np.zeros((len(pairs), m), dtype=np.intp)
        totals = np.full(len(pairs), np.inf)  # until the leaf is solved

        def solve(idx):
            cols[idx] = _assign(costs[idx])
            totals[idx] = costs[idx[:, None], goods, cols[idx]].sum(axis=-1)
            least[chunk] = totals.reshape(-1, f).min(axis=1)

        # each pair's least-bound leaf, the first of equal bounds, sets its least total
        solve(lower.reshape(-1, f).argmin(axis=1) + np.arange(0, len(pairs), f))
        solve(np.flatnonzero((totals == np.inf) & (lower <= np.maximum(bounds, least)[pairs] + _PRUNE_SLACK)))
        keep = totals <= np.maximum(bounds, least)[pairs] + _PRUNE_SLACK
        kept.append((pairs[keep], paths[keep], _matched_terms(tensor, cells[keep], cols[keep])))
    return [np.concatenate(leaves) for leaves in zip(*kept)] + [least]


def _walk_key(first, second, order, path) -> list:
    """Where the leaf ``path`` of the pair of instance rows ``first`` and
    ``second`` comes in the walk of ``_settle``: that walk reaches leaves in
    increasing order of [t_1, a_1, ..., t_{n-1}, a_{n-1}], where a_s is the
    partner agent matched at step s and t_s the relaxation of the first s
    steps, since ties between siblings go to the lower partner agent. Each
    step's goods costs are the pair's tensor entries, taken from the rows."""
    m = first.shape[-1]
    cost, key = np.zeros((m, m)), []
    for s, a in enumerate(path[:-1]):
        cost = cost + np.abs(first[order[s], :, None] - second[a, None, :])
        key += [cost[np.arange(m), _assign(cost[None])[0]].sum(), a]
    return key


def _orders(values):
    """The order in which the walk matches the agents of each instance of
    the stacked ``values``: by decreasing variance of their values."""
    return np.argsort(-values.var(axis=2), axis=1, kind="stable")


def _valuation_pairs(values: np.ndarray, a: np.ndarray, b: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Valuation distances of the group of pairs (a[p], b[p]) of the stacked
    (k, n, m) ``values``, with their demand distances as root bounds.

    One broadcast builds the group's agent-to-agent goods-cost tensor; the
    identity matchings (costs summed in agent order) give every pair's first
    incumbent. A pair whose identity's reduced-cost bound lies more than
    2 ``_PRUNE_SLACK`` above its demand bound is open without a solve: the
    bound is at most a few ulps above the identity's plain total. Every
    other pair solves its identity, and is open if the plain total lies
    above its bound by more than ``_PRUNE_SLACK``, settled if it lies below
    it by more, and decided at once by its canonical value in between.
    ``_settle`` picks the leaves of the open pairs that can decide them,
    each pair walking the agents of its first instance in the order
    ``_orders`` gives, and returns each with its pair and agent matching,
    and each pair's least leaf total. An open pair's unsolved identity is
    solved then only if its bound lies within 2 ``_PRUNE_SLACK`` of that
    total; otherwise its value lies more than the slack above the least
    kept leaf, so it can neither be the least value nor lie within the
    bound. The group's leaf and identity rows, each with its pair, go to
    one ``_fsum_rows`` call, and each pair takes the least of its values,
    unless leaves of distinct values lie within its bound: then it takes
    the first of them in walk order, keyed from the pair's instance rows.
    """
    n, m = values.shape[1:]
    ident, perms = np.arange(n), np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    first, second = values.take(a, axis=0), values.take(b, axis=0)
    orders = _orders(first)
    # entry [p, x, y, g, h] is |first[p, x, g] - second[p, y, h]|, made absolute in place
    tensor = first[:, :, None, :, None] - second[:, None, :, None, :]
    tensor = np.abs(tensor, out=tensor)
    costs = tensor[:, ident, ident].sum(axis=1)
    lower = _reduced_bound(costs)
    idents = []  # (pairs, l1 terms) of the solved identity matchings

    def identity(pairs):
        cells = pairs[:, None] * n * n + ident * (n + 1)  # slab [p, s, s] at step s
        terms = _matched_terms(tensor, cells, _assign(costs[pairs]))
        idents.append((pairs, terms))
        return terms

    early = lower <= demand + 2 * _PRUNE_SLACK  # the rest are open without a solve
    solved = np.flatnonzero(early)
    terms = identity(solved)
    over = terms.sum(axis=1) - demand[solved]
    band = np.abs(over) <= _PRUNE_SLACK
    live = ~early
    live[solved] = over > _PRUNE_SLACK
    live[solved[band]] = _fsum_rows(terms[band]) > demand[solved[band]]
    owner, paths, terms, least = _settle(tensor, orders, np.flatnonzero(live), demand, perms)
    # an open identity far above the least kept leaf can decide nothing
    identity(np.flatnonzero(~early & (lower <= least + 2 * _PRUNE_SLACK)))
    rows, terms = (np.concatenate(part) for part in zip((owner, terms), *idents))
    sums = _fsum_rows(terms)
    best = np.full(len(a), np.inf)
    np.minimum.at(best, rows, sums)
    # an open pair's identity value lies above its bound, and a settled pair
    # has no leaves, so only leaves can lie within a bound beside another,
    # and only leaves of distinct values there need the walk order
    found = sums[: len(owner)]
    within = np.flatnonzero(found <= demand[owner])
    low, high = np.full(len(best), np.inf), np.full(len(best), -np.inf)
    np.minimum.at(low, owner[within], found[within])
    np.maximum.at(high, owner[within], found[within])
    for p in np.flatnonzero(low < high).tolist():
        cands = within[owner[within] == p].tolist()
        best[p] = found[min(cands, key=lambda c: _walk_key(first[p], second[p], orders[p], paths[c]))]
    return best


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
    return _pairs(np.array([u1.values, u2.values]), "demand", np.zeros(1, np.intp), np.ones(1, np.intp)).item()


def valuation_distance(
    u1: UtilityMatrix, u2: UtilityMatrix, cap: int = EXACT_SEARCH_CAP
) -> float:
    """Exact min over all agent and good relabelings of the entrywise l1
    difference. Exponential in n; refuses n > cap."""
    _check_matrices((u1, u2), "valuation", cap)
    return _pairs(np.array([u1.values, u2.values]), "valuation", np.zeros(1, np.intp), np.ones(1, np.intp)).item()


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


def _pairs(values: np.ndarray, metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances of the pairs (a[p], b[p]) of the stacked (k, n, m)
    ``values``, in order. Pairs go in groups of consecutive pairs; a group's
    demand distances are also its valuation search's root bounds. Callers
    check shapes and the cap with ``_check_matrices``."""
    n, m = values.shape[1:]
    vectors = _demand_stack(values)
    out = np.empty(len(a))
    step = max(1, _GROUP_TERMS // (n * m))
    for lo in range(0, len(a), step):
        group = slice(lo, lo + step)
        sums = _demand_pairs(vectors, a[group], b[group])
        if metric == "valuation":
            sums = _valuation_pairs(values, a[group], b[group], sums)
        out[group] = sums
    return out


def pairwise_distances(
    records, metric: str, threads: int = 1, cap: int = EXACT_SEARCH_CAP
) -> DistanceMatrix:
    """All-pairs distance matrix over a dataset (instances must share n, m).

    The pairs i < j are numbered once, in row order. With threads > 1 a
    process pool computes them in about four slices of that order per
    worker, of near-equal length, since every pair costs about the same at
    a given shape. The slices are assembled in order, so the result is
    identical for any thread count.
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
    a, b = np.triu_indices(k, 1)
    if threads > 1 and k > 2:
        # the pool starts every worker at once, so small matrices get fewer
        workers = min(threads, k - 1)
        # forked workers inherit the solver instead of each importing SciPy
        import scipy.optimize  # noqa: F401
        # serial runs never load the process-pool stack, only pooled ones
        from concurrent.futures import ProcessPoolExecutor

        slices = [(x, y) for x, y in zip(np.array_split(a, 4 * workers), np.array_split(b, 4 * workers)) if x.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = np.concatenate(list(pool.map(partial(_pairs, values, metric), *zip(*slices))))
    else:
        flat = _pairs(values, metric, a, b)
    dist = np.zeros((k, k))
    dist[a, b] = dist[b, a] = flat
    return DistanceMatrix(labels=[rec.label for rec in records], values=dist, metric=metric)
