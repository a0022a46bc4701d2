"""Ground truths shared by the test modules.

The enumerations are coded from scratch in plain Python and share only the
arithmetic-order conventions with the library: fsum over elementary terms
for distances, and bundles accumulated good by good with agent aggregates
in ascending index order for allocation features. That makes exact-equality
checks against the library meaningful rather than circular. Two oracles
are former library code kept as byte oracles: ``oracle_search``, the
per-pair valuation search, which pins the bytes of the batched search, and
``oracle_smacof``, the textbook allocating SMACOF loop, which pins the bytes
of the buffered one.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from allocmap.core import InstanceRecord, ShapeMismatch, Source


def record(label, u):
    return InstanceRecord(label, Source("test", {}), None, u)


def oracle_valuation(u1, u2):
    """Minimum entrywise L1 over every agent and good relabeling."""
    a1, a2 = u1.values, u2.values
    n, m = a1.shape
    best = math.inf
    for ap in itertools.permutations(range(n)):
        b = a2[list(ap)]
        for gp in itertools.permutations(range(m)):
            tot = math.fsum(np.abs(a1 - b[:, list(gp)]).ravel().tolist())
            if tot < best:
                best = tot
    return best


def oracle_fixed_agents(u1, u2, agent_perm):
    """Minimum entrywise L1 over every good relabeling, with agent i of u1
    matched to agent agent_perm[i] of u2."""
    a1, b = u1.values, u2.values[list(agent_perm)]
    return min(
        math.fsum(np.abs(a1 - b[:, list(gp)]).ravel().tolist())
        for gp in itertools.permutations(range(a1.shape[1]))
    )


# The exact search as it stood before its nodes were priced in batches, kept
# verbatim as the byte oracle of the batched search: the same variance order,
# relaxation-sorted children, pruning slack and stop at the first incumbent
# within the demand bound. It is not the enumerated minimum: on a few pairs it
# stops 1 ulp above it.

_PRUNE_SLACK = 1e-12


def _assignment_total(cost):
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _goods_matched_l1(a1, b2, cost):
    _, cols = linear_sum_assignment(cost)
    return math.fsum(np.abs(a1 - b2[:, cols]).ravel().tolist())


def oracle_search(u1, u2, root_lb):
    """Branch-and-bound valuation distance of u1 and u2, one pair at a time,
    stopping once the incumbent is <= root_lb."""
    a1, a2 = u1.values, u2.values
    n, m = a1.shape
    tensor = np.abs(a1[:, None, :, None] - a2[None, :, None, :])
    order = np.argsort(-a1.var(axis=1), kind="stable")

    ident = np.arange(n)
    best = _goods_matched_l1(a1, a2, tensor[ident, ident].sum(axis=0))
    used = np.zeros(n, dtype=bool)
    assign = np.full(n, -1, dtype=np.intp)

    def rec(cost, depth):
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


def oracle_demand(u1, u2):
    """Minimum entrywise L1 between sorted demand profiles over good matchings."""
    d1 = np.sort(u1.values, axis=0)[::-1].T
    d2 = np.sort(u2.values, axis=0)[::-1].T
    best = math.inf
    for gp in itertools.permutations(range(d1.shape[0])):
        tot = math.fsum(np.abs(d1 - d2[list(gp)]).ravel().tolist())
        if tot < best:
            best = tot
    return best


def oracle_features(u):
    """Full allocation enumeration in plain Python; ascending-index sums."""
    arr = [[float(v) for v in row] for row in u.values]
    n = len(arr)
    m = len(arr[0])
    profiles = []
    max_envies = []
    egal = []
    sme = []
    worst_bundles = []
    for owner in itertools.product(range(n), repeat=m):
        b = [[0.0] * n for _ in range(n)]
        for j in range(m):
            o = owner[j]
            for i in range(n):
                b[i][o] += arr[i][j]
        own = [b[i][i] for i in range(n)]
        per_agent = []
        for i in range(n):
            e = -math.inf
            for k in range(n):
                if k != i:
                    e = max(e, b[i][k] - b[i][i])
            per_agent.append(e)
        s = per_agent[0]
        for i in range(1, n):
            s += per_agent[i]
        profiles.append(own)
        max_envies.append(max(per_agent))
        egal.append(min(own))
        sme.append(s)
        worst_bundles.append([min(b[i]) for i in range(n)])

    out = {}
    out["minimax_envy"] = min(max_envies)
    out["ef_exists"] = out["minimax_envy"] <= 1e-9
    nash = []
    for own in profiles:
        p = own[0]
        for i in range(1, n):
            p *= own[i]
        nash.append(p)
    out["max_nash"] = max(nash)
    out["prop_fraction"] = n * max(egal)
    out["sum_max_envies"] = min(sme)
    out["max_util"] = max(sum(own) for own in profiles)

    shares = [max(w[i] for w in worst_bundles) for i in range(n)]
    out["mms_shares"] = shares
    out["mms_ok"] = any(
        all(own[i] >= shares[i] - 1e-9 for i in range(n)) for own in profiles
    )

    # Dominance by comparisons alone, so the array form is exact; only
    # envy-free allocations are candidates.
    table = np.array(profiles)

    def dominated(a):
        va = table[a]
        return bool(np.any((table >= va).all(axis=1) & (table > va + 1e-9).any(axis=1)))

    out["efpo_exists"] = any(
        not dominated(a) for a, e in enumerate(max_envies) if e <= 1e-9
    )
    return out


def stress(dist, points) -> float:
    """Raw stress sum_{i<j} (d_ij - |x_i - x_j|)^2 of a configuration against
    target distances."""
    d = np.asarray(dist, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != d.shape[0]:
        raise ShapeMismatch(d.shape, x.shape)
    diff = x[:, None, :] - x[None, :, :]
    e = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(d.shape[0], k=1)
    res = d[iu] - e[iu]
    return float((res * res).sum())


def oracle_smacof(d, seed, iterations):
    """``iterations`` Guttman transforms from the library's seeded uniform
    start, every array freshly allocated and stress() recomputing every
    distance. Returns the stress trace and the final, uncanonicalized
    points."""
    k = d.shape[0]
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, 2))
    trace = [stress(d, x)]
    for _ in range(iterations):
        diff = x[:, None, :] - x[None, :, :]
        e = np.sqrt((diff * diff).sum(axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(e > 0, d / np.where(e > 0, e, 1.0), 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / k
        trace.append(stress(d, x))
    return np.array(trace), x
