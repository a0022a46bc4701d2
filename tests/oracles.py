"""Ground truths shared by the test modules.

The enumerations are coded from scratch in plain Python and share only the
arithmetic-order conventions with the library: fsum over elementary terms
for distances, and bundles accumulated good by good with agent aggregates
in ascending index order for allocation features. That makes exact-equality
checks against the library meaningful rather than circular. Four oracles
are former library code kept as byte oracles: ``oracle_search``, the
per-pair valuation search, which pins the bytes of the leaf pass;
``oracle_smacof``, the textbook allocating SMACOF loop, which pins the bytes
of the buffered one; ``oracle_jacobi``, the one-matrix-at-a-time Jacobi
eigensolver, which pins the bytes of the stacked one (with the singular
values and the Dirichlet sample built on it); and ``oracle_demand_costs``,
the goods-major demand cost sum, which pins the summation order of the
agent-major one. So are the per-instance matrix features in
``MATRIX_FUNCTIONS``, which pin the bytes of
``feature_table``'s columns computed for all instances of a shape at once.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from allocmap.core import InstanceRecord, ShapeMismatch, Source, UtilityMatrix
from allocmap.features import SINGLE_MINDED_TOL
from allocmap.spectral import JACOBI_OFF_TOL


def record(label, u):
    return InstanceRecord(label, Source("test", {}), None, u)


def relabel(u, agents, goods):
    """The instance u with its agents and goods reordered by two permutations."""
    return UtilityMatrix(u.values[np.ix_(agents, goods)])


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
# verbatim as the byte oracle of the leaf pass: the same variance
# order, relaxation-sorted children, pruning slack and stop at the first
# incumbent within the demand bound. It is not the enumerated minimum: on a few pairs it
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


# The Jacobi eigensolver as it stood before it rotated stacks of matrices,
# kept verbatim, with one addition: the overflow of tau * tau on a tiny
# a[p, q] is silenced, as in the library, since t is then the correct zero.


def oracle_jacobi(sym, off_tol=JACOBI_OFF_TOL, max_sweeps=60):
    """Eigenvalues of one symmetric matrix, descending, one Givens rotation
    at a time through NumPy scalar operations."""
    a = np.array(sym, dtype=np.float64)
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != k:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if np.sqrt((off * off).sum()) < off_tol:
            return np.sort(np.diag(a))[::-1].copy()
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                with np.errstate(over="ignore", divide="ignore"):
                    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    raise RuntimeError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")


def oracle_singular_values(arr):
    """Singular values of one array, descending: its Gram matrix through
    ``oracle_jacobi``, clamped at 64 eps times the top eigenvalue."""
    gram = arr @ arr.T if arr.shape[0] <= arr.shape[1] else arr.T @ arr
    eig = oracle_jacobi(gram)
    tiny = 64.0 * np.finfo(np.float64).eps * max(float(eig[0]), 1.0)
    return np.sqrt(np.where(eig > tiny, eig, 0.0))


def oracle_explicit_coords(records):
    """(sigma1, sigma2) of each record, one record at a time."""
    out = np.empty((len(records), 2))
    for idx, rec in enumerate(records):
        sv = oracle_singular_values(rec.matrix.values)
        out[idx, 0] = float(sv[0])
        out[idx, 1] = float(sv[1])
    return out


def oracle_dirichlet(n, m, count, seed):
    """(mean sigma1^2, its standard error, max sigma2) of ``count`` flat
    Dirichlet rows copied to all n agents, one row drawn at a time."""
    rng = np.random.default_rng(seed)
    s1sq = np.empty(count)
    max_s2 = 0.0
    for idx in range(count):
        row = rng.exponential(1.0, m)
        row /= row.sum()
        sv = oracle_singular_values(np.tile(row, (n, 1)))
        s1, s2 = float(sv[0]), float(sv[1])
        s1sq[idx] = s1 * s1
        max_s2 = max(max_s2, s2)
    return float(s1sq.mean()), float(s1sq.std(ddof=1) / np.sqrt(count)), float(max_s2)


def gini(x) -> float:
    """Mean absolute difference over twice the mean, 0 for an all-zero vector."""
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("gini of an empty vector")
    if v.min() < 0:
        raise ValueError("gini needs nonnegative entries")
    mean = v.mean()
    if mean == 0.0:
        return 0.0
    diff = np.abs(v[:, None] - v[None, :]).sum()
    return float(diff / (2.0 * v.size**2 * mean))


def max_demand(matrix) -> float:
    return float(matrix.values.sum(axis=0).max())


def preference_diversity(matrix) -> float:
    """Mean pairwise euclidean distance between utility rows."""
    arr = matrix.values
    n = arr.shape[0]
    diff = arr[:, None, :] - arr[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


def demand_gini(matrix) -> float:
    return gini(matrix.values.sum(axis=0))


def pickiness(matrix) -> float:
    """Mean Gini coefficient of the individual utility rows."""
    return float(np.mean([gini(row) for row in matrix.values]))


def frac_single_minded(matrix) -> float:
    positive = (matrix.values > SINGLE_MINDED_TOL).sum(axis=1)
    return float((positive == 1).mean())


MATRIX_FUNCTIONS = {
    "max_demand": max_demand,
    "preference_diversity": preference_diversity,
    "demand_gini": demand_gini,
    "pickiness": pickiness,
    "frac_single_minded": frac_single_minded,
}


def oracle_demand_costs(d1, d2):
    """Goods costs of the pairs of agent-major (P, n, m) demand vectors
    ``d1`` and ``d2``, by the former library formula: the vectors are made
    goods-major and contiguous, and each cost is one ``sum`` over a
    contiguous length-n axis, so NumPy adds it in its pairwise order."""
    g1, g2 = (np.ascontiguousarray(d.transpose(0, 2, 1)) for d in (d1, d2))
    return np.abs(g1[:, :, None, :] - g2[:, None, :, :]).sum(axis=3)
