"""Fairness features of an instance, by exhaustive allocation search.

Every complete allocation of m goods to n agents is one of n^m owner
vectors; one search walks them in counter order (good m-1 varies fastest)
in vectorized chunks and computes every requested feature. Accumulation is
in ascending good and agent order throughout, so a plain-loop
reimplementation reproduces values bit for bit. All of these are
exponential and guarded by an explicit cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import CapError, UtilityMatrix, ValidationError

ALLOC_CAP = 20_000_000
EFPO_QUAD_CAP = 10_000
EF_TOL = 1e-9
MMS_TOL = 1e-9
PO_STRICT_TOL = 1e-9
SINGLE_MINDED_TOL = 1e-9
# A chunk's (n, n, C) bundle block holds at most this many entries: 128 KiB
# of float64, under glibc's default mmap threshold, so the blocks come from
# reused heap memory. On a 2-core x86 VM, 4x larger blocks made the features
# of the 5x5 preset 1.6x slower, mostly in page faults on fresh mappings.
_CHUNK_ENTRIES = 16_384

ALLOCATION_FEATURES = (
    "minimax_envy",
    "ef_exists",
    "max_nash",
    "max_util",
    "prop_fraction",
    "sum_max_envies",
    "mms_ok",
    "efpo_exists",
)
MATRIX_FEATURES = (
    "max_demand",
    "preference_diversity",
    "demand_gini",
    "pickiness",
    "frac_single_minded",
)
ALL_FEATURES = ALLOCATION_FEATURES + MATRIX_FEATURES
_ENGINE_FEATURES = ALLOCATION_FEATURES + ("mms_shares",)


class CapExceeded(CapError):
    def __init__(self, n: int, m: int, cap: int):
        self.n, self.m, self.cap = n, m, cap
        super().__init__(f"n^m = {n}^{m} allocations exceed the cap {cap}")


class UnknownFeature(ValidationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown feature {name!r}")


def _bundle_chunks(arr: np.ndarray) -> Iterator[np.ndarray]:
    """(n, n, C) stacks of bundle matrices over every owner vector, in
    counter order: B[i, k, c] is the value agent i puts on agent k's bundle
    in allocation c.

    A chunk fixes the owners of the leading goods and expands the trailing
    ones a good at a time: each allocation is repeated n times and good j is
    added to owner k's column of the k-th copy. Entries thus accumulate from
    zero in ascending good order.
    """
    n, m = arr.shape
    trailing = m
    while trailing > 1 and n ** (trailing + 2) > _CHUNK_ENTRIES:
        trailing -= 1
    lead = m - trailing
    for prefix in itertools.product(range(n), repeat=lead):
        b = np.zeros((n, n, 1))
        for j, k in enumerate(prefix):
            b[:, k, 0] += arr[:, j]
        for j in range(lead, m):
            b = np.repeat(b, n, axis=2)
            for k in range(n):
                b[:, k, k::n] += arr[:, j, None]
        yield b


def _ascending(op: np.ufunc, x: np.ndarray) -> np.ndarray:
    """Fold the rows of x with op in ascending agent order."""
    acc = x[0].copy()
    for row in x[1:]:
        op(acc, row, out=acc)
    return acc


def _efpo_from(profiles: np.ndarray, worst_envy: np.ndarray) -> bool:
    """Some envy-free profile that no other profile Pareto-dominates; EF
    candidates are checked against higher-welfare profiles only."""
    ef_idx = np.nonzero(worst_envy <= EF_TOL)[0]
    if not ef_idx.size:
        return False
    sums = profiles.sum(axis=1)
    for c in ef_idx[np.argsort(-sums[ef_idx], kind="stable")]:
        v = profiles[c]
        pool = profiles[sums >= sums[c]]
        dominated = bool(
            np.any((pool >= v).all(axis=1) & (pool > v + PO_STRICT_TOL).any(axis=1))
        )
        if not dominated:
            return True
    return False


def allocation_features(
    matrix: UtilityMatrix,
    names,
    cap: int = ALLOC_CAP,
    quad_cap: int = EFPO_QUAD_CAP,
) -> dict:
    """The requested allocation features of one instance, from one walk over
    the n^m owner vectors.

    ``names`` come from ALLOCATION_FEATURES or "mms_shares". Each maps to
    its value or, when n^m is over its cap, to the CapExceeded that the cap
    raises; a capped feature leaves the others computed. ``quad_cap`` bounds
    efpo_exists, which keeps every utility profile, and ``cap`` the rest.
    max_util is closed form and never capped. mms_ok needs a second,
    early-exit pass once the shares are known.
    """
    arr = matrix.values
    n, m = arr.shape
    total = n**m
    out: dict = {}
    want = set()
    for name in names:
        if name not in _ENGINE_FEATURES:
            raise UnknownFeature(name)
        limit = quad_cap if name == "efpo_exists" else cap
        if name == "max_util":
            out[name] = max_util(matrix)
        elif total > limit:
            out[name] = CapExceeded(n, m, limit)
        else:
            want.add(name)
    if not want:
        return out

    envy = not want.isdisjoint(("minimax_envy", "ef_exists", "sum_max_envies", "efpo_exists"))
    mms = not want.isdisjoint(("mms_ok", "mms_shares"))
    keep = "efpo_exists" in want
    if keep:
        profiles = np.empty((total, n))
        worst_envy = np.empty(total)
    idx = np.arange(n)
    min_envy = min_sum = np.inf
    nash = egal = -np.inf
    shares = np.full(n, -np.inf)
    pos = 0
    for b in _bundle_chunks(arr):
        own = b[idx, idx]
        if mms:
            shares = np.maximum(shares, b.min(axis=1).max(axis=1))
        if envy:
            # Rounding of x - c is monotone in x, so the largest envy of
            # agent i is its best other bundle minus its own, bit for bit.
            # Masking in place: nothing below reads the diagonal of b.
            b[idx, idx] = -np.inf
            per_agent = b.max(axis=1) - own
            worst = per_agent.max(axis=0)
            min_envy = min(min_envy, float(worst.min()))
            if "sum_max_envies" in want:
                min_sum = min(min_sum, float(_ascending(np.add, per_agent).min()))
            if keep:
                profiles[pos : pos + own.shape[1]] = own.T
                worst_envy[pos : pos + own.shape[1]] = worst
                pos += own.shape[1]
        if "max_nash" in want:
            nash = max(nash, float(_ascending(np.multiply, own).max()))
        if "prop_fraction" in want:
            egal = max(egal, float(own.min(axis=0).max()))

    values = {
        "minimax_envy": min_envy,
        "ef_exists": min_envy <= EF_TOL,
        "max_nash": nash,
        "prop_fraction": n * egal,
        "sum_max_envies": min_sum,
        "mms_shares": shares,
    }
    if "mms_ok" in want:
        # second pass: stop at the first chunk where every agent gets its share
        floor = (shares - MMS_TOL)[:, None]
        values["mms_ok"] = any(
            bool((b[idx, idx] >= floor).all(axis=0).any()) for b in _bundle_chunks(arr)
        )
    if keep:
        values["efpo_exists"] = _efpo_from(profiles, worst_envy)
    out.update((name, values[name]) for name in want)
    return out


def _single(matrix: UtilityMatrix, name: str, cap: int = ALLOC_CAP, quad_cap: int = EFPO_QUAD_CAP):
    value = allocation_features(matrix, (name,), cap, quad_cap)[name]
    if isinstance(value, CapExceeded):
        raise value
    return value


def minimax_envy(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> float:
    """Smallest achievable maximum pairwise envy over all allocations."""
    return _single(matrix, "minimax_envy", cap)


def ef_exists(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> bool:
    return _single(matrix, "ef_exists", cap)


def max_nash(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> float:
    """Largest product of own-bundle utilities over all allocations."""
    return _single(matrix, "max_nash", cap)


def max_util(matrix: UtilityMatrix) -> float:
    """Utilitarian optimum: each good to whoever values it most (closed form)."""
    return float(matrix.values.max(axis=0).sum())


def prop_fraction(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> float:
    """n times the best egalitarian welfare: >= 1 means a proportional
    allocation exists."""
    return _single(matrix, "prop_fraction", cap)


def sum_max_envies(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> float:
    """Minimum over allocations of the sum of each agent's maximal envy."""
    return _single(matrix, "sum_max_envies", cap)


def mms_shares(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> np.ndarray:
    """Each agent's maximin share: best worst bundle over n-partitions it
    could cut itself."""
    return _single(matrix, "mms_shares", cap)


def mms_ok(matrix: UtilityMatrix, cap: int = ALLOC_CAP) -> bool:
    """True iff some allocation gives every agent its maximin share."""
    return _single(matrix, "mms_ok", cap)


def efpo_exists(matrix: UtilityMatrix, quad_cap: int = EFPO_QUAD_CAP) -> bool:
    """True iff some allocation is envy-free and not Pareto-dominated.

    Stores all n^m utility profiles and checks EF candidates against
    higher-welfare allocations only, so the quadratic phase gets its own
    (smaller) cap.
    """
    return _single(matrix, "efpo_exists", quad_cap=quad_cap)


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


def max_demand(matrix: UtilityMatrix) -> float:
    return float(matrix.values.sum(axis=0).max())


def preference_diversity(matrix: UtilityMatrix) -> float:
    """Mean pairwise euclidean distance between utility rows."""
    arr = matrix.values
    n = arr.shape[0]
    diff = arr[:, None, :] - arr[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


def demand_gini(matrix: UtilityMatrix) -> float:
    return gini(matrix.values.sum(axis=0))


def pickiness(matrix: UtilityMatrix) -> float:
    """Mean Gini coefficient of the individual utility rows."""
    return float(np.mean([gini(row) for row in matrix.values]))


def frac_single_minded(matrix: UtilityMatrix) -> float:
    positive = (matrix.values > SINGLE_MINDED_TOL).sum(axis=1)
    return float((positive == 1).mean())


_MATRIX_FUNCTIONS = {
    "max_demand": max_demand,
    "preference_diversity": preference_diversity,
    "demand_gini": demand_gini,
    "pickiness": pickiness,
    "frac_single_minded": frac_single_minded,
}


@dataclass
class FeatureTable:
    """Feature columns per labeled instance; absent cells carry a reason."""

    columns: list[str]
    labels: list[str]
    rows: list[dict]
    reasons: list[tuple[str, str, str]]


def feature_table(
    records,
    features: list[str] | None = None,
    cap: int = ALLOC_CAP,
    quad_cap: int = EFPO_QUAD_CAP,
) -> FeatureTable:
    """Compute requested features for every record; a feature that trips its
    cap is recorded as absent with the reason, never raised."""
    columns = list(features) if features is not None else list(ALL_FEATURES)
    for name in columns:
        if name not in ALL_FEATURES:
            raise UnknownFeature(name)
    alloc_names = [name for name in columns if name in ALLOCATION_FEATURES]
    rows = []
    reasons = []
    for rec in records:
        alloc = allocation_features(rec.matrix, alloc_names, cap, quad_cap)
        row: dict = {}
        for name in columns:
            value = _MATRIX_FUNCTIONS[name](rec.matrix) if name in _MATRIX_FUNCTIONS else alloc[name]
            if isinstance(value, CapError):
                reasons.append((rec.label, name, str(value)))
                value = None
            row[name] = value
        rows.append(row)
    return FeatureTable(
        columns=columns, labels=[rec.label for rec in records], rows=rows, reasons=reasons
    )
