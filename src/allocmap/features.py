"""Fairness features of an instance, by exhaustive allocation search.

Every complete allocation of m goods to n agents is one of n^m owner
vectors; one search walks them in counter order (good m-1 varies fastest)
in chunks and computes every requested feature. The subset-sum tables of a
block of chunks are filled at once, and each chunk is one gather from its
table into one reused buffer. The maximin shares settle in the first chunks,
where agent 0 owns good 0, and only mms_ok may walk all but the last of
those again.
Accumulation is in ascending good and agent order throughout, so a
plain-loop reimplementation reproduces values bit for bit. All of these are
exponential and guarded by an explicit cap. The closed-form matrix features
are computed for all instances of one shape at once.
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
# of float64, one buffer that every chunk of a walk refills. Chunks stay this
# small for their consumers: the reductions of allocation_features run over
# whole chunks. On a 2-core x86 VM a 2^17 cap, one chunk per 5x5 instance,
# made the walk of the 5x5 preset 1.16x slower and its allocation features
# 3.2x slower, in CPU time (median of 15 interleaved rounds).
_CHUNK_ENTRIES = 16_384
# The records of one shape go to _matrix_columns in blocks whose largest
# temporary, the (K, n, m, m) row differences of pickiness, holds at most
# this many entries: 512 KiB of float64. The 3x6 and 5x5 presets are one
# block each.
_MATRIX_BLOCK_ENTRIES = 65_536

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


def _trailing(n: int, m: int) -> int:
    """The goods that vary within one chunk of the walk: the most, and at
    least one, whose (n, n, n^t) bundle block fits _CHUNK_ENTRIES."""
    trailing = m
    while trailing > 1 and n ** (trailing + 2) > _CHUNK_ENTRIES:
        trailing -= 1
    return trailing


def _prefix_tables(arr: np.ndarray, owners: np.ndarray, trailing: int) -> np.ndarray:
    """(P, n, n 2^t) subset-sum tables of P owner prefixes of the leading
    goods: entry [p, i, k 2^t + s] is agent i's value of agent k's leading
    goods under owners[p] plus the subset s of the t trailing goods, summed
    from +0.0 with the leading goods first, then the trailing ones, each in
    ascending good order."""
    n, m = arr.shape
    lead = m - trailing
    tables = np.zeros((len(owners), n, n, 1 << trailing))
    rows = np.arange(len(owners))
    for j in range(lead):
        tables[rows, :, owners[:, j], 0] += arr[:, j]
    for g in range(trailing):
        half = 1 << g
        np.add(tables[..., :half], arr[:, lead + g, None, None], out=tables[..., half : 2 * half])
    return tables.reshape(len(owners), n, -1)


def _bundle_chunks(arr: np.ndarray) -> Iterator[np.ndarray]:
    """(n, n, C) stacks of bundle matrices over every owner vector, in
    counter order: B[i, k, c] is the value agent i puts on agent k's bundle
    in allocation c. Every chunk is yielded in one buffer, which the next
    chunk overwrites.

    A chunk fixes the owners of the leading goods, a prefix, and varies the
    t = _trailing(n, m) others. The prefixes go in blocks whose tables
    (_prefix_tables) hold at most one chunk's entries; each chunk is then one
    gather from its prefix's table. A bundle's value is thus the same float
    whoever owns it: its goods summed from +0.0 in ascending good order.
    """
    n, m = arr.shape
    trailing = _trailing(n, m)
    subsets = 1 << trailing
    # cells[k, c]: agent k's block of a table row plus the bitmask of the
    # trailing goods that k owns in allocation c
    cells = np.arange(n)[:, None] * subsets
    owns = np.eye(n, dtype=cells.dtype)
    for g in range(trailing):
        cells = (cells[:, :, None] + (owns << g)[:, None, :]).reshape(n, -1)
    b = np.empty((n, n, cells.shape[1]))
    prefixes = np.array(list(itertools.product(range(n), repeat=m - trailing)), dtype=np.intp)
    block = max(1, n**trailing >> trailing)
    for lo in range(0, len(prefixes), block):
        for table in _prefix_tables(arr, prefixes[lo : lo + block], trailing):
            np.take(table, cells, axis=1, out=b, mode="clip")
            yield b


def _efpo_from(profiles: np.ndarray, worst_envy: np.ndarray) -> bool:
    """Some envy-free profile (a column of the (n, n^m) profiles) that no
    other profile Pareto-dominates; EF candidates are checked against
    higher-welfare profiles only. Rounding is monotone, so a dominating
    profile never sums lower and the answer rests on comparisons alone."""
    ef_idx = np.nonzero(worst_envy <= EF_TOL)[0]
    if not ef_idx.size:
        return False
    sums = profiles.sum(axis=0)
    for c in ef_idx[np.argsort(-sums[ef_idx], kind="stable")]:
        v = profiles[:, c, None]
        pool = profiles[:, sums >= sums[c]]
        dominated = bool(
            np.any((pool >= v).all(axis=0) & (pool > v + PO_STRICT_TOL).any(axis=0))
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

    ``names`` come from ALLOCATION_FEATURES or "mms_shares", and the result
    keeps their order. Each maps to its value or, when n^m is over its cap,
    to the CapExceeded that the cap raises; a capped feature leaves the
    others computed. ``quad_cap`` bounds efpo_exists, which keeps every
    utility profile, and ``cap`` the rest. max_util is closed form and never
    capped.

    The maximin shares come from the first n^(lead-1) chunks alone (all of
    them when no good leads), where agent 0 owns good 0: relabeling an
    allocation's owners keeps every agent's worst bundle, and a bundle's
    value does not depend on its owner, so these chunks hold every share bit
    for bit. mms_ok is checked from the last of these chunks on; only if
    none of those settles it are the chunks before it walked again, so with
    at most one good leading there is no second walk.
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
        profiles = np.empty((n, total))
        worst_envy = np.empty(total)
    first = n ** max(m - _trailing(n, m) - 1, 0)
    # no chunk from `first - 1` on, where the shares are final, has yet
    # given every agent its share
    pending = "mms_ok" in want

    def settles(own: np.ndarray) -> bool:
        """Some allocation of the chunk gives every agent its final share."""
        return bool((own >= (shares - MMS_TOL)[:, None]).all(axis=0).any())

    min_envy = min_sum = np.inf
    nash = egal = -np.inf
    shares = np.full(n, -np.inf)
    pos = 0
    # NumPy reduces axis 0 of the C-contiguous (n, C) arrays below one row at
    # a time, so sums and products over agents accumulate in agent order.
    for c, b in enumerate(_bundle_chunks(arr)):
        if mms and c < first:
            shares = np.maximum(shares, b.min(axis=1).max(axis=1))
        diag = b.reshape(n * n, -1)[:: n + 1]
        own = diag.copy()
        if pending and c >= first - 1:
            pending = not settles(own)
        if envy:
            # Rounding of x - c is monotone in x, so the largest envy of
            # agent i is its best other bundle minus its own, bit for bit.
            # Masking in place: nothing below reads the diagonal of b.
            diag[...] = -np.inf
            per_agent = b.max(axis=1) - own
            worst = per_agent.max(axis=0)
            min_envy = min(min_envy, float(worst.min()))
            if "sum_max_envies" in want:
                min_sum = min(min_sum, float(per_agent.sum(axis=0).min()))
            if keep:
                profiles[:, pos : pos + own.shape[1]] = own
                worst_envy[pos : pos + own.shape[1]] = worst
                pos += own.shape[1]
        if "max_nash" in want:
            nash = max(nash, float(own.prod(axis=0).max()))
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
        values["mms_ok"] = not pending or any(
            settles(b.reshape(n * n, -1)[:: n + 1]) for b in itertools.islice(_bundle_chunks(arr), first - 1)
        )
    if keep:
        values["efpo_exists"] = _efpo_from(profiles, worst_envy)
    out.update((name, values[name]) for name in want)
    return {name: out[name] for name in names}


def max_util(matrix: UtilityMatrix) -> float:
    """Utilitarian optimum: each good to whoever values it most (closed form)."""
    return float(matrix.values.max(axis=0).sum())


def _gini(v: np.ndarray) -> np.ndarray:
    """The Gini coefficient of each vector along the last axis of v: mean
    absolute difference over twice the mean, 0 for an all-zero vector."""
    m = v.shape[-1]
    mean = v.mean(axis=-1)
    diff = v[..., :, None] - v[..., None, :]
    diff = np.abs(diff, out=diff).reshape(*v.shape[:-1], m * m).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mean == 0.0, 0.0, diff / (2.0 * m**2 * mean))


def _matrix_columns(stack: np.ndarray, names: list[str]) -> dict[str, np.ndarray]:
    """The requested MATRIX_FEATURES of a (K, n, m) stack of instances, one
    length-K column each, with the bits that one instance at a time gives.

    max_demand is the largest column sum; preference_diversity the mean
    euclidean distance over pairs of utility rows; demand_gini the Gini
    coefficient of the column sums; pickiness the mean Gini coefficient of
    the rows; frac_single_minded the share of agents with exactly one good
    above SINGLE_MINDED_TOL.
    """
    n = stack.shape[1]
    out = {}
    demand = stack.sum(axis=1)
    if "max_demand" in names:
        out["max_demand"] = demand.max(axis=1)
    if "demand_gini" in names:
        out["demand_gini"] = _gini(demand)
    if "preference_diversity" in names:
        diff = stack[:, :, None, :] - stack[:, None, :, :]
        dist = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=3))
        pairs = np.triu_indices(n, k=1)
        # The gathered pairs are strided; their mean rounds like one
        # instance's only from a contiguous copy.
        out["preference_diversity"] = np.ascontiguousarray(dist[:, pairs[0], pairs[1]]).mean(axis=1)
    if "pickiness" in names:
        out["pickiness"] = _gini(stack).mean(axis=1)
    if "frac_single_minded" in names:
        out["frac_single_minded"] = ((stack > SINGLE_MINDED_TOL).sum(axis=2) == 1).mean(axis=1)
    return {name: out[name] for name in names}


def _columns(features: list[str] | None) -> list[str]:
    """The columns of a table of ``features``, all of them by default; an
    empty list or a repeated name is refused."""
    columns = list(features) if features is not None else list(ALL_FEATURES)
    if not columns:
        raise ValidationError("no features requested")
    for k, name in enumerate(columns):
        if name not in ALL_FEATURES:
            raise UnknownFeature(name)
        if name in columns[:k]:
            raise ValidationError(f"feature {name!r} requested twice")
    return columns


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
    cap is recorded as absent with the reason, never raised. The matrix
    features are computed for blocks of records of one shape at once."""
    columns = _columns(features)
    alloc_names = [name for name in columns if name in ALLOCATION_FEATURES]
    matrix_names = [name for name in columns if name in MATRIX_FEATURES]
    cells: list[dict] = [{} for _ in records]
    if matrix_names:
        shapes: dict = {}
        for index, rec in enumerate(records):
            shapes.setdefault(rec.matrix.values.shape, []).append(index)
        for (n, m), group in shapes.items():
            size = max(1, _MATRIX_BLOCK_ENTRIES // (n * m * m))
            for lo in range(0, len(group), size):
                block = group[lo : lo + size]
                stack = np.stack([records[index].matrix.values for index in block])
                for name, column in _matrix_columns(stack, matrix_names).items():
                    for index, value in zip(block, column.tolist()):
                        cells[index][name] = value
    rows = []
    reasons = []
    for rec, row in zip(records, cells):
        row.update(allocation_features(rec.matrix, alloc_names, cap, quad_cap))
        for name in columns:
            if isinstance(row[name], CapError):
                reasons.append((rec.label, name, str(row[name])))
                row[name] = None
        rows.append({name: row[name] for name in columns})
    return FeatureTable(
        columns=columns, labels=[rec.label for rec in records], rows=rows, reasons=reasons
    )
