"""Planar embedding of a distance matrix by SMACOF stress majorization.

Raw stress sum_{i<j} (d_ij - |x_i - x_j|)^2 is minimized from a seeded
uniform start in [-1, 1]^2 via Guttman transforms, which never increase
stress. The returned layout is canonicalized (centroid at the origin, the
farthest point rotated onto the positive x axis) so equal seeds give equal
bytes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .core import ValidationError, _child_seed
from .distance import check_distances

SMACOF_MAX_ITERS = 10000
SMACOF_TOL = 1e-9


@dataclass
class Embedding:
    points: np.ndarray
    stress: float
    iterations: int
    stress_trace: np.ndarray
    degenerate: bool = False
    seed_used: int | None = field(default=None)


def _canonicalize(x: np.ndarray) -> np.ndarray:
    out = x - x.mean(axis=0)
    norms = np.sqrt((out * out).sum(axis=1))
    top = int(np.argmax(norms))
    r = norms[top]
    if r > 0:
        c, s = out[top, 0] / r, out[top, 1] / r
        rot = np.array([[c, -s], [s, c]])
        out = out @ rot
    return out


def _run_once(d: np.ndarray, seed, max_iters: int, tol: float) -> Embedding:
    k = d.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (k, 2))
    upper = np.ravel_multi_index(np.triu_indices(k, k=1), (k, k))
    target = d.take(upper)
    # The k x k arrays of the loop live in these buffers, allocated once; only
    # the rare fix-up for coincident points below allocates. (-d) / e is
    # -(d / e) bit for bit, so b takes the negated ratio in one pass.
    neg_d = -d
    b = np.empty((k, k))
    e = np.empty((k, k))
    positive = np.empty((k, k), dtype=bool)
    res = np.empty(target.size)
    rowsum = np.empty(k)
    off_diagonal = k * (k - 1)

    def raw_stress(e: np.ndarray) -> float:
        # mode="clip" skips the bounds-checked copy that take(out=) makes by
        # default; every index is in range.
        e.take(upper, out=res, mode="clip")
        np.subtract(target, res, out=res)
        np.multiply(res, res, out=res)
        return float(res.sum())

    # The distances of each iterate serve both its stress and the next
    # Guttman transform. cdist sums dx * dx + dy * dy before the square root,
    # as the textbook loop does, so e has its bits.
    cdist(x, x, out=e)
    prev = raw_stress(e)
    trace = [prev]
    iterations = 0
    for _ in range(max_iters):
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(neg_d, e, out=b)
        # Pairs at plane distance 0 get -0.0: the diagonal always, another
        # pair only when two points of the iterate coincide.
        np.greater(e, 0.0, out=positive)
        if np.count_nonzero(positive) < off_diagonal:
            b[~positive] = -0.0
        np.fill_diagonal(b, 0.0)
        np.sum(b, axis=1, out=rowsum)
        np.fill_diagonal(b, -rowsum)
        x = (b @ x) / k
        cdist(x, x, out=e)
        cur = raw_stress(e)
        trace.append(cur)
        iterations += 1
        if prev <= 0.0:
            break
        if (prev - cur) / prev < tol:
            break
        prev = cur
    return Embedding(
        points=_canonicalize(x),
        stress=trace[-1],
        iterations=iterations,
        stress_trace=np.array(trace),
    )


def check_smacof(max_iters: int, tol: float, restarts: int) -> None:
    """SMACOF's arguments are refused, by every entry that takes them, before
    any work: at least one iteration and one run, and a tolerance above 0."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def mds_embed(
    dist, seed, max_iters: int = SMACOF_MAX_ITERS, tol: float = SMACOF_TOL, restarts: int = 1
) -> Embedding:
    """Embed a k x k distance matrix (raw array or DistanceMatrix) into the
    plane.

    An all-zero matrix is degenerate: every point sits at the origin with
    stress 0 and the result is flagged instead of iterated. With restarts > 1
    the run r uses the child seed SeedSequence(seed, spawn_key=(r,)) and the
    lowest-stress result wins (first such on ties). A matrix whose squared entries
    overflow in sum is refused before any iteration: below it, stress stays finite.
    """
    check_smacof(max_iters, tol, restarts)
    d = check_distances(getattr(dist, "values", dist))
    k = d.shape[0]
    if k < 2:
        raise ValidationError("need at least 2 points to embed")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.square(d).sum()):
            raise ValidationError("distances too large to embed: the sum of their squares overflows")
    if not d.any():
        return Embedding(
            points=np.zeros((k, 2)),
            stress=0.0,
            iterations=0,
            stress_trace=np.array([0.0]),
            degenerate=True,
        )
    if restarts == 1:
        return _run_once(d, seed, max_iters, tol)
    best: Embedding | None = None
    for r in range(restarts):
        child = _child_seed(seed, r)
        emb = _run_once(d, child, max_iters, tol)
        emb.seed_used = child
        if best is None or emb.stress < best.stress:
            best = emb
    return best
