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

from .core import ShapeMismatch, ValidationError, _child_seed
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


def stress(dist, points) -> float:
    """Raw stress of a configuration against target distances."""
    d = np.asarray(dist, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != d.shape[0]:
        raise ShapeMismatch(d.shape, x.shape)
    diff = x[:, None, :] - x[None, :, :]
    e = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(d.shape[0], k=1)
    res = d[iu] - e[iu]
    return float((res * res).sum())


def _plane_distances(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j| for points in the plane: the floats stress() computes, in
    a fraction of the time of its reduction over a length-2 axis."""
    dx = x[:, 0, None] - x[None, :, 0]
    dy = x[:, 1, None] - x[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


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

    def raw_stress(e: np.ndarray) -> float:
        res = target - e.take(upper)
        return float((res * res).sum())

    # The distances of each iterate serve both its stress and the next
    # Guttman transform.
    e = _plane_distances(x)
    prev = raw_stress(e)
    trace = [prev]
    iterations = 0
    for _ in range(max_iters):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(e > 0, d / np.where(e > 0, e, 1.0), 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / k
        e = _plane_distances(x)
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


def mds_embed(
    dist, seed, max_iters: int = SMACOF_MAX_ITERS, tol: float = SMACOF_TOL, restarts: int = 1
) -> Embedding:
    """Embed a k x k distance matrix (raw array or DistanceMatrix) into the
    plane.

    An all-zero matrix is degenerate: every point sits at the origin with
    stress 0 and the result is flagged instead of iterated. With restarts > 1
    the run r uses the child seed SeedSequence(seed, spawn_key=(r,)) and the
    lowest-stress result wins (first such on ties).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    d = check_distances(getattr(dist, "values", dist))
    k = d.shape[0]
    if k < 2:
        raise ValidationError("need at least 2 points to embed")
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
