"""Singular-value map of instances and the four boundary theorems.

The explicit map sends an instance U to its two largest singular values
(sigma1, sigma2). All instances live inside a region bounded by four curves:

  west   sigma2 >= 0, tight exactly when all rows are identical
  south  sigma1 >= sqrt(n/m), tight exactly when all column sums equal n/m
  north  sigma1^2 + sigma2^2 <= n, tight exactly when every agent is
         single-minded and at most two distinct goods are valued
  east   sigma2 <= sigma1, with a sufficient block-duplication certificate

Eigenvalues come from a cyclic Jacobi sweep on the n x n Gram matrix
U U^T (n <= m keeps the small side), run to off-diagonal norm < 1e-12.
``singular_values`` is the one entry: it stacks the Gram matrices of
same-shape arrays and rotates them together, bit-identical to one matrix
at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import UtilityMatrix, check_shape, validate
from .generators import gen_characteristic

JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60
# The tolerance of every tightness test and certificate in boundary_report.
BOUNDARY_TOL = 1e-7
# Rows per stacked eigenvalue call in dirichlet_duplicated_sample: bounds the
# Gram stack at a few hundred KiB whatever the sample count.
_DIRICHLET_BLOCK = 4096


def _jacobi_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """(K, n) eigenvalues, descending, of a (K, n, n) stack of symmetric
    matrices, by cyclic Jacobi sweeps.

    Each sweep annihilates every off-diagonal pair (p, q) in row order with a
    Givens rotation, applied at once to every matrix of the stack that is not
    yet converged and has a[p, q] != 0. Every matrix gets exactly the
    elementwise float64 operations it would get alone, so a stacked result is
    bit-identical to one matrix at a time. Convergence is quadratic, so the
    off-diagonal Frobenius norm drops below ``JACOBI_OFF_TOL`` after a
    handful of sweeps at these sizes.
    """
    a = np.array(stack, dtype=np.float64)
    k = a.shape[-1]
    eig = np.empty(a.shape[:2])
    rows = np.arange(a.shape[0])
    diag = np.arange(k)
    off_mask = 1.0 - np.eye(k)
    # A tiny a[p, q] can overflow tau * tau to inf; t is then the correct
    # signed zero, so the overflow is benign.
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            off = a * off_mask
            done = np.sqrt((off * off).reshape(len(a), k * k).sum(axis=1)) < JACOBI_OFF_TOL
            if done.any():
                eig[rows[done]] = np.sort(a[done][:, diag, diag], axis=1)[:, ::-1]
                a, rows = a[~done], rows[~done]
            if not len(a):
                return eig
            for p in range(k - 1):
                for q in range(p + 1, k):
                    # The matrices with a[p, q] != 0: all of them by a slice,
                    # some by an index array, and a lone one by an integer, so
                    # that its tau, t, c and s are NumPy scalars, as cheap as
                    # in an unstacked rotation.
                    live = np.count_nonzero(a[:, p, q])
                    if not live:
                        continue
                    if live == len(a):
                        sub = 0 if live == 1 else slice(None)
                    else:
                        sub = np.flatnonzero(a[:, p, q])
                        if live == 1:
                            sub = int(sub[0])
                    apq, app, aqq = a[sub, p, q], a[sub, p, p], a[sub, q, q]
                    tau = (aqq - app) / (2.0 * apq)
                    # The textbook t takes the branch of tau >= 0, so tau = -0.0
                    # counts as positive: tau + 0.0 is +0.0 there.
                    t = np.copysign(1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau)), tau + 0.0)
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = t * c
                    col_p, col_q = a[sub, :, p], a[sub, :, q]
                    cc, ss = c[..., None], s[..., None]
                    new_p = cc * col_p - ss * col_q
                    new_q = ss * col_p + cc * col_q
                    new_pp, new_qq = app - t * apq, aqq + t * apq
                    a[sub, :, p] = a[sub, p, :] = new_p
                    a[sub, :, q] = a[sub, q, :] = new_q
                    a[sub, p, p] = new_pp
                    a[sub, q, q] = new_qq
                    a[sub, p, q] = a[sub, q, p] = 0.0
    raise RuntimeError(
        f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        f" for matrix {int(rows[0])} of the stack"
    )


def singular_values(arrays) -> np.ndarray:
    """(K, min(n, m)) singular values, descending, of K same-shape arrays;
    raw arrays are accepted, which keeps perturbation experiments outside the
    row-stochastic contract. Every singular value in allocmap comes from here.

    Each Gram matrix is formed as one ``arr @ arr.T`` (or ``arr.T @ arr``)
    per array, exactly as for a single array, and the stack goes through one
    ``_jacobi_eigenvalues`` call. Eigenvalues are clamped at 0 before the
    square root; the clamp extends to anything below 64 eps times the row's
    top eigenvalue, which is indistinguishable from 0 at working precision
    (sqrt would otherwise inflate that rounding junk to ~1e-8).
    """
    grams = [arr @ arr.T if arr.shape[0] <= arr.shape[1] else arr.T @ arr for arr in arrays]
    eig = _jacobi_eigenvalues(np.stack(grams))
    tiny = 64.0 * np.finfo(np.float64).eps * np.maximum(eig[:, 0], 1.0)
    return np.sqrt(np.where(eig > tiny[:, None], eig, 0.0))


def explicit_coords(records) -> np.ndarray:
    """(k, 2) array of (sigma1, sigma2) rows, aligned with ``records``.
    Records of one shape share one stacked eigenvalue call."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for idx, rec in enumerate(records):
        by_shape.setdefault(rec.matrix.values.shape, []).append(idx)
    out = np.empty((len(records), 2))
    for idxs in by_shape.values():
        out[idxs] = singular_values([records[i].matrix.values for i in idxs])[:, :2]
    return out


def corner_coordinates(kind: str, n: int, m: int) -> tuple[float, float]:
    """Closed-form (sigma1, sigma2) of a characteristic instance."""
    check_shape(n, m)
    block = m // n
    if kind == "IND":
        return np.sqrt(n / m), 0.0
    if kind == "CON":
        return np.sqrt(n), 0.0
    if kind == "SEP":
        return 1.0, 1.0
    if kind == "WSEP":
        return np.sqrt(1.0 / block), np.sqrt(1.0 / block)
    if kind == "WSEPf":
        return np.sqrt(n / m), np.sqrt(block) * n / m
    if kind == "BIC":
        return np.sqrt(n // 2), np.sqrt(n // 2)
    raise ValueError(f"unknown characteristic kind {kind!r}")


@dataclass(frozen=True)
class SideReport:
    """One boundary side: spectral residual, tightness flag, and (where one
    exists) the structural certificate with its agreement bit."""

    residual: float
    tight: bool
    certificate: bool | None
    agrees: bool | None


@dataclass(frozen=True)
class BoundaryReport:
    sigma1: float
    sigma2: float
    west: SideReport
    south: SideReport
    north: SideReport
    east: SideReport


def _single_minded_two_goods(arr: np.ndarray) -> bool:
    row_max = arr.max(axis=1)
    if (row_max < 1.0 - BOUNDARY_TOL).any():
        return False
    valued = np.nonzero(arr.max(axis=0) > BOUNDARY_TOL)[0]
    return valued.size <= 2


def _blocks_isomorphic(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact (within BOUNDARY_TOL) equality of small matrices up to row and column
    permutation. For a fixed row order, columns may be sorted canonically,
    so only row permutations are enumerated."""
    if a.shape != b.shape:
        return False

    def canon(mat: np.ndarray) -> np.ndarray:
        cols = sorted(map(tuple, mat.T))
        return np.array(cols).T

    cb = canon(b)
    for perm in itertools.permutations(range(a.shape[0])):
        if np.abs(canon(a[list(perm)]) - cb).max() <= BOUNDARY_TOL:
            return True
    return False


def _east_block_certificate(arr: np.ndarray) -> bool | None:
    """Advisory witness for east tightness: the agent-good bipartite graph
    splits into components, two of which are isomorphic and attain the
    largest component sigma1 (a duplicated top block forces sigma1 = sigma2)."""
    n, m = arr.shape
    graph = np.zeros((n + m, n + m))
    graph[:n, n:] = arr > BOUNDARY_TOL
    _, comp = connected_components(graph, directed=False)
    blocks = []
    for c in np.unique(comp[:n]):
        goods = np.flatnonzero(comp[n:] == c)
        if goods.size:
            blocks.append(arr[np.ix_(np.flatnonzero(comp[:n] == c), goods)])
    if len(blocks) < 2:
        return False
    if max(b.shape[0] for b in blocks) > 8:
        return None
    tops = [float(singular_values([b])[0, 0]) for b in blocks]
    peak = max(tops)
    peak_idx = [i for i, t in enumerate(tops) if t >= peak - BOUNDARY_TOL]
    for i, j in itertools.combinations(peak_idx, 2):
        if _blocks_isomorphic(blocks[i], blocks[j]):
            return True
    return False


def boundary_report(matrix: UtilityMatrix) -> BoundaryReport:
    arr = matrix.values
    n, m = arr.shape
    s1, s2 = singular_values([arr])[0, :2].tolist()

    west_res = s2
    south_res = s1 - float(np.sqrt(n / m))
    north_res = n - (s1 * s1 + s2 * s2)
    east_res = s1 - s2

    west_cert = bool(np.abs(arr - arr[0]).max() <= BOUNDARY_TOL)
    south_cert = bool(np.abs(arr.sum(axis=0) - n / m).max() <= BOUNDARY_TOL)
    north_cert = _single_minded_two_goods(arr)
    east_cert = _east_block_certificate(arr) if east_res <= BOUNDARY_TOL else None

    def side(res: float, cert, advisory: bool = False) -> SideReport:
        tight = res <= BOUNDARY_TOL
        agrees = None if (advisory or cert is None) else (tight == cert)
        return SideReport(residual=float(res), tight=bool(tight), certificate=cert, agrees=agrees)

    return BoundaryReport(
        sigma1=s1,
        sigma2=s2,
        west=side(west_res, west_cert),
        south=side(south_res, south_cert),
        north=side(north_res, north_cert),
        east=side(east_res, east_cert, advisory=True),
    )


def boundary_interpolation(kind: str, n: int, m: int, resolution: int = 11) -> list[UtilityMatrix]:
    """Instances tracing one boundary of the map.

    west   convex path from IND to CON (rows stay identical)
    south  convex path from IND to WSEPf (column sums stay n/m)
    north  t agents on good 0 and n-t on good 1, t = 1..n-1
    east   convex path from WSEP to a separable layout, then stepwise
           merges of single-minded pairs down to the two-good corner,
           interpolated pair by pair (sigma1 = sigma2 throughout)
    """
    check_shape(n, m)
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    thetas = np.linspace(0.0, 1.0, resolution)

    if kind in ("west", "south"):
        ind = gen_characteristic("IND", n, m).values
        end = gen_characteristic("CON" if kind == "west" else "WSEPf", n, m).values
        return [validate((1 - t) * ind + t * end) for t in thetas]

    if kind == "north":
        out = []
        for t in range(1, n):
            arr = np.zeros((n, m))
            arr[:t, 0] = 1.0
            arr[t:, 1] = 1.0
            out.append(validate(arr))
        return out

    if kind == "east":
        block = m // n
        out = []
        for t in thetas:
            arr = np.zeros((n, m))
            for i in range(n):
                lo = i * block
                arr[i, lo : lo + block] = (1.0 - t) / block
                arr[i, lo] += t
            out.append(validate(arr))
        half = n // 2
        for r in range(1, half):
            for t in thetas[1:]:
                arr = np.zeros((n, m))
                arr[:r, 0] = 1.0
                arr[r : 2 * r, 1] = 1.0
                arr[2 * r, 0] = t
                arr[2 * r, 2] = 1.0 - t
                arr[2 * r + 1, 1] = t
                arr[2 * r + 1, 3] = 1.0 - t
                for k, i in enumerate(range(2 * r + 2, n)):
                    arr[i, 4 + k] = 1.0
                out.append(validate(arr))
        return out

    raise ValueError(f"unknown boundary kind {kind!r}")


@dataclass(frozen=True)
class DirichletSummary:
    mean_sigma1_sq: float
    std_error: float
    max_sigma2: float


def dirichlet_duplicated_sample(n: int, m: int, count: int, seed) -> DirichletSummary:
    """Monte-Carlo summary of sigma1^2 for a flat Dirichlet row copied to all
    agents (normalized i.i.d. exponentials; the duplication forces sigma2 = 0).
    """
    check_shape(n, m)
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    rng = np.random.default_rng(seed)
    s1sq = np.empty(count)
    max_s2 = 0.0
    for lo in range(0, count, _DIRICHLET_BLOCK):
        # One draw per block takes the same stream values as one per row.
        rows = rng.exponential(1.0, (min(_DIRICHLET_BLOCK, count - lo), m))
        rows /= rows.sum(axis=1, keepdims=True)
        sv = singular_values([np.tile(row, (n, 1)) for row in rows])
        s1sq[lo : lo + len(rows)] = sv[:, 0] * sv[:, 0]
        max_s2 = max(max_s2, float(sv[:, 1].max()))
    mean = float(s1sq.mean())
    se = float(s1sq.std(ddof=1) / np.sqrt(count))
    return DirichletSummary(mean_sigma1_sq=mean, std_error=se, max_sigma2=float(max_s2))
