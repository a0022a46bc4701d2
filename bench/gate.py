"""The output gate: artifact digests and invariants checked from outside.

Every check returns a list of problems; an empty list means the check passed.
Distance files are parsed here rather than with allocmap's own reader, so a
reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from allocmap.spectral import BOUNDARY_TOL, boundary_report

# Tolerances of the repository's acceptance criteria 02 (distance bounds and
# demand <= valuation) and 11 (stress trace never increases).
BOUND_TOL = 1e-9
STRESS_STEP_TOL = 1e-12

REFERENCE = Path(__file__).with_name("reference.json")


def digest_dir(path) -> dict[str, str]:
    """sha256 of every file under ``path``, keyed by relative name."""
    root = Path(path)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_digests(got: dict, want: dict, what: str) -> list[str]:
    if got == want:
        return []
    names = sorted(set(got) | set(want))
    diff = [n for n in names if got.get(n) != want.get(n)]
    return [f"{what}: {', '.join(diff)} differ"]


def reference_digests(workload: str) -> list[dict] | None:
    """Recorded digests of each dataset of ``workload`` at the default seed."""
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(workload)


def read_distance_csv(path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    labels = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
        raise ValueError(f"{path}: not a {len(labels)}x{len(labels)} matrix")
    return labels, np.array(rows)


def check_distances(values: np.ndarray, n: int, m: int) -> list[str]:
    """Symmetric, zero diagonal, and within [0, 2n - 2n/m]."""
    problems = []
    if not np.array_equal(values, values.T):
        problems.append("distance matrix is not symmetric")
    if np.any(np.diag(values) != 0.0):
        problems.append("distance matrix has a nonzero diagonal")
    limit = 2.0 * n - 2.0 * n / m
    if values.min() < 0.0 or values.max() > limit + BOUND_TOL:
        problems.append(
            f"distances outside [0, {limit}]: min {values.min()!r}, max {values.max()!r}"
        )
    return problems


def check_dominates(valuation: np.ndarray, demand: np.ndarray) -> list[str]:
    worst = float((demand - valuation).max())
    return [] if worst <= BOUND_TOL else [f"demand exceeds valuation by {worst!r}"]


def check_stress_trace(trace) -> list[str]:
    steps = np.diff(np.asarray(trace, dtype=np.float64))
    worst = float(steps.max(initial=-math.inf))
    return [] if worst <= STRESS_STEP_TOL else [f"SMACOF stress rose by {worst!r}"]


def check_explicit(path, records) -> list[str]:
    """Each explicit point is the record's (sigma1, sigma2) and lies inside
    the boundary: no side residual below -BOUNDARY_TOL."""
    lines = Path(path).read_text().splitlines()[1:]
    if len(lines) != len(records):
        return [f"{path}: {len(lines)} points for {len(records)} records"]
    problems = []
    for line, rec in zip(lines, records):
        label, s1, s2 = line.split(",")
        rep = boundary_report(rec.matrix)
        if label != rec.label or (float(s1), float(s2)) != (rep.sigma1, rep.sigma2):
            problems.append(f"explicit point {label} is not the record's singular values")
        for side in ("west", "south", "north", "east"):
            res = getattr(rep, side).residual
            if res < -BOUNDARY_TOL:
                problems.append(f"{rec.label}: {side} residual {res!r} < -{BOUNDARY_TOL}")
    return problems
