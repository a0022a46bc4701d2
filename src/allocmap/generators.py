"""Instance generators: characteristic matrices, synthetic samplers, presets.

Seeding rule: a dataset built with seed S gives record k the 64-bit child
seed ``SeedSequence(S, spawn_key=(k,)).generate_state(1)`` and every sampler
runs on ``numpy.random.default_rng(child)``. Instances are therefore
reproducible one at a time, in any order, on any platform or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import (
    InstanceRecord,
    Source,
    UtilityMatrix,
    _child_seed,
    check_labels,
    check_shape,
    normalize_rows,
    validate,
)

CHARACTERISTIC_KINDS = ("IND", "SEP", "CON", "WSEP", "WSEPf", "BIC")

IID_DISTS = ("uniform01", "exponential")

PRESET_SHAPES = {"3x6": (3, 6), "5x5": (5, 5), "10x20": (10, 20)}


def gen_characteristic(kind: str, n: int, m: int) -> UtilityMatrix:
    """Build one of the named landmark instances at shape (n, m).

    IND    every agent values every good at 1/m (indifference).
    SEP    agent i values only good i (fully separable interests).
    CON    every agent values only good 0 (full conflict).
    WSEP   agent i spreads 1 over its own block of floor(m/n) goods;
           leftover goods are valued by nobody.
    WSEPf  like WSEP but each private good is worth n/m and the leftover
           goods are shared equally by everyone (coincides with WSEP
           when n divides m).
    BIC    floor(n/2) agents want only good 0, floor(n/2) want only good 1,
           and for odd n the last agent wants only good 2.
    """
    check_shape(n, m)
    arr = np.zeros((n, m))
    if kind == "IND":
        arr[:] = 1.0 / m
    elif kind == "SEP":
        arr[np.arange(n), np.arange(n)] = 1.0
    elif kind == "CON":
        arr[:, 0] = 1.0
    elif kind == "WSEP":
        block = m // n
        for i in range(n):
            arr[i, i * block : (i + 1) * block] = 1.0 / block
    elif kind == "WSEPf":
        block = m // n
        rest = m % n
        for i in range(n):
            arr[i, i * block : (i + 1) * block] = n / m
        if rest:
            arr[:, n * block :] = (1.0 - block * n / m) / rest
    elif kind == "BIC":
        half = n // 2
        arr[:half, 0] = 1.0
        arr[half : 2 * half, 1] = 1.0
        if n % 2:
            arr[n - 1, 2] = 1.0
    else:
        raise ValueError(f"unknown characteristic kind {kind!r}")
    return validate(arr)


def gen_iid(n: int, m: int, dist: str, seed) -> UtilityMatrix:
    """Each entry drawn i.i.d. from ``dist``, rows then normalized to sum 1."""
    check_shape(n, m)
    if dist not in IID_DISTS:
        raise ValueError(f"unknown iid dist {dist!r}, expected one of {IID_DISTS}")
    rng = np.random.default_rng(seed)
    if dist == "uniform01":
        return normalize_rows(rng.random((n, m)))
    return normalize_rows(rng.exponential(1.0, (n, m)))


def gen_attributes(n: int, m: int, d: int, seed) -> UtilityMatrix:
    """Latent-attribute sampler.

    Goods get attribute vectors g_j in [0,1]^d (drawn first), agents get
    a_i in [0,1]^d, and u[i][j] is the inner product <a_i, g_j> with rows
    normalized. With d=1 all rows are proportional, hence identical after
    normalization.
    """
    check_shape(n, m)
    if d < 1:
        raise ValueError(f"attribute dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    goods = rng.random((m, d))
    agents = rng.random((n, d))
    return normalize_rows(agents @ goods.T)


def gen_resampling(n: int, m: int, p: float, phi: float, seed) -> UtilityMatrix:
    """Noisy-approval sampler around a hidden central approval set.

    A central set V* of floor(p*m) goods is drawn uniformly. Each agent-good
    cell approves the central verdict with probability 1-phi and otherwise
    re-rolls approval with probability p. Agents left with no approvals
    approve one uniformly random good. Utilities split 1 equally over the
    approved goods.
    """
    check_shape(n, m)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be in [0, 1], got {phi}")
    rng = np.random.default_rng(seed)
    size = int(np.floor(p * m))
    central = np.zeros(m, dtype=bool)
    central[rng.choice(m, size=size, replace=False)] = True
    rerolled = rng.random((n, m)) < phi
    approved_anyway = rng.random((n, m)) < p
    approve = np.where(rerolled, approved_anyway, central[None, :])
    for i in np.nonzero(~approve.any(axis=1))[0]:
        approve[i, rng.integers(m)] = True
    return normalize_rows(approve.astype(np.float64))


@dataclass
class GeneratorSpec:
    """One homogeneous group of instances inside a dataset."""

    model: str
    count: int
    params: dict[str, Any] = field(default_factory=dict)


class Model(NamedTuple):
    """A sampled model: sampler(n, m, *params, seed), with the params in
    MODEL_PARAMS order, and the label prefix of its records as a function of
    the params."""

    sampler: Callable[..., UtilityMatrix]
    label: Callable[[dict], str]


MODELS = {
    "iid": Model(gen_iid, lambda p: "iid_" + ("uniform" if p["dist"] == "uniform01" else "exp")),
    "attributes": Model(gen_attributes, lambda p: f"attr_d{p['d']}"),
    "resampling": Model(gen_resampling, lambda p: f"resamp_p{p['p']:g}_phi{p['phi']:g}"),
}

# The params each model takes, with the defaults of `allocmap generate`.
MODEL_PARAMS = {
    "iid": {"dist": "uniform01"},
    "attributes": {"d": 2},
    "resampling": {"p": 0.5, "phi": 0.5},
    "characteristic": {"kind": "IND"},
}


def gen_dataset(specs: list[GeneratorSpec], n: int, m: int, seed: int) -> list[InstanceRecord]:
    """Expand generator specs into labeled records with per-record child seeds."""
    records: list[InstanceRecord] = []
    counters: dict[str, int] = {}
    index = 0
    for spec in specs:
        if spec.count < 1:
            raise ValueError(f"count must be >= 1, got {spec.count}")
        if spec.model == "characteristic":
            kind = spec.params["kind"]
            for _ in range(spec.count):
                records.append(
                    InstanceRecord(
                        label=kind,
                        source=Source("characteristic", {"kind": kind, "n": n, "m": m}),
                        seed=None,
                        matrix=gen_characteristic(kind, n, m),
                    )
                )
                index += 1
            continue
        if spec.model not in MODELS:
            raise ValueError(f"unknown generator model {spec.model!r}")
        model = MODELS[spec.model]
        prefix = model.label(spec.params)
        args = [spec.params[name] for name in MODEL_PARAMS[spec.model]]
        start = counters.get(prefix, 0)
        for k in range(start, start + spec.count):
            child = _child_seed(seed, index)
            records.append(
                InstanceRecord(
                    label=f"{prefix}_{k:03d}",
                    source=Source(spec.model, dict(spec.params, n=n, m=m)),
                    seed=child,
                    matrix=model.sampler(n, m, *args, child),
                )
            )
            index += 1
        counters[prefix] = start + spec.count
    check_labels([r.label for r in records])
    return records


def preset_specs(name: str) -> tuple[int, int, list[GeneratorSpec]]:
    """Composition of the built-in datasets."""
    if name not in PRESET_SHAPES:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESET_SHAPES)}")
    n, m = PRESET_SHAPES[name]
    specs: list[GeneratorSpec] = []
    if name in ("3x6", "5x5"):
        for d in (2, 5):
            specs.append(GeneratorSpec("attributes", 20, {"d": d}))
        for p in (0.2, 0.4, 0.6, 0.8):
            for phi in (0.2, 0.8):
                specs.append(GeneratorSpec("resampling", 5, {"p": p, "phi": phi}))
        specs.append(GeneratorSpec("iid", 40, {"dist": "uniform01"}))
        specs.append(GeneratorSpec("iid", 40, {"dist": "exponential"}))
        for kind in ("CON", "IND", "SEP", "WSEP", "BIC"):
            specs.append(GeneratorSpec("characteristic", 1, {"kind": kind}))
    else:  # 10x20
        for p in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
            for phi in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
                specs.append(GeneratorSpec("resampling", 4, {"p": p, "phi": phi}))
        for kind in ("CON", "IND", "SEP"):
            specs.append(GeneratorSpec("characteristic", 1, {"kind": kind}))
    return n, m, specs


def gen_preset(name: str, seed: int) -> list[InstanceRecord]:
    n, m, specs = preset_specs(name)
    return gen_dataset(specs, n, m, seed)
