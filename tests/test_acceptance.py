"""Release acceptance suite.

One test per shipping criterion, each asserting its stated tolerance and
runtime budget and printing a single ``criterion NN: PASS`` line with the
measured margin, so a ``pytest -v -s`` run doubles as the release report.

The enumeration ground truths live in ``oracles.py``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from allocmap.dataio import write_embedding_csv
from allocmap.distance import demand_distance, pairwise_distances, valuation_distance
from allocmap.embedding import mds_embed
from allocmap.features import ALLOCATION_FEATURES, allocation_features, feature_table, max_util
from allocmap.generators import (
    gen_attributes,
    gen_characteristic,
    gen_iid,
    gen_preset,
    gen_resampling,
)
from allocmap.spectral import (
    boundary_interpolation,
    boundary_report,
    corner_coordinates,
    dirichlet_duplicated_sample,
    explicit_coords,
    singular_values,
    top_singular_values,
)
from oracles import oracle_demand, oracle_features, oracle_valuation


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS - {detail}")


def random_instance(n, m, seed):
    """Deterministic mixed draw across the three random generator families."""
    kind = seed % 3
    if kind == 0:
        return gen_iid(n, m, "uniform01", seed=seed)
    if kind == 1:
        return gen_attributes(n, m, d=2 + seed % 3, seed=seed)
    return gen_resampling(
        n, m, p=0.4 + 0.2 * (seed % 3), phi=0.1 + 0.2 * (seed % 4), seed=seed
    )


# ----------------------------------------------------------- the criteria


def test_criterion_01_characteristic_equidistance():
    t0 = time.perf_counter()
    corners = [gen_characteristic(k, 5, 5) for k in ("IND", "SEP", "CON")]
    worst = max(
        abs(valuation_distance(a, b) - 8.0)
        for a, b in itertools.combinations(corners, 2)
    )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    _report(1, f"IND/SEP/CON 5x5 pairwise valuation = 2(m-1) = 8, "
               f"worst |err| {worst:.1e}, {elapsed:.2f}s < 1s")


def test_criterion_02_distance_bounds_and_dominance():
    base = 20240402
    worst_bound = -math.inf
    worst_dom = -math.inf
    for t in range(500):
        n, m = (5, 5) if t % 2 == 0 else (3, 6)
        u1 = random_instance(n, m, base + 2 * t)
        u2 = random_instance(n, m, base + 2 * t + 1)
        limit = 2.0 * n - 2.0 * n / m
        dv = valuation_distance(u1, u2)
        dd = demand_distance(u1, u2)
        worst_bound = max(worst_bound, dv - limit, dd - limit)
        worst_dom = max(worst_dom, dd - dv)
    assert worst_bound <= 1e-9
    assert worst_dom <= 1e-9
    _report(2, f"500 mixed pairs at 5x5 and 3x6: max(d - (2n - 2n/m)) = "
               f"{worst_bound:.2e}, max(demand - valuation) = {worst_dom:.2e}")


def test_criterion_03_search_matches_enumeration_exactly():
    t0 = time.perf_counter()
    base = 20240403
    for t in range(100):
        u1 = random_instance(4, 4, base + 2 * t)
        u2 = random_instance(4, 4, base + 2 * t + 1)
        assert valuation_distance(u1, u2) == oracle_valuation(u1, u2), t
        assert demand_distance(u1, u2) == oracle_demand(u1, u2), t
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"100 4x4 pairs equal the 576-permutation and 24-permutation "
               f"enumerations exactly, {elapsed:.2f}s < 10s")


def test_criterion_04_demand_tracks_valuation_on_preset():
    t0 = time.perf_counter()
    records = gen_preset("5x5", seed=20240404)
    val = pairwise_distances(records, metric="valuation", threads=4)
    dem = pairwise_distances(records, metric="demand", threads=4)
    iu = np.triu_indices(len(records), k=1)
    r = float(np.corrcoef(dem.values[iu], val.values[iu])[0, 1])
    elapsed = time.perf_counter() - t0
    assert r >= 0.9
    assert elapsed < 300.0
    _report(4, f"Pearson(demand, valuation) = {r:.5f} over {iu[0].size} "
               f"preset pairs, {elapsed:.1f}s < 300s")


def test_criterion_05_corner_formulas():
    shapes = ((3, 6), (5, 5), (6, 6), (3, 8), (5, 6))
    kinds = ("IND", "CON", "WSEP", "WSEPf", "BIC")
    worst = 0.0
    for (n, m), kind in itertools.product(shapes, kinds):
        want = corner_coordinates(kind, n, m)
        got = top_singular_values(gen_characteristic(kind, n, m))
        worst = max(worst, abs(got.sigma1 - want.sigma1),
                    abs(got.sigma2 - want.sigma2))
    assert worst < 1e-9
    _report(5, f"{len(shapes) * len(kinds)} corner coordinate checks, "
               f"worst |err| {worst:.1e} < 1e-9")


def test_criterion_06_boundary_inequalities_and_certificates():
    t0 = time.perf_counter()
    base = 20240406
    min_residual = math.inf
    for t in range(10_000):
        n, m = (5, 5) if t % 2 == 0 else (3, 6)
        rep = boundary_report(random_instance(n, m, base + t))
        min_residual = min(min_residual, rep.west.residual, rep.south.residual,
                           rep.north.residual, rep.east.residual)
        assert rep.west.agrees and rep.south.agrees and rep.north.agrees, t
    assert min_residual >= -1e-9

    worst_named = 0.0
    for kind in ("west", "south", "north", "east"):
        for n, m in ((5, 5), (3, 6), (5, 6)):
            for mat in boundary_interpolation(kind, n, m):
                rep = boundary_report(mat)
                worst_named = max(worst_named, abs(getattr(rep, kind).residual))
                assert rep.west.agrees and rep.south.agrees and rep.north.agrees
    assert worst_named <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(6, f"10000 random instances respect all four boundary "
               f"inequalities (min residual {min_residual:.2e}); interpolated "
               f"boundary families sit on their side within {worst_named:.1e}; "
               f"west/south/north certificates agree throughout, {elapsed:.1f}s")


def test_criterion_07_frobenius_and_lipschitz():
    base = 20240407
    worst_fro = -math.inf
    for t in range(1000):
        n, m = (5, 5) if t % 2 == 0 else (3, 6)
        u = random_instance(n, m, base + t)
        sv = singular_values(u)
        fro = float(np.sum(u.values * u.values))
        worst_fro = max(worst_fro, sv[0] ** 2 + sv[1] ** 2 - fro, fro - n)
    assert worst_fro <= 1e-9

    rng = np.random.default_rng(base)
    worst_move = 0.0
    for t in range(1000):
        n, m = (5, 5) if t % 2 == 0 else (3, 6)
        u = random_instance(n, m, base + 5000 + t)
        arr = u.values.copy()
        i = int(rng.integers(n))
        j = int(rng.integers(m))
        eps = float(rng.uniform(0.0, 1e-3))
        arr[i, j] += eps if rng.random() < 0.5 or arr[i, j] < eps else -eps
        before = top_singular_values(u)
        after = top_singular_values(arr)
        move = max(abs(after.sigma1 - before.sigma1),
                   abs(after.sigma2 - before.sigma2))
        worst_move = max(worst_move, move - eps)
    assert worst_move <= 1e-12
    _report(7, f"Frobenius bound slack >= {-worst_fro:.2e} over 1000 "
               f"instances; 1000 single-entry perturbations moved the top "
               f"two singular values by at most eps + {worst_move:.1e}")


# The duplicated-row Dirichlet experiment is run once and shared by the two
# criterion-8 tests so the 1e5 samples are not drawn twice.
_DIRICHLET_RUN = {}


def _dirichlet_run():
    if not _DIRICHLET_RUN:
        t0 = time.perf_counter()
        summary = dirichlet_duplicated_sample(5, 8, count=100_000, seed=20240501)
        _DIRICHLET_RUN["summary"] = summary
        _DIRICHLET_RUN["elapsed"] = time.perf_counter() - t0
    return _DIRICHLET_RUN["summary"], _DIRICHLET_RUN["elapsed"]


def test_criterion_08_dirichlet_rank_and_runtime():
    summary, elapsed = _dirichlet_run()
    assert summary.max_sigma2 <= 1e-9
    assert elapsed < 120.0
    _report(8, f"1e5 duplicated-row Dirichlet draws at (5, 8): max sigma2 = "
               f"{summary.max_sigma2:.1e} <= 1e-9, {elapsed:.1f}s < 120s "
               f"(mean sigma1^2 target checked separately)")


@pytest.mark.xfail(
    strict=True,
    reason="identical-row instances with a flat Dirichlet row concentrate at "
    "E[sigma1^2] = 2n/(m+1), which is 10/9 at (5, 8); the pinned 5/3 target "
    "equals 2n/(n+1) and only matches square shapes, so at (5, 8) the sample "
    "mean sits hundreds of standard errors below it. The experiment is "
    "implemented and reported faithfully rather than tuned to pass.",
)
def test_criterion_08_dirichlet_mean_matches_pinned_target():
    summary, _ = _dirichlet_run()
    gap = (summary.mean_sigma1_sq - 5.0 / 3.0) / summary.std_error
    print(f"criterion 08: mean sigma1^2 = {summary.mean_sigma1_sq:.6f} "
          f"(SE {summary.std_error:.6f}); pinned target 5/3 is {gap:+.1f} SE "
          f"away; 2n/(m+1) = 10/9 is "
          f"{(summary.mean_sigma1_sq - 10.0 / 9.0) / summary.std_error:+.1f} SE away")
    assert abs(summary.mean_sigma1_sq - 5.0 / 3.0) <= 3.0 * summary.std_error


def test_criterion_09_allocation_features_match_enumeration():
    base = 20240409
    for t in range(50):
        if t % 2 == 0:
            u = gen_iid(3, 4, "uniform01", seed=base + t)
        else:
            u = gen_resampling(3, 4, p=0.5, phi=0.4, seed=base + t)
        want = oracle_features(u)
        got = allocation_features(u, ALLOCATION_FEATURES)
        assert got["minimax_envy"] == want["minimax_envy"], t
        assert got["max_nash"] == want["max_nash"], t
        assert got["prop_fraction"] == want["prop_fraction"], t
        assert got["sum_max_envies"] == want["sum_max_envies"], t
        assert got["mms_ok"] is want["mms_ok"], t
        assert got["efpo_exists"] is want["efpo_exists"], t

    sep_u = gen_characteristic("SEP", 3, 3)
    sep = allocation_features(sep_u, ALLOCATION_FEATURES)
    assert sep["minimax_envy"] == -1.0
    assert sep["max_nash"] == 1.0
    assert max_util(sep_u) == 3.0
    assert sep["prop_fraction"] == 3.0
    assert sep["sum_max_envies"] == -3.0
    assert sep["mms_ok"] is True and sep["efpo_exists"] is True
    con_u = gen_characteristic("CON", 3, 3)
    con = allocation_features(con_u, ALLOCATION_FEATURES)
    assert con["minimax_envy"] == 1.0
    assert con["max_nash"] == 0.0
    assert max_util(con_u) == 1.0
    assert con["sum_max_envies"] == 1.0
    assert con["mms_ok"] is True
    con2 = allocation_features(gen_characteristic("CON", 2, 2), ["prop_fraction", "efpo_exists"])
    assert con2["prop_fraction"] == 0.0 and con2["efpo_exists"] is False
    ind = allocation_features(
        gen_characteristic("IND", 3, 6), ["minimax_envy", "prop_fraction", "sum_max_envies"]
    )
    assert ind["minimax_envy"] == 0.0
    assert ind["prop_fraction"] == 1.0
    assert ind["sum_max_envies"] == 0.0
    _report(9, "50 random 3x4 instances: six allocation features equal full "
               "enumeration exactly; SEP/CON/IND closed forms exact")


def test_criterion_10_explicit_axes_track_features():
    records = gen_preset("3x6", seed=20240404)
    coords = explicit_coords(records)
    table = feature_table(records, features=("max_demand", "preference_diversity"))
    md = np.array([row["max_demand"] for row in table.rows], dtype=float)
    pdiv = np.array([row["preference_diversity"] for row in table.rows], dtype=float)
    r1 = float(np.corrcoef(coords[:, 0], md)[0, 1])
    r2 = float(np.corrcoef(coords[:, 1], pdiv)[0, 1])
    assert r1 >= 0.9
    assert r2 >= 0.9

    flat = 0
    for rec in records:
        arr = rec.matrix.values
        if float(np.abs(arr - arr[0]).max()) == 0.0:
            flat += 1
            f = allocation_features(rec.matrix, ["ef_exists", "minimax_envy"])
            assert f["ef_exists"] is (f["minimax_envy"] <= 1e-9)
    assert flat >= 1
    _report(10, f"corr(sigma1, max_demand) = {r1:.5f}, corr(sigma2, "
                f"preference_diversity) = {r2:.5f}, both >= 0.9; {flat} "
                f"identical-row instance(s) have ef_exists consistent with "
                f"minimax_envy")


def test_criterion_11_embedding_geometry_and_determinism(tmp_path):
    corners = [gen_characteristic(k, 5, 5) for k in ("IND", "SEP", "CON")]
    dist = np.zeros((3, 3))
    for i, j in itertools.combinations(range(3), 2):
        dist[i, j] = dist[j, i] = valuation_distance(corners[i], corners[j])
    emb = mds_embed(dist, seed=20240411)
    worst_rel = 0.0
    for i, j in itertools.combinations(range(3), 2):
        d = float(np.hypot(*(emb.points[i] - emb.points[j])))
        worst_rel = max(worst_rel, abs(d - dist[i, j]) / dist[i, j])
    assert worst_rel <= 0.01

    records = gen_preset("3x6", seed=20240404)
    dm = pairwise_distances(records, metric="demand", threads=4)
    emb1 = mds_embed(dm, seed=20240411)
    trace = np.asarray(emb1.stress_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    emb2 = mds_embed(dm, seed=20240411)
    p1 = tmp_path / "embedding_run1.csv"
    p2 = tmp_path / "embedding_run2.csv"
    write_embedding_csv(p1, dm.labels, emb1)
    write_embedding_csv(p2, dm.labels, emb2)
    assert p1.read_bytes() == p2.read_bytes()
    _report(11, f"IND/SEP/CON 5x5 embedded distances within {worst_rel:.2%} "
                f"of 8; preset stress trace nonincreasing over "
                f"{emb1.iterations} iterations; same-seed embedding CSVs "
                f"byte-identical")


def test_criterion_12_wide_preset_demand_matrix_within_budget():
    records = gen_preset("10x20", seed=20240412)
    assert len(records) == 171
    t0 = time.perf_counter()
    dm = pairwise_distances(records, metric="demand", threads=4)
    elapsed = time.perf_counter() - t0
    assert dm.values.shape == (171, 171)
    assert elapsed < 60.0
    _report(12, f"demand distance matrix for 171 instances at 10x20 in "
                f"{elapsed:.2f}s < 60s")
