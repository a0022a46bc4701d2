import functools

import numpy as np
import pytest

from allocmap.core import InstanceRecord, ShapeMismatch, Source, ValidationError
from allocmap.distance import pairwise_distances
from allocmap.embedding import Embedding, _canonicalize, mds_embed
from allocmap.generators import gen_preset, gen_resampling
from oracles import oracle_smacof, stress


def trio_matrix():
    # three mutually equidistant targets, realizable exactly in the plane
    d = np.full((3, 3), 8.0)
    np.fill_diagonal(d, 0.0)
    return d


def small_demand_matrix(k=8):
    recs = [
        InstanceRecord(f"r{i}", Source("resampling", {}), None,
                       gen_resampling(3, 6, p=0.5, phi=0.35, seed=i))
        for i in range(k)
    ]
    return pairwise_distances(recs, "demand")


def test_stress_hand_value():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    target = np.array([[0.0, 6.0], [6.0, 0.0]])
    assert stress(target, pts) == 1.0


def test_stress_zero_at_exact_layout():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3)]])
    d = np.full((3, 3), 2.0)
    np.fill_diagonal(d, 0.0)
    assert stress(d, pts) < 1e-28


def test_stress_shape_check():
    with pytest.raises(ShapeMismatch):
        stress(np.zeros((3, 3)), np.zeros((2, 2)))


def test_embed_equilateral_targets():
    emb = mds_embed(trio_matrix(), seed=0)
    assert emb.stress < 1e-12
    pts = emb.points
    dists = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert max(dists) - min(dists) < 1e-6 * max(dists)
    assert abs(max(dists) - 8.0) < 1e-4


def test_trace_is_nonincreasing_and_consistent():
    emb = mds_embed(small_demand_matrix(), seed=3)
    trace = emb.stress_trace
    assert len(trace) == emb.iterations + 1
    assert emb.stress == trace[-1]
    assert (np.diff(trace) <= 1e-12).all()


@functools.cache
def preset_demand_matrix():
    return pairwise_distances(gen_preset("3x6", 7), "demand").values


def assert_matches_oracle(d, emb, seed):
    trace, x = oracle_smacof(d, seed, emb.iterations)
    assert emb.stress_trace.tobytes() == trace.tobytes()
    assert emb.points.tobytes() == _canonicalize(x).tobytes()


@pytest.mark.parametrize("seed", [0, 3])
def test_trace_matches_reference_loop(seed):
    for d in (small_demand_matrix().values, trio_matrix()):
        assert_matches_oracle(d, mds_embed(d, seed=seed), seed)
        multi = mds_embed(d, seed=seed, restarts=3)
        assert_matches_oracle(d, multi, multi.seed_used)
    d = preset_demand_matrix()
    assert_matches_oracle(d, mds_embed(d, seed=seed), seed)


class FixedStart:
    """Stands in for the seeded generator: its uniform draw is a given start."""

    def __init__(self, start):
        self.start = start

    def uniform(self, low, high, size):
        assert size == self.start.shape
        return self.start.copy()


def test_coincident_points_match_reference_loop(monkeypatch):
    # Two points of the start coincide, so the first Guttman transform meets
    # a zero plane distance off the diagonal.
    d = small_demand_matrix().values
    start = np.random.default_rng(5).uniform(-1.0, 1.0, (d.shape[0], 2))
    start[3] = start[6]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedStart(start))
    emb = mds_embed(d, seed=0)
    assert np.isfinite(emb.points).all()
    assert_matches_oracle(d, emb, 0)


def test_canonical_frame():
    emb = mds_embed(small_demand_matrix(), seed=4)
    pts = emb.points
    assert np.abs(pts.mean(axis=0)).max() < 1e-12
    norms = np.linalg.norm(pts, axis=1)
    top = int(np.argmax(norms))
    assert pts[top, 0] > 0
    assert abs(pts[top, 1]) < 1e-9 * max(norms[top], 1.0)


def test_same_seed_same_bytes():
    d = small_demand_matrix()
    a = mds_embed(d, seed=11)
    b = mds_embed(d, seed=11)
    assert np.array_equal(a.points, b.points)
    assert a.stress == b.stress and a.iterations == b.iterations


def test_different_seeds_differ():
    d = small_demand_matrix()
    a = mds_embed(d, seed=1)
    b = mds_embed(d, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_degenerate_all_zero():
    emb = mds_embed(np.zeros((4, 4)), seed=0)
    assert emb.degenerate
    assert emb.stress == 0.0
    assert emb.iterations == 0
    assert not emb.points.any()
    assert isinstance(emb, Embedding)


def test_restarts_pick_lowest_stress_child():
    d = small_demand_matrix()
    multi = mds_embed(d, seed=9, restarts=4)
    children = [
        int(np.random.SeedSequence(entropy=9, spawn_key=(r,)).generate_state(1, np.uint64)[0])
        for r in range(4)
    ]
    runs = [mds_embed(d, seed=c) for c in children]
    best = min(range(4), key=lambda r: runs[r].stress)
    assert multi.seed_used == children[best]
    assert multi.stress == runs[best].stress
    assert np.array_equal(multi.points, runs[best].points)


def test_single_restart_uses_seed_directly():
    d = small_demand_matrix()
    emb = mds_embed(d, seed=13, restarts=1)
    assert emb.seed_used is None
    assert np.array_equal(emb.points, mds_embed(d, seed=13).points)


def test_accepts_distance_matrix_object():
    dm = small_demand_matrix()
    emb = mds_embed(dm, seed=5)
    emb2 = mds_embed(dm.values, seed=5)
    assert np.array_equal(emb.points, emb2.points)


def test_embed_validation():
    with pytest.raises(ValidationError):
        mds_embed(np.zeros((2, 3)), seed=0)
    with pytest.raises(ValidationError):
        mds_embed(np.zeros((1, 1)), seed=0)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        mds_embed(asym, seed=0)
    neg = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        mds_embed(neg, seed=0)
    d = trio_matrix()
    with pytest.raises(ValueError):
        mds_embed(d, seed=0, restarts=0)
    with pytest.raises(ValueError):
        mds_embed(d, seed=0, tol=0.0)
    with pytest.raises(ValueError):
        mds_embed(d, seed=0, max_iters=0)
