import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocmap import spectral
from allocmap.core import BadDimensions, InstanceRecord, Source, validate
from allocmap.generators import gen_attributes, gen_characteristic, gen_iid, gen_preset, gen_resampling
from allocmap.spectral import (
    _east_block_certificate,
    _jacobi_eigenvalues,
    boundary_interpolation,
    boundary_report,
    corner_coordinates,
    dirichlet_duplicated_sample,
    explicit_coords,
    singular_values,
)
from oracles import oracle_dirichlet, oracle_explicit_coords, oracle_jacobi, relabel

ALL_SHAPES = [(2, 2), (2, 5), (3, 6), (3, 8), (4, 9), (5, 5), (5, 6), (6, 6)]


def random_instance(n, m, seed):
    k = seed % 3
    if k == 0:
        return gen_iid(n, m, "uniform01", seed=seed)
    if k == 1:
        return gen_attributes(n, m, d=2 + seed % 3, seed=seed)
    return gen_resampling(n, m, p=0.5, phi=0.4, seed=seed)


def eigenvalues(sym):
    """The kernel's eigenvalues of one symmetric matrix, as a stack of one."""
    return _jacobi_eigenvalues(sym[None])[0]


def top_two(u):
    """(sigma1, sigma2) of one instance."""
    return singular_values([u.values])[0, :2]


# ---------------------------------------------------------------- jacobi


def test_jacobi_diagonal_matrix():
    eig = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(eig, [3.0, 2.0, 1.0])


def test_jacobi_analytic_2x2():
    # [[2,1],[1,2]] has eigenvalues 3 and 1
    eig = eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eig, [3.0, 1.0], atol=1e-12)


def test_jacobi_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(5)
    for k in range(2, 9):
        for _ in range(20):
            a = rng.normal(size=(k, k))
            sym = (a + a.T) / 2
            mine = eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)[::-1]
            assert np.abs(mine - ref).max() < 1e-10, k


def test_jacobi_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 6))
    sym = a @ a.T
    eig = eigenvalues(sym)
    assert abs(eig.sum() - np.trace(sym)) < 1e-10


# ------------------------------------------------------ stacked jacobi


def _entries(shape, scale):
    return hnp.arrays(np.float64, shape, elements=st.floats(-scale, scale, allow_subnormal=False))


@st.composite
def _mixed_stack(draw):
    """Symmetric n x n matrices that leave the live set at different sweeps:
    already diagonal, one 2x2 block, a rank-one Gram, scattered zero
    off-diagonal entries (the a[p, q] == 0 skip), a nearly diagonal one and
    random symmetric ones of several scales, in a drawn order."""
    n = draw(st.integers(2, 6))
    diag = np.diag(draw(_entries(n, 4.0)))
    block = np.diag(draw(_entries(n, 4.0)))
    block[0, 1] = block[1, 0] = draw(st.floats(0.5, 3.0))
    v = draw(_entries(n, 2.0))
    holes = draw(_entries((n, n), 3.0))
    holes[draw(hnp.arrays(np.bool_, (n, n)))] = 0.0
    near = draw(_entries((n, n), 1e-7)) + np.diag(draw(_entries(n, 4.0)))
    mats = [diag, block, np.outer(v, v), holes + holes.T, near + near.T]
    for scale in draw(st.lists(st.sampled_from([1e-3, 1.0, 50.0]), min_size=1, max_size=4)):
        b = draw(_entries((n, n), scale))
        mats.append((b + b.T) / 2)
    return np.stack([mats[i] for i in draw(st.permutations(range(len(mats))))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_mixed_stack())
def test_jacobi_stack_matches_one_matrix_at_a_time_bitwise(stack):
    mine = _jacobi_eigenvalues(stack)
    assert mine.shape == stack.shape[:2]
    assert mine.tobytes() == np.stack([oracle_jacobi(a) for a in stack]).tobytes()


def test_jacobi_stack_names_the_matrix_that_fails_to_converge(monkeypatch):
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 4))
    stack = np.stack([np.diag([3.0, 2.0, 1.0, 0.5]), b + b.T, np.eye(4)])
    monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="in 1 sweeps for matrix 1 of the stack"):
        _jacobi_eigenvalues(stack)


def test_jacobi_tiny_off_diagonal_rotates_without_warning():
    # the (0, 1) rotation has tau = 5e199, so tau * tau overflows and t is +0
    sym = np.array([[1.0, 1e-200, 0.0], [1e-200, 2.0, 0.5], [0.0, 0.5, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = eigenvalues(sym)
    assert eig.tobytes() == oracle_jacobi(sym).tobytes()
    assert np.abs(eig - np.linalg.eigvalsh(sym)[::-1]).max() < 1e-12


def test_explicit_coords_emits_no_warning_on_wide_preset():
    # record resamp_p0.1_phi0.75_000 has an off-diagonal Gram entry small
    # enough to overflow tau * tau
    records = gen_preset("10x20", 3007)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        explicit_coords(records)


@pytest.mark.parametrize("seed", [7, 3007])
@pytest.mark.parametrize("preset", ["3x6", "5x5", "10x20"])
def test_explicit_coords_match_per_record_oracle_bitwise(preset, seed):
    records = gen_preset(preset, seed)
    assert explicit_coords(records).tobytes() == oracle_explicit_coords(records).tobytes()


def test_explicit_coords_mixed_shapes_keep_record_order():
    shapes = [(3, 6), (5, 5), (3, 6), (2, 5), (5, 5), (5, 5), (3, 6)]
    records = [
        InstanceRecord(f"r{i}", Source("test", {}), None, random_instance(n, m, 40 + i))
        for i, (n, m) in enumerate(shapes)
    ]
    coords = explicit_coords(records)
    for row, rec in zip(coords, records):
        assert row.tobytes() == top_two(rec.matrix).tobytes()


@pytest.mark.parametrize("preset", ["3x6", "5x5", "10x20"])
def test_boundary_report_sigmas_match_explicit_coords_bitwise(preset):
    # the benchmark gate's check_explicit compares the two for every record
    records = gen_preset(preset, 7)
    for row, rec in zip(explicit_coords(records).tolist(), records):
        rep = boundary_report(rec.matrix)
        assert np.float64([rep.sigma1, rep.sigma2]).tobytes() == np.float64(row).tobytes(), rec.label


# ---------------------------------------------------- singular values


def test_singular_values_match_lapack():
    rng = np.random.default_rng(7)
    for n, m in ALL_SHAPES:
        u = random_instance(n, m, int(rng.integers(1 << 30)))
        mine = singular_values([u.values])
        ref = np.linalg.svd(u.values, compute_uv=False)
        assert mine.shape == (1, min(n, m))
        assert np.abs(mine - ref).max() < 1e-9, (n, m)


def test_singular_values_rank_one_is_exactly_zero():
    """Rank-1 instances must report sigma2 = 0.0, not sqrt of eigenvalue
    noise; the explicit map relies on exact zeros at the west boundary."""
    for u in (gen_characteristic("IND", 5, 5), gen_characteristic("CON", 4, 7),
              gen_attributes(5, 6, d=1, seed=3)):
        sv = singular_values([u.values])[0]
        assert sv[1] == 0.0
        assert all(s == 0.0 for s in sv[1:])


def test_singular_values_accepts_raw_arrays():
    arr = np.array([[1.0, 0.0], [0.0, 2.0]])  # not row stochastic
    sv = singular_values([arr])[0]
    assert np.allclose(sv, [2.0, 1.0], atol=1e-12)


def test_singular_values_permutation_invariant():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n, m = ALL_SHAPES[trial % len(ALL_SHAPES)]
        u = random_instance(n, m, trial + 100)
        moved = relabel(u, rng.permutation(n), rng.permutation(m))
        sv, sv2 = singular_values([u.values, moved.values])
        assert np.abs(sv - sv2).max() < 1e-9


def test_explicit_coords_alignment():
    recs = [
        InstanceRecord("a", Source("characteristic", {}), None, gen_characteristic("CON", 3, 6)),
        InstanceRecord("b", Source("characteristic", {}), None, gen_characteristic("IND", 3, 6)),
    ]
    coords = explicit_coords(recs)
    assert coords.shape == (2, 2)
    assert abs(coords[0, 0] - np.sqrt(3)) < 1e-12
    assert abs(coords[1, 0] - np.sqrt(0.5)) < 1e-12


# ----------------------------------------------------------- corners


def test_corner_formulas_all_kinds_many_shapes():
    for n, m in ALL_SHAPES:
        for kind in ("IND", "SEP", "CON", "WSEP", "WSEPf", "BIC"):
            want = corner_coordinates(kind, n, m)
            got = top_two(gen_characteristic(kind, n, m))
            assert np.abs(got - want).max() < 1e-9, (kind, n, m)


def test_corner_values_spot_checks():
    assert corner_coordinates("IND", 3, 6)[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert corner_coordinates("CON", 5, 5)[0] == pytest.approx(np.sqrt(5), abs=1e-15)
    assert corner_coordinates("SEP", 4, 8) == (1.0, 1.0)
    # WSEPf at (2,5): sigma1 = sqrt(2/5), sigma2 = sqrt(2)*2/5
    s1, s2 = corner_coordinates("WSEPf", 2, 5)
    assert s1 == pytest.approx(np.sqrt(0.4), abs=1e-15)
    assert s2 == pytest.approx(np.sqrt(2) * 0.4, abs=1e-15)
    s1, _ = corner_coordinates("BIC", 5, 5)
    assert s1 == pytest.approx(np.sqrt(2), abs=1e-15)
    with pytest.raises(BadDimensions):
        corner_coordinates("IND", 1, 4)
    with pytest.raises(ValueError):
        corner_coordinates("nope", 3, 3)


# ------------------------------------------------------ global bounds


def test_frobenius_identity_and_cap():
    # sigma1^2 + sigma2^2 <= sum u^2 <= n, with equality at rank <= 2
    for trial in range(40):
        n, m = ALL_SHAPES[trial % len(ALL_SHAPES)]
        u = random_instance(n, m, trial + 500)
        s = singular_values([u.values])[0]
        fro = float((u.values * u.values).sum())
        assert s[0] ** 2 + s[1] ** 2 <= fro + 1e-9
        assert fro <= n + 1e-9


def test_frobenius_equality_at_rank_two():
    rng = np.random.default_rng(11)
    for _ in range(20):
        r1 = rng.random(6)
        r2 = rng.random(6)
        arr = np.array([r1, r2, r1, r2]) / np.array([r1.sum(), r2.sum(), r1.sum(), r2.sum()])[:, None]
        u = validate(arr)
        s = singular_values([u.values])[0]
        fro = float((u.values * u.values).sum())
        assert abs(s[0] ** 2 + s[1] ** 2 - fro) < 1e-9


def test_lipschitz_single_entry_perturbation():
    rng = np.random.default_rng(12)
    for trial in range(200):
        n, m = ALL_SHAPES[trial % len(ALL_SHAPES)]
        arr = random_instance(n, m, trial + 900).values.copy()
        eps = float(rng.uniform(0, 1e-3))
        i, j = int(rng.integers(n)), int(rng.integers(m))
        moved = arr.copy()
        moved[i, j] += eps
        a, b = singular_values([arr, moved])
        assert abs(a[0] - b[0]) <= eps + 1e-12
        assert abs(a[1] - b[1]) <= eps + 1e-12


# -------------------------------------------------- boundary reports


def test_boundary_report_ind():
    rep = boundary_report(gen_characteristic("IND", 3, 6))
    assert rep.west.tight and rep.west.certificate and rep.west.agrees
    assert rep.south.tight and rep.south.certificate and rep.south.agrees
    assert not rep.north.tight
    assert rep.west.residual == 0.0


def test_boundary_report_con():
    rep = boundary_report(gen_characteristic("CON", 4, 4))
    assert rep.west.tight and rep.west.certificate
    assert rep.north.tight and rep.north.certificate and rep.north.agrees
    assert not rep.east.tight
    assert rep.east.certificate is None  # advisory and only built when tight


def test_boundary_report_sep_east():
    rep = boundary_report(gen_characteristic("SEP", 4, 6))
    assert rep.east.tight
    assert rep.east.certificate is True
    assert rep.east.agrees is None  # spectral-only flag, certificate advisory


def test_boundary_report_bic_north_east():
    rep = boundary_report(gen_characteristic("BIC", 4, 4))
    assert rep.north.tight and rep.north.certificate and rep.north.agrees
    assert rep.east.tight and rep.east.certificate is True


def test_boundary_report_wsepf_south():
    rep = boundary_report(gen_characteristic("WSEPf", 2, 5))
    assert rep.south.tight and rep.south.certificate and rep.south.agrees


def test_boundary_report_random_instances_agree():
    # random instances sit strictly inside; certificates must agree with flags
    for trial in range(60):
        n, m = ALL_SHAPES[trial % len(ALL_SHAPES)]
        u = random_instance(n, m, trial + 2000)
        rep = boundary_report(u)
        assert rep.west.agrees and rep.south.agrees and rep.north.agrees
        assert rep.west.residual >= -1e-9
        assert rep.south.residual >= -1e-9
        assert rep.north.residual >= -1e-9
        assert rep.east.residual >= -1e-9


def test_east_certificate_detects_duplicated_blocks():
    # two identical 2x2 separable blocks: sigma1 = sigma2 by construction
    arr = np.zeros((4, 4))
    arr[0, 0] = arr[1, 1] = arr[2, 2] = arr[3, 3] = 1.0
    rep = boundary_report(validate(arr))
    assert rep.east.tight and rep.east.certificate is True


def test_east_certificate_false_for_top_blocks_of_unequal_shape():
    # a 1x1 block and a rank-one 2x2 block both have sigma1 = 1, so the
    # instance is east-tight, but no two of its blocks are isomorphic. So
    # are the two 1x3 blocks of the second instance, both of sigma1 0.6124,
    # whose shapes are equal but whose values differ
    for arr in (
        np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
        np.array([[0.5, 0.25, 0.25, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 5 / 12, 5 / 12, 1 / 6]]),
    ):
        rep = boundary_report(validate(arr))
        assert rep.east.tight and rep.east.certificate is False


def test_east_certificate_false_for_a_connected_instance():
    # one component has no second block; by Perron-Frobenius its sigma1 is
    # simple, so boundary_report never asks for the certificate here
    u = gen_iid(3, 4, "uniform01", seed=3)
    assert (u.values > 0).all()
    assert _east_block_certificate(u.values) is False
    assert not boundary_report(u).east.tight


def test_east_certificate_none_for_large_components():
    # isomorphism check enumerates row permutations, bails beyond 8 rows
    arr = np.zeros((18, 18))
    arr[:9, 0] = 1.0
    arr[9:, 1] = 1.0
    rep = boundary_report(validate(arr))
    assert rep.east.tight
    assert rep.east.certificate is None


# --------------------------------------------- boundary interpolation


def test_west_interpolation():
    fam = boundary_interpolation("west", 3, 6, resolution=9)
    assert len(fam) == 9
    assert np.allclose(fam[0].values, gen_characteristic("IND", 3, 6).values, atol=1e-15)
    assert np.allclose(fam[-1].values, gen_characteristic("CON", 3, 6).values, atol=1e-15)
    assert (singular_values([u.values for u in fam])[:, 1] <= 1e-9).all()


def test_south_interpolation():
    fam = boundary_interpolation("south", 3, 8, resolution=7)
    floor = np.sqrt(3 / 8)
    for u in fam:
        assert top_two(u)[0] - floor <= 1e-9
        # column sums stay flat along the south edge
        assert np.abs(u.values.sum(axis=0) - 3 / 8).max() < 1e-12


def test_north_interpolation():
    fam = boundary_interpolation("north", 5, 5)
    assert len(fam) == 4
    for u in fam:
        s1, s2 = top_two(u)
        assert abs(5 - (s1 * s1 + s2 * s2)) <= 1e-9
    # the t-th member puts t agents on good 0
    assert fam[2].values[:, 0].sum() == 3.0


def test_east_interpolation():
    for n, m in ((4, 4), (5, 6), (6, 6), (2, 5)):
        fam = boundary_interpolation("east", n, m, resolution=5)
        half = n // 2
        assert len(fam) == 5 + max(half - 1, 0) * 4
        for u in fam:
            s1, s2 = top_two(u)
            assert s1 - s2 <= 1e-9, (n, m, s1, s2)


def test_interpolation_validation():
    with pytest.raises(ValueError):
        boundary_interpolation("northwest", 3, 6)
    with pytest.raises(ValueError):
        boundary_interpolation("west", 3, 6, resolution=1)
    with pytest.raises(BadDimensions):
        boundary_interpolation("west", 1, 6)


# ----------------------------------------------------------- dirichlet


def test_dirichlet_square_case_expectation():
    """At m = n the mean of sigma1^2 lands on 2n/(n+1); duplicated rows keep
    sigma2 at exactly zero."""
    s = dirichlet_duplicated_sample(5, 5, 20000, seed=42)
    expect = 2 * 5 / 6
    assert abs(s.mean_sigma1_sq - expect) < 4 * s.std_error
    assert s.max_sigma2 == 0.0


def test_dirichlet_rectangular_mean_scales_with_m():
    # wider instances concentrate toward indifference: E sigma1^2 = 2n/(m+1)
    s = dirichlet_duplicated_sample(4, 12, 20000, seed=43)
    assert abs(s.mean_sigma1_sq - 2 * 4 / 13) < 4 * s.std_error


def test_dirichlet_matches_row_by_row_oracle_bitwise():
    # 5000 rows span a full block and a partial one
    s = dirichlet_duplicated_sample(3, 4, 5000, seed=44)
    assert (s.mean_sigma1_sq, s.std_error, s.max_sigma2) == oracle_dirichlet(3, 4, 5000, 44)


def test_dirichlet_validation():
    with pytest.raises(BadDimensions):
        dirichlet_duplicated_sample(1, 5, 100, seed=0)
    with pytest.raises(ValueError):
        dirichlet_duplicated_sample(3, 5, 1, seed=0)
