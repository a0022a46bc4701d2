import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocmap import features
from allocmap.core import UtilityMatrix, validate
from allocmap.features import (
    ALL_FEATURES,
    ALLOCATION_FEATURES,
    MATRIX_FEATURES,
    CapExceeded,
    UnknownFeature,
    ef_exists,
    efpo_exists,
    feature_table,
    frac_single_minded,
    gini,
    max_demand,
    max_nash,
    max_util,
    minimax_envy,
    mms_ok,
    mms_shares,
    preference_diversity,
    prop_fraction,
    sum_max_envies,
)
from allocmap.generators import gen_characteristic, gen_iid, gen_resampling
from oracles import oracle_features, record


EXACT_ORACLE_FEATURES = (
    "minimax_envy", "max_nash", "prop_fraction", "sum_max_envies", "mms_ok", "efpo_exists",
)


def test_enumeration_features_match_plain_loop_oracle():
    funcs = {
        "minimax_envy": minimax_envy,
        "max_nash": max_nash,
        "prop_fraction": prop_fraction,
        "sum_max_envies": sum_max_envies,
        "mms_ok": mms_ok,
        "efpo_exists": efpo_exists,
    }
    for trial in range(50):
        if trial % 2:
            u = gen_iid(3, 4, "uniform01", seed=trial)
        else:
            u = gen_resampling(3, 4, p=0.5, phi=0.4, seed=trial)
        want = oracle_features(u)
        for name in EXACT_ORACLE_FEATURES:
            got = funcs[name](u)
            assert got == want[name], (trial, name, got, want[name])
        assert abs(max_util(u) - want["max_util"]) < 1e-12, trial


def weights_matrix(weights):
    """Rows of small integer weights divided by their sums: ties and zero
    entries throughout. An all-zero row stays zero; validate() would refuse
    it, but every allocation feature is defined on it."""
    arr = np.asarray(weights, dtype=np.float64)
    sums = arr.sum(axis=1, keepdims=True)
    arr = np.divide(arr, sums, out=np.zeros_like(arr), where=sums > 0)
    arr.setflags(write=False)
    return UtilityMatrix(arr)


@pytest.mark.parametrize("n,m,examples", [(2, 3, 60), (3, 4, 60), (3, 6, 40), (5, 5, 20)])
def test_feature_table_matches_oracle_bitwise(n, m, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(hnp.arrays(np.int64, (n, m), elements=st.integers(0, 3)))
    def check(weights):
        u = weights_matrix(weights)
        table = feature_table([record("x", u)], ALLOCATION_FEATURES)
        want = oracle_features(u)
        assert table.reasons == []
        for name, got in table.rows[0].items():
            if isinstance(want[name], bool):
                assert got is want[name], name
            elif name == "max_util":
                # closed form, summed in NumPy's order rather than the oracle's
                assert abs(got - want[name]) < 1e-12
            else:
                assert np.float64(got).tobytes() == np.float64(want[name]).tobytes(), name
        assert mms_shares(u).tobytes() == np.array(want["mms_shares"]).tobytes()

    check()


# -------------------------------------------------------- frozen values


def test_separable_closed_forms():
    u = gen_characteristic("SEP", 3, 3)
    assert minimax_envy(u) == -1.0
    assert ef_exists(u) is True
    assert max_nash(u) == 1.0
    assert max_util(u) == 3.0
    assert prop_fraction(u) == 3.0
    assert sum_max_envies(u) == -3.0
    assert mms_ok(u) is True
    assert efpo_exists(u) is True


def test_contention_closed_forms():
    u = gen_characteristic("CON", 3, 3)
    assert minimax_envy(u) == 1.0
    assert ef_exists(u) is False
    assert max_nash(u) == 0.0
    assert max_util(u) == 1.0
    # the winner's own max envy is -1, so the optimal sum is 1+1-1
    assert sum_max_envies(u) == 1.0
    assert mms_ok(u) is True
    assert mms_ok(gen_characteristic("CON", 2, 5)) is True
    con2 = gen_characteristic("CON", 2, 2)
    assert prop_fraction(con2) == 0.0
    assert efpo_exists(con2) is False


def test_indifference_closed_forms():
    u = gen_characteristic("IND", 3, 6)
    assert minimax_envy(u) == 0.0
    assert ef_exists(u) is True
    # three bundles of two goods each: product (1/3)^3, up to accumulation ulps
    assert abs(max_nash(u) - 1 / 27) < 1e-15
    assert abs(max_util(u) - 1.0) < 1e-15
    assert prop_fraction(u) == 1.0
    assert sum_max_envies(u) == 0.0
    assert efpo_exists(u) is True


def test_mms_holds_on_resampling_sample():
    for seed in range(100):
        u = gen_resampling(3, 6, p=0.5, phi=0.4, seed=seed)
        assert mms_ok(u), seed


# ---------------------------------------------------------- allocations


def test_enumeration_cap():
    with pytest.raises(CapExceeded) as exc:
        minimax_envy(gen_iid(10, 20, "uniform01", seed=1))
    assert exc.value.n == 10 and exc.value.m == 20
    with pytest.raises(CapExceeded):
        minimax_envy(gen_iid(3, 4, "uniform01", seed=1), cap=80)
    with pytest.raises(CapExceeded):
        efpo_exists(gen_iid(3, 4, "uniform01", seed=1), quad_cap=80)


def capped_cells(table):
    return [(label, name) for label, name, _ in table.reasons]


def test_cap_boundary_is_inclusive():
    u = gen_iid(3, 4, "uniform01", seed=5)  # 3^4 = 81 allocations
    recs = [record("a", u), record("b", u)]
    at_cap = feature_table(recs, ALLOCATION_FEATURES, cap=81, quad_cap=81)
    assert at_cap.reasons == []
    assert all(v is not None for row in at_cap.rows for v in row.values())

    over = feature_table(recs, ALLOCATION_FEATURES, cap=80, quad_cap=80)
    capped = [f for f in ALLOCATION_FEATURES if f != "max_util"]
    assert over.reasons == [
        (label, name, "n^m = 3^4 allocations exceed the cap 80")
        for label in ("a", "b")
        for name in capped
    ]
    assert [row["max_util"] for row in over.rows] == [max_util(u)] * 2


def test_quad_cap_only_drops_efpo():
    u = gen_iid(3, 4, "uniform01", seed=6)
    full = feature_table([record("a", u)], ALLOCATION_FEATURES)
    tab = feature_table([record("a", u)], ALLOCATION_FEATURES, cap=81, quad_cap=80)
    assert capped_cells(tab) == [("a", "efpo_exists")]
    assert tab.rows[0]["efpo_exists"] is None
    assert {k: v for k, v in tab.rows[0].items() if k != "efpo_exists"} == {
        k: v for k, v in full.rows[0].items() if k != "efpo_exists"
    }


def test_efpo_follows_quad_cap_above_cap():
    u = gen_iid(3, 4, "uniform01", seed=7)
    tab = feature_table([record("a", u)], ALLOCATION_FEATURES, cap=80, quad_cap=81)
    assert capped_cells(tab) == [
        ("a", f) for f in ALLOCATION_FEATURES if f not in ("max_util", "efpo_exists")
    ]
    assert tab.rows[0]["efpo_exists"] is efpo_exists(u)


@pytest.mark.parametrize("columns", [["max_util"], list(MATRIX_FEATURES)])
def test_closed_form_columns_enumerate_nothing(monkeypatch, columns):
    def no_walk(arr):
        raise AssertionError("allocations were enumerated")

    monkeypatch.setattr(features, "_bundle_chunks", no_walk)
    recs = [record("a", gen_iid(3, 4, "uniform01", seed=8))]
    tab = feature_table(recs, columns)
    assert tab.reasons == []
    assert all(tab.rows[0][c] is not None for c in columns)


# ------------------------------------------------------------ invariants


def test_feature_invariants_on_randoms():
    for seed in range(25):
        u = gen_iid(3, 4, "uniform01", seed=seed + 200)
        me = minimax_envy(u)
        assert ef_exists(u) is (me <= 1e-9)
        assert max_nash(u) >= 0.0
        assert prop_fraction(u) >= 0.0
        if efpo_exists(u):
            assert ef_exists(u)
        shares = mms_shares(u)
        assert (shares >= -1e-12).all()
        assert (shares <= 1.0 + 1e-12).all()


def test_features_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    for seed in range(10):
        u = gen_iid(3, 4, "uniform01", seed=seed + 300)
        v = u.permuted(rng.permutation(3), rng.permutation(4))
        assert abs(minimax_envy(u) - minimax_envy(v)) < 1e-12
        assert abs(max_nash(u) - max_nash(v)) < 1e-12
        assert abs(max_util(u) - max_util(v)) < 1e-12
        assert abs(prop_fraction(u) - prop_fraction(v)) < 1e-12
        assert mms_ok(u) == mms_ok(v)


# ---------------------------------------------------------------- gini


def test_gini_values():
    assert gini([1.0, 0.0, 0.0, 0.0]) == 0.75
    assert gini([1.0, 0.0]) == 0.5
    assert gini([0.0, 0.0, 0.0]) == 0.0
    assert gini([2.0, 2.0, 2.0]) == 0.0
    assert abs(gini([1.0, 2.0, 3.0]) - gini([2.0, 4.0, 6.0])) < 1e-15


def test_gini_validation():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([1.0, -0.5])


# ------------------------------------------------------- matrix features


def matrix_row(u):
    """Every matrix feature of one instance, through feature_table."""
    return feature_table([record("u", u)], MATRIX_FEATURES).rows[0]


def test_matrix_features_contention():
    feats = matrix_row(gen_characteristic("CON", 3, 3))
    assert feats["max_demand"] == 3.0
    assert feats["preference_diversity"] == 0.0
    assert feats["frac_single_minded"] == 1.0
    assert feats["demand_gini"] == 0.6666666666666666
    assert feats["pickiness"] == 0.6666666666666666


def test_matrix_features_indifference():
    feats = matrix_row(gen_characteristic("IND", 3, 6))
    assert feats["max_demand"] == 0.5
    assert feats["preference_diversity"] == 0.0
    assert feats["demand_gini"] == 0.0
    assert feats["pickiness"] == 0.0
    assert feats["frac_single_minded"] == 0.0


def test_matrix_features_hand_cases():
    u = validate(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert preference_diversity(u) == pytest.approx(np.sqrt(2), abs=1e-15)
    assert frac_single_minded(u) == 1.0
    assert max_demand(u) == 1.0
    mixed = validate(np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.2, 0.3, 0.5, 0.0],
    ]))
    assert frac_single_minded(mixed) == 0.5


def test_single_minded_ignores_dust():
    arr = np.array([[1.0 - 1e-12, 1e-12], [0.5, 0.5]])
    assert frac_single_minded(validate(arr)) == 0.5


# ---------------------------------------------------------- feature table


def test_feature_table_full():
    recs = [
        record("a", gen_iid(3, 6, "uniform01", seed=1)),
        record("b", gen_characteristic("SEP", 3, 6)),
    ]
    tab = feature_table(recs)
    assert tab.columns == list(ALL_FEATURES)
    assert tab.labels == ["a", "b"]
    assert tab.reasons == []
    for row in tab.rows:
        assert all(row[c] is not None for c in tab.columns)
    assert tab.rows[1]["ef_exists"] is True


def test_feature_table_absent_with_reason():
    recs = [record("big", gen_iid(10, 20, "uniform01", seed=2))]
    tab = feature_table(recs)
    capped = [f for f in ALLOCATION_FEATURES if f != "max_util"]
    for name in capped:
        assert tab.rows[0][name] is None
    # max_util is closed form and survives any size, as do matrix features
    assert tab.rows[0]["max_util"] is not None
    assert tab.rows[0]["max_demand"] is not None
    labels = {(lab, feat) for lab, feat, _ in tab.reasons}
    assert labels == {("big", f) for f in capped}
    for _, _, reason in tab.reasons:
        assert "cap" in reason


def test_feature_table_computes_only_requested_matrix_features(monkeypatch):
    def boom(matrix):
        raise AssertionError("matrix feature computed but not requested")

    assert tuple(features._MATRIX_FUNCTIONS) == MATRIX_FEATURES
    for name in MATRIX_FEATURES:
        monkeypatch.setitem(features._MATRIX_FUNCTIONS, name, boom)
    recs = [record("a", gen_iid(3, 4, "uniform01", seed=3))]
    tab = feature_table(recs, ALLOCATION_FEATURES)
    assert tab.columns == list(ALLOCATION_FEATURES) and not tab.reasons
    # the table is where feature_table looks names up: a requested one runs
    with pytest.raises(AssertionError):
        feature_table(recs, ["preference_diversity"])


def test_feature_table_subset_and_empty():
    recs = [record("a", gen_iid(3, 4, "uniform01", seed=3))]
    tab = feature_table(recs, features=["max_demand", "ef_exists"])
    assert tab.columns == ["max_demand", "ef_exists"]
    assert set(tab.rows[0]) == {"max_demand", "ef_exists"}
    empty = feature_table([])
    assert empty.labels == [] and empty.rows == []
    with pytest.raises(UnknownFeature):
        feature_table(recs, features=["utility_spread"])
