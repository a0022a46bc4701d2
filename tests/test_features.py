import itertools

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocmap import features
from allocmap.core import UtilityMatrix, ValidationError, validate
from allocmap.features import (
    ALL_FEATURES,
    ALLOCATION_FEATURES,
    MATRIX_FEATURES,
    CapExceeded,
    UnknownFeature,
    allocation_features,
    feature_table,
    max_util,
)
from allocmap.generators import gen_characteristic, gen_iid, gen_preset, gen_resampling
from oracles import MATRIX_FUNCTIONS, gini, oracle_features, record, relabel


EXACT_ORACLE_FEATURES = (
    "minimax_envy", "max_nash", "prop_fraction", "sum_max_envies", "mms_ok", "efpo_exists",
)


def test_enumeration_features_match_plain_loop_oracle():
    for trial in range(50):
        if trial % 2:
            u = gen_iid(3, 4, "uniform01", seed=trial)
        else:
            u = gen_resampling(3, 4, p=0.5, phi=0.4, seed=trial)
        want = oracle_features(u)
        fused = allocation_features(u, EXACT_ORACLE_FEATURES)
        for name in EXACT_ORACLE_FEATURES:
            got = allocation_features(u, [name])[name]
            assert got == want[name], (trial, name, got, want[name])
            assert fused[name] == want[name], (trial, name, fused[name], want[name])
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


# 3x8 walks 2 leading goods in 9 chunks, and its shares settle after 3
@pytest.mark.parametrize("n,m,examples", [(2, 3, 60), (3, 4, 60), (3, 6, 40), (5, 5, 20), (3, 8, 10)])
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
                assert same_bits(got, want[name]), name
        shares = allocation_features(u, ["mms_shares"])["mms_shares"]
        assert shares.tobytes() == np.array(want["mms_shares"]).tobytes()

    check()


def same_bits(got, want) -> bool:
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def count_walks(monkeypatch) -> list[int]:
    """Wrap the bundle walk; each walk appends how many chunks it yielded."""
    walks: list[int] = []
    walk = features._bundle_chunks

    def spy(arr):
        walks.append(0)
        for b in walk(arr):
            walks[-1] += 1
            yield b

    monkeypatch.setattr(features, "_bundle_chunks", spy)
    return walks


def assert_matches_oracle(got, u):
    want = oracle_features(u)
    for name in EXACT_ORACLE_FEATURES + ("ef_exists",):
        if isinstance(want[name], bool):
            assert got[name] is want[name], name
        else:
            assert same_bits(got[name], want[name]), (name, got[name], want[name])
    assert got["mms_shares"].tobytes() == np.array(want["mms_shares"]).tobytes()


def test_walk_with_two_leading_goods_matches_oracle_bitwise(monkeypatch):
    # 4^7 owner vectors come in 16 chunks, each fixing the owners of the
    # first 2 goods; the other cases walk 0 or 1 leading goods. The shares
    # settle in the 4 chunks where agent 0 owns good 0, and only the first 3
    # of those may be walked again.
    ties = weights_matrix([[3, 0, 1, 1, 2, 0, 3], [1, 1, 1, 1, 1, 1, 1],
                           [0, 2, 2, 0, 1, 3, 1], [0, 0, 0, 0, 0, 0, 0]])
    for u in (ties, gen_iid(4, 7, "uniform01", seed=47)):
        chunks = [b.shape for b in features._bundle_chunks(u.values)]
        assert chunks == [(4, 4, 4**5)] * 16
        walks = count_walks(monkeypatch)
        got = allocation_features(u, EXACT_ORACLE_FEATURES + ("ef_exists", "mms_shares"), quad_cap=4**7)
        assert walks[0] == 16 and len(walks) <= 2 and sum(walks[1:]) <= 3, walks
        monkeypatch.undo()
        assert_matches_oracle(got, u)


@pytest.mark.parametrize("n,m,chunks", [(3, 6, 1), (3, 7, 3)])
def test_mms_ok_walks_once_where_at_most_one_good_leads(monkeypatch, n, m, chunks):
    # the shares settle in chunk 0, from which mms_ok is checked, so no
    # chunk is walked again
    for seed in range(3):
        u = gen_iid(n, m, "uniform01", seed=seed)
        walks = count_walks(monkeypatch)
        got = allocation_features(u, ["mms_ok"])["mms_ok"]
        assert walks == [chunks], walks
        monkeypatch.undo()
        assert got is oracle_features(u)["mms_ok"]


def test_mms_ok_decided_by_the_walk_again_over_the_first_chunks(monkeypatch):
    # 2^15 owner vectors come in 8 chunks, each fixing the owners of goods
    # 0-2; the shares settle in the first 4, and mms_ok is checked from the
    # last of those on. Agent 1 needs good 2, or goods 1 and 11; agent 0
    # needs 5 of its 11, so good 0 and one of goods 1 and 2. Every
    # maximin-share allocation thus lies in chunk 1 or 2, and only the walk
    # again over chunks 0-2 finds one.
    weights = np.zeros((2, 15))
    weights[:, [0, 1, 2, 11]] = [[3, 3, 4, 1], [0, 1, 4, 1]]
    u = weights_matrix(weights)
    walks = count_walks(monkeypatch)
    got = allocation_features(u, EXACT_ORACLE_FEATURES + ("ef_exists", "mms_shares"), quad_cap=2**15)
    assert got["mms_ok"] is True
    assert walks == [8, 2], walks
    assert_matches_oracle(got, u)


def test_mms_ok_checked_from_the_last_chunk_of_the_shares(monkeypatch):
    # 8 chunks as above, the shares settle in the first 4. Agent 0 needs
    # good 0, or goods 1, 2 and 10; agent 1 needs goods 1 and 2, or good 0
    # and one more. Every maximin-share allocation thus lies in chunk 3, the
    # last of the shares, and the one walk finds it.
    weights = np.zeros((2, 15))
    weights[:, [0, 1, 2, 10]] = [[5, 2, 1, 2], [7, 3, 5, 1]]
    u = weights_matrix(weights)
    walks = count_walks(monkeypatch)
    got = allocation_features(u, EXACT_ORACLE_FEATURES + ("ef_exists", "mms_shares"), quad_cap=2**15)
    assert got["mms_ok"] is True
    assert walks == [8], walks
    assert_matches_oracle(got, u)


@pytest.mark.parametrize("n,m", [(2, 20), (3, 10), (5, 6)])
def test_prefix_tables_of_a_block_fit_one_chunk(monkeypatch, n, m):
    trailing = features._trailing(n, m)
    blocks = []
    tables = features._prefix_tables

    def spy(arr, owners, t):
        block = tables(arr, owners, t)
        assert block.size <= n * n * n**trailing, (len(owners), block.shape)
        blocks.append(owners.copy())
        return block

    monkeypatch.setattr(features, "_prefix_tables", spy)
    walk = features._bundle_chunks(gen_iid(n, m, "uniform01", seed=m).values)
    assert sum(1 for _ in walk) == n ** (m - trailing)
    # the blocks cover every prefix once, in counter order
    prefixes = np.concatenate(blocks)
    assert prefixes.tolist() == [list(p) for p in itertools.product(range(n), repeat=m - trailing)]
    if n == 2:
        assert len(blocks) == len(prefixes)  # one prefix per block


def test_allocation_features_keep_the_requested_order():
    rng = np.random.default_rng(5)
    u = gen_iid(3, 4, "uniform01", seed=9)
    for names in (ALLOCATION_FEATURES[::-1], ALLOCATION_FEATURES[3:] + ALLOCATION_FEATURES[:3],
                  tuple(rng.permutation(ALLOCATION_FEATURES))):
        assert list(allocation_features(u, names)) == list(names)
        # capped names keep their place too
        assert list(allocation_features(u, names, cap=80, quad_cap=80)) == list(names)
    with pytest.raises(UnknownFeature, match="unknown feature 'bogus'"):
        allocation_features(u, ["bogus"])


# -------------------------------------------------------- frozen values


def test_separable_closed_forms():
    u = gen_characteristic("SEP", 3, 3)
    f = allocation_features(u, ALLOCATION_FEATURES)
    assert f["minimax_envy"] == -1.0
    assert f["ef_exists"] is True
    assert f["max_nash"] == 1.0
    assert max_util(u) == 3.0
    assert f["prop_fraction"] == 3.0
    assert f["sum_max_envies"] == -3.0
    assert f["mms_ok"] is True
    assert f["efpo_exists"] is True


def test_contention_closed_forms():
    u = gen_characteristic("CON", 3, 3)
    f = allocation_features(u, ALLOCATION_FEATURES)
    assert f["minimax_envy"] == 1.0
    assert f["ef_exists"] is False
    assert f["max_nash"] == 0.0
    assert max_util(u) == 1.0
    # the winner's own max envy is -1, so the optimal sum is 1+1-1
    assert f["sum_max_envies"] == 1.0
    assert f["mms_ok"] is True
    assert allocation_features(gen_characteristic("CON", 2, 5), ["mms_ok"])["mms_ok"] is True
    con2 = allocation_features(gen_characteristic("CON", 2, 2), ["prop_fraction", "efpo_exists"])
    assert con2["prop_fraction"] == 0.0
    assert con2["efpo_exists"] is False


def test_indifference_closed_forms():
    u = gen_characteristic("IND", 3, 6)
    f = allocation_features(u, ALLOCATION_FEATURES)
    assert f["minimax_envy"] == 0.0
    assert f["ef_exists"] is True
    # three bundles of two goods each: product (1/3)^3, up to accumulation ulps
    assert abs(f["max_nash"] - 1 / 27) < 1e-15
    assert abs(max_util(u) - 1.0) < 1e-15
    assert f["prop_fraction"] == 1.0
    assert f["sum_max_envies"] == 0.0
    assert f["efpo_exists"] is True


def test_mms_holds_on_resampling_sample():
    for seed in range(100):
        u = gen_resampling(3, 6, p=0.5, phi=0.4, seed=seed)
        assert allocation_features(u, ["mms_ok"])["mms_ok"], seed


# ---------------------------------------------------------- allocations


def test_enumeration_cap():
    big = allocation_features(gen_iid(10, 20, "uniform01", seed=1), ["minimax_envy"])
    assert isinstance(big["minimax_envy"], CapExceeded)
    assert big["minimax_envy"].n == 10 and big["minimax_envy"].m == 20
    u = gen_iid(3, 4, "uniform01", seed=1)
    assert isinstance(allocation_features(u, ["minimax_envy"], cap=80)["minimax_envy"], CapExceeded)
    assert isinstance(allocation_features(u, ["efpo_exists"], quad_cap=80)["efpo_exists"], CapExceeded)


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
    assert tab.rows[0]["efpo_exists"] is allocation_features(u, ["efpo_exists"])["efpo_exists"]


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
        f = allocation_features(
            u, ["minimax_envy", "ef_exists", "max_nash", "prop_fraction", "efpo_exists", "mms_shares"]
        )
        assert f["ef_exists"] is (f["minimax_envy"] <= 1e-9)
        assert f["max_nash"] >= 0.0
        assert f["prop_fraction"] >= 0.0
        if f["efpo_exists"]:
            assert f["ef_exists"]
        shares = f["mms_shares"]
        assert (shares >= -1e-12).all()
        assert (shares <= 1.0 + 1e-12).all()


def test_features_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    for seed in range(10):
        u = gen_iid(3, 4, "uniform01", seed=seed + 300)
        v = relabel(u, rng.permutation(3), rng.permutation(4))
        names = ["minimax_envy", "max_nash", "prop_fraction", "mms_ok"]
        fu, fv = allocation_features(u, names), allocation_features(v, names)
        assert abs(fu["minimax_envy"] - fv["minimax_envy"]) < 1e-12
        assert abs(fu["max_nash"] - fv["max_nash"]) < 1e-12
        assert abs(max_util(u) - max_util(v)) < 1e-12
        assert abs(fu["prop_fraction"] - fv["prop_fraction"]) < 1e-12
        assert fu["mms_ok"] == fv["mms_ok"]


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
    feats = matrix_row(validate(np.array([[1.0, 0.0], [0.0, 1.0]])))
    assert feats["preference_diversity"] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert feats["frac_single_minded"] == 1.0
    assert feats["max_demand"] == 1.0
    mixed = validate(np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.2, 0.3, 0.5, 0.0],
    ]))
    assert matrix_row(mixed)["frac_single_minded"] == 0.5


def test_single_minded_ignores_dust():
    arr = np.array([[1.0 - 1e-12, 1e-12], [0.5, 0.5]])
    assert matrix_row(validate(arr))["frac_single_minded"] == 0.5


def assert_matrix_columns_match_oracle(records):
    table = feature_table(records, MATRIX_FEATURES)
    assert table.labels == [rec.label for rec in records]
    for rec, row in zip(records, table.rows):
        assert list(row) == list(MATRIX_FEATURES)
        for name in MATRIX_FEATURES:
            want = MATRIX_FUNCTIONS[name](rec.matrix)
            assert same_bits(row[name], want), (rec.label, name, row[name], want)


@pytest.mark.parametrize("preset", ["3x6", "5x5", "10x20"])
@pytest.mark.parametrize("seed", [7, 1007])
def test_matrix_columns_match_per_instance_oracle_bitwise(preset, seed):
    assert_matrix_columns_match_oracle(gen_preset(preset, seed))


@pytest.mark.parametrize("preset", ["3x6", "5x5"])
def test_matrix_columns_in_blocks_match_oracle_bitwise(monkeypatch, preset):
    records = gen_preset(preset, 7)
    sizes = []
    columns = features._matrix_columns

    def spy(stack, names):
        sizes.append(len(stack))
        return columns(stack, names)

    monkeypatch.setattr(features, "_matrix_columns", spy)
    feature_table(records, MATRIX_FEATURES)
    assert sizes == [len(records)]  # the default bound keeps a preset one block
    sizes.clear()
    # 1000 entries: blocks of 9 (3x6) or 8 (5x5) records, the last one partial
    monkeypatch.setattr(features, "_MATRIX_BLOCK_ENTRIES", 1000)
    assert_matrix_columns_match_oracle(records)
    assert len(sizes) > 1 and sum(sizes) == len(records)


def test_matrix_columns_of_a_mixed_shape_table_match_oracle_bitwise():
    # shapes interleaved, so each shape's stack gathers records out of order;
    # ties throughout, and an all-zero row and matrix for the zero-mean Gini
    mats = [
        weights_matrix([[1, 1, 0, 2], [0, 0, 0, 0], [3, 0, 0, 0]]),
        weights_matrix([[1, 1, 1, 1, 1], [2, 0, 0, 0, 1]]),
        weights_matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        gen_iid(2, 5, "uniform01", seed=3),
        weights_matrix([[2, 2, 1, 1], [1, 2, 1, 2], [0, 3, 0, 3]]),
        gen_iid(4, 4, "uniform01", seed=4),
    ]
    assert_matrix_columns_match_oracle([record(f"r{k}", u) for k, u in enumerate(mats)])


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
    def boom(stack, names):
        raise AssertionError("matrix feature computed but not requested")

    recs = [record("a", gen_iid(3, 4, "uniform01", seed=3))]
    assert list(features._matrix_columns(np.stack([recs[0].matrix.values]), MATRIX_FEATURES)) == list(
        MATRIX_FEATURES
    )
    monkeypatch.setattr(features, "_matrix_columns", boom)
    tab = feature_table(recs, ALLOCATION_FEATURES)
    assert tab.columns == list(ALLOCATION_FEATURES) and not tab.reasons
    # _matrix_columns is where feature_table computes them: a requested one runs
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


@pytest.mark.parametrize(
    "names, message",
    [
        (["max_demand", "max_demand"], "feature 'max_demand' requested twice"),
        (["ef_exists", "max_demand", "ef_exists"], "feature 'ef_exists' requested twice"),
        ([], "no features requested"),
    ],
)
def test_feature_table_refuses_repeated_or_empty_lists(names, message):
    recs = [record("a", gen_iid(3, 4, "uniform01", seed=3))]
    with pytest.raises(ValidationError, match=message):
        feature_table(recs, features=names)
