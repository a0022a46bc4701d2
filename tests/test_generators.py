import numpy as np
import pytest

from allocmap.core import BadDimensions
from allocmap.generators import (
    CHARACTERISTIC_KINDS,
    GeneratorSpec,
    gen_attributes,
    gen_characteristic,
    gen_dataset,
    gen_iid,
    gen_preset,
    gen_resampling,
    preset_specs,
)


def test_characteristic_exact_matrices():
    ind = gen_characteristic("IND", 2, 4)
    assert np.array_equal(ind.values, np.full((2, 4), 0.25))

    sep = gen_characteristic("SEP", 3, 5)
    expect = np.zeros((3, 5))
    expect[[0, 1, 2], [0, 1, 2]] = 1.0
    assert np.array_equal(sep.values, expect)

    con = gen_characteristic("CON", 3, 4)
    expect = np.zeros((3, 4))
    expect[:, 0] = 1.0
    assert np.array_equal(con.values, expect)


def test_characteristic_wsep_leftover_goods():
    # 2 agents, 5 goods: blocks of 2, the fifth good unvalued
    w = gen_characteristic("WSEP", 2, 5).values
    assert np.array_equal(w[0], [0.5, 0.5, 0, 0, 0])
    assert np.array_equal(w[1], [0, 0, 0.5, 0.5, 0])


def test_characteristic_wsepf_shares_leftovers():
    w = gen_characteristic("WSEPf", 2, 5).values
    # private goods worth n/m = 0.4, shared leftover gets the rest
    assert np.allclose(w[0], [0.4, 0.4, 0, 0, 0.2])
    assert np.allclose(w[1], [0, 0, 0.4, 0.4, 0.2])


def test_wsep_equals_wsepf_when_divisible():
    for n, m in ((2, 4), (3, 6), (5, 5)):
        a = gen_characteristic("WSEP", n, m).values
        b = gen_characteristic("WSEPf", n, m).values
        assert np.array_equal(a, b), (n, m)


def test_characteristic_bic_blocks():
    b = gen_characteristic("BIC", 5, 5).values
    assert np.array_equal(b[:, 0], [1, 1, 0, 0, 0])
    assert np.array_equal(b[:, 1], [0, 0, 1, 1, 0])
    assert np.array_equal(b[:, 2], [0, 0, 0, 0, 1])
    # even n needs no third good
    b4 = gen_characteristic("BIC", 4, 4).values
    assert b4[:, 2:].sum() == 0.0


def test_characteristic_bic_odd_needs_three_goods():
    # odd n needs a third good for the leftover agent; m >= n >= 3 already
    # guarantees that, so the dedicated guard only fires behind the shape check
    with pytest.raises(BadDimensions):
        gen_characteristic("BIC", 3, 2)
    b = gen_characteristic("BIC", 3, 3).values
    assert np.array_equal(b, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_characteristic_rejects_unknown_kind_and_shape():
    with pytest.raises(ValueError):
        gen_characteristic("XYZ", 3, 3)
    with pytest.raises(BadDimensions):
        gen_characteristic("IND", 1, 3)
    with pytest.raises(BadDimensions):
        gen_characteristic("IND", 4, 3)


def test_all_characteristics_row_stochastic():
    for kind in CHARACTERISTIC_KINDS:
        for n, m in ((2, 2), (2, 5), (3, 7), (4, 9), (6, 6)):
            u = gen_characteristic(kind, n, m)
            assert np.allclose(u.values.sum(axis=1), 1.0), (kind, n, m)


def test_iid_reproducible_and_seed_sensitive():
    a = gen_iid(3, 6, "uniform01", seed=7)
    b = gen_iid(3, 6, "uniform01", seed=7)
    c = gen_iid(3, 6, "uniform01", seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.allclose(a.values.sum(axis=1), 1.0)


def test_iid_distributions_differ():
    a = gen_iid(4, 8, "uniform01", seed=3)
    b = gen_iid(4, 8, "exponential", seed=3)
    assert not np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        gen_iid(4, 8, "gaussian", seed=3)


def test_attributes_d1_rows_identical():
    """One latent dimension makes every row a rescaling of the same goods
    vector, so normalized rows coincide."""
    u = gen_attributes(5, 6, d=1, seed=11)
    assert np.abs(u.values - u.values[0]).max() < 1e-12


def test_attributes_params():
    a = gen_attributes(3, 6, d=2, seed=5)
    b = gen_attributes(3, 6, d=2, seed=5)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        gen_attributes(3, 6, d=0, seed=5)


def test_resampling_rows_split_evenly():
    u = gen_resampling(4, 10, p=0.4, phi=0.3, seed=21)
    for row in u.values:
        positive = row[row > 0]
        assert positive.size >= 1
        # equal split over the approved set
        assert np.allclose(positive, 1.0 / positive.size)


def test_resampling_phi_zero_copies_central_set():
    # no noise: every agent approves exactly the central set
    u = gen_resampling(5, 10, p=0.4, phi=0.0, seed=33)
    assert np.abs(u.values - u.values[0]).max() == 0.0
    assert (u.values[0] > 0).sum() == 4  # floor(p*m)


def test_resampling_phi_one_matches_p():
    # full noise: each cell approves independently with probability p
    total = 0
    cells = 0
    for s in range(40):
        u = gen_resampling(5, 20, p=0.3, phi=1.0, seed=1000 + s)
        total += (u.values > 0).sum()
        cells += u.values.size
    rate = total / cells
    # 4 sigma window for a binomial with N=4000 (empty-row patching is rare)
    assert abs(rate - 0.3) < 4 * np.sqrt(0.3 * 0.7 / cells) + 0.01


def test_resampling_param_validation():
    with pytest.raises(ValueError):
        gen_resampling(3, 6, p=0.0, phi=0.5, seed=1)
    with pytest.raises(ValueError):
        gen_resampling(3, 6, p=1.2, phi=0.5, seed=1)
    with pytest.raises(ValueError):
        gen_resampling(3, 6, p=0.5, phi=-0.1, seed=1)
    # p=1 is allowed: everyone approves everything when phi=0
    u = gen_resampling(3, 6, p=1.0, phi=0.0, seed=1)
    assert np.allclose(u.values, 1.0 / 6)


def test_dataset_labels_and_child_seeds():
    specs = [
        GeneratorSpec("iid", 3, {"dist": "uniform01"}),
        GeneratorSpec("resampling", 2, {"p": 0.4, "phi": 0.2}),
        GeneratorSpec("characteristic", 1, {"kind": "IND"}),
    ]
    records = gen_dataset(specs, 3, 6, seed=99)
    labels = [r.label for r in records]
    assert labels == [
        "iid_uniform_000",
        "iid_uniform_001",
        "iid_uniform_002",
        "resamp_p0.4_phi0.2_000",
        "resamp_p0.4_phi0.2_001",
        "IND",
    ]
    # stored child seed regenerates the instance standalone
    rec = records[1]
    again = gen_iid(3, 6, "uniform01", seed=rec.seed)
    assert np.array_equal(rec.matrix.values, again.values)
    rec = records[3]
    again = gen_resampling(3, 6, p=0.4, phi=0.2, seed=rec.seed)
    assert np.array_equal(rec.matrix.values, again.values)
    # characteristic instances carry no seed
    assert records[-1].seed is None


def test_dataset_seed_changes_everything():
    specs = [GeneratorSpec("iid", 4, {"dist": "exponential"})]
    a = gen_dataset(specs, 3, 6, seed=1)
    b = gen_dataset(specs, 3, 6, seed=2)
    for ra, rb in zip(a, b):
        assert not np.array_equal(ra.matrix.values, rb.matrix.values)


def test_dataset_same_prefix_counter_continues():
    specs = [
        GeneratorSpec("iid", 2, {"dist": "uniform01"}),
        GeneratorSpec("iid", 2, {"dist": "uniform01"}),
    ]
    records = gen_dataset(specs, 3, 6, seed=5)
    assert [r.label for r in records] == [
        "iid_uniform_000",
        "iid_uniform_001",
        "iid_uniform_002",
        "iid_uniform_003",
    ]


def test_dataset_refuses_an_unknown_model():
    with pytest.raises(ValueError, match="unknown generator model 'bogus'"):
        gen_dataset([GeneratorSpec("iid", 1, {"dist": "uniform01"}), GeneratorSpec("bogus", 1)], 3, 6, seed=0)


def test_preset_sizes_and_shapes():
    for name, total, shape in (("3x6", 165, (3, 6)), ("5x5", 165, (5, 5)), ("10x20", 171, (10, 20))):
        records = gen_preset(name, seed=0)
        assert len(records) == total, name
        assert all(r.matrix.values.shape == shape for r in records)
        labels = [r.label for r in records]
        assert len(set(labels)) == len(labels)


def test_preset_composition_3x6():
    records = gen_preset("3x6", seed=0)
    models = {}
    for r in records:
        models[r.source.model] = models.get(r.source.model, 0) + 1
    assert models == {"attributes": 40, "resampling": 40, "iid": 80, "characteristic": 5}
    kinds = [r.label for r in records if r.source.model == "characteristic"]
    assert sorted(kinds) == ["BIC", "CON", "IND", "SEP", "WSEP"]


def test_preset_composition_10x20():
    records = gen_preset("10x20", seed=0)
    models = {}
    for r in records:
        models[r.source.model] = models.get(r.source.model, 0) + 1
    assert models == {"resampling": 168, "characteristic": 3}


def test_preset_specs_rejects_unknown():
    with pytest.raises(ValueError):
        preset_specs("7x7")
