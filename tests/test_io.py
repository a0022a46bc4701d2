import ast
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocmap import cli, dataio, pipeline
from allocmap.cli import build_parser, main
from allocmap.core import InstanceRecord, Source, ValidationError, check_labels, normalize_rows, validate
from allocmap.dataio import ParseError, fmt17
from allocmap.distance import DistanceMatrix, pairwise_distances
from allocmap.embedding import Embedding, mds_embed
from allocmap.features import ALLOCATION_FEATURES, FeatureTable, UnknownFeature, feature_table
from allocmap.generators import (
    MODEL_PARAMS,
    GeneratorSpec,
    gen_characteristic,
    gen_dataset,
    gen_iid,
)
from allocmap.pipeline import PipelineConfig, PipelineError, run_pipeline
from allocmap.render import render_svg


def record(label, u, model="test", seed=None):
    return InstanceRecord(label, Source(model, {}), seed, u)


def tiny_records(k=6, n=3, m=4):
    return [record(f"r{i}", gen_iid(n, m, "uniform01", seed=i)) for i in range(k)]


def svg_markers(path):
    tree = ET.parse(path)
    return [el for el in tree.getroot().iter() if el.get("class") == "pt"]


# ----------------------------------------------------------------- fmt17


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in [1 / 3, 0.1, 1e-17, 2 / 3, np.pi] + rng.random(50).tolist():
        assert float(fmt17(x)) == x


def test_distance_csv_row_format_is_fmt17(tmp_path):
    # write_distance_csv formats the values with "%.17g", which must give
    # fmt17's text for every finite double, signed zero and subnormals
    # included; the writer takes any row, so the drawn values need not form
    # a valid matrix
    path = tmp_path / "d.csv"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -1e-310, 1e308, -1e308]),
            min_size=1,
            max_size=6,
        )
    )
    def check(xs):
        dm = SimpleNamespace(labels=[f"c{i}" for i in range(len(xs))], values=np.array([xs]), metric="demand")
        dataio.write_distance_csv(path, dm)
        assert path.read_text().splitlines()[-1] == ",".join(fmt17(x) for x in xs)

    check()


# --------------------------------------------------------------- dataset

def _admitted(label):
    try:
        check_labels([label])
    except ValidationError:
        return False
    return True


_LABELS = st.text(min_size=1, max_size=8).filter(_admitted)
_PARAMS = st.dictionaries(
    st.text(max_size=5),
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    max_size=3,
)


@st.composite
def _datasets(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, 6))
    labels = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    records = []
    for label in labels:
        w = draw(
            hnp.arrays(np.float64, (n, m), elements=st.floats(0.0, 1e6))
            .filter(lambda w: w.sum(axis=1).all())
        )
        source = Source(draw(st.text(max_size=8)), draw(_PARAMS))
        seed = draw(st.none() | st.integers(0, 2**64 - 1))
        records.append(InstanceRecord(label, source, seed, normalize_rows(w)))
    return records, draw(st.none() | st.integers(0, 2**64 - 1))


def test_dataset_write_then_read_is_identity(tmp_path):
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_datasets())
    def check(dataset):
        records, seed = dataset
        path = tmp_path / "d.json"
        dataio.write_dataset(path, records, seed=seed)
        back, meta = dataio.read_dataset(path)
        assert meta["seed"] == seed
        assert [r.label for r in back] == [r.label for r in records]
        assert [r.source for r in back] == [r.source for r in records]
        assert [r.seed for r in back] == [r.seed for r in records]
        for got, want in zip(back, records):
            assert got.matrix.values.tobytes() == want.matrix.values.tobytes()

    check()


# --------------------------------------------------------- instance text


def test_instance_file_round_trip(tmp_path):
    u = gen_iid(4, 7, "exponential", seed=9)
    p = tmp_path / "inst.txt"
    p.write_text("4 7\n" + "".join(" ".join(fmt17(v) for v in row) + "\n" for row in u.values))
    back = dataio.ingest(p)[0].matrix.values
    assert np.array_equal(back, u.values)
    assert back.shape == (4, 7)


def test_instance_file_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ParseError):
        dataio.ingest(p)
    p.write_text("3\n")
    with pytest.raises(ParseError):
        dataio.ingest(p)
    p.write_text("2 2\n0.5 0.5\n")
    with pytest.raises(ParseError):
        dataio.ingest(p)
    p.write_text("2 2\n0.5 0.5\n0.5 oops\n")
    with pytest.raises(ParseError) as exc:
        dataio.ingest(p)
    assert exc.value.line == 3
    p.write_text("2 2\n0.5 0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ParseError):
        dataio.ingest(p)


# ---------------------------------------------------------- dataset JSON


def test_dataset_round_trip(tmp_path):
    recs = [
        record("con", gen_characteristic("CON", 3, 5), model="characteristic"),
        record("x0", gen_iid(3, 5, "uniform01", seed=4), model="iid", seed=77),
    ]
    p = tmp_path / "ds.json"
    dataio.write_dataset(p, recs, seed=123)
    back, meta = dataio.read_dataset(p)
    assert meta["seed"] == 123
    assert [r.label for r in back] == ["con", "x0"]
    assert back[1].seed == 77
    assert back[0].source.model == "characteristic"
    for a, b in zip(recs, back):
        assert np.array_equal(a.matrix.values, b.matrix.values)


def test_dataset_round_trip_is_bit_exact_at_scale(tmp_path):
    recs = [
        record(f"g{i}", gen_iid(4, 7, "exponential", seed=i), model="iid", seed=i)
        for i in range(60)
    ]
    p = tmp_path / "big.json"
    dataio.write_dataset(p, recs)
    back, _ = dataio.read_dataset(p)
    for a, b in zip(recs, back):
        assert np.array_equal(a.matrix.values, b.matrix.values), a.label
    # and writing what was read reproduces the file itself
    p2 = tmp_path / "copy.json"
    dataio.write_dataset(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_validate_is_idempotent_on_stored_values():
    for seed in range(40):
        u = gen_iid(3, 6, "uniform01", seed=seed)
        assert np.array_equal(validate(u.values).values, u.values)


def test_dataset_rejects_duplicates(tmp_path):
    recs = [record("a", gen_iid(2, 3, "uniform01", seed=1))] * 2
    with pytest.raises(ValidationError):
        dataio.write_dataset(tmp_path / "d.json", recs)


def test_dataset_parse_errors(tmp_path):
    p = tmp_path / "d.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        dataio.read_dataset(p)
    p.write_text(json.dumps({"format": "something-else", "instances": []}))
    with pytest.raises(ParseError):
        dataio.read_dataset(p)


# -------------------------------------------------------------- ingestion


def test_ingest_dataset_and_instance(tmp_path):
    recs = tiny_records(3)
    ds = tmp_path / "ds.json"
    dataio.write_dataset(ds, recs)
    got = dataio.ingest(ds)
    assert [r.label for r in got] == ["r0", "r1", "r2"]

    inst = tmp_path / "solo.txt"
    rows = recs[0].matrix.values
    inst.write_text("3 4\n" + "".join(" ".join(fmt17(v) for v in row) + "\n" for row in rows))
    got = dataio.ingest(inst)
    assert len(got) == 1
    assert got[0].label == "solo"
    assert got[0].source.model == "ingested"
    assert np.array_equal(got[0].matrix.values, recs[0].matrix.values)


def test_ingest_normalize(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("2 2\n1 1\n2 2\n")
    with pytest.raises(ValidationError):
        dataio.ingest(p)
    got = dataio.ingest(p, normalize=True)
    assert np.array_equal(got[0].matrix.values, gen_characteristic("IND", 2, 2).values)


def test_ingest_subsample(tmp_path, capsys):
    rng = np.random.default_rng(17)
    table = rng.random((6, 9))
    p = tmp_path / "wide.txt"
    with open(p, "w") as fh:
        fh.write("6 9\n")
        for row in table:
            fh.write(" ".join(fmt17(v) for v in row) + "\n")
    recs = dataio.ingest(p, subsample=(3, 4, 5), seed=8)
    assert [r.label for r in recs] == [f"wide_sub{t:03d}" for t in range(5)]
    for r in recs:
        assert r.matrix.values.shape == (3, 4)
        assert np.abs(r.matrix.values.sum(axis=1) - 1).max() < 1e-12
    again = dataio.ingest(p, subsample=(3, 4, 5), seed=8)
    for a, b in zip(recs, again):
        assert np.array_equal(a.matrix.values, b.matrix.values)
    other = dataio.ingest(p, subsample=(3, 4, 5), seed=9)
    assert not all(
        np.array_equal(a.matrix.values, b.matrix.values) for a, b in zip(recs, other)
    )
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        dataio.ingest(p, subsample=(3, 4, 0), seed=1)
    out = tmp_path / "sub.json"
    assert run_cli("ingest", p, "--subsample", 3, 4, -1, "-o", out) == 2
    assert not out.exists()
    with pytest.raises(ValidationError):
        dataio.ingest(p, subsample=(7, 4, 1), seed=1)
    assert run_cli("ingest", p, "--subsample", 3, 10, 1, "-o", out) == 2
    assert "cannot draw 3x10 instances from a 6x9 table" in capsys.readouterr().err
    # two of any three rows include a zero row, so no draw normalizes
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("3 2\n0 0\n0 0\n1 1\n")
    assert run_cli("ingest", sparse, "--subsample", 2, 2, 1, "-o", out) == 2
    assert "could not draw a normalizable 2x2 subtable in 100 tries" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ingest_subsample_of_dataset_exits_2(tmp_path, capsys):
    ds = tmp_path / "d.json"
    dataio.write_dataset(ds, tiny_records(3))
    out = tmp_path / "sub.json"
    assert run_cli("ingest", ds, "--subsample", 2, 2, 5, "-o", out) == 2
    assert "subsample" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ CSVs


def test_distance_csv_round_trip(tmp_path):
    recs = tiny_records(5)
    dm = pairwise_distances(recs, "demand")
    p = tmp_path / "d.csv"
    dataio.write_distance_csv(p, dm)
    labels, values, meta = dataio.read_distance_csv(p)
    assert labels == dm.labels
    assert meta["metric"] == "demand"
    assert np.array_equal(values, dm.values)
    assert p.read_text().startswith("# metric=demand\n")


def test_distance_csv_rejects_bad_labels(tmp_path):
    dm = DistanceMatrix(["a,b", "c"], np.zeros((2, 2)), "demand")
    with pytest.raises(ValidationError):
        dataio.write_distance_csv(tmp_path / "d.csv", dm)


def test_embedding_csv_round_trip(tmp_path):
    recs = tiny_records(5)
    dm = pairwise_distances(recs, "demand")
    emb = mds_embed(dm, seed=2)
    p = tmp_path / "e.csv"
    dataio.write_embedding_csv(p, dm.labels, emb)
    labels, pts, meta, header = dataio.read_points_csv(p)
    assert labels == dm.labels
    assert header == ["label", "x", "y"]
    assert np.array_equal(pts, emb.points)
    assert float(meta["stress"]) == emb.stress
    assert int(meta["iterations"]) == emb.iterations
    with pytest.raises(ValidationError, match="label count does not match point count"):
        dataio.write_embedding_csv(tmp_path / "short.csv", dm.labels[:-1], emb)
    assert not (tmp_path / "short.csv").exists()


def test_embedding_csv_degenerate_flag(tmp_path):
    emb = Embedding(np.zeros((2, 2)), 0.0, 0, np.array([0.0]), degenerate=True)
    p = tmp_path / "e.csv"
    dataio.write_embedding_csv(p, ["a", "b"], emb)
    _, _, meta, _ = dataio.read_points_csv(p)
    assert meta["degenerate"] == "1"


def test_explicit_csv_round_trip(tmp_path):
    from allocmap.spectral import explicit_coords

    recs = tiny_records(4)
    coords = explicit_coords(recs)
    p = tmp_path / "x.csv"
    dataio.write_explicit_csv(p, [r.label for r in recs], coords)
    labels, pts, _, header = dataio.read_points_csv(p)
    assert header == ["label", "sigma1", "sigma2"]
    assert np.array_equal(pts, coords)


def test_points_csv_parse_errors(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        dataio.read_points_csv(p)
    p.write_text("a,b\n")
    with pytest.raises(ParseError):
        dataio.read_points_csv(p)
    p.write_text("label,x,y\nfoo,1\n")
    with pytest.raises(ParseError):
        dataio.read_points_csv(p)


def test_features_csv_cells_and_reasons(tmp_path):
    recs = [
        record("small", gen_iid(3, 4, "uniform01", seed=1)),
        record("big", gen_iid(10, 20, "uniform01", seed=2)),
    ]
    table = feature_table(recs)
    p = tmp_path / "f.csv"
    dataio.write_features_csv(p, table)
    back = dataio.read_features_csv(p)
    labels, columns, rows = back.labels, back.columns, back.rows
    assert labels == ["small", "big"]
    assert columns == table.columns
    assert back.reasons == []
    assert rows[0]["ef_exists"] in (0.0, 1.0)
    assert rows[1]["minimax_envy"] is None
    assert rows[1]["max_demand"] == table.rows[1]["max_demand"]
    text = p.read_text()
    line_big = [ln for ln in text.splitlines() if ln.startswith("big,")][0]
    assert ",," in line_big  # absent cells stay empty

    side = tmp_path / "f_reasons.csv"
    assert side.exists()
    body = side.read_text().splitlines()
    assert body[0] == "label,feature,reason"
    assert all(ln.startswith("big,") for ln in body[1:])
    assert len(body) > 1


def test_csv_header_errors_name_the_header_line(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("# stress=0.5 iterations=3\nlabel,x\na,0\n")
    with pytest.raises(ParseError, match=r"^line 2: expected 'label,<x>,<y>' header"):
        dataio.read_points_csv(p)
    p.write_text("# note=x\n\nname,max_demand\na,0.5\n")
    with pytest.raises(ParseError, match=r"^line 3: first column must be 'label'"):
        dataio.read_features_csv(p)
    # a file that ends at its header names the header's line too
    p.write_text("# stress=0.5 iterations=3\nlabel,x,y\n")
    with pytest.raises(ParseError, match=r"^line 2: no data rows"):
        dataio.read_points_csv(p)
    p.write_text("# metric=demand\na,b\n")
    with pytest.raises(ParseError, match=r"^line 2: expected 2 data rows, found 0"):
        dataio.read_distance_csv(p)


def test_features_csv_refuses_a_repeated_column(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("# note=x\nlabel,max_demand,ef_exists,max_demand\na,0.5,1,0.25\n")
    with pytest.raises(ParseError, match=r"^line 2: column 'max_demand' appears twice$"):
        dataio.read_features_csv(p)
    p.write_text("label,max_demand,label\na,0.5,b\n")
    with pytest.raises(ParseError, match=r"^line 1: column 'label' appears twice$"):
        dataio.read_features_csv(p)


def test_features_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("# note=x\nlabel,max_demand\na,0.5\n\nb,zz\n")
    with pytest.raises(ParseError, match=r"line 5: not a number: 'zz'"):
        dataio.read_features_csv(p)


# ------------------------------------------------------------------ SVG


def test_render_svg_marker_classes(tmp_path):
    labels = ["a", "b", "c", "d"]
    # explicit points are (sigma1, sigma2), drawn sigma2 across
    points = [[1.0, 0.1], [1.2, 0.5], [0.8, 0.9], [1.1, 0.3]]
    records = [
        record(lab, gen_iid(3, 6, "uniform01", seed=i), model=model)
        for i, (lab, model) in enumerate(
            zip(labels, ["iid", "iid", "characteristic", "characteristic"])
        )
    ]
    features = FeatureTable(
        columns=["max_demand", "ef_exists"],
        labels=labels,
        rows=[
            {"max_demand": v, "ef_exists": ef}
            for v, ef in zip([0.0, 0.5, None, 1.0], [True, False, False, True])
        ],
        reasons=[],
    )
    p = tmp_path / "m.svg"
    render_svg(
        p, labels, points,
        explicit=True,
        records=records,
        features=features,
        color="max_demand",
        title="demo",
    )
    tree = ET.parse(p)
    markers = svg_markers(p)
    assert len(markers) == 4
    tags = [m.tag.split("}")[-1] for m in markers]
    assert tags.count("circle") == 1
    assert tags.count("path") == 3
    # star outranks cross on the last point: filled path, not a cross stroke
    stars = [m for m in markers if m.tag.endswith("path") and m.get("fill") != "none"]
    crosses = [m for m in markers if m.get("fill") == "none" and m.get("class") == "pt"]
    assert len(stars) == 2 and len(crosses) == 1
    titles = sorted(t.text for t in tree.getroot().iter() if t.tag.endswith("title"))
    assert titles == ["a", "b", "c", "d"]
    # dashed admissible-region outline present
    dashed = [
        el for el in tree.getroot().iter()
        if el.tag.endswith("path") and el.get("stroke-dasharray")
    ]
    assert len(dashed) == 1


def test_render_svg_category_colors(tmp_path):
    p = tmp_path / "c.svg"
    labels = ["a", "b", "c"]
    records = [
        record(lab, gen_iid(3, 4, "uniform01", seed=i), model=model)
        for i, (lab, model) in enumerate(zip(labels, ["iid", "resampling", "iid"]))
    ]
    render_svg(p, labels, [[0, 0], [1, 1], [2, 2]], records=records, by_source=True)
    markers = svg_markers(p)
    fills = [m.get("fill") for m in markers]
    assert fills[0] == fills[2] != fills[1]


def test_render_refuses_labels_and_titles_an_svg_cannot_carry(tmp_path, capsys):
    out = tmp_path / "m.svg"
    with pytest.raises(ValidationError, match=re.escape("label 'a\\x1bb' cannot contain characters XML 1.0 forbids")):
        render_svg(out, ["a\x1bb", "c"], [[0.0, 0.0], [1.0, 1.0]])
    assert not out.exists()
    dataio.write_explicit_csv(tmp_path / "x.csv", ["a", "c"], np.eye(2))
    assert run_cli("render", tmp_path / "x.csv", "--title", "x\x1by", "-o", out) == 2
    assert capsys.readouterr().err == "error: title 'x\\x1by' cannot contain characters XML 1.0 forbids\n"
    assert not out.exists()


def test_every_admitted_label_renders_to_a_parseable_svg(tmp_path):
    path = tmp_path / "m.svg"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(st.characters(exclude_categories=()), min_size=1, max_size=8).filter(_admitted))
    def check(label):
        render_svg(path, [label], [[0.0, 0.0]], title=label)
        root = ET.parse(path).getroot()
        assert [el.text for el in root.iter("{http://www.w3.org/2000/svg}title")] == [label]
        assert [el.text for el in root.iter("{http://www.w3.org/2000/svg}text") if el.get("font-size") == "15"] == [label]

    check()


# ------------------------------------------------------------------ CLI


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_generate_and_chain(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "--seed", 5, "--out-dir", out, "generate",
        "--model", "iid", "--n", 3, "--m", 4, "--count", 6,
    )
    assert code == 0
    ds = out / "dataset.json"
    records, meta = dataio.read_dataset(ds)
    assert len(records) == 6 and meta["seed"] == 5

    assert run_cli("--out-dir", out, "distance", ds, "--metric", "demand") == 0
    dcsv = out / "distances_demand.csv"
    assert run_cli("--seed", 3, "--out-dir", out, "embed", dcsv) == 0
    assert run_cli("--out-dir", out, "explicit", ds) == 0
    assert run_cli("--out-dir", out, "features", ds) == 0
    assert run_cli(
        "--out-dir", out, "render", out / "embedding.csv",
        "--dataset", ds, "--features-csv", out / "features.csv",
        "--color", "max_demand",
    ) == 0
    svg = out / "map.svg"
    assert len(svg_markers(svg)) == 6
    # neither --color nor --by-source: every point gets the one plain fill
    # and the map has no legend
    plain = out / "plain.svg"
    assert run_cli("render", out / "embedding.csv", "-o", plain) == 0
    assert {m.get("fill") for m in svg_markers(plain)} == {"#4477aa"}
    tags = [el.tag.split("}")[-1] for el in ET.parse(plain).getroot().iter()]
    assert set(tags) == {"svg", "rect", "line", "text", "circle", "title"}
    assert tags.count("rect") == 1
    for name in ("embedding.csv", "explicit.csv", "features.csv", "features_reasons.csv"):
        assert (out / name).exists()


def test_cli_explicit_output_path_wins(tmp_path):
    target = tmp_path / "deep" / "my_ds.json"
    code = run_cli(
        "--out-dir", tmp_path / "ignored", "generate",
        "--model", "characteristic", "--kind", "SEP", "--n", 3, "--m", 3,
        "-o", target,
    )
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_exit_codes(tmp_path):
    # validation error: n < 2
    assert run_cli(
        "--out-dir", tmp_path, "generate", "--model", "iid", "--n", 1, "--m", 4
    ) == 2
    # cap error: exact search on n = 9
    big = tmp_path / "big.json"
    assert run_cli(
        "--out-dir", tmp_path, "generate", "--model", "iid",
        "--n", 9, "--m", 9, "--count", 2, "-o", big,
    ) == 0
    assert run_cli(
        "--out-dir", tmp_path, "distance", big, "--metric", "valuation"
    ) == 3
    # parse error and missing file
    junk = tmp_path / "junk.json"
    junk.write_text("{broken")
    assert run_cli("--out-dir", tmp_path, "distance", junk) == 4
    assert run_cli("--out-dir", tmp_path, "distance", tmp_path / "absent.json") == 4


def test_cli_render_non_numeric_feature_cell(tmp_path):
    pts = tmp_path / "p.csv"
    pts.write_text("label,x,y\na,0,0\nb,1,1\n")
    feats = tmp_path / "f.csv"
    feats.write_text("label,max_demand\na,0.5\nb,zz\n")
    code = run_cli(
        "render", pts, "--features-csv", feats, "--color", "max_demand",
        "-o", tmp_path / "m.svg",
    )
    assert code == 4
    assert not (tmp_path / "m.svg").exists()


BAD_INPUT_FILES = {
    "ragged_distance_csv": ("embed", b"# metric=demand\na,b\n0,1\n1\n", 4, "line 4: expected 2 fields, found 1"),
    "inf_distance": ("embed", b"a,b\n0,inf\ninf,0\n", 4, "line 2: not a finite number: 'inf'"),
    "nan_distance": ("embed", b"a,b\n0,nan\nnan,0\n", 4, "line 2: not a finite number: 'nan'"),
    "nonzero_diagonal": ("embed", b"a,b\n1,1\n1,0\n", 2, "distance matrix diagonal is not zero"),
    "asymmetric_distance": ("embed", b"a,b\n0,1\n1.000001,0\n", 2, "distance matrix is not symmetric"),
    "latin1_dataset": ("distance", b'{"format": "caf\xe9"}', 4, "line 1: not UTF-8 text"),
    "latin1_distance_csv": ("embed", b"caf\xe9,b\n0,1\n1,0\n", 4, "line 1: not UTF-8 text"),
    "latin1_instance": ("ingest", b"2 2\n0.5 0.5\n\xe9 1\n", 4, "line 1: not UTF-8 text"),
    "header_only_points": ("render", b"label,sigma1,sigma2\n", 4, "no data rows"),
    "nan_points": ("render", b"label,x,y\na,0,nan\nb,1,1\n", 4, "line 2: not a finite number: 'nan'"),
    "repeated_distance_label": ("embed", b"a,a\n0,1\n1,0\n", 4, "line 1: label 'a' appears twice"),
    "repeated_points_label": ("render", b"label,x,y\na,0,0\na,1,1\n", 4, "line 3: label 'a' appears twice"),
    "repeated_features_label": (
        "render points.csv --features-csv", b"label,max_demand\na,0.5\na,0.25\n", 4,
        "line 3: label 'a' appears twice",
    ),
    "repeated_features_column": (
        "render points.csv --features-csv", b"label,max_demand,max_demand\na,0.5,0.25\n", 4,
        "line 1: column 'max_demand' appears twice",
    ),
    "blank_distance_label": ("embed", b" ,b\n0,1\n1,0\n", 4, "line 1: label ' ' is blank"),
    "blank_points_label": ("render", b"label,x,y\na,0,0\n ,1,1\n", 4, "line 3: label ' ' is blank"),
    "blank_features_label": (
        "render points.csv --features-csv", b"label,max_demand\n\t,0.5\n", 4, "line 2: label '\\t' is blank",
    ),
    # the squares of 1e200 overflow, so no stress of these points is finite
    "overflowing_distances": (
        "embed", b"a,b,c\n0,1e200,1e200\n1e200,0,1e200\n1e200,1e200,0\n", 2, "distances too large to embed",
    ),
    "empty_dataset_explicit": (
        "explicit", b'{"format": "allocmap-dataset", "instances": []}', 2, "need at least one instance, got none",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_cli_bad_input_file(tmp_path, capsys, monkeypatch, case):
    # the command's words come before the bad file; points.csv is a good one
    command, content, code, message = BAD_INPUT_FILES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.csv").write_text("label,x,y\na,0,0\nb,1,1\n")
    p = tmp_path / "input"
    p.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli(*command.split(), p, "-o", out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--color", "max_demand"], "coloring by 'max_demand' needs a features table"),
        (["--by-source"], "coloring by source needs the dataset"),
    ],
    ids=["color", "by_source"],
)
def test_cli_render_annotation_without_its_input_exits_2(tmp_path, capsys, flags, message):
    pts = tmp_path / "p.csv"
    pts.write_text("label,x,y\na,0,0\nb,1,1\n")
    out = tmp_path / "m.svg"
    assert run_cli("render", pts, *flags, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_render_features_missing_a_label_exits_2(tmp_path, capsys):
    # a point without a features row is an error, not a grey capped cell
    pts = tmp_path / "p.csv"
    pts.write_text("label,x,y\na,0,0\nb,1,1\n")
    feats = tmp_path / "f.csv"
    feats.write_text("label,max_demand\na,0.5\n")
    out = tmp_path / "m.svg"
    code = run_cli("render", pts, "--features-csv", feats, "--color", "max_demand", "-o", out)
    assert code == 2
    assert "labels missing from features table: ['b']" in capsys.readouterr().err
    assert not out.exists()


def test_render_color_outside_the_features_table_exits_2(tmp_path, capsys):
    table = FeatureTable(
        columns=["max_demand"], labels=["a", "b"], rows=[{"max_demand": 0.5}, {"max_demand": 0.7}], reasons=[]
    )
    out = tmp_path / "m.svg"
    with pytest.raises(UnknownFeature, match="unknown feature 'pickiness'"):
        render_svg(out, ["a", "b"], np.array([[0.0, 0.0], [1.0, 1.0]]), features=table, color="pickiness")
    pts = tmp_path / "p.csv"
    pts.write_text("label,x,y\na,0,0\nb,1,1\n")
    feats = tmp_path / "f.csv"
    feats.write_text("label,max_demand\na,0.5\nb,0.7\n")
    assert run_cli("render", pts, "--features-csv", feats, "--color", "pickiness", "-o", out) == 2
    assert "unknown feature 'pickiness'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -2])
def test_cli_generate_count_below_one_exits_2(tmp_path, capsys, count):
    out = tmp_path / "d.json"
    assert run_cli(
        "generate", "--model", "iid", "--n", 2, "--m", 3, "--count", count, "-o", out
    ) == 2
    assert "count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, threads):
    # every command refuses it before reading a file: each input is missing,
    # which would exit 4 if it were read first, and nothing is written
    missing, run = tmp_path / "missing.json", tmp_path / "run"
    out = run / "out"
    for argv in (
        ["generate", "--preset", "3x6", "-o", out],
        ["ingest", missing, "-o", out],
        ["distance", missing, "-o", out],
        ["embed", missing, "-o", out],
        ["explicit", missing, "-o", out],
        ["features", missing, "-o", out],
        ["render", missing, "-o", out],
        ["pipeline", "--dataset", missing],
        ["pipeline", "--preset", "3x6"],
    ):
        assert run_cli("--threads", threads, "--out-dir", run, *argv) == 2, argv
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err, argv
        assert not run.exists(), argv


SMACOF_FLAGS = [
    (["--max-iters", 0], "max_iters must be >= 1, got 0"),
    (["--tol", 0], "tol must be > 0, got 0.0"),
    (["--tol", "nan"], "tol must be > 0, got nan"),
    (["--restarts", 0], "restarts must be >= 1, got 0"),
]


@pytest.mark.parametrize("flag, message", SMACOF_FLAGS, ids=["max-iters", "tol-0", "tol-nan", "restarts"])
def test_cli_smacof_flags_refused_before_any_work(tmp_path, capsys, flag, message):
    # the input is missing, which would exit 4 if it were read first, and the
    # valuation preset run would compute its whole matrix before the embedding
    missing, run = tmp_path / "missing.csv", tmp_path / "run"
    for argv in (
        ["embed", missing, "-o", run / "e.csv"],
        ["pipeline", "--dataset", missing],
        ["pipeline", "--preset", "3x6", "--metric", "valuation"],
    ):
        assert run_cli("--out-dir", run, *argv, *flag) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
        assert not run.exists(), argv


def _dataset_doc(**changes):
    item = {
        "label": "a",
        "source": {"model": "iid", "params": {}},
        "seed": 1,
        "matrix": ["0.5 0.5 0", "0 0.5 0.5"],
    }
    item.update(changes)
    return {"format": "allocmap-dataset", "version": 1, "seed": 0, "instances": [item]}


MALFORMED_DATASETS = {
    "no_instances": {"format": "allocmap-dataset", "version": 1},
    "top_level_list": [_dataset_doc()],
    "instances_not_a_list": {"format": "allocmap-dataset", "instances": {"a": 1}},
    "instance_not_an_object": {"format": "allocmap-dataset", "instances": [["a"]]},
    "no_label": {"format": "allocmap-dataset", "instances": [{"matrix": []}]},
    "label_not_a_string": _dataset_doc(label=5),
    "no_seed": {
        "format": "allocmap-dataset",
        "instances": [{k: v for k, v in _dataset_doc()["instances"][0].items() if k != "seed"}],
    },
    "source_without_params": _dataset_doc(source={"model": "iid"}),
    "matrix_not_a_list": _dataset_doc(matrix="0.5 0.5"),
    "matrix_row_not_a_string": _dataset_doc(matrix=[[0.5, 0.5], [0.5, 0.5]]),
    "ragged_rows": _dataset_doc(matrix=["0.5 0.5 0", "1"]),
    "non_numeric_cell": _dataset_doc(matrix=["0.5 0.5 0", "0 x 0.5"]),
    "label_with_comma": _dataset_doc(label="a,b"),
    "label_with_form_feed": _dataset_doc(label="a\x0cb"),
    "label_starting_with_hash": _dataset_doc(label="#a"),
    "blank_label": _dataset_doc(label=" "),
    "repeated_label": {"format": "allocmap-dataset", "instances": _dataset_doc()["instances"] * 2},
    "nan_param": _dataset_doc(source={"model": "resampling", "params": {"p": float("nan")}}),
    "infinite_version": {**_dataset_doc(), "version": -float("inf")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_cli_malformed_dataset_exits_4(tmp_path, capsys, monkeypatch, case):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(MALFORMED_DATASETS[case]))
    with pytest.raises(ParseError):
        dataio.read_dataset(p)

    def unreachable(*args, **kwargs):
        raise AssertionError("distances computed for an unreadable dataset")

    monkeypatch.setattr(cli, "pairwise_distances", unreachable)
    assert run_cli("--out-dir", tmp_path, "distance", p, "--metric", "valuation") == 4
    assert capsys.readouterr().err.startswith("error: line 1: ")
    assert not (tmp_path / "distances_valuation.csv").exists()


def test_dataset_non_numeric_cell_names_instance_and_row(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(MALFORMED_DATASETS["non_numeric_cell"]))
    with pytest.raises(ParseError, match=r"^line 1: instance 0, matrix row 1: not a number: 'x'$"):
        dataio.read_dataset(p)


BAD_SEEDS = {"nan": float("nan"), "string": "x", "float": 1.5, "bool": True, "list": [1]}


@pytest.mark.parametrize("level", ["instance", "dataset"])
@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_dataset_seed_that_is_not_an_integer_or_null_exits_4(tmp_path, capsys, level, case):
    doc = _dataset_doc()
    (doc["instances"][0] if level == "instance" else doc)["seed"] = BAD_SEEDS[case]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    where = "instance 0" if level == "instance" else "dataset"
    message = f"line 1: {where}: 'seed' must be a JSON integer or null"
    with pytest.raises(ParseError, match=f"^{message}$"):
        dataio.read_dataset(p)
    out = tmp_path / "out.json"
    assert run_cli("ingest", p, "-o", out) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64 - 1, None])
def test_dataset_seed_round_trip(tmp_path, seed):
    doc = _dataset_doc(seed=seed)
    doc["seed"] = seed
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    records, meta = dataio.read_dataset(p)
    assert records[0].seed == seed and meta["seed"] == seed
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    dataio.write_dataset(once, records, seed=meta["seed"])
    back, meta = dataio.read_dataset(once)
    assert back[0].seed == seed and meta["seed"] == seed
    dataio.write_dataset(twice, back, seed=meta["seed"])
    assert twice.read_bytes() == once.read_bytes()


def test_write_dataset_refuses_non_standard_json(tmp_path):
    with pytest.raises(ValueError):
        dataio.write_dataset(tmp_path / "w.json", tiny_records(2), seed=float("nan"))


def test_cli_features_alloc_cap(tmp_path, capsys):
    ds = make_input_dataset(tmp_path)
    out = tmp_path / "f.csv"
    assert run_cli("features", ds, "--alloc-cap", 80, "-o", out) == 0
    rows = dataio.read_features_csv(out).rows
    capped = [f for f in ALLOCATION_FEATURES if f not in ("max_util", "efpo_exists")]
    assert all(row[f] is None for row in rows for f in capped)
    assert all(row["efpo_exists"] is not None for row in rows)
    # --cap is the exact valuation-search limit and no longer a features flag
    with pytest.raises(SystemExit) as exc:
        run_cli("features", ds, "--cap", 80)
    assert exc.value.code == 2


def test_cli_features_makes_the_reasons_parent_directory(tmp_path):
    ds = make_input_dataset(tmp_path)
    flags = ("features", ds, "--alloc-cap", 80)
    assert run_cli(*flags, "-o", tmp_path / "nd1" / "f.csv", "--reasons", tmp_path / "nd2" / "r.csv") == 0
    assert run_cli(*flags, "-o", tmp_path / "g.csv") == 0
    assert (tmp_path / "nd1" / "f.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
    assert (tmp_path / "nd2" / "r.csv").read_bytes() == (tmp_path / "g_reasons.csv").read_bytes()


# Commands that need no SciPy, run in the files test_fresh_interpreter_loads_no_scipy makes.
_NO_SCIPY_COMMANDS = {
    "--help": ["--help"],
    "usage error": ["generate", "--bogus"],
    "generate": ["--seed", "7", "generate", "--preset", "3x6", "-o", "g.json"],
    "ingest": ["ingest", "input.json", "-o", "i.json"],
    "explicit": ["explicit", "input.json", "-o", "x.csv"],
    "features": ["features", "input.json", "-o", "f.csv"],
    "render": ["render", "p.csv", "--title", "t", "-o", "m.svg"],
}
# Each row is a statement and the modules besides SciPy's that it must not load.
_FRESH_ROWS = {
    **{
        f"import {m}": (f"import {m}", ())
        for m in ("allocmap" + ("" if p.stem == "__init__" else f".{p.stem}") for p in Path(cli.__file__).parent.glob("*.py"))
    },
    "import allocmap.generators": ("import allocmap.generators", ("allocmap.dataio",)),
    **{
        f"allocmap {name}": (f"from allocmap import cli; sys.exit(cli.main({argv!r}))", ())
        for name, argv in _NO_SCIPY_COMMANDS.items()
    },
}


@pytest.mark.parametrize("row", sorted(_FRESH_ROWS))
def test_fresh_interpreter_loads_no_scipy(tmp_path, row):
    # a fresh interpreter, since this one has imported SciPy already
    statement, watched = _FRESH_ROWS[row]
    make_input_dataset(tmp_path)
    dataio.write_explicit_csv(tmp_path / "p.csv", ["a", "b"], np.eye(2))
    code = (
        f"import sys\ntry:\n    {statement}\nfinally:\n"
        f"    print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' or m in {watched!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == (2 if row == "allocmap usage error" else 0), run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "names, message",
    [("max_demand,max_demand", "feature 'max_demand' requested twice"), ("", "no features requested")],
    ids=["repeated", "empty"],
)
def test_cli_features_refuses_repeated_or_empty_list(tmp_path, capsys, monkeypatch, names, message):
    ds = make_input_dataset(tmp_path)

    def unreachable(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(dataio, "read_dataset", unreachable)
    out = tmp_path / "f.csv"
    assert run_cli("features", ds, "--features", names, "-o", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_generate_preset(tmp_path):
    ds = tmp_path / "p.json"
    assert run_cli("--seed", 1, "generate", "--preset", "3x6", "-o", ds) == 0
    records, _ = dataio.read_dataset(ds)
    assert len(records) == 165
    kinds = [r.label for r in records if r.source.model == "characteristic"]
    assert sorted(kinds) == ["BIC", "CON", "IND", "SEP", "WSEP"]


@pytest.mark.parametrize("flags", [["--model", "iid"], ["--n", 3], ["--m", 6]])
def test_cli_generate_preset_with_model_exits_2(tmp_path, capsys, flags):
    ds = tmp_path / "p.json"
    assert run_cli("generate", "--preset", "3x6", *flags, "-o", ds) == 2
    assert "--preset or --model" in capsys.readouterr().err
    assert not ds.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--model", "iid", "--n", 3, "--m", 4, "--p", 0.3, "--kind", "SEP"],
            "generate --model iid does not take --kind, --p",
        ),
        (["--preset", "3x6", "--count", 5], "generate --preset 3x6 does not take --count"),
        (["--preset", "5x5", "--dist", "exponential"], "generate --preset 5x5 does not take --dist"),
        (
            ["--model", "characteristic", "--n", 3, "--m", 3, "--phi", 0.2],
            "generate --model characteristic does not take --phi",
        ),
    ],
)
def test_cli_generate_flag_the_choice_does_not_take_exits_2(tmp_path, capsys, argv, message):
    ds = tmp_path / "d.json"
    assert run_cli("generate", *argv, "-o", ds) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not ds.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", 3, "--m", 4], "generate needs --preset or --model with --n and --m"),
        (
            ["--model", "characteristic", "--kind", "IND", "--count", 2, "--n", 3, "--m", 4],
            "label 'IND' appears twice",
        ),
    ],
    ids=["no_choice", "repeated_characteristic"],
)
def test_cli_generate_without_a_dataset_to_make_exits_2(tmp_path, capsys, argv, message):
    ds = tmp_path / "d.json"
    assert run_cli("generate", *argv, "-o", ds) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ds.exists()


@pytest.mark.parametrize(
    "model, params, count",
    [
        ("iid", {"dist": "exponential"}, 3),
        ("attributes", {"d": 4}, 3),
        ("resampling", {"p": 0.3, "phi": 0.7}, 3),
        ("characteristic", {"kind": "WSEPf"}, 1),
    ],
)
def test_cli_generate_model_matches_gen_dataset(tmp_path, model, params, count):
    flags = [x for name, value in params.items() for x in (f"--{name}", value)]
    got = tmp_path / "cli.json"
    assert run_cli(
        "--seed", 4, "generate", "--model", model, "--n", 3, "--m", 5,
        "--count", count, *flags, "-o", got,
    ) == 0
    want = tmp_path / "lib.json"
    dataio.write_dataset(
        want, gen_dataset([GeneratorSpec(model, count, params)], 3, 5, 4), seed=4
    )
    assert got.read_bytes() == want.read_bytes()


def test_cli_generate_fills_model_defaults(tmp_path):
    for model, defaults in MODEL_PARAMS.items():
        got = tmp_path / f"{model}_cli.json"
        assert run_cli("generate", "--model", model, "--n", 3, "--m", 4, "-o", got) == 0
        want = tmp_path / f"{model}_lib.json"
        dataio.write_dataset(want, gen_dataset([GeneratorSpec(model, 1, defaults)], 3, 4, 0), seed=0)
        assert got.read_bytes() == want.read_bytes(), model


def test_cli_non_matrix_names_its_shape(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(_dataset_doc(matrix=[])))
    assert run_cli("--out-dir", tmp_path, "distance", p) == 2
    assert "got shape (0,)" in capsys.readouterr().err


def test_cli_empty_dataset_exits_2(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps({"format": "allocmap-dataset", "seed": 0, "instances": []}))
    assert run_cli("distance", p, "-o", tmp_path / "dist.csv") == 2
    assert not (tmp_path / "dist.csv").exists()
    out = tmp_path / "run"
    assert run_cli("--out-dir", out, "pipeline", "--dataset", p) == 2
    assert list(out.glob("*")) == []
    with pytest.raises(PipelineError) as exc:
        run_pipeline(PipelineConfig(out_dir=str(out), dataset_path=str(p)))
    assert exc.value.stage == "distances"


@pytest.mark.parametrize("preset, dataset", [("3x6", "d.json"), (None, None)], ids=["both", "neither"])
def test_run_pipeline_needs_one_of_preset_and_dataset(tmp_path, preset, dataset):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="^exactly one of preset or dataset_path must be set$"):
        run_pipeline(PipelineConfig(out_dir=str(out), preset=preset, dataset_path=dataset))
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_run_pipeline_refuses_threads_below_one_before_it_starts(tmp_path, threads):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        run_pipeline(PipelineConfig(out_dir=str(out), preset="3x6", threads=threads))
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [({"max_iters": 0}, "max_iters must be >= 1, got 0"), ({"tol": float("nan")}, "tol must be > 0, got nan"),
     ({"restarts": 0}, "restarts must be >= 1, got 0")],
    ids=["max_iters", "tol", "restarts"],
)
def test_run_pipeline_refuses_smacof_arguments_before_it_starts(tmp_path, changes, message):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pipeline(PipelineConfig(out_dir=str(out), preset="3x6", metric="valuation", **changes))
    assert not out.exists()


def test_pipeline_one_instance_fails_in_dataset_stage(tmp_path, capsys):
    ds = tmp_path / "one.json"
    assert run_cli(
        "generate", "--model", "iid", "--n", 2, "--m", 3, "--count", 1, "-o", ds
    ) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("--out-dir", out, "pipeline", "--dataset", ds) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline stage 'dataset' failed: need at least 2 instances")
    assert "Traceback" not in err
    assert list(out.glob("*")) == []


def test_write_dataset_rejects_labels_with_commas(tmp_path):
    with pytest.raises(ValidationError, match="label 'a,b' cannot contain commas"):
        dataio.write_dataset(tmp_path / "w.json", [record("a,b", gen_iid(2, 3, "uniform01", seed=1))])
    assert not (tmp_path / "w.json").exists()
    # an instance file's stem becomes its label
    inst = tmp_path / "a,b.txt"
    inst.write_text("2 3\n0.5 0.25 0.25\n0.25 0.25 0.5\n")
    assert run_cli("ingest", inst, "-o", tmp_path / "i.json") == 2
    assert not (tmp_path / "i.json").exists()


# labels just outside the rule, with the fault each is refused for (a comma: the test above)
REFUSED_LABELS = {
    " ": "is blank",
    "\t": "is blank",
    "\xa0": "is blank",
    "#a": "cannot start with '#'",
    "#": "cannot start with '#'",
    **{f"a{c}b": "cannot contain commas or line breaks" for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
    **{f"a{c}b": "cannot contain characters XML 1.0 forbids" for c in "\x01\x08\x0e\x1b\x1f\ufffe\uffff"},
}
# labels just inside it: each ends up one cell of every CSV
KEPT_LABELS = [" #a", "a#", "\ta", "a ", "\xa0a", "a\tb", "a;b", '"a"', "a=b", "é", "a\x7fb", "\ufffd", "\U0010ffff"]


@pytest.mark.parametrize("label", sorted(REFUSED_LABELS))
def test_label_outside_the_rule_is_refused_on_write_and_ingest(tmp_path, capsys, label):
    fault = f"label {label!r} {REFUSED_LABELS[label]}"
    with pytest.raises(ValidationError, match=re.escape(fault)):
        dataio.write_dataset(tmp_path / "w.json", [record(label, gen_iid(2, 3, "uniform01", seed=1))])
    assert not (tmp_path / "w.json").exists()
    # an instance file's stem becomes its label
    inst = tmp_path / f"{label}.txt"
    inst.write_text("2 3\n0.5 0.25 0.25\n0.25 0.25 0.5\n")
    assert run_cli("ingest", inst, "-o", tmp_path / "i.json") == 2
    assert capsys.readouterr().err == f"error: {fault}\n"
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("label", ["a\x00b", "a\ud800b", "\udfff"])
def test_label_no_file_name_can_hold_is_refused_on_write_and_read(tmp_path, label):
    fault = f"label {label!r} cannot contain characters XML 1.0 forbids"
    with pytest.raises(ValidationError, match=re.escape(fault)):
        dataio.write_dataset(tmp_path / "w.json", [record(label, gen_iid(2, 3, "uniform01", seed=1))])
    assert not (tmp_path / "w.json").exists()
    dataio.write_dataset(tmp_path / "d.json", [record("a", gen_iid(2, 3, "uniform01", seed=1))])
    doc = json.loads((tmp_path / "d.json").read_text())
    doc["instances"][0]["label"] = label
    (tmp_path / "d.json").write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"line 1: {fault}")):
        dataio.read_dataset(tmp_path / "d.json")


def test_labels_at_the_edges_of_the_rule_round_trip_through_every_csv(tmp_path):
    for label in REFUSED_LABELS:
        with pytest.raises(ValidationError):
            dataio.write_explicit_csv(tmp_path / "x.csv", [label], np.zeros((1, 2)))
    recs = [record(label, gen_iid(2, 3, "uniform01", seed=k)) for k, label in enumerate(KEPT_LABELS)]
    dataio.write_dataset(tmp_path / "d.json", recs)
    assert [r.label for r in dataio.read_dataset(tmp_path / "d.json")[0]] == KEPT_LABELS
    dm = pairwise_distances(recs, "demand")
    dataio.write_distance_csv(tmp_path / "d.csv", dm)
    labels, values, _ = dataio.read_distance_csv(tmp_path / "d.csv")
    assert labels == KEPT_LABELS and np.array_equal(values, dm.values)
    emb = mds_embed(dm, seed=0)
    dataio.write_embedding_csv(tmp_path / "e.csv", KEPT_LABELS, emb)
    coords = np.arange(2.0 * len(recs)).reshape(-1, 2)
    dataio.write_explicit_csv(tmp_path / "x.csv", KEPT_LABELS, coords)
    for name, points in (("e.csv", emb.points), ("x.csv", coords)):
        labels, pts, _, _ = dataio.read_points_csv(tmp_path / name)
        assert labels == KEPT_LABELS and np.array_equal(pts, points)
    table = feature_table(recs, ["max_demand"])
    dataio.write_features_csv(tmp_path / "f.csv", table)
    assert dataio.read_features_csv(tmp_path / "f.csv").labels == KEPT_LABELS


# PipelineConfig field, which names the pipeline's flag -> stage command sharing the flag
SHARED_FLAGS = {
    "preset": ["generate"],
    "metric": ["distance", "d.json"],
    "valuation_cap": ["distance", "d.json"],
    "max_iters": ["embed", "d.csv"],
    "tol": ["embed", "d.csv"],
    "restarts": ["embed", "d.csv"],
    "features": ["features", "d.json"],
    "alloc_cap": ["features", "d.json"],
    "quad_cap": ["features", "d.json"],
}


@pytest.mark.parametrize("field", sorted(SHARED_FLAGS))
def test_pipeline_flag_defaults_match_config_and_stage(field):
    default = getattr(build_parser().parse_args(["pipeline"]), field)
    assert default == getattr(PipelineConfig(out_dir="."), field)
    assert default == getattr(build_parser().parse_args(SHARED_FLAGS[field]), field)


# ------------------------------------------------------------- pipeline


PIPELINE_FILES = (
    "dataset.json",
    "distances_demand.csv",
    "embedding.csv",
    "explicit.csv",
    "features.csv",
    "features_reasons.csv",
    "map_embedding_source.svg",
    "map_embedding_max_demand.svg",
    "map_explicit_source.svg",
    "map_explicit_max_demand.svg",
)


def make_input_dataset(tmp_path, n=3, m=4, k=7):
    recs = [
        record(f"r{i}", gen_iid(n, m, "uniform01", seed=i), model="iid", seed=i)
        for i in range(k)
    ]
    ds = tmp_path / "input.json"
    dataio.write_dataset(ds, recs, seed=0)
    return ds


def test_cli_pipeline_artifacts_and_determinism(tmp_path, capsys):
    ds = make_input_dataset(tmp_path)
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run_cli("--seed", 7, "--out-dir", out1, "pipeline", "--dataset", ds) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(os.path.basename(p) for p in printed) == sorted(PIPELINE_FILES)
    assert run_cli("--seed", 7, "--out-dir", out2, "pipeline", "--dataset", ds) == 0
    for name in PIPELINE_FILES:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_cli_pipeline_failure_cleans_up(tmp_path):
    ds = make_input_dataset(tmp_path, n=9, m=9, k=3)
    out = tmp_path / "broken"
    code = run_cli(
        "--out-dir", out, "pipeline", "--dataset", ds, "--metric", "valuation"
    )
    assert code == 3
    leftovers = list(out.glob("*")) if out.exists() else []
    assert leftovers == []


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--features", "minimax_envy"], "'max_demand'"),
        (["--features", "max_demand,envy"], "'envy'"),
        (["--color", "envy"], "'envy'"),
        (["--features", "max_demand,ef_exists,max_demand"], "'max_demand' requested twice"),
        (["--features", ""], "no features requested"),
    ],
)
def test_cli_pipeline_checks_features_before_any_work(tmp_path, capsys, monkeypatch, flags, named):
    def no_distances(*args, **kwargs):
        raise AssertionError("distances were computed")

    monkeypatch.setattr(pipeline, "pairwise_distances", no_distances)
    out = tmp_path / "run"
    assert run_cli("--out-dir", out, "pipeline", "--preset", "3x6", *flags) == 2
    assert named in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_pipeline_interrupt_is_not_a_stage_failure(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "mds_embed", interrupted)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(PipelineConfig(out_dir=str(out), dataset_path=str(make_input_dataset(tmp_path))))
    assert list(out.glob("*")) == []


def test_cli_pipeline_alloc_caps(tmp_path):
    out = tmp_path / "capped"
    assert run_cli("--out-dir", out, "pipeline", "--preset", "3x6", "--quad-cap", 100) == 0
    back = dataio.read_features_csv(out / "features.csv")
    labels, rows = back.labels, back.rows
    assert len(labels) == 165
    for row in rows:
        assert row["efpo_exists"] is None
        assert all(row[f] is not None for f in ALLOCATION_FEATURES if f != "efpo_exists")
    reasons = (out / "features_reasons.csv").read_text().splitlines()
    assert reasons[1:] == [
        f"{label},efpo_exists,n^m = 3^6 allocations exceed the cap 100" for label in labels
    ]
    # --alloc-cap reaches every other enumerated feature (3^4 = 81 allocations)
    out2 = tmp_path / "alloc"
    ds = make_input_dataset(tmp_path)
    assert run_cli("--out-dir", out2, "pipeline", "--dataset", ds, "--alloc-cap", 80) == 0
    rows = dataio.read_features_csv(out2 / "features.csv").rows
    capped = [f for f in ALLOCATION_FEATURES if f not in ("max_util", "efpo_exists")]
    assert all(row[f] is None for row in rows for f in capped)
    assert all(row["efpo_exists"] is not None and row["max_util"] is not None for row in rows)


def test_cli_render_reproduces_pipeline_maps(tmp_path, capsys):
    recs = [
        record(f"r{i}", gen_iid(3, 4, "uniform01", seed=i), model="iid", seed=i)
        for i in range(5)
    ]
    recs += [record(kind, gen_characteristic(kind, 3, 4), model="characteristic") for kind in ("SEP", "CON")]
    ds = tmp_path / "input.json"
    dataio.write_dataset(ds, recs, seed=0)
    out = tmp_path / "run"
    assert run_cli("--seed", 7, "--out-dir", out, "pipeline", "--dataset", ds) == 0
    maps = {
        "embedding": "demand distance map",
        "explicit": "singular-value map",
    }
    for kind, title in maps.items():
        for coloring, flags in (("source", ["--by-source"]), ("max_demand", ["--color", "max_demand"])):
            name = f"map_{kind}_{coloring}.svg"
            assert run_cli(
                "render", out / f"{kind}.csv",
                "--dataset", out / "dataset.json",
                "--features-csv", out / "features.csv",
                *flags, "--title", title, "-o", tmp_path / name,
            ) == 0
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


def test_pipeline_comma_label_fails_in_dataset_stage(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(_dataset_doc(label="a,b")))
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as exc:
        run_pipeline(PipelineConfig(out_dir=str(out), dataset_path=str(p)))
    assert exc.value.stage == "dataset"
    assert isinstance(exc.value.cause, ParseError)
    assert list(out.glob("*")) == []


def test_pipeline_writes_every_file_through_one_writer(tmp_path, monkeypatch):
    ds = make_input_dataset(tmp_path)
    written = []
    write = dataio._write_text

    def recording(path, lines):
        written.append(str(path))
        write(path, lines)

    monkeypatch.setattr(dataio, "_write_text", recording)
    out = tmp_path / "run"
    run_pipeline(PipelineConfig(out_dir=str(out), dataset_path=str(ds), seed=3))
    assert len(written) == len(set(written)) == len(PIPELINE_FILES)
    assert sorted(written) == sorted(str(p) for p in out.iterdir())


# ------------------------------------------------------------- source scan


def _file_calls():
    """(module, enclosing function, call) for every call in the package that
    opens a file or writes to one."""
    names = {
        "open", "write", "write_text", "write_bytes", "ElementTree", "dump", "save", "savetxt", "tofile"
    }
    found = []
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        stack = []

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            def visit_Call(self, node):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.append((path.stem, ".".join(stack), ast.unparse(node)))
                self.generic_visit(node)

        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_files_are_opened_only_by_the_dataio_reader_and_writer():
    assert _file_calls() == [
        ("dataio", "_read_text", "open(path, encoding='utf-8')"),
        ("dataio", "_write_text", "open(path, 'w', encoding='utf-8', newline='\\n')"),
        ("dataio", "_write_text", "fh.write(line + '\\n')"),
    ]
