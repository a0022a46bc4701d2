"""Mutation fuzzing of the readers: whatever text a file holds, reading it
ends in a result, a ParseError or a ValidationError, never another
exception (which the command line would show as a traceback)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from allocmap import dataio
from allocmap.core import ValidationError
from allocmap.dataio import ParseError
from allocmap.distance import pairwise_distances
from allocmap.embedding import mds_embed
from allocmap.features import feature_table
from allocmap.generators import gen_iid
from oracles import record


@pytest.fixture(scope="module")
def seeds(tmp_path_factory) -> dict:
    """One well-formed file of each kind, as written by allocmap."""
    d = tmp_path_factory.mktemp("seeds")
    recs = [record(f"r{k}", gen_iid(3, 4, "uniform01", seed=k)) for k in range(3)]
    dm = pairwise_distances(recs, "demand")
    dataio.write_dataset(d / "dataset.json", recs, seed=0)
    dataio.write_distance_csv(d / "distances.csv", dm)
    dataio.write_embedding_csv(d / "points.csv", dm.labels, mds_embed(dm.values, 0))
    table = feature_table(recs, ["max_demand", "ef_exists", "minimax_envy"], cap=80)
    dataio.write_features_csv(d / "features.csv", table)
    (d / "instance.txt").write_text("3 4\n0.25 0.25 0.25 0.25\n1 0 0 0\n0 0.5 0 0.5\n")
    return {path.stem: path.read_text() for path in d.iterdir() if "_reasons" not in path.stem}


READERS = {
    "dataset": (dataio.read_dataset, dataio.ingest, lambda p: dataio.ingest(p, normalize=True)),
    "instance": (dataio.ingest, lambda p: dataio.ingest(p, normalize=True)),
    "distances": (dataio.read_distance_csv,),
    "points": (dataio.read_points_csv,),
    "features": (dataio.read_features_csv,),
}

# Pieces of the formats and their edge cases, spliced in by the mutations.
TOKENS = (
    "", ",", "\n", "\r\n", " ", "\t", "#", "=", "-", ".", "e", "0", "1", "9", "-0", "-1", "0.5",
    "nan", "inf", "-inf", "1e400", "1e-400", "1e308", "99999999999999999999", "label", "max_demand",
    "a", '"', "{", "}", "[", "]", ":", "null", "true", "é", " ", "\x00", "﻿",
    "1e308 1e308", "9" * 5000, "[" * 5000,
)
EDIT = st.tuples(
    st.sampled_from(("delete", "insert", "replace", "repeat_line", "drop_line")),
    st.integers(0, 1 << 16),
    st.integers(1, 6),
    st.sampled_from(TOKENS) | st.text(st.characters(exclude_categories=("Cs",)), max_size=3),
)


def mutate(text: str, edits) -> str:
    for op, where, width, token in edits:
        if op in ("repeat_line", "drop_line"):
            lines = text.split("\n")
            k = where % len(lines)
            lines[k:k + 1] = [lines[k]] * (2 if op == "repeat_line" else 0)
            text = "\n".join(lines)
            continue
        at = where % (len(text) + 1)
        end = at if op == "insert" else at + width
        text = text[:at] + ("" if op == "delete" else token) + text[end:]
    return text


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_raise_only_parse_or_validation_errors(tmp_path, seeds, kind):
    path = tmp_path / f"{kind}.txt"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(EDIT, min_size=1, max_size=4))
    def check(edits):
        path.write_text(mutate(seeds[kind], edits), encoding="utf-8")
        for read in READERS[kind]:
            try:
                read(path)
            except (ParseError, ValidationError):
                pass

    check()


@pytest.mark.parametrize(
    "text, error, message",
    [
        ('{"format": "allocmap-dataset", "instances": ' + "[" * 5000, ParseError, "recursion depth"),
        ('{"format": "allocmap-dataset", "instances": [], "seed": ' + "9" * 5000 + "}",
         ParseError, "Exceeds the limit"),
        ("2 2\n1e308 1e308\n1 0\n", ValidationError, "row 0 sums to"),
    ],
    ids=["deep_nesting", "long_integer", "row_sum_overflow"],
)
def test_reader_faults_found_by_fuzzing(tmp_path, text, error, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    for normalize in (False, True):
        with pytest.raises(error, match=message):
            dataio.ingest(path, normalize=normalize)


def test_seed_texts_read_back(seeds, tmp_path):
    # the mutations start from files every reader accepts
    for kind, readers in READERS.items():
        path = tmp_path / f"{kind}.txt"
        path.write_text(seeds[kind], encoding="utf-8")
        for read in readers:
            read(path)
