"""File formats: instance text (read only), dataset JSON, and the CSV surfaces.

Floats are serialized with 17 significant digits everywhere, which
round-trips 64-bit values exactly; reading back a written file reproduces
matrices bit for bit. Every numeric table row (an instance row of the
dataset JSON, a distance CSV row, the coordinates of a point CSV row) is
formatted by ``_float_rows``, which formats each distinct value once, so a
symmetric distance CSV formats about half its cells and the instance rows
of one width in a dataset take one call; ``fmt17`` formats single values.
Matrix rows inside the dataset JSON use the same space-separated row syntax
as the single-instance text format.
Every label follows ``core.check_labels``: writing one that breaks the rule
is a ValidationError, reading one a ParseError that names its line.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Iterator

import numpy as np

from .core import InstanceRecord, ParseError, Source, ValidationError, check_labels, check_shape, normalize_rows, validate
from .distance import DistanceMatrix
from .embedding import Embedding
from .features import FeatureTable

DATASET_FORMAT = "allocmap-dataset"


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _float_rows(arr: np.ndarray, sep: str) -> Iterator[str]:
    """Each row of a 2-D array as its cells in fmt17's text, joined by
    ``sep``, made row by row as the iterator is read. Each distinct bit
    pattern is formatted once: unique is taken on the int64 view, so 0.0 and
    -0.0 keep their own text."""
    bits, cells = np.unique(np.ascontiguousarray(arr, dtype=np.float64).ravel().view(np.int64), return_inverse=True)
    # "%.17g" % x is fmt17(x) on the Python floats of tolist()
    text = np.array(["%.17g" % x for x in bits.view(np.float64).tolist()], dtype=object)
    return (sep.join(text[row].tolist()) for row in cells.reshape(arr.shape))


def _parse_floats(tokens: list[str], line_no: int, context: str = "") -> list[float]:
    out = []
    for tok in tokens:
        try:
            x = float(tok)
        except ValueError:
            raise ParseError(line_no, f"{context}not a number: {tok!r}") from None
        if not math.isfinite(x):
            raise ParseError(line_no, f"{context}not a finite number: {tok!r}")
        out.append(x)
    return out


def _read_text(path) -> str:
    """The whole file as UTF-8 text; this is the only place a file is opened
    for reading."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(1, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _write_text(path, lines) -> None:
    """Write each line and a "\n" after it, as UTF-8; this is the only place
    a file is opened for writing."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------- instance text


def _parse_instance_array(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"expected integer dimensions, got {lines[0]!r}") from None
    rows = []
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ParseError(len(lines), f"expected {n} rows, found {len(body)}")
    for k, ln in enumerate(body, start=2):
        vals = _parse_floats(ln.split(), k)
        if len(vals) != m:
            raise ParseError(k, f"expected {m} values, found {len(vals)}")
        rows.append(vals)
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------- dataset JSON


def _rows_to_matrix(rows: list, where: str) -> np.ndarray:
    if not all(isinstance(r, str) for r in rows):
        raise ParseError(1, f"{where}: matrix rows must be JSON strings")
    values = [_parse_floats(r.split(), 1, f"{where}, matrix row {k}: ") for k, r in enumerate(rows)]
    if len({len(v) for v in values}) > 1:
        raise ParseError(1, f"{where}: matrix rows differ in length")
    return np.array(values, dtype=np.float64)


_JSON_TYPES = {str: "string", dict: "object", list: "array"}


def _field(obj: dict, key: str, kind: type, where: str):
    """obj[key], which a well-formed dataset always has with this type."""
    value = obj.get(key)
    if not isinstance(value, kind):
        raise ParseError(1, f"{where}: {key!r} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _seed(obj: dict, where: str) -> int | None:
    """obj's 'seed', an integer or null; an absent dataset seed reads as null."""
    value = obj.get("seed")
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise ParseError(1, f"{where}: 'seed' must be a JSON integer or null")
    return value


def write_dataset(path, records: list[InstanceRecord], seed: int | None = None) -> None:
    """Write the records as dataset JSON; the matrix rows of all instances of
    one width are formatted in one ``_float_rows`` call."""
    check_labels([r.label for r in records])
    widths: dict[int, list[np.ndarray]] = {}
    for rec in records:
        widths.setdefault(rec.matrix.m, []).append(rec.matrix.values)
    rows = {m: _float_rows(np.concatenate(arrs), " ") for m, arrs in widths.items()}
    doc = {
        "format": DATASET_FORMAT,
        "version": 1,
        "seed": seed,
        "instances": [
            {
                "label": rec.label,
                "source": {"model": rec.source.model, "params": rec.source.params},
                "seed": rec.seed,
                "matrix": list(itertools.islice(rows[rec.matrix.m], rec.matrix.n)),
            }
            for rec in records
        ],
    }
    _write_text(path, [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)])


def read_dataset(path) -> tuple[list[InstanceRecord], dict]:
    return _parse_dataset(_read_text(path))


def _parse_dataset(text: str) -> tuple[list[InstanceRecord], dict]:
    # json.loads takes NaN, Infinity and -Infinity anywhere; each is refused
    # once the structure is checked, so a non-finite seed fails as a seed
    nonfinite = []

    def constant(name):
        nonfinite.append(name)
        return float(name)

    try:
        doc = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except (ValueError, RecursionError) as exc:
        # an integer too long to convert, or nesting too deep to decode
        raise ParseError(1, str(exc)) from None
    if not isinstance(doc, dict) or doc.get("format") != DATASET_FORMAT:
        raise ParseError(1, f"not a {DATASET_FORMAT} file")
    records = []
    for index, item in enumerate(_field(doc, "instances", list, "dataset")):
        where = f"instance {index}"
        if not isinstance(item, dict):
            raise ParseError(1, f"{where} must be a JSON object")
        label = _field(item, "label", str, where)
        source = _field(item, "source", dict, where)
        if "seed" not in item:
            raise ParseError(1, f"{where}: 'seed' is missing")
        records.append(
            InstanceRecord(
                label=label,
                source=Source(
                    _field(source, "model", str, where), dict(_field(source, "params", dict, where))
                ),
                seed=_seed(item, where),
                matrix=validate(_rows_to_matrix(_field(item, "matrix", list, where), where)),
            )
        )
    # like every structural fault of the document, reported at line 1
    check_labels([rec.label for rec in records], [1] * len(records))
    meta = {"seed": _seed(doc, "dataset"), "version": doc.get("version")}
    if nonfinite:
        raise ParseError(1, f"not a finite number: {nonfinite[0]!r}")
    return records, meta


# ---------------------------------------------------------------- ingestion


def ingest(
    path,
    normalize: bool = False,
    subsample: tuple[int, int, int] | None = None,
    seed: int | None = None,
) -> list[InstanceRecord]:
    """Read instances from a dataset JSON or an instance text file.

    With ``subsample=(n, m, k)`` the file is treated as one wide raw table
    and k instances are drawn from it: n agents and m goods sampled without
    replacement per instance (child seed per index), rows re-normalized.
    """
    text = _read_text(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if text[:1] == "{":
        if subsample is not None:
            raise ValidationError("subsample draws from an instance text table, not a dataset")
        records, _ = _parse_dataset(text)
        if normalize:
            for rec in records:
                rec.matrix = normalize_rows(rec.matrix.values)
        return records
    table = _parse_instance_array(text)
    if subsample is not None:
        return _subsample(table, stem, subsample, seed if seed is not None else 0)
    builder = normalize_rows if normalize else validate
    return [
        InstanceRecord(
            label=stem,
            source=Source("ingested", {"path": os.path.basename(path)}),
            seed=None,
            matrix=builder(table),
        )
    ]


def _subsample(
    table: np.ndarray, stem: str, shape: tuple[int, int, int], seed: int
) -> list[InstanceRecord]:
    n, m, k = shape
    check_shape(n, m)
    if k < 1:
        raise ValueError(f"count must be >= 1, got {k}")
    rows, cols = table.shape
    if n > rows or m > cols:
        raise ValidationError(
            f"cannot draw {n}x{m} instances from a {rows}x{cols} table"
        )
    records = []
    for t in range(k):
        child = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        rng = np.random.default_rng(child)
        for _ in range(100):
            agent_idx = np.sort(rng.choice(rows, size=n, replace=False))
            good_idx = np.sort(rng.choice(cols, size=m, replace=False))
            sub = table[np.ix_(agent_idx, good_idx)]
            if (sub.sum(axis=1) > 0).all() and (sub >= 0).all():
                break
        else:
            raise ValidationError(
                f"could not draw a normalizable {n}x{m} subtable in 100 tries"
            )
        records.append(
            InstanceRecord(
                label=f"{stem}_sub{t:03d}",
                source=Source(
                    "subsample",
                    {"path": stem, "n": n, "m": m, "seed": seed, "index": t},
                ),
                seed=seed,
                matrix=normalize_rows(sub),
            )
        )
    return records


# ---------------------------------------------------------------- CSV surfaces


def write_distance_csv(path, dm: DistanceMatrix) -> None:
    check_labels(dm.labels)
    _write_text(path, itertools.chain([f"# metric={dm.metric}", ",".join(dm.labels)], _float_rows(dm.values, ",")))


def _read_csv(path) -> tuple[dict, tuple[int, list[str]], list[tuple[int, list[str]]]]:
    """Split a CSV into the key=value pairs of its '#' comment lines,
    (file line, fields) of its header and (file line, fields) for each data
    row. Blank lines are skipped; every row has as many fields as the header."""
    meta: dict = {}
    header = None
    rows = []
    for line_no, ln in enumerate(_read_text(path).splitlines(), start=1):
        if ln.startswith("#"):
            for part in ln[1:].split():
                if "=" in part:
                    key, val = part.split("=", 1)
                    meta[key] = val
        elif not ln.strip():
            continue
        elif header is None:
            header_line, header = line_no, ln.split(",")
        else:
            fields = ln.split(",")
            if len(fields) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, found {len(fields)}")
            rows.append((line_no, fields))
    if header is None:
        raise ParseError(1, "no header line")
    return meta, (header_line, header), rows


def read_distance_csv(path) -> tuple[list[str], np.ndarray, dict]:
    meta, (header_line, labels), rows = _read_csv(path)
    check_labels(labels, [header_line] * len(labels))
    if len(rows) != len(labels):
        raise ParseError(
            rows[-1][0] if rows else header_line, f"expected {len(labels)} data rows, found {len(rows)}"
        )
    values = np.array([_parse_floats(fields, i) for i, fields in rows], dtype=np.float64)
    return labels, values, meta


def _write_points(path, labels: list[str], points, what: str, header: list[str]) -> None:
    """A 'label,<x>,<y>' CSV of k x 2 points; the ``header`` lines come first."""
    check_labels(labels)
    if not labels:
        raise ValidationError("need at least one instance, got none")
    if len(labels) != points.shape[0]:
        raise ValidationError(f"label count does not match {what} count")
    rows = [f"{lab},{row}" for lab, row in zip(labels, _float_rows(points, ","))]
    _write_text(path, header + rows)


def write_embedding_csv(path, labels: list[str], emb: Embedding) -> None:
    flag = " degenerate=1" if emb.degenerate else ""
    header = [f"# stress={fmt17(emb.stress)} iterations={emb.iterations}{flag}", "label,x,y"]
    _write_points(path, labels, emb.points, "point", header)


def write_explicit_csv(path, labels: list[str], coords: np.ndarray) -> None:
    _write_points(path, labels, coords, "coordinate", ["label,sigma1,sigma2"])


def read_points_csv(path) -> tuple[list[str], np.ndarray, dict, list[str]]:
    """Read an embedding or explicit-map CSV: (labels, k x 2 points, comment
    metadata, column header)."""
    meta, (header_line, header), rows = _read_csv(path)
    if len(header) != 3 or header[0] != "label":
        raise ParseError(
            header_line, f"expected 'label,<x>,<y>' header, got {','.join(header)!r}"
        )
    if not rows:
        raise ParseError(header_line, "no data rows")
    labels = [fields[0] for _, fields in rows]
    check_labels(labels, [i for i, _ in rows])
    pts = [_parse_floats(fields[1:], i) for i, fields in rows]
    return labels, np.array(pts, dtype=np.float64), meta, header


def write_features_csv(path, table: FeatureTable, reasons_path=None) -> None:
    """Feature table CSV plus the sidecar reasons file for absent cells."""
    check_labels(table.labels)
    lines = ["# sum_max_envies=min-over-allocations", "label," + ",".join(table.columns)]
    for lab, row in zip(table.labels, table.rows):
        cells = ["" if row[name] is None else fmt17(row[name]) for name in table.columns]
        lines.append(",".join([lab, *cells]))
    _write_text(path, lines)
    reasons = ["label,feature,reason"]
    for label, feature, reason in table.reasons:
        clean = reason.replace(",", ";").replace("\n", " ")
        reasons.append(f"{label},{feature},{clean}")
    _write_text(_reasons_path(path) if reasons_path is None else reasons_path, reasons)


def _reasons_path(path) -> str:
    root, ext = os.path.splitext(str(path))
    return f"{root}_reasons{ext or '.csv'}"


def read_features_csv(path) -> FeatureTable:
    """A features CSV as a FeatureTable; the sidecar reasons file is not read,
    so ``reasons`` is empty."""
    _, (header_line, header), rows = _read_csv(path)
    if header[0] != "label":
        raise ParseError(header_line, "first column must be 'label'")
    columns = header[1:]
    for k, name in enumerate(columns):
        if name in header[: k + 1]:
            raise ParseError(header_line, f"column {name!r} appears twice")
    labels = [fields[0] for _, fields in rows]
    check_labels(labels, [i for i, _ in rows])
    values = [
        {
            name: None if cell == "" else _parse_floats([cell], i)[0]
            for name, cell in zip(columns, fields[1:])
        }
        for i, fields in rows
    ]
    return FeatureTable(columns=columns, labels=labels, rows=values, reasons=[])
