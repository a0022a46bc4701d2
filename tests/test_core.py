import numpy as np
import pytest

from allocmap.core import (
    NON_XML_CHAR,
    BadDimensions,
    NegativeEntry,
    RowSumViolation,
    ShapeMismatch,
    UtilityMatrix,
    ZeroRow,
    normalize_rows,
    validate,
)


def test_validate_accepts_row_stochastic():
    u = validate([[0.5, 0.5], [0.25, 0.75]])
    assert isinstance(u, UtilityMatrix)
    assert u.n == 2 and u.m == 2
    assert u.values.dtype == np.float64


def test_validate_renormalizes_within_tolerance():
    # row sums off by less than 1e-9 get divided back to exactly-normalized
    arr = np.array([[0.5, 0.5 + 4e-10], [0.3, 0.7]])
    u = validate(arr)
    assert abs(u.values[0].sum() - 1.0) < 1e-15
    # and the original array is untouched
    assert arr[0, 1] == 0.5 + 4e-10


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumViolation):
        validate([[0.6, 0.6], [0.5, 0.5]])


def test_validate_rejects_negative_entries():
    with pytest.raises(NegativeEntry):
        validate([[1.1, -0.1], [0.5, 0.5]])
    # tiny negatives are still negatives, no tolerance on sign
    with pytest.raises(NegativeEntry):
        validate([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])


def test_validate_rejects_bad_shapes():
    with pytest.raises(BadDimensions):
        validate([[1.0]])  # n=1
    with pytest.raises(BadDimensions):
        validate([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.25, 0.25, 0.5]])  # m < n
    with pytest.raises(BadDimensions):
        validate(np.ones((2, 2, 2)) / 2)


def test_values_are_read_only():
    u = validate([[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(ValueError):
        u.values[0, 0] = 2.0


def test_normalize_rows_point_table():
    # rows carrying 100 points apiece, the usual raw-survey shape
    raw = [[20.0, 30.0, 50.0], [100.0, 0.0, 0.0]]
    u = normalize_rows(raw)
    assert np.allclose(u.values, [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])


def test_normalize_rows_zero_row():
    with pytest.raises(ZeroRow) as exc:
        normalize_rows([[0.0, 0.0], [1.0, 2.0]])
    assert exc.value.row == 0


def test_normalize_rows_rejects_negatives():
    with pytest.raises(NegativeEntry):
        normalize_rows([[2.0, -1.0], [1.0, 1.0]])


def test_shape_mismatch_message():
    err = ShapeMismatch((2, 3), (3, 3))
    assert "(2, 3)" in str(err) and "(3, 3)" in str(err)


def test_non_xml_char_matches_every_code_point_outside_xml_char():
    # XML 1.0 Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
    # [#x10000-#x10FFFF]
    char = [(0x9, 0x9), (0xA, 0xA), (0xD, 0xD), (0x20, 0xD7FF), (0xE000, 0xFFFD), (0x10000, 0x10FFFF)]
    allowed = np.zeros(0x110000, dtype=bool)
    for lo, hi in char:
        allowed[lo : hi + 1] = True
    text = "".join(map(chr, range(0x110000)))
    matched = [m.start() for m in NON_XML_CHAR.finditer(text)]
    assert matched == np.flatnonzero(~allowed).tolist()
