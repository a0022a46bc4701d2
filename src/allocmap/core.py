"""Row-stochastic utility matrices: the instance type everything else consumes.

An instance is an n x m matrix with n >= 2 agents (rows), m >= n goods
(columns), nonnegative entries, and every row summing to 1. Each instance of
a dataset carries a label that every file writes as a CSV cell, so labels
follow one rule, ``check_labels``, wherever they are made, written or read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

import numpy as np

ROW_SUM_TOL = 1e-9

# A character outside XML 1.0 ``Char``, which no SVG can carry: a C0 control
# other than tab, newline and carriage return, a lone surrogate, U+FFFE or U+FFFF.
NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _child_seed(seed: int, index: int) -> int:
    """The 64-bit child seed of ``index`` under a root ``seed``: a dataset's
    record seeds and the SMACOF restart seeds both follow this one rule."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class ValidationError(ValueError):
    """Base for every input-contract violation."""


class BadDimensions(ValidationError):
    def __init__(self, *shape: int):
        self.shape = shape
        got = "n={}, m={}".format(*shape) if len(shape) == 2 else f"shape {shape}"
        super().__init__(f"need n >= 2 agents and m >= n goods, got {got}")


def check_shape(n: int, m: int) -> None:
    """The instance shape rule: n >= 2 agents and m >= n goods."""
    if n < 2 or m < n:
        raise BadDimensions(n, m)


class NegativeEntry(ValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"negative utility at agent {i}, good {j}")


class RowSumViolation(ValidationError):
    def __init__(self, i: int, actual: float):
        self.i, self.actual = i, actual
        super().__init__(f"row {i} sums to {actual!r}, expected 1 within {ROW_SUM_TOL}")


class ZeroRow(ValidationError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} sums to 0 and cannot be normalized")


class ShapeMismatch(ValidationError):
    def __init__(self, shape_a: tuple, shape_b: tuple):
        self.shape_a, self.shape_b = shape_a, shape_b
        super().__init__(f"operands have different shapes: {shape_a} vs {shape_b}")


class CapError(RuntimeError):
    """Base for every explicit computation cap."""


class ParseError(Exception):
    """A malformed file, at the file line that shows the fault."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class UtilityMatrix:
    """Validated instance. ``values`` is a read-only float64 array."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _checked_array(raw) -> np.ndarray:
    """raw as a float64 matrix of a valid shape with no negative entry."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise BadDimensions(*arr.shape)
    check_shape(*arr.shape)
    neg = np.argwhere(arr < 0)
    if neg.size:
        i, j = neg[0]
        raise NegativeEntry(int(i), int(j))
    return arr


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """The row sums of arr; a row past the float range sums to inf, which
    the row-sum rule then refuses, without an overflow warning."""
    with np.errstate(over="ignore"):
        return arr.sum(axis=1)


def validate(raw) -> UtilityMatrix:
    """Check shape, sign, and row sums; re-normalize rows within tolerance.

    Rows whose sum deviates from 1 by at most ``ROW_SUM_TOL`` are divided by
    their sum so downstream code can rely on exact stochasticity up to float
    rounding. Larger deviations raise ``RowSumViolation``.

    Rows already within rounding distance of 1 (a few ulps, scaled by m) are
    left untouched: dividing them again would flip last bits without gaining
    accuracy, and can even oscillate forever. Since one division always lands
    inside that band, validating a validated matrix is a bitwise no-op, which
    is what keeps file round trips exact.
    """
    arr = _checked_array(raw)
    sums = _row_sums(arr)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(i, float(sums[i]))
    band = 16.0 * arr.shape[1] * np.finfo(np.float64).eps
    off = np.abs(sums - 1.0) > band
    if off.any():
        arr = np.where(off[:, None], arr / sums[:, None], arr)
    return UtilityMatrix(_frozen(arr))


def normalize_rows(raw) -> UtilityMatrix:
    """Divide each nonnegative row by its sum; zero rows are an error."""
    arr = _checked_array(raw)
    sums = _row_sums(arr)
    zero = np.nonzero(sums <= 0.0)[0]
    if zero.size:
        raise ZeroRow(int(zero[0]))
    return validate(arr / sums[:, None])


@dataclass
class Source:
    """Provenance of an instance: generator model plus its parameters."""

    model: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class InstanceRecord:
    """A labeled instance inside a dataset."""

    label: str
    source: Source
    seed: int | None
    matrix: UtilityMatrix


def check_labels(labels: list[str], lines: list[int] | None = None) -> None:
    """The label rule of every file and generated dataset, which keeps a label one
    CSV cell and one SVG tooltip: not blank, no leading '#' (a comment line), no comma,
    no line boundary of ``str.splitlines``, no ``NON_XML_CHAR``, none twice. A fault is
    a ValidationError or, given lines, a ParseError."""
    seen = set()
    for k, lab in enumerate(labels):
        if not lab.strip():
            fault = f"label {lab!r} is blank"
        elif "," in lab or lab.splitlines() != [lab]:
            fault = f"label {lab!r} cannot contain commas or line breaks"
        elif NON_XML_CHAR.search(lab):
            fault = f"label {lab!r} cannot contain characters XML 1.0 forbids"
        elif lab.startswith("#"):
            fault = f"label {lab!r} cannot start with '#'"
        elif lab in seen:
            fault = f"label {lab!r} appears twice"
        else:
            seen.add(lab)
            continue
        if lines is None:
            raise ValidationError(fault)
        raise ParseError(lines[k], fault)
