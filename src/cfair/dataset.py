"""Column-oriented dataset with CSV round-trip.

Columns are numpy arrays (float64, int64, bool, or object for categorical
string values). Optional per-column domain metadata travels with the dataset
when it was produced by a model (ancestral sampling, scenario generators);
plain CSV loads carry values only.

CSV files are read and written a whole column at a time where that is sure
to give what the cell-by-cell csv module path gives. When every column is
float64 or int64, `to_csv` writes each chunk of rows as one string, a row
with one `%` format call; no such cell needs quoting. Other datasets go
through the csv writer, formatted a column at a time. `from_csv` hands a file
to numpy's C parser (`np.loadtxt`) only when its header is printable ASCII
without quotes or '_', the rows below it hold only the bytes numbers are
written with (digits, signs, '.', 'e', nan, inf, spaces, commas), and one
pass over its commas and line ends shows every line ending alike with LF or
CRLF, no blank line, at least one data row and every row of header width.
Every other file, and every file that parser rejects, goes through the csv
module cell by cell. `from_csv(path, drop=names)` gives what
`from_csv(path).drop(names)` gives, but never parses the dropped columns.
Either path gives the same columns, dtypes, values and errors, and the
writer the same bytes as a cell-by-cell one.
"""

from __future__ import annotations

import csv
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UnknownVariable


def _coerce_column(values) -> np.ndarray:
    """float64 for floats; int64 for integers of any width and sign, or
    float64 if one lies beyond int64, as from_csv reads it; bool as given;
    object otherwise."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f" or (kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max):
        return arr.astype(np.float64)
    if kind in ("i", "u"):
        return arr.astype(np.int64, copy=False)
    return arr if kind == "b" else arr.astype(object)


@dataclass
class Dataset:
    """Ordered named columns of equal length."""

    columns: tuple[str, ...]
    data: dict[str, np.ndarray]
    domains: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        _require_unique(self.columns)
        self.data = {k: _coerce_column(v) for k, v in self.data.items()}
        if set(self.columns) != set(self.data):
            raise DimensionMismatch("column list and data keys disagree")
        lengths = {len(self.data[c]) for c in self.columns}
        if len(lengths) > 1:
            raise DimensionMismatch(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def n(self) -> int:
        return 0 if not self.columns else len(self.data[self.columns[0]])

    def column(self, name: str) -> np.ndarray:
        if name not in self.data:
            raise UnknownVariable(f"no column {name!r}")
        return self.data[name]

    def numeric(self, name: str) -> np.ndarray:
        """Column as float64; raises if it holds non-numeric values."""
        col = self.column(name)
        try:
            return col.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"column {name!r} is not numeric") from exc

    def take(self, index) -> "Dataset":
        return Dataset(self.columns, {c: self.data[c][index] for c in self.columns},
                       dict(self.domains))

    def with_columns(self, extra: dict[str, np.ndarray]) -> "Dataset":
        cols = list(self.columns) + [c for c in extra if c not in self.columns]
        data = dict(self.data)
        data.update({k: _coerce_column(v) for k, v in extra.items()})
        return Dataset(tuple(cols), data, dict(self.domains))

    def drop(self, names) -> "Dataset":
        """Without the given columns (e.g. a model's background variables)."""
        gone = set(names)
        keep = tuple(c for c in self.columns if c not in gone)
        return Dataset(keep, {c: self.data[c] for c in keep},
                       {k: v for k, v in self.domains.items() if k in keep})

    def record(self, i: int) -> dict:
        """Row i as a plain {name: python value} dict."""
        out = {}
        for c in self.columns:
            v = self.data[c][i]
            out[c] = v.item() if isinstance(v, np.generic) else v
        return out

    # -- CSV round trip -------------------------------------------------

    def to_csv(self, path) -> None:
        """Write a header row, then one row per record (csv module, excel dialect).

        Float cells are written with repr, integer cells with str(int) and
        any other cell with str, so from_csv reads float64 and int64 columns
        back exactly. A dataset of float64 and int64 columns only is written
        a chunk of rows at a time as one string, "%r,...,%r\r\n" per row:
        the same bytes, since no such cell needs quoting.
        """
        cols = [self.data[c] for c in self.columns]
        numeric = all(col.dtype.kind in "fi" for col in cols)
        row = ",".join(["%r"] * len(cols)) + "\r\n"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for lo in range(0, self.n, _CSV_CHUNK_ROWS):
                chunk = [col[lo:lo + _CSV_CHUNK_ROWS] for col in cols]
                if numeric:
                    fh.write("".join(map(row.__mod__, zip(*(c.tolist() for c in chunk)))))
                else:
                    writer.writerows(zip(*map(_format_column, chunk)))

    @classmethod
    def from_csv(cls, path, drop=()) -> "Dataset":
        """Read a header row of names, then one row per record.

        A column is int64 if every cell is an integer, as int() reads it, that
        fits in int64; else float64 if every cell is a number, as float()
        reads it; else object, holding the cell strings. An empty file, a
        row of another length than the header, and a repeated name raise
        DimensionMismatch.

        The columns named in `drop` are left out, unparsed: the result and
        any error are those of `from_csv(path).drop(drop)`. Every row is
        still checked against the full header, and so are repeated names.
        """
        gone = frozenset(drop)
        header, data = _read_numeric(path, gone) or _read_cells(path, gone)
        _require_unique(header)
        return cls(tuple(c for c in header if c not in gone), data)


# Rows formatted at once by to_csv: bounds the strings held in memory.
_CSV_CHUNK_ROWS = 1 << 16

# Bytes of a header that _read_numeric may hand to np.loadtxt: printable ASCII
# without the quote character and without '_', which int() and float() accept
# as a digit separator and np.loadtxt does not.
_PLAIN_BYTES = bytes(b for b in range(0x20, 0x7F) if b not in b'"_')
# Bytes of the rows below it: those of numbers as float() reads them (digits,
# signs, point, exponent, nan, inf, infinity, spaces), commas and line ends.
# A file with any other byte there goes to the csv path without a loadtxt try.
_NUMBER_BYTES = b"0123456789+-.eEnNaAiIfFtTyY ,\r\n"

# Every byte but the comma and the line ends: deleting them leaves a file's shape.
_NOT_SHAPE = bytes(b for b in range(256) if b not in b",\r\n")

_LOADTXT = {"delimiter": ",", "skiprows": 1, "comments": None}


def _require_unique(names) -> None:
    dupes = [c for c, k in Counter(names).items() if k > 1]
    if dupes:
        raise DimensionMismatch(f"duplicate column names {dupes}")


def _format_column(col: np.ndarray):
    """_format_value of each cell, a whole column at a time."""
    if col.dtype == np.float64:
        return map(repr, col.tolist())
    if col.dtype.kind == "i":
        return map(str, col.tolist())
    return map(_format_value, col)


def _format_value(v) -> str:
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _numeric_header(path) -> list[str] | None:
    """Header of a CSV that np.loadtxt reads as _read_cells does, or None.

    np.loadtxt parses a float with the same routine as float() and an integer
    as int() does, but the two readers differ elsewhere. So the header must be
    printable ASCII without quotes or '_', the rows below it written with
    _NUMBER_BYTES only, with no run of zeros long enough to pass int()'s digit
    limit. One pass keeps only the commas and line ends; that shape must be
    the header's commas and line end repeated once per line (the last line end
    may be missing). This proves there is a data row, every line ends alike
    with LF or CRLF, there is no stray CR and no blank line (np.loadtxt skips
    it), and every row has header width, which np.loadtxt's usecols would not
    check. In a one-column file a blank line holds no comma, so it is searched
    for apart.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    end = text.find(b"\n")
    eol = b"\r\n" if text[end - 1:end] == b"\r" else b"\n"
    head = text[:end + 1 - len(eol)]
    # int() rejects more digits than this limit. A cell that fits int64 has at
    # most 19 significant digits, so one past the limit starts with limit - 18 zeros.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if (end < 0 or not head or head.translate(None, _PLAIN_BYTES)
            or (len(text.translate(None, _NUMBER_BYTES))
                != len(head.translate(None, _NUMBER_BYTES)))
            or (digit_limit and b"0" * (digit_limit - 18) in text)):
        return None
    width = head.count(b",") + 1
    if width == 1 and eol + eol in text:
        return None
    shape = text.translate(None, _NOT_SHAPE) + (b"" if text.endswith(eol) else eol)
    del text
    row = b"," * (width - 1) + eol
    lines, rest = divmod(len(shape), len(row))
    if rest or lines < 2 or shape != row * lines:
        return None
    return head.decode("ascii").split(",")


def _read_numeric(path, gone: frozenset) -> tuple[list[str], dict] | None:
    """Header and the columns not in `gone` of an all-numeric CSV through
    numpy's C parser; None unless the result is sure to equal _read_cells'."""
    header = _numeric_header(path)
    if header is None:
        return None
    keep = [j for j, name in enumerate(header) if name not in gone]
    try:
        table = np.loadtxt(path, dtype=np.float64, ndmin=2, usecols=keep, **_LOADTXT)
    except ValueError:  # a cell that is not a number
        return None
    data = {header[j]: col for j, col in zip(keep, table.T)}
    # columns of integral floats may be int64 columns: one strict int pass reads
    # them all, and only when some cell fails is each column retried alone
    integral = [j for j, col in zip(keep, table.T)
                if np.isfinite(col).all() and (np.trunc(col) == col).all()]
    ints = _read_int64(path, integral) if integral else None
    if ints is not None:
        data.update((header[j], col) for j, col in zip(integral, ints.T))
    elif len(integral) > 1:
        for j in integral:
            col = _read_int64(path, [j])
            if col is not None:
                data[header[j]] = col[:, 0]
    return header, data


def _read_int64(path, usecols: list[int]) -> np.ndarray | None:
    """The columns in usecols as int64, (rows, columns), if every cell is an
    integer literal that fits, else None."""
    with warnings.catch_warnings():
        # numpy < 2 reads "1.0" as an integer with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(path, dtype=np.int64, usecols=usecols, ndmin=2, **_LOADTXT)
        except (ValueError, DeprecationWarning):
            return None


def _read_cells(path, gone: frozenset) -> tuple[list[str], dict]:
    """Header and the columns not in `gone` of any CSV, one cell at a time
    through the csv module."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch(f"{path}: empty CSV") from None
        raw = {c: [] for c in header}
        for row in reader:
            if len(row) != len(header):
                raise DimensionMismatch(f"{path}: ragged row {row!r}")
            for c, v in zip(header, row):
                raw[c].append(v)
    return header, {c: _parse_column(vals) for c, vals in raw.items() if c not in gone}


def _parse_column(values: list[str]) -> np.ndarray:
    try:
        ints = [int(v) for v in values]
        return np.array(ints, dtype=np.int64)
    except (ValueError, OverflowError):  # not all integers, or not all within int64
        pass
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        return np.array(values, dtype=object)
