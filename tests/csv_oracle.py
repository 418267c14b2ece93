"""Cell-by-cell CSV reader and writer: the reference for Dataset's CSV I/O.

`Dataset.from_csv` and `Dataset.to_csv` must agree with these two functions on
every file and every dataset: the same columns, dtypes, values (bitwise for
floats) and error classes on read, and the same bytes on write. Each cell goes
through Python's `csv` module, `int()`, `float()` and `repr`, one at a time.

Two fixes over the first cell-by-cell reader hold here as in the library:
duplicate header names raise `DimensionMismatch` (through the `Dataset`
constructor), and an integer column with a value outside int64 is read as
float64 instead of raising `OverflowError`.
"""

import csv

import numpy as np

from cfair import Dataset, DimensionMismatch


def write(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        cols = [data.data[c] for c in data.columns]
        for i in range(data.n):
            writer.writerow([_format_value(col[i]) for col in cols])


def read(path) -> Dataset:
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
    data = {c: _parse_column(vals) for c, vals in raw.items()}
    return Dataset(tuple(header), data)


def _format_value(v) -> str:
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _parse_column(values: list[str]) -> np.ndarray:
    try:
        ints = [int(v) for v in values]
        return np.array(ints, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        return np.array(values, dtype=object)
