"""Column-oriented dataset with CSV round-trip.

Columns are numpy arrays (float64, int64 or object for categorical string
values). Optional per-column domain metadata travels with the dataset when it
was produced by a model (ancestral sampling, scenario generators); plain CSV
loads carry values only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UnknownVariable


def _coerce_column(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in ("f", "i", "b"):
        return arr.astype(np.float64) if arr.dtype.kind == "f" else arr
    return arr.astype(object)


@dataclass
class Dataset:
    """Ordered named columns of equal length."""

    columns: tuple[str, ...]
    data: dict[str, np.ndarray]
    domains: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            cols = [self.data[c] for c in self.columns]
            for i in range(self.n):
                writer.writerow([_format_value(col[i]) for col in cols])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
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
        return cls(tuple(header), data)


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
    except ValueError:
        pass
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        return np.array(values, dtype=object)
