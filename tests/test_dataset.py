import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_oracle
from cfair import Dataset, DimensionMismatch, UnknownVariable, dataset


def _mixed() -> Dataset:
    return Dataset(("x", "k", "tag"),
                   {"x": [0.1, 1.0 / 3.0, -2.5e-17],
                    "k": [1, 2, 3],
                    "tag": ["a", "b", "b"]})


def test_column_coercion_dtypes():
    d = _mixed()
    assert d.data["x"].dtype == np.float64
    assert d.data["k"].dtype.kind == "i"
    assert d.data["tag"].dtype == object
    assert d.n == 3


def test_ragged_columns_rejected():
    with pytest.raises(DimensionMismatch):
        Dataset(("a", "b"), {"a": [1, 2], "b": [1]})


def test_columns_and_data_must_agree():
    with pytest.raises(DimensionMismatch):
        Dataset(("a",), {"a": [1], "b": [2]})


def test_unknown_column_lookup():
    with pytest.raises(UnknownVariable):
        _mixed().column("nope")


def test_numeric_rejects_text():
    with pytest.raises(DimensionMismatch):
        _mixed().numeric("tag")


def test_take_and_record_round_trip():
    d = _mixed()
    sub = d.take([2, 0])
    assert sub.n == 2
    assert sub.record(0) == {"x": -2.5e-17, "k": 3, "tag": "b"}
    assert isinstance(sub.record(0)["k"], int)


def test_with_columns_appends_and_overrides():
    d = _mixed()
    out = d.with_columns({"x": np.zeros(3), "extra": [9.0, 8.0, 7.0]})
    assert out.columns == ("x", "k", "tag", "extra")
    assert np.array_equal(out.column("x"), np.zeros(3))
    assert d.column("x")[0] == 0.1  # original untouched


def test_csv_round_trip_is_exact(tmp_path):
    d = _mixed()
    path = tmp_path / "d.csv"
    d.to_csv(path)
    back = Dataset.from_csv(path)
    assert back.columns == d.columns
    assert np.array_equal(back.column("x"), d.column("x"))  # repr round-trip
    assert np.array_equal(back.column("k"), d.column("k"))
    assert back.column("k").dtype.kind == "i"
    assert list(back.column("tag")) == ["a", "b", "b"]


def test_integer_columns_of_any_width_and_sign_become_int64(tmp_path, monkeypatch):
    # a uint64 above the int64 maximum becomes float64, as from_csv reads it
    d = Dataset(("u8", "i32", "u64", "big"),
                {"u8": np.array([0, 7, 255], dtype=np.uint8),
                 "i32": np.array([-5, 0, 2 ** 31 - 1], dtype=np.int32),
                 "u64": np.array([1, 2, 2 ** 63 - 1], dtype=np.uint64),
                 "big": np.array([2 ** 64 - 1, 2 ** 63, 1], dtype=np.uint64)})
    assert [d.column(c).dtype for c in d.columns] == [np.int64, np.int64, np.int64, np.float64]
    assert d.column("u8").tolist() == [0, 7, 255]
    assert d.column("u64").tolist() == [1, 2, 2 ** 63 - 1]
    assert d.column("big").tolist() == [2.0 ** 64, 2.0 ** 63, 1.0]

    oracle_path, path = tmp_path / "oracle.csv", tmp_path / "d.csv"
    csv_oracle.write(d, oracle_path)
    # every column is formatted whole, none cell by cell
    monkeypatch.setattr(dataset, "_format_value", None)
    d.to_csv(path)
    assert path.read_bytes() == oracle_path.read_bytes()
    back = Dataset.from_csv(path)
    for c in d.columns:
        assert back.column(c).dtype == d.column(c).dtype
        assert back.column(c).tolist() == d.column(c).tolist()


def test_csv_rejects_ragged_and_empty(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DimensionMismatch):
        Dataset.from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DimensionMismatch):
        Dataset.from_csv(empty)


# -- CSV I/O against the cell-by-cell oracle in csv_oracle.py ---------------

def _outcome(read, path):
    """Columns with dtype and raw bytes (object columns as lists), or the error class."""
    try:
        d = read(path)
    except Exception as exc:  # the class is part of what must match
        return type(exc)
    return d.columns, [(d.data[c].dtype.str,
                        list(d.data[c]) if d.data[c].dtype == object else d.data[c].tobytes())
                       for c in d.columns]


def _same_read(path):
    assert _outcome(Dataset.from_csv, path) == _outcome(csv_oracle.read, path)


_OBJECTS = st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.booleans())
_COLUMNS = {
    "float": lambda n: st.lists(st.floats(), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64)),
    "int": lambda n: st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=bool)),
    # commas, quotes, line breaks and non-ASCII text all need quoting or decoding
    "text": lambda n: st.lists(st.text(max_size=6), min_size=n, max_size=n),
    "object": lambda n: st.lists(_OBJECTS, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=object)),
}


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=4))
    names = draw(st.lists(st.one_of(st.text("abc xyz", max_size=3), st.text(max_size=3)),
                          min_size=len(kinds), max_size=len(kinds), unique=True))
    return Dataset(tuple(names), {name: draw(_COLUMNS[kind](n))
                                  for name, kind in zip(names, kinds)})


@settings(max_examples=200)
@given(datasets())
def test_csv_write_and_read_back_match_the_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        data.to_csv(ours)
        csv_oracle.write(data, ref)
        assert ours.read_bytes() == ref.read_bytes()
        _same_read(ref)


_INT_CELLS = st.one_of(st.integers(-2 ** 64, 2 ** 64).map(str),
                       st.sampled_from(["-0", "+1", " 7 ", "007", "0" * 4000 + "1"]))
_FLOAT_CELLS = st.one_of(st.floats().map(repr),
                         st.sampled_from(["1e3", ".5", "5.", "-nan", "Infinity", "1E-320",
                                          " 2.5", "9" * 400]))
_ODD_CELLS = st.sampled_from(["", " ", "a", "x y", "0x10", "1 2", "#1", "1#", '"3"', '"a,b"',
                              '"q""q"', "é", "\x1c", "\x0b1", "1\t", "\x7f", "1_0",
                              "0" * 4301 + "1"])
_ANY_CELLS = st.one_of(_INT_CELLS, _FLOAT_CELLS, _ODD_CELLS)
_EOLS = ("\n", "\r\n", "\r")


@st.composite
def csv_texts(draw):
    """Mostly numeric CSV text, now and then ragged, blank-lined or with mixed line ends."""
    ncols = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", "b", "U", " x", "y "]),
                           min_size=ncols, max_size=ncols))
    kinds = [draw(st.sampled_from((_INT_CELLS, _FLOAT_CELLS, _ANY_CELLS))) for _ in header]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        lines.append(",".join(draw(kind) for kind in kinds))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), ",".join(["1"] * draw(st.integers(1, 5))))
    eol = draw(st.sampled_from(_EOLS + ("mixed",)))
    ends = [draw(st.sampled_from(_EOLS)) if eol == "mixed" else eol for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode()


@settings(max_examples=300)
@given(csv_texts())
def test_csv_read_matches_the_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text)
        _same_read(path)


_EDGE_FILES = [
    b"a,b\n1,2\n\n3,4\n",               # blank line
    b"a,b\n1,2\n\n",                    # blank last line
    b"\n1\n2\n",                        # blank header line
    b"a\r\n1\r\n\r\n2\r\n",             # blank line, CRLF
    b"a\n1\n  \n2\n",                   # whitespace-only line
    b"a\n1_0\n2\n",                     # digit separator
    "a\n1\né\n".encode(),             # non-ASCII
    "é\n1\n".encode(),
    b"a\n\xff\n",                       # not UTF-8
    b"a\n1\x1c\n2\n",                   # control characters
    b"a\n\x0b1\n",
    b"a\n1\t\n",
    b"a\n1\x00\n",
    b'a,b\n"1",2\n',                    # quotes
    b'"a",b\n1,2\n',
    b'a\n"1\n2"\n',
    b"a,b\n1,2\n3\n",                   # ragged
    b"a,b\n1,2,3\n",
    b"a,b\n1\n2\n",
    b"",                                # empty
    b"a,b\n",                           # header only
    b"a,b",
    b"a,b\r\n",
    b"a\r1\r2\r",                       # lone CR
    b"a\n1\r2\n",
    b"a\n\r1\n",                        # lone CR as a blank line
    b"a,b\r\n1,2\n3,4\r\n",             # mixed line ends
    b"a,b\nnan,inf\n-nan,-inf\n",       # non-finite
    b"a\nNaN\nInfinity\n",
    b"a,b\n1,2",                        # no final line end
    b" a , b \n 1 , +2 \n-0,01\n",      # spaces and signs
    b"k,x\n1,1.0\n2,2.5\n",
    b"k\n1e3\n2\n",
    b"a\n#1\n2\n",                      # comment characters are data
    b"a,b\n1,2#c\n",
    b"a,b\n1,\n",                       # empty fields
    b"a,b,\n1,2,\n",
    b"i,j,f\n1,-2,1.0\n3,4,2.0\n",      # two int columns and an integral-float one
    b"i,f,j\n1,1.0,7\n3,2,8\n",
    b"a\n9007199254740993\n1\n",        # exact beyond 2**53
    b"a\n9223372036854775807\n-9223372036854775808\n",
    ("a\n" + "9" * 5000 + "\n").encode(),
    ("a\n" + "0" * 5000 + "1\n").encode(),
]


@pytest.mark.parametrize("text", _EDGE_FILES)
def test_csv_read_edge_cases_match_the_oracle(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    _same_read(path)


def test_csv_large_numeric_file_matches_the_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    n = 100_000
    data = Dataset(("A", "U", "K", "S"),
                   {"A": rng.choice([-1.0, 1.0], n), "U": rng.normal(size=n),
                    "K": rng.integers(-10 ** 12, 10 ** 12, n),
                    "S": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)})
    path = tmp_path / "big.csv"
    csv_oracle.write(data, path)
    data.to_csv(tmp_path / "ours.csv")
    assert (tmp_path / "ours.csv").read_bytes() == path.read_bytes()
    expected = _outcome(csv_oracle.read, path)
    # an all-numeric file takes the columnar path, never the cell-by-cell one
    monkeypatch.setattr(dataset, "_read_cells", None)
    assert _outcome(Dataset.from_csv, path) == expected


def test_duplicate_column_names_rejected():
    with pytest.raises(DimensionMismatch, match="'a'"):
        Dataset(("a", "b", "a"), {"a": [1], "b": [2]})


@pytest.mark.parametrize("text", [b"a,a\n1,2\n", b"a,a,b\n1,2,3\n", b"a,a\nx,2\n"])
def test_csv_duplicate_header_names_rejected(tmp_path, text):
    path = tmp_path / "dup.csv"
    path.write_bytes(text)
    with pytest.raises(DimensionMismatch, match="duplicate column names \\['a'\\]"):
        Dataset.from_csv(path)


@pytest.mark.parametrize("text", [b"a,t\n9223372036854775808,x\n1,y\n",
                                  b"a,t\n9223372036854775808,7\n1,8\n"])
def test_csv_integers_beyond_int64_read_as_float(tmp_path, text):
    path = tmp_path / "big.csv"
    path.write_bytes(text)
    back = Dataset.from_csv(path)
    assert back.column("a").dtype == np.float64
    assert back.column("a").tolist() == [2.0 ** 63, 1.0]
    assert back.column("t").dtype != np.float64


def test_csv_text_below_the_header_skips_the_numeric_parser(tmp_path, monkeypatch):
    # a letter no number is written with sends the file to the csv path at
    # once, instead of after np.loadtxt has parsed every row above it
    path = tmp_path / "late.csv"
    path.write_bytes(b"x,t\n1.5,2\n2.5,red\n")
    monkeypatch.setattr(np, "loadtxt", None)
    back = Dataset.from_csv(path)
    assert back.column("x").tolist() == [1.5, 2.5]
    assert back.column("t").tolist() == ["2", "red"]


# -- the direct writer of float64 and int64 datasets -------------------------

_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5e-17]
_INT64_EXTREMES = [-2 ** 63, 2 ** 63 - 1, 0, -1, 1]


@pytest.mark.parametrize("data", [
    Dataset(("x",), {"x": np.array(_SPECIAL_FLOATS)}),
    Dataset(("k",), {"k": np.array(_INT64_EXTREMES, dtype=np.int64)}),
    Dataset(("x", "k"), {"x": np.array(_SPECIAL_FLOATS[:5]),
                         "k": np.array(_INT64_EXTREMES, dtype=np.int64)}),
    Dataset(("k", " x y", "z"), {"k": np.array(_INT64_EXTREMES, dtype=np.int64),
                                 " x y": np.array(_SPECIAL_FLOATS[5:]),
                                 "z": np.arange(5.0)}),
    Dataset(("x", "k"), {"x": np.zeros(0), "k": np.zeros(0, dtype=np.int64)}),
], ids=["floats", "ints", "mixed", "three", "empty"])
def test_numeric_datasets_are_written_directly_as_the_oracle_writes(tmp_path, monkeypatch, data):
    oracle_path, path = tmp_path / "oracle.csv", tmp_path / "d.csv"
    csv_oracle.write(data, oracle_path)
    monkeypatch.setattr(dataset, "_format_column", None)  # no column goes to the csv writer
    data.to_csv(path)
    assert path.read_bytes() == oracle_path.read_bytes()


@pytest.mark.parametrize("extra", [np.array([True, False, True]),
                                   np.array(["a", "b,c", 'q"q'], dtype=object)],
                         ids=["bool", "object"])
def test_a_bool_or_object_column_keeps_the_csv_writer(tmp_path, extra):
    data = Dataset(("x", "k", "e"), {"x": [0.1, np.nan, -0.0], "k": [1, 2, 3], "e": extra})
    csv_oracle.write(data, tmp_path / "oracle.csv")
    data.to_csv(tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# -- from_csv(path, drop=names) is from_csv(path).drop(names) ---------------

def _same_read_dropping(path, drop):
    expected = _outcome(lambda p: Dataset.from_csv(p).drop(drop), path)
    assert expected == _outcome(lambda p: csv_oracle.read(p).drop(drop), path)
    assert _outcome(lambda p: Dataset.from_csv(p, drop=drop), path) == expected


def _header_names(text: bytes) -> list[str]:
    lines = text.decode("utf-8", "replace").splitlines()
    return lines[0].split(",") if lines else []


@settings(max_examples=300)
@given(csv_texts(), st.data())
def test_csv_read_dropping_columns_matches_reading_then_dropping(text, data):
    names = _header_names(text) + ["absent"]
    drop = data.draw(st.lists(st.sampled_from(names), max_size=len(names)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text)
        _same_read_dropping(path, drop)


@pytest.mark.parametrize("text", _EDGE_FILES)
def test_csv_edge_cases_dropping_columns_match_reading_then_dropping(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    names = _header_names(text)
    for drop in [(), ("absent",), tuple(names), *((name, "absent") for name in names)]:
        _same_read_dropping(path, drop)


@pytest.mark.parametrize("text", [b"a,b,U\n1,2,3\n4,5\n", b"a,b,U\n1,2,3\n4,5,6,7\n",
                                  b"U,a\n1,2\n3\n", b"U,a\n1,2\n3,4,5\n",
                                  b"a,U\r\n1,2\r\n3,4,\r\n"])
def test_a_ragged_row_in_a_dropped_column_still_raises(tmp_path, text):
    # np.loadtxt with usecols reads such rows without complaint
    path = tmp_path / "ragged.csv"
    path.write_bytes(text)
    with pytest.raises(DimensionMismatch, match="ragged row"):
        Dataset.from_csv(path, drop=("U",))


@pytest.mark.parametrize("text", [b"U,a,U\n1,2,3\n", b"U,a,U\nx,2,3\n"])
def test_a_repeated_dropped_name_still_raises(tmp_path, text):
    path = tmp_path / "dup.csv"
    path.write_bytes(text)
    with pytest.raises(DimensionMismatch, match="duplicate column names \\['U'\\]"):
        Dataset.from_csv(path, drop=("U",))


@pytest.mark.parametrize("text", [
    b"a,U\r1,2\r3,4\r",                 # CR only
    b"a,U\n1,2\r\n3,4\n",               # mixed LF and CRLF
    b"a,U\r\n1,2\n3,4\r\n",
    b"a,U\n1,2\n\n3,4\n",               # blank line
    b"a,U\n1,2\n3,4\n\n",
    b"a\n1\n\n2\n",                     # one column, blank line
    b"a\r\n1\r\n\r\n2\r\n",
    b"a\n1\n2\n\n",
])
def test_files_with_odd_line_structure_decline_the_numeric_parser(tmp_path, monkeypatch, text):
    path = tmp_path / "odd.csv"
    path.write_bytes(text)
    expected = [_outcome(lambda p: csv_oracle.read(p).drop(drop), path)
                for drop in ((), ("U",))]
    monkeypatch.setattr(np, "loadtxt", None)
    assert [_outcome(lambda p: Dataset.from_csv(p, drop=drop), path)
            for drop in ((), ("U",))] == expected


def test_dropped_columns_are_not_parsed(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    Dataset(("A", "U", "X", "K"), {"A": [1.0, -1.0], "U": [0.5, 2.0], "X": [1.5, 1.0],
                                   "K": [3, 4]}).to_csv(path)
    usecols = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        usecols.append(list(kwargs["usecols"]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    back = Dataset.from_csv(path, drop=("U", "absent"))
    assert back.columns == ("A", "X", "K")
    assert back.column("K").dtype == np.int64
    assert usecols[0] == [0, 2, 3]
    assert all(1 not in cols for cols in usecols)


def test_integral_columns_share_one_int_pass_and_retry_alone_only_when_it_fails(
        tmp_path, monkeypatch):
    ints = tmp_path / "ints.csv"
    ints.write_bytes(b"i,x,j,k\n1,0.5,-2,9\n3,1.5,4,8\n")
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes(b"i,x,j,f\n1,0.5,-2,1.0\n3,1.5,4,2.0\n")
    expected = [_outcome(csv_oracle.read, path) for path in (ints, mixed)]
    int_passes = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        if kwargs["dtype"] is np.int64:
            int_passes.append(list(kwargs["usecols"]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert _outcome(Dataset.from_csv, ints) == expected[0]
    assert int_passes == [[0, 2, 3]]
    int_passes.clear()
    assert _outcome(Dataset.from_csv, mixed) == expected[1]
    assert int_passes == [[0, 2, 3], [0], [2], [3]]
    int_passes.clear()
    # one integral column: its failed pass is not run again
    assert Dataset.from_csv(mixed, drop=("i", "j")).column("f").dtype == np.float64
    assert int_passes == [[3]]
