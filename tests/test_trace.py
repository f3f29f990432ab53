import json
import os
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletsim import trace
from tripletsim.errors import ConfigError, InvalidParameterError
from tripletsim.trace import (
    Column,
    TraceRecord,
    emit,
    parse_trace,
    read_trace,
    write_atomic,
)


def sample_record():
    # values chosen to stress shortest-repr round-tripping
    data = np.array(
        [
            [0.1, 1.0 / 3.0, 5.318599999999999e9],
            [1e-300, -2.5e-7, 0.30000000000000004],
        ]
    )
    columns = (Column("delay", "us"), Column("signal"), Column("frequency", "Hz"))
    metadata = {"experiment": "example", "seed": 7, "nested": {"b": 2, "a": 1}}
    return TraceRecord(columns=columns, data=data, metadata=metadata)


def test_csv_round_trip_is_bit_exact():
    record = sample_record()
    back = parse_trace(emit(record, "csv"))
    assert back.data.shape == record.data.shape
    assert np.all(back.data == record.data)  # bitwise, not approx
    assert back.columns == record.columns
    assert back.metadata == record.metadata


def test_json_round_trip_is_bit_exact():
    record = sample_record()
    back = parse_trace(emit(record, "json"))
    assert np.all(back.data == record.data)
    assert back.columns == record.columns
    assert back.metadata == record.metadata


def test_csv_layout():
    payload = emit(sample_record(), "csv").decode()
    lines = payload.split("\n")
    assert lines[0].startswith("# tripletsim-trace 1")
    meta = json.loads(lines[1][1:])
    assert meta["experiment"] == "example"
    assert lines[2] == "delay[us],signal[1],frequency[Hz]"
    assert payload.endswith("\n")
    assert "\r" not in payload


def test_metadata_keys_are_sorted_for_determinism():
    record = sample_record()
    line = emit(record, "csv").decode().split("\n")[1]
    assert line.index('"a"') < line.index('"b"')
    assert emit(record, "csv") == emit(sample_record(), "csv")


def test_json_structure():
    doc = json.loads(emit(sample_record(), "json").decode())
    assert doc["format"] == "tripletsim-trace"
    assert doc["version"] == 1
    assert doc["columns"][0] == {"name": "delay", "unit": "us"}
    assert len(doc["data"]) == 2


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        emit(sample_record(), "xml")


def test_column_validation():
    with pytest.raises(InvalidParameterError):
        Column("")
    with pytest.raises(InvalidParameterError):
        Column("a[b")
    with pytest.raises(InvalidParameterError):
        Column("a,b")
    with pytest.raises(InvalidParameterError):
        Column("ok", "u,u")
    assert Column("x").header == "x[1]"


def test_record_validation():
    cols = (Column("a"), Column("b"))
    with pytest.raises(InvalidParameterError):
        TraceRecord(columns=cols, data=np.zeros(3), metadata={})
    with pytest.raises(InvalidParameterError):
        TraceRecord(columns=cols, data=np.zeros((3, 3)), metadata={})
    with pytest.raises(InvalidParameterError):
        TraceRecord(columns=cols, data=np.array([[1.0, np.nan]]), metadata={})


def test_record_without_columns_is_refused():
    # its CSV form would have no header row to read back
    with pytest.raises(InvalidParameterError, match="at least one column"):
        TraceRecord(columns=(), data=np.empty((3, 0)), metadata={})
    with pytest.raises(ConfigError, match="at least one column"):
        parse_trace(json.dumps({"format": "tripletsim-trace", "columns": [], "data": [[], []]}))


def test_column_lookup():
    record = sample_record()
    assert np.all(record.column("signal") == record.data[:, 1])
    with pytest.raises(InvalidParameterError):
        record.column("missing")


def test_column_lookup_by_position():
    record = sample_record()
    assert record.column_index("frequency") == 2
    assert np.all(record.column(2) == record.data[:, 2])
    for key in (3, -1):
        with pytest.raises(InvalidParameterError) as info:
            record.column(key)
        assert str(info.value) == f"index {key} out of range for 3 columns"


def _table(fmt, headers, rows):
    """A trace table in `fmt`. `headers` is None or (name, unit) pairs; a cell is the
    text both formats write, or a (JSON text, CSV text) pair."""
    rows = [[c if isinstance(c, str) else c[fmt == "csv"] for c in row] for row in rows]
    if fmt == "csv":
        header = [] if headers is None else [",".join(f"{n}[{u}]" for n, u in headers)]
        return "\n".join(["# tripletsim-trace 1", "# {}", *header, *map(",".join, rows)]) + "\n"
    columns = [{"name": n, "unit": u} for n, u in headers or ()]
    columns = "" if headers is None else f'"columns": {json.dumps(columns)}, '
    data = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return f'{{"format": "tripletsim-trace", {columns}"data": [{data}]}}'


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "headers, rows",
    [
        pytest.param([("a", "1"), ("b", "1")], [["1", "2"], ["3"]], id="ragged-row"),
        pytest.param([("a", "1")], [[('"1.5"', "spam")]], id="string-cell"),
        pytest.param([("a", "1")], [["true"]], id="boolean-cell"),
        pytest.param([("a", "1")], [["null"]], id="null-cell"),
        pytest.param([("a", "1")], [[("NaN", "nan")]], id="nan"),
        pytest.param([("a", "1")], [["1e999"]], id="overflowing-float"),
        pytest.param([("a", "1")], [["1" + "0" * 400]], id="overflowing-integer"),
        pytest.param([("a[b", "1")], [["1"]], id="bracket-in-column-name"),
        pytest.param(None, [], id="no-header"),
    ],
)
def test_both_formats_reject_the_same_defective_tables(headers, rows, fmt):
    with pytest.raises(ConfigError):
        parse_trace(_table(fmt, headers, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_both_formats_read_integer_and_float_cells(fmt):
    record = parse_trace(_table(fmt, [("a", "us"), ("b", "1")], [["1", "-2.5"], ["0", "1e-300"]]))
    assert record.columns == (Column("a", "us"), Column("b", "1"))
    assert record.data.tolist() == [[1.0, -2.5], [0.0, 1e-300]]


@pytest.mark.parametrize(
    "doc",
    [
        {"format": "tripletsim-trace"},  # no columns
        {"format": "tripletsim-trace", "columns": {"name": "a"}, "data": []},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}]},  # no data
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": 1.0},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": [1.0, 2.0]},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}, {"name": "b"}], "data": [[1, 2], [3]]},
        {"format": "tripletsim-trace", "columns": [{"unit": "us"}], "data": []},  # nameless
        {"format": "tripletsim-trace", "columns": [{"name": 3}], "data": []},
        {"format": "tripletsim-trace", "columns": [{"name": "a", "unit": 1}], "data": []},
        {"format": "tripletsim-trace", "columns": [{"name": "a[b"}], "data": []},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": [["x"]]},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": [[None]]},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": [[[1.0]]]},
        {"format": "tripletsim-trace", "columns": [{"name": "a"}], "data": [[1e999]]},
        {"format": "tripletsim-trace", "columns": [], "data": [], "metadata": []},
    ],
)
def test_parse_json_rejects_malformed_structure(doc):
    with pytest.raises(ConfigError):
        parse_trace(json.dumps(doc))


def test_parse_csv_rejects_non_finite_cells():
    with pytest.raises(ConfigError):
        parse_trace("a[1]\nnan\n")


def test_parse_rejects_malformed_inputs():
    with pytest.raises(ConfigError):
        parse_trace("")
    with pytest.raises(ConfigError):
        parse_trace("no header here\n1,2\n")
    with pytest.raises(ConfigError):
        parse_trace("a[1],b[1]\n1.0\n")  # short row
    with pytest.raises(ConfigError):
        parse_trace("a[1],b[1]\n1.0,spam\n")
    with pytest.raises(ConfigError):
        parse_trace('{"format": "something-else", "columns": [], "data": []}')
    with pytest.raises(ConfigError):
        parse_trace("# tripletsim-trace 1\n# {broken json\na[1]\n1.0\n")


def test_empty_data_round_trips():
    record = TraceRecord(
        columns=(Column("x"),), data=np.empty((0, 1)), metadata={"n": 0}
    )
    for fmt in ("csv", "json"):
        back = parse_trace(emit(record, fmt))
        assert back.data.shape == (0, 1)
        assert back.metadata == {"n": 0}


def test_read_and_atomic_write(tmp_path):
    record = sample_record()
    path = tmp_path / "out.csv"
    payload = emit(record, "csv")
    write_atomic(str(path), payload)
    assert path.read_bytes() == payload
    back = read_trace(str(path))
    assert np.all(back.data == record.data)
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    write_atomic(str(path), b"new")
    assert path.read_bytes() == b"new"


def test_atomic_write_gives_the_mode_open_would(tmp_path):
    path = tmp_path / "out.csv"
    write_atomic(str(path), b"data")
    with open(tmp_path / "plain", "w"):
        pass
    assert path.stat().st_mode & 0o777 == (tmp_path / "plain").stat().st_mode & 0o777


def test_write_atomic_propagates_bad_directory():
    with pytest.raises(OSError):
        write_atomic(os.path.join("/nonexistent-dir", "x.csv"), b"data")


# --- emit byte identity --------------------------------------------------------

def emit_oracle(record, fmt):
    """The straightforward emit: one repr per cell, json.dumps for the whole document."""
    if fmt == "csv":
        lines = ["# tripletsim-trace 1"]
        lines.append("# " + json.dumps(record.metadata, sort_keys=True, separators=(",", ":")))
        lines.append(",".join(col.header for col in record.columns))
        for row in record.data:
            lines.append(",".join(repr(float(v)) for v in row))
        return ("\n".join(lines) + "\n").encode("utf-8")
    doc = {
        "format": "tripletsim-trace",
        "version": 1,
        "metadata": record.metadata,
        "columns": [{"name": c.name, "unit": c.unit} for c in record.columns],
        "data": [[float(v) for v in row] for row in record.data],
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


# zeros of both signs, subnormals, the neighbours of repr's switch to
# exponent notation at 1e16 and 1e-4, and arbitrary finite values
_EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, -1e16,
    np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 1e-4, -1e-4,
    np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1.7976931348623157e308,
)
_values = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _records(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 40))
    columns = []
    for k in range(n_cols):
        # a small pool per column gives long runs of repeated values
        pool = draw(st.lists(_values, min_size=1, max_size=3))
        cells = draw(st.lists(st.sampled_from(pool) | _values, min_size=n_rows, max_size=n_rows))
        columns.append(cells)
    data = np.array(columns, dtype=float).T.reshape(n_rows, n_cols)
    metadata = draw(
        st.dictionaries(
            st.sampled_from(["data", "columns", "version", "z", "\u00e9"]) | st.text(max_size=5),
            st.one_of(
                st.sampled_from(['"data": []', '"data": [\n', "\n ]", "[[1.0]]", ""]),
                st.text(max_size=8),
                st.integers(),
                st.floats(allow_nan=False),
                st.lists(st.integers(), max_size=3),
                st.dictionaries(st.sampled_from(["data", "b"]), st.sampled_from([[], [1.5], "x"])),
            ),
            max_size=4,
        )
    )
    names = [f"c{k}" for k in range(n_cols)]
    return TraceRecord(columns=tuple(Column(n) for n in names), data=data, metadata=metadata)


@pytest.mark.parametrize(
    "record",
    [
        TraceRecord(columns=(Column("a"), Column("b")), data=np.empty((0, 2)), metadata={}),
        TraceRecord(columns=(Column("a"),), data=np.array([[-0.0]]), metadata={"data": []}),
        TraceRecord(  # metadata that reads like the empty data member
            columns=(Column("a"),), data=np.empty((0, 1)), metadata={"data": '"data": []'}
        ),
        TraceRecord(columns=(Column("a"),), data=np.array([[0.0], [-0.0], [0.0]]), metadata={}),
        TraceRecord(  # crosses two block boundaries
            columns=(Column("a"), Column("b")),
            data=np.column_stack(
                [np.repeat([0.0, -0.0, 1e16], 3000), np.tile([1e-4, 0.1, 5e-324], 3000)]
            ),
            metadata={},
        ),
        sample_record(),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_matches_oracle_on_edge_records(record, fmt):
    assert emit(record, fmt) == emit_oracle(record, fmt)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(record=_records())
def test_emit_is_byte_identical_to_oracle(record):
    # small blocks put block boundaries inside the drawn tables too
    for block_rows in (trace._BLOCK_ROWS, 7):
        with mock.patch.object(trace, "_BLOCK_ROWS", block_rows):
            for fmt in ("csv", "json"):
                assert emit(record, fmt) == emit_oracle(record, fmt)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(record=_records())
def test_parse_reads_every_emitted_record_back_bit_for_bit(record):
    for fmt in ("csv", "json"):
        back = parse_trace(emit(record, fmt))
        assert (back.columns, back.metadata) == (record.columns, record.metadata)
        assert back.data.shape == record.data.shape
        assert np.array_equal(back.data.view(np.int64), record.data.view(np.int64))


def _fixed_notation_families(rng):
    """Finite values with 1e-4 <= |x| < 1e16, where repr writes fixed notation,
    drawn where the shortest digits are hardest to get right."""
    n = 40_000
    # random significand bits under a random binary exponent of the range
    bits = rng.integers(0, 2**52, n) | rng.integers(1023 - 14, 1023 + 54, n) << 52
    random_bits = bits.view(np.float64)
    # values rounded to 1-17 significant digits
    spread = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 3_000))
    rounded = [float(f"{v:.{d - 1}e}") for v in spread.tolist() for d in range(1, 18)]
    # powers of two and their neighbours: the gap below 2**k is half as wide
    powers2 = np.ldexp(1.0, np.arange(-13, 54))
    # powers of ten and their neighbours, and the values just below them, where
    # rounding the digits could carry into the next power
    powers10 = np.array([float(f"1e{k}") for k in range(-4, 17)])
    below = [powers10]
    for _ in range(40):
        below.append(np.nextafter(below[-1], 0.0))
    # dyadic values m * 2**-j
    dyadic = rng.integers(1, 2**24, n) * np.ldexp(1.0, -rng.integers(0, 37, n))
    values = np.concatenate(
        [
            random_bits,
            rounded,
            powers2,
            np.nextafter(powers2, 0.0),
            np.nextafter(powers2, np.inf),
            np.nextafter(powers10, np.inf),
            *below,
            dyadic,
            spread,
        ]
    )
    values = values[(values >= 1e-4) & (values < 1e16)]
    return np.concatenate([values, -values])


def test_fixed_notation_text_is_repr():
    # the digits never round up to one more place: no power of ten in the
    # range reads back as a float64 below itself
    assert all(Decimal(float(f"1e{k}")) >= Decimal(10) ** k for k in range(-4, 17))
    values = _fixed_notation_families(np.random.default_rng(20241))
    assert values.size >= 200_000
    with np.errstate(all="raise"):
        text = trace._fixed_text(values).tolist()
    expected = list(map(repr, values.tolist()))
    wrong = [(v, t, e) for v, t, e in zip(values.tolist(), text, expected) if t != e]
    assert wrong[:5] == []


def test_shortest_text_leaves_only_zeros_subnormals_and_exponent_notation_to_repr():
    values = np.array(_EDGE_VALUES + (1e-05, 0.5, 2e16, -9.999999999999999e-05, 123.0, -0.001))
    with np.errstate(all="raise"), mock.patch.object(trace, "repr", create=True) as spy:
        spy.side_effect = repr
        text = trace._shortest_text(values).tolist()
    assert text == list(map(repr, values.tolist()))
    left = sorted(call.args[0] for call in spy.call_args_list)
    magnitude = np.abs(values)
    assert left == sorted(values[(magnitude < 1e-4) | (magnitude >= 1e16)].tolist())
