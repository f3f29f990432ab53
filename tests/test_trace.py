import functools
import io
import json
import os
import random
import tracemalloc
import warnings
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
    emit_chunks,
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


def _read_cell(cell):
    """The value the CSV reader gives `cell` in a table's second column, or None if refused."""
    try:
        return parse_trace(f"x[1],y[1]\n0.0,{cell}\n").data[0, 1]
    except ConfigError:
        return None


@pytest.mark.parametrize(
    "cell",
    [".5", "5.", "1e+05", "-0", "0001.5", " 2.5\t", "Infinity", "1e400", "1.5e", "", "1.0,",
     "1.0;2.0", "0x10"],
)
def test_csv_reader_reads_a_cell_as_float_does(cell):
    # float's non-finite values are refused by the record check
    try:
        want = float(cell)
    except ValueError:
        want = None
    if want is None or not np.isfinite(want):
        assert _read_cell(cell) is None
    else:  # bit for bit: -0 keeps its sign
        assert np.float64(_read_cell(cell)).view(np.int64) == np.float64(want).view(np.int64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_both_formats_refuse_numbers_float_alone_accepts(cell, fmt):
    # float('1_0') is 10.0 and float('\u0661') is 1.0 (ARABIC-INDIC DIGIT ONE);
    # neither is a JSON number, and the CSV reader refuses them too
    assert float(cell) in (10.0, 1.0)
    with pytest.raises(ConfigError):
        parse_trace(_table(fmt, [("a", "1")], [[cell]]))


def test_csv_reader_is_float_on_repr_text():
    """The C reader is correctly rounded: every repr string reads back as float reads it."""
    rng = np.random.default_rng(29)
    n = 100_000
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    bits = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True).view(np.float64)
    subnormals = rng.integers(1, 2**52, 1000).view(np.float64)
    values = np.concatenate([magnitudes, bits, subnormals, -subnormals, [0.0, -0.0, 5e-324]])
    values = np.concatenate([values[np.isfinite(values)], [1.7976931348623157e308]])
    text = list(map(repr, values.tolist()))
    back = parse_trace("x[1]\n" + "\n".join(text) + "\n").column("x")
    assert np.array_equal(back.view(np.int64), np.array(list(map(float, text))).view(np.int64))


def test_csv_reader_skips_blank_and_whitespace_only_lines():
    payload = "# tripletsim-trace 1\n# {}\n\n \t\nx[1],y[1]\r\n\n1.0,2.0\n \t \n\n3.0,4.0\r\n   \n"
    assert parse_trace(payload).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("body", ["", "\n  \n"])
def test_an_empty_csv_table_reads_without_a_warning(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = parse_trace("# tripletsim-trace 1\n# {}\nx[1],y[1]\n" + body)
    assert record.data.shape == (0, 2)


class _Pipe(io.BytesIO):
    """Bytes that cannot be sought, as from a pipe."""

    def seekable(self):
        return False


def _read(text, how):
    """parse_trace of `text` as bytes or as str, or the stream reader over a pipe of it."""
    if how == "str":
        return parse_trace(text)
    payload = text.encode("utf-8", "surrogatepass")
    if how == "bytes":
        return parse_trace(payload)
    return trace._read_stream(io.TextIOWrapper(_Pipe(payload), encoding="utf-8", newline="\n"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_stream_that_cannot_seek_reads_as_a_file_does(fmt):
    # every stream is read once, from the top: the lines read to tell the
    # formats apart are kept, so a pipe reads as a file, which is never sought
    payload = emit(sample_record(), fmt)
    back = trace._read_stream(io.TextIOWrapper(_Pipe(payload), encoding="utf-8", newline="\n"))
    assert emit(back, fmt) == emit(parse_trace(payload), fmt) == emit(sample_record(), fmt)


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
@pytest.mark.parametrize(
    "head",
    [
        pytest.param("# tripletsim-trace 1\n# {meta}\n", id="magic-line-first"),
        pytest.param("# {meta}\n# tripletsim-trace 1\n", id="metadata-line-first"),
        pytest.param("", id="header-row-first"),
        pytest.param(" \t \t \t \n# {meta}\n", id="blank-line-first"),
    ],
)
def test_a_first_line_longer_than_the_window_reads_as_it_does_whole(head, how):
    """The leading lines are read a window at a time; a CSV table's first line
    cut by the window is finished first, and its '#' lines still count only
    at the very top of the table."""
    record = _field_map(3, 4, seed=33)
    record.metadata = {"note": "longer than the window"} if "{meta}" in head else {}
    body = emit(record, "csv").decode().split("\n", 2)[2]
    text = head.format(meta=json.dumps(record.metadata)) + body
    want = _outcome(text, "str")
    with mock.patch.object(trace, "_READ_CHARS", 7):
        assert _outcome(text, how) == want
    if not head.startswith(" "):
        assert want == (record.columns, record.metadata, record.data.tolist())
    else:  # the '#' line after a blank one is read as the header row
        assert want.startswith("malformed header row '# {\"note\": ")


def _outcome(text, how):
    """The columns, metadata and rows `_read` gives `text`, or its error message."""
    try:
        back = _read(text, how)
    except ConfigError as exc:
        return str(exc)
    return back.columns, back.metadata, back.data.tolist()


def _json_doc(record):
    return {
        "format": "tripletsim-trace",
        "version": 1,
        "metadata": record.metadata,
        "columns": [{"name": c.name, "unit": c.unit} for c in record.columns],
        "data": record.data.tolist(),
    }


_LAYOUTS = {
    "indent-none": lambda doc: json.dumps(doc),
    "indent-0": lambda doc: json.dumps(doc, indent=0),
    "indent-1": lambda doc: json.dumps(doc, indent=1),
    "indent-4": lambda doc: json.dumps(doc, indent=4),
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "crlf": lambda doc: json.dumps(doc, indent=1).replace("\n", "\r\n"),
    "leading-blank-lines": lambda doc: "\n \r\n\t\n" + json.dumps(doc, indent=1) + "\n",
}


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("window", [7, 64, 1 << 16])
def test_json_layouts_read_alike_in_any_window(layout, how, window):
    """Windows of 7 characters end inside numbers, strings and keys and between
    rows; windows of 64 hold a few rows, read as blocks; one window of 64 KB
    holds the whole document."""
    record = _field_map(6, 35, seed=32)
    record.metadata = {"note": 'a "data": [[1.0], [2.0]] string, with ],[ in it', "n": [1, 2.5]}
    text = _LAYOUTS[layout](_json_doc(record))
    with mock.patch.object(trace, "_READ_CHARS", window):
        back = _read(text, how)
    assert (back.columns, back.metadata) == (record.columns, record.metadata)
    assert np.array_equal(back.data.view(np.int64), record.data.view(np.int64))


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
def test_json_members_read_in_any_order_and_the_last_of_a_key_wins(how):
    columns = '"columns": [{"name": "a"}, {"name": "b"}]'
    head = f'{{"format": "tripletsim-trace", {columns}'
    # the data before the columns
    text = f'{{"data": [[1, 2], [3, 4.5]], {columns}, "format": "tripletsim-trace"}}'
    assert _read(text, how).data.tolist() == [[1.0, 2.0], [3.0, 4.5]]
    # a ragged first data member is replaced by the second
    text = f'{head}, "data": [[1, 2], [3]], "data": [[5, 6]]}}'
    assert _read(text, how).data.tolist() == [[5.0, 6.0]]
    # and a good one by a ragged one, named by its own rows
    with pytest.raises(ConfigError, match=r"^data row 1 is not a row of 2 numbers: \[7\]$"):
        _read(f'{head}, "data": [[5, 6]], "data": [[1, 2], [7]]}}', how)
    with pytest.raises(ConfigError, match="no 'data' list"):
        _read(f'{head}, "data": [[5, 6]], "data": {{}}}}', how)
    # rows read before the columns that turn out wider or narrower
    for data, row in (("[[1, 2, 3], [4, 5, 6]]", "[1, 2, 3]"), ("[[1], [2, 3]]", "[1]")):
        with pytest.raises(ConfigError) as info:
            _read(f'{{"data": {data}, {columns}, "format": "tripletsim-trace"}}', how)
        assert str(info.value) == f"data row 0 is not a row of 2 numbers: {row}"


@pytest.mark.parametrize("fmt, shown", [("csv", "'3.0'"), ("json", "[3.0]")])
# 1500: past the CSV reader's first block of lines; 15000: past the JSON
# reader's first window of text, at 12 characters a row
@pytest.mark.parametrize("k", [0, 1, 1500, 15000])
def test_a_ragged_row_is_named_by_its_row(k, fmt, shown):
    rows = [["1.0", "2.0"]] * 20_000
    rows[k] = ["3.0"]
    with pytest.raises(ConfigError) as info:
        parse_trace(_table(fmt, [("a", "1"), ("b", "1")], rows))
    assert str(info.value) == f"data row {k} is not a row of 2 numbers: {shown}"


@functools.cache
def _long_json():
    """A 10,000-row field map as :func:`emit` writes it: 60 characters a row,
    ten windows of the JSON reader."""
    return emit(_field_map(100, 100, seed=32), "json").decode()


def _after_row(text, k):
    """The position of the delimiter after data row `k` of :func:`_long_json`."""
    at = -1
    for _ in range(k + 1):
        at = text.index("\n  ],", at + 1)
    return at + len("\n  ]")


def _splice(text, at, new, drop=0):
    return text[:at] + new + text[at + drop :]


_CORRUPTIONS = {
    "truncated-at-10": lambda t: t[:10],
    "truncated-at-1000": lambda t: t[:1000],
    "truncated-past-the-first-window": lambda t: t[:70_000],
    "truncated-in-a-number": lambda t: t[: t.index("0.99", 300_000) + 3],
    "truncated-before-the-last-brace": lambda t: t[:-3],
    "bad-delimiter-after-row-5000": lambda t: _splice(t, _after_row(t, 5000), ";", drop=1),
    "trailing-garbage": lambda t: t + "x",
    "trailing-object": lambda t: t + " {}",
    # the string runs on to the quote of the next key, past the data array
    "open-string-with-brackets-in-row-3000": lambda t: _splice(t, _after_row(t, 2999) + 9, '"a],[b'),
    "missing-comma-between-members": lambda t: t.replace('],\n "format"', ']\n "format"'),
}


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS))
def test_json_errors_keep_jsons_message(corrupt, how):
    """The reader reports json's own message for the whole text: its line, column and character."""
    text = _CORRUPTIONS[corrupt](_long_json())
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    with pytest.raises(ConfigError) as info:
        _read(text, how)
    assert str(info.value) == f"trace is not valid JSON: {whole.value}"


def test_a_byte_that_is_not_utf8_is_reported_before_a_json_error_ahead_of_it():
    # as when the whole text is decoded before json reads it
    payload = b'{"format" x\n' + b" \n" * 100_000 + b"\xff}"
    with pytest.raises(ConfigError, match="^trace is not UTF-8 text: "):
        parse_trace(payload)


#: an integer of more digits than `int` converts from text (4,300 by default)
_LONG_INTEGER = "1" * 5000
_JSON_HEAD = '{"format": "tripletsim-trace", "columns": [{"name": "a"}], '
_LONG_INTEGER_SITES = {
    # a block of rows holds it: the rows before and after close with '],'
    "json-cell-in-a-block": _JSON_HEAD + f'"data": [[1], [{_LONG_INTEGER}], [2]]}}',
    # no '],' follows: the scanner reads the row
    "json-cell-in-a-row": _JSON_HEAD + f'"data": [[1], [{_LONG_INTEGER}]]}}',
    "json-member": _JSON_HEAD + f'"metadata": {{"n": {_LONG_INTEGER}}}, "data": [[1]]}}',
    "csv-metadata-line": f'# tripletsim-trace 1\n# {{"n": {_LONG_INTEGER}}}\na[1]\n1\n',
}


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
@pytest.mark.parametrize("site", list(_LONG_INTEGER_SITES))
def test_an_integer_of_too_many_digits_is_a_config_error_with_pythons_text(site, how):
    text = _LONG_INTEGER_SITES[site]
    json_text, what = text, "trace"
    if site == "csv-metadata-line":
        json_text, what = text.split("\n")[1][2:], "trace metadata line"
    with pytest.raises(ValueError) as whole:
        json.loads(json_text)
    with pytest.raises(ConfigError) as info:
        _read(text, how)
    assert str(info.value) == f"{what} is not valid JSON: {whole.value}"


@pytest.mark.parametrize("how", ["bytes", "str", "pipe"])
@pytest.mark.parametrize("window", [7, 64, 1 << 16])
def test_a_long_integer_that_more_text_makes_a_float_reads_as_a_float(window, how):
    # the window may end inside the digits: the float's '.5' is still to come
    number = _LONG_INTEGER + ".5"
    member = _JSON_HEAD + f'"metadata": {{"n": {number}}}, "data": [[1]]}}'
    cell = _JSON_HEAD + f'"data": [[1], [{number}]]}}'
    with mock.patch.object(trace, "_READ_CHARS", window):
        assert _read(member, how).metadata == {"n": float("inf")}
        with pytest.raises(ConfigError, match="^trace data: trace data must be finite$"):
            _read(cell, how)


@pytest.mark.parametrize("how", ["bytes", "pipe"])
def test_a_long_integer_before_the_data_is_refused_with_a_window_of_text(how):
    # more text is read only while the window ends inside a number, so the
    # data array after the member is not held whole to refuse it
    doc = _json_doc(_field_map(241, 210, seed=29))
    doc["metadata"] = {"n": 0}
    payload = json.dumps(doc).replace('{"n": 0}', f'{{"n": {_LONG_INTEGER}}}').encode()
    pipe = io.TextIOWrapper(_Pipe(payload), encoding="utf-8", newline="\n") if how == "pipe" else None
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^trace is not valid JSON: Exceeds the limit"):
            trace._read_stream(pipe) if pipe else parse_trace(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(payload) / 4, f"peak {peak} bytes for a {len(payload)}-byte trace"


@pytest.mark.parametrize("site", ["json-cell-in-a-block", "json-cell-in-a-row", "json-member"])
def test_a_byte_that_is_not_utf8_is_reported_before_a_long_integer_ahead_of_it(site):
    payload = _LONG_INTEGER_SITES[site][:-1].encode() + b" \n" * 100_000 + b"\xff}"
    with pytest.raises(ConfigError, match="^trace is not UTF-8 text: "):
        parse_trace(payload)


def _whole_document(text):
    """What reading `text` whole with `json.loads` gives: the metadata, headers and
    rows, or the message of the first fault, checked in the reader's order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"trace is not valid JSON: {exc}"
    if doc.get("format") != "tripletsim-trace":
        return "not a trace document (missing format marker)"
    columns, rows = doc.get("columns"), doc.get("data")
    if not isinstance(columns, list):
        return "trace document has no 'columns' list"
    if not all(
        isinstance(c, dict) and isinstance(c.get("name"), str) and isinstance(c.get("unit", ""), str)
        for c in columns
    ):
        return "every trace column needs a 'name' string and a string 'unit', if any"
    if not isinstance(rows, list):
        return "trace document has no 'data' list"
    if not isinstance(doc.get("metadata", {}), dict):
        return "trace metadata must be a JSON object"
    for k, row in enumerate(rows):
        if type(row) is not list or len(row) != len(columns):
            return f"data row {k} is not a row of {len(columns)} numbers: {row!r}"
    other = sorted({type(c).__name__ for row in rows for c in row} - {"int", "float"})
    if other:
        return f"trace data: every cell must be a number, got {', '.join(other)}"
    try:
        data = np.array([[float(c) for c in row] for row in rows]).reshape(len(rows), len(columns))
    except OverflowError as exc:
        return f"trace data: {exc}"
    return doc.get("metadata", {}), [(c["name"], c.get("unit", "1")) for c in columns], data


def _streamed(text, how):
    stream = None
    if how == "pipe":
        payload = _Pipe(text.encode("utf-8", "surrogatepass"))
        stream = io.TextIOWrapper(payload, encoding="utf-8", newline="\n")
        text = ""
    try:
        metadata, headers, rows = trace._decode_json(trace._JsonText(text, stream))
        return metadata, headers, rows.array(len(headers))
    except ConfigError as exc:
        return str(exc)


def _mutants(rng, n):
    """JSON traces in every layout of `_LAYOUTS`, each with a few random edits."""
    pieces = list('[]{},:" \n\r\t0123456789.eE-+\\x') + [
        "],[", '"data"', '"columns"', "NaN", "Infinity", "1e999", "1" * 30, "true", "null"
    ]
    for _ in range(n):
        width, count = rng.choice([1, 2, 3]), rng.choice([0, 1, 2, 5, 40])
        cells = [0.5, -1e-300, 1, 123456789.125, 2.5e17, -0.0, "],["]
        doc = {
            "format": "tripletsim-trace",
            "metadata": {"k": rng.choice(["x", "],[", [1, 2]])},
            "columns": [{"name": f"c{i}"} for i in range(width)],
            "data": [[rng.choice(cells) for _ in range(width)] for _ in range(count)],
        }
        text = _LAYOUTS[rng.choice(list(_LAYOUTS))](doc)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            at, edit = rng.randrange(len(text) + 1), rng.random()
            if edit < 0.3:
                text = text[:at] + rng.choice(pieces) + text[at:]
            elif edit < 0.6:
                text = text[:at] + text[at + rng.randint(1, 3) :]
            elif edit < 0.75:
                text = text[:at]
            else:
                text = text[:at] + rng.choice(pieces) + text[at + 1 :]
        if trace._JSON_START.match(text):
            yield text


@pytest.mark.parametrize("how", ["str", "pipe"])
@pytest.mark.parametrize("window", [3, 16, 1 << 16])
def test_the_streamed_json_reader_reads_as_the_whole_document_is_read(window, how):
    """Valid and corrupt documents give the rows, or the message, of reading them whole."""
    with mock.patch.object(trace, "_READ_CHARS", window):
        for text in _mutants(random.Random(32 + window), 300):
            want, got = _whole_document(text), _streamed(text, how)
            if isinstance(want, str):
                assert got == want, text
            else:
                assert got[:2] == want[:2], text
                assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64)), text


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


def _field_map(n_fields, n_frequencies, seed):
    """A field-odmr record: fields 0-300 mT by frequencies 900-1100 MHz, random contrast."""
    fields = np.linspace(0.0, 300.0, n_fields)
    frequencies = np.linspace(900.0, 1100.0, n_frequencies)
    contrast = 1.0 - 0.01 * np.random.default_rng(seed).random(fields.size * frequencies.size)
    return TraceRecord(
        columns=(Column("field", "mT"), Column("frequency", "MHz"), Column("contrast")),
        data=np.column_stack(
            [np.repeat(fields, frequencies.size), np.tile(frequencies, fields.size), contrast]
        ),
        metadata={"experiment": "field-odmr"},
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_write_holds_less_than_half_the_payload(fmt, tmp_path):
    """Chunks written as they come: one block's text is alive at a time, not the document.

    A 100,000-row field map, 200 fields by 500 frequencies. Joining the
    chunks before writing would hold the whole payload at least once.
    """
    record = _field_map(200, 500, seed=27)
    path = tmp_path / f"map.{fmt}"
    tracemalloc.start()
    try:
        size = write_atomic(str(path), emit_chunks(record, fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == path.stat().st_size
    assert peak < size / 2, f"peak {peak} bytes for a {size}-byte trace"


@pytest.mark.parametrize(
    "fmt, text, bound",
    [("csv", False, 1.0), ("json", False, 1.0), ("csv", True, 2.0), ("json", True, 2.0)]
    + [(layout, how, 1.0) for layout in ("indent-none", "compact") for how in (False, "pipe")],
)
def test_parse_holds_a_bounded_multiple_of_the_payload(fmt, text, bound):
    """Both formats stream into one float64 array: the read holds less than the
    payload. A CSV `str` payload adds its one-byte-per-character encoding; a
    JSON `str` is read in place, a window at a time. A JSON document on one
    line, as `json.dumps` writes it by default, is read a window at a time
    too, from bytes or from a pipe (`text` is "pipe").

    A 50,610-row field map, 241 fields by 210 frequencies. A reader that
    holds the decoded text and a Python float per cell peaks at about 7x
    the CSV payload and 4.5x the JSON payload; one that decodes the whole
    JSON document before copying its rows out, at 3.7x; one that holds a
    one-line document whole as its first line, at 2x; an `io.StringIO` of
    a `str` holds four bytes per character.
    """
    record = _field_map(241, 210, seed=29)
    payload = emit(record, fmt) if fmt in ("csv", "json") else _LAYOUTS[fmt](_json_doc(record)).encode()
    if text is True:
        payload = payload.decode()
    pipe = io.TextIOWrapper(_Pipe(payload), encoding="utf-8", newline="\n") if text == "pipe" else None
    tracemalloc.start()
    try:
        back = trace._read_stream(pipe) if pipe else parse_trace(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, record.data)
    assert peak < bound * len(payload), f"peak {peak} bytes for a {len(payload)}-byte trace"


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
                st.sampled_from(
                    ['"data": []', '\n "data": []', '"data": [\n', "\n ]", "[[1.0]]", ""]
                ),
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
