"""Trace records and their serialization.

A trace is row-major numeric data with named, unit-tagged columns and a
metadata mapping (configuration echo, seed, package version - never
timestamps, so identical runs emit identical bytes). Two formats are
supported: CSV with '#'-prefixed leading metadata lines and a
"name[unit]" header row, and an equivalent JSON document. Numbers are
written as `repr` writes them, with shortest round-trip precision, so
emitting and re-ingesting reproduces every value bit for bit. For
1e-4 <= |x| < 1e16, where `repr` writes fixed notation, a block's distinct
values get that text from one numpy pass with exact float64/int64
decisions (Dekker's exact product); zeros, subnormals and values `repr`
writes in exponent notation are left to `repr`.

A document is formatted and encoded block by block (:func:`emit_chunks`),
and :func:`write_atomic` writes each chunk as it comes, so a writer holds
one block of rows as text, never the whole document.

A trace is read back as a stream (:func:`parse_trace`, :func:`read_trace`),
so a reader holds the float64 array of its rows and a bounded window of
text, never the whole document. Files, bytes and pipes are read by one
path, once, from the top: the leading lines a window at a time, so a JSON
document on one line is no more held whole than an indented one. The body
of a CSV table goes to numpy's C reader, which is correctly rounded like
`float` and fills the array with no Python object per cell; it accepts the
number forms `float` accepts except '_' separators and non-ASCII digits,
which JSON refuses too. A JSON document is walked member by member with
json's own scanner, and its data array a block of rows at a time
(:class:`_JsonText`): it reads, and fails with the message, line and
column, as `json.loads` of the whole text would.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError

_MAGIC = "tripletsim-trace"
_FORMAT_VERSION = 1

_HEADER_RE = re.compile(r"^(?P<name>[^\[\]]+)\[(?P<unit>[^\[\]]*)\]$")


@dataclass(frozen=True)
class Column:
    """A named data column with a unit tag ('1' marks dimensionless)."""

    name: str
    unit: str = "1"

    def __post_init__(self) -> None:
        if not self.name or "[" in self.name or "]" in self.name or "," in self.name:
            raise InvalidParameterError(f"invalid column name {self.name!r}")
        if "[" in self.unit or "]" in self.unit or "," in self.unit:
            raise InvalidParameterError(f"invalid column unit {self.unit!r}")

    @property
    def header(self) -> str:
        return f"{self.name}[{self.unit}]"


@dataclass
class TraceRecord:
    """Numeric result table plus metadata."""

    columns: tuple[Column, ...]
    data: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if not self.columns:
            raise InvalidParameterError("a trace needs at least one column")
        if self.data.ndim != 2:
            raise InvalidParameterError(f"trace data must be 2-d, got shape {self.data.shape}")
        if self.data.shape[1] != len(self.columns):
            raise InvalidParameterError(
                f"{len(self.columns)} columns declared but data has {self.data.shape[1]}"
            )
        if not np.all(np.isfinite(self.data)):
            raise InvalidParameterError("trace data must be finite")

    def column_index(self, key: str | int) -> int:
        """The position of the column named `key`, or `key` itself if it is a position."""
        if isinstance(key, str):
            names = [c.name for c in self.columns]
            if key not in names:
                raise InvalidParameterError(f"no column named {key!r}; have {names}")
            return names.index(key)
        if not 0 <= key < len(self.columns):
            raise InvalidParameterError(f"index {key} out of range for {len(self.columns)} columns")
        return key

    def column(self, key: str | int) -> np.ndarray:
        return self.data[:, self.column_index(key)]


#: Rows per block: only one block's cell strings and text are alive at a time.
_BLOCK_ROWS = 4096


def _formatted_blocks(data: np.ndarray):
    """Yield the rows of `data`, block by block, as tuples of cell strings.

    A block is `_BLOCK_ROWS` rows; :func:`emit_chunks` encodes each block
    into one chunk before it asks for the next.

    Cells get `repr`'s text: the shortest round-trip digits. Within a block,
    each distinct float64 bit pattern is formatted once, whatever its column,
    by one numpy pass (:func:`_shortest_text`); grouping by bits rather than
    by value keeps -0.0 apart from 0.0.
    """
    for start in range(0, data.shape[0], _BLOCK_ROWS):
        block = np.ascontiguousarray(data[start : start + _BLOCK_ROWS])
        bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        columns = _shortest_text(bits.view(np.float64))[inverse].reshape(block.shape).T.tolist()
        del bits, inverse  # while the caller writes the block, only its strings stay alive
        yield zip(*columns)


# --- repr's text in one numpy pass -----------------------------------------
#
# repr(x) is the shortest decimal that reads back as x; of several, the one
# nearest x, and of two equally near, the one with an even last digit. It is
# written in fixed notation for 1e-4 <= |x| < 1e16. In that range
# _fixed_text finds the same digits with float64 and int64 arithmetic in
# which every decision is exact. With x = m * 2**q (m the 53-bit significand)
# and s chosen so that y = |x| * 10**s lies in [1e16, 1e17), the 17-digit
# decimals that read back as x are the integers of an interval [L, H] around
# y. The answer is the multiple of the largest power of ten in [L, H] that is
# nearest y. Everything else, zeros, subnormals and exponent notation, is
# left to repr.

# Powers from Python numbers: numpy's ** here added 0.7 MB to the resident
# memory of a field-odmr run, which uses those loops nowhere else.
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_POW5 = np.array([5.0**k for k in range(23)])  # exact: 5**22 < 2**53


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW5_HI, _POW5_LO = _split(_POW5)
#: "0000" to "9999" as ASCII, one uint32 per four digits
_DIGITS4 = np.empty((100, 100, 4), np.uint8)
_DIGITS4[..., :2] = (np.arange(100)[:, None] // _POW10[1::-1] % 10 + ord("0"))[:, None]
_DIGITS4[..., 2:] = _DIGITS4[:, :1, :2].swapaxes(0, 1)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()


def _scaled(m: np.ndarray, q: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and y - floor(y) as float64 for y = m * 2**q * 10**s.

    Dekker's two-product (Numer. Math. 18, 224 (1971)) writes m * 5**s, a
    product of up to 104 bits, exactly as p + err; scaling both by
    2**(q + s) is exact too. For 2**53 <= y < 2**57, p * 2**(q + s) is an
    integer and |err * 2**(q + s)| <= 8 is a multiple of 2**(q + s) >= 2**-46,
    so both results are exact. For a smaller y the integer part is only
    known to be below 1e16, which is all a caller tests it for.
    """
    p = m * _POW5[s]
    mh, ml = _split(m)
    bh, bl = _POW5_HI[s], _POW5_LO[s]
    err = ((mh * bh - p) + mh * bl + ml * bh) + ml * bl
    hi = np.ldexp(p, q + s)
    lo = np.ldexp(err, q + s)
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each int64 in [1e16, 1e17), as an (len, 17) uint8 matrix."""
    quads = np.empty((5, n.size), np.uint32)
    for k, unit in enumerate(_POW10[16:0:-4]):
        lead = n // unit
        quads[k] = _DIGITS4[lead]
        n = n - lead * unit
    quads[4] = _DIGITS4[n]
    return quads.T.copy().view(np.uint8)[:, 3:]


def _interval(bits, q, s, y, y_frac) -> tuple[np.ndarray, np.ndarray]:
    """[L, H], as int64: the integers within half a float64 spacing of
    y = floor(y) + y_frac, which are the 17-digit decimals that read back as x.

    The spacing below a power of two is half as wide, and the ends read back
    as x only when its significand is even. Each float64 here is a multiple
    of 2**(q + s - 2) >= 2**-48 below 2**5, so every sum is exact.
    """
    half_gap = np.ldexp(_POW5[s], q + s - 1)
    odd = (bits & 1).astype(bool)
    top = y_frac + half_gap
    top_floor = np.floor(top)
    high = y + top_floor.astype(np.int64) - (odd & (top == top_floor))
    bottom = y_frac - np.where(bits & (2**52 - 1) == 0, 0.5 * half_gap, half_gap)
    bottom_ceil = np.ceil(bottom)
    return y + bottom_ceil.astype(np.int64) + (odd & (bottom == bottom_ceil)), high


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each v of `x`, all finite with 1e-4 <= |v| < 1e16: as int64
    d1d2...d17, with the count of significant digits and the decimal point, so that
    |v| = 0.d1d2...d17 * 10**point."""
    bits = x.view(np.int64)
    m = (bits & (2**52 - 1) | 2**52).astype(np.float64)
    q = (bits >> 52 & 0x7FF) - 1075
    s = 16 - np.floor(np.log10(np.abs(x))).astype(np.int64)
    y, y_frac = _scaled(m, q, s)
    off = np.flatnonzero((y < _POW10[16]) | (y >= _POW10[17]))  # log10 missed by one
    if off.size:
        s[off] += np.where(y[off] < _POW10[16], 1, -1)
        y[off], y_frac[off] = _scaled(m[off], q[off], s[off])
    low, high = _interval(bits, q, s, y, y_frac)
    # r: the largest power of ten with a multiple in [L, H]. A multiple of
    # 10**(k + 1) is one of 10**k, so only the values still searching go on.
    r = np.zeros(x.size, np.int64)
    searching, low_k, high_k = np.arange(x.size), low, high
    for k in range(1, 18):
        has = high_k // _POW10[k] * _POW10[k] >= low_k
        searching, low_k, high_k = searching[has], low_k[has], high_k[has]
        if not searching.size:
            break
        r[searching] = k
    # the multiple of 10**r nearest y: round y's 17 - r leading digits, half to even
    unit = _POW10[r]
    lead = y // unit
    # the sign of 2 * (y - lead * unit) - unit, from an integer clipped to where
    # a fraction in [0, 1) can still change it
    excess = np.clip(2 * (y - lead * unit) - unit, -2, 1) + 2.0 * y_frac
    up = (excess > 0) | ((excess == 0) & (lead & 1).astype(bool))
    up = (up | (lead * unit < low)) & ((lead + 1) * unit <= high)
    # 10**17 is never chosen: its decimal, 10**(17 - s), would read back as an x
    # below it, and no power of ten from 1e-4 to 1e16 reads back as a float64
    # below itself. So every choice has 17 digits.
    return (lead + up) * unit, 17 - r, 17 - s


def _fixed_text(x: np.ndarray) -> np.ndarray:
    """repr(v) for each v of `x`, all finite with 1e-4 <= |v| < 1e16, as an object array."""
    chosen, significant, point = _shortest_digits(x)
    # digits written: 1234.0 writes five
    shown = np.where(point <= 0, significant, np.maximum(significant, point + 1))
    negative = x < 0
    layout = (negative * 20 + point) * 18 + shown  # one integer per (sign, point, shown)
    order = np.argsort(layout, kind="stable")
    text = np.empty(x.size, dtype=object)
    text[order] = (
        _ascii_text(layout[order], chosen[order], negative[order], point[order], shown[order])
        .decode("ascii")
        .split()
    )
    return text


def _ascii_text(layout, chosen, negative, point, shown) -> bytes:
    """The strings of values sorted by layout, as one space-separated ASCII text.

    The values of one run of `layout` share a sign, a point and a count of
    digits shown, so their rows have one width and are filled by column slices.
    """
    ascii_digits = _digits(chosen)
    starts = np.flatnonzero(np.diff(layout, prepend=layout[:1] - 1)).tolist()
    chunks = []
    for a, b in zip(starts, starts[1:] + [chosen.size]):
        point_a, shown_a = int(point[a]), int(shown[a])
        prefix = "-" * int(negative[a]) + ("0." + "0" * -point_a if point_a <= 0 else "")
        j = len(prefix)
        rows = np.empty((b - a, j + shown_a + (point_a > 0) + 1), np.uint8)
        rows[:, :j] = np.frombuffer(prefix.encode(), np.uint8)
        if point_a <= 0:
            rows[:, j:-1] = ascii_digits[a:b, :shown_a]
        else:
            rows[:, j : j + point_a] = ascii_digits[a:b, :point_a]
            rows[:, j + point_a] = ord(".")
            rows[:, j + point_a + 1 : -1] = ascii_digits[a:b, point_a:shown_a]
        rows[:, -1] = ord(" ")
        chunks.append(rows.tobytes())
    return b"".join(chunks)


def _shortest_text(values: np.ndarray) -> np.ndarray:
    """repr of each float64 in `values`, as an object array of str."""
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    text = np.empty(values.size, dtype=object)
    text[fixed] = _fixed_text(values[fixed])
    rest = np.flatnonzero(~fixed)
    text[rest] = list(map(repr, values[rest].tolist()))
    return text


def emit_chunks(record: TraceRecord, fmt: str = "csv") -> Iterator[bytes]:
    """Serialize a trace record to CSV or JSON, as UTF-8 chunks (LF line endings).

    The chunks are the document's head, one chunk per block of
    `_BLOCK_ROWS` rows, then its tail, so a writer holds one block's text
    at a time. The JSON form is exactly ``json.dumps(doc, sort_keys=True,
    indent=1)`` of the document: its head and tail are that dump with an
    empty data array, cut at ``'\\n "data": []'``, which it holds once (a
    nested key sits deeper, and the encoder escapes every newline inside
    a string); the rows between them are written directly, since the
    encoder's pure-Python path is slow for long tables.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}; use 'csv' or 'json'")
    blocks = _formatted_blocks(record.data)
    if fmt == "csv":
        meta = json.dumps(record.metadata, sort_keys=True, separators=(",", ":"))
        header = ",".join(col.header for col in record.columns)
        yield f"# {_MAGIC} {_FORMAT_VERSION}\n# {meta}\n{header}\n".encode("utf-8")
        for rows in blocks:
            yield ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")
        return
    doc = {
        "columns": [{"name": c.name, "unit": c.unit} for c in record.columns],
        "data": [],
        "format": _MAGIC,
        "metadata": record.metadata,
        "version": _FORMAT_VERSION,
    }
    head, tail = json.dumps(doc, sort_keys=True, indent=1).split('\n "data": []')
    yield f'{head}\n "data": ['.encode("utf-8")
    close = "]"
    for k, rows in enumerate(blocks):
        block = "\n  ],\n  [\n   ".join(map(",\n   ".join, rows))
        yield f"{',' if k else ''}\n  [\n   {block}\n  ]".encode("utf-8")
        close = "\n ]"
    yield f"{close}{tail}\n".encode("utf-8")


def emit(record: TraceRecord, fmt: str = "csv") -> bytes:
    """The whole document of :func:`emit_chunks`, as one bytes object."""
    return b"".join(emit_chunks(record, fmt))


def parse_trace(payload: bytes | str) -> TraceRecord:
    """Re-ingest a trace emitted by :func:`emit` (either format).

    The payload is read as a stream (:func:`_read_stream`), so the decoded
    text of a table is never held whole. A JSON `str` is read in place; a
    CSV `str` is encoded first, which holds one byte per ASCII character
    where an `io.StringIO` would copy it at four.
    """
    if isinstance(payload, str):
        if _JSON_START.match(payload):
            return _record(*_decode_json(_JsonText(payload)), _Rows.array)
        payload = payload.encode("utf-8", "surrogatepass")
    return _read_stream(io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8", newline="\n"))


def read_trace(path: str) -> TraceRecord:
    """Re-ingest the trace file at `path`, read as it is decoded."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        return _read_stream(fh)


#: A JSON document's text, after any leading whitespace; anything else is a CSV table.
_JSON_START = re.compile(r"\s*\{")


def _read_stream(stream: io.TextIOBase) -> TraceRecord:
    """Decode a text stream of either format into a checked record.

    Leading lines are read at most a window (`_READ_CHARS`) at a time. If the
    first non-blank text starts with '{', JSON is read on from it a window at
    a time (:class:`_JsonText`); a CSV table goes to numpy's C reader line by
    line (:func:`_csv_data`). A byte that is not UTF-8 may come up in either.
    """
    try:
        blank = []
        line = stream.readline(_READ_CHARS)
        while line.isspace():
            blank.append(line)
            line = stream.readline(_READ_CHARS)
        if _JSON_START.match(line):
            return _record(*_decode_json(_JsonText("".join(blank) + line, stream)), _Rows.array)
        if not line.endswith("\n"):
            line += stream.readline()
        # '#' metadata lines count only at the very top of a CSV table
        return _record(*_decode_csv(itertools.chain(blank[:1], [line], stream)), _csv_data)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"trace is not UTF-8 text: {exc}") from exc


def _record(
    metadata: dict, headers: list, body: Iterable | _Rows, table: Callable[..., np.ndarray]
) -> TraceRecord:
    """Both formats' table rules: valid columns, rows of one number per column
    (`table` reads `body` into an array of that width), finite data."""
    try:
        columns = tuple(Column(name, unit) for name, unit in headers)
    except InvalidParameterError as exc:
        raise ConfigError(f"trace column: {exc}") from exc
    data = table(body, len(columns))
    try:
        return TraceRecord(columns=columns, data=data, metadata=metadata)
    except InvalidParameterError as exc:
        raise ConfigError(f"trace data: {exc}") from exc


def _csv_data(lines: Iterator[str], width: int) -> np.ndarray:
    """The body lines of a CSV table as an (n, width) array, read by numpy's C reader.

    Blank and whitespace-only lines are skipped. Each other line must hold
    `width` comma-separated numbers; the reader parses them correctly
    rounded, as `float` does, but refuses '_' separators and non-ASCII
    digits. An empty table never reaches the reader, which would warn.
    """
    blocks = _checked_blocks(lines, width)
    first = next(blocks, None)
    if first is None:
        return np.empty((0, width))
    body = itertools.chain(first, itertools.chain.from_iterable(blocks))
    try:
        return np.loadtxt(body, delimiter=",", dtype=float, comments=None, ndmin=2)
    except UnicodeDecodeError:  # a ValueError too, from a line decoded as the reader takes it
        raise
    except ValueError as exc:
        raise ConfigError(f"non-numeric trace cell: {exc}") from exc


#: Lines per block of a CSV read: the reader holds one block of lines at a time.
_READ_ROWS = 1024


def _checked_blocks(lines: Iterator[str], width: int) -> Iterator[list[str]]:
    """The non-blank lines, `_READ_ROWS` at a time, each checked to hold `width` cells.

    The lines are filtered and their commas counted in C, a block at a
    time, so the check adds no Python step per line.
    """
    body = itertools.filterfalse(str.isspace, lines)
    for start in itertools.count(0, _READ_ROWS):
        block = list(itertools.islice(body, _READ_ROWS))
        if not block:
            return
        if set(map(str.count, block, itertools.repeat(","))) != {width - 1}:
            k = next(k for k, line in enumerate(block) if line.count(",") != width - 1)
            row = block[k].rstrip("\n")
            raise ConfigError(f"data row {start + k} is not a row of {width} numbers: {row!r}")
        yield block


#: Characters of JSON text read at a time: a reader holds about two such
#: windows and one block of rows as Python objects.
_READ_CHARS = 1 << 16
#: How far past a value json's scanner may look: a value or an error this
#: near the end of the window is scanned again with more text.
_LOOKAHEAD = 16
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_scan_value = json.scanner.make_scanner(json.JSONDecoder())


def _scan_key(text: str, pos: int) -> tuple[str, int]:
    return json.decoder.scanstring(text, pos + 1)


class _JsonText:
    """JSON text read a window at a time from `stream`, or all of `text` if
    there is no stream. `text[pos:]` is the part not yet read; errors carry
    the line, column and character json gives them in the whole text."""

    def __init__(self, text: str, stream: io.TextIOBase | None = None):
        self.text, self.stream, self.pos = text, stream, 0
        self.dropped = self.lines = 0  # characters and newlines dropped before text[0]
        self.last_newline = -1  # the position in the whole text of the last one dropped

    def more(self) -> bool:
        """Drop the text before `pos` and read at least as much again as is
        left, at least `_READ_CHARS`; False if the stream has ended."""
        chunk = self.stream.read(max(_READ_CHARS, len(self.text) - self.pos)) if self.stream else ""
        if not chunk:
            self.stream = None
            return False
        newline = self.text.rfind("\n", 0, self.pos)
        if newline >= 0:
            self.last_newline = self.dropped + newline
        self.lines += self.text.count("\n", 0, self.pos)
        self.dropped += self.pos
        self.text, self.pos = self.text[self.pos :] + chunk, 0
        return True

    def skip(self) -> str:
        """Skip JSON whitespace; the character after it, or "" at the end of the text."""
        while True:
            self.pos = _JSON_SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self.more():
                return ""

    def error(self, msg: str, pos: int | None) -> ConfigError:
        """json's error `msg` at `text[pos]`, placed in the whole text; an
        integer of too many digits for `int` has no place (`pos` is None).

        The rest of the stream is decoded first, so a byte that is not UTF-8
        is reported before it, as when the whole text is decoded at once.
        """
        if pos is not None:
            newline = self.text.rfind("\n", 0, pos)
            line = self.lines + self.text.count("\n", 0, pos) + 1
            column = pos - newline if newline >= 0 else self.dropped + pos - self.last_newline
            msg = f"{msg}: line {line} column {column} (char {self.dropped + pos})"
        while self.stream and self.stream.read(_READ_CHARS):
            pass
        return ConfigError(f"trace is not valid JSON: {msg}")

    def scan(self, scanner: Callable[[str, int], tuple] = _scan_value):
        """The value `scanner` reads at `pos`, as it reads it in the whole text."""
        while True:
            try:
                value, end = scanner(self.text, self.pos)
            except StopIteration as exc:
                msg, at = "Expecting value", exc.value
            except json.JSONDecodeError as exc:
                msg, at = exc.msg, exc.pos
            except ValueError as exc:  # too many digits for int, which json places nowhere
                msg, at = str(exc), None
            else:
                if end + _LOOKAHEAD < len(self.text) or not self.more():
                    self.pos = end
                    return value
                continue
            if at is None:  # if the text ends in a number, more of it may make the number a float
                cut_short = self.text[-1] in "0123456789.eE+-"
            else:
                cut_short = at + _LOOKAHEAD >= len(self.text) or msg.startswith("Unterminated")
            if not (cut_short and self.more()):
                raise self.error(msg, at)

    def block(self) -> list | None:
        """The rows up to the last '],' in the next `_READ_CHARS` characters, if
        they decode as a list of values; None if no such cut decodes.

        A cut inside a row or a string leaves a bracket or a string open, and
        a cut after the array's own ']' leaves one ']' too many, so a block
        that decodes holds exactly whole rows, read as json reads them.
        """
        end = self.pos + _READ_CHARS
        while (cut := self.text.rfind("],", self.pos, end)) >= 0:
            try:
                rows = json.loads("[" + self.text[self.pos : cut + 1] + "]")
            except json.JSONDecodeError as exc:
                end = min(self.pos + exc.pos, cut + 1)  # try a cut before the fault
                continue
            except ValueError as exc:  # too many digits for int: a number the cut left whole
                raise self.error(str(exc), None) from exc
            self.pos = cut + 1
            return rows
        return None

    def rows(self, table: _Rows) -> None:
        """Read the array at `pos` into `table`, a block of rows at a time."""
        self.pos += 1
        if self.skip() == "]":
            self.pos += 1
            return
        while True:
            if len(self.text) - self.pos < _READ_CHARS:
                self.more()
            table.add(self.block() or [self.scan()])
            delimiter = self.skip()
            self.pos += 1
            if delimiter == "]":
                return
            if delimiter != ",":
                raise self.error("Expecting ',' delimiter", self.pos - 1)
            self.skip()


class _Rows:
    """The rows of a JSON data array, checked and copied block by block into
    one float64 array as wide as the first row, which grows in place.

    The faults the whole table is checked for are kept, so that :meth:`array`
    names the first of them as if the table were checked at once: a row
    that is not a list of `width` numbers, then the types of the cells that
    are not numbers, then an integer too large for a float.
    """

    def __init__(self) -> None:
        self.count, self.width = 0, -1
        self.data: np.ndarray | None = np.empty((0, 0))
        self.first = self.bad_row = self.overflow = None
        self.cell_types: set[type] = set()

    def add(self, rows: list) -> None:
        start, self.count = self.count, self.count + len(rows)
        if self.bad_row is not None:
            return
        if self.first is None:
            self.first = rows[0]
            self.width = len(rows[0]) if type(rows[0]) is list else -1
        width = self.width
        if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
            k = next(k for k, r in enumerate(rows) if type(r) is not list or len(r) != width)
            self.bad_row, self.data = (start + k, rows[k]), None
            return
        self.cell_types |= set(map(type, itertools.chain.from_iterable(rows))) - {int, float}
        if self.data is None or self.cell_types:
            self.data = None
            return
        if len(self.data) < self.count:  # no view of the array exists
            self.data.resize((max(self.count, len(self.data) * 5 // 4), width), refcheck=False)
        try:
            cells = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
        except OverflowError as exc:
            self.overflow, self.data = exc, None
            return
        self.data[start : self.count] = cells.reshape(len(rows), width)

    def array(self, width: int) -> np.ndarray:
        """The rows as an (n, width) array, or the first fault of the table."""
        bad_row = (0, self.first) if self.count and self.width != width else self.bad_row
        if bad_row is not None:
            k, row = bad_row
            raise ConfigError(f"data row {k} is not a row of {width} numbers: {row!r}")
        if self.cell_types:
            other = sorted(t.__name__ for t in self.cell_types)
            raise ConfigError(f"trace data: every cell must be a number, got {', '.join(other)}")
        if self.overflow is not None:
            raise ConfigError(f"trace data: {self.overflow}") from self.overflow
        if not self.count:
            return np.empty((0, width))
        self.data.resize((self.count, width), refcheck=False)
        return self.data


def _decode_json(text: _JsonText) -> tuple[dict, list, _Rows]:
    """The metadata, headers and data rows of a JSON document.

    The top-level object is walked as json walks it, one member at a time;
    every value but the `data` array is read by json's scanner, and the
    array is read into :class:`_Rows` a block at a time. As in a dict, the
    last of two members with one key wins.
    """
    members: dict = {}
    if text.skip() != "{":
        raise text.error("Expecting value", text.pos)
    text.pos += 1
    if text.skip() != "}":
        while True:
            if text.skip() != '"':
                raise text.error("Expecting property name enclosed in double quotes", text.pos)
            key = text.scan(_scan_key)
            if text.skip() != ":":
                raise text.error("Expecting ':' delimiter", text.pos)
            text.pos += 1
            members.pop(key, None)  # an earlier value of the key goes before the next is read
            if text.skip() == "[" and key == "data":
                members[key] = _Rows()
                text.rows(members[key])
            else:
                members[key] = text.scan()
            delimiter = text.skip()
            if delimiter == "}":
                break
            if delimiter != ",":
                raise text.error("Expecting ',' delimiter", text.pos)
            text.pos += 1
    text.pos += 1
    if text.skip():
        raise text.error("Extra data", text.pos)
    if members.get("format") != _MAGIC:
        raise ConfigError("not a trace document (missing format marker)")
    columns = members.get("columns")
    if not isinstance(columns, list):
        raise ConfigError("trace document has no 'columns' list")
    if not all(
        isinstance(c, dict) and isinstance(c.get("name"), str) and isinstance(c.get("unit", ""), str)
        for c in columns
    ):
        raise ConfigError("every trace column needs a 'name' string and a string 'unit', if any")
    if not isinstance(members.get("data"), _Rows):
        raise ConfigError("trace document has no 'data' list")
    metadata = members.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError("trace metadata must be a JSON object")
    return metadata, [(c["name"], c.get("unit", "1")) for c in columns], members["data"]


def _decode_csv(stream: Iterable[str]) -> tuple[dict, list, Iterator[str]]:
    """The metadata and headers of a CSV table, and its remaining lines.

    The leading '#' lines hold the metadata: the first of them whose text
    starts with '{'. The first non-blank line after them is the header row.
    """
    lines = iter(stream)
    line, meta = next(lines, ""), None
    while line.startswith("#"):
        if meta is None and line[1:].strip().startswith("{"):
            meta = line[1:].strip()
        line = next(lines, "")
    while line.isspace():
        line = next(lines, "")
    if not line:
        raise ConfigError("trace has no header row")
    try:
        metadata = json.loads(meta) if meta is not None else {}
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits for int
        raise ConfigError(f"trace metadata line is not valid JSON: {exc}") from exc
    header = line.rstrip("\n")
    headers = [_HEADER_RE.match(cell.strip()) for cell in header.split(",")]
    if None in headers:
        raise ConfigError(f"malformed header row {header!r}; expected name[unit] columns")
    return metadata, [m.groups() for m in headers], lines


def write_atomic(path: str, payload: bytes | Iterable[bytes]) -> int:
    """Write bytes, or chunks of bytes as they come, so the destination is
    never seen half-written; return the number of bytes written.

    The chunks go to a temporary file beside `path`, which replaces `path`
    once all are written and synced. If a chunk fails to arrive, the
    temporary file is removed and `path` is left as it was. The file gets
    the mode `open(path, "w")` would give it: 0o666 less the umask.
    """
    chunks = (payload,) if isinstance(payload, bytes) else payload
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".trace-{os.getpid()}-{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    written = 0
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                written += fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return written
