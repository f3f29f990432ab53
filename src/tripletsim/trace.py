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
"""

from __future__ import annotations

import itertools
import json
import os
import re
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


#: Rows formatted per block; only one block's cell strings are alive at a time.
_BLOCK_ROWS = 4096


def _formatted_blocks(data: np.ndarray):
    """Yield the rows of `data`, block by block, as tuples of cell strings.

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


def _json_member(key: str, value) -> str:
    """One top-level member of the indent=1 JSON document.

    The value is dumped on its own and shifted one level in; encoded
    strings never hold a raw newline, so every newline is indentation.
    """
    return f" {json.dumps(key)}: " + json.dumps(value, sort_keys=True, indent=1).replace(
        "\n", "\n "
    )


def emit(record: TraceRecord, fmt: str = "csv") -> bytes:
    """Serialize a trace record to CSV or JSON bytes (LF line endings).

    The JSON form is exactly ``json.dumps(doc, sort_keys=True, indent=1)``
    of the document; its data block is written directly, since the
    encoder's pure-Python path is slow for long tables.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}; use 'csv' or 'json'")
    blocks = _formatted_blocks(record.data)
    if fmt == "csv":
        lines = [f"# {_MAGIC} {_FORMAT_VERSION}"]
        lines.append("# " + json.dumps(record.metadata, sort_keys=True, separators=(",", ":")))
        lines.append(",".join(col.header for col in record.columns))
        lines.extend("\n".join(map(",".join, rows)) for rows in blocks)
        return ("\n".join(lines) + "\n").encode("utf-8")
    data = ",\n".join(
        "  [\n   " + "\n  ],\n  [\n   ".join(map(",\n   ".join, rows)) + "\n  ]"
        for rows in blocks
    )
    members = (
        _json_member("columns", [{"name": c.name, "unit": c.unit} for c in record.columns]),
        f' "data": [\n{data}\n ]' if data else ' "data": []',
        _json_member("format", _MAGIC),
        _json_member("metadata", record.metadata),
        _json_member("version", _FORMAT_VERSION),
    )
    return ("{\n" + ",\n".join(members) + "\n}\n").encode("utf-8")


def parse_trace(payload: bytes | str) -> TraceRecord:
    """Re-ingest a trace emitted by :func:`emit` (either format).

    Both formats decode to (metadata, headers, rows) and meet one set of table
    rules: valid columns, rows of one number (int or float) per column, finite data.
    """
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trace is not UTF-8 text: {exc}") from exc
    decode = _decode_json if payload.lstrip().startswith("{") else _decode_csv
    metadata, headers, rows = decode(payload)
    try:
        columns = tuple(Column(name, unit) for name, unit in headers)
    except InvalidParameterError as exc:
        raise ConfigError(f"trace column: {exc}") from exc
    width = len(columns)
    for k, row in enumerate(rows):
        if type(row) not in (list, tuple) or len(row) != width:
            raise ConfigError(f"data row {k} is not a row of {width} numbers: {row!r}")
    cells = list(itertools.chain.from_iterable(rows))
    other = sorted(t.__name__ for t in set(map(type, cells)) - {int, float})
    if other:
        raise ConfigError(f"trace data: every cell must be a number, got {', '.join(other)}")
    try:
        data = np.fromiter(cells, float, len(cells)).reshape(len(rows), width)
        return TraceRecord(columns=columns, data=data, metadata=metadata)
    except (OverflowError, InvalidParameterError) as exc:
        raise ConfigError(f"trace data: {exc}") from exc


def read_trace(path: str) -> TraceRecord:
    with open(path, "rb") as fh:
        return parse_trace(fh.read())


def _decode_json(text: str) -> tuple[dict, list, list]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trace is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MAGIC:
        raise ConfigError("not a trace document (missing format marker)")
    if not isinstance(doc.get("columns"), list):
        raise ConfigError("trace document has no 'columns' list")
    if not all(
        isinstance(c, dict) and isinstance(c.get("name"), str) and isinstance(c.get("unit", ""), str)
        for c in doc["columns"]
    ):
        raise ConfigError("every trace column needs a 'name' string and a string 'unit', if any")
    if not isinstance(doc.get("data"), list):
        raise ConfigError("trace document has no 'data' list")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError("trace metadata must be a JSON object")
    return metadata, [(c["name"], c.get("unit", "1")) for c in doc["columns"]], doc["data"]


def _decode_csv(text: str) -> tuple[dict, list, list]:
    lines = text.split("\n")
    n_meta = next((k for k, line in enumerate(lines) if not line.startswith("#")), len(lines))
    body = [line for line in lines[n_meta:] if line.strip()]
    if not body:
        raise ConfigError("trace has no header row")
    chunks = [c for c in (line[1:].strip() for line in lines[:n_meta]) if c.startswith("{")]
    try:
        metadata = json.loads(chunks[0]) if chunks else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trace metadata line is not valid JSON: {exc}") from exc
    headers = [_HEADER_RE.match(header.strip()) for header in body[0].split(",")]
    if None in headers:
        raise ConfigError(f"malformed header row {body[0]!r}; expected name[unit] columns")
    try:  # tuples: the garbage collector stops tracking a tuple of floats, not a list
        rows = [tuple(map(float, line.split(","))) for line in body[1:]]
    except ValueError as exc:
        raise ConfigError(f"non-numeric trace cell: {exc}") from exc
    return metadata, [m.groups() for m in headers], rows


def write_atomic(path: str, payload: bytes) -> None:
    """Write bytes so the destination is never seen half-written.

    The file gets the mode `open(path, "w")` would give it: 0o666 less
    the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".trace-{os.getpid()}-{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
