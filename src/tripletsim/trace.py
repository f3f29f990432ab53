"""Trace records and their serialization.

A trace is row-major numeric data with named, unit-tagged columns and a
metadata mapping (configuration echo, seed, package version - never
timestamps, so identical runs emit identical bytes). Two formats are
supported: CSV with '#'-prefixed leading metadata lines and a
"name[unit]" header row, and an equivalent JSON document. Numbers are
written with shortest round-trip precision, so emitting and re-ingesting
reproduces every value bit for bit.
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

    Cells get the shortest round-trip text. Within a block, each distinct
    float64 bit pattern of a column is formatted once; grouping by bits
    rather than by value keeps -0.0 apart from 0.0.
    """
    for start in range(0, data.shape[0], _BLOCK_ROWS):
        block = data[start : start + _BLOCK_ROWS]
        cells = []
        for column in block.T:
            bits, inverse = np.unique(
                np.ascontiguousarray(column).view(np.int64), return_inverse=True
            )
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            cells.append(text[inverse].tolist())
        yield zip(*cells)


def _json_row(row: tuple[str, ...]) -> str:
    return "  [\n   " + ",\n   ".join(row) + "\n  ]"


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
    data = ",\n".join(",\n".join(map(_json_row, rows)) for rows in blocks)
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
