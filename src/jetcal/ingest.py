"""Trace file parsing and writing.

Two CSV schemas, both with a mandatory header row and integer
microsecond timestamps:

  internal_csv  timestamp_us,power_mw
  external_csv  timestamp_us,voltage_v,current_a   (clamp reading, raw)
                timestamp_us,power_mw              (pre-computed power)

The external variant is auto-detected from the header. Duplicate or
out-of-order timestamps are rejected: they indicate a logging fault that
averaging would silently mask. A file with several faults fails with a
ParseError naming the first bad line in file order. Floats are written
with repr(), which round-trips exactly; the writer formats each run of
equal values once per chunk of rows, because a recorded trace holds each
node value for many polls.

The body is parsed by np.loadtxt a chunk of lines at a time, and each
chunk's columns are checked at once. From the first chunk this fast
path cannot take, or whose columns break a rule, a row loop reads on:
it parses what loadtxt cannot and words the ParseError, so both paths
give the same columns, line numbers and messages. A chunk is held when
the chunk before it seldom changed value, as in a recorded trace, and a
held chunk is parsed at the cost of its distinct values: loadtxt reads
its value cells as text, and each run of identical text is converted
once with the row loop's float(). A file holding a NUL byte never takes
the fast path, since the text cells drop trailing NULs, and a held chunk
with a cell too wide for its text width is read again as floats.
"""

from __future__ import annotations

import bisect
import csv
import math
import warnings
from array import array
from itertools import chain, islice

import numpy as np

from .errors import ParseError
from .traces import PowerTrace

DEFAULT_COIL_TURNS = 10

# A header table maps each accepted header to one entry per value column:
# the wording of that column's error for a negative value, or None where
# negative values are allowed.
_POWER = {("timestamp_us", "power_mw"): (None,)}
_EXTERNAL = {("timestamp_us", "voltage_v", "current_a"):
             ("DC supply voltage must be >= 0, got {}", None), **_POWER}
_VALUE = {**_POWER, ("timestamp_us", "current_ma"): (None,)}
TRACE_FORMATS = {"internal_csv": _POWER, "external_csv": _EXTERNAL}

# Body lines handed to np.loadtxt at a time, and rows formatted per write:
# few enough that a rejected file's row loop starts near its bad line and
# that a write holds a bounded text, many enough that the calls cost
# nothing next to the parsing and formatting.
_CHUNK_LINES = 8192

# A chunk is held, and its value cells read as text (see _loadtxt_body),
# when at most one value cell in _HELD_CELLS of the chunk before it
# differs from the cell above. Measured on 2-vCPU x86, text breaks even
# with loadtxt's floats at about 3 rows per change for 17-digit cells and
# 12-16 for 6-character cells, and costs about twice as much on distinct
# cells.
# _CELL_BYTES, a multiple of 8, is the width of a held value cell; a
# float's repr() takes at most 24 characters.
_HELD_CELLS = 16
_CELL_BYTES = 32


def power_from_channels(timestamps_us, volts, clamp_a,
                        coil_turns: int = DEFAULT_COIL_TURNS,
                        device: str = "unknown") -> PowerTrace:
    """Convert voltage and clamp-current columns to an external power trace.

    The clamp sits around a coil of `coil_turns` windings, so it reads
    coil_turns times the conductor current; the true current is the clamp
    reading divided by the turn count. Power is V * I in watts, scaled
    to mW.
    """
    if coil_turns < 1:
        raise ValueError(f"coil_turns must be >= 1, got {coil_turns}")
    power_mw = np.multiply(volts, np.divide(clamp_a, coil_turns)) * 1000.0
    return PowerTrace(device, "external", "mW", timestamps_us, power_mw)


def _row_error(row, prev: int | None, header, signs) -> str | None:
    """Wording of the first fault of a row known to be bad, cell by cell."""
    if len(row) != len(header):
        return f"expected {len(header)} columns, got {len(row)}"
    try:
        ts = int(row[0])
    except ValueError:
        return f"timestamp {row[0]!r} is not an integer"
    if ts < 0:
        return f"timestamp {ts} is negative"
    if prev is not None and ts <= prev:
        kind = "duplicate" if ts == prev else "out-of-order"
        return f"{kind} timestamp {ts} (previous {prev})"
    if ts >= 2**63:
        return f"timestamp {ts} is out of range"
    for name, cell in zip(header[1:], row[1:]):
        try:
            value = float(cell)
        except ValueError:
            return f"{name} value {cell!r} is not numeric"
        if not math.isfinite(value):
            return f"{name} value {value} is not finite"
    for cell, sign in zip(row[1:], signs):
        if sign is not None and float(cell) < 0:
            return sign.format(float(cell))
    return None


def _first_bad_row(t, values, signs, prev=None) -> int | None:
    """Index of the first row that breaks the order, sign or finiteness rules.

    `prev` is the timestamp of the row before t[0], if there is one.
    """
    bad = t < 0
    bad[1:] |= t[1:] <= t[:-1]
    if prev is not None:
        bad[:1] |= t[:1] <= prev
    bad |= ~np.isfinite(values).all(axis=1)
    bad |= (values[:, [s is not None for s in signs]] < 0).any(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def _undecodable(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}"


def _loadtxt_reads_as_rows(path) -> bool:
    """Whether np.loadtxt would read this file's cells as the row loop does.

    A file is left to the row loop if a byte is not ASCII (loadtxt has
    crashed on some such characters, and int() reads digits of any
    script), if a byte is one of the separators 0x1c-0x1f (loadtxt strips
    them as whitespace, int() and float() reject them), if a byte is NUL
    (a held chunk's text cells drop trailing NULs, float() rejects them),
    or if a line may be longer than csv's field size limit, which loadtxt
    does not enforce. Every line is shorter than that limit when each
    whole block of half its size holds a newline.
    """
    block = csv.field_size_limit() // 2
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(16 * block), b""):
            if not chunk.isascii() or any(sep in chunk for sep in b"\x00\x1c\x1d\x1e\x1f") or \
                    any(chunk.find(b"\n", i, i + block) < 0
                        for i in range(0, len(chunk) - block + 1, block)):
                return False
    return True


def _read_columns(path, table):
    """Header, int64 timestamps and an (n, k) float64 value matrix.

    The header must be one of the header table's (see _POWER), which
    gives the sign rules of its value columns. The header is read with
    csv. The body of a regular file whose bytes np.loadtxt reads as the
    row loop does takes the fast path, _loadtxt_body; any other body, a
    pipe's among them, goes to the row loop, _read_rows, whole.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            fast = fh.seekable() and _loadtxt_reads_as_rows(path)
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except UnicodeDecodeError as exc:
                raise ParseError(path, None, _undecodable(exc)) from None
            except csv.Error as exc:
                raise ParseError(path, reader.line_num, f"malformed CSV: {exc}") from None
            if header is None:
                raise ParseError(path, None, "file is empty, expected a header row")
            header = tuple(c.strip() for c in header)
            signs = table.get(header)
            if signs is None:
                expected = " or ".join(",".join(h) for h in table)
                raise ParseError(path, 1, f"expected header {expected}, "
                                          f"got {','.join(header)}")
            read_body = _loadtxt_body if fast else _read_rows
            return (header, *read_body(path, fh, header, signs, reader.line_num + 1))
    except OSError as exc:
        raise ParseError(path, None, f"cannot read: {exc}") from exc


def _loadtxt_body(path, fh, header, signs, line):
    """The fast path: the body's columns, _CHUNK_LINES lines per np.loadtxt call.

    Each chunk's columns are checked against the row before it. From the
    first chunk that loadtxt cannot parse or whose columns break a rule,
    the row loop reads to the end of the file: it parses what loadtxt
    could not, such as a quoted cell, or words the ParseError. Each line
    of a chunk loadtxt took is one row, so the row loop's line numbers
    are right, and a rejected file is parsed once.

    A chunk is held when the chunk before it changed a value cell at most
    once in _HELD_CELLS cells, as a recorded trace re-reads one node value
    for many polls. loadtxt then reads its value cells as _CELL_BYTES
    bytes of text instead of floats, and _held_values converts each run of
    identical text once with float(), the row loop's own conversion. A
    held chunk with a cell that fills those bytes, which loadtxt may have
    cut, is read again as floats.
    """
    k = len(header) - 1
    parts, prev, held = [(np.empty(0, np.int64), np.empty((0, k)))], None, False
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for lines in iter(lambda: list(islice(fh, _CHUNK_LINES)), []):
            try:
                values = None
                if held:
                    rows = _loadtxt(lines, k, f"S{_CELL_BYTES}")
                    values = _held_values(rows["v"])
                if values is None:
                    rows = _loadtxt(lines, k, np.float64)
                    values = rows["v"]
            except ValueError:
                rows = None
            if rows is None or _first_bad_row(rows["t"], values, signs, prev) is not None:
                parts.append(_read_rows(path, chain(lines, fh), header, signs, line, prev))
                break
            # A copy, so that a held chunk's wide rows are freed and their
            # memory serves the next chunk.
            parts.append((rows["t"].copy(), values))
            line += len(lines)
            prev = int(rows["t"][-1]) if len(rows) else prev
            held = _HELD_CELLS * np.count_nonzero(values[1:] != values[:-1]) <= values.size
    ts, values = zip(*parts)
    return np.concatenate(ts), np.concatenate(values)


def _loadtxt(lines, k, cell):
    """A chunk's rows: an int64 timestamp "t" and k value cells "v" of dtype `cell`."""
    # comments=None: the default "#" would take "2.5 # x", which float() rejects.
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                      dtype=[("t", np.int64), ("v", cell, (k,))])


def _held_values(cells):
    """(n, k) float64 values of (n, k) byte-string cells, one float() per run.

    Returns None if a cell fills the width and so may have been cut;
    float() raises ValueError on a cell it cannot read.
    """
    n, k = cells.shape
    cells = np.ascontiguousarray(cells)
    # Cells are compared with the cell above 8 bytes at a time.
    words = cells.view(np.uint64).reshape(n, k, _CELL_BYTES // 8)
    new = np.ones((n, k), bool)
    new[1:] = words[1:, :, 0] != words[:-1, :, 0]
    for i in range(1, _CELL_BYTES // 8):
        new[1:] |= words[1:, :, i] != words[:-1, :, i]
    values = np.empty((n, k))
    for j in range(k):
        starts = np.flatnonzero(new[:, j])
        texts = cells[starts, j].tolist()
        if any(len(text) == _CELL_BYTES for text in texts):
            return None
        values[:, j] = np.repeat([float(text) for text in texts], np.diff(starts, append=n))
    return values


def _read_rows(path, lines, header, signs, line, prev=None):
    """The row loop: columns of the body lines from file line `line` on.

    `prev` is the timestamp of the row before them, if any. Rows are
    converted inline; the order, sign and finiteness checks then run
    once over the columns, and the first bad line in file order is
    raised as ParseError. Blank lines are skipped but still counted.
    """
    ts, flat = array("q"), array("d")   # timestamps; values row after row
    blanks = []                         # data rows read before each blank line
    failed = None                       # (line, message) that stopped the read
    width, k = len(header), len(header) - 1
    reader = csv.reader(lines)
    try:
        for lineno, row in enumerate(reader, start=line):
            if not row:
                blanks.append(len(ts))
                continue
            if len(row) == width:
                try:
                    ts.append(int(row[0]))
                    flat.extend(map(float, row[1:]))
                    continue
                except (ValueError, OverflowError):
                    del ts[len(flat) // k:]
                    del flat[len(ts) * k:]
            failed = (lineno, _row_error(row, ts[-1] if ts else prev, header, signs))
            break
    except UnicodeDecodeError as exc:
        failed = (None, _undecodable(exc))
    except csv.Error as exc:
        failed = (line - 1 + reader.line_num, f"malformed CSV: {exc}")

    t = np.array(ts, dtype=np.int64)
    values = np.array(flat, dtype=np.float64).reshape(len(t), k)
    i = _first_bad_row(t, values, signs, prev)
    if i is not None:
        row = [str(t[i])] + [repr(v) for v in values[i].tolist()]
        failed = (i + line + bisect.bisect_right(blanks, i),
                  _row_error(row, int(t[i - 1]) if i else prev, header, signs))
    if failed is not None:
        raise ParseError(path, *failed)
    return t, values


def parse_trace(path, fmt: str, device: str = "unknown",
                coil_turns: int = DEFAULT_COIL_TURNS) -> PowerTrace:
    """Parse a trace file into memory, validating the full schema.

    internal_csv gives an internal mW trace, external_csv an external one.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"format must be one of {tuple(TRACE_FORMATS)}, got {fmt!r}")
    _, ts, values = _read_columns(path, TRACE_FORMATS[fmt])
    if values.shape[1] == 2:
        return power_from_channels(ts, values[:, 0], values[:, 1], coil_turns, device)
    return PowerTrace(device, fmt.removesuffix("_csv"), "mW", ts, values[:, 0])


def parse_value_trace(path, device: str = "unknown") -> PowerTrace:
    """Two-column trace with the unit inferred from the header.

    Accepts timestamp_us,power_mw (a mW trace) or timestamp_us,current_ma
    (a mA trace, e.g. a boot-current capture).
    """
    header, ts, values = _read_columns(path, _VALUE)
    source, unit = ("internal", "mW") if header in _POWER else ("external", "mA")
    return PowerTrace(device, source, unit, ts, values[:, 0])


def write_trace(trace: PowerTrace, path) -> None:
    """Write a mW trace as internal_csv or a mA trace as a current CSV.

    Each row is f"{t},{v!r}\\n", as one row at a time would write it. The
    rows go out _CHUNK_LINES at a time, and each run of equal values is
    formatted once, as a "%d" format of its rows, because a recorded trace
    re-reads one node value for many rows. Values are told apart by their
    bits, so 0.0 and -0.0 keep their own repr.
    """
    column = "power_mw" if trace.unit == "mW" else "current_ma"
    ts, values = trace.timestamps_us, trace.values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"timestamp_us,{column}\n")
        for start in range(0, len(ts), _CHUNK_LINES):
            chunk = values[start:start + _CHUNK_LINES]
            bits = chunk.view(np.int64)
            starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
            runs = zip(chunk[starts].tolist(), np.diff(starts, append=len(chunk)).tolist())
            # A float's repr() holds no "%", so a cell needs no escaping.
            rows = "".join([f"%d,{v!r}\n" * n for v, n in runs])
            fh.write(rows % tuple(ts[start:start + _CHUNK_LINES].tolist()))
