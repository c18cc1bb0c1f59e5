"""Trace file parsing and writing.

Two CSV schemas, both with a mandatory header row and integer
microsecond timestamps:

  internal_csv  timestamp_us,power_mw
  external_csv  timestamp_us,voltage_v,current_a   (clamp reading, raw)
                timestamp_us,power_mw              (pre-computed power)

The external variant is auto-detected from the header. Duplicate or
out-of-order timestamps are rejected: they indicate a logging fault that
averaging would silently mask. A file with several faults fails with a
ParseError naming the first bad line in file order. write_trace writes
a trace of numpy columns with traces.write_csv, the one trace CSV writer,
and finds each chunk's runs of equal values with numpy. Floats are
written with repr(), which round-trips exactly.

The row loop reads a body with csv, int() and float(), and checks each
row as it reads it. parse_columns reads every body with it alone, into
stdlib arrays, so it never imports numpy, whose import costs more than
the loop spends on a small file. parse_trace and parse_value_trace
import numpy and parse a regular file's body with np.loadtxt a chunk of
lines at a time, checking each chunk's columns at once. From the first
chunk this fast path cannot take, or whose columns break a rule, the row
loop reads on: it parses what loadtxt cannot and words the ParseError,
so every path gives the same columns, line numbers and messages. A chunk
is held when the chunk before it seldom changed value, as in a recorded
trace, and a held chunk is parsed at the cost of its distinct values:
loadtxt reads its value cells as text, and each run of identical text is
converted once with the row loop's float(). A file holding a NUL byte
never takes the fast path, since the text cells drop trailing NULs, and
a held chunk with a cell too wide for its text width is read again as
floats. After a held first chunk, one np.loadtxt call on the path reads
the rest of a long file, and the chunk loop reads what it declines.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import warnings
from array import array
from itertools import chain, islice

from . import traces
from .errors import InvalidReadingError, ParseError, undecodable
from .traces import CSV_COLUMNS, PowerTrace

DEFAULT_COIL_TURNS = 10

# The header table of each format maps each accepted header to one entry
# per value column: the wording of that column's error for a negative
# value, or None where negative values are allowed. parse_trace reads
# internal_csv and external_csv, parse_value_trace value_csv, and
# parse_columns internal_csv and value_csv.
_POWER = {("timestamp_us", CSV_COLUMNS["mW"]): (None,)}
FORMATS = {
    "internal_csv": _POWER,
    "external_csv": {("timestamp_us", "voltage_v", "current_a"):
                     ("DC supply voltage must be >= 0, got {}", None), **_POWER},
    "value_csv": {**_POWER, ("timestamp_us", CSV_COLUMNS["mA"]): (None,)},
}

_MAX = sys.float_info.max

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
# The fewest lines, in chunks, after a held first chunk that _held_rest
# reads in one call (measurement in _loadtxt_body).
_REST_CHUNKS = 2


def power_from_channels(timestamps_us, volts, clamp_a,
                        coil_turns: int = DEFAULT_COIL_TURNS,
                        device: str = "unknown") -> PowerTrace:
    """Convert voltage and clamp-current columns to an external power trace.

    The clamp sits around a coil of `coil_turns` windings, so it reads
    coil_turns times the conductor current; the true current is the clamp
    reading divided by the turn count. Power is V * I in watts, scaled
    to mW. A product past the float range is an InvalidReadingError.
    """
    import numpy as np

    if coil_turns < 1:
        raise ValueError(f"coil_turns must be >= 1, got {coil_turns}")
    with np.errstate(over="ignore"):
        power_mw = np.multiply(volts, np.divide(clamp_a, coil_turns)) * 1000.0
    finite = np.isfinite(power_mw)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidReadingError(
            f"external power is not finite: {float(volts[i])} V and {float(clamp_a[i])} A "
            f"at t={int(timestamps_us[i])} us give {float(power_mw[i])} mW")
    return PowerTrace(device, "external", "mW", timestamps_us, power_mw)


def _row_error(row, prev: int, header, signs) -> str | None:
    """Wording of the first fault of a row known to be bad, cell by cell.

    `prev` is the timestamp of the row before, or -1 for none.
    """
    if len(row) != len(header):
        return f"expected {len(header)} columns, got {len(row)}"
    try:
        ts = int(row[0])
    except ValueError:
        return f"timestamp {row[0]!r} is not an integer"
    if ts < 0:
        return f"timestamp {ts} is negative"
    if ts <= prev:
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


def _first_bad_row(t, values, signs, prev) -> int | None:
    """Index of the first row that breaks the order, sign or finiteness rules.

    `prev` is the timestamp of the row before t[0], or -1 for none.
    """
    import numpy as np

    bad = t < 0
    bad[1:] |= t[1:] <= t[:-1]
    bad[:1] |= t[:1] <= prev
    bad |= ~np.isfinite(values).all(axis=1)
    bad |= (values[:, [s is not None for s in signs]] < 0).any(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


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


def _read_columns(path, table, stdlib=False):
    """Header, timestamps and values of the body, row after row.

    The header must be one of the header table's (see FORMATS), which
    gives the sign rules of its value columns. The header is read with
    csv. With `stdlib`, the row loop, _read_rows, reads the body whole,
    and the columns are its array('q') timestamps and flat array('d')
    values. Otherwise they are int64 timestamps and an (n, k) float64
    value matrix: the body of a regular file whose bytes np.loadtxt reads
    as the row loop does takes the fast path, _loadtxt_body, and any
    other body, a pipe's among them, goes to the row loop whole.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            fast = not stdlib and fh.seekable() and _loadtxt_reads_as_rows(path)
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except UnicodeDecodeError as exc:
                raise ParseError(path, None, undecodable(exc)[1]) from None
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
            line = reader.line_num + 1
            if fast:
                return (header, *_loadtxt_body(path, fh, header, signs, line))
            columns = _read_rows(path, fh, header, signs, line)
            return (header, *(columns if stdlib else _as_numpy(*columns, len(signs))))
    except OSError as exc:
        raise ParseError(path, None, f"cannot read: {exc}") from exc


def _as_numpy(ts, flat, k):
    """The row loop's columns as int64 timestamps and an (n, k) float64 matrix."""
    import numpy as np

    return np.frombuffer(ts, np.int64), np.frombuffer(flat, np.float64).reshape(len(ts), k)


def _loadtxt_body(path, fh, header, signs, line):
    """The fast path: the body's columns, traces.CHUNK_ROWS lines per np.loadtxt call.

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

    After a held first chunk, _held_rest reads the rest in one np.loadtxt
    call on the absolute path, whose block reader makes no str per line.
    It first counts the file's commas and newlines, and leaves `fh` to the
    chunk loop for a name numpy would decompress (.gz, .bz2, .xz, .lzma),
    for commas not k per newline (a torn or blank line), for a rest under
    _REST_CHUNKS chunks (on 2-vCPU x86 one breaks even, before numpy first
    imports gzip), and for a rest that fails to parse or breaks a rule,
    which is then parsed twice. A file that is not held never pays the
    count.
    """
    import numpy as np

    k = len(header) - 1
    parts, prev, held = [(np.empty(0, np.int64), np.empty((0, k)))], -1, False
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for lines in iter(lambda: list(islice(fh, traces.CHUNK_ROWS)), []):
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
                rest = _read_rows(path, chain(lines, fh), header, signs, line, prev)
                parts.append(_as_numpy(*rest, k))
                break
            # A copy, so that a held chunk's wide rows are freed and their
            # memory serves the next chunk.
            parts.append((rows["t"].copy(), values))
            line += len(lines)
            prev = int(rows["t"][-1]) if len(rows) else prev
            held = _HELD_CELLS * np.count_nonzero(values[1:] != values[:-1]) <= values.size
            if held and len(parts) == 2 and (rest := _held_rest(path, k, line - 1, signs, prev)):
                parts.append(rest)
                break
    ts, values = zip(*parts)
    return np.concatenate(ts), np.concatenate(values)


def _held_rest(path, k, skip, signs, prev):
    """Columns of a held file's lines after the first `skip`, by one np.loadtxt
    call on its path, or None to leave them to the chunk loop (_loadtxt_body)."""
    import numpy as np

    path = os.path.abspath(os.fsdecode(path))   # so that numpy never takes it for a URL
    if path.endswith((".gz", ".bz2", ".xz", ".lzma")):   # which numpy would decompress
        return None
    commas = newlines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            block = np.frombuffer(block, np.uint8)
            commas += np.count_nonzero(block == ord(","))
            newlines += np.count_nonzero(block == ord("\n"))
    if commas != k * newlines or newlines - skip < _REST_CHUNKS * traces.CHUNK_ROWS:
        return None
    try:
        rows = _loadtxt(path, k, f"S{_CELL_BYTES}", skiprows=skip)
        values = _held_values(rows["v"])
    except ValueError:
        return None
    if values is None or _first_bad_row(rows["t"], values, signs, prev) is not None:
        return None
    return rows["t"].copy(), values


def _loadtxt(lines, k, cell, skiprows=0):
    """Rows of a chunk, or of a path after `skiprows` lines: int64 "t", k `cell`s "v"."""
    import numpy as np

    # comments=None: the default "#" would take "2.5 # x", which float() rejects.
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, skiprows=skiprows,
                      dtype=[("t", np.int64), ("v", cell, (k,))])


def _held_values(cells):
    """(n, k) float64 values of (n, k) byte-string cells, one float() per run.

    Returns None if a cell fills the width and so may have been cut;
    float() raises ValueError on a cell it cannot read.
    """
    import numpy as np

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


def _read_rows(path, lines, header, signs, line, prev=-1):
    """The row loop: columns of the body lines from file line `line` on.

    Returns array('q') timestamps and an array('d') of the values, row
    after row. `prev` is the timestamp of the row before the lines, or -1
    for none. Each row is checked as it is read: its timestamp must
    exceed the one before and fit in int64, and its values must be
    finite and, under a sign rule, >= 0. The first bad line raises
    ParseError, worded from its cells by _row_error. Blank lines are
    skipped but still counted.
    """
    ts, flat = array("q"), array("d")
    # The least value of each column: 0.0 under a sign rule, else the
    # least finite float, so that a NaN or an infinity fails too. Every
    # header table has one or two value columns, so the check is unrolled
    # for two, with 0.0 in place of a missing second value: a loop over
    # the columns made a three-column row cost a third more.
    lows = [-_MAX if sign is None else 0.0 for sign in signs]
    low, low2 = lows if len(lows) == 2 else (*lows, -_MAX)
    width = len(header)
    failed = None
    reader = csv.reader(lines)
    try:
        for lineno, row in enumerate(reader, start=line):
            try:
                t, value, *more = row
                t, value = int(t), float(value)
                second = float(more[0]) if more else 0.0
                if len(row) == width and prev < t and low <= value <= _MAX and \
                        low2 <= second <= _MAX:
                    ts.append(t)        # OverflowError from 2**63 on
                    flat.append(value)
                    if more:
                        flat.append(second)
                    prev = t
                    continue
            except (ValueError, OverflowError):
                pass
            if row:
                failed = (lineno, _row_error(row, prev, header, signs))
                break
    except UnicodeDecodeError as exc:
        failed = (None, undecodable(exc)[1])
    except csv.Error as exc:
        failed = (line - 1 + reader.line_num, f"malformed CSV: {exc}")
    if failed is not None:
        raise ParseError(path, *failed)
    return ts, flat


def parse_trace(path, fmt: str, device: str = "unknown",
                coil_turns: int = DEFAULT_COIL_TURNS) -> PowerTrace:
    """Parse a trace file into memory, validating the full schema.

    internal_csv gives an internal mW trace, external_csv an external one.
    """
    _, ts, values = _read_columns(path, _table(fmt, ("internal_csv", "external_csv")))
    if values.shape[1] == 2:
        return power_from_channels(ts, values[:, 0], values[:, 1], coil_turns, device)
    return PowerTrace(device, fmt.removesuffix("_csv"), "mW", ts, values[:, 0])


def parse_value_trace(path, device: str = "unknown") -> PowerTrace:
    """Two-column trace with the unit inferred from the header.

    Accepts timestamp_us,power_mw (a mW trace) or timestamp_us,current_ma
    (a mA trace, e.g. a boot-current capture).
    """
    header, ts, values = _read_columns(path, FORMATS["value_csv"])
    return PowerTrace(device, *_value_kind(header), ts, values[:, 0])


def _value_kind(header) -> tuple[str, str]:
    """The source and unit of a parse_value_trace header."""
    return ("internal", "mW") if header in _POWER else ("external", "mA")


def parse_columns(path, fmt: str, device: str = "unknown") -> PowerTrace:
    """A two-column trace file as a trace of stdlib-array columns.

    Reads what parse_trace(path, "internal_csv") reads for "internal_csv"
    and what parse_value_trace reads for "value_csv", with the same checks
    and ParseErrors, through the row loop alone and without numpy, which
    costs more to import than the loop spends on a small file.
    """
    header, ts, values = _read_columns(path, _table(fmt, ("internal_csv", "value_csv")),
                                       stdlib=True)
    return PowerTrace(device, *_value_kind(header), ts, values)


def _table(fmt: str, names: tuple[str, ...]):
    """The header table of fmt, which must be one of the names a parser takes."""
    if fmt not in names:
        raise ValueError(f"format must be one of {names}, got {fmt!r}")
    return FORMATS[fmt]


def write_trace(trace: PowerTrace, path) -> None:
    """traces.write_csv of a trace of numpy columns, whose runs numpy finds."""
    traces.write_csv(trace, path, _array_runs)


def _array_runs(chunk):
    """(value, run length) of each run of equal value bits in a float64 array."""
    import numpy as np

    bits = chunk.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    return zip(chunk[starts].tolist(), np.diff(starts, append=len(chunk)).tolist())
