"""Trace file parsing and writing.

Three CSV schemas, all with a mandatory header row and integer
microsecond timestamps:

  internal_csv  timestamp_us,power_mw
  external_csv  timestamp_us,voltage_v,current_a   (clamp reading, raw)
                timestamp_us,power_mw              (pre-computed power)
  rails_csv     timestamp_us,<rail1>_mw,<rail2>_mw,...

The external variant is auto-detected from the header. rails_csv yields
the board total, each row's rails summed left to right as the sensor's
sum_rails mode adds them live. Duplicate or out-of-order timestamps are
rejected: they indicate a logging fault that averaging would silently
mask. A file with several faults fails with a ParseError naming the first
bad line in file order. Floats are written with repr(), which round-trips
exactly.
"""

from __future__ import annotations

import bisect
import csv
import math
from array import array

import numpy as np

from .errors import ParseError
from .traces import PowerTrace

DEFAULT_COIL_TURNS = 10
TRACE_FORMATS = ("internal_csv", "external_csv", "rails_csv")

# A header table maps each accepted header to one entry per value column:
# the wording of that column's error for a negative value, or None where
# negative values are allowed.
_POWER = {("timestamp_us", "power_mw"): (None,)}
_EXTERNAL = {("timestamp_us", "voltage_v", "current_a"):
             ("DC supply voltage must be >= 0, got {}", None), **_POWER}
_VALUE = {**_POWER, ("timestamp_us", "current_ma"): (None,)}


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


def _read_columns(path, schema_for, accepted):
    """Header, int64 timestamps and an (n, k) float64 value matrix.

    `schema_for(header)` returns the header's sign entries (see _POWER)
    or None to reject it; `accepted` lists the headers for that error.
    Rows are converted inline; the order, sign and finiteness checks then
    run once over the columns, and the first bad line in file order is
    raised as ParseError. Blank lines are skipped but still counted.
    """
    ts, flat = array("q"), array("d")   # timestamps; values row after row
    blanks = []                         # data rows read before each blank line
    failed = None                       # (line, message) that stopped the read
    signs, k = (), 1                    # until the header is read
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(path, None, "file is empty, expected a header row")
            header = tuple(c.strip() for c in header)
            signs = schema_for(header)
            if signs is None:
                expected = " or ".join(",".join(h) for h in accepted)
                raise ParseError(path, 1, f"expected header {expected}, "
                                          f"got {','.join(header)}")
            width, k = len(header), len(header) - 1
            for lineno, row in enumerate(reader, start=2):
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
                failed = (lineno, _row_error(row, ts[-1] if ts else None, header, signs))
                break
    except OSError as exc:
        raise ParseError(path, None, f"cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        failed = (None, f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}")
    except csv.Error as exc:
        failed = (reader.line_num, f"malformed CSV: {exc}")

    t = np.array(ts, dtype=np.int64)
    values = np.array(flat, dtype=np.float64).reshape(len(t), k)

    bad = t < 0
    bad[1:] |= t[1:] <= t[:-1]
    bad |= ~np.isfinite(values).all(axis=1)
    bad |= (values[:, [s is not None for s in signs]] < 0).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        row = [str(t[i])] + [repr(v) for v in values[i].tolist()]
        line = i + 2 + bisect.bisect_right(blanks, i)
        failed = (line, _row_error(row, int(t[i - 1]) if i else None, header, signs))
    if failed is not None:
        raise ParseError(path, *failed)
    return header, t, values


def _rails_schema(header):
    rails = header[1:]
    if header[:1] != ("timestamp_us",) or not rails or len(set(rails)) != len(rails) or \
            not all(c.endswith("_mw") and len(c) > 3 for c in rails):
        return None
    return tuple(f"rail {c[:-3]!r} value must be finite and >= 0" for c in rails)


def parse_trace(path, fmt: str, device: str = "unknown",
                coil_turns: int = DEFAULT_COIL_TURNS) -> PowerTrace:
    """Parse a trace file into memory, validating the full schema.

    internal_csv gives an internal mW trace, external_csv an external mW
    trace, and rails_csv the internal board total over all rails.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"format must be one of {TRACE_FORMATS}, got {fmt!r}")
    if fmt == "rails_csv":
        _, ts, values = _read_columns(path, _rails_schema,
                                      [("timestamp_us", "<rail>_mw", "...")])
        # Python's sum over the columns adds each row's rails left to right.
        return PowerTrace(device, "internal", "mW", ts, sum(values.T))
    table = _POWER if fmt == "internal_csv" else _EXTERNAL
    _, ts, values = _read_columns(path, table.get, table)
    if values.shape[1] == 2:
        return power_from_channels(ts, values[:, 0], values[:, 1], coil_turns, device)
    return PowerTrace(device, fmt.removesuffix("_csv"), "mW", ts, values[:, 0])


def parse_value_trace(path, device: str = "unknown") -> PowerTrace:
    """Two-column trace with the unit inferred from the header.

    Accepts timestamp_us,power_mw (a mW trace) or timestamp_us,current_ma
    (a mA trace, e.g. a boot-current capture).
    """
    header, ts, values = _read_columns(path, _VALUE.get, _VALUE)
    source, unit = ("internal", "mW") if header in _POWER else ("external", "mA")
    return PowerTrace(device, source, unit, ts, values[:, 0])


def write_trace(trace: PowerTrace, path) -> None:
    """Write a mW trace as internal_csv or a mA trace as a current CSV."""
    column = {"mW": "power_mw", "mA": "current_ma"}.get(trace.unit)
    if column is None:
        raise ValueError(f"cannot serialize a {trace.unit} trace")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"timestamp_us,{column}\n")
        fh.writelines(f"{t},{v!r}\n" for t, v in
                      zip(trace.timestamps_us.tolist(), trace.values.tolist()))
