"""Trace types: readings, ordered traces and aligned pairs; the CSV writer.

Timestamps are integer microseconds since the epoch so that two streams
recorded on a shared network clock can be aligned without float rounding.
Values are float64 in the trace's unit (mW or mA).

PowerTrace is the one trace type. Its columns are array('q') and
array('d') where the row loop or the sampler built them, for the
numpy-free path of small files and for the live recorder, and int64 and
float64 numpy arrays elsewhere. PowerSample is one reading, as the live
sampler delivers it. Neither is validated: each producer checks what it
builds, so the timestamps are >= 0 and strictly increase, and the
values are finite. No type here imports numpy or is a dataclass, whose
import costs a command about 7 ms: PowerTrace and PairedDataset are
immutable slotted classes, equal only to themselves.

write_csv writes every trace CSV. write_columns gives it the stdlib run
finder, for stdlib columns, and ingest.write_trace the numpy one.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import ne, sub
from typing import NamedTuple

# The header of a written trace's value column, by the trace's unit.
CSV_COLUMNS = {"mW": "power_mw", "mA": "current_ma"}

# Rows write_csv formats at a time, and body lines ingest hands to
# np.loadtxt at a time: few enough that a write holds a bounded text and
# that a rejected file's row loop starts near its bad line, many enough
# that the calls cost nothing next to the formatting and parsing.
CHUNK_ROWS = 8192


class PowerSample(NamedTuple):
    """One timestamped reading in the owning trace's unit."""

    timestamp_us: int
    value: float


class _Frozen:
    """Sample columns in slots, which __init__ takes in order and sets once:
    assigning or deleting one later raises. len() counts samples."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.timestamps_us)


class PowerTrace(_Frozen):
    """Ordered sample sequence with source and device metadata.

    source is "internal", "external" or "calibrated", and unit "mW" or
    "mA". Its producers, the parsers, the sampler, apply_trace,
    apply_columns, moving_average and synth, check what they build, so the
    columns are of equal length, the timestamps are >= 0 and strictly
    increase, and the values are finite; nothing here checks them again.
    """

    __slots__ = ("device", "source", "unit", "timestamps_us", "values")

    @property
    def span_us(self) -> int:
        """Time covered by the trace, 0 for traces shorter than 2 samples."""
        if len(self) < 2:
            return 0
        return int(self.timestamps_us[-1] - self.timestamps_us[0])


class PairedDataset(_Frozen):
    """Time-aligned (internal_mw, external_mw) observations for one device.

    signal.align builds it from two PowerTraces and refuses negative
    pairs, so its columns are 1-d, of equal length, finite and >= 0, with
    strictly increasing timestamps; nothing here checks them again.
    """

    __slots__ = ("device", "timestamps_us", "internal_mw", "external_mw")


def canonical_device_id(name: str) -> str:
    """Lowercased, stripped device id; rejects empty names."""
    canon = name.strip().lower()
    if not canon:
        raise ValueError("device id must be non-empty")
    return canon


def write_csv(trace: PowerTrace, path, runs) -> None:
    """Write a mW trace as internal_csv, or a mA one as a current CSV.

    Each row is f"{t},{v!r}\\n", as one row at a time would write it.
    The rows go out CHUNK_ROWS at a time, as a "%d" format of the chunk's
    timestamps, in which each (v, n) pair of runs(chunk) formats v once
    for n rows, because a recorded trace re-reads one node value for many
    rows. runs must tell values apart by their bits, so that 0.0 and -0.0
    keep their own repr.
    """
    ts = trace.timestamps_us
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"timestamp_us,{CSV_COLUMNS[trace.unit]}\n")
        for start in range(0, len(ts), CHUNK_ROWS):
            end = start + CHUNK_ROWS
            # A float's repr() holds no "%", so a cell needs no escaping.
            rows = "".join([f"%d,{v!r}\n" * n for v, n in runs(trace.values[start:end])])
            fh.write(rows % tuple(ts[start:end].tolist()))


def write_columns(trace: PowerTrace, path) -> None:
    """write_csv of a trace of stdlib columns, without numpy."""
    write_csv(trace, path, _column_runs)


def _column_runs(chunk):
    """(value, run length) of each run of equal value bits in an
    array('d'), or (value, 1) of each value when more than five rows in
    six start a run: measured on a 2-vCPU x86 host, formatting each value
    and each run break even when 80-90% of the rows start a run."""
    bits = array("q", chunk.tobytes())
    starts = [0, *compress(range(1, len(bits)), map(ne, bits[1:], bits))]
    if 6 * len(starts) > 5 * len(chunk):
        return zip(chunk, repeat(1))
    return zip([chunk[i] for i in starts], map(sub, [*starts[1:], len(chunk)], starts))
