"""Core trace types: power readings, ordered traces and aligned pairs.

Timestamps are integer microseconds since the epoch so that two streams
recorded on a shared network clock can be aligned without float rounding.
Values are float64 in the trace's unit (mW or mA).

PowerTrace is the one trace type. Its columns are array('q') and
array('d') where the row loop or the sampler built them, for the
numpy-free path of small files and for the live recorder, and int64 and
float64 numpy arrays elsewhere; write_columns writes a trace of stdlib
columns as CSV without numpy. PowerSample is one reading, as the live
sampler delivers it. Neither is validated: each producer checks what it
builds, so the timestamps are >= 0 and strictly increase, and the
values are finite. No type here imports numpy or is a dataclass, whose
import costs a command about 9 ms: PowerTrace and PairedDataset are
immutable slotted classes, equal only to themselves.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import ne
from typing import NamedTuple

# The header of a written trace's value column, by the trace's unit.
CSV_COLUMNS = {"mW": "power_mw", "mA": "current_ma"}

# Rows write_columns formats at a time, so that the text of one
# write stays small.
_WRITE_ROWS = 8192


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


def write_columns(trace: PowerTrace, path) -> None:
    """Write a mW trace of stdlib columns as internal_csv, or a mA one as
    a current CSV.

    The bytes are those of ingest.write_trace: each row is
    f"{t},{v!r}\\n". Rows go out _WRITE_ROWS at a time, as a "%d"
    format of the chunk's timestamps. A chunk in which more than five
    rows in six start a new run of equal value bits formats each value
    once; any other chunk formats each run once, because a recorded
    trace re-reads one node value for many rows. Measured on a 2-vCPU
    x86 host, the two break even when 80-90% of the rows start a run.
    Runs are told apart by value bits, so 0.0 and -0.0 keep their own
    repr.
    """
    ts, values = trace.timestamps_us, trace.values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"timestamp_us,{CSV_COLUMNS[trace.unit]}\n")
        for start in range(0, len(values), _WRITE_ROWS):
            end = start + _WRITE_ROWS
            chunk = values[start:end]
            bits = array("q", chunk.tobytes())
            starts = [0, *compress(range(1, len(bits)), map(ne, bits[1:], bits))]
            if 6 * len(starts) > 5 * len(chunk):
                cells = [f"%d,{v!r}\n" for v in chunk]
            else:
                runs = zip(starts, [*starts[1:], len(chunk)])
                cells = [f"%d,{chunk[i]!r}\n" * (j - i) for i, j in runs]
            # A float's repr() holds no "%", so a cell needs no escaping.
            fh.write("".join(cells) % tuple(ts[start:end]))
