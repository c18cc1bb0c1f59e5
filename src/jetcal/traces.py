"""Core trace types: power readings, ordered traces and aligned pairs.

Timestamps are integer microseconds since the epoch so that two streams
recorded on a shared network clock can be aligned without float rounding.
Values are float64 in the trace's unit (mW or mA).

PowerTrace stores samples as two parallel read-only numpy arrays and is
safe to share across threads. PowerSample is one reading, as the live
sampler delivers it; it is not validated, because the sampler checks each
read and PowerTrace checks the columns it is built from. TraceColumns is
a trace as stdlib arrays, for the numpy-free path of small files and for
the live recorder; it is not validated either, because the parser and
the sampler that build it check each row, and it writes its own CSV.
numpy is imported only when a PowerTrace is built, so code that builds
none, such as the live sampler, runs without loading it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

SOURCES = ("internal", "external", "calibrated")
UNITS = ("mW", "mA")

# The header of a written trace's value column, by the trace's unit.
CSV_COLUMNS = {"mW": "power_mw", "mA": "current_ma"}

# Rows TraceColumns.write_csv formats at a time, so that the text of one
# write stays small.
_WRITE_ROWS = 8192


class PowerSample(NamedTuple):
    """One timestamped reading in the owning trace's unit."""

    timestamp_us: int
    value: float


class TraceColumns(NamedTuple):
    """A trace's unit and its columns as array('q') and array('d').

    ingest.parse_columns builds it from rows it has checked, and
    sensor.SampleBuffer from samples the sampler has checked, so the
    timestamps strictly increase and the values are finite; the stdlib
    twins of apply_trace, integrate_energy and detect_peak take it.
    """

    unit: str
    timestamps_us: array
    values: array

    def write_csv(self, path) -> None:
        """Write a mW trace as internal_csv or a mA trace as a current CSV.

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
        ts, values = self.timestamps_us, self.values
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"timestamp_us,{CSV_COLUMNS[self.unit]}\n")
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


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Ordered sample sequence with source and device metadata.

    Invariants enforced at construction: strictly increasing timestamps,
    finite values, known source and unit.
    """

    device: str
    source: str
    unit: str
    timestamps_us: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        ts = np.asarray(self.timestamps_us, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "timestamps_us", ts)
        object.__setattr__(self, "values", vals)
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {self.unit!r}")
        if ts.ndim != 1 or vals.ndim != 1 or ts.shape != vals.shape:
            raise ValueError("timestamps and values must be 1-d arrays of equal length")
        if len(ts) and ts[0] < 0:
            raise ValueError("timestamps must be non-negative")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("all sample values must be finite")
        ts.setflags(write=False)
        vals.setflags(write=False)

    def __len__(self) -> int:
        return len(self.timestamps_us)

    @property
    def span_us(self) -> int:
        """Time covered by the trace, 0 for traces shorter than 2 samples."""
        if len(self) < 2:
            return 0
        return int(self.timestamps_us[-1] - self.timestamps_us[0])


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Time-aligned (internal_mw, external_mw) observations for one device.

    signal.align builds it from two PowerTraces and refuses negative
    pairs, so its columns are 1-d, of equal length, finite and >= 0, with
    strictly increasing timestamps; nothing here checks them again.
    """

    device: str
    timestamps_us: np.ndarray
    internal_mw: np.ndarray
    external_mw: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps_us)


def canonical_device_id(name: str) -> str:
    """Lowercased, stripped device id; rejects empty names."""
    canon = name.strip().lower()
    if not canon:
        raise ValueError("device id must be non-empty")
    return canon
