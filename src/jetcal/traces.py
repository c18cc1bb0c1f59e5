"""Core trace types: power readings, ordered traces and aligned pairs.

Timestamps are integer microseconds since the epoch so that two streams
recorded on a shared network clock can be aligned without float rounding.
Values are float64 in the trace's unit (mW or mA).

PowerTrace stores samples as two parallel read-only numpy arrays and is
safe to share across threads. PowerSample is one reading, as the live
sampler delivers it; it is not validated, because the sampler checks each
read and PowerTrace checks the columns it is built from. TraceColumns is
a trace as stdlib arrays, for the numpy-free path of small files; it is
not validated either, because the parser that builds it checks each row.
numpy is imported only when a PowerTrace is built, so code that builds
none, such as the live sampler, runs without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from array import array

    import numpy as np

SOURCES = ("internal", "external", "calibrated")
UNITS = ("mW", "mA")


class PowerSample(NamedTuple):
    """One timestamped reading in the owning trace's unit."""

    timestamp_us: int
    value: float


class TraceColumns(NamedTuple):
    """A trace's unit and its columns as array('q') and array('d').

    ingest.parse_columns builds it from rows it has checked, so the
    timestamps strictly increase and the values are finite; the stdlib
    twins of apply_trace, integrate_energy and detect_peak take it.
    """

    unit: str
    timestamps_us: array
    values: array


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
