"""Core trace types: timestamped power readings and ordered traces.

Timestamps are integer microseconds since the epoch so that two streams
recorded on a shared network clock can be aligned without float rounding.
Values are float64 in the trace's unit (mW, mA or V).

PowerTrace stores samples as two parallel read-only numpy arrays and is
safe to share across threads. PowerSample is one reading, as the live
sampler delivers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SOURCES = ("internal", "external", "calibrated")
UNITS = ("mW", "mA", "V")


@dataclass(frozen=True)
class PowerSample:
    """One timestamped reading in the owning trace's unit."""

    timestamp_us: int
    value: float

    def __post_init__(self):
        if self.timestamp_us < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp_us}")
        if not np.isfinite(self.value):
            raise ValueError(f"sample value must be finite, got {self.value}")


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Ordered sample sequence with source and device metadata.

    Invariants enforced at construction: strictly increasing timestamps,
    finite values, known source and unit. `warnings` carries non-fatal
    flags attached by processing steps (e.g. negative calibrated values).
    """

    device: str
    source: str
    unit: str
    timestamps_us: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
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

    @classmethod
    def from_samples(cls, device: str, source: str, unit: str,
                     samples, warnings: tuple[str, ...] = ()) -> "PowerTrace":
        pairs = [(s.timestamp_us, s.value) for s in samples]
        ts = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.float64)
        return cls(device, source, unit, ts, vals, warnings)

    def __len__(self) -> int:
        return len(self.timestamps_us)

    @property
    def span_us(self) -> int:
        """Time covered by the trace, 0 for traces shorter than 2 samples."""
        if len(self) < 2:
            return 0
        return int(self.timestamps_us[-1] - self.timestamps_us[0])


def canonical_device_id(name: str) -> str:
    """Lowercased, stripped device id; rejects empty names."""
    canon = name.strip().lower()
    if not canon:
        raise ValueError("device id must be non-empty")
    return canon
