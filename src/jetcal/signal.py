"""Time-series conditioning: moving average, alignment, peak detection.

The moving average uses a causal (trailing) window: the window at output
time t covers timestamps in (t - window_us, t]; samples earlier than one
full window after the trace start are dropped rather than averaged over a
partial window, because partial windows have inflated variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (BaselineUndefinedError, EmptyOverlapError,
                     InsufficientDataError, InvalidReadingError, UnitError)
from .traces import PowerTrace

if TYPE_CHECKING:
    from .regression import PairedDataset

DEFAULT_WINDOW_US = 100_000
DEFAULT_MAX_GAP_US = 10_000


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum, elementwise: s = fl(a + b) and err with s + err == a + b."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def moving_average(trace: PowerTrace, window_us: int = DEFAULT_WINDOW_US) -> PowerTrace:
    """Causal moving-average filter over a whole trace.

    Output keeps the timestamps of the input samples it was emitted for;
    warm-up samples (the first window_us of the trace) are dropped. A
    window longer than the trace span therefore yields an empty trace.

    Each window sum is a difference of compensated prefix sums: a plain
    cumsum plus the running sum of the exact rounding error of each of
    its steps (TwoSum), so subtracting two long prefix sums loses nothing
    to the length of the trace. The remaining error is second order in
    machine epsilon; the means are checked against a correctly rounded
    per-window mean to 1e-12 relative on traces of up to 2e6 samples.
    """
    if len(trace) == 0:
        raise InsufficientDataError("cannot filter an empty trace")
    window_us = int(window_us)
    if window_us <= 0:
        raise ValueError(f"window must be positive, got {window_us}")
    ts = trace.timestamps_us
    if window_us > trace.span_us:
        # Returned before ts[0] + window_us, which int64 may not hold.
        return PowerTrace(trace.device, trace.source, trace.unit, ts[:0],
                          trace.values[:0], trace.warnings)
    first = int(np.searchsorted(ts, ts[0] + window_us, side="left"))
    hi = np.arange(first + 1, len(ts) + 1)
    lo = np.searchsorted(ts, ts[first:] - window_us, side="right")

    # cumsum adds in order, so prefix[:-1] + values re-forms each of its steps.
    prefix = np.concatenate(([0.0], np.cumsum(trace.values)))
    _, step_err = _two_sum(prefix[:-1], trace.values)
    carried = np.concatenate(([0.0], np.cumsum(step_err)))
    # TwoSum on the difference too: without it a window sum can land one
    # ulp away from the correctly rounded sum.
    diff, diff_err = _two_sum(prefix[hi], -prefix[lo])
    sums = diff + (diff_err + (carried[hi] - carried[lo]))
    return PowerTrace(
        trace.device, trace.source, trace.unit,
        ts[first:], sums / (hi - lo), trace.warnings,
    )


def align(internal: PowerTrace, external: PowerTrace,
          max_gap_us: int = DEFAULT_MAX_GAP_US) -> PairedDataset:
    """Pair each internal sample with the external value at the same instant.

    The external stream is linearly interpolated at every internal
    timestamp that falls inside its span. A pair is kept only when both
    bracketing external samples are within max_gap_us of the internal
    timestamp, so stale interpolations across recording gaps are dropped.
    Interpolation at an exact external knot returns the knot value.
    A kept pair with a negative value raises InvalidReadingError, naming
    the first such pair's stream, value and timestamp.
    """
    # Loaded here, so that `peak` loads neither regression nor models.
    from .regression import PairedDataset

    if len(internal) == 0 or len(external) == 0:
        raise EmptyOverlapError("both traces must be non-empty")
    if internal.unit != "mW" or external.unit != "mW":
        raise UnitError(
            f"alignment requires mW traces, got {internal.unit} and {external.unit}"
        )
    ext_ts = external.timestamps_us
    ext_vals = external.values
    lo, hi = int(ext_ts[0]), int(ext_ts[-1])
    if internal.timestamps_us[-1] < lo or internal.timestamps_us[0] > hi:
        raise EmptyOverlapError(
            "internal and external traces share no time span"
        )

    in_span = (internal.timestamps_us >= lo) & (internal.timestamps_us <= hi)
    ts = internal.timestamps_us[in_span]
    raw = internal.values[in_span]

    left = np.searchsorted(ext_ts, ts, side="right") - 1
    at_knot = ext_ts[left] == ts
    right = np.where(at_knot, left, np.minimum(left + 1, len(ext_ts) - 1))

    left_gap = ts - ext_ts[left]
    right_gap = ext_ts[right] - ts
    keep = (left_gap <= max_gap_us) & (right_gap <= max_gap_us)

    span = (ext_ts[right] - ext_ts[left]).astype(np.float64)
    frac = np.zeros_like(span)
    np.divide((ts - ext_ts[left]).astype(np.float64), span, out=frac, where=span > 0)
    interp = ext_vals[left] + (ext_vals[right] - ext_vals[left]) * frac
    interp = np.where(at_knot, ext_vals[left], interp)

    ts, raw, interp = ts[keep], raw[keep], interp[keep]
    negative = (raw < 0) | (interp < 0)
    if negative.any():
        i = int(np.argmax(negative))
        stream, value = ("internal", raw[i]) if raw[i] < 0 else ("external", interp[i])
        raise InvalidReadingError(
            f"aligned {stream} power {float(value)!r} mW at t={int(ts[i])} us is negative"
        )
    return PairedDataset(internal.device, ts, raw, interp)


@dataclass(frozen=True)
class PeakReport:
    """Largest excursion of a trace relative to a threshold."""

    peak_value: float
    peak_timestamp_us: int
    baseline: float
    duration_above_threshold_us: int
    threshold: float


def detect_peak(trace: PowerTrace, threshold: float) -> PeakReport:
    """Characterize the global maximum of a trace.

    Baseline is the median of samples strictly below the threshold, which
    is robust against the tail of a boot transient. Duration above the
    threshold is summed per sample as the forward gap to the next sample;
    a final sample above the threshold contributes nothing because no
    spacing follows it.
    """
    if len(trace) == 0:
        raise InsufficientDataError("cannot detect a peak in an empty trace")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    vals = trace.values
    ts = trace.timestamps_us
    peak_idx = int(np.argmax(vals))
    below = vals < threshold
    if not below.any():
        raise BaselineUndefinedError(
            f"every sample is at or above threshold {threshold}"
        )
    above = vals >= threshold
    duration = int(np.diff(ts)[above[:-1]].sum()) if len(ts) > 1 else 0
    return PeakReport(
        peak_value=float(vals[peak_idx]),
        peak_timestamp_us=int(ts[peak_idx]),
        baseline=_median(vals[below]),
        duration_above_threshold_us=duration,
        threshold=float(threshold),
    )


def _median(values: np.ndarray) -> float:
    """float(np.median(values)) of finite values, by np.median's own
    partition and mean, without the numpy.ma import of its NaN check."""
    mid = len(values) // 2
    kth = [mid - 1, mid, -1] if len(values) % 2 == 0 else [mid, -1]
    return float(np.partition(values, kth)[kth[0]:mid + 1].mean())
