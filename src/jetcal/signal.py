"""Time-series conditioning: moving average, alignment, peak detection.

The moving average uses a causal (trailing) window: the window at output
time t covers timestamps in (t - window_us, t]; samples earlier than one
full window after the trace start are dropped rather than averaged over a
partial window, because partial windows have inflated variance.

numpy is imported only by the functions on a PowerTrace of numpy columns.
detect_peak_columns is detect_peak's stdlib twin on the stdlib columns
that ingest.parse_columns reads from a small file: the same report, bit
for bit, and the same errors.
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import NamedTuple

from .errors import (BaselineUndefinedError, EmptyOverlapError,
                     InsufficientDataError, InvalidReadingError, UnitError)
from .traces import PairedDataset, PowerTrace

DEFAULT_WINDOW_US = 100_000
DEFAULT_MAX_GAP_US = 10_000


def _two_sum(a, b):
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
    That bound holds while the sum of |values| from the trace's start to
    a window's end is at most about 1e15 times the window's own sum, as
    on a trace whose values stay within a few decades of one another
    (measured up to 2e5 rows). A trace that mixes magnitudes breaks it,
    even with no scaling: 200 rows of 1e20 then 200 rows of 1e-3, 1 ms
    apart, give a last 1 ms mean of 0.0010000020265579224 (2.0e-6
    relative), and 1e300 then 1e-10 give 0.0.
    Where a prefix sum could pass the float range, the values are first
    scaled by a power of two, exactly, and the means scaled back, so any
    finite window mean comes out; a mean that is not finite still raises
    InvalidReadingError, naming its timestamp.
    """
    import numpy as np

    if len(trace) == 0:
        raise InsufficientDataError("cannot filter an empty trace")
    window_us = int(window_us)
    if window_us <= 0:
        raise ValueError(f"window must be positive, got {window_us}")
    ts = trace.timestamps_us
    if window_us > trace.span_us:
        # Returned before ts[0] + window_us, which int64 may not hold.
        return PowerTrace(trace.device, trace.source, trace.unit, ts[:0],
                          trace.values[:0])
    first = int(np.searchsorted(ts, ts[0] + window_us, side="left"))
    hi = np.arange(first + 1, len(ts) + 1)
    lo = np.searchsorted(ts, ts[first:] - window_us, side="right")
    values = trace.values
    # Every prefix sum stays below 2**1022 once the values are below
    # 2**(1022 - n.bit_length()); k is 0 unless a sum could pass that.
    k = max(0, math.frexp(float(np.abs(values).max()))[1] + len(values).bit_length() - 1022)
    if k:
        values = np.ldexp(values, -k)

    with np.errstate(over="ignore", invalid="ignore"):
        # cumsum adds in order, so prefix[:-1] + values re-forms each of its steps.
        prefix = np.concatenate(([0.0], np.cumsum(values)))
        _, step_err = _two_sum(prefix[:-1], values)
        carried = np.concatenate(([0.0], np.cumsum(step_err)))
        # TwoSum on the difference too: without it a window sum can land one
        # ulp away from the correctly rounded sum.
        diff, diff_err = _two_sum(prefix[hi], -prefix[lo])
        means = (diff + (diff_err + (carried[hi] - carried[lo]))) / (hi - lo)
    if k:
        means = np.ldexp(means, k)
    bad = ~np.isfinite(means)
    if bad.any():
        raise InvalidReadingError(f"moving average is not finite at "
                                  f"t={int(ts[first + int(np.argmax(bad))])} us")
    return PowerTrace(trace.device, trace.source, trace.unit,
                      ts[first:], means)


def align(internal: PowerTrace, external: PowerTrace,
          max_gap_us: int = DEFAULT_MAX_GAP_US) -> PairedDataset:
    """Pair each internal sample with the external value at the same instant.

    The external stream is linearly interpolated at every internal
    timestamp that falls inside its span. A pair is kept only when both
    bracketing external samples are within max_gap_us of the internal
    timestamp, so stale interpolations across recording gaps are dropped.
    Interpolation at an exact external knot returns the knot value.
    A kept pair with a negative value, or whose interpolated value is not
    finite (two huge knots of opposite sign), raises InvalidReadingError,
    naming the first such pair's stream, value and timestamp.
    """
    import numpy as np

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
    # Knots near +-1e308 of opposite sign overflow their difference.
    with np.errstate(over="ignore", invalid="ignore"):
        interp = ext_vals[left] + (ext_vals[right] - ext_vals[left]) * frac
    interp = np.where(at_knot, ext_vals[left], interp)

    ts, raw, interp = ts[keep], raw[keep], interp[keep]
    bad = (raw < 0) | (interp < 0) | ~np.isfinite(interp)
    if bad.any():
        i = int(np.argmax(bad))
        stream, value = ("internal", raw[i]) if raw[i] < 0 else ("external", interp[i])
        raise InvalidReadingError(
            f"aligned {stream} power {float(value)!r} mW at t={int(ts[i])} us "
            f"is {'negative' if value < 0 else 'not finite'}"
        )
    return PairedDataset(internal.device, ts, raw, interp)


class PeakReport(NamedTuple):
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
    spacing follows it. The median is taken by np.partition, without the
    numpy.ma import of np.median's NaN check.
    """
    import numpy as np

    _check_peak_inputs(len(trace), threshold)
    vals = trace.values
    ts = trace.timestamps_us
    below = vals < threshold
    if not below.any():
        raise _no_baseline(threshold)
    peak_idx = int(np.argmax(vals))
    duration = int(np.diff(ts)[~below[:-1]].sum()) if len(ts) > 1 else 0
    n = int(below.sum())
    return PeakReport(
        peak_value=float(vals[peak_idx]),
        peak_timestamp_us=int(ts[peak_idx]),
        baseline=_median(np.partition(vals[below], [(n - 1) // 2, n // 2])),
        duration_above_threshold_us=duration,
        threshold=float(threshold),
    )


def detect_peak_columns(trace: PowerTrace, threshold: float) -> PeakReport:
    """detect_peak of a trace of stdlib columns, without numpy: the same
    report, bit for bit, and the same errors."""
    _check_peak_inputs(len(trace), threshold)
    vals, ts = trace.values, trace.timestamps_us
    below = sorted(v for v in vals if v < threshold)
    if not below:
        raise _no_baseline(threshold)
    peak_idx = vals.index(max(vals))
    return PeakReport(
        peak_value=vals[peak_idx],
        peak_timestamp_us=ts[peak_idx],
        baseline=_median(below),
        duration_above_threshold_us=sum(t1 - t0 for (t0, t1), v in zip(pairwise(ts), vals)
                                        if v >= threshold),
        threshold=float(threshold),
    )


def _check_peak_inputs(n: int, threshold: float) -> None:
    if n == 0:
        raise InsufficientDataError("cannot detect a peak in an empty trace")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def _no_baseline(threshold: float) -> BaselineUndefinedError:
    return BaselineUndefinedError(f"every sample is at or above threshold {threshold}")


def _median(ordered) -> float:
    """The median of finite values whose middle indices, (n - 1) // 2 and
    n // 2, hold what a sort would put there, as np.median gives it.

    That is np.mean of the two middle values: (lo + hi) / 2, and 0.0
    where both are zeros, since np.mean sums from 0.0; so the signed zeros
    that a sort or a partition happens to put in the middle do not show.
    Where the two sum past the float range, their halves are summed
    instead: halving is exact at that magnitude, so the mean is still
    correctly rounded.
    """
    n = len(ordered)
    lo, hi = float(ordered[(n - 1) // 2]), float(ordered[n // 2])
    if lo == hi == 0.0:
        return 0.0
    median = (lo + hi) / 2
    return median if math.isfinite(median) else lo / 2 + hi / 2
