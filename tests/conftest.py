"""Shared fixtures and independent oracles used across the suite.

The oracle helpers deliberately avoid the library's own code paths:
window means via boolean masks and math.fsum, least squares via an exact
rational solve of the normal equations, energy via an explicit
trapezoid loop, a written trace via one f-string per row.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from jetcal.traces import PowerTrace


@pytest.fixture
def rng():
    return np.random.default_rng(20230517)


def make_trace(ts, values, device="nano", source="internal", unit="mW"):
    return PowerTrace(device, source, unit,
                      np.asarray(ts, dtype=np.int64),
                      np.asarray(values, dtype=np.float64))


def columns_of(trace: PowerTrace) -> PowerTrace:
    """The trace with its columns as the stdlib arrays ingest.parse_columns returns."""
    return PowerTrace(trace.device, trace.source, trace.unit,
                      array("q", trace.timestamps_us.tolist()), array("d", trace.values.tolist()))


def fields_of(trace: PowerTrace):
    """A trace's metadata and its columns as Python ints and value reprs,
    so that two traces compare alike whatever their columns' type, and
    -0.0 differs from 0.0."""
    return (trace.device, trace.source, trace.unit, [int(t) for t in trace.timestamps_us],
            [repr(float(v)) for v in trace.values])


def oracle_window_mean(ts, values, t, window_us):
    """Brute-force mean of samples with timestamp in (t - window, t]."""
    ts = np.asarray(ts)
    mask = (ts > t - window_us) & (ts <= t)
    picked = np.asarray(values)[mask]
    return fsum(picked) / len(picked)


def oracle_ols(x, y):
    """Exact rational solve of the 2x2 normal equations.

    Sums are computed with fsum (correctly rounded) and the solve itself
    is exact Fraction arithmetic, so the result is an independently
    computed minimizer accurate to the quality of four sums.
    """
    n = Fraction(len(x))
    sx = Fraction(fsum(x))
    sy = Fraction(fsum(y))
    sxx = Fraction(fsum(float(v) * float(v) for v in x))
    sxy = Fraction(fsum(float(a) * float(b) for a, b in zip(x, y)))
    den = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / den
    intercept = (sxx * sy - sx * sxy) / den
    return float(slope), float(intercept)


def oracle_trapezoid_mj(ts, values):
    """Explicit piecewise trapezoid sum, mW * us reconciled to mJ."""
    total = fsum(
        (values[i] + values[i + 1]) / 2.0 * (ts[i + 1] - ts[i])
        for i in range(len(ts) - 1)
    )
    return total / 1e6


def oracle_sum_squared_residuals(x, y, slope, intercept):
    return fsum((yi - slope * xi - intercept) ** 2 for xi, yi in zip(x, y))


# Values whose repr is easy to get wrong: signed zeros, the least
# subnormal, and both sides of repr's switch to exponent form.
TRICKY = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1.0000000000000002e16,
          1e-5, 0.0001, 9.999999999999999e-05, 0.00010000000000000002, 1e22, 123.456, -7.5]


def oracle_trace_csv(trace) -> bytes:
    """A mW or mA trace's CSV, formatted row by row with repr()."""
    column = {"mW": "power_mw", "mA": "current_ma"}[trace.unit]
    rows = "".join(f"{t},{v!r}\n" for t, v in
                   zip(trace.timestamps_us.tolist(), trace.values.tolist()))
    return f"timestamp_us,{column}\n{rows}".encode()


@contextmanager
def recording_writes(module):
    """A list of the text of each write to a file that `module` opens."""
    writes = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "open", recording_open, raising=False)
        yield writes


def chunk_edge_rows(chunk):
    """Timestamps and values whose runs meet the edges of `chunk`-row chunks.

    A row at t=0, then one run over the rest of three chunks at 16-digit
    timestamps, then two runs, the first on the fourth chunk's first row.
    """
    t0 = 1_700_000_000_000_000
    ts = [0, *range(t0, t0 + 13 * (3 * chunk + 4), 13)]
    values = [-0.0] + [1234.5678] * (3 * chunk - 1) + [0.0] * 3 + [9999999999999998.0] * 2
    return ts, values
