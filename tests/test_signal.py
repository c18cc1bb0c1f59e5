"""Moving-average filter, stream alignment, peak detection."""

import sys
from fractions import Fraction
from math import fsum, isfinite

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcal.errors import (BaselineUndefinedError, EmptyOverlapError,
                           InsufficientDataError, InvalidReadingError, UnitError)
from jetcal.signal import align, detect_peak, detect_peak_columns, moving_average

from conftest import TRICKY, columns_of, make_trace, oracle_window_mean


# ── moving average ──────────────────────────────────────────────────────

def test_constant_trace_stays_constant():
    ts = np.arange(0, 200_000, 1000)
    out = moving_average(make_trace(ts, np.full(len(ts), 5000.0)), 100_000)
    assert len(out) > 0
    assert np.all(out.values == 5000.0)


def test_warmup_samples_are_dropped():
    ts = np.arange(0, 300_000, 1000)
    out = moving_average(make_trace(ts, np.ones(len(ts))), 100_000)
    # emitted only for t >= t0 + window
    assert out.timestamps_us[0] == 100_000
    assert out.timestamps_us[-1] == ts[-1]


def test_alternating_trace_averages_to_midpoint():
    ts = np.arange(0, 400_000, 1000)
    vals = np.where(np.arange(len(ts)) % 2 == 0, 0.0, 1000.0)
    trace = make_trace(ts, vals)
    out = moving_average(trace, 100_000)
    # 100 samples per window: exactly 50/50 split, +-1 parity wiggle
    assert np.all(np.abs(out.values - 500.0) <= 1000.0 / 100 + 1e-9)
    for t, v in zip(out.timestamps_us, out.values):
        assert v == pytest.approx(
            oracle_window_mean(ts, vals, int(t), 100_000), rel=1e-12)


def test_window_longer_than_span_emits_nothing():
    ts = np.arange(0, 50_000, 1000)
    out = moving_average(make_trace(ts, np.ones(len(ts))), 100_000)
    assert len(out) == 0


def test_irregular_trace_matches_bruteforce_oracle(rng):
    ts = np.cumsum(rng.integers(1000, 10001, 3000)).astype(np.int64)
    vals = rng.uniform(3000.0, 20000.0, 3000)
    out = moving_average(make_trace(ts, vals), 100_000)
    assert len(out) > 2000
    for t, v in zip(out.timestamps_us, out.values):
        expected = oracle_window_mean(ts, vals, int(t), 100_000)
        assert v == pytest.approx(expected, rel=1e-12)


def _emitted_index(ts, out):
    """Input index of every output sample."""
    return np.searchsorted(ts, out.timestamps_us)


def test_long_irregular_trace_matches_oracle(rng):
    # Plain prefix-sum differences drift with trace length (about 1e-11
    # relative here); the compensated sums must not.
    n = 2_000_000
    ts = np.cumsum(rng.integers(1000, 10001, n)).astype(np.int64)
    vals = rng.uniform(3000.0, 20000.0, n)
    out = moving_average(make_trace(ts, vals), 100_000)
    idx = _emitted_index(ts, out)
    for k in rng.choice(len(out), 2000, replace=False):
        i = int(idx[k])
        # 200 samples span at least 200 ms, more than one window.
        local = slice(max(i - 199, 0), i + 1)
        expected = oracle_window_mean(ts[local], vals[local], int(ts[i]), 100_000)
        assert out.values[k] == pytest.approx(expected, rel=1e-12)


@st.composite
def awkward_traces(draw):
    n = draw(st.integers(1, 60))
    # Dense steps mixed with gaps longer than any window drawn below.
    step = st.one_of(st.integers(1, 20_000), st.integers(1_000_001, 3_000_000))
    steps = draw(st.lists(step, min_size=n, max_size=n))
    start = draw(st.sampled_from([0, 1_700_000_000_000_000]))
    ts = start + np.cumsum(steps, dtype=np.int64) - steps[0]
    vals = draw(st.lists(st.floats(1e-3, 1e7), min_size=n, max_size=n))
    window = draw(st.integers(1, 1_000_000))
    return ts, np.array(vals), window


@settings(max_examples=300, deadline=None)
@given(awkward_traces())
def test_every_output_matches_oracle_on_awkward_traces(case):
    ts, vals, window = case
    out = moving_average(make_trace(ts, vals), window)
    assert np.array_equal(ts[ts >= ts[0] + window], out.timestamps_us)
    for t, v in zip(out.timestamps_us, out.values):
        assert v == pytest.approx(oracle_window_mean(ts, vals, int(t), window),
                                  rel=1e-12)


def test_signed_values_match_oracle_within_absolute_sum(rng):
    n = 200_000
    ts = np.cumsum(rng.integers(100, 2001, n)).astype(np.int64)
    vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 7.0, n)
    out = moving_average(make_trace(ts, vals, unit="mA"), 20_000)
    idx = _emitted_index(ts, out)
    for k in rng.choice(len(out), 2000, replace=False):
        i = int(idx[k])
        # 200 steps of at least 100 us span the 20 ms window.
        local = slice(max(i - 200, 0), i + 1)
        local_ts, local_vals = ts[local], vals[local]
        picked = local_vals[local_ts > ts[i] - 20_000]
        expected = fsum(picked) / len(picked)
        assert abs(out.values[k] - expected) <= 1e-12 * fsum(np.abs(picked)) / len(picked)


def test_white_noise_variance_reduction(rng):
    # uniform 1 ms grid, 100-sample windows
    n = 20_000
    sigma = 50.0
    ts = np.arange(n) * 1000
    vals = 5000.0 + sigma * rng.standard_normal(n)
    out = moving_average(make_trace(ts, vals), 100_000)
    occupancy = 100
    emitted_var = float(np.var(out.values, ddof=1))
    # invariant bound: var <= sigma^2 / floor(N/2), twice the theory value
    assert emitted_var <= sigma**2 / (occupancy // 2)
    # and the estimate sits inside 3 sigma of theory for correlated outputs
    theory = sigma**2 / occupancy
    n_eff = len(out) / occupancy
    band = 3.0 * theory * np.sqrt(2.0 / n_eff)
    assert abs(emitted_var - theory) <= band


@pytest.mark.parametrize("window_us", [1000, 100_000])
def test_window_sums_past_the_float_range_match_oracle(window_us):
    # Prefix sums of these values pass the float maximum; the window means
    # do not. fsum overflows on them, so the oracle sums exact fractions.
    ts = 1000 * np.arange(400)
    vals = 1e306 * (1.0 + np.arange(400.0) / 1000.0)
    out = moving_average(make_trace(ts, vals), window_us)
    assert len(out) == 400 - window_us // 1000
    for t, v in zip(out.timestamps_us.tolist(), out.values.tolist()):
        picked = vals[(ts > t - window_us) & (ts <= t)].tolist()
        expected = float(sum(map(Fraction, picked)) / len(picked))
        assert v == pytest.approx(expected, rel=1e-12)


def test_filter_rejects_bad_window_and_empty_trace():
    with pytest.raises(ValueError):
        moving_average(make_trace([0], [1.0]), 0)
    with pytest.raises(ValueError):
        moving_average(make_trace([0], [1.0]), -5)
    with pytest.raises(InsufficientDataError):
        moving_average(make_trace([], []), 1000)


def test_filter_preserves_metadata():
    ts = np.arange(0, 20_000, 1000)
    trace = make_trace(ts, np.ones(len(ts)), device="tx2", unit="mA",
                       source="external")
    out = moving_average(trace, 5000)
    assert (out.device, out.unit, out.source) == ("tx2", "mA", "external")


# ── alignment ───────────────────────────────────────────────────────────

def test_identical_grids_zip_positionwise(rng):
    ts = np.arange(0, 100_000, 1000)
    internal = make_trace(ts, rng.uniform(100, 200, len(ts)))
    external = make_trace(ts, rng.uniform(100, 200, len(ts)), source="external")
    pairs = align(internal, external, 10_000)
    assert len(pairs) == len(ts)
    np.testing.assert_array_equal(pairs.timestamps_us, ts)
    np.testing.assert_array_equal(pairs.internal_mw, internal.values)
    np.testing.assert_array_equal(pairs.external_mw, external.values)


def test_interpolation_closed_form():
    external = make_trace([0, 1000, 2000], [0.0, 100.0, 200.0], source="external")
    internal = make_trace([500], [123.0])
    pairs = align(internal, external, 10_000)
    assert len(pairs) == 1
    assert pairs.internal_mw[0] == 123.0
    assert pairs.external_mw[0] == pytest.approx(50.0, rel=1e-12)


def test_samples_outside_external_span_are_excluded():
    external = make_trace([1000, 2000], [10.0, 20.0], source="external")
    internal = make_trace([0, 1500, 2500], [1.0, 2.0, 3.0])
    pairs = align(internal, external, 10_000)
    assert pairs.timestamps_us.tolist() == [1500]


def test_pairs_dropped_when_bracketing_gap_exceeds_limit():
    # a 50 ms hole in the external stream
    ext_ts = [0, 1000, 2000, 52_000, 53_000]
    external = make_trace(ext_ts, [1.0] * len(ext_ts), source="external")
    internal = make_trace([500, 1500, 30_000, 52_500], [1.0] * 4)
    pairs = align(internal, external, max_gap_us=10_000)
    assert pairs.timestamps_us.tolist() == [500, 1500, 52_500]


def test_knot_coincident_alignment_is_exact(rng):
    ext_ts = np.arange(0, 50_000, 1000)
    ext_vals = rng.uniform(1000, 2000, len(ext_ts))
    external = make_trace(ext_ts, ext_vals, source="external")
    internal = make_trace(ext_ts[::5], np.ones(len(ext_ts[::5])))
    pairs = align(internal, external, 10_000)
    np.testing.assert_array_equal(pairs.external_mw, ext_vals[::5])


def test_internal_samples_only_around_external_span_give_no_pairs():
    external = make_trace([400, 600], [1.0, 2.0], source="external")
    internal = make_trace([0, 1000], [1.0, 2.0])
    pairs = align(internal, external, 10_000)
    assert len(pairs) == 0
    assert (pairs.timestamps_us.dtype, pairs.internal_mw.dtype,
            pairs.external_mw.dtype) == (np.int64, np.float64, np.float64)


@pytest.mark.parametrize("stream", ["internal", "external"])
def test_negative_pair_names_its_stream_value_and_time(stream):
    ts = np.arange(0, 6000, 1000)
    values = {"internal": [5.0] * 6, "external": [5.0] * 6}
    values[stream][3] = -4.0
    values[stream][4] = -1.0
    internal = make_trace(ts, values["internal"])
    external = make_trace(ts, values["external"], source="external")
    with pytest.raises(InvalidReadingError) as exc:
        align(internal, external, 10_000)
    assert str(exc.value) == f"aligned {stream} power -4.0 mW at t=3000 us is negative"


def test_negative_samples_that_pair_with_nothing_are_dropped():
    # Outside the external span and across its 50 ms hole: never paired.
    external = make_trace([1000, 2000, 52_000], [1.0, 1.0, 1.0], source="external")
    internal = make_trace([0, 1500, 30_000, 60_000], [-1.0, 2.0, -3.0, -4.0])
    pairs = align(internal, external, max_gap_us=10_000)
    assert pairs.internal_mw.tolist() == [2.0]


def test_empty_overlap_raises():
    external = make_trace([0, 1000], [1.0, 2.0], source="external")
    internal = make_trace([5000, 6000], [1.0, 2.0])
    with pytest.raises(EmptyOverlapError):
        align(internal, external, 1000)


def test_unit_mismatch_raises():
    external = make_trace([0, 1000], [1.0, 2.0], source="external", unit="mA")
    internal = make_trace([0, 1000], [1.0, 2.0])
    with pytest.raises(UnitError):
        align(internal, external, 1000)


# ── peak detection ──────────────────────────────────────────────────────

def test_flat_trace_with_single_spike():
    ts = np.arange(20) * 100
    vals = np.full(20, 200.0)
    vals[7] = 5880.0
    report = detect_peak(make_trace(ts, vals, unit="mA"), 1000.0)
    assert report.peak_value == 5880.0
    assert report.peak_timestamp_us == 700
    assert report.baseline == 200.0
    assert report.duration_above_threshold_us == 100


def test_monotone_ramp_below_threshold():
    ts = np.arange(10) * 1000
    vals = np.linspace(0.0, 900.0, 10)
    report = detect_peak(make_trace(ts, vals, unit="mA"), 1000.0)
    assert report.duration_above_threshold_us == 0
    assert report.peak_value == vals[-1]


def test_two_spikes_reports_larger_and_sums_durations(rng):
    ts = (np.arange(100) * 100).astype(np.int64)
    vals = rng.uniform(100.0, 300.0, 100)
    vals[10:13] = [2000.0, 4100.0, 2000.0]
    vals[60:62] = [3000.0, 3000.0]
    trace = make_trace(ts, vals, unit="mA")
    threshold = 1000.0
    report = detect_peak(trace, threshold)
    assert report.peak_value == 4100.0
    # brute-force scan oracle: forward spacing per above-threshold sample
    expected = sum(
        int(ts[i + 1] - ts[i])
        for i in range(len(ts) - 1) if vals[i] >= threshold
    )
    assert report.duration_above_threshold_us == expected == 500
    assert report.baseline == pytest.approx(
        float(np.median(vals[vals < threshold])))


FLOAT_MAX = sys.float_info.max
BELOW_MAX = float(np.nextafter(FLOAT_MAX, 0.0))


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.sampled_from(TRICKY + [BELOW_MAX, -FLOAT_MAX])
                     | st.floats(-FLOAT_MAX, BELOW_MAX), min_size=1, max_size=12))
@example(vals=[0.0, -0.0, -0.0])
@example(vals=[-0.0, 0.0, 0.0, -0.0])
@example(vals=[BELOW_MAX, BELOW_MAX])
def test_baseline_is_the_median_of_the_samples_below(vals):
    # Every value is below the largest float, so every value is baseline.
    # The oracle is the exact mean of the two middle values, rounded once;
    # where np.median is finite it must match it bit for bit, zero signs too,
    # and so must the stdlib twin.
    trace = make_trace(range(len(vals)), vals, unit="mA")
    baseline = detect_peak(trace, FLOAT_MAX).baseline
    ordered = sorted(vals)
    a, b = ordered[(len(vals) - 1) // 2], ordered[len(vals) // 2]
    assert baseline == float((Fraction(a) + Fraction(b)) / 2)
    with np.errstate(over="ignore"):
        median = float(np.median(vals))
    if isfinite(median):
        assert repr(baseline) == repr(median)
    assert repr(detect_peak_columns(columns_of(trace), FLOAT_MAX).baseline) == repr(baseline)


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.sampled_from(TRICKY + [BELOW_MAX, -FLOAT_MAX, 1e308])
                     | st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                     max_size=12),
       gaps=st.lists(st.integers(1, 10**12), min_size=12, max_size=12),
       t0=st.integers(0, 2**62), data=st.data())
def test_peak_twin_reports_what_detect_peak_reports(vals, gaps, t0, data):
    threshold = data.draw(st.sampled_from(vals) | st.floats(allow_nan=False,
                                                            allow_infinity=False))
    trace = make_trace([t0 + sum(gaps[:i]) for i in range(len(vals))], vals, unit="mA")
    reports = []
    for detect, arg in [(detect_peak, trace), (detect_peak_columns, columns_of(trace))]:
        try:
            reports.append(repr(detect(arg, threshold)))
        except BaselineUndefinedError as exc:
            reports.append(str(exc))
    assert reports[0] == reports[1]


def test_all_samples_above_threshold_raises():
    trace = make_trace([0, 100], [500.0, 600.0], unit="mA")
    with pytest.raises(BaselineUndefinedError):
        detect_peak(trace, 100.0)


def test_peak_equals_global_max_regardless_of_threshold(rng):
    ts = np.cumsum(rng.integers(50, 500, 200)).astype(np.int64)
    vals = rng.uniform(0.0, 5000.0, 200)
    trace = make_trace(ts, vals, unit="mA")
    for threshold in (100.0, 2500.0, 4999.0):
        if (vals < threshold).any():
            assert detect_peak(trace, threshold).peak_value == vals.max()


def test_peak_rejects_empty_and_non_finite_threshold():
    with pytest.raises(InsufficientDataError):
        detect_peak(make_trace([], [], unit="mA"), 1.0)
    with pytest.raises(ValueError):
        detect_peak(make_trace([0], [1.0], unit="mA"), float("nan"))
