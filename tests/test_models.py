"""Calibration model core: registry, apply/invert, energy integration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcal.errors import (InsufficientDataError, InvalidReadingError,
                           ParseError, UnknownDeviceError)
from jetcal.models import (BOOT_PEAK_CURRENT_MA, BUILTIN_MODELS, CalibrationModel,
                           apply_columns, apply_trace, get_model,
                           integrate_energy, integrate_energy_columns, invert_model,
                           load_models, mean, mean_of_runs, parse_model_line,
                           save_models)

from conftest import columns_of, fields_of, make_trace, oracle_trapezoid_mj

NANO = BUILTIN_MODELS["nano"]
TX2 = BUILTIN_MODELS["tx2"]
ORIN = BUILTIN_MODELS["agx-orin"]


# ── registry ────────────────────────────────────────────────────────────

def test_registry_coefficients_are_exact_literals():
    expected = {
        "agx-orin": (1.02, 3115.39, 3.0),
        "xavier-nx": (1.10, 3130.41, 2.0),
        "tx2": (0.90, 1998.80, 3.0),
        "nano": (1.11, 232.60, 0.8),
    }
    assert set(BUILTIN_MODELS) == set(expected)
    for device, (slope, intercept, err) in expected.items():
        m = BUILTIN_MODELS[device]
        assert m.slope == slope
        assert m.intercept_mw == intercept
        assert m.stated_error_pct == err
        assert m.provenance == "builtin"


def test_registry_lookup_nano():
    m = get_model("nano")
    assert (m.slope, m.intercept_mw, m.stated_error_pct) == (1.11, 232.60, 0.8)


def test_registry_lookup_case_insensitive():
    assert get_model("AGX-Orin") is BUILTIN_MODELS["agx-orin"]
    assert get_model(" Nano ") is BUILTIN_MODELS["nano"]


def test_registry_unknown_device_lists_available():
    with pytest.raises(UnknownDeviceError) as exc:
        get_model("rpi4")
    for device in BUILTIN_MODELS:
        assert device in str(exc.value)


def test_boot_peak_reference_values():
    assert BOOT_PEAK_CURRENT_MA == {
        "agx-orin": 5880.0, "tx2": 6580.0, "xavier-nx": 960.0, "nano": 1480.0,
    }


# ── model type invariants ───────────────────────────────────────────────

@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_or_non_finite_slope_rejected(slope):
    with pytest.raises(ValueError):
        CalibrationModel("nano", slope, 100.0, 1.0)


def test_non_finite_intercept_rejected():
    with pytest.raises(ValueError):
        CalibrationModel("nano", 1.0, math.nan, 1.0)


def test_negative_error_rejected():
    with pytest.raises(ValueError):
        CalibrationModel("nano", 1.0, 0.0, -1.0)


def test_device_id_canonicalized():
    m = CalibrationModel("  MyBoard ", 1.0, 0.0, 0.0)
    assert m.device == "myboard"


@pytest.mark.parametrize("fields, message", [
    # The device is checked first, whatever else is wrong.
    ((" ", 0.0, math.nan, -1.0, "guessed"), "device id must be non-empty"),
    (("nano", -1.0, 0.0, 0.0), "slope must be positive and finite, got -1.0"),
    (("nano", 1.0, math.inf, 0.0), "intercept must be finite, got inf"),
    (("nano", 1.0, 0.0, math.nan), "stated error must be >= 0, got nan"),
    (("nano", 1.0, 0.0, 0.0, "guessed"), "provenance must be one of ('builtin', 'fitted')"),
])
def test_each_bad_field_raises_its_own_value_error(fields, message):
    with pytest.raises(ValueError) as exc:
        CalibrationModel(*fields)
    assert str(exc.value) == message


def test_models_compare_and_hash_field_by_field():
    same = CalibrationModel(device=" NANO ", slope=1.11, intercept_mw=232.60,
                            stated_error_pct=0.8, provenance="builtin")
    assert same == NANO and hash(same) == hash(NANO)
    assert CalibrationModel("nano", 1.11, 232.60, 0.8) != NANO


# ── apply / invert ──────────────────────────────────────────────────────

def calibrated(model, *raw_mw):
    """apply_trace of readings taken 1 us apart, as Python floats."""
    return apply_trace(model, make_trace(range(len(raw_mw)), raw_mw)).values.tolist()


def test_apply_nano_10w():
    assert calibrated(NANO, 10000.0) == [1.11 * 10000.0 + 232.60]
    assert calibrated(NANO, 10000.0) == [pytest.approx(11332.60)]


def test_apply_tx2_20w():
    assert calibrated(TX2, 20000.0) == [0.90 * 20000.0 + 1998.80]
    assert calibrated(TX2, 20000.0) == [pytest.approx(19998.80)]


def test_apply_orin_zero_returns_intercept():
    assert calibrated(ORIN, 0.0) == [3115.39]


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.nan, math.inf])
def test_apply_rejects_invalid_reading(bad):
    # A negative reading is refused as such; a non-finite one, which only a
    # hand-built trace can hold, maps to a value that is not finite.
    with pytest.raises(InvalidReadingError):
        calibrated(NANO, 100.0, bad)


def test_invert_nano_recovers_10w():
    # algebraic inverse: (11332.60 - 232.60) / 1.11
    assert invert_model(NANO, 11332.60) == pytest.approx(10000.0, rel=1e-12)


def test_invert_at_intercept_is_zero():
    for m in BUILTIN_MODELS.values():
        assert invert_model(m, m.intercept_mw) == 0.0


def test_round_trip_100_random_values(rng):
    for m in BUILTIN_MODELS.values():
        raw = rng.uniform(0.0, 50000.0, 100)
        for x, y in zip(raw, calibrated(m, *raw)):
            assert invert_model(m, y) == pytest.approx(x, rel=1e-9)
            p = float(rng.uniform(m.intercept_mw, 60000.0))
            assert calibrated(m, invert_model(m, p)) == [pytest.approx(p, rel=1e-9)]


@given(st.floats(0, 1e6), st.floats(0, 1e6))
def test_apply_is_strictly_monotone(a, b):
    if a == b:
        return
    lo, hi = sorted((a, b))
    for m in (NANO, TX2):
        at_lo, at_hi = calibrated(m, lo, hi)
        if at_lo != at_hi:
            assert at_lo < at_hi


# ── apply_trace ─────────────────────────────────────────────────────────

def test_apply_trace_empty_is_empty():
    trace = make_trace([], [])
    out = apply_trace(NANO, trace)
    assert len(out) == 0
    assert out.source == "calibrated"


def test_apply_trace_single_sample():
    out = apply_trace(NANO, make_trace([0], [10000.0]))
    assert out.timestamps_us.tolist() == [0]
    assert out.values[0] == pytest.approx(11332.60)


def test_apply_trace_matches_scalar_apply_per_element():
    ts = [0, 1000, 2000]
    vals = [1000.0, 2000.0, 3000.0]
    out = apply_trace(NANO, make_trace(ts, vals))
    assert out.timestamps_us.tolist() == ts
    for got, raw in zip(out.values.tolist(), vals):
        assert got == NANO.slope * raw + NANO.intercept_mw


def test_apply_trace_abort_on_negative_sample():
    trace = make_trace([0, 1000], [100.0, -5.0])
    with pytest.raises(InvalidReadingError, match=r"^invalid reading -5\.0 at t=1000 us$"):
        apply_trace(NANO, trace)


def test_apply_trace_keeps_negative_output_without_clipping():
    fitted = CalibrationModel("bench", 1.5, -500.0, 1.0, "fitted")
    out = apply_trace(fitted, make_trace([0, 1000], [10.0, 10000.0]))
    assert out.values[0] == pytest.approx(1.5 * 10.0 - 500.0)
    assert out.values[0] < 0


# ── energy integration ──────────────────────────────────────────────────

def test_energy_constant_power():
    # 1000 mW held for exactly 10 s is 10 J
    trace = make_trace([0, 10_000_000], [1000.0, 1000.0])
    report = integrate_energy(trace)
    assert report.energy_mj == pytest.approx(10000.0, rel=1e-12)
    assert report.duration_us == 10_000_000
    assert report.mean_power_mw == pytest.approx(1000.0, rel=1e-12)


def test_energy_linear_ramp_triangle_area():
    trace = make_trace([0, 2_000_000], [0.0, 1000.0])
    assert integrate_energy(trace).energy_mj == pytest.approx(1000.0, rel=1e-12)


def test_energy_matches_trapezoid_oracle_on_irregular_trace(rng):
    ts = np.cumsum(rng.integers(100, 50000, 500)).astype(np.int64)
    vals = rng.uniform(0.0, 20000.0, 500)
    report = integrate_energy(make_trace(ts, vals))
    assert report.energy_mj == pytest.approx(
        oracle_trapezoid_mj(ts.tolist(), vals.tolist()), rel=1e-12)


def test_energy_requires_two_samples():
    with pytest.raises(InsufficientDataError):
        integrate_energy(make_trace([0], [5.0]))


def test_energy_scales_linearly_with_power(rng):
    ts = np.cumsum(rng.integers(1000, 9000, 200)).astype(np.int64)
    vals = rng.uniform(100.0, 9000.0, 200)
    base = integrate_energy(make_trace(ts, vals)).energy_mj
    for alpha in (0.25, 3.0, 17.5):
        scaled = integrate_energy(make_trace(ts, alpha * vals)).energy_mj
        assert scaled == pytest.approx(alpha * base, rel=1e-12)


@given(st.lists(st.floats(0.0, 1e5), min_size=2, max_size=50))
def test_energy_report_mean_power_is_energy_over_duration(values):
    ts = np.arange(len(values), dtype=np.int64) * 1000
    report = integrate_energy(make_trace(ts, values))
    assert report.duration_us == ts[-1]
    lhs = report.mean_power_mw * report.duration_us
    rhs = report.energy_mj * 1e6
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_energy_below_zero_is_invalid_reading():
    with pytest.raises(InvalidReadingError, match=r"negative: -0\.002 mJ"):
        integrate_energy(make_trace([0, 1000], [-1.0, -3.0]))
    # A sample below zero is fine while the integral is not.
    assert integrate_energy(make_trace([0, 1000], [-1.0, 1.0])).energy_mj == 0.0


# ── model file round trip ───────────────────────────────────────────────

def test_model_file_round_trip(tmp_path):
    path = tmp_path / "models.txt"
    save_models(BUILTIN_MODELS, path)
    loaded = load_models(path)
    assert loaded == BUILTIN_MODELS


def test_model_file_single_fitted_record(tmp_path):
    fitted = CalibrationModel("bench", 1.2345678901234, -17.25, 0.42, "fitted")
    path = tmp_path / "m.txt"
    save_models([fitted], path)
    assert load_models(path) == {"bench": fitted}


def test_model_line_parse_errors():
    with pytest.raises(ParseError):
        parse_model_line("device=nano slope=1.0")  # missing fields
    with pytest.raises(ParseError):
        parse_model_line("device=nano slope=abc intercept_mw=0 "
                         "error_pct=0 provenance=fitted")
    with pytest.raises(ParseError):
        parse_model_line("device=nano bogus=1 slope=1 intercept_mw=0 "
                         "error_pct=0 provenance=fitted")


def test_a_key_given_twice_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "twice.model"
    path.write_text("# slope twice\ndevice=nano slope=1.5 slope=9.0 intercept_mw=0.0 "
                    "error_pct=1.0 provenance=fitted\n")
    with pytest.raises(ParseError) as exc:
        load_models(path)
    assert str(exc.value) == f"{path}:2: slope given twice in model record"


def test_empty_model_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        load_models(path)


# ── the stdlib twins ────────────────────────────────────────────────────

def outcome(fn, *args):
    """fn's result, or the type and message of the DataError it raised."""
    try:
        return fn(*args)
    except (InsufficientDataError, InvalidReadingError) as exc:
        return type(exc), str(exc)


# Signed zeros, subnormals, readings whose sums and areas pass the float
# range, and NaN, which a hand-built trace may hold.
TWIN_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e305, -1e305, 1.7e308,
                                -1.7e308, math.nan])
               | st.floats(-1e6, 1e6) | st.floats(allow_nan=False, allow_infinity=False))


@given(values=st.lists(TWIN_VALUES, max_size=8),
       gaps=st.lists(st.integers(1, 10**12), min_size=8, max_size=8),
       t0=st.integers(0, 2**62), intercept=st.sampled_from([232.6, -500.0, 1e308]))
@example(values=[6e307] * 5, gaps=[1] * 8, t0=0, intercept=232.6)
@example(values=[-6e307] * 5, gaps=[1] * 8, t0=0, intercept=232.6)
@example(values=[1.7e308, 1.7e308, -1.7e308, -1.7e308], gaps=[1000] * 8, t0=0,
         intercept=232.6)
# A leading NaN hides the negative reading after it from min().
@example(values=[math.nan, 100.0, -1.0], gaps=[1] * 8, t0=0, intercept=232.6)
@example(values=[100.0, math.nan], gaps=[1] * 8, t0=0, intercept=232.6)
def test_column_twins_match_apply_and_energy_bit_for_bit(values, gaps, t0, intercept):
    ts = [t0 + sum(gaps[:i]) for i in range(len(values))]
    trace = make_trace(ts, values)
    model = CalibrationModel("nano", 1.5, intercept, 1.0)
    want, got = outcome(apply_trace, model, trace), outcome(apply_columns, model, columns_of(trace))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert fields_of(got) == fields_of(want)
    assert repr(outcome(integrate_energy_columns, columns_of(trace))) == \
        repr(outcome(integrate_energy, trace))


# ── the mean by runs ────────────────────────────────────────────────────

def oracle_mean(runs):
    """The exact sum of runs of (value, count) rounded once, over the
    count; inf past the float range."""
    total = sum(Fraction(v) * n for v, n in runs)
    try:
        return float(total) / sum(n for _, n in runs)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


# Runs of signed zeros, subnormals, readings whose runs sum past the float
# range, and any finite value.
RUN_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e305,
                               -1e305, 1.7e308, -1.7e308])
              | st.floats(-1e6, 1e6) | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(RUN_VALUES, st.integers(1, 40)), min_size=1, max_size=12))
@example(runs=[(1.0, 1), (2.0, 1), (3.0, 1)])  # distinct values
@example(runs=[(-0.0, 5), (-0.0, 1)])
@example(runs=[(-0.0, 5), (0.0, 3)])
@example(runs=[(5e-324, 7), (-2.225073858507201e-308, 9)])
@example(runs=[(1e16, 3), (1.0, 30)])  # each 1.0 is lost to a running sum
@example(runs=[(1.7e308, 3), (-1.7e308, 3)])  # products past the float range
@example(runs=[(1.7e308, 1), (1e308, 3), (-1.7e308, 3)])  # partial sums past it
@example(runs=[(8.988465674311579e307, 4)])  # a mean past the float range
# Partial sums past the float range, of the runs' products or of the values
# only, beside subnormals that a sum at a smaller scale would lose.
@example(runs=[(1.5e308, 1), (1.4e308, 1), (-1.5e308, 1), (-1.4e308, 1), (2.0**-1011, 20)])
@example(runs=[(1.7976931348623157e308, 1), (2.0**970, 1), (-1.7976931348623157e308, 1),
               (-(2.0**970), 1), (5e-324, 7)])
# Every mantissa bit set, in a run of 2**20 - 1, less the rounded run sum:
# the mean is the rounding error of n * v over n + 1, exactly.
@example(runs=[(1.9999999999999998, 2**20 - 1), (-(2**20 - 1) * 1.9999999999999998, 1)])
def test_mean_of_runs_is_the_exact_mean_and_mean_bit_for_bit(runs):
    values = np.repeat([v for v, _ in runs], [n for _, n in runs])
    got = mean_of_runs(values)
    # repr, so that the bits count: -0.0 == 0.0.
    assert repr(got) == repr(mean(memoryview(values)))
    assert got == oracle_mean(runs)
