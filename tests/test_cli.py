"""The command line end to end on synthetic captures.

Every test calls `cli.main` in-process on files written from
`synth.synthetic_pair` or shaped like a `record` output, and checks the exit code, the one-line `--json`
output and, for failures, the single `error: ...` line on stderr. The
import budgets alone run in a fresh interpreter, whose `sys.modules` is
not the test process's.
"""

import functools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetcal import cli, ingest, regression, sensor, synth
from jetcal import signal as sig
from jetcal.models import BOOT_PEAK_CURRENT_MA, get_model
from jetcal.traces import PowerTrace

from conftest import oracle_trace_csv

NANO = get_model("nano")
SUPPLY_V = 5.0
COIL_TURNS = 10

# The --json key set of each command, as the first release printed them.
CALIBRATE_KEYS = {"device", "excluded_low_power", "intercept_mw", "mae_pct",
                  "max_abs_err_pct", "n_samples", "provenance", "r_squared",
                  "slope", "stated_error_pct"}
VALIDATE_KEYS = CALIBRATE_KEYS | {"gate", "gate_threshold_pct"}
APPLY_KEYS = {"device", "implied_gap_pct", "mean_calibrated_mw", "mean_raw_mw",
              "n_samples", "output"}
ENERGY_KEYS = {"calibrated_with", "duration_us", "energy_mj", "mean_power_mw"}
PEAK_KEYS = {"baseline", "duration_above_threshold_us", "peak_timestamp_us",
             "peak_value", "threshold", "unit"}
RECORD_KEYS = {"achieved_rate_hz", "device", "dropped", "end_us", "output",
               "read_errors", "samples_taken", "start_us"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 30 s nano pair: internal power CSV and a scope voltage/clamp CSV."""
    d = tmp_path_factory.mktemp("pair")
    internal, external, _ = synth.synthetic_pair(NANO, 30_000_000, seed=3)
    ingest.write_trace(internal, d / "internal.csv")
    clamp_a = external.values / 1000.0 / SUPPLY_V * COIL_TURNS
    with open(d / "external.csv", "w") as fh:
        fh.write("timestamp_us,voltage_v,current_a\n")
        fh.writelines(f"{t},{SUPPLY_V!r},{a!r}\n" for t, a in
                      zip(external.timestamps_us.tolist(), clamp_a.tolist()))
    ingest.write_trace(synth.boot_current_trace(BOOT_PEAK_CURRENT_MA["nano"], "nano"),
                       d / "boot.csv")
    (d / "replay.profile").write_text(
        f"device = nano\nmode = whole_board\n"
        f"node_paths = replay:{d / 'internal.csv'}\ntime_scale = 100\n")
    return d


def run(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert len(out.splitlines()) == 1, out
    return rc, json.loads(out)


def assert_one_error_line(err, prefix):
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {prefix}"), err
    assert "Traceback" not in err


# ── exit 0 and 1 ────────────────────────────────────────────────────────

def test_calibrate_recovers_nano_model(capsys, files, tmp_path):
    model_file = tmp_path / "fit.model"
    rc, out = run_json(capsys, "calibrate", files / "internal.csv", files / "external.csv",
                       "--device", "nano", "--coil-turns", COIL_TURNS,
                       "--out-model", model_file)
    assert rc == cli.EXIT_OK
    assert set(out) == CALIBRATE_KEYS | {"model_file"}
    # The internal stream carries 1% noise: the fit must land within it
    # across the 5-20 W range the pair covers.
    assert out["slope"] == pytest.approx(NANO.slope, rel=0.01)
    assert out["intercept_mw"] == pytest.approx(NANO.intercept_mw, abs=0.01 * 5000.0)
    for raw in (5000.0, 20000.0):
        fitted = out["slope"] * raw + out["intercept_mw"]
        assert fitted == pytest.approx(NANO.slope * raw + NANO.intercept_mw, rel=0.01)
    assert model_file.read_text().startswith("device=nano ")


def test_calibrate_without_model_file_omits_its_key(capsys, files):
    rc, out = run_json(capsys, "calibrate", files / "internal.csv", files / "external.csv",
                       "--device", "nano")
    assert rc == cli.EXIT_OK
    assert set(out) == CALIBRATE_KEYS


def test_validate_right_device_passes_gate(capsys, files):
    rc, out = run_json(capsys, "validate", files / "internal.csv", files / "external.csv",
                       "--device", "nano")
    assert (rc, out["gate"]) == (cli.EXIT_OK, "pass")
    assert set(out) == VALIDATE_KEYS


def test_validate_wrong_device_fails_gate(capsys, files):
    rc, out = run_json(capsys, "validate", files / "internal.csv", files / "external.csv",
                       "--device", "tx2")
    assert (rc, out["gate"]) == (cli.EXIT_GATE_FAIL, "fail")
    assert out["mae_pct"] > out["gate_threshold_pct"]
    assert set(out) == VALIDATE_KEYS


def test_apply_then_energy(capsys, files, tmp_path):
    calibrated = tmp_path / "cal.csv"
    rc, out = run_json(capsys, "apply", files / "internal.csv", "--device", "nano",
                       "--out", calibrated)
    assert rc == cli.EXIT_OK
    assert set(out) == APPLY_KEYS | {"n_skipped"}
    raw = ingest.parse_trace(files / "internal.csv", "internal_csv")
    assert (out["n_samples"], out["n_skipped"]) == (len(raw), 0)
    cal = ingest.parse_trace(calibrated, "internal_csv")
    np.testing.assert_array_equal(cal.values, NANO.slope * raw.values + NANO.intercept_mw)
    assert calibrated.read_bytes() == oracle_trace_csv(cal)

    rc, out = run_json(capsys, "energy", calibrated)
    assert rc == cli.EXIT_OK
    assert set(out) == ENERGY_KEYS
    assert out["calibrated_with"] == "none"
    assert out["duration_us"] == int(raw.timestamps_us[-1] - raw.timestamps_us[0])


def test_apply_writes_a_recorded_trace_as_the_oracle(capsys, tmp_path):
    # A record's shape: a node that updates every 1-10 ms, polled every
    # 10-40 us, so each integer-mW value repeats for many rows.
    rng = np.random.default_rng(5)
    ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(10, 41, 3 * ingest._CHUNK_LINES))
    updates = ts[0] + np.cumsum(rng.integers(1_000, 10_001, len(ts)))
    levels = np.round(rng.uniform(2_000.0, 15_000.0, len(ts) + 1))
    raw = PowerTrace("nano", "internal", "mW", ts, levels[np.searchsorted(updates, ts)])
    assert len(np.unique(raw.values)) < len(raw) / 100
    ingest.write_trace(raw, tmp_path / "rec.csv")
    rc, out = run_json(capsys, "apply", tmp_path / "rec.csv", "--device", "nano",
                       "--out", tmp_path / "cal.csv")
    assert (rc, out["n_samples"]) == (cli.EXIT_OK, len(raw))
    expected = PowerTrace("nano", "calibrated", "mW", ts,
                          NANO.slope * raw.values + NANO.intercept_mw)
    assert (tmp_path / "cal.csv").read_bytes() == oracle_trace_csv(expected)


def test_peak_finds_boot_current(capsys, files):
    rc, out = run_json(capsys, "peak", files / "boot.csv", "--threshold", 800)
    assert rc == cli.EXIT_OK
    assert set(out) == PEAK_KEYS
    assert (out["peak_value"], out["unit"]) == (BOOT_PEAK_CURRENT_MA["nano"], "mA")


def test_record_from_replay(capsys, files, tmp_path):
    out_csv = tmp_path / "rec.csv"
    rc, out = run_json(capsys, "record", "--profile", files / "replay.profile",
                       "--duration", 0.05, "--out", out_csv)
    assert rc == cli.EXIT_OK
    assert set(out) == RECORD_KEYS
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == out["samples_taken"] > 0


# ── exit 2: usage and configuration ─────────────────────────────────────

@pytest.mark.parametrize("argv", [
    ("calibrate", "--window-us", "0"),
    ("calibrate", "--window-us", "-5"),
    ("validate", "--window-us", "0"),
    ("calibrate", "--coil-turns", "0"),
    ("calibrate", "--max-gap-us", "-1"),
    ("calibrate", "--floor-mw", "nan"),
    ("calibrate", "--floor-mw", "0"),
    ("validate", "--floor-mw", "inf"),
    ("validate", "--floor-mw", "0"),
    ("validate", "--floor-mw", "-100"),
    ("record", "--duration", "nan"),
    ("record", "--duration", "-1"),
    ("record", "--duration", "0"),
    ("record", "--max-rate-hz", "-5"),
    ("peak", "--threshold", "nan"),
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_flag_is_usage_error(capsys, files, tmp_path, argv):
    command, flag, value = argv
    pair = (files / "internal.csv", files / "external.csv", "--device", "nano")
    rest = {
        "calibrate": pair,
        "validate": pair,
        "record": ("--profile", files / "replay.profile", "--out", tmp_path / "r.csv")
                  + (("--duration", 0.01) if flag != "--duration" else ()),
        "peak": (files / "boot.csv",),
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in (command, *rest, flag, value)])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: jetcal"), err
    assert f"argument {flag}: expected " in err and "Traceback" not in err


def test_missing_input_file_exits_config(capsys, tmp_path):
    rc, _, err = run(capsys, "energy", tmp_path / "nope.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, "input file not found")


def test_unknown_device_exits_config(capsys, files, tmp_path):
    rc, _, err = run(capsys, "apply", files / "internal.csv", "--device", "pluto",
                     "--out", tmp_path / "x.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, "unknown device 'pluto'")


def test_non_numeric_profile_value_exits_config(capsys, tmp_path):
    profile = tmp_path / "ten.profile"
    profile.write_text("device = nano\nmode = whole_board\nnode_paths = node\n"
                       "time_scale = fast\n")
    rc, _, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                     "--out", tmp_path / "r.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, f"{profile}:4: time_scale 'fast'")


def replay_profile(tmp_path, csv_path, time_scale=1.0):
    profile = tmp_path / "replay.profile"
    profile.write_text(f"device = nano\nmode = whole_board\n"
                       f"node_paths = replay:{csv_path}\ntime_scale = {time_scale}\n")
    return profile


@pytest.mark.parametrize("time_scale", ["inf", "1e400", "-inf", "nan"])
def test_non_finite_time_scale_exits_config(capsys, files, tmp_path, time_scale):
    profile = replay_profile(tmp_path, files / "internal.csv", time_scale)
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                       "--out", tmp_path / "r.csv")
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, f"time_scale must be positive and finite, "
                               f"got {float(time_scale)}")


def test_undecodable_profile_exits_config(capsys, tmp_path):
    profile = tmp_path / "bad.profile"
    profile.write_bytes(b"device = nano\nmode = whole_board\xb0\n")
    rc, _, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                     "--out", tmp_path / "r.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, f"{profile}:2: not UTF-8")


# ── exit 3: bad data ────────────────────────────────────────────────────

@pytest.mark.parametrize("window_us", [10**12, 2**63 - 1, 10**29])
@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_window_longer_than_the_capture_exits_data(capsys, files, command, window_us):
    # No sample has a full window behind it, so both averaged traces are empty.
    rc, out, err = run(capsys, command, files / "internal.csv", files / "external.csv",
                       "--device", "nano", "--window-us", window_us)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "both traces must be non-empty")


@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_max_gap_beyond_int64_keeps_every_pair(capsys, files, command):
    reports = [run_json(capsys, command, files / "internal.csv", files / "external.csv",
                        "--device", "nano", "--max-gap-us", gap)[1]
               for gap in (10**12, 10**29)]
    assert reports[0] == reports[1]
    assert reports[0]["n_samples"] > 0


def test_malformed_row_exits_data(capsys, files, tmp_path):
    good = (files / "external.csv").read_text().splitlines(keepends=True)
    # Row 100, and the tenth row from the end as in the benchmark's reject probe.
    for i in (100, len(good) - 10):
        lines = list(good)
        lines[i] = lines[i].rsplit(",", 1)[0] + "\n"
        bad = tmp_path / "external_bad.csv"
        bad.write_text("".join(lines))
        rc, _, err = run(capsys, "calibrate", files / "internal.csv", bad,
                         "--device", "nano")
        assert rc == cli.EXIT_DATA
        assert_one_error_line(err, f"{bad}:{i + 1}: expected 3 columns, got 2")


def power_csv(path, values):
    """A power_mw CSV of values 1 ms apart from t=0."""
    ts = 1000 * np.arange(len(values))
    ingest.write_trace(PowerTrace("nano", "internal", "mW", ts, values), path)
    return path


@pytest.mark.parametrize("command, stream", [("calibrate", "internal"),
                                             ("validate", "external")])
def test_negative_averaged_pair_exits_data(capsys, tmp_path, command, stream):
    # Over a 1 ms window each average is one sample, so rows 151-159 stay at -5.
    values = {"internal": 1000.0 + np.arange(400.0), "external": 1300.0 + np.arange(400.0)}
    values[stream][151:160] = -5.0
    files = [power_csv(tmp_path / f"{name}.csv", v) for name, v in values.items()]
    rc, out, err = run(capsys, command, *files, "--device", "nano", "--window-us", 1000)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, f"aligned {stream} power -5.0 mW at t=151000 us is negative")


@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_subnormal_external_reading_exits_data(capsys, tmp_path, command):
    # Over a 1 ms window each average is one sample, so rows 151-159 stay
    # at 5e-324 and pass a floor of 5e-324; their errors overflow.
    external = 1300.0 + np.arange(400.0)
    external[151:160] = 5e-324
    files = [power_csv(tmp_path / "internal.csv", 1000.0 + np.arange(400.0)),
             power_csv(tmp_path / "external.csv", external)]
    rc, out, err = run(capsys, command, *files, "--device", "nano", "--window-us", 1000,
                       "--floor-mw", "5e-324")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "percentage error is not finite: the model predicts ")
    assert err.endswith(" mW at t=151000 us against an external 5e-324 mW\n")


@pytest.mark.parametrize("scale", [1e77, 1e200])
@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_huge_readings_fit_without_overflow(capsys, tmp_path, command, scale):
    # Sums of squared deviations of these readings overflow a float.
    internal = scale * (1.0 + np.arange(400.0) / 100.0)
    files = [power_csv(tmp_path / "internal.csv", internal),
             power_csv(tmp_path / "external.csv", 1.1 * internal)]
    rc, out, err = run(capsys, command, *files, "--device", "nano", "--window-us", 1000,
                       "--json")
    report = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
    assert (rc, err) == ((cli.EXIT_OK, "") if command == "calibrate" else
                         (cli.EXIT_GATE_FAIL, ""))
    assert report["r_squared"] == pytest.approx(1.0)
    if command == "calibrate":
        assert report["slope"] == pytest.approx(1.1)


def test_unbounded_fitted_slope_exits_data(capsys, tmp_path):
    files = [power_csv(tmp_path / "internal.csv", 5e-324 * (1.0 + np.arange(400.0))),
             power_csv(tmp_path / "external.csv", 1e300 * (1.0 + np.arange(400.0) / 100.0))]
    rc, out, err = run(capsys, "calibrate", *files, "--device", "nano", "--window-us", 1000)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "the fitted line is not finite: slope inf, intercept -inf mW")


def test_apply_to_a_zero_mean_omits_the_gap(capsys, tmp_path):
    path = power_csv(tmp_path / "zero.csv", np.zeros(5))
    model = tmp_path / "z.model"
    model.write_text("device=nano slope=1.0 intercept_mw=0.0 error_pct=1.0 "
                     "provenance=fitted\n")
    rc, out = run_json(capsys, "apply", path, "--model", model, "--out", tmp_path / "cal.csv")
    assert rc == cli.EXIT_OK
    assert out == {"device": "nano", "n_samples": 5, "n_skipped": 0,
                   "output": str(tmp_path / "cal.csv"),
                   "mean_raw_mw": 0.0, "mean_calibrated_mw": 0.0}
    assert (tmp_path / "cal.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()


def test_apply_skip_counts_the_skipped_rows_and_means_the_kept_ones(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [5.0, -3.0, 7.0])
    rc, out = run_json(capsys, "apply", path, "--device", "nano", "--on-invalid", "skip",
                       "--out", tmp_path / "cal.csv")
    calibrated = [NANO.slope * v + NANO.intercept_mw for v in (5.0, 7.0)]
    mean_cal = (calibrated[0] + calibrated[1]) / 2
    assert (rc, out["n_samples"], out["n_skipped"]) == (cli.EXIT_OK, 2, 1)
    assert out["mean_raw_mw"] == 6.0
    assert out["mean_calibrated_mw"] == pytest.approx(mean_cal, rel=1e-15)
    assert out["implied_gap_pct"] == pytest.approx((mean_cal - 6.0) / mean_cal * 100.0)
    cal = ingest.parse_trace(tmp_path / "cal.csv", "internal_csv")
    assert cal.timestamps_us.tolist() == [0, 2000]


def test_energy_below_zero_exits_data(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [100.0, -300.0, 50.0])
    rc, out, err = run(capsys, "energy", path)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "energy over the trace is negative: ")


def test_energy_calibrated_below_zero_exits_data(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", 100.0 + np.arange(50.0) % 3)
    model = tmp_path / "low.model"
    model.write_text("device=nano slope=1.0 intercept_mw=-5000.0 error_pct=1.0 "
                     "provenance=fitted\n")
    rc, out, err = run(capsys, "energy", path, "--model", model)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "energy over the trace is negative: ")


def test_undecodable_csv_exits_data(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"timestamp_us,power_mw\n0,1.0\n1000,2\xb0\n")
    rc, _, err = run(capsys, "energy", path)
    assert rc == cli.EXIT_DATA
    assert_one_error_line(err, f"{path}: not UTF-8")


def test_oversized_field_exits_data(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("timestamp_us,power_mw\n0,1.0\n1," + "9" * 200_000 + "\n")
    rc, _, err = run(capsys, "energy", path)
    assert rc == cli.EXIT_DATA
    assert_one_error_line(err, f"{path}:3: malformed CSV")


def test_undecodable_model_file_exits_data(capsys, files, tmp_path):
    model = tmp_path / "bad.model"
    model.write_bytes(b"device=nano slope=1.1 intercept_mw=232.6 error_pct=0.8 "
                      b"provenance=fitted\xb0\n")
    rc, _, err = run(capsys, "apply", files / "internal.csv", "--model", model,
                     "--out", tmp_path / "x.csv")
    assert rc == cli.EXIT_DATA
    assert_one_error_line(err, f"{model}:1: not UTF-8")


def file_node_profile(tmp_path, content):
    (tmp_path / "node").write_text(content)
    profile = tmp_path / "file.profile"
    profile.write_text(f"device = nano\nmode = whole_board\n"
                       f"node_paths = {tmp_path / 'node'}\n")
    return profile


def test_record_overflow_exits_data_after_writing_kept_rows(capsys, monkeypatch, tmp_path):
    profile = file_node_profile(tmp_path, "4321\n")
    monkeypatch.setattr(sensor, "SampleBuffer",
                        functools.partial(sensor.SampleBuffer, maxlen=10))
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.05,
                       "--out", out_csv)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sample buffer overflowed: dropped the oldest ")
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == 10
    assert np.all(recorded.values == 4321.0)


def test_replay_of_a_header_only_csv_exits_data(capsys, tmp_path):
    (tmp_path / "empty.csv").write_text("timestamp_us,power_mw\n")
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile",
                       replay_profile(tmp_path, tmp_path / "empty.csv"),
                       "--duration", 0.01, "--out", out_csv)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "replay traces must be non-empty")
    assert not out_csv.exists()


def test_replay_at_a_huge_time_scale_holds_the_last_value(capsys, files, tmp_path):
    # Every read after the first is past the end of the trace.
    out_csv = tmp_path / "rec.csv"
    rc, out = run_json(capsys, "record", "--profile",
                       replay_profile(tmp_path, files / "internal.csv", 1e308),
                       "--duration", 0.05, "--out", out_csv)
    assert rc == cli.EXIT_OK
    last = ingest.parse_trace(files / "internal.csv", "internal_csv").values[-1]
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == out["samples_taken"] > 1
    assert np.all(recorded.values[1:] == last)


def test_record_exec_reports_workload_exit_code(capsys, tmp_path):
    out_csv = tmp_path / "rec.csv"
    rc, out = run_json(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--exec", "sh -c 'sleep 0.05; exit 7'", "--out", out_csv)
    assert (rc, out["workload_exit_code"]) == (cli.EXIT_OK, 7)
    assert set(out) == RECORD_KEYS | {"workload_exit_code"}
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == out["samples_taken"] > 0


def test_record_exec_with_unbalanced_quote_exits_config(capsys, tmp_path):
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--exec", "sh -c 'oops", "--out", out_csv)
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, "cannot parse workload command: No closing quotation")
    assert not out_csv.exists()


def test_record_max_rate_throttles_the_sampler(capsys, tmp_path):
    # 200 Hz for 0.2 s is at most 40 ticks plus the first read; a slow
    # host can only take fewer, so there is no lower bound but one sample.
    rc, out = run_json(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--max-rate-hz", 200, "--duration", 0.2, "--out", tmp_path / "rec.csv")
    assert rc == cli.EXIT_OK
    assert 1 <= out["samples_taken"] <= 41
    assert len(ingest.parse_trace(tmp_path / "rec.csv", "internal_csv")) == out["samples_taken"]


@pytest.mark.parametrize("rate", [0.5, 1e-300])
@pytest.mark.parametrize("stop", [("--duration", 0.2), ("--exec", "sleep 0.2")],
                         ids=["duration", "exec"])
def test_record_throttle_never_waits_past_the_run(capsys, tmp_path, stop, rate):
    # The tick after the first read is due 2 s on at 0.5 Hz, and never at
    # 1e-300 Hz: the run must end at its stop condition all the same.
    rc, out = run_json(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--max-rate-hz", rate, *stop, "--out", tmp_path / "rec.csv")
    assert (rc, out["samples_taken"]) == (cli.EXIT_OK, 1)
    assert out["end_us"] - out["start_us"] < 1_000_000


def test_record_exec_reaps_workload_when_sampling_aborts(capsys, monkeypatch, tmp_path):
    spawned = []

    def keep(*args, real_popen=subprocess.Popen, **kwargs):
        spawned.append(real_popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", keep)
    try:
        rc, out, err = run(capsys, "record", "--profile", file_node_profile(tmp_path, "nan\n"),
                           "--exec", "sleep 7.77", "--out", tmp_path / "rec.csv")
        assert (rc, out) == (cli.EXIT_DATA, "")
        assert_one_error_line(err, "sampler aborted: 20/20 node reads failed")
        (child,) = spawned
        assert child.returncode == -signal.SIGTERM
    finally:
        for child in spawned:
            if child.poll() is None:
                child.kill()
                child.wait()


@pytest.mark.parametrize("content", ["nan\n", "inf\n", "-inf\n"])
def test_record_from_non_finite_node_exits_data(capsys, tmp_path, content):
    profile = file_node_profile(tmp_path, content)
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.05,
                       "--out", tmp_path / "rec.csv")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sampler aborted: 20/20 node reads failed")


def test_record_for_a_huge_duration_runs_until_it_aborts(capsys, tmp_path):
    # A deadline of 1e300 s is past any clock; the failing reads end the run.
    profile = file_node_profile(tmp_path, "abc\n")
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 1e300,
                       "--out", tmp_path / "rec.csv")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sampler aborted: 20/20 node reads failed")


def test_record_from_undecodable_node_exits_data(capsys, tmp_path):
    profile = file_node_profile(tmp_path, "")
    (tmp_path / "node").write_bytes(b"\xff\xfe12")
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.05,
                       "--out", tmp_path / "rec.csv")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sampler aborted: 20/20 node reads failed")


def test_record_tolerates_node_non_finite_on_one_read_in_ten(capsys, monkeypatch,
                                                            tmp_path):
    class OneInTenNan(sensor.FileNodes):
        reads = 0

        def read(self, i):
            self.reads += 1
            return float("nan") if self.reads % 10 == 0 else super().read(i)

    monkeypatch.setattr(sensor, "FileNodes", OneInTenNan)
    out_csv = tmp_path / "rec.csv"
    rc, out = run_json(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--duration", 0.05, "--out", out_csv)
    assert rc == cli.EXIT_OK
    attempts = out["samples_taken"] + out["read_errors"]
    assert out["read_errors"] == attempts // 10 > 0
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == out["samples_taken"]
    assert np.all(recorded.values == 4321.0)


# ── what the parser and each command load ───────────────────────────────

@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_parser_defaults_are_the_library_defaults(command):
    args = cli.build_parser().parse_args([command, "in.csv", "ext.csv", "--device", "nano"])
    got = (args.window_us, args.max_gap_us, args.floor_mw, args.coil_turns)
    want = (sig.DEFAULT_WINDOW_US, sig.DEFAULT_MAX_GAP_US,
            regression.DEFAULT_LOW_POWER_FLOOR_MW, ingest.DEFAULT_COIL_TURNS)
    assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]


def test_record_help_names_the_profile_search_variable(capsys):
    with pytest.raises(SystemExit):
        cli.main(["record", "--help"])
    assert f"${sensor.PROFILE_PATH_ENV})" in capsys.readouterr().out


def loaded_modules(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.splitlines()[-1].split())


def test_building_the_parser_loads_no_numpy_and_no_pipeline_module():
    loaded = loaded_modules("import jetcal.cli; jetcal.cli.build_parser()")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("jetcal.")} == {"jetcal.cli", "jetcal.errors"}


def test_energy_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("timestamp_us,power_mw\n0,1000.0\n1000,2000.0\n")
    loaded = loaded_modules(
        f"import jetcal.cli; assert jetcal.cli.main(['energy', {str(path)!r}]) == 0")
    assert "jetcal.ingest" in loaded
    assert not {"jetcal.regression", "jetcal.signal", "jetcal.sensor",
                "subprocess"} & loaded


def test_peak_loads_only_what_it_runs(files):
    loaded = loaded_modules(
        f"import jetcal.cli; assert jetcal.cli.main(['peak', {str(files / 'boot.csv')!r}, "
        f"'--threshold', '800']) == 0")
    assert {"jetcal.ingest", "jetcal.signal"} <= loaded
    assert not {"numpy.ma", "jetcal.regression", "jetcal.models", "jetcal.sensor",
                "subprocess"} & loaded


def test_record_loads_only_what_it_runs(tmp_path):
    profile, out_csv = file_node_profile(tmp_path, "4321\n"), tmp_path / "rec.csv"
    loaded = loaded_modules(
        f"import jetcal.cli; assert jetcal.cli.main(['record', '--profile', "
        f"{str(profile)!r}, '--duration', '0.05', '--out', {str(out_csv)!r}]) == 0")
    assert "jetcal.sensor" in loaded
    assert not {"numpy", "jetcal.ingest", "jetcal.models", "jetcal.regression",
                "jetcal.signal", "subprocess"} & loaded
    assert len(ingest.parse_trace(out_csv, "internal_csv")) > 0
