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
import threading
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jetcal import cli, ingest, regression, sensor, synth, traces
from jetcal import signal as sig
from jetcal.models import (BOOT_PEAK_CURRENT_MA, get_model, integrate_energy,
                           save_models)
from jetcal.traces import PowerTrace

from conftest import make_trace, oracle_trace_csv

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
# The order of the `key = value` lines: a report's fields in field order,
# a FitReport's model fields first, then the keys the command adds.
PRINTED_ORDER = {
    "calibrate": ["device", "slope", "intercept_mw", "stated_error_pct", "provenance",
                  "mae_pct", "max_abs_err_pct", "r_squared", "n_samples",
                  "excluded_low_power", "model_file"],
    "validate": ["device", "slope", "intercept_mw", "stated_error_pct", "provenance",
                 "mae_pct", "max_abs_err_pct", "r_squared", "n_samples",
                 "excluded_low_power", "gate_threshold_pct", "gate"],
    "energy": ["energy_mj", "duration_us", "mean_power_mw", "calibrated_with"],
    "peak": ["peak_value", "peak_timestamp_us", "baseline", "duration_above_threshold_us",
             "threshold", "unit"],
}


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


def strict_json(line):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} in {line!r}")
    return json.loads(line, parse_constant=refuse)


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert len(out.splitlines()) == 1, out
    return rc, strict_json(out)


def assert_one_error_line(err, prefix):
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {prefix}"), err
    assert "Traceback" not in err


# SMALL_INPUT_BYTES that send every input to one path of apply, energy and
# peak.
PATHS = {"numpy": 0, "stdlib": 2**62}


def run_on_both_paths(capsys, *argv):
    """run() on the numpy path, then on the stdlib path; the second's result.

    Both runs must print the same and leave the same file, or none, at
    argv's --out path, if it has one; the stdlib run's file stays.
    """
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    runs = []
    for limit in PATHS.values():
        if out is not None:
            out.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "SMALL_INPUT_BYTES", limit)
            printed = run(capsys, *argv)
        runs.append((printed, out is not None and out.exists() and out.read_bytes()))
    assert runs[0] == runs[1], argv
    return runs[1][0]


def run_json_on_both_paths(capsys, *argv):
    rc, out, err = run_on_both_paths(capsys, *argv, "--json")
    assert len(out.splitlines()) == 1, out
    return rc, strict_json(out)


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


def test_calibrate_on_swapped_files_warns_and_still_reports(capsys, tmp_path):
    internal, external, _ = synth.synthetic_pair(NANO, 30_000_000, seed=3)
    ingest.write_trace(external, tmp_path / "internal.csv")
    ingest.write_trace(internal, tmp_path / "external.csv")
    rc, out, err = run(capsys, "calibrate", tmp_path / "internal.csv",
                       tmp_path / "external.csv", "--device", "nano", "--json")
    assert rc == cli.EXIT_OK
    assert strict_json(out)["slope"] < 1.0
    assert len(err.splitlines()) == 1, err
    assert err.startswith("warning: fitted slope 0.") and err.endswith("files swapped?\n")


def two_model_file(tmp_path):
    path = tmp_path / "two.model"
    save_models([get_model("nano"), get_model("tx2")], path)
    return path


def test_device_picks_its_model_from_a_model_file(capsys, files, tmp_path):
    trace = files / "internal.csv"
    rc, out = run_json(capsys, "energy", trace, "--model", two_model_file(tmp_path),
                       "--device", "TX2")
    assert (rc, out["calibrated_with"]) == (cli.EXIT_OK, "tx2")
    assert out == run_json(capsys, "energy", trace, "--device", "tx2")[1]


def test_apply_then_energy(capsys, files, tmp_path):
    calibrated = tmp_path / "cal.csv"
    rc, out = run_json_on_both_paths(capsys, "apply", files / "internal.csv", "--device",
                                     "nano", "--out", calibrated)
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
    ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(10, 41, 3 * traces.CHUNK_ROWS))
    updates = ts[0] + np.cumsum(rng.integers(1_000, 10_001, len(ts)))
    levels = np.round(rng.uniform(2_000.0, 15_000.0, len(ts) + 1))
    raw = PowerTrace("nano", "internal", "mW", ts, levels[np.searchsorted(updates, ts)])
    assert len(np.unique(raw.values)) < len(raw) / 100
    ingest.write_trace(raw, tmp_path / "rec.csv")
    rc, out = run_json_on_both_paths(capsys, "apply", tmp_path / "rec.csv", "--device", "nano",
                                     "--out", tmp_path / "cal.csv")
    assert (rc, out["n_samples"]) == (cli.EXIT_OK, len(raw))
    expected = PowerTrace("nano", "calibrated", "mW", ts,
                          NANO.slope * raw.values + NANO.intercept_mw)
    assert (tmp_path / "cal.csv").read_bytes() == oracle_trace_csv(expected)


@pytest.mark.parametrize("command", PRINTED_ORDER)
def test_each_command_prints_its_keys_in_a_fixed_order(capsys, files, tmp_path, command):
    pair = [files / "internal.csv", files / "external.csv", "--device", "nano",
            "--coil-turns", COIL_TURNS]
    argv = {"calibrate": ["calibrate", *pair, "--out-model", tmp_path / "fit.model"],
            "validate": ["validate", *pair],
            "energy": ["energy", files / "internal.csv"],
            "peak": ["peak", files / "boot.csv", "--threshold", 800]}[command]
    rc, text, _ = run_on_both_paths(capsys, *argv)
    assert rc == cli.EXIT_OK
    assert [line.split(" = ")[0] for line in text.splitlines()] == PRINTED_ORDER[command]
    # --json sorts its keys.
    rc, out, _ = run_on_both_paths(capsys, *argv, "--json")
    assert list(strict_json(out)) == sorted(PRINTED_ORDER[command])


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


@pytest.mark.parametrize("command", ["energy", "apply"])
def test_the_model_is_resolved_before_the_input_is_parsed(capsys, tmp_path, command):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_us,power_mw\n0,abc\n")
    out = ("--out", tmp_path / "x.csv") if command == "apply" else ()
    rc, printed, err = run_on_both_paths(capsys, command, bad, "--device", "bogus", *out)
    assert (rc, printed) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, "unknown device 'bogus'")


@pytest.mark.parametrize("flags, message", [
    (("--model", "{model}", "--device", "pluto"),
     "device 'pluto' not in {model} (has: nano, tx2)"),
    (("--model", "{model}"), "{model} holds 2 models; pick one with --device"),
    ((), "need --device (registry) or --model <file>"),
], ids=["unknown-device", "no-device", "neither"])
def test_unresolved_model_exits_config(capsys, files, tmp_path, flags, message):
    model = two_model_file(tmp_path)
    rc, out, err = run(capsys, "apply", files / "internal.csv",
                       *(f.format(model=model) for f in flags), "--out", tmp_path / "x.csv")
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, message.format(model=model))
    assert not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("lines, message", [
    (("mode = both", "node_paths = a"),
     "mode must be one of ('whole_board', 'sum_rails'), got 'both'"),
    (("mode = whole_board", "node_paths = a", "unit = kw"), "unit must be one of ('mw', 'uw')"),
    (("mode = whole_board", "node_paths = ,"), "profile needs at least one node path"),
], ids=["mode", "unit", "no-node-path"])
def test_invalid_profile_exits_config(capsys, tmp_path, lines, message):
    profile = tmp_path / "bad.profile"
    profile.write_text("".join(f"{line}\n" for line in ("device = nano", *lines)))
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                       "--out", tmp_path / "r.csv")
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, message)
    assert not (tmp_path / "r.csv").exists()


def test_profile_without_a_device_exits_config(capsys, tmp_path):
    profile = tmp_path / "nameless.profile"
    profile.write_text("mode = whole_board\nnode_paths = a\n")
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                       "--out", tmp_path / "r.csv")
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, f"{profile}: profile missing 'device'")


def test_output_in_a_missing_directory_exits_config(capsys, files, tmp_path):
    out_csv = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, "apply", files / "internal.csv", "--device", "nano",
                       "--out", out_csv)
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, f"output directory does not exist for: {out_csv}")


def test_unspawnable_workload_exits_config(capsys, tmp_path):
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--exec", tmp_path / "no-such-command", "--out", out_csv)
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, "cannot spawn workload: ")
    assert not out_csv.exists()


def test_a_directory_is_not_an_input_file(capsys, tmp_path):
    rc, out, err = run(capsys, "energy", tmp_path)
    assert (rc, out) == (cli.EXIT_CONFIG, "")
    assert_one_error_line(err, f"input file not found: {tmp_path}")


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
    ingest.write_trace(make_trace(1000 * np.arange(len(values)), values), path)
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
    report = strict_json(out)
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
    rc, out = run_json_on_both_paths(capsys, "apply", path, "--model", model,
                                     "--out", tmp_path / "cal.csv")
    assert rc == cli.EXIT_OK
    assert out == {"device": "nano", "n_samples": 5, "n_skipped": 0,
                   "output": str(tmp_path / "cal.csv"),
                   "mean_raw_mw": 0.0, "mean_calibrated_mw": 0.0}
    assert (tmp_path / "cal.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()


def test_apply_skip_counts_the_skipped_rows_and_means_the_kept_ones(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [5.0, -3.0, 7.0])
    rc, out = run_json_on_both_paths(capsys, "apply", path, "--device", "nano",
                                     "--on-invalid", "skip", "--out", tmp_path / "cal.csv")
    calibrated = [NANO.slope * v + NANO.intercept_mw for v in (5.0, 7.0)]
    mean_cal = (calibrated[0] + calibrated[1]) / 2
    assert (rc, out["n_samples"], out["n_skipped"]) == (cli.EXIT_OK, 2, 1)
    assert out["mean_raw_mw"] == 6.0
    assert out["mean_calibrated_mw"] == pytest.approx(mean_cal, rel=1e-15)
    assert out["implied_gap_pct"] == pytest.approx((mean_cal - 6.0) / mean_cal * 100.0)
    cal = ingest.parse_trace(tmp_path / "cal.csv", "internal_csv")
    assert cal.timestamps_us.tolist() == [0, 2000]


def test_apply_flags_negative_calibrated_values_last(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [10.0, 10000.0])
    model = tmp_path / "neg.model"
    model.write_text("device=nano slope=1.5 intercept_mw=-500.0 error_pct=1.0 "
                     "provenance=fitted\n")
    argv = ("apply", path, "--model", model, "--out", tmp_path / "cal.csv")
    rc, report = run_json_on_both_paths(capsys, *argv)
    assert rc == cli.EXIT_OK
    assert report["warnings"] == "negative_calibrated_values"
    rc, out, err = run_on_both_paths(capsys, *argv)
    assert (rc, err) == (cli.EXIT_OK, "")
    assert out.splitlines()[-1] == "warnings = negative_calibrated_values"
    cal = ingest.parse_trace(tmp_path / "cal.csv", "internal_csv")
    assert cal.values.tolist() == [1.5 * 10.0 - 500.0, 1.5 * 10000.0 - 500.0]


def test_apply_skip_of_every_row_writes_only_the_header(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [-1.0, -2.0, -3.0])
    rc, out = run_json_on_both_paths(capsys, "apply", path, "--device", "nano",
                                     "--on-invalid", "skip", "--out", tmp_path / "cal.csv")
    assert rc == cli.EXIT_OK
    assert out == {"device": "nano", "n_samples": 0, "n_skipped": 3,
                   "output": str(tmp_path / "cal.csv")}
    assert (tmp_path / "cal.csv").read_text() == "timestamp_us,power_mw\n"


def test_apply_skip_of_no_row_is_apply(capsys, tmp_path):
    path = power_csv(tmp_path / "raw.csv", [5.0, 0.0, 7.0])
    results = []
    for policy in ("abort", "skip"):
        out_csv = tmp_path / f"{policy}.csv"
        rc, out = run_json_on_both_paths(capsys, "apply", path, "--device", "nano",
                                         "--on-invalid", policy, "--out", out_csv)
        assert (rc, out.pop("output")) == (cli.EXIT_OK, str(out_csv))
        results.append((out, out_csv.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0]["n_skipped"] == 0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(-1e300, 1e300) | st.floats(0.0, 1e-300), min_size=1,
                       max_size=30))
# Each 1.0 is lost to a running sum from 1e16 on, but not to the exact one.
@example(values=[1e16, 1.0, 1.0, 1.0])
def test_apply_means_are_the_exact_sums_rounded_over_n(capsys, tmp_path, values):
    path = rows_csv(tmp_path / "raw.csv", [(1000 * i, v) for i, v in enumerate(values)])
    rc, out = run_json_on_both_paths(capsys, "apply", path, "--device", "nano",
                                     "--on-invalid", "skip", "--out", tmp_path / "cal.csv")
    kept = [v for v in values if v >= 0]
    calibrated = [NANO.slope * v + NANO.intercept_mw for v in kept]
    assert (rc, out["n_samples"], out["n_skipped"]) == (cli.EXIT_OK, len(kept),
                                                          len(values) - len(kept))
    if kept:
        assert out["mean_raw_mw"] == float(sum(map(Fraction, kept))) / len(kept)
        assert out["mean_calibrated_mw"] == float(sum(map(Fraction, calibrated))) / len(kept)
    else:
        assert "mean_raw_mw" not in out


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


# ── numbers past the float range ────────────────────────────────────────

def rows_csv(path, rows, column="power_mw"):
    path.write_text(f"timestamp_us,{column}\n" + "".join(f"{t},{v!r}\n" for t, v in rows))
    return path


@pytest.mark.parametrize("argv, rows, message", [
    (("energy",), [(0, 1e308), (1_000_000, 1e308)], "energy_mj is not finite: inf"),
    (("apply", "--device", "nano"), [(0, 1.0e308), (1, 1.5e308)],
     "mean_raw_mw is not finite: inf"),
    (("apply", "--device", "nano"), [(0, 1.7e308), (1, 1.6e308)],
     "calibrated reading is not finite: 1.7e+308 mW at t=0 us maps to inf"),
    (("energy", "--device", "nano"), [(0, 5.0), (1, 1.7e308)],
     "calibrated reading is not finite: 1.7e+308 mW at t=1 us maps to inf"),
], ids=["energy", "apply-mean", "apply-calibrated", "energy-calibrated"])
def test_a_number_past_the_float_range_exits_data(capsys, tmp_path, argv, rows, message):
    command, *flags = argv
    out_csv = ("--out", tmp_path / "cal.csv") if command == "apply" else ()
    rc, out, err = run_on_both_paths(capsys, command, rows_csv(tmp_path / "big.csv", rows),
                                     *flags, *out_csv, "--json")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, message)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("gap_us, values, message", [
    # 1000 * (1e305 + 1e305) passes the float range, so each area is inf.
    (1000, [1e305] * 3, "energy_mj is not finite: inf"),
    (1000, [-1e305] * 3, "energy over the trace is negative: -inf mJ"),
    # Each area is a finite 6e307, and their sum passes the float range.
    (1, [6e307] * 5, "energy_mj is not finite: inf"),
    (1, [-6e307] * 5, "energy over the trace is negative: -inf mJ"),
    (1000, [1.7e308, 1.7e308, -1.7e308, -1.7e308], "energy_mj is not finite: nan"),
    # Finite areas of 8.5e307 whose sum passes the float range, then an inf.
    (1, [1.7e308, 0.0, 1.7e308, 0.0, 1.7e308, 1.7e308], "energy_mj is not finite: inf"),
], ids=["inf-areas", "minus-inf-areas", "finite-areas-past-the-range", "negated",
        "inf-and-minus-inf-areas", "inf-area-after-finite-areas-past-the-range"])
def test_energy_past_the_float_range_exits_data_on_both_paths(capsys, monkeypatch, tmp_path,
                                                              path, gap_us, values, message):
    monkeypatch.setattr(cli, "SMALL_INPUT_BYTES", PATHS[path])
    csv = rows_csv(tmp_path / "big.csv", [(gap_us * i, v) for i, v in enumerate(values)])
    rc, out, err = run(capsys, "energy", csv, "--json")
    assert (rc, out, err) == (cli.EXIT_DATA, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_a_volts_times_amps_past_the_float_range_exits_data(capsys, tmp_path, command):
    internal = power_csv(tmp_path / "internal.csv", 1000.0 + np.arange(4.0))
    external = tmp_path / "external.csv"
    external.write_text("timestamp_us,voltage_v,current_a\n0,1e200,1e200\n"
                        "1000,5.0,2.0\n2000,5.0,3.0\n3000,5.0,4.0\n")
    rc, out, err = run(capsys, command, internal, external, "--device", "nano",
                       "--window-us", 1)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "external power is not finite: 1e+200 V and 1e+200 A "
                               "at t=0 us give inf mW")


@pytest.mark.parametrize("command, message", [
    ("calibrate", "internal readings are all identical"),
    ("validate", "percentage error is not finite: the model predicts "),
], ids=["calibrate", "validate"])
def test_window_sums_past_the_float_range_exit_data(capsys, tmp_path, command, message):
    # Every window mean is 1.25e308, finite though the window sums are not.
    internal = power_csv(tmp_path / "internal.csv", np.where(np.arange(400) % 2, 1.5e308, 1e308))
    external = power_csv(tmp_path / "external.csv", 1000.0 + np.arange(400.0))
    rc, out, err = run(capsys, command, internal, external, "--device", "nano")
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, message)


def test_window_sums_past_the_float_range_fit(capsys, tmp_path):
    internal = 1e306 * (1.0 + np.arange(400.0) / 1000.0)
    files = [power_csv(tmp_path / "internal.csv", internal),
             power_csv(tmp_path / "external.csv", 1.1 * internal)]
    rc, report = run_json(capsys, "calibrate", *files, "--device", "nano",
                          "--window-us", 1000)
    assert rc == cli.EXIT_OK
    assert report["slope"] == pytest.approx(1.1)


@pytest.mark.parametrize("knots, message", [
    ((-1.7e308, 1.7e308), "aligned external power inf mW at t=5500 us is not finite"),
    ((1.7e308, -1.7e308), "aligned external power -inf mW at t=5500 us is negative"),
], ids=["rising", "falling"])
@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_interpolation_past_the_float_range_exits_data(capsys, tmp_path, command, knots,
                                                        message):
    # Between two huge knots of opposite sign the interpolant overflows.
    internal = tmp_path / "internal.csv"
    ingest.write_trace(PowerTrace("nano", "internal", "mW", 1000 * np.arange(400) + 500,
                                  5000.0 + np.arange(400.0)), internal)
    external = rows_csv(tmp_path / "external.csv", [(0, 1.0), (5000, knots[0]),
                                                    (10000, knots[1])])
    rc, out, err = run(capsys, command, internal, external, "--device", "nano",
                       "--window-us", 1)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, message)


def test_peak_baseline_of_two_huge_values_is_their_mean(capsys, tmp_path):
    path = rows_csv(tmp_path / "boot.csv", [(0, 1e308), (1, 1.5e308), (2, 1.79e308)],
                    "current_ma")
    rc, out = run_json(capsys, "peak", path, "--threshold", 1.7e308)
    assert (rc, out["baseline"]) == (cli.EXIT_OK, 1.25e308)


# ± subnormals, normal values, and values near ±1e308.
EDGE_VALUES = (st.floats(-sys.float_info.min, sys.float_info.min, exclude_min=True,
                         exclude_max=True)
               | st.floats(-1e6, 1e6)
               | st.floats(1e307, sys.float_info.max)
               | st.floats(-sys.float_info.max, -1e307))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(EDGE_VALUES, min_size=2, max_size=6), threshold=EDGE_VALUES)
def test_every_run_prints_strict_json_or_one_error_line(capsys, tmp_path, values, threshold):
    path = rows_csv(tmp_path / "edge.csv", [(1000 * i, v) for i, v in enumerate(values)])
    for argv in [("apply", path, "--device", "nano", "--out", tmp_path / "cal.csv"),
                 ("energy", path), ("energy", path, "--device", "nano"),
                 ("peak", path, f"--threshold={threshold!r}")]:
        rc, out, err = run(capsys, *argv, "--json")
        if rc == cli.EXIT_OK:
            assert err == ""
            strict_json(out.splitlines()[-1])
        else:
            assert (rc, out) == (cli.EXIT_DATA, ""), argv
            assert_one_error_line(err, "")


# Signed zeros, the least subnormals and readings at the edge of the float
# range, as well as EDGE_VALUES.
PATH_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308,
                                -1.7e308, sys.float_info.max])
               | EDGE_VALUES)


@st.composite
def held_traces(draw):
    """Timestamps, values in held runs, and a threshold that is often one of them."""
    runs = draw(st.lists(st.tuples(PATH_VALUES, st.integers(1, 4)), min_size=1, max_size=6))
    values = [v for v, n in runs for _ in range(n)]
    t0 = draw(st.sampled_from([0, 1_700_000_000_000_000]) | st.integers(0, 2**62))
    gaps = draw(st.lists(st.integers(1, 10**9), min_size=len(values), max_size=len(values)))
    ts = [t0 + sum(gaps[:i]) for i in range(len(values))]
    threshold = draw(st.sampled_from(values) | PATH_VALUES)
    return ts, values, threshold


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=held_traces(), column=st.sampled_from(["power_mw", "current_ma"]),
       as_json=st.booleans())
@example(trace=([0, 1, 2, 3], [-0.0, 0.0, 5.0, -0.0], 5.0), column="current_ma", as_json=True)
@example(trace=([0, 1, 2, 3], [0.0, -0.0, 5.0, 5.0], 5.0), column="current_ma", as_json=False)
@example(trace=([10**15, 10**15 + 7], [1.7e308, 1.7e308], 1.7e308), column="power_mw",
         as_json=True)
def test_energy_and_peak_print_alike_on_both_paths(capsys, tmp_path, trace, column, as_json):
    ts, values, threshold = trace
    power = rows_csv(tmp_path / "power.csv", zip(ts, values))
    boot = rows_csv(tmp_path / "boot.csv", zip(ts, values), column)
    model = tmp_path / "neg.model"
    model.write_text("device=nano slope=1.5 intercept_mw=-500.0 error_pct=1.0 "
                     "provenance=fitted\n")
    as_json = ["--json"] if as_json else []
    out_csv = ("--out", tmp_path / "cal.csv")
    for argv in [("energy", power), ("energy", power, "--device", "nano"),
                 ("energy", power, "--model", model),
                 ("apply", power, "--device", "nano", *out_csv),
                 ("apply", power, "--model", model, *out_csv),
                 ("apply", power, "--model", model, "--on-invalid", "skip", *out_csv),
                 ("peak", boot, f"--threshold={threshold!r}")]:
        run_on_both_paths(capsys, *argv, *as_json)
    rc, out, _ = run(capsys, "energy", power, "--json")
    if rc == cli.EXIT_OK:
        expected = integrate_energy(ingest.parse_trace(power, "internal_csv")).energy_mj
        assert repr(json.loads(out)["energy_mj"]) == repr(expected)


def test_human_output_keeps_the_key_order(capsys, files, tmp_path):
    pair = (files / "internal.csv", files / "external.csv", "--device", "nano")
    fit = ["device", "slope", "intercept_mw", "stated_error_pct", "provenance", "mae_pct",
           "max_abs_err_pct", "r_squared", "n_samples", "excluded_low_power"]
    for argv, keys in [
        (("calibrate", *pair, "--out-model", tmp_path / "fit.model"), fit + ["model_file"]),
        (("validate", *pair), fit + ["gate_threshold_pct", "gate"]),
        (("energy", files / "internal.csv"),
         ["energy_mj", "duration_us", "mean_power_mw", "calibrated_with"]),
        (("peak", files / "boot.csv", "--threshold", 800),
         ["peak_value", "peak_timestamp_us", "baseline", "duration_above_threshold_us",
          "threshold", "unit"]),
    ]:
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (cli.EXIT_OK, "")
        assert [line.split(" = ")[0] for line in out.splitlines()] == keys


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


def test_undecodable_byte_past_the_first_block_exits_data_without_a_line(capsys, tmp_path):
    path = tmp_path / "late.csv"
    body = "".join(f"{1000 * i},1000.0\n" for i in range(1000))
    assert len(body) > 8192
    path.write_bytes(f"timestamp_us,power_mw\n{body}".encode() + b"1000000,1\xff\n")
    rc, out, err = run(capsys, "energy", path)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, f"{path}: not UTF-8 text: cannot decode byte 0xff")


def test_oversized_header_field_exits_data(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("timestamp_us," + "p" * 131_073 + "\n0,1.0\n")
    rc, out, err = run(capsys, "energy", path)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, f"{path}:1: malformed CSV: field larger than field limit")


def test_model_of_unknown_provenance_exits_data(capsys, files, tmp_path):
    model = tmp_path / "vendor.model"
    model.write_text("device=nano slope=1.1 intercept_mw=0.0 error_pct=1.0 provenance=vendor\n")
    rc, out, err = run(capsys, "energy", files / "internal.csv", "--model", model)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, f"{model}:1: bad model record: provenance must be one of")


def test_streams_with_no_common_timestamp_and_no_gap_exit_data(capsys, tmp_path):
    # Internal samples sit 500 us off the external 1 ms grid, and a
    # max gap of 0 pairs only samples that share a timestamp.
    internal = rows_csv(tmp_path / "int.csv", [(1000 * i + 500, 5000.0) for i in range(200)])
    external = rows_csv(tmp_path / "ext.csv", [(1000 * i, 5500.0) for i in range(200)])
    rc, out, err = run(capsys, "validate", internal, external,
                       "--device", "nano", "--window-us", 5000, "--max-gap-us", 0)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "dataset is empty")


def test_undecodable_model_file_exits_data(capsys, files, tmp_path):
    model = tmp_path / "bad.model"
    model.write_bytes(b"device=nano slope=1.1 intercept_mw=232.6 error_pct=0.8 "
                      b"provenance=fitted\xb0\n")
    rc, _, err = run(capsys, "apply", files / "internal.csv", "--model", model,
                     "--out", tmp_path / "x.csv")
    assert rc == cli.EXIT_DATA
    assert_one_error_line(err, f"{model}:1: not UTF-8")


def test_a_second_model_for_one_device_exits_data(capsys, files, tmp_path):
    model = tmp_path / "dup.model"
    model.write_text("device=nano slope=1.1 intercept_mw=0.0 error_pct=1.0 provenance=fitted\n"
                     "device=NANO slope=1.3 intercept_mw=0.0 error_pct=1.0 provenance=fitted\n")
    rc, out, err = run(capsys, "energy", files / "internal.csv", "--model", model)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, f"{model}:2: a second model for device 'nano'")


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
    assert_one_error_line(err, f"sample buffer overflowed: {out_csv} holds the first 10 "
                               f"samples; dropped the last ")
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


def test_record_shorter_than_one_read_exits_data(capsys, tmp_path):
    # The 1 ns deadline passes before the first read.
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile", file_node_profile(tmp_path, "4321\n"),
                       "--duration", 1e-9, "--out", out_csv)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sampler produced no samples")
    assert not out_csv.exists()


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


# ── pipes ───────────────────────────────────────────────────────────────

@contextmanager
def fed_fifo(path, data: bytes):
    """A FIFO at path that a daemon thread writes data into once.

    The writer blocks in open() until a reader comes. If the command under
    test never opened the FIFO, the test reads it once itself, so that no
    writer is left blocked.
    """
    os.mkfifo(path)
    opened = threading.Event()

    def feed():
        with open(path, "wb") as fh:
            opened.set()
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if not opened.wait(timeout=0.5):
            path.read_bytes()
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("argv", [
    ("energy", "internal.csv"),
    ("energy", "internal.csv", "--device", "nano"),
    ("peak", "boot.csv", "--threshold", 800),
    ("apply", "internal.csv", "--device", "nano"),
    ("calibrate", "internal.csv", "external.csv", "--device", "nano"),
], ids=["energy", "energy-device", "peak", "apply", "calibrate"])
def test_a_pipe_reads_like_its_file(capsys, monkeypatch, files, tmp_path, argv):
    def argv_for(inputs, out):
        args = [inputs[a] if a in inputs else a for a in argv]
        return args + ["--out", out] if argv[0] == "apply" else args

    csvs = [a for a in argv if str(a).endswith(".csv")]
    rc, out = run_json(capsys, *argv_for({a: files / a for a in csvs}, tmp_path / "file.csv"))
    with ExitStack() as stack:
        pipes = {a: stack.enter_context(fed_fifo(tmp_path / f"pipe-{a}",
                                                 (files / a).read_bytes()))
                 for a in csvs}
        # A pipe is no regular file, so energy and peak take the numpy path.
        monkeypatch.setattr(ingest, "parse_columns", None)
        pipe_rc, pipe_out = run_json(capsys, *argv_for(pipes, tmp_path / "pipe.csv"))
    assert rc == cli.EXIT_OK
    if argv[0] == "apply":
        assert (out.pop("output"), pipe_out.pop("output")) == (str(tmp_path / "file.csv"),
                                                               str(tmp_path / "pipe.csv"))
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
    assert (pipe_rc, pipe_out) == (rc, out)


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


def run_fresh(code):
    """What a fresh interpreter prints when it runs code, and the names in
    its sys.modules afterwards."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    *printed, modules = done.stdout.splitlines()
    return printed, set(modules.split())


def loaded_modules(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    return run_fresh(code)[1]


def test_a_trace_of_stdlib_columns_loads_no_numpy():
    printed, loaded = run_fresh(
        "from array import array\nfrom jetcal.traces import PowerTrace\n"
        "trace = PowerTrace('nano', 'internal', 'mW', array('q', [0, 5]), array('d', [1.0, 2.0]))\n"
        "print(len(trace), trace.span_us)")
    assert printed == ["2 5"]
    assert "numpy" not in loaded


def test_building_the_parser_loads_no_numpy_and_no_pipeline_module():
    loaded = loaded_modules("import jetcal.cli; jetcal.cli.build_parser()")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("jetcal.")} == {"jetcal.cli", "jetcal.errors"}


def run_fresh_cli(argv, limit=None):
    """run_fresh of cli.main(argv), with SMALL_INPUT_BYTES set to limit if given."""
    patch = "" if limit is None else f"jetcal.cli.SMALL_INPUT_BYTES = {limit}; "
    return run_fresh(f"import jetcal.cli; {patch}assert jetcal.cli.main({argv!r}) == 0")


def test_energy_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("timestamp_us,power_mw\n0,1000.0\n1000,2000.0\n")
    for argv in (["energy", str(path), "--json"], ["energy", str(path), "--device", "nano"]):
        printed, loaded = run_fresh_cli(argv)
        assert "jetcal.ingest" in loaded
        assert not {"numpy", "dataclasses", "inspect", "jetcal.regression", "jetcal.signal",
                    "jetcal.sensor", "subprocess"} & loaded
        # Past the size limit, energy loads numpy and prints the same lines.
        numpy_printed, numpy_loaded = run_fresh_cli(argv, limit=0)
        assert "numpy" in numpy_loaded
        assert numpy_printed == printed


def test_apply_loads_only_what_it_runs(tmp_path):
    path, out_csv = tmp_path / "p.csv", tmp_path / "cal.csv"
    path.write_text("timestamp_us,power_mw\n0,1000.0\n1000,2000.0\n")
    for policy in ("abort", "skip"):
        argv = ["apply", str(path), "--device", "nano", "--on-invalid", policy,
                "--out", str(out_csv), "--json"]
        printed, loaded = run_fresh_cli(argv)
        written = out_csv.read_bytes()
        assert {"jetcal.ingest", "jetcal.models"} <= loaded
        assert not {"numpy", "dataclasses", "inspect", "jetcal.regression", "jetcal.signal",
                    "jetcal.sensor", "subprocess"} & loaded
        # Past the size limit, apply loads numpy and prints and writes the same.
        numpy_printed, numpy_loaded = run_fresh_cli(argv, limit=0)
        assert "numpy" in numpy_loaded
        assert (numpy_printed, out_csv.read_bytes()) == (printed, written)


def test_peak_loads_only_what_it_runs(files):
    argv = ["peak", str(files / "boot.csv"), "--threshold", "800", "--json"]
    printed, loaded = run_fresh_cli(argv)
    assert {"jetcal.ingest", "jetcal.signal"} <= loaded
    assert not {"numpy", "dataclasses", "inspect", "jetcal.regression", "jetcal.models",
                "jetcal.sensor", "subprocess"} & loaded
    numpy_printed, numpy_loaded = run_fresh_cli(argv, limit=0)
    assert "numpy" in numpy_loaded and "numpy.ma" not in numpy_loaded
    assert numpy_printed == printed


@pytest.mark.parametrize("command", ["calibrate", "validate"])
def test_calibrate_and_validate_load_only_what_they_run(files, command):
    argv = [command, str(files / "internal.csv"), str(files / "external.csv"),
            "--device", "nano", "--coil-turns", str(COIL_TURNS)]
    loaded = run_fresh_cli(argv)[1]
    assert {"numpy", "jetcal.ingest", "jetcal.models", "jetcal.signal",
            "jetcal.regression"} <= loaded
    assert not {"dataclasses", "jetcal.sensor", "subprocess"} & loaded


def test_record_loads_only_what_it_runs(tmp_path):
    profile, out_csv = file_node_profile(tmp_path, "4321\n"), tmp_path / "rec.csv"
    loaded = loaded_modules(
        f"import jetcal.cli; assert jetcal.cli.main(['record', '--profile', "
        f"{str(profile)!r}, '--duration', '0.05', '--out', {str(out_csv)!r}]) == 0")
    # sensor.DeviceProfile is the one dataclass left: the benchmark rebuilds
    # a profile with dataclasses.replace.
    assert {"jetcal.sensor", "dataclasses"} <= loaded
    assert not {"numpy", "jetcal.ingest", "jetcal.models", "jetcal.regression",
                "jetcal.signal", "subprocess"} & loaded
    assert len(ingest.parse_trace(out_csv, "internal_csv")) > 0
