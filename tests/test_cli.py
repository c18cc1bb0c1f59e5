"""The command line end to end on synthetic captures.

Every test calls `cli.main` in-process on files written from
`synth.synthetic_pair`, and checks the exit code, the one-line `--json`
output and, for failures, the single `error: ...` line on stderr.
"""

import functools
import json

import numpy as np
import pytest

from jetcal import cli, ingest, sensor, synth
from jetcal.models import BOOT_PEAK_CURRENT_MA, get_model

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
    assert set(out) == APPLY_KEYS
    raw = ingest.parse_trace(files / "internal.csv", "internal_csv")
    assert out["n_samples"] == len(raw)
    cal = ingest.parse_trace(calibrated, "internal_csv")
    np.testing.assert_array_equal(cal.values, NANO.slope * raw.values + NANO.intercept_mw)

    rc, out = run_json(capsys, "energy", calibrated)
    assert rc == cli.EXIT_OK
    assert set(out) == ENERGY_KEYS
    assert out["calibrated_with"] == "none"
    assert out["duration_us"] == int(raw.timestamps_us[-1] - raw.timestamps_us[0])


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
    ("validate", "--floor-mw", "inf"),
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
                       "coil_turns = ten\n")
    rc, _, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                     "--out", tmp_path / "r.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, f"{profile}:4: coil_turns 'ten'")


def test_undecodable_profile_exits_config(capsys, tmp_path):
    profile = tmp_path / "bad.profile"
    profile.write_bytes(b"device = nano\nmode = whole_board\xb0\n")
    rc, _, err = run(capsys, "record", "--profile", profile, "--duration", 0.01,
                     "--out", tmp_path / "r.csv")
    assert rc == cli.EXIT_CONFIG
    assert_one_error_line(err, f"{profile}:2: not UTF-8")


# ── exit 3: bad data ────────────────────────────────────────────────────

def test_malformed_row_exits_data(capsys, files, tmp_path):
    lines = (files / "external.csv").read_text().splitlines(keepends=True)
    lines[100] = lines[100].rsplit(",", 1)[0] + "\n"
    bad = tmp_path / "external_bad.csv"
    bad.write_text("".join(lines))
    rc, _, err = run(capsys, "calibrate", files / "internal.csv", bad, "--device", "nano")
    assert rc == cli.EXIT_DATA
    assert_one_error_line(err, f"{bad}:101: expected 3 columns, got 2")


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


def test_record_overflow_exits_data_after_writing_kept_rows(capsys, monkeypatch, tmp_path):
    (tmp_path / "node").write_text("4321\n")
    profile = tmp_path / "file.profile"
    profile.write_text(f"device = nano\nmode = whole_board\n"
                       f"node_paths = {tmp_path / 'node'}\n")
    monkeypatch.setattr(cli.sensor, "SampleBuffer",
                        functools.partial(sensor.SampleBuffer, maxlen=10))
    out_csv = tmp_path / "rec.csv"
    rc, out, err = run(capsys, "record", "--profile", profile, "--duration", 0.05,
                       "--out", out_csv)
    assert (rc, out) == (cli.EXIT_DATA, "")
    assert_one_error_line(err, "sample buffer overflowed: dropped the oldest ")
    recorded = ingest.parse_trace(out_csv, "internal_csv")
    assert len(recorded) == 10
    assert np.all(recorded.values == 4321.0)
