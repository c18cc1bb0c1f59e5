"""The benchmark's own tests: seeded inputs and output checks.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
from checks import LOST, WRONG
from jetcal import ingest, models, regression, signal
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
CLI = "import sys; from jetcal.cli import main; sys.exit(main())"


def _files(work: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.SHAPES))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    inputs.generate(workload, 7, a)
    inputs.generate(workload, 7, b)
    inputs.generate(workload, 8, c)
    assert _files(a) == _files(b)
    assert _files(a)["internal.csv"] != _files(c)["internal.csv"]


@pytest.mark.parametrize("workload", sorted(inputs.SHAPES))
@pytest.mark.parametrize("seed", range(1, 6))
def test_every_pair_calibrates_cleanly(tmp_path, workload, seed):
    # A pair that holds one power level leaves nothing to fit, and the
    # calibrate check would then count a benchmark fault as a program one.
    inp = inputs.generate(workload, seed, tmp_path)
    internal = signal.moving_average(ingest.parse_trace(inp.internal_csv, "internal_csv"))
    external = signal.moving_average(ingest.parse_trace(inp.external_csv, "external_csv"))
    model = regression.fit(signal.align(internal, external)).model
    result = {"slope": model.slope, "intercept_mw": model.intercept_mw}
    assert checks.check_calibrate(0, result, inputs.MODEL, inp.power_range_mw,
                                  inputs.INTERNAL_NOISE * 100) == []


@pytest.fixture(scope="module")
def scope_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("scope")
    return inputs.generate("calibrate-scope", 3, work), work


def _cli(work, *args):
    proc = subprocess.run([sys.executable, "-c", CLI, *map(str, args), "--json"],
                          capture_output=True, text=True, cwd=work,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    return proc.returncode, checks.json_result(proc.stdout), proc.stderr


def _kinds(problems):
    return {p.kind for p in problems}


def test_reject_input_names_its_bad_line(scope_inputs):
    inp, _ = scope_inputs
    lines = inp.reject_csv.read_text().splitlines()
    assert len(lines[inp.reject_line - 1].split(",")) == 2
    assert all(len(row.split(",")) == 3 for row in lines[:inp.reject_line - 1])


def test_calibrate_check(scope_inputs):
    model = inputs.MODEL
    args = (model, (5000.0, 20000.0), 1.0)
    good = {"slope": model.slope, "intercept_mw": model.intercept_mw}
    assert checks.check_calibrate(0, good, *args) == []
    off = dict(good, slope=model.slope * 1.02)
    assert _kinds(checks.check_calibrate(0, off, *args)) == {WRONG}
    assert _kinds(checks.check_calibrate(3, None, *args)) == {LOST}


def test_validate_check():
    assert checks.check_validate(0, {"gate": "pass"}) == []
    assert _kinds(checks.check_validate(1, {"gate": "fail"})) == {WRONG}
    assert _kinds(checks.check_validate(0, {"gate": "maybe"})) == {WRONG}
    assert _kinds(checks.check_validate(2, None)) == {LOST}


def test_reject_check():
    assert checks.check_reject(3, "error: f.csv:41: expected 3 columns", "f.csv", 41) == []
    assert _kinds(checks.check_reject(0, "", "f.csv", 41)) == {WRONG}
    assert _kinds(checks.check_reject(3, "error: f.csv:40: x", "f.csv", 41)) == {WRONG}


def test_real_outputs_pass_and_corrupted_ones_fail(scope_inputs):
    inp, work = scope_inputs
    expected = models.integrate_energy(
        models.apply_trace(inputs.MODEL, inp.apply_raw)).energy_mj

    rc, result, stderr = _cli(work, "calibrate", inp.internal_csv, inp.reject_csv,
                              "--device", "nano")
    assert checks.check_reject(rc, stderr, inp.reject_csv, inp.reject_line) == []

    rc, result, _ = _cli(work, "apply", inp.apply_csv, "--device", "nano",
                         "--out", work / "cal.csv")
    assert checks.check_apply(rc, result, len(inp.apply_raw)) == []
    short = dict(result, n_samples=result["n_samples"] - 1)
    assert _kinds(checks.check_apply(0, short, len(inp.apply_raw))) == {LOST}

    rc, result, _ = _cli(work, "energy", work / "cal.csv")
    assert checks.check_energy(rc, result, expected) == []
    nudged = dict(result, energy_mj=float(np.nextafter(result["energy_mj"], 0)))
    assert _kinds(checks.check_energy(0, nudged, expected)) == {WRONG}

    # A calibrated CSV with its last row gone integrates to another energy.
    lines = (work / "cal.csv").read_bytes().splitlines(keepends=True)
    (work / "cut.csv").write_bytes(b"".join(lines[:-1]))
    rc, result, _ = _cli(work, "energy", work / "cut.csv")
    assert _kinds(checks.check_energy(rc, result, expected)) == {WRONG}

    rc, result, _ = _cli(work, "peak", inp.boot_csv, "--threshold",
                         repr(inp.boot_threshold_ma))
    assert checks.check_peak(rc, result, inp.boot_peak_ma, inp.boot_peak_us) == []
    late = dict(result, peak_timestamp_us=result["peak_timestamp_us"] + 100)
    assert _kinds(checks.check_peak(0, late, inp.boot_peak_ma, inp.boot_peak_us)) == {WRONG}
    low = dict(result, peak_value=result["peak_value"] - 1e-9)
    assert _kinds(checks.check_peak(0, low, inp.boot_peak_ma, inp.boot_peak_us)) == {WRONG}


def test_record_check_on_a_real_recording(scope_inputs):
    inp, work = scope_inputs
    out = work / "rec.csv"
    rc, result, _ = _cli(work, "record", "--profile", inp.profile,
                         "--duration", "0.2", "--out", out)
    data = out.read_bytes()
    node = inp.node_value_mw
    assert checks.check_record(rc, result, data, node) == []

    lines = data.splitlines(keepends=True)
    missing = b"".join(lines[:5] + lines[6:])
    assert _kinds(checks.check_record(rc, result, missing, node)) == {LOST}

    last = lines[-1].rstrip(b"\n")
    changed = last[:-1] + (b"1" if last[-1:] != b"1" else b"2") + b"\n"
    assert _kinds(checks.check_record(rc, result, b"".join(lines[:-1] + [changed]), node)) \
        == {WRONG}

    swapped = b"".join(lines[:2] + [lines[3], lines[2]] + lines[4:])
    assert _kinds(checks.check_record(rc, result, swapped, node)) == {WRONG}

    torn = b"".join(lines[:-1] + [b"123,\n"])
    assert _kinds(checks.check_record(rc, result, torn, node)) == {WRONG}
    assert _kinds(checks.check_record(rc, result, None, node)) == {LOST}


def test_span_self_time_excludes_children():
    tr = Tracer("w", "r")
    with tr.span("outer"):
        with tr.span("inner") as c:
            c["rows"] = 3
        with tr.span("inner") as c:
            c["rows"] = 4
    outer, a, b = tr.spans
    assert a["parent"] == b["parent"] == outer["id"]
    child_ns = sum(s["end_ns"] - s["start_ns"] for s in (a, b))
    assert tr.self_ns()[outer["id"]] == outer["end_ns"] - outer["start_ns"] - child_ns
    assert tr.totals()["inner"]["rows"] == 7
    assert tr.totals()["inner"]["calls"] == 2


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "calibrate-scope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not any(p.name.startswith(".bench") for p in tmp_path.iterdir())

