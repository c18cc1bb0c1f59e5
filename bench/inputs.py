"""Seeded input files for the jetcal benchmark.

Every file is a pure function of (workload, seed): the same pair always
gives byte-identical files. The program under test only ever sees these
files; the expected outputs that the checks compare against stay in the
returned `Inputs`.

The benchmark writes its own CSVs rather than calling `ingest.write_trace`,
so a change to the program's writer cannot change what it is fed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jetcal import synth
from jetcal.models import BOOT_PEAK_CURRENT_MA, get_model
from jetcal.traces import PowerTrace

DEVICE = "nano"
MODEL = get_model(DEVICE)
COIL_TURNS = 10
SUPPLY_V = 5.0                  # the nano's barrel-jack supply
INTERNAL_NOISE = 0.01           # synth.synthetic_pair default
BAD_ROW_FROM_END = 10
BOOT_BASELINE_MA = 200.0
BOOT_RESOLUTION_US = 100
NODE_FILE = "node_power_mw"
RECORD_S = 0.5                  # the `record --duration` of every round


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload."""

    pair_s: int          # span of the calibrate/validate pair; over 8 s, the longest
                         # synth segment, so the pair never holds one level
    recorded_s: int      # span of a record-shaped apply input; 0 applies the pair's internal stream
    boot_pad: int        # baseline samples on each side of the boot spike
    long_record_s: float  # one `record --duration` per run on top of the rounds; 0 for none


SHAPES = {
    "calibrate-scope": Shape(pair_s=60, recorded_s=0, boot_pad=500, long_record_s=0),
    "apply-recorded": Shape(pair_s=15, recorded_s=8, boot_pad=100_000, long_record_s=0),
    "record-file": Shape(pair_s=15, recorded_s=0, boot_pad=500, long_record_s=24.0),
}


@dataclass
class Inputs:
    """Paths handed to the CLI plus the values its outputs must match."""

    internal_csv: Path
    external_csv: Path
    power_range_mw: tuple[float, float]   # the pair's true power, lowest to highest
    reject_csv: Path
    reject_line: int
    apply_csv: Path
    apply_raw: PowerTrace
    apply_truth_mj: float
    boot_csv: Path
    boot_threshold_ma: float
    boot_peak_ma: float
    boot_peak_us: int
    profile: Path
    node_value_mw: float
    long_record_s: float


def write_csv(path: Path, header: str, *columns) -> None:
    """Header plus one row per index; ints as str, floats as repr."""
    cols = [c.tolist() for c in columns]
    fmt = ",".join(["{}"] + ["{!r}"] * (len(cols) - 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt.format(*row) for row in zip(*cols))


def exact_energy_mj(truth: synth.PiecewisePower, t0_us: int, t1_us: int) -> float:
    """Integral of the piecewise-linear truth over [t0, t1], in mJ.

    Integrates segment by segment, because the profile jumps between
    segments and a trapezoid over the knots would miss the jumps.
    """
    s0, s1 = truth.seg_start_us, truth.seg_end_us
    a = np.clip(s0, t0_us, t1_us)
    b = np.clip(s1, t0_us, t1_us)
    slope = (truth.v_end_mw - truth.v_start_mw) / np.maximum(s1 - s0, 1.0)
    va = truth.v_start_mw + slope * (a - s0)
    vb = truth.v_start_mw + slope * (b - s0)
    return float(np.sum((va + vb) / 2.0 * (b - a))) / 1e6


def _recorded(seed: int, span_s: int):
    """Record-shaped trace: polls 10-40 us apart holding 1-10 ms updates."""
    internal, _, truth = synth.synthetic_pair(MODEL, span_s * 1_000_000, seed=seed)
    rng = np.random.default_rng([seed, 1])
    ts = internal.timestamps_us
    gaps = rng.integers(10, 41, (ts[-1] - ts[0]) // 10 + 1)
    polls = ts[0] + np.concatenate([[0], np.cumsum(gaps)])
    polls = polls[polls <= ts[-1]]
    held = internal.values[np.searchsorted(ts, polls, side="right") - 1]
    return PowerTrace(DEVICE, "internal", "mW", polls, held), truth


def generate(workload: str, seed: int, work: Path) -> Inputs:
    """Write every input file of one workload run into `work`."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, 0])

    internal, external, truth = synth.synthetic_pair(
        MODEL, shape.pair_s * 1_000_000, seed=seed)
    internal_csv = work / "internal.csv"
    write_csv(internal_csv, "timestamp_us,power_mw",
              internal.timestamps_us, internal.values)

    # The scope logs supply voltage and the clamp reading around a
    # COIL_TURNS-winding coil; the program multiplies them back to power.
    volts = SUPPLY_V * (1.0 + 0.002 * rng.standard_normal(len(external)))
    clamp_a = external.values / 1000.0 / volts * COIL_TURNS
    external_csv = work / "external.csv"
    write_csv(external_csv, "timestamp_us,voltage_v,current_a",
              external.timestamps_us, volts, clamp_a)

    # A torn last write: one row near the end lost its current column.
    lines = external_csv.read_bytes().splitlines(keepends=True)
    bad = len(lines) - BAD_ROW_FROM_END
    lines[bad] = lines[bad].rsplit(b",", 1)[0] + b"\n"
    reject_csv = work / "external_bad.csv"
    reject_csv.write_bytes(b"".join(lines))

    if shape.recorded_s:
        apply_raw, apply_truth = _recorded(seed + 1, shape.recorded_s)
        apply_csv = work / "recorded.csv"
        write_csv(apply_csv, "timestamp_us,power_mw",
                  apply_raw.timestamps_us, apply_raw.values)
    else:
        apply_raw, apply_truth, apply_csv = internal, truth, internal_csv
    ts = apply_raw.timestamps_us
    apply_truth_mj = exact_energy_mj(apply_truth, int(ts[0]), int(ts[-1]))

    peak_ma = BOOT_PEAK_CURRENT_MA[DEVICE]
    boot = synth.boot_current_trace(
        peak_ma, DEVICE, baseline_ma=BOOT_BASELINE_MA,
        resolution_us=BOOT_RESOLUTION_US,
        pre_samples=shape.boot_pad + int(rng.integers(0, 1000)),
        post_samples=shape.boot_pad)
    boot_csv = work / "boot.csv"
    write_csv(boot_csv, "timestamp_us,current_ma", boot.timestamps_us, boot.values)

    # A whole-board node as the INA3221 driver exposes it: integer mW.
    # The profile names it relative to `work`, where the CLI runs.
    node_value = int(rng.integers(3000, 15000))
    (work / NODE_FILE).write_text(f"{node_value}\n", encoding="utf-8")
    profile = work / "board.profile"
    profile.write_text(f"device = {DEVICE}\nmode = whole_board\n"
                       f"node_paths = {NODE_FILE}\nunit = mw\n", encoding="utf-8")

    return Inputs(
        internal_csv=internal_csv,
        external_csv=external_csv,
        power_range_mw=(float(min(truth.v_start_mw.min(), truth.v_end_mw.min())),
                        float(max(truth.v_start_mw.max(), truth.v_end_mw.max()))),
        reject_csv=reject_csv,
        reject_line=bad + 1,
        apply_csv=apply_csv,
        apply_raw=apply_raw,
        apply_truth_mj=apply_truth_mj,
        boot_csv=boot_csv,
        boot_threshold_ma=(BOOT_BASELINE_MA + peak_ma) / 2.0,
        boot_peak_ma=peak_ma,
        boot_peak_us=int(boot.timestamps_us[np.argmax(boot.values)]),
        profile=profile,
        node_value_mw=float(node_value),
        long_record_s=shape.long_record_s,
    )
