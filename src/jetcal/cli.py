"""Command-line surface tying the pipeline together.

Subcommands: record, calibrate, apply, validate, energy, peak.

Each command returns its result as a dict and prints nothing, except
that `calibrate` warns on stderr when its fitted slope suggests swapped
files. `main` prints the result, as `key = value` lines or, with --json,
as one JSON object carrying exactly the same values, and picks the exit
code: 0 success, 1 only when the result says `gate: fail`, 2 usage or
configuration error, 3 data error. A result number that is not finite
is a data error (exit 3), so every --json line is strict JSON.

Building the parser loads no numpy and no pipeline module: each command
imports what it runs when it starts. `apply` and `energy` load `ingest`
and `models`, and `peak` loads `ingest` and `signal` only. On a regular
file of at most SMALL_INPUT_BYTES the three run without numpy, on the
stdlib twins of the parser, of their models or signal functions and,
for `apply`, of the CSV writer's run finder; on any other input they
load numpy, but not `numpy.ma`. `calibrate` and `validate` load
`ingest`, `models`, numpy, `signal` and `regression`, and `record` loads
`sensor` only, which writes its CSV with the stdlib run finder (a
`replay:` profile also loads `ingest` and numpy to parse what it
replays). The one CSV writer is traces.write_csv. Only `record --exec`
loads `subprocess`. Only `record` loads `dataclasses` (about 7 ms, with
`inspect`), for `sensor.DeviceProfile`, which the benchmark rebuilds
with `dataclasses.replace`; the reports are NamedTuples.

A command is one short process, so its fixed costs count. Measured on a
2-vCPU x86 host with Python 3.11 and numpy 2.4, a fresh process spends
33-36 ms starting Python with `site`, 53-57 ms importing numpy, where a
command needs it, and 7-9 ms compiling the jetcal modules it imports when
no `__pycache__` is written. CPython's exit would then collect and free
every class, function and module-globals cycle, numpy's too: 10-13 ms
with numpy loaded and about 4 ms without. `main` skips that teardown: it
registers `gc.freeze` with `atexit`, once per process, and the handler
runs before the exit's collections, which pass over frozen objects; the
OS takes the memory back. Importing this module changes nothing, and an
in-process `main` leaves the caller's collector as it was until the
process exits. So cyclic garbage is never finalized at exit, which no
command needs: every file is closed by a `with` block, and `record
--exec` waits for its workload.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import stat
import sys
from pathlib import Path

from .errors import ConfigError, DataError, InvalidReadingError

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

# `apply`, `energy` and `peak` read a regular file of at most this many
# bytes without numpy. Measured on a 2-vCPU x86 host with Python 3.11 and
# numpy 2.4: importing numpy costs 53-57 ms in a fresh process whose exit
# skips the teardown (see main), and the numpy-free parse and integral
# cost 0.8 us per row more than np.loadtxt and numpy's, the numpy-free
# parse, map and write 0.9 us per row more than `apply`'s numpy path. So
# the two break even at 57k-69k rows of distinct 17-digit values, 1.6-1.9
# MB of CSV. 1 MiB stays below these, and keeps the 15-300 KB inputs of
# the benchmark numpy-free and its 3-9 MB ones on numpy.
SMALL_INPUT_BYTES = 1 << 20


def _number(kind, ok, what):
    """argparse type: parse with kind, then reject values failing ok."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(float, lambda v: math.isfinite(v) and v > 0,
                          "a positive finite number")
_finite_float = _number(float, math.isfinite, "a finite number")


def _emit(result: dict, as_json: bool) -> None:
    for key, value in result.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidReadingError(f"{key} is not finite: {value!r}")
    if as_json:
        print(json.dumps(result, sort_keys=True))
    else:
        for key, value in result.items():
            print(f"{key} = {value}")


def _require_inputs(*paths) -> None:
    """Refuse a missing path or a directory; a pipe is an input like a file."""
    for p in paths:
        if p is not None and (Path(p).is_dir() or not Path(p).exists()):
            raise ConfigError(f"input file not found: {p}")


def _small_input(path) -> bool:
    """Whether path is a regular file of at most SMALL_INPUT_BYTES."""
    info = os.stat(path)
    return stat.S_ISREG(info.st_mode) and info.st_size <= SMALL_INPUT_BYTES


def _require_writable(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).resolve().parent.is_dir():
            raise ConfigError(f"output directory does not exist for: {p}")


def _device_id(name: str) -> str:
    """The canonical id of a --device value; a blank one is a usage error."""
    from .traces import canonical_device_id

    try:
        return canonical_device_id(name)
    except ValueError as exc:
        raise ConfigError(f"--device {name!r}: {exc}") from None


def _resolve_model(device: str | None, model_file: str | None):
    from . import models

    canon = None if device is None else _device_id(device)
    if model_file is not None:
        _require_inputs(model_file)
        registry = models.load_models(model_file)
        if canon is not None:
            if canon not in registry:
                raise ConfigError(
                    f"device {device!r} not in {model_file} "
                    f"(has: {', '.join(sorted(registry))})"
                )
            return registry[canon]
        if len(registry) == 1:
            return next(iter(registry.values()))
        raise ConfigError(
            f"{model_file} holds {len(registry)} models; pick one with --device"
        )
    if device is not None:
        return models.get_model(device)
    raise ConfigError("need --device (registry) or --model <file>")


def _report_dict(report) -> dict:
    """A FitReport's model fields, then its own, each in field order."""
    result = report._asdict()
    return {**result.pop("model")._asdict(), **result}


def _paired_pipeline(args):
    """Shared calibrate/validate front: parse, filter both streams, align."""
    from . import ingest
    from . import signal as sig

    _require_inputs(args.internal_csv, args.external_csv)
    device = "unknown" if args.device is None else _device_id(args.device)
    internal = ingest.parse_trace(args.internal_csv, "internal_csv", device)
    external = ingest.parse_trace(args.external_csv, "external_csv", device,
                                  coil_turns=args.coil_turns)
    internal = sig.moving_average(internal, args.window_us)
    external = sig.moving_average(external, args.window_us)
    return sig.align(internal, external, args.max_gap_us)


def cmd_record(args) -> dict:
    from . import sensor

    profile = sensor.load_profile(sensor.resolve_profile(args.profile))
    _require_writable(args.out)
    buffer = sensor.SampleBuffer()
    child = None
    if args.exec_cmd is not None:
        import shlex
        import subprocess

        try:
            argv = shlex.split(args.exec_cmd)
        except ValueError as exc:
            raise ConfigError(f"cannot parse workload command: {exc}") from None
        try:
            child = subprocess.Popen(argv)
        except OSError as exc:
            raise ConfigError(f"cannot spawn workload: {exc}") from exc
    try:
        stats = sensor.run_sampler(
            profile, buffer, duration_s=args.duration, max_rate_hz=args.max_rate_hz,
            should_stop=None if child is None else lambda: child.poll() is not None)
    except BaseException:
        # Whatever ends sampling early ends the workload it measures.
        if child is not None:
            child.terminate()
            child.wait()
        raise
    if len(buffer) == 0:
        raise DataError("sampler produced no samples")
    buffer.write_csv(args.out)
    if buffer.dropped:
        raise DataError(
            f"sample buffer overflowed: {args.out} holds the first {len(buffer)} "
            f"samples; dropped the last {buffer.dropped} of {stats.samples_taken} taken"
        )
    result = {
        "device": profile.device,
        "samples_taken": stats.samples_taken,
        "achieved_rate_hz": round(stats.achieved_rate_hz, 3),
        "read_errors": stats.read_errors,
        "dropped": buffer.dropped,
        "start_us": stats.start_us,
        "end_us": stats.end_us,
        "output": str(args.out),
    }
    if child is not None:
        result["workload_exit_code"] = child.wait()
    return result


def cmd_calibrate(args) -> dict:
    from . import models, regression

    _require_writable(args.out_model)
    pairs = _paired_pipeline(args)
    report = regression.fit(pairs, args.floor_mw)
    builtin = models.BUILTIN_MODELS.get(report.model.device)
    if builtin is not None and builtin.slope > 1.0 and report.model.slope < 1.0:
        print(
            f"warning: fitted slope {report.model.slope:.4f} < 1 but {builtin.device} "
            f"normally calibrates upward; are the internal/external files swapped?",
            file=sys.stderr,
        )
    if args.out_model is not None:
        models.save_models([report.model], args.out_model)
    result = _report_dict(report)
    if args.out_model is not None:
        result["model_file"] = str(args.out_model)
    return result


def cmd_validate(args) -> dict:
    from . import regression

    model = _resolve_model(args.device, args.model_file)
    pairs = _paired_pipeline(args)
    report = regression.evaluate(model, pairs, args.floor_mw)
    result = _report_dict(report)
    result["gate_threshold_pct"] = model.stated_error_pct
    result["gate"] = "pass" if report.mae_pct <= model.stated_error_pct else "fail"
    return result


def cmd_apply(args) -> dict:
    from . import ingest, models
    from .traces import PowerTrace

    _require_inputs(args.input_csv)
    _require_writable(args.out)
    model = _resolve_model(args.device, args.model_file)
    skip = args.on_invalid == "skip"
    if _small_input(args.input_csv):
        from array import array
        from itertools import compress

        from .traces import write_columns

        raw = ingest.parse_columns(args.input_csv, "internal_csv", model.device)
        n_read = len(raw)
        if skip:
            kept = [v >= 0 for v in raw.values]
            raw = PowerTrace(raw.device, raw.source, raw.unit,
                             array("q", compress(raw.timestamps_us, kept)),
                             array("d", compress(raw.values, kept)))
        calibrated = models.apply_columns(model, raw)
        write_columns(calibrated, args.out)
        mean = models.mean
        negative = min(calibrated.values, default=0.0) < 0
    else:
        raw = ingest.parse_trace(args.input_csv, "internal_csv", model.device)
        n_read = len(raw)
        if skip:
            kept = raw.values >= 0
            raw = PowerTrace(raw.device, raw.source, raw.unit,
                             raw.timestamps_us[kept], raw.values[kept])
        calibrated = models.apply_trace(model, raw)
        ingest.write_trace(calibrated, args.out)
        mean = models.mean_of_runs
        negative = bool(calibrated.values.min(initial=0.0) < 0)
    result = {
        "device": model.device,
        "n_samples": len(calibrated),
        "n_skipped": n_read - len(calibrated),
        "output": str(args.out),
    }
    if len(calibrated):
        # Both paths take fsum means, so they print the same digits. A sum
        # past the float range makes a mean inf, which _emit refuses.
        mean_raw, mean_cal = mean(raw.values), mean(calibrated.values)
        result["mean_raw_mw"] = mean_raw
        result["mean_calibrated_mw"] = mean_cal
        if mean_cal != 0.0:
            result["implied_gap_pct"] = (mean_cal - mean_raw) / mean_cal * 100.0
        if negative:
            result["warnings"] = models.NEGATIVE_CALIBRATED_WARNING
    return result


def cmd_energy(args) -> dict:
    from . import ingest, models

    _require_inputs(args.input_csv)
    model = None
    if args.device is not None or args.model_file is not None:
        model = _resolve_model(args.device, args.model_file)
    device = "unknown" if model is None else model.device
    small = _small_input(args.input_csv)
    if small:
        trace = ingest.parse_columns(args.input_csv, "internal_csv", device)
    else:
        trace = ingest.parse_trace(args.input_csv, "internal_csv", device)
    if model is not None:
        trace = (models.apply_columns if small else models.apply_trace)(model, trace)
    report = (models.integrate_energy_columns if small else models.integrate_energy)(trace)
    return {**report._asdict(), "calibrated_with": "none" if model is None else model.device}


def cmd_peak(args) -> dict:
    from . import ingest
    from . import signal as sig

    _require_inputs(args.input_csv)
    if _small_input(args.input_csv):
        trace = ingest.parse_columns(args.input_csv, "value_csv")
        report = sig.detect_peak_columns(trace, args.threshold)
    else:
        trace = ingest.parse_value_trace(args.input_csv)
        report = sig.detect_peak(trace, args.threshold)
    return {**report._asdict(), "unit": trace.unit}


def _add_pipeline_flags(sub) -> None:
    # The defaults are the library's DEFAULT_* constants, written out so that
    # building the parser imports no pipeline module; a test pins them.
    sub.add_argument("--window-us", type=_positive_int, default=100_000,
                     dest="window_us",
                     help="moving-average window in us (default: 100000)")
    sub.add_argument("--max-gap-us", type=_non_negative_int, default=10_000,
                     dest="max_gap_us",
                     help="max staleness of bracketing external samples (default: 10000)")
    sub.add_argument("--floor-mw", type=_positive_float, default=100.0, dest="floor_mw",
                     help="exclude pairs below this external power from %% metrics")
    sub.add_argument("--coil-turns", type=_positive_int, default=10,
                     dest="coil_turns",
                     help="coil windings under the current clamp (default: 10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcal",
        description="Calibrate and apply power measurements from "
                    "Jetson-class built-in sensors.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="print one machine-readable JSON line")
        return p

    def model_flags(p, use):
        p.add_argument("--device", default=None, help=f"registry model to {use}")
        p.add_argument("--model", dest="model_file", default=None,
                       help=f"model file to {use}")

    p = sub("record", "sample the internal sensor into a CSV")
    p.add_argument("--profile", required=True,
                   help="device profile path or name (searched via "
                        "$JETCAL_PROFILE_PATH)")
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--duration", type=_positive_float, help="seconds to record")
    stop.add_argument("--exec", dest="exec_cmd", metavar="CMD",
                      help="record for the lifetime of this workload command")
    p.add_argument("--max-rate-hz", type=_positive_float, default=None, dest="max_rate_hz",
                   help="throttle the sampling loop (default: unthrottled)")
    p.add_argument("--out", required=True, help="output internal_csv path")
    p.set_defaults(func=cmd_record)

    p = sub("calibrate", "fit a calibration model from paired traces")
    p.add_argument("internal_csv")
    p.add_argument("external_csv")
    p.add_argument("--device", required=True, help="device id for the fitted model")
    _add_pipeline_flags(p)
    p.add_argument("--out-model", dest="out_model", default=None,
                   help="write the fitted model to this model file")
    p.set_defaults(func=cmd_calibrate)

    p = sub("validate", "check a model against reference data")
    p.add_argument("internal_csv")
    p.add_argument("external_csv")
    model_flags(p, "validate")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub("apply", "calibrate a recorded internal trace")
    p.add_argument("input_csv")
    model_flags(p, "apply")
    p.add_argument("--on-invalid", choices=("abort", "skip"), default="abort",
                   dest="on_invalid",
                   help="what to do with negative samples; skipped ones are "
                        "counted in n_skipped (default: abort)")
    p.add_argument("--out", required=True, help="output calibrated CSV path")
    p.set_defaults(func=cmd_apply)

    p = sub("energy", "integrate energy over a power trace")
    p.add_argument("input_csv")
    model_flags(p, "calibrate with first")
    p.set_defaults(func=cmd_energy)

    p = sub("peak", "characterize the largest excursion of a trace")
    p.add_argument("input_csv")
    p.add_argument("--threshold", type=_finite_float, required=True,
                   help="excursion threshold in the trace's unit")
    p.set_defaults(func=cmd_peak)

    return parser


def main(argv=None) -> int:
    # Exit then skips freeing every object one by one (module docstring).
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        _emit(result, args.json)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, DataError) else EXIT_CONFIG
    return EXIT_GATE_FAIL if result.get("gate") == "fail" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
