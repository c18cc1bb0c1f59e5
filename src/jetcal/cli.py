"""Command-line surface tying the pipeline together.

Subcommands: record, calibrate, apply, validate, energy, peak.

Exit codes: 0 success or gate pass, 1 validation gate fail, 2 usage or
configuration error, 3 data error. With --json each command prints one
JSON object per line carrying exactly the values of the human output.

Building the parser loads no numpy and no pipeline module: each command
imports what it runs when it starts, so `energy` and `apply` load
`ingest` and `models`, `peak` loads `ingest` and `signal` only (and not
`numpy.ma`), `calibrate` and `validate` load those three and
`regression`, and `record` loads `sensor` only, which writes its CSV
without numpy (a `replay:` profile also loads `ingest` to parse what it
replays). Only `record --exec` loads `subprocess`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


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
    if as_json:
        print(json.dumps(result, sort_keys=True))
    else:
        for key, value in result.items():
            print(f"{key} = {value}")


def _require_inputs(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise ConfigError(f"input file not found: {p}")


def _require_writable(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).resolve().parent.is_dir():
            raise ConfigError(f"output directory does not exist for: {p}")


def _resolve_model(device: str | None, model_file: str | None):
    from . import models
    from .traces import canonical_device_id

    if model_file is not None:
        _require_inputs(model_file)
        registry = models.load_models(model_file)
        if device is not None:
            canon = canonical_device_id(device)
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
    m = report.model
    return {
        "device": m.device,
        "slope": m.slope,
        "intercept_mw": m.intercept_mw,
        "stated_error_pct": m.stated_error_pct,
        "provenance": m.provenance,
        "mae_pct": report.mae_pct,
        "max_abs_err_pct": report.max_abs_err_pct,
        "r_squared": report.r_squared,
        "n_samples": report.n_samples,
        "excluded_low_power": report.excluded_low_power,
    }


def _paired_pipeline(args):
    """Shared calibrate/validate front: parse, filter both streams, align."""
    from . import ingest
    from . import signal as sig
    from .traces import canonical_device_id

    _require_inputs(args.internal_csv, args.external_csv)
    device = canonical_device_id(args.device) if args.device else "unknown"
    internal = ingest.parse_trace(args.internal_csv, "internal_csv", device)
    external = ingest.parse_trace(args.external_csv, "external_csv", device,
                                  coil_turns=args.coil_turns)
    internal = sig.moving_average(internal, args.window_us)
    external = sig.moving_average(external, args.window_us)
    return sig.align(internal, external, args.max_gap_us)


def cmd_record(args) -> int:
    from . import sensor

    profile = sensor.load_profile(sensor.resolve_profile(args.profile))
    _require_writable(args.out)
    buffer = sensor.SampleBuffer()
    workload_exit = None
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
                profile, buffer,
                should_stop=lambda: child.poll() is not None,
                max_rate_hz=args.max_rate_hz,
            )
        except BaseException:
            # Whatever ends sampling early ends the workload it measures.
            child.terminate()
            child.wait()
            raise
        workload_exit = child.wait()
    else:
        stats = sensor.run_sampler(profile, buffer, duration_s=args.duration,
                                   max_rate_hz=args.max_rate_hz)
    if len(buffer) == 0:
        raise DataError("sampler produced no samples")
    buffer.write_csv(args.out)
    if buffer.dropped:
        raise DataError(
            f"sample buffer overflowed: dropped the oldest {buffer.dropped} of "
            f"{stats.samples_taken} samples taken; {args.out} holds the last {len(buffer)}"
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
    if workload_exit is not None:
        result["workload_exit_code"] = workload_exit
    _emit(result, args.json)
    return EXIT_OK


def cmd_calibrate(args) -> int:
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
    _emit(result, args.json)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import regression

    model = _resolve_model(args.device, args.model_file)
    pairs = _paired_pipeline(args)
    report = regression.evaluate(model, pairs, args.floor_mw)
    gate_pass = report.mae_pct <= model.stated_error_pct
    result = _report_dict(report)
    result["gate_threshold_pct"] = model.stated_error_pct
    result["gate"] = "pass" if gate_pass else "fail"
    _emit(result, args.json)
    return EXIT_OK if gate_pass else EXIT_GATE_FAIL


def cmd_apply(args) -> int:
    from . import ingest, models

    _require_inputs(args.input_csv)
    _require_writable(args.out)
    model = _resolve_model(args.device, args.model_file)
    raw = ingest.parse_trace(args.input_csv, "internal_csv", model.device)
    calibrated = models.apply_trace(model, raw, on_invalid=args.on_invalid)
    ingest.write_trace(calibrated, args.out)
    n_skipped = len(raw) - len(calibrated)
    result = {
        "device": model.device,
        "n_samples": len(calibrated),
        "n_skipped": n_skipped,
        "output": str(args.out),
    }
    if len(calibrated):
        # Both means over the rows kept: those apply_trace did not skip.
        kept = raw.values[raw.values >= 0] if n_skipped else raw.values
        mean_raw = float(kept.mean())
        mean_cal = float(calibrated.values.mean())
        result["mean_raw_mw"] = mean_raw
        result["mean_calibrated_mw"] = mean_cal
        if mean_cal != 0.0:
            result["implied_gap_pct"] = (mean_cal - mean_raw) / mean_cal * 100.0
    if calibrated.warnings:
        result["warnings"] = ",".join(calibrated.warnings)
    _emit(result, args.json)
    return EXIT_OK


def cmd_energy(args) -> int:
    from . import ingest, models

    _require_inputs(args.input_csv)
    trace = ingest.parse_trace(args.input_csv, "internal_csv", args.device or "unknown")
    calibrated_with = None
    if args.device is not None or args.model_file is not None:
        model = _resolve_model(args.device, args.model_file)
        trace = models.apply_trace(model, trace)
        calibrated_with = model.device
    report = models.integrate_energy(trace)
    result = {
        "energy_mj": report.energy_mj,
        "duration_us": report.duration_us,
        "mean_power_mw": report.mean_power_mw,
        "calibrated_with": calibrated_with or "none",
    }
    _emit(result, args.json)
    return EXIT_OK


def cmd_peak(args) -> int:
    from . import ingest
    from . import signal as sig

    _require_inputs(args.input_csv)
    trace = ingest.parse_value_trace(args.input_csv)
    report = sig.detect_peak(trace, args.threshold)
    result = {
        "peak_value": report.peak_value,
        "peak_timestamp_us": report.peak_timestamp_us,
        "baseline": report.baseline,
        "duration_above_threshold_us": report.duration_above_threshold_us,
        "threshold": report.threshold,
        "unit": trace.unit,
    }
    _emit(result, args.json)
    return EXIT_OK


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
    p.add_argument("--device", default=None, help="registry model to validate")
    p.add_argument("--model", dest="model_file", default=None,
                   help="model file to validate")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub("apply", "calibrate a recorded internal trace")
    p.add_argument("input_csv")
    p.add_argument("--device", default=None, help="registry model to apply")
    p.add_argument("--model", dest="model_file", default=None,
                   help="model file to apply")
    p.add_argument("--on-invalid", choices=("abort", "skip"), default="abort",
                   dest="on_invalid",
                   help="what to do with negative samples; skipped ones are "
                        "counted in n_skipped (default: abort)")
    p.add_argument("--out", required=True, help="output calibrated CSV path")
    p.set_defaults(func=cmd_apply)

    p = sub("energy", "integrate energy over a power trace")
    p.add_argument("input_csv")
    p.add_argument("--device", default=None,
                   help="calibrate with this registry model first")
    p.add_argument("--model", dest="model_file", default=None,
                   help="calibrate with this model file first")
    p.set_defaults(func=cmd_energy)

    p = sub("peak", "characterize the largest excursion of a trace")
    p.add_argument("input_csv")
    p.add_argument("--threshold", type=_finite_float, required=True,
                   help="excursion threshold in the trace's unit")
    p.set_defaults(func=cmd_peak)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
