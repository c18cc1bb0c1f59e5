"""The traced run: every CLI command replayed in-process, layer by layer.

Each function below mirrors one `jetcal` subcommand, calling the same
public module functions the CLI calls, with a span around each call and
the counts of that boundary stored on the span. Spans live only here, in
the benchmark; the program itself is not instrumented.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

from jetcal import ingest, models, regression, sensor
from jetcal import signal as sig
from jetcal.errors import ParseError
from jetcal.traces import PowerSample, PowerTrace

from checks import fit_err_pct
from inputs import COIL_TURNS, DEVICE, MODEL, NODE_FILE, RECORD_S
from tracing import Tracer

MICRO_CALLS = 20_000


def _parse(tr, path, kind: str, fmt: str, **kwargs) -> PowerTrace:
    with tr.span(f"ingest.parse_trace.{kind}") as c:
        trace = ingest.parse_trace(path, fmt, DEVICE, **kwargs)
    c["rows"] = len(trace)
    return trace


def _write(tr, trace: PowerTrace, path) -> None:
    with tr.span("ingest.write_trace") as c:
        ingest.write_trace(trace, path)
    c["bytes"] = path.stat().st_size


def _moving_average(tr, trace: PowerTrace) -> PowerTrace:
    with tr.span("signal.moving_average") as c:
        out = sig.moving_average(trace)
    c.update(n_in=len(trace), n_out=len(out), dropped_warmup=len(trace) - len(out))
    return out


def _align(tr, internal: PowerTrace, external: PowerTrace):
    with tr.span("signal.align") as c:
        pairs = sig.align(internal, external)
    ts = internal.timestamps_us
    outside = int(np.sum((ts < external.timestamps_us[0]) |
                         (ts > external.timestamps_us[-1])))
    c.update(n_in=len(ts), n_out=len(pairs), dropped_out_of_span=outside,
             dropped_gap=len(ts) - outside - len(pairs))
    return pairs


def _paired(tr, inp):
    internal = _parse(tr, inp.internal_csv, "internal", "internal_csv")
    external = _parse(tr, inp.external_csv, "external", "external_csv",
                      coil_turns=COIL_TURNS)
    return _align(tr, _moving_average(tr, internal), _moving_average(tr, external))


def run_commands(tr, inp, work) -> dict:
    """calibrate, validate, reject, apply, energy and peak, in CLI order."""
    out = {}
    with tr.span("cli.calibrate"):
        pairs = _paired(tr, inp)
        with tr.span("regression.fit"):
            out["fit"] = regression.fit(pairs)

    with tr.span("cli.validate"):
        pairs = _paired(tr, inp)
        with tr.span("regression.evaluate") as c:
            report = regression.evaluate(MODEL, pairs)
        c["excluded_low_power"] = report.excluded_low_power

    with tr.span("cli.reject"):
        _parse(tr, inp.internal_csv, "internal", "internal_csv")
        with tr.span("ingest.parse_trace.reject"):
            try:
                ingest.parse_trace(inp.reject_csv, "external_csv", DEVICE,
                                   coil_turns=COIL_TURNS)
            except ParseError as exc:
                out["reject_line"] = exc.line

    calibrated_csv = work / "calibrated_traced.csv"
    with tr.span("cli.apply"):
        raw = _parse(tr, inp.apply_csv, "internal", "internal_csv")
        with tr.span("models.apply_trace"):
            calibrated = models.apply_trace(MODEL, raw)
        _write(tr, calibrated, calibrated_csv)

    with tr.span("cli.energy"):
        trace = _parse(tr, calibrated_csv, "internal", "internal_csv")
        with tr.span("models.integrate_energy"):
            out["energy"] = models.integrate_energy(trace)

    with tr.span("cli.peak"):
        with tr.span("ingest.parse_value_trace"):
            boot = ingest.parse_value_trace(inp.boot_csv)
        with tr.span("signal.detect_peak"):
            out["peak"] = sig.detect_peak(boot, inp.boot_threshold_ma)
    return out


class GapSink:
    """run_sampler sink that keeps every timestamp and forwards the sample."""

    def __init__(self, buffer: sensor.SampleBuffer):
        self.buffer = buffer
        self.timestamps = array("q")

    @property
    def dropped(self) -> int:
        return self.buffer.dropped

    def __call__(self, sample: PowerSample) -> None:
        self.timestamps.append(sample.timestamp_us)
        self.buffer(sample)


def _per_call(tr, name: str, fn, calls: int = MICRO_CALLS) -> None:
    with tr.span(name) as c:
        for _ in range(calls):
            fn()
    c["calls"] = calls


def run_record(tr, inp, work) -> dict:
    """Per-read costs, then `record` itself with a sink that keeps gaps."""
    profile = sensor.load_profile(inp.profile)
    profile = dataclasses.replace(profile, node_paths=(str(work / NODE_FILE),))
    nodes = sensor.FileNodes(profile.node_paths)
    _per_call(tr, "sensor.FileNodes.read", lambda: nodes.read(0))
    _per_call(tr, "sensor.sample_once", lambda: sensor.sample_once(profile, nodes))
    samples = [PowerSample(i + 1, inp.node_value_mw) for i in range(MICRO_CALLS)]
    appender = sensor.SampleBuffer()
    with tr.span("sensor.SampleBuffer.append") as c:
        for sample in samples:
            appender(sample)
    c["calls"] = len(samples)

    buffer = sensor.SampleBuffer()
    sink = GapSink(buffer)
    with tr.span("cli.record"):
        with tr.span("sensor.run_sampler"):
            stats = sensor.run_sampler(profile, sink,
                                       duration_s=inp.long_record_s or RECORD_S)
        with tr.span("sensor.SampleBuffer.to_trace"):
            trace = buffer.to_trace(profile.device)
        _write(tr, trace, work / "recorded_traced.csv")
    gaps = np.diff(np.frombuffer(sink.timestamps, dtype=np.int64))
    return {"stats": stats, "trace": trace, "gaps_us": gaps}


def span_cost_s(calls: int = 10_000) -> float:
    """Seconds one empty span costs the code it wraps."""
    probe = Tracer("probe", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - t0) / calls


def measure(tr, inp, work) -> dict:
    """Run every layer once traced; return what the metrics are made of.

    Tracing overhead is the cost of one empty span times the spans taken.
    The wall-time gap between a traced and an untraced replay would be
    the direct measure, but the host's speed drifts by more than 10%
    between two replays, which buries a gap of well under 1 ms.
    """
    out = run_commands(tr, inp, work)
    out.update(run_record(tr, inp, work))
    largest = max((inp.apply_raw, out["trace"]), key=len)
    with tr.span("traces.PowerTrace"):
        PowerTrace(DEVICE, "internal", "mW", largest.timestamps_us, largest.values)
    out["overhead_s"] = span_cost_s() * len(tr.spans)
    return out


def metrics(tr, out: dict, inp, cli_wall: dict, setup_s: float, import_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit).

    cli_wall maps each command to its median CLI wall time.
    """
    t = tr.totals()

    def s(name):
        return t[name]["s"]

    m = {}
    for kind in ("internal", "external"):
        name = f"ingest.parse_trace.{kind}"
        m[f"{name}.s"] = (s(name), "s")
        m[f"{name}.rows_per_s"] = (t[name]["rows"] / s(name), "rows/s")
    m["ingest.parse_trace.reject.s"] = (s("ingest.parse_trace.reject"), "s")
    m["ingest.parse_value_trace.s"] = (s("ingest.parse_value_trace"), "s")
    w = t["ingest.write_trace"]
    m["ingest.write_trace.s"] = (w["s"], "s")
    m["ingest.write_trace.mb_per_s"] = (w["bytes"] / 1e6 / w["s"], "MB/s")

    ma = t["signal.moving_average"]
    m["signal.moving_average.s"] = (ma["s"], "s")
    for key in ("n_in", "n_out", "dropped_warmup"):
        m[f"signal.moving_average.{key}"] = (ma[key], "count")
    al = t["signal.align"]
    m["signal.align.s"] = (al["s"], "s")
    for key in ("n_in", "n_out", "dropped_out_of_span", "dropped_gap"):
        m[f"signal.align.{key}"] = (al[key], "count")
    m["signal.align.kept_ratio"] = (al["n_out"] / al["n_in"], "ratio")
    m["signal.detect_peak.s"] = (s("signal.detect_peak"), "s")

    m["regression.fit.s"] = (s("regression.fit"), "s")
    m["regression.evaluate.s"] = (s("regression.evaluate"), "s")
    m["regression.evaluate.excluded_low_power"] = (
        t["regression.evaluate"]["excluded_low_power"], "count")
    m["models.apply_trace.s"] = (s("models.apply_trace"), "s")
    m["models.integrate_energy.s"] = (s("models.integrate_energy"), "s")
    m["traces.PowerTrace.s"] = (s("traces.PowerTrace"), "s")

    for name in ("sensor.FileNodes.read", "sensor.sample_once", "sensor.SampleBuffer.append"):
        m[f"{name}.us"] = (s(name) / t[name]["calls"] * 1e6, "us")
    stats = out["stats"]
    m["sensor.SampleBuffer.to_trace.s"] = (s("sensor.SampleBuffer.to_trace"), "s")
    m["sensor.SampleBuffer.kept_ratio"] = (len(out["trace"]) / stats.samples_taken, "ratio")
    m["sensor.run_sampler.rate_hz"] = (stats.achieved_rate_hz, "Hz")
    gaps = out["gaps_us"]
    m["sensor.run_sampler.gap_us.p50"] = (float(np.percentile(gaps, 50)), "us")
    m["sensor.run_sampler.gap_us.p99"] = (float(np.percentile(gaps, 99)), "us")
    m["sensor.run_sampler.gap_us.max"] = (int(gaps.max()), "us")
    m["sensor.run_sampler.read_errors"] = (stats.read_errors, "count")

    m["cli.import.s"] = (import_s, "s")
    for command in cli_wall:
        m[f"cli.{command}.unexplained_s"] = (
            cli_wall[command] - setup_s - tr.children_s(f"cli.{command}"), "s")

    fit = out["fit"].model
    m["fit_err_pct"] = (fit_err_pct(fit.slope, fit.intercept_mw, MODEL, inp.power_range_mw), "%")
    m["energy_err_pct"] = (
        abs(out["energy"].energy_mj - inp.apply_truth_mj) / inp.apply_truth_mj * 100.0, "%")
    m["trace.overhead_s"] = (out["overhead_s"], "s")
    return m
