"""jetcal benchmark: fresh `jetcal` CLI processes on seeded inputs.

    python3 bench/run.py --workload calibrate-scope --seed 1 --seconds 40 --trace 0

Run from a checkout holding `src/jetcal`. The run writes the workload's
input files from the seed, then drives the CLI as a closed loop from
this one single-threaded process, pinned to one CPU: one child at a
time, each timed from spawn to exit and reaped with wait4 for its peak
memory. A round runs every file command once, plus `record` unless the
workload records once per run; rounds repeat while another fits in
--seconds. Every output is checked. The last stdout line is a JSON
object with keys correct, attempted, failed and metrics: end-to-end
metrics (medians, rescaled to a reference machine speed) with --trace 0,
per-layer metrics from an in-process traced replay with --trace 1.
bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("calibrate-scope", "apply-recorded", "record-file")
COMMANDS = ("calibrate", "validate", "reject", "apply", "energy", "peak", "record")
E2E_TIMINGS = ("setup_s", "calibrate_s", "validate_s", "reject_s", "apply_s", "energy_s",
               "peak_s", "record_rate_hz", "record_flush_s")
SETUP_PROBES = 4      # before the first round; each round adds one more
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
MACHINE_NOTE = "2-vCPU x86 sandbox, not a Jetson"
# The reference job's nominal time; timings are rescaled to a machine that
# runs the job in exactly this long.
REF_S = 0.2
REF_WINDOW = 4

# The console script `jetcal` is jetcal.cli:main; run it the same way.
CLI = "import sys; from jetcal.cli import main; sys.exit(main())"
SETUP = "import jetcal.cli; jetcal.cli.build_parser(); print(jetcal.cli.__file__)"
IMPORT = ("import time; t = time.perf_counter(); import jetcal.cli; "
          "print(repr(time.perf_counter() - t))")
# A fixed job shaped like a CLI command that uses no jetcal code: start
# Python, import numpy, parse a CSV, build an array.
REFERENCE = """
import csv, io
import numpy as np
text = "\\n".join(f"{i},{i * 0.37!r}" for i in range(40000))
values = [float(v) for _, v in csv.reader(io.StringIO(text))]
print(repr(float(np.cumsum(np.array(values))[-1])))
"""


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Child:
    """One finished CLI process."""

    def __init__(self, rc, started, wall_s, max_rss_mb, stdout, stderr):
        self.rc = rc
        self.started = started
        self.wall_s = wall_s
        self.max_rss_mb = max_rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.result = checks.json_result(stdout)


class Spawner:
    """Runs Python children one at a time in the work directory."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.refs: list[Child] = []

    def run(self, code: str, *args) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        limit = min(CHILD_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, t0, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))

    def reference(self) -> None:
        """Time the reference job once more."""
        ref = self.run(REFERENCE)
        if ref.rc != 0:
            raise RuntimeError(f"reference job failed: {ref.stderr.strip()[-300:]}")
        self.refs.append(ref)

    def speed(self, c: Child) -> float:
        """How fast the machine ran around child c, as REF_S over the median
        reference time of the REF_WINDOW reference runs nearest in time.

        On a shared 2-vCPU x86 VM the speed drifted by 15% within a minute
        and by 40% between minutes, and every CLI child's wall time followed
        it. The reference job, a child of the same shape that runs no jetcal
        code, follows it too. So a timing times this speed is what the child
        would have taken on a machine that runs the reference in REF_S.
        """
        near = sorted(self.refs, key=lambda r: abs(r.started - c.started))[:REF_WINDOW]
        return REF_S / statistics.median(r.wall_s for r in near)

    def cli(self, *args) -> Child:
        return self.run(CLI, *args, "--json")


class Tally:
    """Operations attempted and failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct &= all(p.kind == checks.LOST for p in problems)
            for p in problems:
                print(f"check failed: {what}: {p.kind}: {p.message}", file=sys.stderr)


def file_commands(sp: Spawner, inp, expected_mj: float, tally: Tally,
                  samples: dict[str, list[Child]]) -> None:
    """calibrate, validate, the reject probe, apply, energy and peak, checked."""
    def timed(key: str, c: Child) -> Child:
        samples[key].append(c)
        return c

    c = timed("calibrate", sp.cli("calibrate", inp.internal_csv, inp.external_csv,
                                  "--device", inputs.DEVICE, "--out-model", "fit.model"))
    tally.add("calibrate", checks.check_calibrate(
        c.rc, c.result, inputs.MODEL, inp.power_range_mw, inputs.INTERNAL_NOISE * 100))

    c = timed("validate", sp.cli("validate", inp.internal_csv, inp.external_csv,
                                 "--device", inputs.DEVICE))
    tally.add("validate", checks.check_validate(c.rc, c.result))

    c = timed("reject", sp.cli("calibrate", inp.internal_csv, inp.reject_csv,
                               "--device", inputs.DEVICE))
    tally.add("reject", checks.check_reject(c.rc, c.stderr, inp.reject_csv, inp.reject_line))

    calibrated = sp.work / "calibrated.csv"
    c = timed("apply", sp.cli("apply", inp.apply_csv, "--device", inputs.DEVICE,
                              "--out", calibrated))
    tally.add("apply", checks.check_apply(c.rc, c.result, len(inp.apply_raw)))

    c = timed("energy", sp.cli("energy", calibrated))
    tally.add("energy", checks.check_energy(c.rc, c.result, expected_mj))
    # Untimed: the next apply then writes a new file rather than truncating
    # one whose pages may still be under writeback.
    calibrated.unlink(missing_ok=True)

    c = timed("peak", sp.cli("peak", inp.boot_csv, "--threshold",
                             repr(inp.boot_threshold_ma)))
    tally.add("peak", checks.check_peak(c.rc, c.result, inp.boot_peak_ma, inp.boot_peak_us))


def record(sp: Spawner, inp, tally: Tally, samples: dict[str, list[Child]],
           key: str, duration_s: float) -> None:
    """`record --duration`, checked against the node it polled."""
    out = sp.work / "recorded.out.csv"
    c = sp.cli("record", "--profile", inp.profile, "--duration", repr(duration_s),
               "--out", out)
    samples[key].append(c)
    data = out.read_bytes() if out.is_file() else None
    tally.add(key, checks.check_record(c.rc, c.result, data, inp.node_value_mw))
    out.unlink(missing_ok=True)


def probe(sp: Spawner, code: str, tally: Tally, times: int) -> list[Child]:
    """Fresh processes that only start up."""
    children = []
    for _ in range(times):
        c = sp.run(code)
        ok = c.rc == 0 and c.stdout.strip()
        tally.add("setup", [] if ok else [checks.Problem(checks.LOST, f"exit code {c.rc}")])
        children.append(c)
    return children


def stamp(workload: str, seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "note": MACHINE_NOTE,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    machine = stamp(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    # The host's CPUs drift in speed independently, so the reference job
    # must run where the CLI children run: pin this process to one CPU,
    # and every child inherits it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inp = inputs.generate(args.workload, args.seed, work)
    expected_mj = models.integrate_energy(
        models.apply_trace(inputs.MODEL, inp.apply_raw)).energy_mj

    sp = Spawner(work, started)
    # Fills the bytecode cache before anything is timed, and proves the
    # children import the checkout's jetcal and no other.
    warm = sp.run(SETUP)
    if warm.rc != 0 or not warm.stdout.strip().startswith(str(SRC)):
        print(f"error: children cannot import jetcal from {SRC}: "
              f"{warm.stdout.strip()} {warm.stderr.strip()[-500:]}", file=sys.stderr)
        return 2

    tally = Tally()
    samples: dict[str, list[Child]] = defaultdict(list)
    t0 = time.perf_counter()
    sp.reference()
    samples["setup"] += probe(sp, SETUP, tally, SETUP_PROBES)
    if inp.long_record_s:
        # Checked and kept in the report, but not a metric: no reference
        # run can follow the host's drift through one child this long.
        record(sp, inp, tally, samples, "long_record", inp.long_record_s)
    rounds = 0
    while True:
        r0 = time.perf_counter()
        sp.reference()
        file_commands(sp, inp, expected_mj, tally, samples)
        sp.reference()
        record(sp, inp, tally, samples, "record", inputs.RECORD_S)
        samples["setup"] += probe(sp, SETUP, tally, 1)
        rounds += 1
        now = time.perf_counter()
        if now + (now - r0) > t0 + args.seconds:
            break
    sp.reference()

    def rate_hz(c: Child) -> float:
        return (c.result or {}).get("achieved_rate_hz", float("nan"))

    # Raw and rescaled values of every sample, by end-to-end metric.
    raw, scaled = {}, {}
    for key in ("setup", *COMMANDS):
        raw[f"{key}_s"] = [c.wall_s for c in samples[key]]
        scaled[f"{key}_s"] = [c.wall_s * sp.speed(c) for c in samples[key]]
    raw["record_rate_hz"] = [rate_hz(c) for c in samples["record"]]
    scaled["record_rate_hz"] = [rate_hz(c) / sp.speed(c) for c in samples["record"]]
    raw["record_flush_s"] = [c.wall_s - inputs.RECORD_S for c in samples["record"]]
    scaled["record_flush_s"] = [(c.wall_s - inputs.RECORD_S) * sp.speed(c)
                                for c in samples["record"]]
    raw["long_record"] = [dict(wall_s=c.wall_s, rate_hz=rate_hz(c))
                          for c in samples["long_record"]]

    if args.trace:
        tracer = Tracer(args.workload, f"{args.workload}-{args.seed}-{os.getpid()}")
        imports = [float(c.stdout) for c in probe(sp, IMPORT, tally, SETUP_PROBES)
                   if c.rc == 0]
        out = layers.measure(tracer, inp, work)
        # Spans time raw in-process calls, so they are set against raw walls.
        # The traced record runs as long as the run's longest record.
        cli_wall = {command: statistics.median(raw[f"{command}_s"])
                    for command in COMMANDS}
        if inp.long_record_s:
            cli_wall["record"] = samples["long_record"][0].wall_s
        metrics = layers.metrics(tracer, out, inp, cli_wall,
                                 statistics.median(raw["setup_s"]),
                                 statistics.median(imports or [float("nan")]))
    else:
        units = {"record_rate_hz": "Hz"}
        metrics = {key: (statistics.median(scaled[key]), units.get(key, "s"))
                   for key in E2E_TIMINGS}
        metrics["max_rss_mb"] = (max(c.max_rss_mb for cs in samples.values() for c in cs),
                                 "MB")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = dict(machine=machine, rounds=rounds, result=result,
                  reference_s=dict(nominal=REF_S, runs=[r.wall_s for r in sp.refs]),
                  raw=raw, scaled=scaled)
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        tracer.write(report_path, report)
    else:
        report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine, "rounds": rounds, "report": str(report_path)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "jetcal" / "cli.py").is_file():
        print(f"error: no jetcal sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import inputs
    import layers
    from jetcal import models
    from tracing import Tracer

    sys.exit(main())
