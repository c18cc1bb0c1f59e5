"""Internal sensor acquisition at maximum rate, with a replay backend.

Board sensors are exposed as kernel virtual files whose content is a
power value; reading the file samples the sensor. Actual node paths vary
across board models and kernel versions, so they live in a text device
profile rather than in code.

A node path of the form `replay:<trace.csv>` swaps the filesystem reader
for an in-memory replay of that trace, letting the whole pipeline run and
be tested with no hardware attached. The sampler keeps no sample it
delivers; `record` collects them in SampleBuffer, two append-only stdlib
array columns, and writes them with traces.write_columns, which finds
their runs without numpy, so recording loads no numpy.
"""

from __future__ import annotations

import bisect
import math
import time
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import (ERROR_RATE_LIMIT, InsufficientDataError, ProfileError,
                     SamplerFailedError, SensorReadError, undecodable)
from .traces import PowerSample, PowerTrace, canonical_device_id, write_columns

MODES = ("whole_board", "sum_rails")
UNIT_SCALE = {"mw": 1.0, "uw": 1e-3}

PROFILE_PATH_ENV = "JETCAL_PROFILE_PATH"
REPLAY_PREFIX = "replay:"

# ERROR_RATE_LIMIT is judged from this many read attempts on.
_ERROR_RATE_MIN_ATTEMPTS = 20

# A throttled sampler waits for its next tick in sleeps of at most this
# long, and asks should_stop after each.
_WAIT_SLICE_NS = 10_000_000


_EPOCH_OFFSET_NS = time.time_ns() - time.monotonic_ns()


def now_us() -> int:
    """Integer microseconds since the epoch, advancing with the monotonic clock.

    The wall clock is read once, at import, so a later wall-clock step
    cannot move timestamps back or compress the time between them.
    """
    return (_EPOCH_OFFSET_NS + time.monotonic_ns()) // 1000


# A dataclass, unlike the other records, because the benchmark rebuilds
# one with dataclasses.replace (bench/layers.py:136); only `record` loads it.
@dataclass(frozen=True)
class DeviceProfile:
    """Where and how to read a device's power sensor nodes."""

    device: str
    mode: str
    node_paths: tuple[str, ...]
    unit: str = "mw"
    time_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "device", canonical_device_id(self.device))
        object.__setattr__(self, "node_paths", tuple(self.node_paths))
        if self.mode not in MODES:
            raise ProfileError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.node_paths:
            raise ProfileError("profile needs at least one node path")
        if self.mode == "whole_board" and len(self.node_paths) != 1:
            raise ProfileError(
                f"whole_board mode takes exactly one node path, "
                f"got {len(self.node_paths)}"
            )
        if self.unit not in UNIT_SCALE:
            raise ProfileError(f"unit must be one of {tuple(UNIT_SCALE)}")
        if not (math.isfinite(self.time_scale) and self.time_scale > 0):
            raise ProfileError(f"time_scale must be positive and finite, "
                               f"got {self.time_scale}")


class SamplerStats(NamedTuple):
    """Outcome of one sampling run."""

    samples_taken: int
    achieved_rate_hz: float
    read_errors: int
    start_us: int
    end_us: int


class FileNodes:
    """Reads sensor values from real filesystem nodes, opening one per read.

    A node that cannot be read or holds no number raises SensorReadError.
    """

    def __init__(self, paths: Iterable[str]):
        self.paths = tuple(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def read(self, i: int) -> float:
        path = self.paths[i]
        try:
            with open(path, "r") as fh:
                return float(fh.read())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise SensorReadError(f"cannot read sensor node {path}: {exc}") from exc


class ReplayNodes:
    """Virtual sensor nodes that follow recorded traces as time advances.

    Each node serves one trace as a step function of virtual time, which
    starts at the trace origin on the first read and advances with the
    wall clock scaled by time_scale, which DeviceProfile checks. Past the
    end of a trace the last value holds. A deterministic clock (returning
    ns) can be injected for tests.
    """

    def __init__(self, traces: list[PowerTrace], time_scale: float = 1.0,
                 clock: Callable[[], int] = time.monotonic_ns):
        if not traces:
            raise ValueError("replay needs at least one trace")
        if any(len(t) == 0 for t in traces):
            raise InsufficientDataError("replay traces must be non-empty")
        self.traces = traces
        self.time_scale = time_scale
        self._clock = clock
        self._t0_ns: int | None = None
        self._timestamps = [list(map(int, t.timestamps_us)) for t in traces]

    def _virtual_us(self, trace_index: int) -> int:
        if self._t0_ns is None:
            self._t0_ns = self._clock()
        elapsed_us = (self._clock() - self._t0_ns) * self.time_scale / 1000.0
        # Capped past every int64 timestamp, where the last value holds, so
        # that a huge time_scale cannot make int() overflow.
        return self._timestamps[trace_index][0] + int(min(elapsed_us, 2.0 ** 63))

    def __len__(self) -> int:
        return len(self.traces)

    def read(self, i: int) -> float:
        ts = self._timestamps[i]
        pos = bisect.bisect_right(ts, self._virtual_us(i)) - 1
        return float(self.traces[i].values[max(pos, 0)])


def open_nodes(profile: DeviceProfile):
    """Node reader for a profile: replay nodes or real filesystem nodes."""
    replay = [p.startswith(REPLAY_PREFIX) for p in profile.node_paths]
    if all(replay):
        from .ingest import parse_trace

        traces = [parse_trace(p[len(REPLAY_PREFIX):], "internal_csv", profile.device)
                  for p in profile.node_paths]
        return ReplayNodes(traces, profile.time_scale)
    if any(replay):
        raise ProfileError("cannot mix replay: and filesystem node paths")
    return FileNodes(profile.node_paths)


def sample_once(profile: DeviceProfile, nodes) -> PowerSample:
    """Read the profile's node(s) once and return a power sample in mW.

    The timestamp is taken immediately before the first node read; for
    sum_rails the one pre-read timestamp stands for all rails, which are
    read back to back and summed. A non-finite total (a node reading nan
    or inf) raises SensorReadError, so the sampler counts it as a failed
    read like non-numeric node content.
    """
    ts = now_us()
    total = 0.0
    for i in range(len(nodes)):
        total += nodes.read(i)
    value = total * UNIT_SCALE[profile.unit]
    if not math.isfinite(value):
        raise SensorReadError(f"sensor read gave non-finite power {value!r}")
    return PowerSample(ts, value)


class SampleBuffer:
    """Single-producer sink that keeps the first maxlen samples in order.

    Two stdlib array columns, int64 timestamps ('q') and float64 values
    ('d'), grow by append up to maxlen samples; dropped counts the samples
    that came after. The sampler's SamplerStats counts the samples taken.
    write_csv writes the columns without numpy.
    """

    def __init__(self, maxlen: int = 1_000_000):
        self.maxlen = maxlen
        self.dropped = 0
        self._timestamps = array("q")
        self._values = array("d")

    def __len__(self) -> int:
        """Samples kept."""
        return len(self._values)

    def __call__(self, sample: PowerSample) -> None:
        if len(self._values) < self.maxlen:
            t, v = sample
            self._timestamps.append(t)
            self._values.append(v)
        else:
            self.dropped += 1

    def to_trace(self, device: str) -> PowerTrace:
        """A copy of the kept samples as an internal mW trace."""
        import numpy as np

        return PowerTrace(device, "internal", "mW",
                          np.frombuffer(self._timestamps[:], dtype=np.int64),
                          np.frombuffer(self._values[:], dtype=np.float64))

    def write_csv(self, path) -> None:
        """Write the kept samples as an internal_csv file with
        traces.write_columns, the trace CSV writer with the stdlib run
        finder."""
        write_columns(PowerTrace("unknown", "internal", "mW", self._timestamps, self._values),
                      path)


def run_sampler(profile: DeviceProfile, sink: Callable[[PowerSample], None],
                duration_s: float | None = None,
                should_stop: Callable[[], bool] | None = None,
                max_rate_hz: float | None = None,
                nodes=None) -> SamplerStats:
    """Sample in a tight loop until the deadline passes or should_stop fires.

    The loop does nothing but read, timestamp and deliver, so it runs at
    the maximum rate the nodes allow unless max_rate_hz throttles it. A
    throttled loop waits for its next tick, but not past the deadline, and
    asks should_stop while it waits. Clock ties are broken by bumping the
    timestamp one microsecond so the sink always sees strictly increasing
    timestamps. Read errors are counted and tolerated up to a 10% rate,
    then the run aborts: the rate is judged after every attempt from the
    20th on, before a successful read is delivered.
    """
    if duration_s is None and should_stop is None:
        raise ValueError("need a duration or a stop condition")
    if nodes is None:
        nodes = open_nodes(profile)
    # Floats, so that a tiny rate or a huge duration cannot overflow.
    period_ns = 1e9 / max_rate_hz if max_rate_hz else 0.0

    start_us = now_us()
    start_ns = time.monotonic_ns()
    deadline_ns = start_ns + duration_s * 1e9 if duration_s is not None else math.inf
    taken = 0
    errors = 0
    attempts = 0
    last_ts = 0

    while time.monotonic_ns() < deadline_ns and not (should_stop and should_stop()):
        attempts += 1
        try:
            sample = sample_once(profile, nodes)
        except SensorReadError:
            errors += 1
            sample = None
        if errors and attempts >= _ERROR_RATE_MIN_ATTEMPTS and \
                errors / attempts > ERROR_RATE_LIMIT:
            raise SamplerFailedError(errors, attempts)
        if sample is None:
            continue
        if sample.timestamp_us <= last_ts:
            sample = PowerSample(last_ts + 1, sample.value)
        last_ts = sample.timestamp_us
        sink(sample)
        taken += 1
        if period_ns:
            _wait(start_ns + taken * period_ns, deadline_ns, should_stop)

    end_us = now_us()
    elapsed_s = max((end_us - start_us) / 1e6, 1e-9)
    return SamplerStats(
        samples_taken=taken,
        achieved_rate_hz=taken / elapsed_s,
        read_errors=errors,
        start_us=start_us,
        end_us=end_us,
    )


def _wait(tick_ns: float, deadline_ns: float,
          should_stop: Callable[[], bool] | None) -> None:
    """Sleep until tick_ns, the deadline or should_stop, whichever comes first."""
    tick_ns = min(tick_ns, deadline_ns)
    while (lag_ns := tick_ns - time.monotonic_ns()) > 0:
        if should_stop is not None and should_stop():
            return
        time.sleep(min(lag_ns, _WAIT_SLICE_NS) / 1e9)


# Profile files are `key = value` lines; node_paths is comma-separated.
_PROFILE_KEYS = tuple(f.name for f in fields(DeviceProfile))


def load_profile(path) -> DeviceProfile:
    """Read a profile file; an unknown or repeated key is a ProfileError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, why = undecodable(exc)
        raise ProfileError(f"{path}:{line}: {why}") from None
    found: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or key not in _PROFILE_KEYS:
            raise ProfileError(f"{path}:{lineno}: unexpected line {raw!r}")
        if key in found:
            raise ProfileError(f"{path}:{lineno}: {key} given twice")
        if key == "node_paths":
            found[key] = tuple(p.strip() for p in value.split(",") if p.strip())
        elif key == "time_scale":
            try:
                found[key] = float(value)
            except ValueError:
                raise ProfileError(f"{path}:{lineno}: {key} {value!r} is not "
                                   f"a valid float") from None
        else:
            found[key] = value
    for required in ("device", "mode", "node_paths"):
        if required not in found:
            raise ProfileError(f"{path}: profile missing {required!r}")
    return DeviceProfile(**found)  # type: ignore[arg-type]


def resolve_profile(name_or_path: str) -> Path:
    """Find a profile by literal path, then via the search-path env var.

    The environment variable holds a colon-separated directory list; each
    directory is probed for `<name>` and `<name>.profile`.
    """
    import os

    literal = Path(name_or_path)
    if literal.is_file():
        return literal
    for directory in filter(None, os.environ.get(PROFILE_PATH_ENV, "").split(":")):
        for suffix in ("", ".profile"):
            candidate = Path(directory) / (name_or_path + suffix)
            if candidate.is_file():
                return candidate
    raise ProfileError(f"profile {name_or_path!r} not found "
                       f"(searched literal path and ${PROFILE_PATH_ENV})")
