"""Internal sensor acquisition at maximum rate, with a replay backend.

Board sensors are exposed as kernel virtual files whose content is a
power value; reading the file samples the sensor. Actual node paths vary
across board models and kernel versions, so they live in a text device
profile rather than in code.

A node path of the form `replay:<trace.csv>` swaps the filesystem reader
for an in-memory replay of that trace, letting the whole pipeline run and
be tested with no hardware attached.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .errors import ProfileError, SamplerFailedError, SensorReadError
from .traces import PowerSample, PowerTrace, canonical_device_id

MODES = ("whole_board", "sum_rails")
UNIT_SCALE = {"mw": 1.0, "uw": 1e-3}

PROFILE_PATH_ENV = "JETCAL_PROFILE_PATH"
REPLAY_PREFIX = "replay:"

# Abort the sampling loop when more than this fraction of reads fail.
ERROR_RATE_LIMIT = 0.10
_ERROR_RATE_MIN_ATTEMPTS = 20


def now_us() -> int:
    """Wall-clock time in integer microseconds since the epoch."""
    return time.time_ns() // 1000


@dataclass(frozen=True)
class DeviceProfile:
    """Where and how to read a device's power sensor nodes."""

    device: str
    mode: str
    node_paths: tuple[str, ...]
    rail_names: tuple[str, ...] = ()
    coil_turns: int = 10
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
        rails = tuple(self.rail_names)
        if not rails:
            rails = tuple(f"rail{i}" for i in range(len(self.node_paths)))
        if len(rails) != len(self.node_paths):
            raise ProfileError(
                f"{len(rails)} rail names for {len(self.node_paths)} node paths"
            )
        object.__setattr__(self, "rail_names", rails)
        if self.coil_turns < 1:
            raise ProfileError(f"coil_turns must be >= 1, got {self.coil_turns}")
        if self.unit not in UNIT_SCALE:
            raise ProfileError(f"unit must be one of {tuple(UNIT_SCALE)}")
        if not self.time_scale > 0:
            raise ProfileError(f"time_scale must be positive, got {self.time_scale}")


@dataclass(frozen=True)
class SamplerStats:
    """Outcome of one sampling run."""

    samples_taken: int
    achieved_rate_hz: float
    read_errors: int
    start_us: int
    end_us: int
    dropped: int = 0


class FileNodes:
    """Reads sensor values from real filesystem nodes."""

    def __init__(self, paths: Iterable[str]):
        self.paths = tuple(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def read(self, i: int) -> float:
        path = self.paths[i]
        try:
            with open(path, "r") as fh:
                content = fh.read().strip()
        except OSError as exc:
            raise SensorReadError(f"cannot read sensor node {path}: {exc}") from exc
        try:
            return float(content)
        except ValueError:
            raise SensorReadError(
                f"sensor node {path} contains non-numeric data {content!r}"
            ) from None


class ReplayNodes:
    """Virtual sensor nodes that follow recorded traces as time advances.

    Each node serves one trace as a step function of virtual time, which
    starts at the trace origin on the first read and advances with the
    wall clock scaled by time_scale. Past the end of a trace the last
    value holds. A deterministic clock (returning ns) can be injected for
    tests.
    """

    def __init__(self, traces: list[PowerTrace], time_scale: float = 1.0,
                 clock: Callable[[], int] = time.monotonic_ns):
        if not traces:
            raise ValueError("replay needs at least one trace")
        if any(len(t) == 0 for t in traces):
            raise ValueError("replay traces must be non-empty")
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.traces = traces
        self.time_scale = time_scale
        self._clock = clock
        self._t0_ns: int | None = None
        self._timestamps = [list(map(int, t.timestamps_us)) for t in traces]

    def _virtual_us(self, trace_index: int) -> int:
        if self._t0_ns is None:
            self._t0_ns = self._clock()
        elapsed_us = (self._clock() - self._t0_ns) * self.time_scale / 1000.0
        return self._timestamps[trace_index][0] + int(elapsed_us)

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


def sample_once(profile: DeviceProfile, nodes=None) -> PowerSample:
    """Read the profile's node(s) once and return a power sample in mW.

    The timestamp is taken immediately before the first node read; for
    sum_rails the one pre-read timestamp stands for all rails, which are
    read back to back and summed.
    """
    if nodes is None:
        nodes = open_nodes(profile)
    ts = now_us()
    total = 0.0
    for i in range(len(nodes)):
        total += nodes.read(i)
    return PowerSample(ts, total * UNIT_SCALE[profile.unit])


class SampleBuffer:
    """Bounded single-producer buffer that drops the oldest on overflow."""

    def __init__(self, maxlen: int = 1_000_000):
        self._deque: deque[PowerSample] = deque()
        self.maxlen = maxlen
        self.dropped = 0

    def __call__(self, sample: PowerSample) -> None:
        if len(self._deque) >= self.maxlen:
            self._deque.popleft()
            self.dropped += 1
        self._deque.append(sample)

    def __len__(self) -> int:
        return len(self._deque)

    def drain(self) -> list[PowerSample]:
        out = []
        while self._deque:
            out.append(self._deque.popleft())
        return out

    def to_trace(self, device: str, source: str = "internal",
                 unit: str = "mW") -> PowerTrace:
        return PowerTrace.from_samples(device, source, unit, self.drain())


def run_sampler(profile: DeviceProfile, sink: Callable[[PowerSample], None],
                duration_s: float | None = None,
                should_stop: Callable[[], bool] | None = None,
                max_rate_hz: float | None = None,
                nodes=None) -> SamplerStats:
    """Sample in a tight loop until the stop condition fires.

    The loop does nothing but read, timestamp and deliver, so it runs at
    the maximum rate the nodes allow unless max_rate_hz throttles it.
    Clock ties are broken by bumping the timestamp one microsecond so the
    sink always sees strictly increasing timestamps. Read errors are
    counted and tolerated up to a 10% rate, then the run aborts.
    """
    if duration_s is None and should_stop is None:
        raise ValueError("need a duration or a stop condition")
    if nodes is None:
        nodes = open_nodes(profile)
    period_ns = int(1e9 / max_rate_hz) if max_rate_hz else 0

    start_us = now_us()
    start_ns = time.monotonic_ns()
    deadline_ns = start_ns + int(duration_s * 1e9) if duration_s is not None else None
    taken = 0
    errors = 0
    attempts = 0
    last_ts = 0
    next_tick_ns = start_ns

    while True:
        if should_stop is not None and should_stop():
            break
        if deadline_ns is not None and time.monotonic_ns() >= deadline_ns:
            break
        attempts += 1
        try:
            sample = sample_once(profile, nodes)
        except SensorReadError:
            errors += 1
            if attempts >= _ERROR_RATE_MIN_ATTEMPTS and \
                    errors / attempts > ERROR_RATE_LIMIT:
                raise SamplerFailedError(errors, attempts) from None
            continue
        if sample.timestamp_us <= last_ts:
            sample = PowerSample(last_ts + 1, sample.value)
        last_ts = sample.timestamp_us
        sink(sample)
        taken += 1
        if period_ns:
            next_tick_ns += period_ns
            lag = next_tick_ns - time.monotonic_ns()
            if lag > 0:
                time.sleep(lag / 1e9)

    end_us = now_us()
    elapsed_s = max((end_us - start_us) / 1e6, 1e-9)
    return SamplerStats(
        samples_taken=taken,
        achieved_rate_hz=taken / elapsed_s,
        read_errors=errors,
        start_us=start_us,
        end_us=end_us,
        dropped=getattr(sink, "dropped", 0),
    )


# Profile files are `key = value` lines; list values are comma-separated.
_LIST_KEYS = ("node_paths", "rail_names")
_NUMBER_KEYS = {"coil_turns": int, "time_scale": float}
_PROFILE_KEYS = ("device", "mode", "node_paths", "rail_names",
                 "coil_turns", "unit", "time_scale")


def load_profile(path) -> DeviceProfile:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ProfileError(f"{path}:{line}: not UTF-8 text: "
                           f"cannot decode byte 0x{data[exc.start]:02x}") from None
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or key not in _PROFILE_KEYS:
            raise ProfileError(f"{path}:{lineno}: unexpected line {raw!r}")
        if key in _LIST_KEYS:
            fields[key] = tuple(p.strip() for p in value.split(",") if p.strip())
        elif key in _NUMBER_KEYS:
            convert = _NUMBER_KEYS[key]
            try:
                fields[key] = convert(value)
            except ValueError:
                raise ProfileError(f"{path}:{lineno}: {key} {value!r} is not "
                                   f"a valid {convert.__name__}") from None
        else:
            fields[key] = value
    for required in ("device", "mode", "node_paths"):
        if required not in fields:
            raise ProfileError(f"{path}: profile missing {required!r}")
    return DeviceProfile(**fields)  # type: ignore[arg-type]


def resolve_profile(name_or_path: str, search_env: str = PROFILE_PATH_ENV) -> Path:
    """Find a profile by literal path, then via the search-path env var.

    The environment variable holds a colon-separated directory list; each
    directory is probed for `<name>` and `<name>.profile`.
    """
    import os

    literal = Path(name_or_path)
    if literal.is_file():
        return literal
    candidates = []
    for directory in os.environ.get(search_env, "").split(":"):
        if not directory:
            continue
        for suffix in ("", ".profile"):
            candidates.append(Path(directory) / (name_or_path + suffix))
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise ProfileError(f"profile {name_or_path!r} not found "
                       f"(searched literal path and ${search_env})")
