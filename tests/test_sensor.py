"""The live sampler: buffer, clock, replay nodes, read-error rule, profiles.

The buffer is checked against the first `maxlen` samples it is fed and
the CSV it writes against one repr per row, the clock and the replay nodes
against injected fake clocks, and the error rule against node stubs that
fail on a chosen set of reads.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcal import ingest, sensor, traces
from jetcal.errors import ProfileError, SamplerFailedError, SensorReadError
from jetcal.traces import PowerSample, PowerTrace

from conftest import TRICKY, chunk_edge_rows, make_trace, oracle_trace_csv, recording_writes

PROFILE = sensor.DeviceProfile(device="nano", mode="whole_board", node_paths=("stub",))


class StubNodes:
    """One node that reads 1000 mW, except on the reads `bad(k)` picks.

    `k` counts reads from 1. A bad read raises SensorReadError or returns
    the non-finite `bad_value`.
    """

    def __init__(self, bad, bad_value=None):
        self.bad = bad
        self.bad_value = bad_value
        self.reads = 0

    def __len__(self):
        return 1

    def read(self, i):
        self.reads += 1
        if not self.bad(self.reads):
            return 1000.0
        if self.bad_value is None:
            raise SensorReadError("stub read failed")
        return self.bad_value


def sample_reads(nodes, reads):
    """run_sampler over `reads` node reads; the delivered samples and stats."""
    samples = []
    stats = sensor.run_sampler(PROFILE, samples.append,
                               should_stop=lambda: nodes.reads >= reads, nodes=nodes)
    return samples, stats


# ── SampleBuffer ────────────────────────────────────────────────────────

@settings(max_examples=300, deadline=None)
@given(maxlen=st.integers(1, 20),
       gaps=st.lists(st.integers(1, 10**6), max_size=100),
       data=st.data())
def test_buffer_keeps_the_first_maxlen_samples_in_order(maxlen, gaps, data):
    timestamps = list(itertools.accumulate(gaps, initial=1_700_000_000_000_000))[1:]
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(gaps), max_size=len(gaps)))
    buffer = sensor.SampleBuffer(maxlen)
    for sample in map(PowerSample, timestamps, values):
        buffer(sample)
    trace = buffer.to_trace("nano")
    assert np.array_equal(trace.timestamps_us, timestamps[:maxlen])
    assert np.array_equal(trace.values, values[:maxlen])
    assert (len(buffer), buffer.dropped) == (min(len(gaps), maxlen), max(0, len(gaps) - maxlen))
    assert (trace.device, trace.source, trace.unit) == ("nano", "internal", "mW")


def test_trace_is_a_copy_of_the_buffer():
    buffer = sensor.SampleBuffer(3)
    for k in range(1, 3):
        buffer(PowerSample(k, float(k)))
    before = buffer.to_trace("nano")
    buffer(PowerSample(3, 3.0))
    assert before.timestamps_us.tolist() == [1, 2]
    full = buffer.to_trace("nano")
    buffer(PowerSample(4, 4.0))
    assert full.timestamps_us.tolist() == [1, 2, 3]
    assert buffer.to_trace("nano").timestamps_us.tolist() == [1, 2, 3]
    assert buffer.dropped == 1


@settings(max_examples=300, deadline=None)
@given(maxlen=st.integers(1, 12),
       pool=st.lists(st.sampled_from(TRICKY) | st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), max_size=40),
       steps=st.lists(st.integers(1, 2**40), min_size=40, max_size=40),
       t0=st.integers(0, 2**62),
       chunk_rows=st.sampled_from([1, 2, 3, traces.CHUNK_ROWS]))
@example(maxlen=5, pool=[0.0, -0.0, 5e-324], picks=[0, 1, 1, 0, 2, 1, 0],
         steps=[1] * 40, t0=0, chunk_rows=traces.CHUNK_ROWS)
def test_written_csv_is_one_repr_per_kept_row(tmp_path_factory, maxlen, pool, picks, steps,
                                              t0, chunk_rows):
    # Picks into a small pool repeat values both next to each other and
    # apart; up to 40 samples into at most 12 rows overflow the buffer.
    values = [pool[i % len(pool)] for i in picks]
    buffer = sensor.SampleBuffer(maxlen)
    for sample in map(PowerSample, itertools.accumulate(steps, initial=t0), values):
        buffer(sample)
    d = tmp_path_factory.mktemp("record")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "CHUNK_ROWS", chunk_rows)
        buffer.write_csv(d / "buffer.csv")
        trace = buffer.to_trace("nano")
        ingest.write_trace(trace, d / "trace.csv")
    assert (d / "buffer.csv").read_bytes() == oracle_trace_csv(trace)
    assert (d / "trace.csv").read_bytes() == oracle_trace_csv(trace)


def test_runs_across_chunk_edges_write_one_chunk_at_a_time(tmp_path):
    # Five samples after the buffer is full are dropped and write nothing.
    ts, values = chunk_edge_rows(traces.CHUNK_ROWS)
    buffer = sensor.SampleBuffer(len(ts))
    extra = range(ts[-1] + 1, ts[-1] + 6)
    for sample in itertools.chain(map(PowerSample, ts, values),
                                  map(PowerSample, extra, [1.0] * 5)):
        buffer(sample)
    with recording_writes(traces) as writes:
        buffer.write_csv(tmp_path / "rec.csv")
    assert buffer.dropped == 5
    assert (tmp_path / "rec.csv").read_bytes() == oracle_trace_csv(make_trace(ts, values))
    assert [text.count("\n") for text in writes] == [1] + [traces.CHUNK_ROWS] * 3 + [5]


# ── clock ───────────────────────────────────────────────────────────────

def test_timestamps_follow_monotonic_clock_across_wall_clock_step(monkeypatch):
    """A wall clock stepped back an hour mid-run leaves every gap intact."""
    steps = itertools.cycle([2_000, 7_000, 3_000, 250_000, 4_000])
    mono = [10**12]

    def monotonic_ns():
        mono[0] += next(steps)
        return mono[0]

    wall_reads = itertools.count()

    def time_ns():
        back = 3_600 * 10**9 if next(wall_reads) >= 50 else 0
        return 1_700_000_000 * 10**9 + mono[0] - back

    monkeypatch.setattr(sensor.time, "monotonic_ns", monotonic_ns)
    monkeypatch.setattr(sensor.time, "time_ns", time_ns)
    timestamps, mono_at_read = [], []

    def sink(sample):
        timestamps.append(sample.timestamp_us)
        mono_at_read.append(mono[0])

    nodes = StubNodes(lambda k: False)
    sensor.run_sampler(PROFILE, sink, should_stop=lambda: nodes.reads >= 200,
                       nodes=nodes)
    assert len(timestamps) == 200
    assert np.array_equal(np.diff(timestamps), np.diff(mono_at_read) // 1000)


def test_clock_ties_are_bumped_one_microsecond_apart(monkeypatch):
    c = 1_700_000_000_000_000
    monkeypatch.setattr(sensor, "now_us", lambda: c)
    samples, stats = sample_reads(StubNodes(lambda k: False), 5)
    assert [s.timestamp_us for s in samples] == [c, c + 1, c + 2, c + 3, c + 4]
    assert stats.samples_taken == 5


# ── ReplayNodes ─────────────────────────────────────────────────────────

def replay(time_scale=1.0):
    clock = [5 * 10**9]
    trace = make_trace([1_000, 2_000, 5_000], [10.0, 20.0, 30.0])
    return sensor.ReplayNodes([trace], time_scale, clock=lambda: clock[0]), clock


@pytest.mark.parametrize("elapsed_us, value", [
    (0, 10.0), (999, 10.0), (1_000, 20.0), (3_999, 20.0), (4_000, 30.0),
    (10**9, 30.0),
])
def test_replay_is_a_step_function_that_holds_the_last_value(elapsed_us, value):
    nodes, clock = replay()
    assert nodes.read(0) == 10.0  # the first read starts virtual time
    clock[0] += elapsed_us * 1000
    assert nodes.read(0) == value


@pytest.mark.parametrize("time_scale, elapsed_us, value", [
    (2.0, 499, 10.0), (2.0, 500, 20.0), (2.0, 2_000, 30.0),
    (0.5, 1_999, 10.0), (0.5, 2_000, 20.0),
])
def test_replay_time_scale_speeds_virtual_time(time_scale, elapsed_us, value):
    nodes, clock = replay(time_scale)
    nodes.read(0)
    clock[0] += elapsed_us * 1000
    assert nodes.read(0) == value


# ── the 10% read-error rule ─────────────────────────────────────────────

@pytest.mark.parametrize("bad_value", [None, math.nan, math.inf, -math.inf])
def test_failures_on_one_read_in_ten_are_tolerated(bad_value):
    samples, stats = sample_reads(StubNodes(lambda k: k % 10 == 0, bad_value), 200)
    assert (stats.samples_taken, stats.read_errors) == (180, 20)
    assert len(samples) == 180
    assert all(s.value == 1000.0 for s in samples)


@pytest.mark.parametrize("bad_value", [None, math.nan, math.inf])
def test_failures_on_one_read_in_five_abort_at_twenty_attempts(bad_value):
    with pytest.raises(SamplerFailedError) as exc:
        sample_reads(StubNodes(lambda k: k % 5 == 0, bad_value), 200)
    assert (exc.value.read_errors, exc.value.attempts) == (4, 20)


@pytest.mark.parametrize("bad_reads, aborts", [
    ({1, 20}, False),             # 2/20 at attempt 20: not above 10%
    ({1, 2, 20}, True),           # 3/20 at attempt 20
    (set(range(1, 20)), True),    # 19/20 at attempt 20, which succeeds
])
def test_rate_is_judged_at_failed_reads_from_attempt_twenty(bad_reads, aborts):
    nodes = StubNodes(lambda k: k in bad_reads, math.nan)
    if aborts:
        with pytest.raises(SamplerFailedError) as exc:
            sample_reads(nodes, 200)
        assert (exc.value.read_errors, exc.value.attempts) == (len(bad_reads), 20)
    else:
        _, stats = sample_reads(nodes, 200)
        assert (stats.samples_taken, stats.read_errors) == (200 - len(bad_reads),
                                                            len(bad_reads))


def rule_oracle(bad, reads):
    """(errors, attempt) of the first abort over `reads` reads, or None.

    The run aborts at the first attempt k >= 20 that is a failed read, or
    is attempt 20, where errors / k > 10%.
    """
    errors = 0
    for k in range(1, reads + 1):
        errors += k in bad
        if k >= 20 and (k in bad or k == 20) and errors / k > 0.1:
            return errors, k
    return None


@settings(max_examples=300, deadline=None)
@given(bad=st.sets(st.integers(1, 60)), bad_value=st.sampled_from([None, math.nan]))
@example(bad={1, 2, 3}, bad_value=None)        # 3/20 at attempt 20, which succeeds
@example(bad={1, 2, 21}, bad_value=None)       # 2/20 passes, 3/21 aborts
@example(bad={20, 40, 60}, bad_value=math.nan)  # 1/20, 2/40, 3/60: never above
@example(bad={1, 2, *range(54, 59)}, bad_value=None)  # 2/20 and 5/56 pass, 6/57 aborts
def test_rate_rule_matches_its_oracle(bad, bad_value):
    samples = []
    nodes = StubNodes(lambda k: k in bad, bad_value)

    def run():
        return sensor.run_sampler(PROFILE, samples.append,
                                  should_stop=lambda: nodes.reads >= 60, nodes=nodes)

    verdict = rule_oracle(bad, 60)
    if verdict is None:
        stats = run()
        assert (stats.samples_taken, stats.read_errors) == (60 - len(bad), len(bad))
        assert len(samples) == 60 - len(bad)
        return
    with pytest.raises(SamplerFailedError) as exc:
        run()
    errors, k = verdict
    assert (exc.value.read_errors, exc.value.attempts) == verdict
    # The aborting attempt delivers nothing, whether its read failed or not.
    assert len(samples) == k - errors - (k not in bad)


def test_node_that_always_fails_aborts_at_twenty_attempts():
    with pytest.raises(SamplerFailedError) as exc:
        sample_reads(StubNodes(lambda k: True, math.nan), 200)
    assert (exc.value.read_errors, exc.value.attempts) == (20, 20)


class FixedRails:
    def __init__(self, *values):
        self.values = values

    def __len__(self):
        return len(self.values)

    def read(self, i):
        return self.values[i]


@pytest.mark.parametrize("content", [None, b"abc\n", b"", b"\xff"],
                         ids=["missing", "non-numeric", "empty", "undecodable"])
def test_file_node_read_errors_name_the_node(tmp_path, content):
    node = tmp_path / "node"
    if content is not None:
        node.write_bytes(content)
    with pytest.raises(SensorReadError) as exc:
        sensor.FileNodes([str(node)]).read(0)
    assert str(node) in str(exc.value)


def test_file_node_reads_a_number_between_whitespace(tmp_path):
    (tmp_path / "node").write_text(" \t4321.5 \n")
    assert sensor.FileNodes([str(tmp_path / "node")]).read(0) == 4321.5


def test_sample_once_rejects_rails_that_sum_to_infinity():
    profile = sensor.DeviceProfile("nano", "sum_rails", ("a", "b"))
    with pytest.raises(SensorReadError, match="non-finite power inf"):
        sensor.sample_once(profile, FixedRails(1e308, 1e308))


# ── profiles ────────────────────────────────────────────────────────────

def write_profile(path, *lines):
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


HEADER = ("device = nano", "mode = whole_board")


def test_profile_found_on_search_path_with_and_without_suffix(monkeypatch, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    plain = write_profile(first / "plain", *HEADER, "node_paths = a")
    suffixed = write_profile(second / "board.profile", *HEADER, "node_paths = b")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(sensor.PROFILE_PATH_ENV, f"{first}::{second}")
    assert sensor.resolve_profile("plain") == plain
    assert sensor.resolve_profile("board") == suffixed
    assert sensor.load_profile(sensor.resolve_profile("board")).node_paths == ("b",)


def test_empty_search_path_entries_are_skipped(monkeypatch, tmp_path):
    # Were an empty entry the working directory, it would find the
    # board.profile there before the search path's.
    (tmp_path / "dir").mkdir()
    write_profile(tmp_path / "board.profile", *HEADER, "node_paths = a")
    found = write_profile(tmp_path / "dir" / "board.profile", *HEADER, "node_paths = b")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(sensor.PROFILE_PATH_ENV, f":{tmp_path / 'dir'}:")
    assert sensor.resolve_profile("board") == found
    monkeypatch.setenv(sensor.PROFILE_PATH_ENV, "::")
    with pytest.raises(ProfileError, match="profile 'board' not found"):
        sensor.resolve_profile("board")


def test_literal_path_wins_over_search_path(monkeypatch, tmp_path):
    literal = write_profile(tmp_path / "board", *HEADER, "node_paths = a")
    (tmp_path / "dir").mkdir()
    write_profile(tmp_path / "dir" / "board", *HEADER, "node_paths = b")
    monkeypatch.setenv(sensor.PROFILE_PATH_ENV, str(tmp_path / "dir"))
    assert sensor.resolve_profile(str(literal)) == literal


def test_profile_not_found(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(sensor.PROFILE_PATH_ENV, str(tmp_path))
    with pytest.raises(ProfileError, match="profile 'pluto' not found"):
        sensor.resolve_profile("pluto")


def test_mixed_replay_and_file_nodes_rejected(tmp_path):
    profile = sensor.load_profile(write_profile(
        tmp_path / "mixed", "device = nano", "mode = sum_rails",
        f"node_paths = replay:{tmp_path / 'trace.csv'}, {tmp_path / 'node'}"))
    with pytest.raises(ProfileError, match="cannot mix replay: and filesystem"):
        sensor.open_nodes(profile)


def test_whole_board_with_two_paths_rejected(tmp_path):
    path = write_profile(tmp_path / "two", *HEADER, "node_paths = a, b")
    with pytest.raises(ProfileError, match="whole_board mode takes exactly one "
                                           "node path, got 2"):
        sensor.load_profile(path)


@pytest.mark.parametrize("line", ["rail_names = vdd_in", "coil_turns = 10"])
def test_removed_profile_keys_rejected_at_their_line(tmp_path, line):
    path = write_profile(tmp_path / "old", *HEADER, "node_paths = a", line)
    with pytest.raises(ProfileError) as exc:
        sensor.load_profile(path)
    assert str(exc.value) == f"{path}:4: unexpected line {line!r}"


@pytest.mark.parametrize("line", ["device = tx2", "node_paths = b"])
def test_a_key_given_twice_is_rejected_at_its_line(tmp_path, line):
    path = write_profile(tmp_path / "twice", *HEADER, "node_paths = a", line)
    with pytest.raises(ProfileError) as exc:
        sensor.load_profile(path)
    assert str(exc.value) == f"{path}:4: {line.split()[0]} given twice"


# ── the calls the benchmark's traced record run makes ───────────────────

def test_traced_record_calls_still_work(tmp_path):
    """Every sensor call that bench/layers.py's run_record makes, in order."""
    node = tmp_path / "node"
    node.write_text("4321\n")
    profile = sensor.load_profile(write_profile(
        tmp_path / "board.profile", *HEADER, "node_paths = elsewhere", "unit = mw"))
    profile = dataclasses.replace(profile, node_paths=(str(node),))
    nodes = sensor.FileNodes(profile.node_paths)
    assert nodes.read(0) == 4321.0
    assert sensor.sample_once(profile, nodes).value == 4321.0
    appender = sensor.SampleBuffer()
    for sample in [PowerSample(i + 1, 4321.0) for i in range(100)]:
        appender(sample)

    buffer = sensor.SampleBuffer()
    timestamps = []

    def sink(sample):
        timestamps.append(sample.timestamp_us)
        buffer(sample)

    stats = sensor.run_sampler(profile, sink, duration_s=0.02)
    trace = buffer.to_trace(profile.device)
    assert isinstance(trace, PowerTrace)
    assert buffer.dropped == 0 and stats.read_errors == 0
    assert len(trace) == stats.samples_taken == len(timestamps) > 0
    assert stats.achieved_rate_hz > 0
    ingest.write_trace(trace, tmp_path / "recorded.csv")
