"""CSV schemas, channel-to-power conversion, parse errors, writing."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcal import ingest
from jetcal.errors import ParseError
from jetcal.ingest import (parse_trace, parse_value_trace, power_from_channels,
                           write_trace)

from conftest import TRICKY, chunk_edge_rows, make_trace, oracle_trace_csv, recording_writes


def channels(rows):
    ts, volts, amps = zip(*rows)
    return np.array(ts, dtype=np.int64), np.array(volts), np.array(amps)


def write_csv(path, header, rows):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


# ── power_from_channels ─────────────────────────────────────────────────

def test_clamp_reading_divided_by_coil_turns():
    trace = power_from_channels(*channels([(0, 5.0, 2.0)]), coil_turns=10)
    assert trace.values[0] == pytest.approx(1000.0)  # 5 V * 0.2 A
    assert (trace.unit, trace.source) == ("mW", "external")


def test_zero_voltage_gives_zero_power():
    trace = power_from_channels(*channels([(0, 0.0, 7.5)]), coil_turns=10)
    assert trace.values[0] == 0.0


def test_single_turn_coil_is_identity():
    trace = power_from_channels(*channels([(0, 5.0, 2.0)]), coil_turns=1)
    assert trace.values[0] == pytest.approx(5.0 * 2.0 * 1000.0)


def test_unsorted_records_rejected():
    with pytest.raises(ValueError):
        power_from_channels(*channels([(10, 5.0, 1.0), (5, 5.0, 1.0)]))


def test_non_positive_coil_turns_rejected():
    with pytest.raises(ValueError):
        power_from_channels(*channels([(0, 5.0, 1.0)]), coil_turns=0)


def test_conversion_linear_in_each_channel(rng):
    base = [(int(i * 1000), float(v), float(a)) for i, (v, a) in
            enumerate(zip(rng.uniform(1, 20, 50), rng.uniform(0.1, 30, 50)))]
    p0 = power_from_channels(*channels(base)).values
    doubled_v = channels([(t, 2 * v, a) for t, v, a in base])
    doubled_a = channels([(t, v, 3 * a) for t, v, a in base])
    np.testing.assert_allclose(power_from_channels(*doubled_v).values, 2 * p0,
                               rtol=1e-12)
    np.testing.assert_allclose(power_from_channels(*doubled_a).values, 3 * p0,
                               rtol=1e-12)


def test_negative_supply_voltage_rejected(tmp_path):
    path = write_csv(tmp_path / "ext.csv", "timestamp_us,voltage_v,current_a",
                     [(0, 5.0, 2.0), (1000, -1.0, 2.0)])
    with pytest.raises(ParseError, match="DC supply voltage must be >= 0") as exc:
        parse_trace(path, "external_csv")
    assert exc.value.line == 3


# ── parsing ─────────────────────────────────────────────────────────────

def test_parse_internal_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp_us,power_mw\n0,1000.5\n1000,2000.0\n2000,1500.25\n")
    trace = parse_trace(path, "internal_csv", device="nano")
    assert len(trace) == 3
    assert trace.timestamps_us.tolist() == [0, 1000, 2000]
    assert trace.values.tolist() == [1000.5, 2000.0, 1500.25]
    assert (trace.device, trace.source, trace.unit) == ("nano", "internal", "mW")


def test_parse_error_names_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_us,power_mw\n0,1000\n1000,oops\n")
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "internal_csv")
    assert ":3" in str(exc.value)
    assert exc.value.line == 3


def test_out_of_order_timestamp_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_us,power_mw\n1000,1\n500,2\n")
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "internal_csv")
    assert "out-of-order" in str(exc.value)


def test_duplicate_timestamp_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_us,power_mw\n1000,1\n1000,2\n")
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "internal_csv")
    assert "duplicate" in str(exc.value)


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,watts\n0,1\n")
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "internal_csv")
    assert exc.value.line == 1


def test_external_channel_csv_converts_with_coil(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("timestamp_us,voltage_v,current_a\n0,5.0,2.0\n1000,5.0,4.0\n")
    trace = parse_trace(path, "external_csv", coil_turns=10)
    assert trace.values.tolist() == [1000.0, 2000.0]
    assert trace.source == "external"


def test_external_precomputed_power_autodetected(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("timestamp_us,power_mw\n0,5000.0\n1000,6000.0\n")
    trace = parse_trace(path, "external_csv")
    assert trace.values.tolist() == [5000.0, 6000.0]
    assert trace.source == "external"


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        parse_trace(tmp_path / "nope.csv", "internal_csv")


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty") as exc:
        parse_trace(path, "internal_csv")
    assert exc.value.line is None


def test_unknown_format_rejected(tmp_path):
    for fmt in ("binary_blob", "rails_csv"):
        with pytest.raises(ValueError, match="format must be one of"):
            parse_trace(tmp_path / "x.csv", fmt)


def test_negative_values_allowed_where_no_sign_rule(tmp_path):
    # Only the supply voltage must be >= 0; a raw internal reading below
    # zero is for the command that uses it to judge.
    path = write_csv(tmp_path / "t.csv", "timestamp_us,power_mw", [(0, -1.5), (10, 2.0)])
    assert parse_trace(path, "internal_csv").values.tolist() == [-1.5, 2.0]


# ── the error contract ──────────────────────────────────────────────────

# format -> (header, parser, one valid row at timestamp t)
FORMATS = {
    "internal": ("timestamp_us,power_mw",
                 lambda p: parse_trace(p, "internal_csv"),
                 lambda t: [str(t), "1500.25"]),
    "external": ("timestamp_us,voltage_v,current_a",
                 lambda p: parse_trace(p, "external_csv"),
                 lambda t: [str(t), "5.0", "2.5"]),
    "external-mw": ("timestamp_us,power_mw",
                    lambda p: parse_trace(p, "external_csv"),
                    lambda t: [str(t), "4999.5"]),
    "current": ("timestamp_us,current_ma",
                parse_value_trace,
                lambda t: [str(t), "200.0"]),
}


def _drop_last(row, prev):
    del row[-1]


def _set(col, value):
    """Corruption overwriting one cell; a callable value sees the previous row."""
    def corrupt(row, prev):
        row[col] = value(prev) if callable(value) else value
    return corrupt


# kind -> (corruption of one row given the previous row, message keyword)
KINDS = {
    "columns": (_drop_last, "columns"),
    "non-integer": (_set(0, "12.5"), "not an integer"),
    "negative-ts": (_set(0, "-5"), "negative"),
    "duplicate": (_set(0, lambda prev: prev[0]), "duplicate"),
    "out-of-order": (_set(0, lambda prev: str(int(prev[0]) - 1)), "out-of-order"),
    "non-numeric": (_set(-1, "abc"), "not numeric"),
    "nan": (_set(-1, "nan"), "not finite"),
    "inf": (_set(-1, "-inf"), "not finite"),
}
SIGNED = {"external": ("negative-voltage", _set(1, "-0.5"), "DC supply voltage must be >= 0")}

CASES = [(fmt, kind, *KINDS[kind]) for fmt in FORMATS for kind in KINDS] + \
        [(fmt, kind, corrupt, word) for fmt, (kind, corrupt, word) in SIGNED.items()]


def corrupted_file(path, fmt, defects, n=9, blank_after=()):
    """Valid file of n rows (1000 us apart) with defects {row index: corrupt}.

    Returns the file line of each data row; blank lines follow the rows
    listed in blank_after.
    """
    header, _, make_row = FORMATS[fmt]
    rows = [make_row(1000 * (i + 1)) for i in range(n)]
    for i, corrupt in sorted(defects.items()):
        corrupt(rows[i], rows[i - 1])
    text, lines = [header], []
    for i, row in enumerate(rows):
        text.append(",".join(row))
        lines.append(len(text))
        if i in blank_after:
            text.append("")
    path.write_text("\n".join(text) + "\n")
    return lines


def parse_error(path, fmt) -> ParseError:
    with pytest.raises(ParseError) as exc:
        FORMATS[fmt][1](path)
    return exc.value


@pytest.mark.parametrize("fmt,kind,corrupt,word", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_each_error_kind_names_its_line(tmp_path, fmt, kind, corrupt, word):
    path = tmp_path / "bad.csv"
    lines = corrupted_file(path, fmt, {4: corrupt})
    err = parse_error(path, fmt)
    assert err.line == lines[4] == 6
    assert word in str(err)
    assert str(err).startswith(f"{path}:6: ")


def _kind_pairs():
    kinds = {kind: (corrupt, word) for fmt, kind, corrupt, word in CASES
             if fmt == "external"}
    return [(a, b, kinds[a], kinds[b]) for a in kinds for b in kinds if a != b]


@pytest.mark.parametrize("first,second,a,b", _kind_pairs(),
                         ids=[f"{p[0]}-then-{p[1]}" for p in _kind_pairs()])
def test_earlier_of_two_defects_wins(tmp_path, first, second, a, b):
    path = tmp_path / "bad.csv"
    lines = corrupted_file(path, "external", {2: a[0], 6: b[0]})
    err = parse_error(path, "external")
    assert err.line == lines[2]
    assert a[1] in str(err)


@pytest.mark.parametrize("kind", ["non-numeric", "out-of-order"])
def test_blank_lines_count_toward_line_numbers(tmp_path, kind):
    path = tmp_path / "bad.csv"
    lines = corrupted_file(path, "internal", {5: KINDS[kind][0]}, blank_after=(0, 2, 3))
    err = parse_error(path, "internal")
    assert err.line == lines[5] == 10
    assert KINDS[kind][1] in str(err)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "ok.csv"
    corrupted_file(path, "internal", {}, n=4, blank_after=(0, 1))
    assert parse_trace(path, "internal_csv").timestamps_us.tolist() == [1000, 2000, 3000, 4000]


BAD_CELLS = {0: ["x", "1.5", "-1", ""], 1: ["abc", "nan", "inf", ""]}


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(sorted(FORMATS)), n=st.integers(1, 25), data=st.data())
def test_one_corrupted_cell_fails_at_its_line(tmp_path_factory, fmt, n, data):
    row = data.draw(st.integers(0, n - 1))
    width = len(FORMATS[fmt][0].split(","))
    col = data.draw(st.integers(0, width - 1))
    cell = data.draw(st.sampled_from(BAD_CELLS[min(col, 1)]))
    blanks = data.draw(st.sets(st.integers(0, n - 1)))
    path = tmp_path_factory.mktemp("prop") / "bad.csv"
    lines = corrupted_file(path, fmt, {row: _set(col, cell)}, n=n, blank_after=blanks)
    assert parse_error(path, fmt).line == lines[row]


def test_header_quoted_over_two_lines_counts_both(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('timestamp_us,"power_mw\n"\n0,1.5\n10,x\n')
    assert parse_error(path, "internal").line == 4


def test_undecodable_byte_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"timestamp_us,power_mw\n0,1.0\n1000,2\xb0\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_trace(path, "internal_csv")


def test_oversized_field_is_parse_error(tmp_path):
    # The second field reads as a finite 1.0, which np.loadtxt would accept.
    for field in ("9" * 200_000, "1." + "0" * 200_000):
        path = tmp_path / "big.csv"
        path.write_text("timestamp_us,power_mw\n0,1.0\n1," + field + "\n")
        err = parse_error(path, "internal")
        assert err.line == 3
        assert "field larger than field limit" in str(err)


def test_timestamp_beyond_int64_is_parse_error(tmp_path):
    path = write_csv(tmp_path / "t.csv", "timestamp_us,power_mw",
                     [(0, 1.0), (2**63, 1.0), (2**64, 1.0)])
    err = parse_error(path, "internal")
    assert err.line == 3
    assert "out of range" in str(err)


# ── the loadtxt fast path against the row loop ──────────────────────────

# format -> the header table parse_trace or parse_value_trace reads it with
READERS = {
    "internal": ingest.TRACE_FORMATS["internal_csv"],
    "external": ingest.TRACE_FORMATS["external_csv"],
    "external-mw": ingest.TRACE_FORMATS["external_csv"],
    "current": ingest._VALUE,
}


def _refuse(*args, **kwargs):
    raise ValueError("fast path refused")


def read_columns(path, fmt, force_row_loop=False, chunk_lines=None):
    """(header, t, values), or (line, message) of the ParseError."""
    with pytest.MonkeyPatch.context() as mp:
        if force_row_loop:
            mp.setattr(ingest.np, "loadtxt", _refuse)
        if chunk_lines:
            mp.setattr(ingest, "_CHUNK_LINES", chunk_lines)
        try:
            return ingest._read_columns(path, READERS[fmt])
        except ParseError as exc:
            return exc.line, str(exc)


def _underscore(cell):
    return cell[0] + "_" + cell[1:] if cell[:2].isdigit() else cell


# Spellings Python's int() and float() read but np.loadtxt may not, or the
# reverse; a held chunk's text cells drop a trailing NUL and cut a cell
# longer than their width.
SPELLINGS = [lambda c: f'"{c}"', _underscore, lambda c: f" {c} ", lambda c: f"+{c}",
             lambda c: f"\x1c{c}", lambda c: f"{c}\t", lambda c: f"{c} # x",
             lambda c: f"{c}\x00", lambda c: "0" * ingest._CELL_BYTES + c]
SPECIAL = {0: ["-0", "007", str(2**63 - 1), str(2**63), str(2**64 + 5), "1e3", "", "-1"],
           1: ["nan", "inf", "-inf", "1e400", "-0.0", "1e-400", ".5", "7."]}
# Value cells the clean rows step through, so that runs of one value start
# and end anywhere, chunk boundaries among them.
LEVELS = ["1500.25", "0.0", "2.5", "1e3", "7"]


@settings(max_examples=400, deadline=None)
@given(fmt=st.sampled_from(sorted(FORMATS)), n=st.integers(0, 12), data=st.data())
def test_fast_path_matches_row_loop(tmp_path_factory, fmt, n, data):
    header, _, make_row = FORMATS[fmt]
    kinds = dict(KINDS)
    if fmt in SIGNED:
        kinds[SIGNED[fmt][0]] = SIGNED[fmt][1:]
    clean = [make_row(1000 * (i + 1)) for i in range(n)]
    level = 0
    for row, step in zip(clean, data.draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        level += step
        row[1:] = [LEVELS[(level + j) % len(LEVELS)] for j in range(len(row) - 1)]
    rows = [list(row) for row in clean]
    row_index = st.integers(0, max(n - 1, 0))
    edits = st.tuples(row_index, st.integers(0, len(rows[0]) - 1 if rows else 0))
    if rows:
        # Half the files hold no corruption and half no special cell, so that
        # the fast path's own columns are compared too, not only its errors.
        if data.draw(st.booleans()):
            for i, kind in data.draw(st.lists(
                    st.tuples(row_index, st.sampled_from(sorted(kinds))),
                    min_size=1, max_size=3, unique_by=lambda e: e[0])):
                kinds[kind][0](rows[i], clean[i - 1])
        for (i, col), spell in data.draw(st.lists(
                st.tuples(edits, st.sampled_from(SPELLINGS)), max_size=3)):
            if col < len(rows[i]):
                rows[i][col] = spell(rows[i][col])
        for (i, col), pick in data.draw(st.lists(st.tuples(edits, st.integers(0, 7)),
                                                 max_size=2 * data.draw(st.booleans()))):
            if col < len(rows[i]):
                rows[i][col] = SPECIAL[min(col, 1)][pick]
    lines = [header] + [",".join(row) for row in rows]
    for at, text in data.draw(st.lists(st.tuples(st.integers(1, len(lines)),
                                                 st.sampled_from(["", "", " ", "\t"])),
                                       max_size=3)):
        lines.insert(at, text)
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ending = data.draw(st.sampled_from([newline, ""]))
    path = tmp_path_factory.mktemp("fast") / "t.csv"
    path.write_bytes((newline.join(lines) + ending).encode())

    # Chunks of a few lines make the row loop take over mid-file.
    chunk_lines = data.draw(st.sampled_from([1, 2, 3, ingest._CHUNK_LINES]))
    fast = read_columns(path, fmt, chunk_lines=chunk_lines)
    rows_only = read_columns(path, fmt, force_row_loop=True)
    assert len(fast) == len(rows_only)
    if len(fast) == 2:
        assert fast == rows_only
    else:
        assert fast[0] == rows_only[0]
        assert (fast[1].dtype, fast[2].dtype) == (np.int64, np.float64)
        assert np.array_equal(fast[1], rows_only[1])
        # Bits, not values: 0.0 == -0.0.
        assert np.array_equal(fast[2].view(np.int64), rows_only[2].view(np.int64))


def _no_row_loop(*args):
    raise AssertionError("the row loop ran on a clean file")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("n", [0, 9])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_clean_files_take_the_fast_path(tmp_path, monkeypatch, fmt, n, newline):
    path = tmp_path / "ok.csv"
    corrupted_file(path, fmt, {}, n=n, blank_after=(2,))
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    expected = read_columns(path, fmt, force_row_loop=True)
    monkeypatch.setattr(ingest, "_read_rows", _no_row_loop)
    header, t, values = read_columns(path, fmt, chunk_lines=4)
    assert header == expected[0] == tuple(FORMATS[fmt][0].split(","))
    assert np.array_equal(t, expected[1]) and np.array_equal(values, expected[2])
    assert len(t) == len(FORMATS[fmt][1](path)) == n


HELD = np.repeat([1000.5, 2000.25, 0.0, 1.5e4, 3.0], 50)   # 250 rows, runs of 50
TEXT, FLOAT = np.dtype(f"S{ingest._CELL_BYTES}"), np.dtype(np.float64)


@pytest.mark.parametrize("values, cells, dtypes", [
    (HELD, {}, [FLOAT] + [TEXT] * 3),
    (1000.5 + np.arange(250.0), {}, [FLOAT] * 4),
    # A cell that fills the text width may have been cut: its chunk is read again.
    (HELD, {150: "0" * ingest._CELL_BYTES + "15000.0"}, [FLOAT, TEXT, TEXT, FLOAT, TEXT]),
    (HELD, {150: "15000.0\x00"}, []),
], ids=["held", "distinct", "wide-cell", "nul"])
def test_held_chunks_are_read_as_text(tmp_path, monkeypatch, values, cells, dtypes):
    rows = [f"{t},{v!r}" for t, v in enumerate(values.tolist())]
    for i, cell in cells.items():
        rows[i] = f"{i},{cell}"
    path = tmp_path / "held.csv"
    path.write_text("\n".join(["timestamp_us,power_mw"] + rows) + "\n")
    expected = read_columns(path, "internal", force_row_loop=True)
    seen = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(ingest.np, "loadtxt", lambda lines, **kwargs: seen.append(
        np.dtype(kwargs["dtype"])["v"].base) or loadtxt(lines, **kwargs))
    got = read_columns(path, "internal", chunk_lines=64)
    assert seen == dtypes
    if cells.get(150, "").endswith("\x00"):
        assert got == expected == (152, f"{path}:152: power_mw value '15000.0\\x00' "
                                         "is not numeric")
    else:
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1])
        assert np.array_equal(got[2].view(np.int64), expected[2].view(np.int64))
        assert got[2][:, 0].tolist() == values.tolist()


def test_row_loop_takes_over_at_the_chunk_of_the_bad_line(tmp_path, monkeypatch):
    path = tmp_path / "bad.csv"
    lines = corrupted_file(path, "external", {16: _drop_last}, n=20, blank_after=(3,))
    starts = []
    read_rows = ingest._read_rows
    monkeypatch.setattr(ingest, "_read_rows", lambda path, lines, header, signs, line, prev:
                        starts.append(line) or read_rows(path, lines, header, signs, line, prev))
    assert lines[16] == 19
    assert read_columns(path, "external", chunk_lines=4) == \
        (19, f"{path}:19: expected 3 columns, got 2")
    assert starts == [18]   # body lines come in chunks 2-5, 6-9, ..., 18-21


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body, expected", [
    ("0,1.5\n10,2.5\n", [1.5, 2.5]),
    ("0,1.5\n10,x\n", (3, "power_mw value 'x' is not numeric")),
], ids=["clean", "bad-cell"])
def test_pipe_is_read_once(tmp_path, body, expected):
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, daemon=True,
                              args=("timestamp_us,power_mw\n" + body,))
    writer.start()
    try:
        if isinstance(expected, list):
            assert parse_trace(pipe, "internal_csv").values.tolist() == expected
        else:
            err = parse_error(pipe, "internal")
            assert (err.line, str(err)) == (expected[0], f"{pipe}:{expected[0]}: {expected[1]}")
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# ── writing and round trips ─────────────────────────────────────────────

def test_internal_round_trip_is_fixed_point(tmp_path, rng):
    ts = np.cumsum(rng.integers(1, 10_000, 200)).astype(np.int64)
    vals = rng.uniform(0.0, 30000.0, 200)
    original = make_trace(ts, vals)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace(original, first)
    parsed = parse_trace(first, "internal_csv")
    write_trace(parsed, second)
    reparsed = parse_trace(second, "internal_csv")
    np.testing.assert_array_equal(parsed.timestamps_us, reparsed.timestamps_us)
    np.testing.assert_array_equal(parsed.values, reparsed.values)
    np.testing.assert_array_equal(parsed.values, vals)


def test_current_trace_round_trip(tmp_path):
    trace = make_trace([0, 100, 200], [200.0, 5880.0, 200.0], unit="mA",
                       source="external")
    path = tmp_path / "boot.csv"
    write_trace(trace, path)
    assert path.read_text().splitlines()[0] == "timestamp_us,current_ma"
    back = parse_value_trace(path)
    assert back.unit == "mA"
    np.testing.assert_array_equal(back.values, trace.values)


def test_value_trace_accepts_power_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("timestamp_us,power_mw\n0,1.5\n")
    assert parse_value_trace(path).unit == "mW"


def test_voltage_trace_is_refused_when_built():
    # So every trace write_trace sees is mW or mA.
    with pytest.raises(ValueError, match=r"unit must be one of \('mW', 'mA'\), got 'V'"):
        make_trace([0], [5.0], unit="V", source="external")


def written(trace, tmp_path, chunk_lines=None):
    """(file bytes, the text of each write) of write_trace(trace)."""
    path = tmp_path / "w.csv"
    with recording_writes(ingest) as writes, pytest.MonkeyPatch.context() as mp:
        if chunk_lines:
            mp.setattr(ingest, "_CHUNK_LINES", chunk_lines)
        write_trace(trace, path)
    return path.read_bytes(), writes


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.sampled_from(TRICKY) | st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), max_size=40),
       steps=st.lists(st.integers(1, 2**40), min_size=40, max_size=40),
       t0=st.integers(0, 2**62),
       unit=st.sampled_from(["mW", "mA"]),
       chunk_lines=st.sampled_from([1, 2, 3, ingest._CHUNK_LINES]))
def test_write_matches_per_row_repr(tmp_path_factory, pool, picks, steps, t0, unit,
                                    chunk_lines):
    # Picks into a small pool repeat values both next to each other and apart.
    values = [pool[i % len(pool)] for i in picks]
    ts = t0 + np.cumsum(steps[:len(values)], dtype=np.int64)
    trace = make_trace(ts, values, unit=unit, source="external" if unit == "mA" else "internal")
    data, writes = written(trace, tmp_path_factory.mktemp("write"), chunk_lines)
    assert data == oracle_trace_csv(trace)
    assert max(text.count("\n") for text in writes) <= chunk_lines


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, ingest._CHUNK_LINES])
def test_signed_zeros_keep_their_own_repr(tmp_path, chunk_lines):
    trace = make_trace(range(8), [0.0, -0.0, -0.0, 0.0, 5e-324, -0.0, 0.0, 5e-324])
    data, _ = written(trace, tmp_path, chunk_lines)
    assert data == oracle_trace_csv(trace)
    assert data.split(b"\n")[1:4] == [b"0,0.0", b"1,-0.0", b"2,-0.0"]


@pytest.mark.parametrize("unit, header", [("mW", "power_mw"), ("mA", "current_ma")])
def test_empty_trace_writes_only_the_header(tmp_path, unit, header):
    data, writes = written(make_trace([], [], unit=unit), tmp_path)
    assert data == f"timestamp_us,{header}\n".encode()
    assert len(writes) == 1


def test_runs_across_chunk_edges_write_one_chunk_at_a_time(tmp_path):
    trace = make_trace(*chunk_edge_rows(ingest._CHUNK_LINES))
    data, writes = written(trace, tmp_path)
    assert data == oracle_trace_csv(trace)
    assert [text.count("\n") for text in writes] == [1] + [ingest._CHUNK_LINES] * 3 + [5]


def test_held_values_write_in_chunks(tmp_path, rng):
    # A record's shape: each node value is re-read for many rows.
    n = 3 * ingest._CHUNK_LINES + 5
    ts = np.cumsum(rng.integers(10, 41, n))
    values = np.repeat(rng.uniform(1000.0, 20000.0, n // 300 + 1), 300)[:n]
    trace = make_trace(ts, values)
    data, writes = written(trace, tmp_path)
    assert data == oracle_trace_csv(trace)
    assert [text.count("\n") for text in writes] == [1] + [ingest._CHUNK_LINES] * 3 + [5]
