"""CSV schemas, channel-to-power conversion, rail totals, parse errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcal.errors import ParseError
from jetcal.ingest import (parse_trace, parse_value_trace, power_from_channels,
                           write_trace)

from conftest import make_trace


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


# ── rails_csv: the board total ──────────────────────────────────────────

def test_rail_sum_example(tmp_path):
    path = write_csv(tmp_path / "r.csv", "timestamp_us,cpu_mw,gpu_mw,soc_mw",
                     [(0, 1000.0, 2000.0, 500.0)])
    trace = parse_trace(path, "rails_csv")
    assert trace.values[0] == 3500.0
    assert (trace.unit, trace.source) == ("mW", "internal")


def test_single_rail_passthrough(tmp_path):
    path = write_csv(tmp_path / "r.csv", "timestamp_us,vdd_in_mw",
                     [(0, 1234.5), (1000, 2345.5)])
    assert parse_trace(path, "rails_csv").values.tolist() == [1234.5, 2345.5]


def random_rails_csv(path, rng, rails, n, t0=0):
    rows = [(t0 + i * 1000, *map(repr, rng.uniform(0, 5000, len(rails)).tolist()))
            for i in range(n)]
    return write_csv(path, ",".join(["timestamp_us"] + [f"{r}_mw" for r in rails]), rows)


def rows_of(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_thousand_random_readings_match_bruteforce_sum(tmp_path, rng):
    path = random_rails_csv(tmp_path / "r.csv", rng, ["cpu", "gpu", "soc", "ddr"], 1000)
    trace = parse_trace(path, "rails_csv")
    for row, t, total in zip(rows_of(path), trace.timestamps_us, trace.values):
        assert t == int(row[0])
        assert total == sum(float(cell) for cell in row[1:])


def test_wide_rail_total_is_left_to_right_sum(tmp_path, rng):
    # Past eight columns numpy's own sum switches to pairwise order.
    path = random_rails_csv(tmp_path / "r.csv", rng, [f"r{i}" for i in range(12)], 300)
    totals = parse_trace(path, "rails_csv").values.tolist()
    assert totals == [sum(float(cell) for cell in row[1:]) for row in rows_of(path)]


def test_inconsistent_rail_sets_rejected(tmp_path):
    path = write_csv(tmp_path / "r.csv", "timestamp_us,cpu_mw,gpu_mw",
                     [(0, 1.0, 2.0), (1000, 1.0)])
    with pytest.raises(ParseError, match="expected 3 columns, got 2") as exc:
        parse_trace(path, "rails_csv")
    assert exc.value.line == 3
    path = write_csv(tmp_path / "dup.csv", "timestamp_us,cpu_mw,cpu_mw", [(0, 1.0, 2.0)])
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "rails_csv")
    assert exc.value.line == 1


def test_rail_sum_commutes_with_concatenation(tmp_path, rng):
    first = random_rails_csv(tmp_path / "a.csv", rng, ["a", "b"], 20)
    second = random_rails_csv(tmp_path / "b.csv", rng, ["a", "b"], 20, t0=20_000)
    joined = tmp_path / "ab.csv"
    joined.write_text(first.read_text() + "".join(second.read_text().splitlines(True)[1:]))
    parts = np.concatenate([parse_trace(p, "rails_csv").values for p in (first, second)])
    np.testing.assert_array_equal(parse_trace(joined, "rails_csv").values, parts)


def test_empty_rail_reading_rejected(tmp_path):
    path = write_csv(tmp_path / "r.csv", "timestamp_us", [(0,)])
    with pytest.raises(ParseError) as exc:
        parse_trace(path, "rails_csv")
    assert exc.value.line == 1


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


def test_parse_rails_csv(tmp_path):
    path = tmp_path / "rails.csv"
    path.write_text("timestamp_us,cpu_mw,gpu_mw\n0,100.0,200.0\n1000,150.0,250.0\n")
    trace = parse_trace(path, "rails_csv")
    assert trace.timestamps_us.tolist() == [0, 1000]
    assert trace.values.tolist() == [300.0, 400.0]


def test_rails_header_must_declare_mw_columns(tmp_path):
    path = tmp_path / "rails.csv"
    path.write_text("timestamp_us,cpu\n0,100.0\n")
    with pytest.raises(ParseError):
        parse_trace(path, "rails_csv")


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
    with pytest.raises(ValueError):
        parse_trace(tmp_path / "x.csv", "binary_blob")


def test_negative_values_allowed_where_no_sign_rule(tmp_path):
    # Only supply voltage and rail readings must be >= 0; a raw internal
    # reading below zero is for apply --on-invalid to judge.
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
    "rails": ("timestamp_us,cpu_mw,gpu_mw",
              lambda p: parse_trace(p, "rails_csv"),
              lambda t: [str(t), "100.0", "200.5"]),
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
SIGNED = {"external": ("negative-voltage", _set(1, "-0.5"), "DC supply voltage must be >= 0"),
          "rails": ("negative-rail", _set(2, "-3.0"), "must be finite and >= 0")}

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


def test_undecodable_byte_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"timestamp_us,power_mw\n0,1.0\n1000,2\xb0\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_trace(path, "internal_csv")


def test_oversized_field_is_parse_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("timestamp_us,power_mw\n0,1.0\n1," + "9" * 200_000 + "\n")
    err = parse_error(path, "internal")
    assert err.line == 3
    assert "field larger than field limit" in str(err)


def test_timestamp_beyond_int64_is_parse_error(tmp_path):
    path = write_csv(tmp_path / "t.csv", "timestamp_us,power_mw",
                     [(0, 1.0), (2**63, 1.0), (2**64, 1.0)])
    err = parse_error(path, "internal")
    assert err.line == 3
    assert "out of range" in str(err)


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


def test_rails_round_trip_is_fixed_point(tmp_path, rng):
    rails = random_rails_csv(tmp_path / "r.csv", rng, ["cpu", "gpu"], 50)
    total = parse_trace(rails, "rails_csv")
    first = tmp_path / "t1.csv"
    second = tmp_path / "t2.csv"
    write_trace(total, first)
    parsed = parse_trace(first, "internal_csv")
    write_trace(parsed, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(parsed.values, total.values)
    np.testing.assert_array_equal(parsed.timestamps_us, total.timestamps_us)


def test_voltage_trace_cannot_be_serialized():
    with pytest.raises(ValueError):
        write_trace(make_trace([0], [5.0], unit="V", source="external"),
                    "/dev/null")
