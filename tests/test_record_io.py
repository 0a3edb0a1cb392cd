"""File-format contracts: signal CSV and parameter-table CSV."""

import csv
import errno
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiocausal import cli
from cardiocausal.param_features import ParamVector
from cardiocausal.record_io import (
    DERIVED_SOURCES,
    PARAMETER_NAMES,
    FormatError,
    ParameterRow,
    ParameterTable,
    Position,
    SignalRecord,
    _load_signal_rows,
    _open_csv,
    _parse_decimal,
    load_parameter_table,
    load_signal_record,
    save_parameter_table,
    save_signal_record,
)
from cardiocausal.synthetic import sem_cohort

RATE = 250.0


def _write_signal_csv(path, n_rows, rate=RATE, mutate=None):
    lines = ["t,ecg,ip"]
    for i in range(n_rows):
        lines.append(f"{i / rate!r},{0.001 * i!r},{0.002 * i!r}")
    if mutate is not None:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _param_row(subject="s001", position="supine", **overrides):
    params = {
        "HR": 72.0,
        "RMSSD": 45.0,
        "lnRMSSD": math.log(45.0),
        "RR": 14.0,
        "ciRR": 0.2,
        "cInsT": 0.25,
        "cExpT": 0.3,
        "cInsV": 0.35,
        "cExpV": 0.33,
        "BR": 85.0,
    }
    params.update(overrides)
    return ParameterRow(subject, Position.parse(position), params)


def _param_csv_text(rows):
    lines = ["subject_id,position," + ",".join(PARAMETER_NAMES)]
    for row in rows:
        values = ",".join(repr(row.params[n]) for n in PARAMETER_NAMES)
        lines.append(f"{row.subject_id},{row.position.value},{values}")
    return "\n".join(lines) + "\n"


class TestSignalRecordLoad:
    def test_duration_from_row_count_and_rate(self, tmp_path):
        path = _write_signal_csv(tmp_path / "s001_supine.csv", 90_000)
        record = load_signal_record(path)
        assert record.duration_s == pytest.approx(360.0)
        assert record.sample_rate_hz == pytest.approx(250.0)
        assert record.subject_id == "s001"
        assert record.position is Position.SUPINE

    def test_subject_and_position_from_stem(self, tmp_path):
        path = _write_signal_csv(tmp_path / "athlete_17_standing.csv", 8000)
        record = load_signal_record(path)
        assert record.subject_id == "athlete_17"
        assert record.position is Position.STANDING

    def test_spaces_around_the_subject_id_are_stripped(self, tmp_path):
        # as load_parameter_table strips the ids of a params.csv
        path = _write_signal_csv(tmp_path / " s01_supine.csv", 8000)
        assert load_signal_record(path).subject_id == "s01"

    def test_values_preserved_exactly(self, tmp_path):
        values = [0.1, -2.5e-3, 3.141592653589793, 1e-12]
        lines = ["t,ecg,ip"] + [
            f"{i / RATE!r},{v!r},{-v!r}" for i, v in enumerate(values * 2000)
        ]
        path = tmp_path / "s1_supine.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        record = load_signal_record(path)
        assert record.ecg[:4].tolist() == values

    def test_shorter_ecg_column_is_length_mismatch(self, tmp_path):
        def drop_cell(lines):
            parts = lines[5000].split(",")
            lines[5000] = parts[0] + ",," + parts[2]
            return lines

        path = _write_signal_csv(tmp_path / "s1_supine.csv", 9000, mutate=drop_cell)
        with pytest.raises(FormatError, match="mismatch"):
            load_signal_record(path)

    def test_nan_sample_rejected(self, tmp_path):
        def poison(lines):
            parts = lines[42].split(",")
            lines[42] = parts[0] + ",NaN," + parts[2]
            return lines

        path = _write_signal_csv(tmp_path / "s1_supine.csv", 9000, mutate=poison)
        with pytest.raises(FormatError, match="non-finite"):
            load_signal_record(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "s1_supine.csv"
        path.write_text("time,ecg,ip\n0,0,0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            load_signal_record(path)

    @pytest.mark.parametrize("name", ["supine.csv", "_supine.csv", " _supine.csv"])
    def test_file_name_without_subject_id_rejected(self, tmp_path, name):
        path = _write_signal_csv(tmp_path / name, 8000)
        with pytest.raises(FormatError) as info:
            load_signal_record(path)
        assert str(info.value) == (
            f"cannot infer subject/position from file name {name!r};"
            " expected <subject_id>_<position>.csv"
        )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_signal_record(tmp_path / "absent_supine.csv")

    def test_jitter_beyond_one_percent_rejected(self, tmp_path):
        def jitter(lines):
            parts = lines[400].split(",")
            t = float(parts[0]) + 0.02 / RATE
            lines[400] = f"{t!r},{parts[1]},{parts[2]}"
            return lines

        path = _write_signal_csv(tmp_path / "s1_supine.csv", 9000, mutate=jitter)
        with pytest.raises(FormatError, match="jitter|non-uniform"):
            load_signal_record(path)

    def test_jitter_within_one_percent_accepted(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.arange(9000) / RATE + rng.uniform(-0.004, 0.004, 9000) / RATE
        t.sort()
        lines = ["t,ecg,ip"] + [f"{float(ti)!r},0.0,0.0" for ti in t]
        path = tmp_path / "s1_supine.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        record = load_signal_record(path)
        assert record.sample_rate_hz == pytest.approx(250.0, rel=0.01)

    def test_locale_comma_rejected(self, tmp_path):
        path = tmp_path / "s1_supine.csv"
        rows = "\n".join(f'{i / RATE!r},"1,5",0.0' for i in range(8000))
        path.write_text("t,ecg,ip\n" + rows + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="comma"):
            load_signal_record(path)

    def test_crlf_accepted(self, tmp_path):
        lines = ["t,ecg,ip"] + [f"{i / RATE!r},0.1,0.2" for i in range(8000)]
        path = tmp_path / "s1_supine.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        record = load_signal_record(path)
        assert record.ecg.size == 8000

    def test_record_shorter_than_30s_rejected(self, tmp_path):
        path = _write_signal_csv(tmp_path / "s1_supine.csv", 7000)
        with pytest.raises(FormatError, match="30 s"):
            load_signal_record(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = _write_signal_csv(tmp_path / "s1_supine.csv", 8000)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        record = load_signal_record(path)
        assert record.ecg.size == 8000
        assert record.ecg[1] == 0.001

    @pytest.mark.parametrize("row", [3, 7000])
    def test_non_utf8_bytes_rejected(self, tmp_path, row):
        # row 7000 lies beyond the first decoded chunk, so the bad byte is
        # met inside loadtxt rather than while reading the header
        path = _write_signal_csv(tmp_path / "s1_supine.csv", 8000)
        lines = path.read_bytes().split(b"\n")
        lines[row] = lines[row].replace(b",", b",\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_signal_record(path)

    def test_row_parser_accepts_what_loadtxt_rejects(self, tmp_path):
        # underscores and quoted cells are valid to ``float`` and csv
        lines = ["t,ecg,ip"] + [f"{i / RATE!r},1_0,\"0.5\"" for i in range(8000)]
        path = tmp_path / "s1_supine.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        record = load_signal_record(path)
        assert set(record.ecg) == {10.0}
        assert set(record.ip) == {0.5}

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_is_too_few_samples(self, tmp_path):
        path = tmp_path / "s1_supine.csv"
        path.write_text("t,ecg,ip\n", encoding="utf-8")
        with pytest.raises(FormatError, match="too few samples"):
            load_signal_record(path)

    def test_signal_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        record = SignalRecord(
            "s3", Position.STANDING, RATE, rng.normal(size=8000), rng.normal(size=8000)
        )
        path = tmp_path / "s3_standing.csv"
        save_signal_record(record, path)
        back = load_signal_record(path)
        assert back.subject_id == "s3"
        assert back.position is Position.STANDING
        assert back.sample_rate_hz == pytest.approx(RATE, rel=1e-9)
        np.testing.assert_array_equal(back.ecg, record.ecg)
        np.testing.assert_array_equal(back.ip, record.ip)


class TestParameterTableLoad:
    def test_200_row_file(self, tmp_path):
        rows = [
            _param_row(f"s{i:03d}", pos)
            for i in range(100)
            for pos in ("supine", "standing")
        ]
        path = tmp_path / "params.csv"
        path.write_text(_param_csv_text(rows), encoding="utf-8")
        table = load_parameter_table(path)
        assert len(table.rows) == 200
        assert table.subjects(Position.SUPINE) == sorted(f"s{i:03d}" for i in range(100))

    def test_duplicate_key_rejected(self, tmp_path):
        rows = [_param_row("s001", "supine"), _param_row("s001", "supine")]
        path = tmp_path / "params.csv"
        path.write_text(_param_csv_text(rows), encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate"):
            load_parameter_table(path)

    def test_br_out_of_range_rejected(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")]).replace("85.0", "105.0")
        path = tmp_path / "params.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="BR"):
            load_parameter_table(path)

    def test_any_column_order_accepted(self, tmp_path):
        row = _param_row("s001", "supine")
        names = list(PARAMETER_NAMES)[::-1]
        lines = ["position," + ",".join(names) + ",subject_id"]
        values = ",".join(repr(row.params[n]) for n in names)
        lines.append(f"supine,{values},s001")
        path = tmp_path / "params.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_parameter_table(path)
        assert table.rows == (row,)
        np.testing.assert_array_equal(
            table.matrix(Position.SUPINE), [[row.params[n] for n in PARAMETER_NAMES]]
        )

    def test_extra_column_rejected(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")])
        text = text.replace("subject_id,", "subject_id,age,").replace("s001,", "s001,33,")
        path = tmp_path / "params.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="unknown column"):
            load_parameter_table(path)

    def test_missing_column_rejected(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")])
        lines = text.splitlines()
        header = lines[0].split(",")
        idx = header.index("BR")
        lines = [",".join(x for i, x in enumerate(l.split(",")) if i != idx) for l in lines]
        path = tmp_path / "params.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="missing column"):
            load_parameter_table(path)

    def test_row_with_missing_value_rejected_loudly(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")]).replace("85.0", "")
        path = tmp_path / "params.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="missing value"):
            load_parameter_table(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        rows = [_param_row("s001", "supine"), _param_row("s002", "supine")]
        path = tmp_path / "params.csv"
        path.write_text("\ufeff" + _param_csv_text(rows), encoding="utf-8")
        assert load_parameter_table(path) == ParameterTable(tuple(rows))

    def test_non_utf8_bytes_rejected(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")])
        path = tmp_path / "params.csv"
        path.write_bytes(text.replace("s001", "s\xff").encode("latin-1"))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_parameter_table(path)

    def test_position_parse_case_insensitive(self, tmp_path):
        text = _param_csv_text([_param_row("s001", "supine")]).replace("supine", "Supine")
        path = tmp_path / "params.csv"
        path.write_text(text, encoding="utf-8")
        table = load_parameter_table(path)
        assert table.rows[0].position is Position.SUPINE


class TestParameterTableType:
    def test_wrong_parameter_set_rejected(self):
        with pytest.raises(FormatError, match="wrong parameter set"):
            ParameterRow("s1", Position.SUPINE, {"HR": 70.0})

    def test_nonpositive_hr_rejected(self):
        with pytest.raises(FormatError, match="HR"):
            _param_row("s1", "supine", HR=0.0)

    def test_negative_cv_rejected(self):
        with pytest.raises(FormatError, match="ciRR"):
            _param_row("s1", "supine", ciRR=-0.1)

    @pytest.mark.parametrize("hr", [np.int64(60), np.float32(60.0)])
    def test_numpy_scalars_are_accepted(self, hr):
        table = ParameterTable((_param_row("s1", "supine", HR=hr),))
        assert table == ParameterTable((_param_row("s1", "supine", HR=60.0),))

    @pytest.mark.parametrize("hr", [np.float32("nan"), "60", 60j])
    def test_non_finite_or_non_real_values_are_rejected(self, hr):
        with pytest.raises(FormatError, match="HR is not finite"):
            _param_row("s1", "supine", HR=hr)

    @pytest.mark.parametrize(
        "n_ids, values, message",
        [
            (12, np.ones((11, 10)), "need 12 rows of 10 parameter values, not (11, 10)"),
            (12, np.ones((12, 11)), "need 12 rows of 10 parameter values, not (12, 11)"),
            (12, np.ones((12, 9)), "need 12 rows of 10 parameter values, not (12, 9)"),
            (12, np.ones(120), "need 12 rows of 10 parameter values, not (120,)"),
            (12, [[1.0] * 10] * 11 + [[1.0] * 9], "need 12 rows of 10 parameter values: "),
            (11, np.ones((12, 10)), "11 subject ids but 12 positions"),
        ],
        ids=["one-row-short", "11-wide", "9-wide", "flat", "ragged", "one-id-short"],
    )
    def test_columns_of_other_shapes_are_format_errors(self, n_ids, values, message):
        ids = [f"s{i:02d}" for i in range(n_ids)]
        with pytest.raises(FormatError) as caught:
            ParameterTable.from_columns(ids, [Position.SUPINE] * 12, values)
        assert str(caught.value).startswith(message)

    def test_column_in_sorted_subject_order(self):
        table = ParameterTable(
            (
                _param_row("s2", "supine", HR=60.0),
                _param_row("s1", "supine", HR=50.0),
            )
        )
        np.testing.assert_array_equal(table.column("HR", Position.SUPINE), [50.0, 60.0])

    def test_paired_columns_intersect_subjects(self):
        table = ParameterTable(
            (
                _param_row("a", "supine", HR=50.0),
                _param_row("b", "supine", HR=60.0),
                _param_row("b", "standing", HR=80.0),
                _param_row("c", "standing", HR=90.0),
            )
        )
        supine, standing = table.paired_columns("HR")
        np.testing.assert_array_equal(supine, [60.0])
        np.testing.assert_array_equal(standing, [80.0])

    def test_matrix_column_selection(self):
        table = ParameterTable((_param_row("a", "supine"),))
        m = table.matrix(Position.SUPINE, ("RR", "HR"))
        np.testing.assert_array_equal(m, [[14.0, 72.0]])


@st.composite
def _param_tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    finite = st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    )
    rows = []
    for i in range(n):
        for pos in ("supine", "standing"):
            if draw(st.booleans()):
                rows.append(
                    _param_row(
                        f"s{i}",
                        pos,
                        HR=draw(finite),
                        RMSSD=draw(finite),
                        lnRMSSD=draw(
                            st.floats(
                                min_value=-1e3,
                                max_value=1e3,
                                allow_nan=False,
                                allow_infinity=False,
                            )
                        ),
                        RR=draw(finite),
                        BR=draw(st.floats(min_value=0.0, max_value=100.0)),
                    )
                )
    if not rows:
        rows.append(_param_row("s0", "supine"))
    return ParameterTable(tuple(rows))


@settings(max_examples=50, deadline=None)
@given(_param_tables())
def test_parameter_table_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
    save_parameter_table(table, path)
    back = load_parameter_table(path)
    assert back == table
    # a second save is byte-identical (exact decimal text representation)
    path2 = tmp_path_factory.mktemp("roundtrip") / "t2.csv"
    save_parameter_table(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ids_with_commas_and_quotes_round_trip(tmp_path):
    table = ParameterTable(
        (
            _param_row("smith, j", "supine"),
            _param_row('o"neil', "standing"),
            _param_row("plain", "supine"),
        )
    )
    path = tmp_path / "params.csv"
    save_parameter_table(table, path)
    assert load_parameter_table(path) == table


def test_saved_table_bytes_for_ordinary_ids(tmp_path):
    # ordinary ids need no quoting: one plain comma-joined line per row
    table, _ = sem_cohort(100, seed=0)
    path = tmp_path / "params.csv"
    save_parameter_table(table, path)
    lines = ["subject_id,position," + ",".join(PARAMETER_NAMES)]
    for row in table.rows:
        values = ",".join(repr(float(row.params[n])) for n in PARAMETER_NAMES)
        lines.append(f"{row.subject_id},{row.position.value},{values}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class _RowScanTable:
    """Reference lookups by scanning the rows, which the indexed
    ParameterTable must reproduce.  Values come out as float64, and a
    matrix has one column per requested name even with no subjects."""

    def __init__(self, rows):
        self.rows = tuple(rows)

    def subjects(self, position):
        return sorted(r.subject_id for r in self.rows if r.position == position)

    def row(self, subject_id, position):
        for r in self.rows:
            if r.subject_id == subject_id and r.position == position:
                return r
        raise KeyError((subject_id, position))

    def column(self, name, position):
        return self.matrix(position, (name,))[:, 0]

    def matrix(self, position, names):
        for name in names:
            if name not in PARAMETER_NAMES:
                raise KeyError(name)
        subjects = self.subjects(position)
        values = [[self.row(s, position).params[n] for n in names] for s in subjects]
        return np.array(values, dtype=float).reshape(len(subjects), len(names))

    def paired_columns(self, name):
        if name not in PARAMETER_NAMES:
            raise KeyError(name)
        common = sorted(
            set(self.subjects(Position.SUPINE)) & set(self.subjects(Position.STANDING))
        )
        return tuple(
            np.array([self.row(s, pos).params[name] for s in common], dtype=float)
            for pos in (Position.SUPINE, Position.STANDING)
        )


def _assert_same_array(got, want):
    assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_same_key_error(got, want, *args):
    with pytest.raises(KeyError) as want_exc:
        want(*args)
    with pytest.raises(KeyError) as got_exc:
        got(*args)
    assert got_exc.value.args == want_exc.value.args


@st.composite
def _shuffled_tables(draw):
    """Rows of up to 8 subjects, each in one or both positions, with
    integer-valued, float or mixed parameters, in shuffled order."""
    kind = draw(st.sampled_from(["int", "float", "mixed"]))

    def value(low, high):
        ints = st.integers(min_value=int(math.ceil(low)), max_value=int(high))
        floats = st.floats(min_value=low, max_value=high)
        return draw({"int": ints, "float": floats, "mixed": st.one_of(ints, floats)}[kind])

    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        for pos in draw(st.sampled_from([("supine",), ("standing",), ("supine", "standing")])):
            params = {name: value(0.0, 1e3) for name in PARAMETER_NAMES}
            params.update(HR=value(1.0, 300.0), RMSSD=value(1.0, 300.0), RR=value(1.0, 60.0))
            params.update(lnRMSSD=value(-10.0, 10.0), BR=value(0.0, 100.0))
            rows.append(ParameterRow(f"s{i}", Position(pos), params))
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(
    _shuffled_tables(),
    st.lists(st.sampled_from(PARAMETER_NAMES), max_size=12),
)
def test_indexed_table_matches_row_scan(rows, names):
    table = ParameterTable(rows)
    ref = _RowScanTable(rows)
    assert table == ParameterTable(ref.rows)
    # rows come back in input order, with every value as a float
    assert table.rows == ref.rows
    assert all(type(v) is float for row in table.rows for v in row.params.values())
    for position in Position:
        assert table.subjects(position) == ref.subjects(position)
        for name in PARAMETER_NAMES:
            _assert_same_array(table.column(name, position), ref.column(name, position))
        _assert_same_array(table.matrix(position), ref.matrix(position, PARAMETER_NAMES))
        _assert_same_array(table.matrix(position, names), ref.matrix(position, names))
        _assert_same_key_error(table.column, ref.column, "HRV", position)
        _assert_same_key_error(table.matrix, ref.matrix, position, (*names, "HRV", "x"))
    for name in PARAMETER_NAMES:
        for got, want in zip(table.paired_columns(name), ref.paired_columns(name)):
            _assert_same_array(got, want)
    _assert_same_key_error(table.paired_columns, ref.paired_columns, "HRV")


def test_lookups_return_copies():
    table = ParameterTable((_param_row("a", "supine"), _param_row("a", "standing")))
    table.column("HR", Position.SUPINE)[:] = 0.0
    table.matrix(Position.SUPINE)[:] = 0.0
    table.paired_columns("HR")[1][:] = 0.0
    assert table.column("HR", Position.SUPINE)[0] == 72.0
    assert table.paired_columns("HR")[1][0] == 72.0


# Cells that exercise both signal parsers: loadtxt takes the plain numbers,
# and everything else must come out of the row parser unchanged.
_ODD_CELLS = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "1_0", '"1.5"', '"1,5"', "", " ", " 2.5 ", "x", "1e400"]
)


@st.composite
def _signal_csv_texts(draw):
    # 10 s steps: three rows are already a 30 s record
    n = draw(st.integers(min_value=3, max_value=6))
    value = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(repr)
    rows = [[repr(10.0 * i), draw(value), draw(value)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = draw(st.integers(min_value=0, max_value=n - 1))
        col = draw(st.integers(min_value=0, max_value=2))
        rows[row][col] = draw(_ODD_CELLS)
    lines = ["t,ecg,ip"] + [",".join(r) for r in rows]
    if draw(st.booleans()):  # ragged: drop or add a cell on one line
        at = draw(st.integers(min_value=1, max_value=n))
        lines[at] = lines[at].rpartition(",")[0] if draw(st.booleans()) else lines[at] + ",0"
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(
            draw(st.integers(min_value=1, max_value=len(lines))),
            draw(st.sampled_from(["", " ", "\t"])),
        )
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _load_outcome(path):
    try:
        record = load_signal_record(path)
    except FormatError as exc:
        return str(exc)
    return record.sample_rate_hz, record.ecg.tobytes(), record.ip.tobytes()


@settings(max_examples=300, deadline=None)
@given(_signal_csv_texts())
def test_loadtxt_path_matches_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("loader") / "s1_supine.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = _load_outcome(path)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("forced")):
        assert _load_outcome(path) == outcome
    if not isinstance(outcome, str):
        data = _load_signal_rows(path)
        assert (data[:, 1].tobytes(), data[:, 2].tobytes()) == outcome[1:]


_PARAMS_HEADER = ("subject_id,position," + ",".join(PARAMETER_NAMES) + "\n").encode()

# raw bytes, and text made of the characters a CSV of numbers is made of
_ARBITRARY_BYTES = st.one_of(
    st.binary(max_size=400),
    st.text(alphabet="0123456789.,-+eE \t\r\n\"naifsupinestandg_", max_size=400).map(
        str.encode
    ),
)


# one cell over the csv module's field size limit, 131072 characters
_OVERSIZED_CELL = b"x" * 131073


@settings(max_examples=300, deadline=None)
@given(
    _ARBITRARY_BYTES,
    st.sampled_from(["signal", "params"]),
    st.sampled_from([b"", b"t,ecg,ip\n", _PARAMS_HEADER]),
)
@example(_OVERSIZED_CELL, "signal", b"")
@example(_OVERSIZED_CELL + b",1,2\n", "signal", b"t,ecg,ip\n")
@example(b"0," + _OVERSIZED_CELL + b"\n", "params", b"")
@example(b"s1,supine," + _OVERSIZED_CELL + b",1,1,1,1,1,1,1,1,1\n", "params", _PARAMS_HEADER)
def test_arbitrary_bytes_raise_only_format_error(tmp_path_factory, data, kind, header):
    path = tmp_path_factory.mktemp("bytes") / "s1_supine.csv"
    path.write_bytes(header + data)
    loader = load_signal_record if kind == "signal" else load_parameter_table
    try:
        loader(path)
    except FormatError:
        pass


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_signal_record, "t,ecg,ip\n0.0,0.0,0.0\n"),
        (load_parameter_table, _PARAMS_HEADER.decode()),
    ],
    ids=["signal", "params"],
)
class TestUnreadableFiles:
    def test_directory_is_not_a_file(self, tmp_path, loader, text):
        path = tmp_path / "s1_supine.csv"
        path.mkdir()
        with pytest.raises(FormatError) as caught:
            loader(path)
        assert str(caught.value) == f"not a file: {path}"
        with pytest.raises(FormatError) as caught:
            loader(tmp_path / "s2_supine.csv")
        assert str(caught.value) == f"no such file: {tmp_path / 's2_supine.csv'}"

    def test_oversized_cell_is_one_format_error(self, tmp_path, loader, text):
        path = tmp_path / "s1_supine.csv"
        path.write_bytes(text.encode() + _OVERSIZED_CELL + b",1,2\n")
        with pytest.raises(FormatError) as caught:
            loader(path)
        assert str(caught.value) == (
            f"{path}: malformed CSV: field larger than field limit (131072)"
        )

    def test_permission_error_is_one_format_error(self, tmp_path, loader, text, monkeypatch):
        path = tmp_path / "s1_supine.csv"
        path.write_text(text, "utf-8")

        def refuse(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(FormatError) as caught:
            loader(path)
        assert str(caught.value) == f"{path}: cannot read: Permission denied"

    def test_read_error_is_one_format_error(self, tmp_path, loader, text):
        path = tmp_path / "s1_supine.csv"
        path.write_text(text, "utf-8")
        # both loaders read the open file through csv.reader first
        with mock.patch("csv.reader", side_effect=OSError(errno.EIO, os.strerror(errno.EIO))):
            with pytest.raises(FormatError) as caught:
                loader(path)
        assert str(caught.value) == f"{path}: cannot read: Input/output error"


def _former_check_row(subject_id, position, params):
    ctx = f"row ({subject_id!r}, {position.value})"
    for name, value in params.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise FormatError(f"{ctx}: {name} is not finite")
    for name in ("HR", "RMSSD", "RR"):
        if params[name] <= 0:
            raise FormatError(f"{ctx}: {name} must be positive")
    for name in DERIVED_SOURCES["BR"]:
        if params[name] < 0:
            raise FormatError(f"{ctx}: {name} must be nonnegative")
    if not 0.0 <= params["BR"] <= 100.0:
        raise FormatError(f"{ctx}: BR out of [0, 100]")


def former_load_parameter_table(path):
    """The row-by-row loader that the columnar one replaced, kept as the
    reference for its tables and messages: each line is checked in full,
    values included, before the next is read, and duplicate keys are
    looked for once every line has passed."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"no such file: {path}")
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        required = {"subject_id", "position", *PARAMETER_NAMES}
        if len(header) != len(set(header)):
            raise FormatError(f"{path}: duplicate column in header")
        extra = set(header) - required
        if extra:
            raise FormatError(f"{path}: unknown column(s) {sorted(extra)}")
        missing = required - set(header)
        if missing:
            raise FormatError(f"{path}: missing column(s) {sorted(missing)}")
        col = {name: header.index(name) for name in header}

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            if any(cell.strip() == "" for cell in row):
                raise FormatError(f"{path}:{lineno}: missing value; row rejected")
            ctx = f"{path}:{lineno}"
            params = {name: _parse_decimal(row[col[name]], ctx) for name in PARAMETER_NAMES}
            subject_id = row[col["subject_id"]].strip()
            position = Position.parse(row[col["position"]])
            _former_check_row(subject_id, position, params)
            rows.append(ParameterRow(subject_id, position, params))
    seen = set()
    for row in rows:
        key = (row.subject_id, row.position)
        if key in seen:
            raise FormatError(
                f"duplicate (subject, position) key ({row.subject_id!r}, {row.position.value})"
            )
        seen.add(key)
    return ParameterTable(tuple(rows))


def former_save_parameter_table(table, path):
    """The csv.writer writer that the joined one replaced, kept as the
    reference for its bytes."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "position", *PARAMETER_NAMES])
        for row in table.rows:
            writer.writerow(
                [row.subject_id, row.position.value]
                + [repr(float(row.params[name])) for name in PARAMETER_NAMES]
            )


_PARAMS_COLUMNS = ("subject_id", "position", *PARAMETER_NAMES)

# Cells that a mutation may write anywhere: faults of every kind, and valid
# text that plain float or the exact position names do not take as it is.
_MUTANT_CELLS = [
    "x", "1.2.3", "", " ", '"1,5"', "inf", "-inf", "nan", "NaN", "1e400", "1_0",
    "1e308", "-0.0", "0", "-1", "5e-324", "100.5", "sitting", "Supine", " standing ",
    "s001", '"s 2"',
]
# Per-column faults and edge values: HR, RMSSD, RR positive, BR's sources
# nonnegative, BR in [0, 100]
_MUTANT_VALUES = {
    "HR": ["0", "-0.0", "-3.5", "5e-324"],
    "RR": ["0", "1e308"],
    "ciRR": ["-0.1", "-1e-300", "-0.0"],
    "cExpV": ["-2"],
    "BR": ["100.5", "-0.5", "1e300", "100", "-0.0"],
    "position": ["sitting", "STANDING", "", " supine"],
}


@st.composite
def _mutated_params_csvs(draw):
    """A valid sem_cohort table written with a shuffled header, then up to
    four mutations: bad, blank or odd cells, padded cells, per-column
    faults, extra or missing fields, duplicate keys and blank lines, on any
    data line; optionally a byte-order mark and CRLF line ends."""
    table, _ = sem_cohort(draw(st.integers(min_value=2, max_value=5)), draw(st.integers(0, 3)))
    names = draw(st.permutations(_PARAMS_COLUMNS))
    lines = [list(names)]
    for row in table.rows:
        cells = {"subject_id": row.subject_id, "position": row.position.value}
        cells.update((n, repr(row.params[n])) for n in PARAMETER_NAMES)
        lines.append([cells[n] for n in names])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        kind = draw(
            st.sampled_from(
                ["cell", "cell", "pad", "value", "value", "value", "extra", "missing"]
                + ["duplicate", "blank"]
            )
        )
        line = lines[at]
        if not line and kind != "blank":
            continue
        if kind == "cell":
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_MUTANT_CELLS))
        elif kind == "pad":
            j = draw(st.integers(0, len(line) - 1))
            line[j] = f" {line[j]}\t"
        elif kind == "value":
            name = draw(st.sampled_from(sorted(_MUTANT_VALUES)))
            if names.index(name) < len(line):
                line[names.index(name)] = draw(st.sampled_from(_MUTANT_VALUES[name]))
        elif kind == "extra":
            line.append("1")
        elif kind == "missing":
            line.pop()
        elif kind == "duplicate":
            other = lines[draw(st.integers(min_value=1, max_value=len(lines) - 1))]
            lines[at] = list(other)
        else:
            lines.insert(at, [])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(",".join(line) for line in lines) + end


def _load_outcome_of(loader, path):
    try:
        return loader(path)
    except FormatError as exc:
        return str(exc)


def _assert_same_table(got, want):
    assert isinstance(got, ParameterTable)
    assert got == want
    assert got.rows == want.rows
    assert got.common_subjects() == want.common_subjects()
    for position in Position:
        assert got.subjects(position) == want.subjects(position)
        _assert_same_array(got.matrix(position), want.matrix(position))


@settings(max_examples=400, deadline=None)
@given(_mutated_params_csvs())
def test_columnar_loader_matches_former(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("params") / "params.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _load_outcome_of(former_load_parameter_table, path)
    got = _load_outcome_of(load_parameter_table, path)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_table(got, want)


_TWO_FAULTS = {
    "fields": lambda cells: cells + ["1"],
    "blank": lambda cells: cells[:-1] + [""],
    "decimal": lambda cells: cells[:4] + ["x"] + cells[5:],
    "position": lambda cells: cells[:1] + ["sitting"] + cells[2:],
    "HR": lambda cells: cells[:2] + ["0"] + cells[3:],
    "source": lambda cells: cells[:6] + ["-0.1"] + cells[7:],
    "BR": lambda cells: cells[:11] + ["101"],
}


@pytest.mark.parametrize("second", sorted(_TWO_FAULTS))
@pytest.mark.parametrize("first", sorted(_TWO_FAULTS))
def test_first_fault_in_file_order_wins(tmp_path, first, second):
    # lines 3 and 5 of a four-row table get one fault each; whatever the
    # kinds, the file raises what line 3's fault raises on its own
    table, _ = sem_cohort(2, seed=0)
    path = tmp_path / "params.csv"
    former_save_parameter_table(table, path)
    lines = path.read_text("utf-8").splitlines()

    def outcomes(faults):
        text = list(lines)
        for at, kind in faults:
            text[at] = ",".join(_TWO_FAULTS[kind](text[at].split(",")))
        path.write_text("\n".join(text) + "\n", "utf-8")
        return (
            _load_outcome_of(former_load_parameter_table, path),
            _load_outcome_of(load_parameter_table, path),
        )

    alone = outcomes([(2, first)])
    assert isinstance(alone[0], str) and alone[1] == alone[0]
    assert outcomes([(2, first), (4, second)]) == alone


def test_value_fault_comes_before_duplicate_key():
    table, _ = sem_cohort(3, seed=0)
    ids = ["s001", "s001", "s002"]
    values = table.matrix(Position.SUPINE)
    values[2, PARAMETER_NAMES.index("RR")] = -1.0
    with pytest.raises(FormatError) as caught:
        ParameterTable.from_columns(ids, [Position.SUPINE] * 3, values)
    assert str(caught.value) == "row ('s002', supine): RR must be positive"
    values[2, PARAMETER_NAMES.index("RR")] = 1.0
    with pytest.raises(FormatError) as caught:
        ParameterTable.from_columns(ids, [Position.SUPINE] * 3, values)
    assert str(caught.value) == "duplicate (subject, position) key ('s001', supine)"


_positive = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
)
_nonnegative = st.one_of(st.just(-0.0), st.just(5e-324), st.floats(min_value=0.0, max_value=1e300))
_anything = st.one_of(
    st.sampled_from([-0.0, -5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_br = st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=100.0))

# ids that csv.writer must quote (a comma, a quote, a line feed), non-ASCII
# ids and plain ones; a carriage return is covered on its own below
_IDS = st.text(alphabet=st.sampled_from(list('ab,"\n é日\u2028')), min_size=1, max_size=6)


@st.composite
def _writer_tables(draw):
    ids = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    rows = []
    for subject in ids:
        for pos in draw(st.sampled_from([("supine",), ("standing",), ("supine", "standing")])):
            params = {name: draw(_anything) for name in PARAMETER_NAMES}
            params.update((name, draw(_positive)) for name in ("HR", "RMSSD", "RR"))
            params.update((name, draw(_nonnegative)) for name in DERIVED_SOURCES["BR"])
            params["BR"] = draw(_br)
            rows.append(ParameterRow(subject, Position(pos), params))
    return ParameterTable(draw(st.permutations(rows)))


@settings(max_examples=200, deadline=None)
@given(_writer_tables())
def test_joined_writer_matches_csv_writer(tmp_path_factory, table):
    work = tmp_path_factory.mktemp("writer")
    save_parameter_table(table, work / "new.csv")
    former_save_parameter_table(table, work / "former.csv")
    assert (work / "new.csv").read_bytes() == (work / "former.csv").read_bytes()
    # the loader strips the ids, so only stripped ones can come back equal
    if all(row.subject_id.strip() == row.subject_id for row in table.rows):
        back = load_parameter_table(work / "new.csv")
        _assert_same_table(back, table)
        # what bench/replica.py builds from the records' parameter vectors
        rows = tuple(ParamVector(r.params).to_row(r.subject_id, r.position) for r in table.rows)
        _assert_same_table(ParameterTable(rows), back)
        save_parameter_table(back, work / "again.csv")
        assert (work / "again.csv").read_bytes() == (work / "new.csv").read_bytes()


@pytest.mark.parametrize("subject", ["a\rb", "a\r\nb", "x,\ry", 'q"\rx'])
def test_carriage_return_ids_are_quoted(tmp_path, subject):
    # csv.writer on Python 3.11 quotes a carriage return only with a line
    # terminator that holds one; the former writer left "a\rb" bare, and
    # the reader then split its line in two
    table = ParameterTable((_param_row(subject, "supine"), _param_row("b", "standing")))
    save_parameter_table(table, tmp_path / "new.csv")
    former_save_parameter_table(table, tmp_path / "former.csv")
    quoted = ('"' + subject.replace('"', '""') + '"').encode()
    new = (tmp_path / "new.csv").read_bytes()
    assert b"\n" + quoted + b",supine," in new
    former = (tmp_path / "former.csv").read_bytes()
    assert former.replace(b"\n" + subject.encode() + b",", b"\n" + quoted + b",", 1) == new
    assert load_parameter_table(tmp_path / "new.csv") == table


class TestParamsInputPathThroughTheCli:
    """A params input that is a directory, or that does not exist, ends the
    CLI with one line on stderr that says which."""

    @staticmethod
    def analyze(path, tmp_path, capsys):
        code = cli.main(
            ["analyze", "--input", str(path), "--input-kind", "params", "--out", str(tmp_path / "out")]
        )
        out, err = capsys.readouterr()
        assert out == ""
        return code, err.splitlines()

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        path = tmp_path / "params.csv"
        path.mkdir()
        assert self.analyze(path, tmp_path, capsys) == (2, [f"analysis failed: not a file: {path}"])

    def test_missing_path_does_not_exist(self, tmp_path, capsys):
        path = tmp_path / "params.csv"
        assert self.analyze(path, tmp_path, capsys) == (
            3,
            [f"error: input path does not exist: {path}"],
        )
