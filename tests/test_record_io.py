"""File-format contracts: signal CSV and parameter-table CSV."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiocausal.record_io import (
    PARAMETER_NAMES,
    FormatError,
    ParameterRow,
    ParameterTable,
    Position,
    SignalRecord,
    _load_signal_rows,
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
        assert table.row("s001", Position.SUPINE).params == row.params

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
    for position in Position:
        assert table.subjects(position) == ref.subjects(position)
        for subject in ref.subjects(position):
            assert table.row(subject, position) is ref.row(subject, position)
        for name in PARAMETER_NAMES:
            _assert_same_array(table.column(name, position), ref.column(name, position))
        _assert_same_array(table.matrix(position), ref.matrix(position, PARAMETER_NAMES))
        _assert_same_array(table.matrix(position, names), ref.matrix(position, names))
        _assert_same_key_error(table.column, ref.column, "HRV", position)
        _assert_same_key_error(table.matrix, ref.matrix, position, (*names, "HRV", "x"))
        _assert_same_key_error(table.row, ref.row, "nobody", position)
        other = Position.STANDING if position is Position.SUPINE else Position.SUPINE
        for subject in set(ref.subjects(position)) - set(ref.subjects(other)):
            _assert_same_key_error(table.row, ref.row, subject, other)
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


@settings(max_examples=300, deadline=None)
@given(
    _ARBITRARY_BYTES,
    st.sampled_from(["signal", "params"]),
    st.sampled_from([b"", b"t,ecg,ip\n", _PARAMS_HEADER]),
)
def test_arbitrary_bytes_raise_only_format_error(tmp_path_factory, data, kind, header):
    path = tmp_path_factory.mktemp("bytes") / "s1_supine.csv"
    path.write_bytes(header + data)
    loader = load_signal_record if kind == "signal" else load_parameter_table
    try:
        loader(path)
    except FormatError:
        pass
