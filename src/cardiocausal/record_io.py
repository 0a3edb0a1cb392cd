"""On-disk formats: raw two-channel recordings and parameter tables.

Signal files are CSV with header ``t,ecg,ip`` and one row per sample; the
sample rate is inferred from the median of successive ``t`` differences and
must be uniform within 1%.  Subject id and body position come from the file
name stem, ``<subject_id>_<position>.csv``; the subject id may not be blank.

Parameter files are CSV with columns ``subject_id``, ``position`` and the ten
parameter names (any column order, no extras).
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

PARAMETER_NAMES = (
    "HR",
    "RMSSD",
    "lnRMSSD",
    "RR",
    "ciRR",
    "cInsT",
    "cExpT",
    "cInsV",
    "cExpV",
    "BR",
)

# Deterministic functions of other parameters; structure search excludes or
# masks relationships between each entry and its sources.
DERIVED_SOURCES = {
    "lnRMSSD": ("RMSSD",),
    "BR": ("ciRR", "cInsT", "cExpT", "cInsV", "cExpV"),
}


class FormatError(ValueError):
    """Input file violates the documented CSV contract."""


class Position(Enum):
    SUPINE = "supine"
    STANDING = "standing"

    @classmethod
    def parse(cls, text: str) -> "Position":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise FormatError(f"unknown position {text!r}") from None


def _parse_decimal(text: str, context: str) -> float:
    text = text.strip()
    if "," in text:
        raise FormatError(f"{context}: locale comma in number {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{context}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"{context}: non-finite value {text!r}")
    return value


@dataclass(frozen=True)
class SignalRecord:
    """One subject/position recording: synchronous ECG and impedance channels."""

    subject_id: str
    position: Position
    sample_rate_hz: float
    ecg: np.ndarray
    ip: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ecg", np.asarray(self.ecg, dtype=float))
        object.__setattr__(self, "ip", np.asarray(self.ip, dtype=float))
        if not (isinstance(self.sample_rate_hz, (int, float)) and self.sample_rate_hz > 0):
            raise FormatError("sample_rate_hz must be positive")
        if self.ecg.ndim != 1 or self.ip.ndim != 1:
            raise FormatError("channels must be one-dimensional")
        if self.ecg.size != self.ip.size:
            raise FormatError(
                f"channel length mismatch: ecg has {self.ecg.size}, ip has {self.ip.size}"
            )
        if self.ecg.size < 30 * self.sample_rate_hz:
            raise FormatError("recording shorter than 30 s")
        if not (np.all(np.isfinite(self.ecg)) and np.all(np.isfinite(self.ip))):
            raise FormatError("non-finite sample")
        if not isinstance(self.position, Position):
            raise FormatError("position must be a Position")

    @property
    def duration_s(self) -> float:
        return self.ecg.size / self.sample_rate_hz


_COLUMN_INDEX = {name: j for j, name in enumerate(PARAMETER_NAMES)}
_POSITIVE = ("HR", "RMSSD", "RR")
_POSITIVE_COLUMNS = [_COLUMN_INDEX[name] for name in _POSITIVE]
_BR_SOURCE_COLUMNS = [_COLUMN_INDEX[name] for name in DERIVED_SOURCES["BR"]]


def _check_parameters(subject_id: str, position: Position, params: dict) -> None:
    """Raise FormatError on the first invalid value of one row, checked in
    this order: finite, HR/RMSSD/RR positive, BR's sources nonnegative,
    BR in [0, 100]."""
    ctx = f"row ({subject_id!r}, {position.value})"
    for name, value in params.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise FormatError(f"{ctx}: {name} is not finite")
    for name in _POSITIVE:
        if params[name] <= 0:
            raise FormatError(f"{ctx}: {name} must be positive")
    for name in DERIVED_SOURCES["BR"]:
        if params[name] < 0:
            raise FormatError(f"{ctx}: {name} must be nonnegative")
    if not 0.0 <= params["BR"] <= 100.0:
        raise FormatError(f"{ctx}: BR out of [0, 100]")


@dataclass(frozen=True)
class ParameterRow:
    """One subject and position: the element type of ``ParameterTable(rows)``
    and of ``ParameterTable.rows``."""

    subject_id: str
    position: Position
    params: dict[str, float]

    def __post_init__(self):
        if set(self.params) != set(PARAMETER_NAMES):
            missing = set(PARAMETER_NAMES) - set(self.params)
            extra = set(self.params) - set(PARAMETER_NAMES)
            raise FormatError(
                f"row for {self.subject_id!r}: wrong parameter set"
                f" (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        _check_parameters(self.subject_id, self.position, self.params)


class ParameterTable:
    """Subject ids, positions and one float64 rows x PARAMETER_NAMES matrix,
    in input row order, indexed by position when the table is built.

    Each position keeps its subjects in sorted order and their rows of the
    matrix in that order, so lookups are array slices.  Tables are
    immutable and compare equal when their rows do, in order.
    ``ParameterTable(rows)`` takes ParameterRow objects; ``from_columns``
    takes the three columns.
    """

    def __init__(self, rows):
        rows = tuple(rows)
        self._build(
            [row.subject_id for row in rows],
            [row.position for row in rows],
            [[row.params[name] for name in PARAMETER_NAMES] for row in rows],
        )

    @classmethod
    def from_columns(cls, subject_ids, positions, values) -> "ParameterTable":
        """Table of ``values[i]`` for ``(subject_ids[i], positions[i])``.  The
        first bad row, then the first duplicate key, raises FormatError."""
        table = cls.__new__(cls)
        table._build(subject_ids, positions, values)
        return table

    def _build(self, subject_ids, positions, values) -> None:
        ids, positions = tuple(subject_ids), tuple(positions)
        if len(positions) != len(ids):
            raise FormatError(f"{len(ids)} subject ids but {len(positions)} positions")
        values = _as_matrix(values, len(ids))
        _check_columns(ids, positions, values)
        seen = set()
        for key in zip(ids, positions):
            if key in seen:
                raise FormatError(
                    f"duplicate (subject, position) key ({key[0]!r}, {key[1].value})"
                )
            seen.add(key)
        slots, subjects, blocks = {}, {}, {}
        for position in Position:
            rows = [i for i, p in enumerate(positions) if p is position]
            slots[position] = dict(zip((ids[i] for i in rows), rows))
            subjects[position] = sorted(slots[position])
            blocks[position] = values[[slots[position][s] for s in subjects[position]]]
        standing = slots[Position.STANDING]
        common = [s for s in subjects[Position.SUPINE] if s in standing]
        self._ids, self._positions, self._matrix = ids, positions, values
        self._subjects, self._values, self._common = subjects, blocks, common
        # matrix rows of the common subjects, computed once for paired_columns
        self._common_rows = {
            p: np.array([slots[p][s] for s in common], dtype=np.intp) for p in Position
        }

    def __eq__(self, other):
        if not isinstance(other, ParameterTable):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._positions == other._positions
            and np.array_equal(self._matrix, other._matrix)
        )

    @property
    def rows(self) -> tuple[ParameterRow, ...]:
        """One ParameterRow per row, in input order, built on each call."""
        return tuple(
            ParameterRow(s, p, dict(zip(PARAMETER_NAMES, v)))
            for s, p, v in zip(self._ids, self._positions, self._matrix.tolist())
        )

    def subjects(self, position: Position) -> list[str]:
        return list(self._subjects[position])

    def common_subjects(self) -> list[str]:
        """Subjects present in both positions, sorted."""
        return list(self._common)

    def column(self, name: str, position: Position) -> np.ndarray:
        """Values of one parameter for one position, in sorted subject order."""
        return self._values[position][:, _COLUMN_INDEX[name]].copy()

    def matrix(self, position: Position, names=PARAMETER_NAMES) -> np.ndarray:
        """Design matrix for one position: subjects (sorted) by parameters."""
        columns = [_COLUMN_INDEX[name] for name in names]
        # take returns a C-ordered copy; fancy indexing on axis 1 would return
        # Fortran order, which changes the summation order of later reductions
        return np.take(self._values[position], columns, axis=1)

    def paired_columns(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Supine and standing values for subjects present in both positions."""
        j = _COLUMN_INDEX[name]
        supine, standing = (
            self._matrix[self._common_rows[p], j] for p in (Position.SUPINE, Position.STANDING)
        )
        return supine, standing


def _as_matrix(values, rows: int) -> np.ndarray:
    """A float64 copy of ``values``, which must be ``rows`` rows of one value
    per parameter; any other shape raises FormatError."""
    shape = (rows, len(PARAMETER_NAMES))
    try:
        matrix = np.array(values, dtype=float)
    except ValueError as exc:  # ragged rows, or a value that is not a number
        raise FormatError(f"need {rows} rows of {shape[1]} parameter values: {exc}") from None
    if matrix.size == rows == 0:  # no rows at all has shape (0,)
        return matrix.reshape(shape)
    if matrix.shape != shape:
        raise FormatError(f"need {rows} rows of {shape[1]} parameter values, not {matrix.shape}")
    return matrix


def _check_columns(ids, positions, values: np.ndarray) -> None:
    """The row checks of ``_check_parameters`` on whole columns; the first
    bad row is re-checked on its own to raise its message."""
    bad = ~np.isfinite(values).all(axis=1)
    bad |= (values[:, _POSITIVE_COLUMNS] <= 0).any(axis=1)
    bad |= (values[:, _BR_SOURCE_COLUMNS] < 0).any(axis=1)
    br = values[:, _COLUMN_INDEX["BR"]]
    bad |= ~((0.0 <= br) & (br <= 100.0))
    if bad.any():
        i = int(np.argmax(bad))
        _check_parameters(ids[i], positions[i], dict(zip(PARAMETER_NAMES, values[i].tolist())))


def _require_file(path: Path) -> None:
    """FormatError unless ``path`` is a regular file, or a link to one."""
    if not path.is_file():
        raise FormatError(f"{'not a file' if path.exists() else 'no such file'}: {path}")


@contextmanager
def _open_csv(path: Path):
    """Open a CSV file as UTF-8 text, dropping a leading byte-order mark.

    Bytes that are not UTF-8, a cell the csv module rejects (one over its
    field size limit, say) and a file that cannot be opened or read raise
    FormatError, wherever they are met.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV: {exc}") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _check_signal_header(path: Path, reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    if [h.strip() for h in header] != ["t", "ecg", "ip"]:
        raise FormatError(f"{path}: malformed header {header!r}; expected t,ecg,ip")


def _load_signal_rows(path: Path) -> np.ndarray:
    """Parse a signal file row by row into an (n, 3) array.

    Slower than ``np.loadtxt`` but it accepts everything ``float`` does
    (underscores, quoted cells) and names the line of the first bad value.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        _check_signal_header(path, reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            if row[1].strip() == "" or row[2].strip() == "":
                raise FormatError(f"{path}:{lineno}: channel length mismatch (empty cell)")
            ctx = f"{path}:{lineno}"
            rows.append([_parse_decimal(cell, ctx) for cell in row])
    return np.array(rows, dtype=float).reshape(-1, 3)


def _sample_rate_hz(path: Path, t: np.ndarray) -> float:
    """Sample rate from the time column, which must be uniform within 1%."""
    if t.size < 2:
        raise FormatError(f"{path}: too few samples")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise FormatError(f"{path}: time column not strictly increasing")
    dt_med = float(np.median(dt))
    if np.any(np.abs(dt - dt_med) > 0.01 * dt_med):
        raise FormatError(f"{path}: non-uniform sampling (jitter beyond 1%)")
    return 1.0 / dt_med


def load_signal_record(path) -> SignalRecord:
    path = Path(path)
    _require_file(path)
    subject_id, _, pos_text = path.stem.rpartition("_")
    # stripped as load_parameter_table strips it, so params.csv loads back
    subject_id = subject_id.strip()
    # no underscore, or nothing before it: a params.csv row needs a subject id
    if not subject_id:
        raise FormatError(
            f"cannot infer subject/position from file name {path.name!r};"
            " expected <subject_id>_<position>.csv"
        )
    position = Position.parse(pos_text)

    with _open_csv(path) as fh:
        _check_signal_header(path, csv.reader(fh))
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a header-only file, which the row parser
                # then reports as too few samples
                warnings.simplefilter("ignore")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    # Anything loadtxt rejects or reads as non-finite is re-parsed row by row,
    # which accepts or rejects it with the same message as it always has.
    if data is None or data.shape[1] != 3 or not np.all(np.isfinite(data)):
        data = _load_signal_rows(path)
    t, ecg, ip = data.T.copy()
    return SignalRecord(
        subject_id=subject_id,
        position=position,
        sample_rate_hz=_sample_rate_hz(path, t),
        ecg=ecg,
        ip=ip,
    )


def save_signal_record(record: SignalRecord, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("t,ecg,ip\n")
        for i in range(record.ecg.size):
            t = i / record.sample_rate_hz
            fh.write(f"{t!r},{float(record.ecg[i])!r},{float(record.ip[i])!r}\n")


_POSITION_TEXT = {position.value: position for position in Position}


def _parse_parameter_line(row: list[str], col: dict[str, int], ctx: str):
    """``(subject_id, position, values)`` of one data line, or FormatError
    for its first fault: field count, empty cell, the first bad decimal in
    PARAMETER_NAMES order, unknown position."""
    if len(row) != len(col):
        raise FormatError(f"{ctx}: expected {len(col)} fields, got {len(row)}")
    if any(cell.strip() == "" for cell in row):
        raise FormatError(f"{ctx}: missing value; row rejected")
    values = [_parse_decimal(row[col[name]], ctx) for name in PARAMETER_NAMES]
    return row[col["subject_id"]].strip(), Position.parse(row[col["position"]]), values


def load_parameter_table(path) -> ParameterTable:
    """Parse a parameter file straight into the table's columns.

    The first line with a fault raises.  A line that plain ``float`` and
    the exact position names accept is taken as it is; any other is re-read
    by ``_parse_parameter_line``, which accepts it or raises its fault.
    Before that fault, or an unreadable byte or cell, propagates, the
    values of the lines read so far are checked, as their faults come
    first.  A duplicate key is reported once every line has passed.
    """
    path = Path(path)
    _require_file(path)
    ids, positions, values = [], [], []
    try:
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
            cells = operator.itemgetter(*(col[name] for name in PARAMETER_NAMES))
            id_col, position_col = col["subject_id"], col["position"]

            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    if len(row) != len(col):
                        raise ValueError
                    line = list(map(float, cells(row)))
                    subject_id = row[id_col].strip()
                    position = _POSITION_TEXT[row[position_col]]
                    # a non-finite cell makes the sum non-finite
                    if not (subject_id and math.isfinite(sum(line))):
                        raise ValueError
                except (ValueError, KeyError):
                    subject_id, position, line = _parse_parameter_line(
                        row, col, f"{path}:{lineno}"
                    )
                ids.append(subject_id)
                positions.append(position)
                values.append(line)
    except FormatError:
        _check_columns(ids, positions, _as_matrix(values, len(ids)))
        raise
    return ParameterTable.from_columns(ids, positions, values)


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell, quoted where csv.writer's QUOTE_MINIMAL
    quotes it and also where it holds a carriage return, which the reader
    would otherwise take for a line end."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_parameter_table(table: ParameterTable, path) -> None:
    """One line per row, in the table's input order; cells are the subject
    id, the position and ``repr`` of each value."""
    path = Path(path)
    lines = [",".join(["subject_id", "position", *PARAMETER_NAMES])]
    for subject_id, position, values in zip(
        table._ids, table._positions, table._matrix.tolist()
    ):
        lines.append(f"{_csv_cell(subject_id)},{position.value}," + ",".join(map(repr, values)))
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
