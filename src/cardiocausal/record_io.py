"""On-disk formats: raw two-channel recordings and parameter tables.

Signal files are CSV with header ``t,ecg,ip`` and one row per sample; the
sample rate is inferred from the median of successive ``t`` differences and
must be uniform within 1%.  Subject id and body position come from the file
name stem, ``<subject_id>_<position>.csv``, unless passed explicitly.

Parameter files are CSV with columns ``subject_id``, ``position`` and the ten
parameter names (any column order, no extras).
"""

from __future__ import annotations

import csv
import math
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


@dataclass(frozen=True)
class ParameterRow:
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
        ctx = f"row ({self.subject_id!r}, {self.position.value})"
        for name, value in self.params.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise FormatError(f"{ctx}: {name} is not finite")
        for name in ("HR", "RMSSD", "RR"):
            if self.params[name] <= 0:
                raise FormatError(f"{ctx}: {name} must be positive")
        for name in DERIVED_SOURCES["BR"]:
            if self.params[name] < 0:
                raise FormatError(f"{ctx}: {name} must be nonnegative")
        if not 0.0 <= self.params["BR"] <= 100.0:
            raise FormatError(f"{ctx}: BR out of [0, 100]")


_COLUMN_INDEX = {name: j for j, name in enumerate(PARAMETER_NAMES)}


@dataclass(frozen=True)
class ParameterTable:
    """Parameter rows, indexed by position when the table is built.

    Each position keeps the row number of each subject, in sorted subject
    order, and a float64 subjects x PARAMETER_NAMES matrix, so lookups are
    dict lookups and array slices.  Tables compare equal when their rows do.
    """

    rows: tuple[ParameterRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        by_key: dict[tuple[str, Position], ParameterRow] = {}
        for row in self.rows:
            key = (row.subject_id, row.position)
            if key in by_key:
                raise FormatError(
                    f"duplicate (subject, position) key ({row.subject_id!r},"
                    f" {row.position.value})"
                )
            by_key[key] = row
        slots, values = {}, {}
        for position in Position:
            subjects = sorted(s for s, p in by_key if p is position)
            slots[position] = {s: i for i, s in enumerate(subjects)}
            values[position] = np.array(
                [[by_key[s, position].params[n] for n in PARAMETER_NAMES] for s in subjects],
                dtype=float,
            ).reshape(len(subjects), len(PARAMETER_NAMES))
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_values", values)

    def subjects(self, position: Position) -> list[str]:
        return list(self._slots[position])

    def common_subjects(self) -> list[str]:
        """Subjects present in both positions, sorted."""
        standing = self._slots[Position.STANDING]
        return [s for s in self._slots[Position.SUPINE] if s in standing]

    def row(self, subject_id: str, position: Position) -> ParameterRow:
        return self._by_key[subject_id, position]

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
        common = self.common_subjects()
        supine, standing = (
            self._values[p][[self._slots[p][s] for s in common], j]
            for p in (Position.SUPINE, Position.STANDING)
        )
        return supine, standing


@contextmanager
def _open_csv(path: Path):
    """Open a CSV file as UTF-8 text, dropping a leading byte-order mark.

    Bytes that are not UTF-8 raise FormatError, wherever they are read.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


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
    if not path.is_file():
        raise FormatError(f"no such file: {path}")
    if "_" not in path.stem:
        raise FormatError(
            f"cannot infer subject/position from file name {path.name!r};"
            " expected <subject_id>_<position>.csv"
        )
    subject_id, _, pos_text = path.stem.rpartition("_")
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


def load_parameter_table(path) -> ParameterTable:
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
            params = {
                name: _parse_decimal(row[col[name]], f"{path}:{lineno}")
                for name in PARAMETER_NAMES
            }
            rows.append(
                ParameterRow(
                    subject_id=row[col["subject_id"]].strip(),
                    position=Position.parse(row[col["position"]]),
                    params=params,
                )
            )
    return ParameterTable(tuple(rows))


def save_parameter_table(table: ParameterTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "position", *PARAMETER_NAMES])
        for row in table.rows:
            writer.writerow(
                [row.subject_id, row.position.value]
                + [repr(float(row.params[name])) for name in PARAMETER_NAMES]
            )
