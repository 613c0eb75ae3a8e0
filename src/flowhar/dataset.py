"""Recording ingestion, cleaning, windowing, and leave-one-user-out splits.

Recordings are columnar text files (whitespace or comma separated), one row
per timestep, as shipped by the public activity datasets.  A DatasetSpec
describes where each sensor's accelerometer/magnetometer/gyroscope triplets
live, where the activity label and subject id come from, and how raw label
codes map onto contiguous class indices.
"""

from __future__ import annotations

import math
import pathlib
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .attitude import MahonyParams
from .errors import ConfigError, DataError, InvalidInputError, ParseError
from .globalview import mc_transform


@dataclass(frozen=True)
class SensorColumns:
    accel: tuple[int, int, int]
    mag: tuple[int, int, int]
    gyro: tuple[int, int, int]

    def all_columns(self):
        return list(self.accel) + list(self.mag) + list(self.gyro)


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    sensors: dict[str, SensorColumns]
    label_col: int
    subject_source: str  # "col:<idx>" or "filename:<regex with one group>"
    native_rate_hz: float
    decimate_factor: int = 1
    gyro_unit: str = "rad/s"
    label_map: dict[int, int] = field(default_factory=dict)
    num_classes: int = 0

    def __post_init__(self):
        if not self.subject_source.startswith(("col:", "filename:")):
            raise ConfigError("subject must be col:<idx> or filename:<regex>")
        try:
            subject_col = self.subject_col
        except ValueError as exc:
            raise ConfigError(f"bad subject column in {self.subject_source!r}") from exc
        if subject_col is None:
            try:
                groups = re.compile(self.subject_source[len("filename:"):]).groups
            except re.error as exc:
                raise ConfigError(f"bad subject pattern in {self.subject_source!r}: {exc}") from exc
            if groups < 1:
                raise ConfigError(f"subject pattern {self.subject_source!r} has no group")
        cols = []
        for sc in self.sensors.values():
            cols.extend(sc.all_columns())
        if len(cols) != len(set(cols)):
            raise ConfigError("sensor channel columns overlap")
        if min([*cols, self.label_col, subject_col or 0]) < 0:
            raise ConfigError("spec columns must be non-negative")
        if self.decimate_factor < 1:
            raise ConfigError("decimate_factor must be >= 1")
        if not 0 < self.native_rate_hz < math.inf:
            raise ConfigError("native_rate_hz must be positive and finite")
        if self.gyro_unit not in ("rad/s", "deg/s"):
            raise ConfigError("gyro_unit must be 'rad/s' or 'deg/s'")
        mapped = list(self.label_map.values())
        if len(mapped) != len(set(mapped)):
            raise ConfigError("label map must be injective")
        if any(not 0 <= c < self.num_classes for c in mapped):
            raise ConfigError(f"label map class indices must lie in [0, {self.num_classes})")

    @property
    def subject_col(self):
        """The subject id column of a "col:<idx>" source, else None."""
        if self.subject_source.startswith("col:"):
            return int(self.subject_source[len("col:"):])
        return None


@dataclass
class Recording:
    """One subject's continuous multi-sensor stream."""

    subject_id: str
    sensors: dict[str, np.ndarray]  # name -> (t, 9) float array
    labels: np.ndarray  # (t,) int raw label codes
    valid: np.ndarray  # (t,) bool, False inside unusable gaps
    sample_rate_hz: float

    def __post_init__(self):
        t = len(self.labels)
        for name, arr in self.sensors.items():
            if arr.shape != (t, 9):
                raise InvalidInputError(f"sensor {name} shape {arr.shape} != ({t}, 9)")
        if self.valid.shape != (t,):
            raise InvalidInputError("valid mask length mismatch")

    @property
    def length(self):
        return len(self.labels)


@dataclass(frozen=True)
class Window:
    """One training window.  data is a read-only (t, c) view into the channel
    matrix it was cut from, so windows that overlap share their rows."""

    data: np.ndarray  # (t, c)
    label: int  # class index in [0, k)
    subject_id: str


def _first_non_utf8_line(path):
    """The 1-based number of the first line of path that is not UTF-8."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no


def read_key_values(path):
    """[(line_no, key, value)] of a UTF-8 file of `key = value` lines,
    stripped; '#' starts a comment.  A line without '=' or one that is not
    UTF-8 raises ParseError."""
    entries = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise ParseError(f"expected key = value, got {line!r}", line_no)
                entries.append((line_no, key.strip(), value.strip()))
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", _first_non_utf8_line(path)) from exc
    return entries


def _number(convert, value, line_no):
    """convert(value), or ParseError at line_no when value is not a number."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ParseError(f"expected {convert.__name__}, got {value!r}", line_no) from exc


_SPEC_KEYS = ("name", "native_rate_hz", "decimate", "gyro_unit", "label_col", "subject",
              "num_classes")


def parse_spec_file(path):
    """Read a DatasetSpec from a key=value file (see read_key_values).

    Recognized keys: name, native_rate_hz, decimate, gyro_unit, label_col,
    subject, num_classes, sensor.<name> (three comma lists separated by ';'
    in accel;mag;gyro order) and label.<raw> = <class index>.  Any other
    key, or one given twice, raises ParseError.  A ParseError's message
    starts with the file and, when it has one, the line.
    """
    try:
        return _parse_spec(read_key_values(path))
    except ParseError as exc:
        raise ParseError(exc.at(path), exc.line_no) from exc


def _parse_spec(entries):
    sensors = {}
    label_map = {}
    kv = {}
    line_of = {}
    for line_no, key, value in entries:
        if key.startswith("label."):
            raw = _number(int, key[len("label."):], line_no)
            key = f"label.{raw}"  # label.01 is label.1
        elif not key.startswith("sensor.") and key not in _SPEC_KEYS:
            raise ParseError(f"unknown key {key!r}", line_no)
        if key in line_of:
            raise ParseError(f"{key!r} repeats line {line_of[key]}", line_no)
        line_of[key] = line_no
        if key.startswith("sensor."):
            parts = value.split(";")
            if len(parts) != 3:
                raise ParseError("sensor needs accel;mag;gyro column triplets", line_no)
            triplets = []
            for part in parts:
                ix = tuple(_number(int, v, line_no) for v in part.split(","))
                if len(ix) != 3:
                    raise ParseError("each sensor group needs 3 columns", line_no)
                triplets.append(ix)
            sensors[key[len("sensor."):]] = SensorColumns(*triplets)
        elif key.startswith("label."):
            label_map[raw] = _number(int, value, line_no)
        else:
            kv[key] = value

    def number(key, convert, default=None):
        if key in kv:
            return _number(convert, kv[key], line_of[key])
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default

    return DatasetSpec(
        name=kv.get("name", "unnamed"),
        sensors=sensors,
        label_col=number("label_col", int),
        subject_source=kv.get("subject", "col:0"),
        native_rate_hz=number("native_rate_hz", float),
        decimate_factor=number("decimate", int, 1),
        gyro_unit=kv.get("gyro_unit", "rad/s"),
        label_map=label_map,
        num_classes=number("num_classes", int, len(set(label_map.values()))),
    )


def _parse_rows(path):
    """Numeric rows of a recording file, each as wide as the first."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.replace(",", " ").split()
            if rows and len(fields) != len(rows[0]):
                raise ParseError(
                    f"{path} line {line_no}: row has {len(fields)} fields, "
                    f"expected {len(rows[0])}", line_no
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ParseError(f"{path} line {line_no}: malformed row: {exc}", line_no) from exc
    return rows


def _read_table(path):
    """The rows of a recording file as one float array, equal bit for bit
    to _parse_rows'.

    NumPy's reader parses the data lines.  When it refuses them, _parse_rows
    reads the file again: it raises the ParseError with the file's line
    number, or parses forms that float() takes and NumPy does not (1_000).
    A file that is not UTF-8 raises ParseError naming its first such line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [s.replace(",", " ") for s in map(str.strip, fh)
                     if s and not s.startswith("#")]
    except UnicodeDecodeError as exc:
        line_no = _first_non_utf8_line(path)
        raise ParseError(f"{path} line {line_no}: not UTF-8 text", line_no) from exc
    # loadtxt would skip a line of only commas, where _parse_rows reads a row
    # of no fields, and it warns when it gets no lines at all.
    if lines and not any(map(str.isspace, lines)):
        try:
            # comments=None: a row with a trailing "# note" is malformed.
            return np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    return np.asarray(_parse_rows(path), dtype=float)


def load_recording(path, spec):
    """Load a columnar recording file into one Recording per subject run.

    Gyroscope values are converted to rad/s.  Rows whose label code has no
    entry in the label map are kept (windowing drops them later).  A
    "filename:" subject pattern is searched in the file's name alone, not in
    its directories.
    """
    data = _read_table(path)
    if not data.size:
        raise DataError(f"{path}: file contains no data rows")
    needed = [spec.label_col]
    for sc in spec.sensors.values():
        needed.extend(sc.all_columns())
    subj_col = spec.subject_col
    if subj_col is not None:
        needed.append(subj_col)
    if max(needed) >= data.shape[1]:
        raise DataError(
            f"{path}: spec needs column {max(needed)} but file has {data.shape[1]} columns"
        )

    labels_raw = data[:, spec.label_col]
    # The range test also rejects NaN and inf; 2**63 itself is out of int64.
    in_int64 = (labels_raw >= -(2.0**63)) & (labels_raw < 2.0**63)
    if not np.all(in_int64 & (labels_raw == np.round(labels_raw))):
        raise DataError(
            f"{path}: label column {spec.label_col} is not integral within int64"
        )
    labels = labels_raw.astype(int)

    # One Recording per run of equal subject ids: bounds[k]:bounds[k + 1].
    if subj_col is not None:
        subj = data[:, subj_col]
        if not np.all(np.isfinite(subj)) or np.any(subj != np.round(subj)):
            raise DataError(f"{path}: subject column is not integral")
        bounds = [0, *(np.flatnonzero(subj[1:] != subj[:-1]) + 1), len(data)]
        subjects = [str(int(subj[start])) for start in bounds[:-1]]
    else:
        m = re.search(spec.subject_source.split(":", 1)[1], pathlib.Path(path).name)
        if not m:
            raise DataError(f"{path}: subject pattern did not match the file name")
        bounds = [0, len(data)]
        subjects = [m.group(1)]

    gyro_scale = math.pi / 180.0 if spec.gyro_unit == "deg/s" else 1.0

    recordings = []
    for subject, start, end in zip(subjects, bounds[:-1], bounds[1:]):
        sensors = {}
        for name, sc in spec.sensors.items():
            block = data[start:end, sc.all_columns()]
            block[:, 6:9] *= gyro_scale
            sensors[name] = block
        recordings.append(
            Recording(
                subject_id=subject,
                sensors=sensors,
                labels=labels[start:end].copy(),
                valid=np.ones(end - start, dtype=bool),
                sample_rate_hz=spec.native_rate_hz,
            )
        )
    return recordings


def interpolate_nans(rec, max_gap):
    """Fill short NaN gaps per channel; flag longer ones as invalid.

    Interior gaps up to max_gap samples are linearly interpolated.  Leading
    and trailing gaps are filled with the nearest valid value.  Gaps longer
    than max_gap are still filled (so arrays stay finite) but the region is
    marked invalid and windows touching it will be dropped.
    """
    valid = rec.valid.copy()
    sensors = {}
    for name, arr in rec.sensors.items():
        out = arr.copy()
        for ch in range(arr.shape[1]):
            col = out[:, ch]
            bad = ~np.isfinite(col)
            if not bad.any():
                continue
            if bad.all():
                raise DataError(f"sensor {name} channel {ch} has no valid samples")
            good_ix = np.flatnonzero(~bad)
            col[:] = np.interp(np.arange(len(col)), good_ix, col[good_ix])
            # Mark over-long runs invalid.  Leading/trailing runs count too.
            # Padding makes every run's start and end a change in the mask,
            # and the bad samples in order are the runs back to back.
            edges = np.flatnonzero(np.diff(np.pad(bad, 1)))
            run_len = edges[1::2] - edges[0::2]
            valid[np.flatnonzero(bad)[np.repeat(run_len > max_gap, run_len)]] = False
        sensors[name] = out
    return replace(rec, sensors=sensors, valid=valid)


def decimate(rec, factor):
    """Keep every factor-th sample and divide the sample rate accordingly."""
    if factor < 1:
        raise InvalidInputError("decimation factor must be >= 1")
    if factor == 1:
        return rec
    return Recording(
        subject_id=rec.subject_id,
        sensors={name: arr[::factor].copy() for name, arr in rec.sensors.items()},
        labels=rec.labels[::factor].copy(),
        valid=rec.valid[::factor].copy(),
        sample_rate_hz=rec.sample_rate_hz / factor,
    )


def segment_windows(data, labels, valid, subject_id, win_len, stride, label_map):
    """Slide a window over an assembled (t, c) channel matrix.

    Windows overlapping invalid or non-finite rows, or whose majority raw
    label is not in the label map, are dropped; ties go to the smallest
    mapped class.  A stream shorter than win_len yields an empty list.
    Each window's data is a slice of one read-only view of data, not a copy:
    a write through a window raises, and data itself stays writable.
    """
    if stride < 1 or win_len < 1:
        raise InvalidInputError("stride and win_len must be >= 1")
    starts = np.arange(0, len(data) - win_len + 1, stride)
    bad_before = np.concatenate([[0], np.cumsum(~valid | ~np.isfinite(data).all(axis=1))])
    starts = starts[bad_before[starts + win_len] == bad_before[starts]]
    if not starts.size:
        return []
    # counts[w, k]: the rows of window w whose raw label is codes[k].
    codes, code_ix = np.unique(labels, return_inverse=True)
    rows = starts[:, None] + np.arange(win_len)
    pairs = np.arange(len(starts))[:, None] * len(codes) + code_ix[rows]
    counts = np.bincount(pairs.ravel(), minlength=len(starts) * len(codes)).reshape(len(starts), -1)
    known = np.array([int(c) in label_map for c in codes])
    mapped = np.array([label_map.get(int(c), 0) for c in codes])
    # Mapped codes first, by class: a window's first top code in this order is
    # its smallest mapped class, or an unmapped code when none of them maps.
    order = np.lexsort((mapped, ~known))
    pick = order[counts[:, order].argmax(axis=1)]
    keep = known[pick]
    view = np.asarray(data).view()
    view.flags.writeable = False
    return [
        Window(data=view[s:s + win_len], label=label, subject_id=subject_id)
        for s, label in zip(starts[keep].tolist(), mapped[pick[keep]].tolist())
    ]


def assemble_channels(rec, mode, mahony_params=None):
    """Build the per-timestep channel matrix for one recording.

    mode: "local" (9 per sensor), "global" (13 per sensor), or "concat"
    (local block then global block per sensor, 22 channels, sensor-major).
    Global modes run M&C per sensor and trim the shared warm-up prefix from
    labels and the validity mask as well.
    Returns (matrix, labels, valid).
    """
    if mode not in ("local", "global", "concat"):
        raise ConfigError(f"unknown channel mode {mode!r}")
    names = list(rec.sensors)
    if mode == "local":
        matrix = np.concatenate([rec.sensors[n] for n in names], axis=1)
        return matrix, rec.labels.copy(), rec.valid.copy()

    # The filter runs at the recording's own rate, whatever mahony_params says.
    mahony_params = replace(mahony_params or MahonyParams(), sample_rate_hz=rec.sample_rate_hz)
    blocks = []
    for n in names:
        global_ = mc_transform(rec.sensors[n], mahony_params)
        trim = rec.length - len(global_)
        blocks += [global_] if mode == "global" else [rec.sensors[n][trim:], global_]
    matrix = np.concatenate(blocks, axis=1)
    return matrix, rec.labels[trim:].copy(), rec.valid[trim:].copy()


def build_windows(recordings, mode, win_len, stride, label_map, mahony_params=None):
    """assemble_channels + segment_windows over a list of recordings.

    M&C runs on each full continuous recording before windowing, so windows
    never straddle recording boundaries.  The windows of one recording are
    views into its one channel matrix, which they keep alive.  Every
    recording must list the first one's sensors in the same order, since
    each sensor's channels sit at a fixed offset in every window.
    """
    windows = []
    for rec in recordings:
        names, first = list(rec.sensors), list(recordings[0].sensors)
        if names != first:
            raise InvalidInputError(
                f"subject {rec.subject_id!r} has sensors {names}, but subject "
                f"{recordings[0].subject_id!r} has {first}; every recording needs "
                "the same sensors in the same order")
        matrix, labels, valid = assemble_channels(rec, mode, mahony_params)
        windows.extend(
            segment_windows(matrix, labels, valid, rec.subject_id, win_len, stride, label_map)
        )
    return windows
