"""Ingestion, cleaning, windowing, and LOUO split tests."""

import importlib.util
import math
import os
import pathlib
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowhar import dataset, harness
from flowhar.attitude import MahonyParams
from flowhar.dataset import (
    DatasetSpec,
    Recording,
    SensorColumns,
    assemble_channels,
    build_windows,
    decimate,
    interpolate_nans,
    load_recording,
    parse_spec_file,
    segment_windows,
)
from flowhar.errors import ConfigError, DataError, InvalidInputError, ParseError
from flowhar.globalview import mc_transform
from flowhar.synth import SynthSpec, synth_population
from flowhar.trainer import EpochRecord, TrainConfig, TrainLog, stack_windows

SPEC_TEXT = """\
# one subject column, one 9-axis sensor
name = tiny
native_rate_hz = 30
decimate = 1
gyro_unit = deg/s
label_col = 1
subject = col:0
num_classes = 2

sensor.imu = 2,3,4; 5,6,7; 8,9,10

label.10 = 0
label.20 = 1
"""


def write_spec(tmp_path, text=SPEC_TEXT):
    path = tmp_path / "tiny.spec"
    path.write_text(text)
    return path


def make_rows(n, subject=1, label=10):
    rows = []
    for i in range(n):
        rows.append(
            [subject, label, 0.1 * i, -0.2, 9.8, 0.5, 0.0, 0.8, 90.0, 0.0, -45.0]
        )
    return rows


def write_recording(tmp_path, rows, name="rec.txt", sep=" "):
    path = tmp_path / name
    path.write_text("\n".join(sep.join(str(v) for v in row) for row in rows) + "\n")
    return path


def load_recording_loop(data, path, spec):
    """Per-row segmentation that load_recording used before it found subject
    boundaries with array ops; kept as the oracle for its recordings."""
    labels = data[:, spec.label_col].astype(int)
    if spec.subject_source.startswith("col:"):
        subjects = [str(int(v)) for v in data[:, int(spec.subject_source[4:])]]
    else:
        name = pathlib.Path(path).name
        subjects = [re.search(spec.subject_source.split(":", 1)[1], name).group(1)] * len(data)
    gyro_scale = math.pi / 180.0 if spec.gyro_unit == "deg/s" else 1.0
    recordings = []
    start = 0
    for end in range(1, len(data) + 1):
        if end == len(data) or subjects[end] != subjects[start]:
            seg = slice(start, end)
            sensors = {}
            for name, sc in spec.sensors.items():
                block = np.empty((end - start, 9))
                block[:, 0:3] = data[seg, :][:, list(sc.accel)]
                block[:, 3:6] = data[seg, :][:, list(sc.mag)]
                block[:, 6:9] = data[seg, :][:, list(sc.gyro)] * gyro_scale
                sensors[name] = block
            recordings.append((subjects[start], sensors, labels[seg].copy()))
            start = end
    return recordings


def parse_outcome(read, path):
    """What read(path) gives: the dtype, shape and bytes of its float array
    (NaN payloads included), or the file line of its ParseError."""
    try:
        rows = np.asarray(read(path), dtype=float)
    except ParseError as exc:
        return ("ParseError", exc.line_no)
    return (rows.dtype, rows.shape, rows.tobytes())


def assert_parse_matches_line_loop(path, read_table=dataset._read_table):
    """load_recording's parse is the line loop's, bit for bit."""
    assert parse_outcome(read_table, path) == parse_outcome(dataset._parse_rows, path)


def load_perfbench_inputs():
    """perfbench/inputs.py, the benchmark's input generator, as a module."""
    name = "perfbench_inputs"
    if name not in sys.modules:
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def interpolate_nans_loop(rec, max_gap):
    """interpolate_nans as it was with a per-sample run scan; the oracle for
    its fill and its valid mask."""
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
            run_start = None
            for i in range(len(bad) + 1):
                if i < len(bad) and bad[i]:
                    if run_start is None:
                        run_start = i
                elif run_start is not None:
                    if i - run_start > max_gap:
                        valid[run_start:i] = False
                    run_start = None
        sensors[name] = out
    return sensors, valid


class TestParseSpecFile:
    def test_round_trip(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        assert spec.name == "tiny"
        assert spec.native_rate_hz == 30.0
        assert spec.gyro_unit == "deg/s"
        assert spec.label_col == 1
        assert spec.subject_source == "col:0"
        assert spec.num_classes == 2
        assert spec.sensors["imu"] == SensorColumns((2, 3, 4), (5, 6, 7), (8, 9, 10))
        assert spec.label_map == {10: 0, 20: 1}

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("name = x\n")
        with pytest.raises(ParseError):
            parse_spec_file(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("name = x\nnot a key value line\n")
        with pytest.raises(ParseError) as exc:
            parse_spec_file(path)
        assert exc.value.line_no == 2

    def test_bad_sensor_triplets(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("sensor.imu = 1,2,3; 4,5\n")
        with pytest.raises(ParseError):
            parse_spec_file(path)

    @pytest.mark.parametrize("old, new", [
        ("label_col = 1", "label_col = x"),
        ("sensor.imu = 2,3,4;", "sensor.imu = 2,3,x;"),
        ("label.10 = 0", "label.abc = 0"),
        ("label.20 = 1", "label.20 = one"),
        ("native_rate_hz = 30", "native_rate_hz = fast"),
        ("decimate = 1", "decimate = two"),
        ("num_classes = 2", "num_classes = 2.5"),
    ])
    def test_non_numeric_value_reports_line(self, tmp_path, old, new):
        text = SPEC_TEXT.replace(old, new)
        with pytest.raises(ParseError) as exc:
            parse_spec_file(write_spec(tmp_path, text))
        lines = enumerate(text.splitlines(), start=1)
        assert exc.value.line_no == next(n for n, line in lines if line.startswith(new))

    def test_shipped_specs_parse(self):
        import importlib.resources as res

        for name in ("pamap2.spec", "opportunity.spec"):
            with res.as_file(res.files("flowhar.specs") / name) as path:
                spec = parse_spec_file(path)
            assert spec.num_classes == 18
            assert len(spec.sensors) >= 3


class TestDatasetSpecValidation:
    VALID = dict(name="x", sensors={"a": SensorColumns((0, 1, 2), (3, 4, 5), (6, 7, 8))},
                 label_col=9, subject_source="col:10", native_rate_hz=30)

    def test_overlapping_columns(self):
        with pytest.raises(ConfigError):
            DatasetSpec(
                name="x",
                sensors={"a": SensorColumns((0, 1, 2), (2, 3, 4), (5, 6, 7))},
                label_col=8,
                subject_source="col:9",
                native_rate_hz=30,
            )

    @pytest.mark.parametrize("kwargs", [
        {"sensors": {"a": SensorColumns((-1, 1, 2), (3, 4, 5), (6, 7, 8))}},
        {"label_col": -1},
        {"subject_source": "col:-1"},
        {"subject_source": "col:x"},
        {"subject_source": "subject"},
        {"subject_source": "row:1"},
        {"native_rate_hz": math.nan},
        {"native_rate_hz": math.inf},
    ])
    def test_validation(self, kwargs):
        DatasetSpec(**self.VALID)
        with pytest.raises(ConfigError):
            DatasetSpec(**{**self.VALID, **kwargs})

    def test_class_index_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_spec_file(write_spec(tmp_path, SPEC_TEXT + "label.6 = 7\n"))
        with pytest.raises(ConfigError):
            parse_spec_file(write_spec(tmp_path, SPEC_TEXT + "label.6 = -1\n"))

    def test_non_injective_label_map(self):
        with pytest.raises(ConfigError):
            DatasetSpec(
                name="x",
                sensors={"a": SensorColumns((0, 1, 2), (3, 4, 5), (6, 7, 8))},
                label_col=9,
                subject_source="col:10",
                native_rate_hz=30,
                label_map={1: 0, 2: 0},
            )


class TestLoadRecording:
    @pytest.fixture(autouse=True)
    def parse_matches_line_loop(self, monkeypatch):
        """Every file these tests load parses as the line loop parses it."""
        read_table = dataset._read_table

        def checked(path):
            assert_parse_matches_line_loop(path, read_table)
            return read_table(path)

        monkeypatch.setattr(dataset, "_read_table", checked)

    def test_length_contract(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(10))
        recs = load_recording(path, spec)
        assert len(recs) == 1
        assert recs[0].length == 10
        assert recs[0].subject_id == "1"
        assert recs[0].sensors["imu"].shape == (10, 9)

    def test_gyro_unit_conversion(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(3))
        rec = load_recording(path, spec)[0]
        # raw gyro columns were (90, 0, -45) deg/s
        assert np.allclose(rec.sensors["imu"][:, 6:9], np.radians([90.0, 0.0, -45.0]))

    def test_comma_separated(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(4), sep=",")
        assert load_recording(path, spec)[0].length == 4

    def test_too_few_columns(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        rows = [row[:6] for row in make_rows(4)]
        path = write_recording(tmp_path, rows)
        with pytest.raises(DataError, match="spec needs column"):
            load_recording(path, spec)

    def test_malformed_row_line_number(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        path = tmp_path / "bad.txt"
        good = " ".join(str(v) for v in make_rows(1)[0])
        path.write_text(good + "\n" + good.replace("9.8", "oops") + "\n")
        with pytest.raises(ParseError) as exc:
            load_recording(path, spec)
        assert exc.value.line_no == 2

    def test_ragged_row_reports_file_line(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        rows = [" ".join(str(v) for v in row) for row in make_rows(3)]
        text = "# header\n\n" + rows[0] + "\n# note\n" + rows[1] + "\n" + rows[2][:-8] + "\n"
        path = tmp_path / "ragged.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_recording(path, spec)
        assert exc.value.line_no == 6

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        from_filename=st.booleans(),
    )
    def test_matches_per_row_segmentation(self, tmp_path, runs, seed, from_filename):
        # Subjects repeat non-contiguously, e.g. 1 1 2 1 3 3.
        text = SPEC_TEXT
        if from_filename:
            text = text.replace("subject = col:0", r"subject = filename:subj(\d+)")
        spec = parse_spec_file(write_spec(tmp_path, text))
        rng = np.random.default_rng(seed)
        subjects = np.repeat([r[0] for r in runs], [r[1] for r in runs])
        data = rng.normal(size=(len(subjects), 11))
        data[:, 0] = subjects
        data[:, 1] = rng.choice([10, 20, 99], size=len(subjects))
        path = write_recording(tmp_path, data.tolist(), "subj5.txt")
        got = load_recording(path, spec)
        want = load_recording_loop(data, path, spec)
        assert [r.subject_id for r in got] == [w[0] for w in want]
        for rec, (_, sensors, labels) in zip(got, want):
            assert np.array_equal(rec.labels, labels)
            assert np.array_equal(rec.sensors["imu"], sensors["imu"])
            assert rec.valid.all() and rec.valid.shape == labels.shape

    def test_subject_change_splits_runs(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        rows = make_rows(5, subject=1) + make_rows(3, subject=2) + make_rows(2, subject=1)
        path = write_recording(tmp_path, rows)
        recs = load_recording(path, spec)
        assert [(r.subject_id, r.length) for r in recs] == [("1", 5), ("2", 3), ("1", 2)]

    @pytest.mark.parametrize("subject", [np.inf, np.nan, 1.5])
    def test_non_integral_subject_rejected(self, tmp_path, subject):
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(2) + make_rows(1, subject=subject))
        with pytest.raises(DataError, match="subject column is not integral"):
            load_recording(path, spec)

    def test_subject_from_filename(self, tmp_path):
        text = SPEC_TEXT.replace("subject = col:0", r"subject = filename:subj(\d+)")
        spec = parse_spec_file(write_spec(tmp_path, text))
        path = write_recording(tmp_path, make_rows(4), name="subj7.txt")
        recs = load_recording(path, spec)
        assert len(recs) == 1 and recs[0].subject_id == "7"

    def test_subject_pattern_ignores_directories(self, tmp_path):
        # OPPORTUNITY's pattern also matches "HARS2-" in the directory.
        text = SPEC_TEXT.replace("subject = col:0", r"subject = filename:S(\d+)-")
        spec = parse_spec_file(write_spec(tmp_path, text))
        (tmp_path / "HARS2-data").mkdir()
        path = write_recording(tmp_path, make_rows(4), name="HARS2-data/S3-ADL1.dat")
        assert [r.subject_id for r in load_recording(path, spec)] == ["3"]
        path = write_recording(tmp_path, make_rows(4), name="HARS2-data/ADL1.dat")
        with pytest.raises(DataError, match="did not match the file name"):
            load_recording(path, spec)

    @pytest.mark.parametrize("label", [1e300, -1e300, 2.0**63, 1.5, np.nan, np.inf])
    def test_label_not_int64_rejected(self, tmp_path, label):
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(2) + make_rows(1, label=label))
        with pytest.raises(DataError, match="is not integral within int64"):
            load_recording(path, spec)

    def test_int64_edge_labels_kept(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        edges = [-(2**63), 2**63 - 1024]  # 2**63 - 1024 is the largest double below 2**63
        path = write_recording(tmp_path, [make_rows(1, label=float(v))[0] for v in edges])
        assert load_recording(path, spec)[0].labels.tolist() == edges

    def test_unmapped_labels_kept(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        rows = make_rows(3, label=99)
        path = write_recording(tmp_path, rows)
        rec = load_recording(path, spec)[0]
        assert list(rec.labels) == [99, 99, 99]


class TestReadTable:
    """load_recording parses with NumPy's reader, as the line loop would."""

    @pytest.mark.parametrize("old, new", [
        *(("9.8", token) for token in [
            "+1", "1e5", "inf", "-Infinity", "nan", "NaN", "-nan", "1e400", "-0",
            "1_000", "0x10", "1.5j", "\u0661\u0662", "1 # note", ",,",
        ]),
        ("-45.0", "-45.0 # note"),
    ])
    def test_odd_token_parses_as_line_loop(self, tmp_path, old, new):
        rows = [" ".join(str(v) for v in row) for row in make_rows(3)]
        rows[1] = rows[1].replace(old, new)
        path = tmp_path / "odd.txt"
        path.write_text("# header\n" + "\n".join(rows) + "\n")
        assert_parse_matches_line_loop(path)

    @pytest.mark.parametrize("sep", ["\t", "\xa0", ", ", " ,"])
    @pytest.mark.parametrize("every_row", [True, False])
    def test_separator_parses_as_line_loop(self, tmp_path, sep, every_row):
        rows = [" ".join(str(v) for v in row) for row in make_rows(3)]
        for i in range(3) if every_row else [2]:
            rows[i] = rows[i].replace(" ", sep)
        path = tmp_path / "sep.txt"
        path.write_text("\n".join(rows) + "\n")
        assert_parse_matches_line_loop(path)

    def test_line_of_commas_reports_its_line(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        good = " ".join(str(v) for v in make_rows(1)[0])
        path = tmp_path / "commas.txt"
        path.write_text(f"{good}\n,,,\n{good}\n")
        with pytest.raises(ParseError) as exc:
            load_recording(path, spec)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text", ["", "# only\n\n  # comments\n", ",,\n ,\n"])
    def test_no_data_rows_without_warning(self, tmp_path, text):
        spec = parse_spec_file(write_spec(tmp_path))
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_recording(path, spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_files_parse_as_line_loop(self, tmp_path, seed):
        inputs = load_perfbench_inputs()
        for f in inputs.opportunity_files(tmp_path, seed, inputs.opportunity_spec(), 4, 900):
            assert_parse_matches_line_loop(f.path)

    def test_clean_file_skips_line_loop(self, tmp_path, monkeypatch):
        def line_loop(path):
            raise AssertionError("the line loop parsed a clean file")

        monkeypatch.setattr(dataset, "_parse_rows", line_loop)
        spec = parse_spec_file(write_spec(tmp_path))
        path = write_recording(tmp_path, make_rows(5), sep=",")
        assert load_recording(path, spec)[0].length == 5


class TestInterpolateNans:
    def _rec(self, col):
        arr = np.zeros((len(col), 9))
        arr[:, 0] = col
        return Recording(
            subject_id="s",
            sensors={"imu": arr},
            labels=np.zeros(len(col), dtype=int),
            valid=np.ones(len(col), dtype=bool),
            sample_rate_hz=30.0,
        )

    def test_midpoint(self):
        rec = interpolate_nans(self._rec([1.0, np.nan, 3.0]), max_gap=2)
        assert np.allclose(rec.sensors["imu"][:, 0], [1, 2, 3])
        assert rec.valid.all()

    def test_leading_fill(self):
        rec = interpolate_nans(self._rec([np.nan, 5.0, 5.0]), max_gap=2)
        assert np.allclose(rec.sensors["imu"][:, 0], [5, 5, 5])

    def test_over_long_gap_marked_invalid(self):
        col = [1.0, np.nan, np.nan, np.nan, 5.0]
        rec = interpolate_nans(self._rec(col), max_gap=2)
        assert np.all(np.isfinite(rec.sensors["imu"]))
        assert list(rec.valid) == [True, False, False, False, True]

    def test_all_nan_channel(self):
        with pytest.raises(DataError, match="channel 0 has no valid samples"):
            interpolate_nans(self._rec([np.nan, np.nan]), max_gap=1)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 60),
        density=st.floats(0.0, 0.7),
        edge_gaps=st.tuples(st.integers(0, 17), st.integers(0, 8), st.integers(0, 8)),
        max_gap=st.integers(0, 4),
    )
    def test_matches_per_sample_run_scan(self, seed, t, density, edge_gaps, max_gap):
        rng = np.random.default_rng(seed)
        nan_mask = rng.random((t, 18)) < density
        ch, lead, trail = edge_gaps  # a gap at the start and one at the end of one channel
        nan_mask[:lead, ch] = True
        nan_mask[max(t - trail, 0):, ch] = True
        data = np.arange(t * 18, dtype=float).reshape(t, 18) % 7.0 - 3.0
        data[nan_mask] = np.nan
        rec = Recording(
            subject_id="s",
            sensors={"a": data[:, :9], "b": data[:, 9:]},
            labels=np.zeros(t, dtype=int),
            valid=rng.random(t) < 0.9,
            sample_rate_hz=30.0,
        )
        try:
            want_sensors, want_valid = interpolate_nans_loop(rec, max_gap)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                interpolate_nans(rec, max_gap)
            return
        got = interpolate_nans(rec, max_gap)
        assert np.array_equal(got.valid, want_valid)
        for name, arr in want_sensors.items():
            assert np.array_equal(got.sensors[name], arr)


class TestDecimate:
    def _rec(self, n):
        return Recording(
            subject_id="s",
            sensors={"imu": np.arange(n * 9, dtype=float).reshape(n, 9)},
            labels=np.arange(n),
            valid=np.ones(n, dtype=bool),
            sample_rate_hz=100.0,
        )

    def test_identity(self):
        rec = self._rec(10)
        assert decimate(rec, 1) is rec

    def test_factor_three(self):
        rec = decimate(self._rec(100), 3)
        assert rec.length == math.ceil(100 / 3)
        assert abs(rec.sample_rate_hz - 100 / 3) < 1e-12
        assert rec.labels[1] == 3

    def test_invalid_factor(self):
        with pytest.raises(InvalidInputError):
            decimate(self._rec(10), 0)


def segment_windows_scan(data, labels, valid, win_len, stride, label_map):
    """Brute-force (start, label) list of the windows segment_windows keeps:
    fully valid, finite, and a majority raw label that maps (ties go to the
    smallest mapped class)."""
    kept = []
    for start in range(0, len(data) - win_len + 1, stride):
        end = start + win_len
        if not all(valid[start:end]) or not np.isfinite(data[start:end]).all():
            continue
        counts = {}
        for code in labels[start:end].tolist():
            counts[code] = counts.get(code, 0) + 1
        top = max(counts.values())
        mapped = [label_map[k] for k, n in counts.items() if n == top and k in label_map]
        if mapped:
            kept.append((start, min(mapped)))
    return kept


# Raw label codes are sparse and may be negative or large, as in OPPORTUNITY.
CODE_POOL = (-7, 0, 1, 5, 406516)


class TestSegmentWindows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(1, 48),  # may exceed t
        st.integers(1, 16),  # may exceed win_len
        # Class indices are not checked to be non-negative here.
        st.dictionaries(st.sampled_from(CODE_POOL), st.integers(-2, 3)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_scan(self, t, win_len, stride, label_map, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(t, 2))
        data[rng.random(size=(t, 2)) < 0.03] = np.nan
        data[rng.random(size=t) < 0.03] = np.nan  # whole rows
        labels = rng.choice(CODE_POOL, size=t)
        valid = rng.random(size=t) > 0.05
        out = segment_windows(data, labels, valid, "s", win_len, stride, label_map)
        expected = segment_windows_scan(data, labels, valid, win_len, stride, label_map)
        assert [w.label for w in out] == [label for _, label in expected]
        for w, (start, _) in zip(out, expected):
            assert np.array_equal(w.data, data[start:start + win_len])
            assert w.subject_id == "s"

    def test_window_count(self):
        data = np.zeros((100, 4))
        labels = np.zeros(100, dtype=int)
        valid = np.ones(100, dtype=bool)
        out = segment_windows(data, labels, valid, "s", 30, 15, {0: 0})
        assert len(out) == (100 - 30) // 15 + 1 == 5

    def test_majority_label(self):
        data = np.zeros((4, 2))
        labels = np.array([2, 2, 2, 7])
        valid = np.ones(4, dtype=bool)
        out = segment_windows(data, labels, valid, "s", 4, 4, {2: 0, 7: 1})
        assert len(out) == 1 and out[0].label == 0

    def test_tie_breaks_to_smallest_class(self):
        data = np.zeros((4, 2))
        labels = np.array([7, 7, 2, 2])
        valid = np.ones(4, dtype=bool)
        out = segment_windows(data, labels, valid, "s", 4, 4, {2: 1, 7: 3})
        assert out[0].label == 1

    def test_invalid_region_dropped(self):
        data = np.zeros((8, 2))
        labels = np.zeros(8, dtype=int)
        valid = np.ones(8, dtype=bool)
        valid[5] = False
        out = segment_windows(data, labels, valid, "s", 4, 4, {0: 0})
        assert len(out) == 1  # the second window touches the invalid sample

    def test_unmapped_majority_dropped(self):
        data = np.zeros((4, 2))
        labels = np.array([9, 9, 9, 2])
        valid = np.ones(4, dtype=bool)
        out = segment_windows(data, labels, valid, "s", 4, 4, {2: 0})
        assert out == []

    @pytest.mark.parametrize("win_len, stride", [(0, 1), (-3, 1), (4, 0)])
    def test_window_or_stride_below_one_rejected(self, win_len, stride):
        with pytest.raises(InvalidInputError):
            segment_windows(np.zeros((8, 2)), np.zeros(8, int), np.ones(8, bool), "s",
                            win_len, stride, {0: 0})

    def test_short_stream_yields_empty(self):
        out = segment_windows(np.zeros((3, 2)), np.zeros(3, int), np.ones(3, bool), "s", 10, 5, {0: 0})
        assert out == []

    def test_windows_are_read_only_views(self):
        data = np.arange(40.0).reshape(10, 4)
        out = segment_windows(data, np.zeros(10, int), np.ones(10, bool), "s", 4, 2, {0: 0})
        assert len(out) == 4
        for w in out:
            assert np.shares_memory(w.data, data)
            # Overlapping windows share rows: a write through one would
            # change its neighbours.
            with pytest.raises(ValueError, match="read-only"):
                w.data[1, 0] = -1.0
        assert np.array_equal(data, np.arange(40.0).reshape(10, 4))
        data[3, 0] = -1.0  # the caller's array stays writable
        assert out[1].data[1, 0] == -1.0


class TestLouoSplit:
    """run_louo stacks the windows once and splits them by a subject mask."""

    def _run(self, monkeypatch, target_subjects=()):
        fits = []

        def fake_fit(data, labels, schema, params, model_config, train_config, test=None):
            fits.append((data, labels, test))
            cm = np.eye(2, dtype=np.int64)
            return TrainLog([EpochRecord(0, 0.0, 0.0, 1.0, test_confusion=cm)])

        monkeypatch.setattr(harness, "fit", fake_fit)
        acts = [SynthSpec(duration_s=4.0, rate_hz=30.0, label=label) for label in (0, 1)]
        recordings = synth_population(3, acts, rng_seed=0)
        cfg = harness.ExperimentConfig(
            mode="vL_only", win_len=32, stride=16, label_map={0: 0, 1: 1}, num_classes=2,
            target_subjects=target_subjects, train=TrainConfig(epochs=1, batch_size=8),
            model_overrides=dict(conv_filters=2, lstm_hidden=4, voting_hidden=4),
        )
        return recordings, cfg, harness.run_louo(recordings, cfg), fits

    def test_exact_partition(self, monkeypatch):
        # One CPU: fake_fit sees every subject only when none trains in a worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        recordings, cfg, report, fits = self._run(monkeypatch)
        windows = build_windows(recordings, "local", cfg.win_len, cfg.stride, cfg.label_map)
        subjects = ["u0", "u1", "u2"]
        assert [r.subject for r in report.rows] == subjects and len(fits) == 3
        for subject, (data, labels, test) in zip(subjects, fits):
            train_w = [w for w in windows if w.subject_id != subject]
            test_w = [w for w in windows if w.subject_id == subject]
            assert len(train_w) + len(test_w) == len(windows) and test_w
            for (got_data, got_labels), part in (((data, labels), train_w), (test, test_w)):
                want_data, want_labels = stack_windows(part, "float32")
                assert got_data.dtype == np.float32
                assert np.array_equal(got_data, want_data)
                assert np.array_equal(got_labels, want_labels)

    def test_unknown_subject(self, monkeypatch):
        _, _, report, fits = self._run(monkeypatch, target_subjects=("u1", "u9"))
        assert len(fits) == 1
        assert [r.subject for r in report.rows] == ["u1", "u9"]
        assert report.rows[0].error is None
        assert report.rows[1].error == "no windows for target subject 'u9'"
        assert report.rows[1].accuracy is None and report.rows[1].log is None


class TestAssembleChannels:
    def _rec(self, n=120):
        from conftest import static_stream

        series = static_stream(np.array([1.0, 0, 0, 0]), n)
        return Recording(
            subject_id="s",
            sensors={"a": series.copy(), "b": series.copy()},
            labels=np.zeros(n, dtype=int),
            valid=np.ones(n, dtype=bool),
            sample_rate_hz=30.0,
        )

    def test_local_layout(self):
        rec = self._rec()
        matrix, labels, valid = assemble_channels(rec, "local")
        assert matrix.shape == (120, 18)
        assert len(labels) == 120 and len(valid) == 120

    def test_global_layout_trims(self):
        rec = self._rec()
        matrix, labels, valid = assemble_channels(rec, "global")
        assert matrix.shape == (90, 26)
        assert len(labels) == 90 and len(valid) == 90

    def test_concat_layout(self):
        rec = self._rec()
        matrix, _, _ = assemble_channels(rec, "concat")
        assert matrix.shape == (90, 44)
        # sensor-major, local block before global block
        assert np.allclose(matrix[:, 0:9], rec.sensors["a"][30:])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            assemble_channels(self._rec(), "bogus")

    def test_concat_blocks_are_local_rows_and_global_view(self):
        inputs = load_perfbench_inputs()
        spec = inputs.opportunity_spec()
        rec = inputs.opportunity_recording(1, spec, 200)
        params = MahonyParams(sample_rate_hz=rec.sample_rate_hz, warmup_seconds=0.5)
        matrix, labels, valid = assemble_channels(rec, "concat", params)
        global_matrix, _, _ = assemble_channels(rec, "global", params)
        trim = 15
        assert matrix.shape == (200 - trim, 22 * len(rec.sensors))
        assert np.array_equal(labels, rec.labels[trim:]) and valid.shape == labels.shape
        for i, series in enumerate(rec.sensors.values()):
            global_ = mc_transform(series, params)
            assert np.array_equal(matrix[:, 22 * i:22 * i + 9], series[trim:])
            assert np.array_equal(matrix[:, 22 * i + 9:22 * (i + 1)], global_)
            assert np.array_equal(global_matrix[:, 13 * i:13 * (i + 1)], global_)

    def test_mahony_rate_follows_recording(self):
        # A params object built for a different rate must not break the trim.
        rec = self._rec()
        params = MahonyParams(sample_rate_hz=100.0, warmup_seconds=1.0)
        matrix, _, _ = assemble_channels(rec, "global", params)
        assert matrix.shape[0] == 90  # trim = 30 samples at the recording's 30 Hz


class TestBuildWindows:
    def test_counts_and_subjects(self):
        from conftest import static_stream

        recs = []
        for subject in ("1", "2"):
            series = static_stream(np.array([1.0, 0, 0, 0]), 150)
            recs.append(
                Recording(
                    subject_id=subject,
                    sensors={"imu": series},
                    labels=np.zeros(150, dtype=int),
                    valid=np.ones(150, dtype=bool),
                    sample_rate_hz=30.0,
                )
            )
        windows = build_windows(recs, "global", 64, 32, {0: 0})
        # 150 - 30 trim = 120 samples -> (120 - 64) // 32 + 1 = 2 per subject
        assert len(windows) == 4
        assert {w.subject_id for w in windows} == {"1", "2"}
        assert all(w.data.shape == (64, 13) for w in windows)

    @pytest.mark.parametrize("second", [("chest", "hand"), ("hand",), ("hand", "ankle")],
                             ids=["swapped", "missing", "other"])
    def test_rejects_sensors_that_differ(self, second):
        # Swapped sensors would give windows whose channel blocks are
        # silently exchanged between subjects; other sets would not stack.
        from conftest import static_stream

        series = static_stream(np.array([1.0, 0, 0, 0]), 100)
        recs = [
            Recording(
                subject_id=subject,
                sensors={name: series.copy() for name in names},
                labels=np.zeros(100, dtype=int),
                valid=np.ones(100, dtype=bool),
                sample_rate_hz=30.0,
            )
            for subject, names in (("u0", ("hand", "chest")), ("u1", second))
        ]
        with pytest.raises(InvalidInputError, match=r"'u1'.*'u0'") as info:
            build_windows(recs, "local", 64, 32, {0: 0})
        assert str(list(second)) in str(info.value)
        assert str(["hand", "chest"]) in str(info.value)

    def test_memory_does_not_grow_with_overlap(self):
        # Windows are views into their recording's one channel matrix, so
        # four times as many of them hold little more memory.  Local mode
        # windows the same way as the others and skips the filter, which
        # runs slowly under tracemalloc.
        inputs = load_perfbench_inputs()
        spec = inputs.opportunity_spec()
        rec = inputs.opportunity_recording(0, spec, 3000)

        def held(stride):
            tracemalloc.start()
            try:
                windows = build_windows([rec], "local", 64, stride, spec.label_map)
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(windows) > 3000 // (2 * stride)
            return size

        assert held(8) <= 1.2 * held(32)
