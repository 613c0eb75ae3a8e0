"""Ingestion, cleaning, windowing, and LOUO split tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    louo_split,
    parse_spec_file,
    segment_windows,
)
from flowhar.errors import (
    ChannelUnusableError,
    ConfigError,
    InvalidInputError,
    ParseError,
    SpecMismatchError,
)

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
        subjects = [re.search(spec.subject_source.split(":", 1)[1], str(path)).group(1)] * len(data)
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
                raise ChannelUnusableError(f"sensor {name} channel {ch} has no valid samples")
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

    def test_shipped_specs_parse(self):
        import importlib.resources as res

        for name in ("pamap2.spec", "opportunity.spec"):
            with res.as_file(res.files("flowhar.specs") / name) as path:
                spec = parse_spec_file(path)
            assert spec.num_classes == 18
            assert len(spec.sensors) >= 3


class TestDatasetSpecValidation:
    def test_overlapping_columns(self):
        with pytest.raises(ConfigError):
            DatasetSpec(
                name="x",
                sensors={"a": SensorColumns((0, 1, 2), (2, 3, 4), (5, 6, 7))},
                label_col=8,
                subject_source="col:9",
                native_rate_hz=30,
            )

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
        with pytest.raises(SpecMismatchError):
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
        with pytest.raises(SpecMismatchError):
            load_recording(path, spec)

    def test_subject_from_filename(self, tmp_path):
        text = SPEC_TEXT.replace("subject = col:0", r"subject = filename:subj(\d+)")
        spec = parse_spec_file(write_spec(tmp_path, text))
        path = write_recording(tmp_path, make_rows(4), name="subj7.txt")
        recs = load_recording(path, spec)
        assert len(recs) == 1 and recs[0].subject_id == "7"

    def test_unmapped_labels_kept(self, tmp_path):
        spec = parse_spec_file(write_spec(tmp_path))
        rows = make_rows(3, label=99)
        path = write_recording(tmp_path, rows)
        rec = load_recording(path, spec)[0]
        assert list(rec.labels) == [99, 99, 99]


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
        with pytest.raises(ChannelUnusableError):
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
        except ChannelUnusableError:
            with pytest.raises(ChannelUnusableError):
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


class TestSegmentWindows:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(1, 10),
        st.integers(1, 8),
        st.dictionaries(st.integers(0, 4), st.integers(0, 3)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_scan(self, t, win_len, stride, label_map, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(t, 2))
        data[rng.random(size=(t, 2)) < 0.03] = np.nan
        labels = rng.integers(0, 5, size=t)
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

    def test_short_stream_yields_empty(self):
        out = segment_windows(np.zeros((3, 2)), np.zeros(3, int), np.ones(3, bool), "s", 10, 5, {0: 0})
        assert out == []


class TestLouoSplit:
    def _windows(self):
        from flowhar.dataset import Window

        out = []
        for subject, count in (("1", 3), ("2", 2), ("3", 4)):
            for _ in range(count):
                out.append(Window(data=np.zeros((2, 2)), label=0, subject_id=subject))
        return out

    def test_exact_partition(self):
        windows = self._windows()
        train, test = louo_split(windows, "2")
        assert len(train) + len(test) == len(windows)
        assert {w.subject_id for w in test} == {"2"}
        assert "2" not in {w.subject_id for w in train}

    def test_unknown_subject(self):
        with pytest.raises(InvalidInputError):
            louo_split(self._windows(), "9")


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
        matrix, labels, valid, rate = assemble_channels(rec, "local")
        assert matrix.shape == (120, 18)
        assert len(labels) == 120 and rate == 30.0

    def test_global_layout_trims(self):
        rec = self._rec()
        matrix, labels, valid, _ = assemble_channels(rec, "global")
        assert matrix.shape == (90, 26)
        assert len(labels) == 90 and len(valid) == 90

    def test_concat_layout(self):
        rec = self._rec()
        matrix, _, _, _ = assemble_channels(rec, "concat")
        assert matrix.shape == (90, 44)
        # sensor-major, local block before global block
        assert np.allclose(matrix[:, 0:9], rec.sensors["a"][30:])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            assemble_channels(self._rec(), "bogus")

    def test_mahony_rate_follows_recording(self):
        # A params object built for a different rate must not break the trim.
        rec = self._rec()
        params = MahonyParams(sample_rate_hz=100.0, warmup_seconds=1.0)
        matrix, _, _, _ = assemble_channels(rec, "global", params)
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
