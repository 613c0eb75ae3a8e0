"""Basis-change, global-view assembly, and warm-up trimming tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quat_to_matrix, random_unit_quat, static_stream
from flowhar import attitude
from flowhar.attitude import G0, MahonyParams, mahony_run
from flowhar.errors import DataError, InvalidInputError
from flowhar.globalview import (
    GLOBAL_CHANNELS,
    mc_transform,
    rotation_from_quaternion,
    transform_series,
)

S2 = math.sqrt(0.5)


class TestRotationFromQuaternion:
    def test_identity_quaternion(self):
        assert np.allclose(rotation_from_quaternion([1, 0, 0, 0]), np.eye(3), atol=1e-15)

    def test_90_about_x_maps_y_to_z(self):
        m = rotation_from_quaternion([S2, S2, 0, 0])
        assert np.allclose(m @ np.array([0, 1, 0]), [0, 0, 1], atol=1e-9)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            rotation_from_quaternion([1, 1, 0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            rotation_from_quaternion([np.nan, 0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_orthogonal_and_proper(self, seed):
        m = rotation_from_quaternion(random_unit_quat(np.random.default_rng(seed)))
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-9
        assert abs(np.linalg.det(m) - 1.0) <= 1e-9

    def test_stack_equals_rows(self):
        rng = np.random.default_rng(3)
        quats = np.array([random_unit_quat(rng) for _ in range(6)])
        stack = rotation_from_quaternion(quats)
        assert stack.shape == (6, 3, 3)
        for q, m in zip(quats, stack):
            assert np.array_equal(m, rotation_from_quaternion(q))

    def test_one_quaternion_equals_stack_of_one(self):
        # One quaternion and a stack of one run the same array expression.
        # Both must equal, bit for bit, the quadratic form evaluated on
        # Python floats, as mahony_run's loop evaluates it.
        rng = np.random.default_rng(5)
        quats = rng.normal(size=(1000, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        for q in quats:
            m = rotation_from_quaternion(q)
            assert np.array_equal(m, rotation_from_quaternion(q[None])[0])
            on_floats = np.array(attitude._rotation_entries(*q.tolist())).reshape(3, 3)
            assert np.array_equal(m, on_floats)

    def test_rejects_non_unit_row_in_stack(self):
        with pytest.raises(InvalidInputError):
            rotation_from_quaternion([[1, 0, 0, 0], [1, 1, 0, 0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_independent_formula(self, seed):
        q = random_unit_quat(np.random.default_rng(seed))
        assert np.allclose(rotation_from_quaternion(q), quat_to_matrix(q), atol=1e-12)


class TestTransformSample:
    """One-sample inputs through transform_series."""

    def test_identity_rotation_is_passthrough(self):
        s = np.arange(9.0)
        out = transform_series(s[None], [[1, 0, 0, 0]])
        assert out.shape == (1, GLOBAL_CHANNELS)
        assert np.allclose(out[0, 0:9], s, atol=1e-15)
        assert np.allclose(out[0, 9:13], [1, 0, 0, 0])

    def test_norm_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(size=9)
            q = random_unit_quat(rng)
            out = transform_series(s[None], q[None])[0]
            for a, b in ((0, 3), (3, 6), (6, 9)):
                assert abs(np.linalg.norm(out[a:b]) - np.linalg.norm(s[a:b])) <= 1e-9

    def test_static_sensor_accel_points_down(self):
        rng = np.random.default_rng(9)
        q = random_unit_quat(rng)
        row = static_stream(q, 1)
        out = transform_series(row, q[None])
        assert np.allclose(out[0, 0:3], [0, 0, -G0], atol=1e-9)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            transform_series(np.zeros((1, 8)), [[1, 0, 0, 0]])
        with pytest.raises(InvalidInputError):
            transform_series(np.zeros((1, 9)), [[1, 0, 0]])


class TestTransformSeries:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            transform_series(np.zeros((3, 9)), np.zeros((2, 4)))

    def test_shape(self):
        quats = np.tile([1.0, 0, 0, 0], (4, 1))
        out = transform_series(np.zeros((4, 9)), quats)
        assert out.shape == (4, GLOBAL_CHANNELS)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_matches_per_row_rotation(self, seed, t):
        rng = np.random.default_rng(seed)
        series = rng.normal(scale=10.0, size=(t, 9))
        quats = np.array([random_unit_quat(rng) for _ in range(t)]).reshape(t, 4)
        out = transform_series(series, quats)
        for i in range(t):
            m = rotation_from_quaternion(quats[i])
            for a in (0, 3, 6):
                assert np.allclose(out[i, a:a + 3], m @ series[i, a:a + 3], rtol=0, atol=1e-12)
        assert np.array_equal(out[:, 9:13], quats)

    def test_non_unit_row_rejected(self):
        quats = np.tile([1.0, 0, 0, 0], (5, 1))
        quats[3] = [1.0, 0.01, 0, 0]
        with pytest.raises(InvalidInputError):
            transform_series(np.zeros((5, 9)), quats)


class TestMcTransform:
    def test_trim_arithmetic(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 300)
        g = mc_transform(series, MahonyParams(sample_rate_hz=30.0, warmup_seconds=1.0))
        assert g.shape == (300 - 30, GLOBAL_CHANNELS)

    def test_too_short_stream(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 30)
        with pytest.raises(DataError, match="not longer than the 30-sample warm-up"):
            mc_transform(series, MahonyParams(sample_rate_hz=30.0, warmup_seconds=1.0))

    def test_static_oracle(self):
        # A stationary sensor at a random attitude: after warm-up a' is the
        # specific-force vector (0, 0, -g0) and g' is zero.
        rng = np.random.default_rng(21)
        q = random_unit_quat(rng)
        series = static_stream(q, 150)
        g = mc_transform(series, MahonyParams(sample_rate_hz=30.0))
        assert np.allclose(g[:, 0:3], [0, 0, -G0], atol=1e-3 * G0)
        assert np.allclose(g[:, 6:9], 0.0, atol=1e-9)

    def test_local_alignment(self):
        # Row i of the global view is local row trim + i re-expressed in NED.
        rng = np.random.default_rng(4)
        series = static_stream(random_unit_quat(rng), 100) + rng.normal(0, 0.1, (100, 9))
        params = MahonyParams(sample_rate_hz=30.0)
        g = mc_transform(series, params)
        trim = len(series) - len(g)
        assert trim == 30
        full = transform_series(series, mahony_run(series, params))
        assert np.array_equal(g, full[trim:])

    def test_mounting_invariance(self):
        # The same motion recorded under two constant mounting rotations must
        # produce matching global views (noiseless).
        from flowhar.synth import SynthSpec, synth_generate

        base = dict(
            duration_s=10.0,
            rate_hz=30.0,
            segments=((3.0, (0.2, 0.0, 0.4)), (3.0, (-0.1, 0.3, 0.0))),
            lin_acc_amp_ned=(1.5, 0.0, 0.8),
            lin_acc_freq_hz=1.0,
        )
        half = math.radians(75.0) / 2
        mount = (math.cos(half), math.sin(half), 0.0, 0.0)
        rec_a, _ = synth_generate(SynthSpec(**base))
        rec_b, _ = synth_generate(SynthSpec(mounting=mount, **base))
        params = MahonyParams(sample_rate_hz=30.0)
        g_a = mc_transform(rec_a.sensors["imu0"], params)
        g_b = mc_transform(rec_b.sensors["imu0"], params)
        rmse = np.sqrt(np.mean((g_a[:, 0:3] - g_b[:, 0:3]) ** 2, axis=0))
        assert np.all(rmse <= 1e-3 * G0)
