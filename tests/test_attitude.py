"""Quaternion algebra and Mahony filter tests against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attitude_error_deg,
    quat_to_matrix,
    random_unit_quat,
    rot_z,
    static_stream,
)
from flowhar.attitude import (
    G0,
    MahonyParams,
    MahonyState,
    mahony_run,
    mahony_step,
    quat_conjugate,
    quat_from_accel_mag,
    quat_from_rotation_matrix,
    quat_multiply,
    quat_multiply_raw,
    quat_normalize,
)
from flowhar.errors import ConfigError, DegenerateInitError, InvalidInputError
from flowhar.synth import SynthSpec, synth_generate

S2 = math.sqrt(0.5)


def mahony_run_numpy(series, params):
    """mahony_run as it was, one NumPy update on 3- and 4-element arrays per
    sample; the oracle for the float update."""
    series = np.asarray(series, dtype=float)
    try:
        q = quat_from_accel_mag(series[0, 0:3], series[0, 3:6])
    except (DegenerateInitError, InvalidInputError):
        q = np.array([1.0, 0.0, 0.0, 0.0])
    integral = np.zeros(3)
    out = np.empty((series.shape[0], 4))
    for i, row in enumerate(series):
        accel, mag, gyro = row[0:3], row[3:6], row[6:9]
        m_rot = quat_to_matrix(q)
        err = np.zeros(3)
        na = float(np.linalg.norm(accel))
        if na > 0.0:
            g_b = m_rot.T @ np.array([0.0, 0.0, -1.0])
            err += np.cross(accel / na, g_b)
        nm = float(np.linalg.norm(mag))
        if nm > 0.0:
            m_n = mag / nm
            if params.mag_reference_handling == "auto":
                h = m_rot @ m_n
                b_ned = np.array([math.hypot(h[0], h[1]), 0.0, h[2]])
            else:
                inc = math.radians(params.fixed_inclination_deg)
                b_ned = np.array([math.cos(inc), 0.0, math.sin(inc)])
            nb = float(np.linalg.norm(b_ned))
            if nb > 0.0:
                err += np.cross(m_n, m_rot.T @ (b_ned / nb))
        dt = 1.0 / params.sample_rate_hz
        if params.ki > 0.0:
            integral = integral + err * dt
        omega = gyro + params.kp * err + params.ki * integral
        dq = 0.5 * quat_multiply_raw(q, np.array([0.0, omega[0], omega[1], omega[2]]))
        q = quat_normalize(q + dq * dt)
        out[i] = q
    return out


class TestQuatMultiply:
    def test_identity(self):
        q = quat_normalize([0.3, -0.5, 0.7, 0.2])
        out = quat_multiply([1, 0, 0, 0], q)
        assert np.allclose(out, q, atol=1e-12)

    def test_inverse(self):
        q = quat_normalize([0.3, -0.5, 0.7, 0.2])
        out = quat_multiply(q, quat_conjugate(q))
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-9)

    def test_composition_matches_matrix_oracle(self):
        # Two 90-degree rotations about x then y, composed as quaternions,
        # must match the product of the corresponding rotation matrices.
        qx = np.array([S2, S2, 0.0, 0.0])
        qy = np.array([S2, 0.0, S2, 0.0])
        q = quat_multiply(qx, qy)
        expected = quat_to_matrix(qx) @ quat_to_matrix(qy)
        assert np.allclose(quat_to_matrix(q), expected, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            quat_multiply([2, 0, 0, 0], [1, 0, 0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            quat_multiply([np.nan, 0, 0, 0], [1, 0, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        a = random_unit_quat(rng)
        b = random_unit_quat(rng)
        out = quat_multiply(a, b)
        assert abs(np.dot(out, out) - 1.0) <= 1e-9


class TestQuatFromRotationMatrix:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip(self, seed):
        q = random_unit_quat(np.random.default_rng(seed))
        out = quat_from_rotation_matrix(quat_to_matrix(q))
        # q and -q are the same rotation; output uses the w >= 0 convention.
        assert np.allclose(out, q if q[0] >= 0 else -q, atol=1e-9)


class TestTriadInit:
    def test_ned_aligned_gives_identity(self):
        inc = math.radians(60.0)
        q = quat_from_accel_mag([0, 0, -9.81], [math.cos(inc), 0, math.sin(inc)])
        assert np.allclose(q, [1, 0, 0, 0], atol=1e-6)

    def test_known_yaw(self):
        # Rotate the reference vectors into a body frame yawed 90 degrees.
        m = rot_z(90.0)  # body -> NED
        inc = math.radians(60.0)
        accel_b = m.T @ np.array([0.0, 0.0, -9.81])
        mag_b = m.T @ np.array([math.cos(inc), 0.0, math.sin(inc)])
        q = quat_from_accel_mag(accel_b, mag_b)
        expected = np.array([math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        assert attitude_error_deg(q, expected) < 1e-6

    def test_random_orientation_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q_true = random_unit_quat(rng)
            row = static_stream(q_true, 1)[0]
            q = quat_from_accel_mag(row[0:3], row[3:6])
            assert attitude_error_deg(q, q_true) < 1e-4

    def test_parallel_vectors_degenerate(self):
        with pytest.raises(DegenerateInitError):
            quat_from_accel_mag([0, 0, -9.81], [0, 0, 1])

    def test_zero_vector_invalid(self):
        with pytest.raises(InvalidInputError):
            quat_from_accel_mag([0, 0, 0], [1, 0, 0])

    @pytest.mark.parametrize("which", ["accel", "mag"])
    def test_huge_vector_invalid(self, which):
        # A finite vector whose norm overflows: InvalidInputError, no warning.
        accel, mag = [0.0, 0.0, -9.81], [0.5, 0.0, 0.8]
        (accel if which == "accel" else mag)[0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                quat_from_accel_mag(accel, mag)


class TestMahonyParams:
    def test_defaults(self):
        p = MahonyParams()
        assert p.kp == 1.0 and p.ki == 0.0 and p.sample_rate_hz == 30.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kp": 0.0},
            {"kp": -1.0},
            {"ki": -0.1},
            {"sample_rate_hz": 0.0},
            {"warmup_seconds": -1.0},
            {"mag_reference_handling": "bogus"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MahonyParams(**kwargs)


class TestMahonyStep:
    def test_fixed_point(self):
        # Measurements exactly consistent with the current attitude and zero
        # gyro leave the state unchanged.
        rng = np.random.default_rng(11)
        params = MahonyParams()
        for _ in range(10):
            q = random_unit_quat(rng)
            row = static_stream(q, 1)[0]
            state = MahonyState(q=q.copy())
            out = mahony_step(state, row[0:3], row[6:9], row[3:6], params)
            assert np.allclose(out.q, q, atol=1e-12)

    def test_static_convergence_from_tilt(self):
        # 1000 static steps starting from an estimate tilted 30 degrees.
        rng = np.random.default_rng(5)
        params = MahonyParams()
        q_true = random_unit_quat(rng)
        tilt = np.array([math.cos(math.radians(15)), math.sin(math.radians(15)), 0, 0])
        state = MahonyState(q=quat_multiply(q_true, tilt))
        row = static_stream(q_true, 1)[0]
        for _ in range(1000):
            state = mahony_step(state, row[0:3], row[6:9], row[3:6], params)
        g_est = quat_to_matrix(state.q).T @ np.array([0.0, 0.0, 1.0])
        g_true = quat_to_matrix(q_true).T @ np.array([0.0, 0.0, 1.0])
        angle = math.degrees(math.acos(min(1.0, float(np.dot(g_est, g_true)))))
        assert angle < 2.0

    def test_gyro_only_integration_matches_closed_form(self):
        # Zero accel/mag disables both corrections: the filter must reduce to
        # pure quaternion integration of the gyro, matching the closed-form
        # axis-angle solution within 1e-3 rad over one second.
        params = MahonyParams(sample_rate_hz=30.0)
        omega = np.array([0.3, -0.2, 0.4])
        state = MahonyState()
        for _ in range(30):
            state = mahony_step(state, np.zeros(3), omega, np.zeros(3), params)
        theta = float(np.linalg.norm(omega))  # total angle after 1 s
        axis = omega / theta
        expected = np.concatenate([[math.cos(theta / 2)], math.sin(theta / 2) * axis])
        assert attitude_error_deg(state.q, expected) < math.degrees(1e-3)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            mahony_step(MahonyState(), [np.inf, 0, 0], [0, 0, 0], [1, 0, 0], MahonyParams())

    @pytest.mark.parametrize("rate", [1e300, -1e300, 1.7e308])
    def test_huge_gyro_rejected(self, rate):
        # Finite input whose update overflows the quaternion: InvalidInputError,
        # not ZeroDivisionError, OverflowError or a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_step(MahonyState(), [0, 0, -G0], [rate, 0, 0], [1, 0, 0],
                            MahonyParams())

    @pytest.mark.parametrize("field", ["accel", "mag"])
    def test_huge_accel_or_mag_rejected(self, field):
        accel, mag = [0.0, 0.0, -G0], [0.5, 0.0, 0.8]
        (accel if field == "accel" else mag)[1] = -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_step(MahonyState(), accel, [0, 0, 0], mag, MahonyParams())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_convergence_property(self, seed):
        # Any random static orientation: two seconds of static input bring the
        # attitude error below 2 degrees with default gains.
        rng = np.random.default_rng(seed)
        q_true = random_unit_quat(rng)
        params = MahonyParams(sample_rate_hz=30.0)
        series = static_stream(q_true, 60)
        quats = mahony_run(series, params)
        assert attitude_error_deg(quats[-1], q_true) < 2.0


class TestMahonyRun:
    def test_length_contract(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 17)
        assert mahony_run(series, MahonyParams()).shape == (17, 4)

    def test_empty_series_rejected(self):
        with pytest.raises(InvalidInputError):
            mahony_run(np.empty((0, 9)), MahonyParams())

    def test_static_ned_aligned_stays_identity(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 30)
        quats = mahony_run(series, MahonyParams())
        for q in quats:
            assert attitude_error_deg(q, np.array([1.0, 0, 0, 0])) < math.degrees(1e-3)

    def test_slow_rotation_tracks_truth(self):
        # 90-degree yaw over 5 s at 30 Hz; final attitude within 3 degrees.
        rate = math.pi / 2 / 5.0
        spec = SynthSpec(duration_s=5.0, rate_hz=30.0, segments=((5.0, (0, 0, rate)),))
        rec, truth = synth_generate(spec)
        quats = mahony_run(rec.sensors["imu0"], MahonyParams())
        assert attitude_error_deg(quats[-1], truth[-1]) < 3.0

    @pytest.mark.parametrize(
        "params",
        [
            MahonyParams(),
            MahonyParams(ki=0.3),
            MahonyParams(kp=2.0, ki=0.1, mag_reference_handling="fixed",
                         fixed_inclination_deg=55.0),
        ],
        ids=["default", "ki", "fixed_mag"],
    )
    def test_equals_step_loop(self, params):
        # The scalar reference: TRIAD seed, then mahony_step per row.
        spec = SynthSpec(duration_s=4.0, rate_hz=30.0,
                         segments=((2.0, (0.3, -0.2, 0.5)), (2.0, (-0.4, 0.1, 0.0))),
                         lin_acc_amp_ned=(1.0, 0.5, 0.3), lin_acc_freq_hz=1.5)
        rec, _ = synth_generate(spec)
        series = rec.sensors["imu0"].copy()
        series[10, 0:3] = 0.0  # accel correction off for one step
        series[20, 3:6] = 0.0  # mag correction off for one step
        series[30, 0:6] = 0.0  # both off
        state = MahonyState(q=quat_from_accel_mag(series[0, 0:3], series[0, 3:6]))
        expected = []
        for row in series:
            state = mahony_step(state, row[0:3], row[6:9], row[3:6], params)
            expected.append(state.q)
        assert np.array_equal(mahony_run(series, params), np.array(expected))

    @pytest.mark.parametrize("row", [0, 7, 16])
    @pytest.mark.parametrize("col", [0, 4, 8])
    def test_rejects_non_finite_in_any_row(self, row, col):
        series = static_stream(np.array([1.0, 0, 0, 0]), 17)
        series[row, col] = np.nan
        with pytest.raises(InvalidInputError):
            mahony_run(series, MahonyParams())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 90),
        kp=st.floats(0.1, 5.0),
        ki=st.sampled_from([0.0, 0.05, 0.3]),
        fixed=st.booleans(),
        inclination=st.floats(-80.0, 80.0),
    )
    def test_matches_numpy_oracle(self, seed, t, kp, ki, fixed, inclination):
        rng = np.random.default_rng(seed)
        series = np.concatenate(
            [
                rng.normal(scale=2.0, size=(t, 3)) + [0.0, 0.0, -G0],
                rng.normal(scale=0.3, size=(t, 3)) + [0.5, 0.0, 0.8],
                rng.normal(scale=0.5, size=(t, 3)),
            ],
            axis=1,
        )
        off = rng.integers(0, 4, size=t)  # 1: accel off, 2: mag off, 3: both
        series[off % 2 == 1, 0:3] = 0.0
        series[off >= 2, 3:6] = 0.0
        params = MahonyParams(
            kp=kp, ki=ki, mag_reference_handling="fixed" if fixed else "auto",
            fixed_inclination_deg=inclination,
        )
        out = mahony_run(series, params)
        assert np.abs(out - mahony_run_numpy(series, params)).max() <= 1e-12

    @pytest.mark.parametrize("row", [0, 7])
    @pytest.mark.parametrize("rate", [1e300, -1e300, 1.7e308])
    def test_huge_gyro_rejected(self, row, rate):
        series = static_stream(np.array([1.0, 0, 0, 0]), 17)
        series[row, 6] = rate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_run(series, MahonyParams())

    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("column", [0, 2, 3, 5])
    @pytest.mark.parametrize("value", [1e300, -1e300, 1.7e308])
    def test_huge_accel_or_mag_rejected(self, row, column, value):
        # A finite accel or mag sample whose norm overflows must raise, not
        # warn (first row) or silently drop that correction (later rows).
        series = static_stream(np.array([1.0, 0, 0, 0]), 5)
        series[row, column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_run(series, MahonyParams())

    def test_degenerate_first_sample_falls_back_to_identity(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 5)
        series[0, 3:6] = [0.0, 0.0, 1.0]  # parallel to accel: degenerate TRIAD
        quats = mahony_run(series, MahonyParams())
        assert quats.shape == (5, 4)
        assert attitude_error_deg(quats[-1], np.array([1.0, 0, 0, 0])) < 5.0
