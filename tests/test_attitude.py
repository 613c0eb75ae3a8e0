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
    _IDENTITY,
    G0,
    MAHONY_KP,
    MahonyParams,
    _hamilton,
    _rotation_entries,
    mahony_run,
    quat_from_accel_mag,
    quat_from_rotation_matrix,
    quat_multiply,
    quat_normalize,
)
from flowhar.errors import ConfigError, InvalidInputError
from flowhar.synth import SynthSpec, synth_generate

S2 = math.sqrt(0.5)


def mahony_run_numpy(series, params):
    """mahony_run as it was, one NumPy update on 3- and 4-element arrays per
    sample; the oracle for the float update."""
    series = np.asarray(series, dtype=float)
    try:
        q = quat_from_accel_mag(series[0, 0:3], series[0, 3:6])
    except InvalidInputError:
        q = np.array([1.0, 0.0, 0.0, 0.0])
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
            h = m_rot @ m_n
            b_ned = np.array([math.hypot(h[0], h[1]), 0.0, h[2]])
            nb = float(np.linalg.norm(b_ned))
            if nb > 0.0:
                err += np.cross(m_n, m_rot.T @ (b_ned / nb))
        dt = 1.0 / params.sample_rate_hz
        omega = gyro + MAHONY_KP * err
        dq = 0.5 * quat_multiply(q, np.array([0.0, omega[0], omega[1], omega[2]]))
        q = quat_normalize(q + dq * dt)
        out[i] = q
    return out


def _update_per_sample(q, row, dt):
    """mahony_run's float update as it was, one sample at a time, with the
    norms and unit vectors computed per sample."""
    w, x, y, z = q
    ax, ay, az, mx, my, mz, gx, gy, gz = row
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = _rotation_entries(w, x, y, z)
    ex = ey = ez = 0.0
    na = math.sqrt(ax * ax + ay * ay + az * az)
    if na > 0.0:
        if na == math.inf:
            raise InvalidInputError("accelerometer sample too large")
        ax, ay, az = ax / na, ay / na, az / na
        ex = az * m21 - ay * m22
        ey = ax * m22 - az * m20
        ez = ay * m20 - ax * m21
    nm = math.sqrt(mx * mx + my * my + mz * mz)
    if nm > 0.0:
        if nm == math.inf:
            raise InvalidInputError("magnetometer sample too large")
        mx, my, mz = mx / nm, my / nm, mz / nm
        bn = math.hypot(m00 * mx + m01 * my + m02 * mz, m10 * mx + m11 * my + m12 * mz)
        bd = m20 * mx + m21 * my + m22 * mz
        nb = math.sqrt(bn * bn + bd * bd)
        if nb > 0.0:
            bn, bd = bn / nb, bd / nb
            wx = m00 * bn + m20 * bd
            wy = m01 * bn + m21 * bd
            wz = m02 * bn + m22 * bd
            ex += my * wz - mz * wy
            ey += mz * wx - mx * wz
            ez += mx * wy - my * wx
    dw, dx, dy, dz = _hamilton(
        w, x, y, z, 0.0, gx + MAHONY_KP * ex, gy + MAHONY_KP * ey, gz + MAHONY_KP * ez
    )
    w += 0.5 * dw * dt
    x += 0.5 * dx * dt
    y += 0.5 * dy * dt
    z += 0.5 * dz * dt
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise InvalidInputError("filter quaternion overflowed: sample too large")
    return (w / n, x / n, y / n, z / n)


def mahony_run_per_sample(series, params):
    """mahony_run as it was, the whole float update inside the loop; the
    oracle that mahony_run must equal byte for byte."""
    series = np.asarray(series, dtype=float)
    try:
        q = quat_from_accel_mag(series[0, 0:3], series[0, 3:6]).tolist()
    except InvalidInputError:
        q = _IDENTITY.tolist()
    dt = 1.0 / params.sample_rate_hz
    out = []
    for row in series.tolist():
        q = _update_per_sample(q, row, dt)
        out.append(q)
    return np.array(out)


class TestQuatMultiply:
    def test_identity(self):
        q = quat_normalize([0.3, -0.5, 0.7, 0.2])
        out = quat_multiply([1, 0, 0, 0], q)
        assert np.allclose(out, q, atol=1e-12)

    def test_inverse(self):
        q = quat_normalize([0.3, -0.5, 0.7, 0.2])
        out = quat_multiply(q, q * [1, -1, -1, -1])  # q times its conjugate
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-9)

    def test_composition_matches_matrix_oracle(self):
        # Two 90-degree rotations about x then y, composed as quaternions,
        # must match the product of the corresponding rotation matrices.
        qx = np.array([S2, S2, 0.0, 0.0])
        qy = np.array([S2, 0.0, S2, 0.0])
        q = quat_multiply(qx, qy)
        expected = quat_to_matrix(qx) @ quat_to_matrix(qy)
        assert np.allclose(quat_to_matrix(q), expected, atol=1e-12)

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
        with pytest.raises(InvalidInputError, match="nearly parallel"):
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
        assert (p.sample_rate_hz, p.warmup_seconds) == (30.0, 1.0)
        assert MAHONY_KP == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_rate_hz": 0.0},
            {"sample_rate_hz": -1.0},
            {"sample_rate_hz": -0.0},
            {"warmup_seconds": -1.0},
            {"sample_rate_hz": math.nan},
            {"sample_rate_hz": math.inf},
            {"sample_rate_hz": -math.inf},
            {"warmup_seconds": math.nan},
            {"warmup_seconds": math.inf},
            {"warmup_seconds": -math.inf},
            {"warmup_seconds": 1e308},  # times 30 Hz overflows the trim
            {"warmup_seconds": 1e300, "sample_rate_hz": 1e300},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MahonyParams(**kwargs)


class TestMahonyStep:
    """The per-step behaviour of the filter, through mahony_run on short
    scripted streams."""

    def test_fixed_point(self):
        # Measurements exactly consistent with the seeded attitude and zero
        # gyro leave the estimate unchanged (up to the sign of q).
        rng = np.random.default_rng(11)
        params = MahonyParams()
        for _ in range(10):
            q = random_unit_quat(rng)
            out = mahony_run(static_stream(q, 5), params)
            deviation = np.minimum(np.abs(out - q).max(axis=1), np.abs(out + q).max(axis=1))
            assert deviation.max() <= 1e-12

    def test_static_convergence_from_tilt(self):
        # The first row reads as a sensor tilted 30 degrees about x from
        # q_true, so TRIAD seeds the filter tilted; 1000 static rows at q_true
        # follow.
        rng = np.random.default_rng(5)
        params = MahonyParams()
        q_true = random_unit_quat(rng)
        tilt = np.array([math.cos(math.radians(15)), math.sin(math.radians(15)), 0, 0])
        series = np.concatenate(
            [static_stream(quat_multiply(q_true, tilt), 1), static_stream(q_true, 1000)]
        )
        q_last = mahony_run(series, params)[-1]
        g_est = quat_to_matrix(q_last).T @ np.array([0.0, 0.0, 1.0])
        g_true = quat_to_matrix(q_true).T @ np.array([0.0, 0.0, 1.0])
        angle = math.degrees(math.acos(min(1.0, float(np.dot(g_est, g_true)))))
        assert angle < 2.0

    def test_gyro_only_integration_matches_closed_form(self):
        # Zero accel/mag disables both corrections (and TRIAD falls back to
        # the identity): the filter must reduce to pure quaternion integration
        # of the gyro, matching the closed-form axis-angle solution within
        # 1e-3 rad over one second.
        params = MahonyParams(sample_rate_hz=30.0)
        omega = np.array([0.3, -0.2, 0.4])
        series = np.zeros((30, 9))
        series[:, 6:9] = omega
        q_last = mahony_run(series, params)[-1]
        theta = float(np.linalg.norm(omega))  # total angle after 1 s
        axis = omega / theta
        expected = np.concatenate([[math.cos(theta / 2)], math.sin(theta / 2) * axis])
        assert attitude_error_deg(q_last, expected) < math.degrees(1e-3)

    # A one-row stream: the row that seeds the filter is also its only update.

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            mahony_run([[np.inf, 0, 0, 1, 0, 0, 0, 0, 0]], MahonyParams())

    @pytest.mark.parametrize("rate", [1e300, -1e300, 1.7e308])
    def test_huge_gyro_rejected(self, rate):
        # Finite input whose update overflows the quaternion: InvalidInputError,
        # not ZeroDivisionError, OverflowError or a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_run([[0, 0, -G0, 1, 0, 0, rate, 0, 0]], MahonyParams())

    @pytest.mark.parametrize("field", ["accel", "mag"])
    def test_huge_accel_or_mag_rejected(self, field):
        accel, mag = [0.0, 0.0, -G0], [0.5, 0.0, 0.8]
        (accel if field == "accel" else mag)[1] = -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                mahony_run([[*accel, *mag, 0, 0, 0]], MahonyParams())

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
        rate=st.floats(10.0, 200.0),
    )
    def test_matches_numpy_oracle(self, seed, t, rate):
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
        params = MahonyParams(sample_rate_hz=rate)
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

    @pytest.mark.parametrize("rate", [30.0, 100.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_sample_loop(self, seed, rate):
        # Byte for byte on a synthetic recording and on random streams with
        # every row kind whose norm or unit vector is an edge case.
        params = MahonyParams(sample_rate_hz=rate)
        rng = np.random.default_rng(seed)
        spec = SynthSpec(
            duration_s=6.0, rate_hz=rate, initial_orientation=tuple(random_unit_quat(rng)),
            segments=((2.0, (0.0, 0.0, 0.5)), (3.0, tuple(rng.normal(size=3)))),
            lin_acc_amp_ned=(0.5, -0.3, 0.2), accel_noise_std=0.05, gyro_noise_std=0.01,
            mag_noise_std=0.02,
        )
        t = 150
        opp = rng.integers(-2000, 2000, size=(t, 9)).astype(float)  # raw OPPORTUNITY units
        edges = np.concatenate(
            [
                rng.normal(scale=2.0, size=(t, 3)) + [0.0, 0.0, -G0],
                rng.normal(scale=0.3, size=(t, 3)) + [0.5, 0.0, 0.8],
                rng.normal(scale=0.5, size=(t, 3)),
            ],
            axis=1,
        )
        kind = rng.integers(0, 8, size=t)
        kind[0] = seed % 8  # the row that seeds the filter takes each kind in turn
        edges[kind == 1, 0:3] = 0.0
        edges[kind == 2, 3:6] = 0.0
        edges[kind == 3, 0:6] = -0.0
        edges[kind == 4] = -0.0
        edges[kind == 5, 3:6] = edges[kind == 5, 0:3] * -0.05  # accel parallel to mag
        edges[kind == 6, 0:3] = 1e-170  # squares underflow: a zero norm, x / 0 = inf
        edges[kind == 7, 3:6] = -1e-160  # subnormal squares
        streams = [synth_generate(spec, seed)[0].sensors["imu0"], opp, opp / 1000.0, edges]
        for series in streams:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = mahony_run(series, params)
            assert out.tobytes() == mahony_run_per_sample(series, params).tobytes()

    @pytest.mark.parametrize(
        "row, column, value",
        [
            *((row, column, value) for row in (0, 3) for column in (0, 2, 3, 5)
              for value in (1e300, -1e300, 1.7e308)),
            *((row, 6, value) for row in (0, 7) for value in (1e300, -1e300, 1.7e308)),
        ],
    )
    def test_overflow_message_equals_per_sample_loop(self, row, column, value):
        # The single-fault rows of the test_huge_* tests above.
        series = static_stream(np.array([1.0, 0, 0, 0]), 17)
        series[row, column] = value
        with pytest.raises(InvalidInputError) as expected:
            mahony_run_per_sample(series, MahonyParams())
        with pytest.raises(InvalidInputError) as got:
            mahony_run(series, MahonyParams())
        assert str(got.value) == str(expected.value)

    def test_degenerate_first_sample_falls_back_to_identity(self):
        series = static_stream(np.array([1.0, 0, 0, 0]), 5)
        series[0, 3:6] = [0.0, 0.0, 1.0]  # parallel to accel: degenerate TRIAD
        quats = mahony_run(series, MahonyParams())
        assert quats.shape == (5, 4)
        assert attitude_error_deg(quats[-1], np.array([1.0, 0, 0, 0])) < 5.0
