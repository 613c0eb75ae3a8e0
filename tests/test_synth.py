"""Synthetic rigid-body oracle tests."""

import math
import re

import numpy as np
import pytest

from conftest import attitude_error_deg
from flowhar.attitude import G0, MahonyParams, quat_multiply, quat_normalize
from flowhar.errors import ConfigError, InvalidInputError
from flowhar.globalview import mc_transform, rotation_from_quaternion
from flowhar.synth import INCLINATION_DEG, SynthSpec, synth_generate, synth_population


def _quat_exp_step(q, omega, dt):
    """Exact one-step integration of constant body rate omega over dt."""
    theta = float(np.linalg.norm(omega)) * dt
    if theta < 1e-15:
        dq = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        axis = np.asarray(omega) * (dt / theta)
        half = theta / 2.0
        dq = np.concatenate([[math.cos(half)], axis * math.sin(half)])
    return quat_normalize(quat_multiply(q, dq))


def _carrier_rate_at(spec, t):
    acc = 0.0
    for dur, omega in spec.segments:
        if t < acc + dur:
            return np.asarray(omega, dtype=float)
        acc += dur
    return np.zeros(3)


def per_sample_generate(spec, rng_seed=0):
    """The generator stepped one sample at a time: synth_generate's oracle."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    n = round(spec.duration_s * spec.rate_hz)
    dt = 1.0 / spec.rate_hz
    q_mount = quat_normalize(np.asarray(spec.mounting, dtype=float))
    r_mount = rotation_from_quaternion(q_mount)
    inc = math.radians(INCLINATION_DEG)
    b_ned = np.array([math.cos(inc), 0.0, math.sin(inc)])
    amp = np.asarray(spec.lin_acc_amp_ned, dtype=float)
    g_ned = np.array([0.0, 0.0, G0])

    data = np.empty((n, 9))
    truth = np.empty((n, 4))
    q_c = quat_normalize(np.asarray(spec.initial_orientation, dtype=float))
    for i in range(n):
        t_prev = i * dt
        omega_c = _carrier_rate_at(spec, t_prev)
        q_c = _quat_exp_step(q_c, omega_c, dt)
        t = t_prev + dt
        q_true = quat_normalize(quat_multiply(q_c, q_mount))
        r_true = rotation_from_quaternion(q_true)
        a_lin = amp * math.sin(2.0 * math.pi * spec.lin_acc_freq_hz * t)
        data[i, 0:3] = r_true.T @ (a_lin - g_ned)
        data[i, 3:6] = r_true.T @ b_ned
        data[i, 6:9] = r_mount.T @ omega_c
        truth[i] = q_true

    if spec.accel_noise_std > 0:
        data[:, 0:3] += rng.normal(0.0, spec.accel_noise_std, (n, 3))
    if spec.mag_noise_std > 0:
        data[:, 3:6] += rng.normal(0.0, spec.mag_noise_std, (n, 3))
    if spec.gyro_noise_std > 0:
        data[:, 6:9] += rng.normal(0.0, spec.gyro_noise_std, (n, 3))
    return data, truth, np.full(n, spec.label, dtype=int)


class TestSynthSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0.0},
        {"accel_noise_std": -0.1},
        {"duration_s": math.nan},
        {"duration_s": math.inf},
        {"rate_hz": math.nan},
        {"rate_hz": math.inf},
        {"accel_noise_std": math.nan},
        {"gyro_noise_std": math.inf},
        {"mag_noise_std": math.nan},
        {"lin_acc_freq_hz": math.nan},
        {"lin_acc_freq_hz": -math.inf},
        {"lin_acc_amp_ned": (0.0, math.nan, 0.0)},
        {"lin_acc_amp_ned": (math.inf, 0.0, 0.0)},
        {"duration_s": 0.01},
        {"duration_s": 1e300, "rate_hz": 1e300},
        {"lin_acc_freq_hz": 1e308},
        {"duration_s": 0.6, "rate_hz": 1.0, "lin_acc_freq_hz": 3.4e307},
        {"segments": ((math.nan, (0.0, 0.0, 1.0)),)},
        {"segments": ((math.inf, (0.0, 0.0, 1.0)),)},
        {"segments": ((-1.0, (0.0, 0.0, 1.0)),)},
        {"segments": ((1.0, (0.0, 0.0, math.nan)),)},
        {"segments": ((1.0, (0.0, 0.0, math.inf)),)},
        {"segments": ((1.0, (0.0, 1.0)),)},
        {"segments": ((1.0, (0.0, 0.0, 1e308)),)},
        {"mounting": (math.nan, 0.0, 0.0, 1.0)},
        {"mounting": (0.0, 0.0, 0.0, 0.0)},
        {"mounting": (1e200, 0.0, 0.0, 0.0)},
        {"mounting": (1.0, 0.0, 0.0)},
        {"initial_orientation": (1.0, math.inf, 0.0, 0.0)},
        {"initial_orientation": (0.0, 0.0, 0.0, 0.0)},
        {"lin_acc_amp_ned": (1.0,)},
        {"segments": 5},
        {"segments": None},
        {"label": 2.5},
        {"label": 2**63},
        {"label": -(2**63) - 1},
        {"label": True},
        {"label": "1"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("segment, message", [
        ((1.0,), "is not a (duration, rates) pair"),
        ((1.0, (0, 0, 1), 2), "is not a (duration, rates) pair"),
        (("a", (0, 0, 1)), "duration must be a non-negative, finite number"),
        (5, "is not a (duration, rates) pair"),
    ], ids=["one_item", "three_items", "string_duration", "not_a_pair"])
    def test_malformed_segment(self, segment, message):
        with pytest.raises(ConfigError, match=re.escape(f"segment {segment!r}")) as info:
            SynthSpec(segments=(segment,))
        assert message in str(info.value)


class TestSynthGenerate:
    def test_static_case(self):
        spec = SynthSpec(duration_s=2.0, rate_hz=30.0)
        rec, truth = synth_generate(spec)
        data = rec.sensors["imu0"]
        assert rec.length == 60
        assert np.allclose(data[:, 0:3], [0, 0, -G0], atol=1e-12)
        assert np.allclose(data[:, 6:9], 0.0, atol=1e-15)
        assert np.allclose(truth, [[1, 0, 0, 0]] * 60, atol=1e-12)

    def test_constant_yaw_rate_closed_form(self):
        rate = 0.3
        spec = SynthSpec(duration_s=4.0, rate_hz=30.0, segments=((4.0, (0, 0, rate)),))
        _, truth = synth_generate(spec)
        theta = rate * 4.0  # total yaw after the last sample
        expected = np.array([math.cos(theta / 2), 0, 0, math.sin(theta / 2)])
        assert attitude_error_deg(truth[-1], expected) < 1e-9

    def test_mounting_composed_into_truth(self):
        half = math.radians(40.0) / 2
        mount = (math.cos(half), 0.0, math.sin(half), 0.0)
        spec = SynthSpec(duration_s=1.0, rate_hz=30.0, mounting=mount)
        _, truth = synth_generate(spec)
        assert attitude_error_deg(truth[0], np.array(mount)) < 1e-9

    def test_truth_matches_filter_estimate(self):
        # Closure: the filter run on noiseless oracle output recovers the
        # oracle's ground-truth attitude within 3 degrees after warm-up.
        spec = SynthSpec(
            duration_s=8.0,
            rate_hz=30.0,
            segments=((3.0, (0.3, 0.0, 0.5)), (3.0, (0.0, -0.4, 0.2))),
            mounting=(math.cos(0.5), math.sin(0.5), 0.0, 0.0),
        )
        rec, truth = synth_generate(spec)
        g = mc_transform(rec.sensors["imu0"], MahonyParams(sample_rate_hz=30.0))
        errors = [
            attitude_error_deg(q_est, q_true)
            for q_est, q_true in zip(g[:, 9:13], truth[len(truth) - len(g):])
        ]
        assert max(errors) < 3.0

    def test_determinism(self):
        spec = SynthSpec(duration_s=2.0, rate_hz=30.0, accel_noise_std=0.1)
        rec_a, truth_a = synth_generate(spec, rng_seed=5)
        rec_b, truth_b = synth_generate(spec, rng_seed=5)
        assert np.array_equal(rec_a.sensors["imu0"], rec_b.sensors["imu0"])
        assert np.array_equal(truth_a, truth_b)

    def test_labels_attached(self):
        rec, _ = synth_generate(SynthSpec(duration_s=1.0, rate_hz=30.0, label=3))
        assert np.all(rec.labels == 3)


_SPIN = (0.4, -0.2, 0.9)
ORACLE_SPECS = {
    # Segment ends at 1/3 s and 1 s fall exactly on 30 Hz sample times.
    "zero_rate_runs_between_rotations": SynthSpec(
        duration_s=6.0, rate_hz=30.0,
        segments=((1 / 3, _SPIN), (1.0, (0.0, 0.0, 0.0)), (1.0, (0.0, 0.5, -0.3)),
                  (0.0, (2.0, 0.0, 0.0)), (1 / 3, (0.0, 0.0, 0.0)), (1.0, (1.2, 0.1, 0.0))),
        lin_acc_amp_ned=(1.0, -0.5, 2.0), lin_acc_freq_hz=1.5,
        mounting=(0.9, 0.1, -0.3, 0.2), initial_orientation=(2.0, 0.5, -1.0, 0.3),
        accel_noise_std=0.05, gyro_noise_std=0.01, mag_noise_std=0.01, label=2,
    ),
    "still_from_a_random_heading": SynthSpec(
        duration_s=12.0, rate_hz=30.0, lin_acc_amp_ned=(0.0, 3.0, 0.0), lin_acc_freq_hz=2.0,
        mounting=(0.3, -0.8, 0.1, 0.5), initial_orientation=(-0.4, 0.2, 0.7, -0.1),
        accel_noise_std=0.05, gyro_noise_std=0.01, mag_noise_std=0.01, label=1,
    ),
    "7_hz_noiseless": SynthSpec(
        duration_s=9.0, rate_hz=7.0, segments=((2.0, (0.0, 0.0, 0.3)), (3.0, (0.7, -0.1, 0.2))),
        lin_acc_amp_ned=(0.5, 0.0, -1.0), lin_acc_freq_hz=0.7,
        mounting=(0.5, 0.5, 0.5, 0.5), initial_orientation=(0.0, 0.0, 0.0, 3.0),
    ),
    "100_hz_segment_past_the_end": SynthSpec(
        duration_s=3.0, rate_hz=100.0, segments=((0.25, (0.0, 0.0, 0.0)), (10.0, (-1.5, 0.4, 0.9))),
        lin_acc_amp_ned=(2.0, 2.0, 0.0), lin_acc_freq_hz=3.0,
        mounting=(1.0, 0.0, 0.0, 1.0), accel_noise_std=0.1,
    ),
    "43_hz_gyro_noise_only": SynthSpec(
        duration_s=2.7, rate_hz=43.3, segments=((0.5, (0.3, 0.3, 0.3)), (0.5, (0.0, 0.0, 0.0))),
        initial_orientation=(0.1, -0.9, 0.2, 0.4), gyro_noise_std=0.02, label=4,
    ),
}


def _random_spec(rng):
    segments = tuple(
        (float(rng.choice([1 / 3, 1.0, rng.uniform(0.0, 2.0)])),
         tuple(rng.uniform(-2.0, 2.0, 3)) if rng.random() < 0.7 else (0.0, 0.0, 0.0))
        for _ in range(int(rng.integers(0, 5)))
    )
    noise = float(rng.random() < 0.5)
    return SynthSpec(
        duration_s=float(rng.uniform(0.5, 6.0)), rate_hz=float(rng.uniform(7.0, 100.0)),
        segments=segments, lin_acc_amp_ned=tuple(rng.uniform(-3.0, 3.0, 3)),
        lin_acc_freq_hz=float(rng.uniform(0.0, 3.0)),
        mounting=tuple(rng.normal(size=4) * 2.0), initial_orientation=tuple(rng.normal(size=4)),
        accel_noise_std=0.05 * noise, gyro_noise_std=0.01 * noise, mag_noise_std=0.01 * noise,
        label=int(rng.integers(5)),
    )


class TestPerSampleOracle:
    """synth_generate equals the per-sample generator byte for byte."""

    def _assert_same_bytes(self, spec, make_seed):
        rec, truth = synth_generate(spec, make_seed())
        data, truth_ref, labels = per_sample_generate(spec, make_seed())
        for got, want in ((rec.sensors["imu0"], data), (truth, truth_ref), (rec.labels, labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", ["int", "generator"])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_scripted_specs(self, name, seed):
        make_seed = (lambda: 11) if seed == "int" else (lambda: np.random.default_rng(11))
        self._assert_same_bytes(ORACLE_SPECS[name], make_seed)

    def test_random_specs(self):
        rng = np.random.default_rng(2024)
        for k in range(40):
            self._assert_same_bytes(_random_spec(rng), lambda: k)


class TestSynthPopulation:
    def _acts(self):
        return [
            SynthSpec(duration_s=2.0, rate_hz=30.0, label=0),
            SynthSpec(duration_s=2.0, rate_hz=30.0, label=1,
                      lin_acc_amp_ned=(1.0, 0, 0)),
        ]

    def test_counting(self):
        recs = synth_population(3, self._acts(), rng_seed=1)
        assert len(recs) == 6
        assert sorted({r.subject_id for r in recs}) == ["u0", "u1", "u2"]

    def test_sessions_multiply_recordings(self):
        recs = synth_population(2, self._acts(), rng_seed=1, sessions=3)
        assert len(recs) == 12

    def test_determinism(self):
        a = synth_population(2, self._acts(), rng_seed=9, sessions=2, random_heading="full")
        b = synth_population(2, self._acts(), rng_seed=9, sessions=2, random_heading="full")
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.sensors["imu0"], rb.sensors["imu0"])

    def test_mountings_pairwise_separated(self):
        recs = synth_population(4, self._acts()[:1], rng_seed=3, min_separation_deg=10.0)
        # Recover each user's mounting from the static gyro-free truth: with a
        # static template, accel direction is mounting-dependent and distinct.
        by_user = {r.subject_id: r.sensors["imu0"][0, 0:3] for r in recs}
        users = sorted(by_user)
        for i in range(len(users)):
            for j in range(i + 1, len(users)):
                a = by_user[users[i]] / np.linalg.norm(by_user[users[i]])
                b = by_user[users[j]] / np.linalg.norm(by_user[users[j]])
                # distinct mountings almost surely give distinct accel directions
                assert not np.allclose(a, b, atol=1e-6)

    def test_needs_two_users(self):
        with pytest.raises(InvalidInputError):
            synth_population(1, self._acts(), rng_seed=0)

    def test_bad_heading_mode(self):
        for mode in ("sideways", "yaw", True):
            with pytest.raises(ConfigError):
                synth_population(2, self._acts(), rng_seed=0, random_heading=mode)

    def test_shared_session_orientation(self):
        # All activities inside one session start from the same attitude, so
        # the initial magnetometer reading (a pure attitude probe) matches
        # across the session's activities.
        recs = synth_population(
            2, self._acts(), rng_seed=4, sessions=2, random_heading="full"
        )
        # recordings are ordered user -> session -> activity
        first, second = recs[0], recs[1]
        m0 = first.sensors["imu0"][0, 3:6]
        m1 = second.sensors["imu0"][0, 3:6]
        assert np.allclose(m0, m1, atol=1e-12)
