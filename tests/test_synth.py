"""Synthetic rigid-body oracle tests."""

import math

import numpy as np
import pytest

from conftest import attitude_error_deg
from flowhar.attitude import G0, MahonyParams
from flowhar.errors import ConfigError, InvalidInputError
from flowhar.globalview import mc_transform
from flowhar.synth import SynthSpec, synth_generate, synth_population


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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)


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
        res = mc_transform(rec.sensors["imu0"], MahonyParams(sample_rate_hz=30.0))
        errors = [
            attitude_error_deg(q_est, q_true)
            for q_est, q_true in zip(res.global_[:, 9:13], truth[res.trimmed:])
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
