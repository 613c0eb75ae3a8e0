"""Synthetic rigid-body IMU generator with known ground-truth attitude.

This is the verification oracle for the attitude filter and the NED
transform: a virtual device follows a scripted orientation trajectory and
linear-acceleration profile, a fixed mounting rotation is composed on top,
and ideal (optionally noisy) accelerometer / magnetometer / gyroscope
readings are emitted together with the true attitude sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attitude import G0, quat_angle, quat_multiply_raw, quat_normalize
from .dataset import Recording
from .errors import ConfigError, InvalidInputError
from .globalview import rotation_from_quaternion

IDENTITY_QUAT = (1.0, 0.0, 0.0, 0.0)
INCLINATION_DEG = 60.0  # magnetic field dip below the horizon, positive down
_MOUNTING_TRIES = 1000  # random draws before _distinct_mountings gives up


@dataclass(frozen=True)
class SynthSpec:
    """Script for one synthetic recording.

    segments: piecewise-constant angular velocity of the un-mounted carrier
    frame, as (duration_s, (wx, wy, wz)) pairs in rad/s.  Remaining time after
    the last segment is zero rotation.
    lin_acc_amp_ned / lin_acc_freq_hz: sinusoidal linear acceleration in NED.
    """

    duration_s: float = 10.0
    rate_hz: float = 30.0
    segments: tuple = ()
    lin_acc_amp_ned: tuple = (0.0, 0.0, 0.0)
    lin_acc_freq_hz: float = 1.0
    mounting: tuple = IDENTITY_QUAT  # quaternion (w, x, y, z)
    initial_orientation: tuple = IDENTITY_QUAT  # carrier attitude at t = 0
    accel_noise_std: float = 0.0
    gyro_noise_std: float = 0.0
    mag_noise_std: float = 0.0
    label: int = 0

    def __post_init__(self):
        # Written as ranges so that NaN, which compares false, fails them.
        if not (0.0 < self.duration_s < math.inf and 0.0 < self.rate_hz < math.inf):
            raise ConfigError("duration and rate must be positive and finite")
        noise = (self.accel_noise_std, self.gyro_noise_std, self.mag_noise_std)
        if not all(0.0 <= std < math.inf for std in noise):
            raise ConfigError("noise std must be non-negative and finite")
        if not all(map(math.isfinite, (self.lin_acc_freq_hz, *self.lin_acc_amp_ned))):
            raise ConfigError("linear acceleration amplitude and frequency must be finite")


def _quat_exp_step(q, omega, dt):
    """Exact one-step integration of constant body rate omega over dt."""
    theta = float(np.linalg.norm(omega)) * dt
    if theta < 1e-15:
        dq = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        axis = np.asarray(omega) * (dt / theta)
        half = theta / 2.0
        dq = np.concatenate([[math.cos(half)], axis * math.sin(half)])
    return quat_normalize(quat_multiply_raw(q, dq))


def _carrier_rate_at(spec, t):
    acc = 0.0
    for dur, omega in spec.segments:
        if t < acc + dur:
            return np.asarray(omega, dtype=float)
        acc += dur
    return np.zeros(3)


def synth_generate(spec, rng_seed=0):
    """Generate one recording plus its ground-truth attitude sequence.

    Sample i carries the measurements and true attitude at time (i+1)*dt, so
    the truth sequence is aligned with the filter's post-update estimates.
    The truth includes the mounting rotation: it is exactly what a perfect
    attitude filter on the mounted sensor should report.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    n = round(spec.duration_s * spec.rate_hz)
    if n < 1:
        raise InvalidInputError("spec produces an empty recording")
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
        q_true = quat_normalize(quat_multiply_raw(q_c, q_mount))
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

    rec = Recording(
        subject_id="synth",
        sensors={"imu0": data},
        labels=np.full(n, spec.label, dtype=int),
        valid=np.ones(n, dtype=bool),
        sample_rate_hz=spec.rate_hz,
    )
    return rec, truth


def random_unit_quaternion(rng):
    return quat_normalize(rng.normal(size=4))


def _distinct_mountings(num, rng, min_separation_deg):
    mountings = []
    for _ in range(_MOUNTING_TRIES):
        cand = random_unit_quaternion(rng)
        if all(
            math.degrees(quat_angle(cand, m)) >= min_separation_deg for m in mountings
        ):
            mountings.append(cand)
            if len(mountings) == num:
                return mountings
    raise ConfigError("could not draw sufficiently separated mounting rotations")


def synth_population(num_users, activities, rng_seed=0, min_separation_deg=10.0,
                     sessions=1, random_heading=False):
    """A cross-user corpus: each user wears the sensor their own way.

    Every user gets one random mounting rotation (pairwise at least
    min_separation_deg apart) applied to every activity template; labels come
    from the templates.  With sessions > 1 each (user, activity) pair is
    recorded that many times.  random_heading="full" starts each session at
    a uniformly random carrier attitude, so the absolute attitude is not a
    stable class cue; False starts every session at the identity.  One
    orientation is drawn per (user, session) and
    shared by every activity in that session, so in a cross-user experiment
    the attitude track carries no class information.  Output is one Recording
    per (user, activity, session), fully determined by the seed.
    """
    if random_heading not in (False, "full"):
        raise ConfigError("random_heading must be False or 'full'")
    if num_users < 2:
        raise InvalidInputError("need at least two users for cross-user experiments")
    rng = np.random.default_rng(rng_seed)
    mountings = _distinct_mountings(num_users, rng, min_separation_deg)
    recordings = []
    for u, mount in enumerate(mountings):
        for _ in range(sessions):
            heading = tuple(random_unit_quaternion(rng)) if random_heading else IDENTITY_QUAT
            for template in activities:
                spec = replace(
                    template, mounting=tuple(mount), initial_orientation=heading
                )
                rec, _ = synth_generate(spec, rng)
                recordings.append(replace(rec, subject_id=f"u{u}"))
    return recordings
