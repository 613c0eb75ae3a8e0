"""Synthetic rigid-body IMU generator with known ground-truth attitude.

This is the verification oracle for the attitude filter and the NED
transform: a virtual device follows a scripted orientation trajectory and
linear-acceleration profile, a fixed mounting rotation is composed on top,
and ideal (optionally noisy) accelerometer / magnetometer / gyroscope
readings are emitted together with the true attitude sequence.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .attitude import G0, _hamilton, quat_angle, quat_multiply, quat_normalize
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
        if not math.isfinite(self.lin_acc_freq_hz):
            raise ConfigError("linear acceleration frequency must be finite")
        _finite_floats(self.lin_acc_amp_ned, 3, "linear acceleration amplitude")
        # synth_generate writes the label into an int64 array.
        label = self.label
        if isinstance(label, bool) or not (
            isinstance(label, numbers.Integral) and -(2**63) <= label < 2**63
        ):
            raise ConfigError(f"label must be an integer within int64, not {label!r}")
        if not isinstance(self.segments, Sequence):
            raise ConfigError(f"segments must be a sequence of (duration, rates) pairs, "
                              f"not {self.segments!r}")
        samples = self.duration_s * self.rate_hz
        if not (math.isfinite(samples) and round(samples) >= 1):
            raise ConfigError("duration times rate must round to at least one sample")
        dt = 1.0 / self.rate_hz
        t_last = (round(samples) - 1) * dt + dt  # the time synth_generate gives the last sample
        if not math.isfinite(2.0 * math.pi * self.lin_acc_freq_hz * t_last):
            raise ConfigError("linear acceleration phase must be finite over the recording")
        # The norms are taken as synth_generate takes them, where they must not overflow.
        with np.errstate(over="ignore"):
            for seg in self.segments:
                try:
                    dur, omega = seg
                except (TypeError, ValueError):
                    raise ConfigError(f"segment {seg!r} is not a (duration, rates) pair") from None
                if not (isinstance(dur, numbers.Real) and 0.0 <= dur < math.inf):
                    raise ConfigError(
                        f"segment {seg!r}: duration must be a non-negative, finite number"
                    )
                omega = _finite_floats(omega, 3, f"segment {seg!r} rates")
                if not math.isfinite(float(np.linalg.norm(omega)) * dt):
                    raise ConfigError("segment rate times the sample period must be finite")
            for name in ("mounting", "initial_orientation"):
                q = _finite_floats(getattr(self, name), 4, name)
                if not 0.0 < math.sqrt(float(np.dot(q, q))) < math.inf:
                    raise ConfigError(f"{name} must have a non-zero, finite norm")


def _finite_floats(values, size, name):
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        values = np.zeros(0)
    if values.shape != (size,) or not np.isfinite(values).all():
        raise ConfigError(f"{name} must be {size} finite numbers")
    return values


def synth_generate(spec, rng_seed=0):
    """Generate one recording plus its ground-truth attitude sequence.

    Sample i carries the measurements and true attitude at time (i+1)*dt, so
    the truth sequence is aligned with the filter's post-update estimates.
    The truth includes the mounting rotation: it is exactly what a perfect
    attitude filter on the mounted sensor should report.

    Only the carrier-attitude recurrence runs per sample, and within one
    segment it stops once a step leaves the attitude unchanged bit for bit
    (a zero rate does so after one step).  The sine of the linear
    acceleration is taken per sample with math.sin; everything else is one
    array operation over the whole sequence.  The output equals that of
    stepping sample by sample bit for bit: the stacked products below take
    the same BLAS kernels as per-sample 4-vector dots and 3x3 matrix-vector
    products do, which holds only for C-contiguous rotation stacks.
    """
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
    t_prev = np.arange(n) * dt
    # Sample i runs at the rate of the first segment with t_prev[i] < its end.
    ends, acc = [], 0.0
    for dur, _ in spec.segments:
        acc += dur
        ends.append(acc)
    stops = [*np.searchsorted(t_prev, ends).tolist(), n]
    rates = [np.asarray(omega, dtype=float) for _, omega in spec.segments] + [np.zeros(3)]

    q_c = np.empty((n, 4))
    q = quat_normalize(np.asarray(spec.initial_orientation, dtype=float))
    start = 0
    for omega, stop in zip(rates, stops):
        if stop <= start:
            continue
        # Exact one-step integration of the constant body rate omega over dt.
        theta = float(np.linalg.norm(omega)) * dt
        if theta < 1e-15:
            dq = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            half = theta / 2.0
            dq = np.concatenate([[math.cos(half)], omega * (dt / theta) * math.sin(half)])
        data[start:stop, 6:9] = r_mount.T @ omega
        for i in range(start, stop):
            q_next = quat_normalize(quat_multiply(q, dq))
            q_c[i] = q_next
            if q_next.tobytes() == q.tobytes():  # a fixed point: the rest repeat it
                q_c[i:stop] = q_next
                break
            q = q_next
        start = stop

    q_raw = np.stack(_hamilton(*q_c.T, *q_mount.tolist()), axis=1)
    norms = np.sqrt((q_raw[:, None, :] @ q_raw[:, :, None])[:, 0])
    truth = q_raw / norms
    r_true_t = np.ascontiguousarray(rotation_from_quaternion(truth)).transpose(0, 2, 1)
    w = 2.0 * math.pi * spec.lin_acc_freq_hz
    sines = np.array([math.sin(w * t) for t in (t_prev + dt).tolist()])
    a_lin = amp * sines[:, None]
    data[:, 0:3] = (r_true_t @ (a_lin - g_ned)[:, :, None])[:, :, 0]
    data[:, 3:6] = (r_true_t @ b_ned[:, None])[:, :, 0]

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
