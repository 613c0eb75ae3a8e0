"""Quaternion algebra and the Mahony complementary attitude filter.

Conventions used throughout the library:

* Quaternions are numpy arrays ``[w, x, y, z]`` (Hamilton convention) and
  describe the rotation taking body-frame vectors into the NED frame.
* Vectors are numpy arrays ``[x, y, z]``; accelerometers report specific
  force, so a stationary sensor aligned with NED reads ``(0, 0, -g0)``.
* Gyroscope rates are rad/s in the body frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInitError, InvalidInputError

G0 = 9.80665  # standard gravity, m/s^2

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("non-finite value in input")


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(np.dot(q, q)))
    if n == 0.0 or not math.isfinite(n):
        raise InvalidInputError("cannot normalize zero or non-finite quaternion")
    return q / n


def _require_unit(q, tol=1e-6):
    q = np.asarray(q, dtype=float)
    # A NaN or infinite component fails the comparison as well.
    if not (np.abs((q * q).sum(-1) - 1.0) <= 2.0 * tol).all():
        raise InvalidInputError("quaternion is not finite and unit-norm")
    return q


def quat_multiply_raw(a, b):
    """Hamilton product without unit-norm checks (b may be a pure rate quaternion)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_multiply(a, b):
    """Hamilton product a ⊗ b, renormalized.

    Both factors must already be unit quaternions (within 1e-6).
    """
    return quat_normalize(quat_multiply_raw(_require_unit(a), _require_unit(b)))


def _rotation(q):
    """Unchecked quadratic form: (4,) -> (3, 3), (t, 4) -> (t, 3, 3)."""
    w, x, y, z = q.T
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return m if q.ndim == 1 else m.transpose(2, 0, 1)


def rotation_from_quaternion(q):
    """Basis-change matrix taking body vectors into NED.

    q is one quaternion (4,) or a sequence (t, 4); the result is (3, 3) or
    (t, 3, 3).  Entries follow the standard quadratic form in the quaternion
    components; each matrix is orthogonal with determinant +1 for a unit
    quaternion (within 1e-6; any other row raises InvalidInputError).
    """
    return _rotation(_require_unit(q))


def quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_angle(a, b):
    """Geodesic angle in radians between two unit quaternions."""
    d = abs(float(np.dot(_require_unit(a), _require_unit(b))))
    return 2.0 * math.acos(min(1.0, d))


def quat_from_rotation_matrix(m):
    """Unit quaternion for an orthogonal matrix mapping body to NED.

    Uses the numerically stable largest-pivot (Shepperd) branch selection.
    """
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:  # canonical sign: q and -q are the same rotation
        q = -q
    return quat_normalize(q)


def quat_from_accel_mag(accel, mag):
    """TRIAD-style initial attitude from one accelerometer + magnetometer pair.

    The down axis comes from the (negated) specific-force direction, east from
    down x mag, north completes the triad.  Raises DegenerateInitError when the
    two reference directions are within 1 degree of parallel.
    """
    accel = np.asarray(accel, dtype=float)
    mag = np.asarray(mag, dtype=float)
    _check_finite(accel, mag)
    na = float(np.linalg.norm(accel))
    nm = float(np.linalg.norm(mag))
    if na == 0.0 or nm == 0.0:
        raise InvalidInputError("zero accelerometer or magnetometer vector")
    down_b = -accel / na
    m_n = mag / nm
    east_b = np.cross(down_b, m_n)
    ne = float(np.linalg.norm(east_b))
    if ne < math.sin(math.radians(1.0)):
        raise DegenerateInitError("accelerometer and magnetometer nearly parallel")
    east_b = east_b / ne
    north_b = np.cross(east_b, down_b)
    # Rows of M are the NED axes expressed in the body frame.
    m = np.vstack([north_b, east_b, down_b])
    return quat_from_rotation_matrix(m)


@dataclass(frozen=True)
class MahonyParams:
    """Filter gains and stream geometry.

    mag_reference_handling selects how the NED magnetic reference is obtained:
    "auto" projects the measured field into the horizontal plane every step,
    "fixed" uses a constant inclination angle (degrees, positive down).
    """

    kp: float = 1.0
    ki: float = 0.0
    sample_rate_hz: float = 30.0
    mag_reference_handling: str = "auto"
    fixed_inclination_deg: float = 60.0
    warmup_seconds: float = 1.0

    def __post_init__(self):
        if self.kp <= 0.0:
            raise ConfigError("kp must be positive")
        if self.ki < 0.0:
            raise ConfigError("ki must be non-negative")
        if self.sample_rate_hz <= 0.0:
            raise ConfigError("sample_rate_hz must be positive")
        if self.warmup_seconds < 0.0:
            raise ConfigError("warmup_seconds must be non-negative")
        if self.mag_reference_handling not in ("auto", "fixed"):
            raise ConfigError("mag_reference_handling must be 'auto' or 'fixed'")


@dataclass
class MahonyState:
    q: np.ndarray = field(default_factory=lambda: _IDENTITY.copy())
    integral_error: np.ndarray = field(default_factory=lambda: np.zeros(3))
    steps: int = 0


def _mahony_update(q, integral, accel, gyro, mag, params):
    """The filter update shared by mahony_step and mahony_run, without input
    checks.  Returns the new (q, integral)."""
    m_rot = _rotation(q)
    err = np.zeros(3)
    na = float(np.linalg.norm(accel))
    if na > 0.0:
        a_n = accel / na
        g_b = m_rot.T @ np.array([0.0, 0.0, -1.0])  # specific-force direction
        err += np.cross(a_n, g_b)
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
            w_b = m_rot.T @ (b_ned / nb)
            err += np.cross(m_n, w_b)

    dt = 1.0 / params.sample_rate_hz
    if params.ki > 0.0:
        integral = integral + err * dt
    omega = gyro + params.kp * err + params.ki * integral

    dq = 0.5 * quat_multiply_raw(q, np.array([0.0, omega[0], omega[1], omega[2]]))
    return quat_normalize(q + dq * dt), integral


def mahony_step(state, accel, gyro, mag, params):
    """One checked filter update: the scalar reference for mahony_run.

    A zero accelerometer or magnetometer vector disables that correction term
    for the step (gyro-only propagation still happens).
    """
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    mag = np.asarray(mag, dtype=float)
    _check_finite(accel, gyro, mag)
    q = _require_unit(state.q)
    q, integral = _mahony_update(q, state.integral_error, accel, gyro, mag, params)
    return MahonyState(q=q, integral_error=integral, steps=state.steps + 1)


def mahony_run(series, params):
    """Filter a whole 9-axis stream.

    series: (t, 9) array in channel order [ax ay az mx my mz gx gy gz].
    Returns a (t, 4) array of unit quaternions, one per input sample, as a
    loop of mahony_step would.  The first sample seeds the filter through
    quat_from_accel_mag (identity on a degenerate pair).  No warm-up trimming
    happens here.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != 9 or series.shape[0] == 0:
        raise InvalidInputError("series must be a non-empty (t, 9) array")
    _check_finite(series)
    try:
        q = quat_from_accel_mag(series[0, 0:3], series[0, 3:6])
    except (DegenerateInitError, InvalidInputError):
        q = _IDENTITY.copy()
    integral = np.zeros(3)
    out = np.empty((series.shape[0], 4))
    for i, row in enumerate(series):
        q, integral = _mahony_update(q, integral, row[0:3], row[6:9], row[3:6], params)
        out[i] = q
    return out
