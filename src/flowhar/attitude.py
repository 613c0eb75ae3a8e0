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


def _hamilton(aw, ax, ay, az, bw, bx, by, bz):
    """Hamilton product components, on floats or elementwise on arrays."""
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_multiply_raw(a, b):
    """Hamilton product without unit-norm checks (b may be a pure rate quaternion)."""
    a = np.asarray(a, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    return np.array(_hamilton(*a, *b))


def quat_multiply(a, b):
    """Hamilton product a ⊗ b, renormalized.

    Both factors must already be unit quaternions (within 1e-6).
    """
    return quat_normalize(quat_multiply_raw(_require_unit(a), _require_unit(b)))


def _rotation_entries(w, x, y, z):
    """Row-major entries of the body-to-NED matrix of (w, x, y, z): the
    quadratic form, on floats or elementwise on arrays."""
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _rotation(q):
    """Unchecked quadratic form: (4,) -> (3, 3), (t, 4) -> (t, 3, 3)."""
    # One quaternion is done on Python floats, which cost less than NumPy scalars.
    m = np.array(_rotation_entries(*(q.tolist() if q.ndim == 1 else q.T)))  # (9,) or (9, t)
    return m.T.reshape(q.shape[:-1] + (3, 3))


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
    with np.errstate(over="ignore"):
        na = float(np.linalg.norm(accel))
        nm = float(np.linalg.norm(mag))
    if na == 0.0 or nm == 0.0:
        raise InvalidInputError("zero accelerometer or magnetometer vector")
    if na == math.inf or nm == math.inf:
        raise InvalidInputError("accelerometer or magnetometer vector too large")
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


def _mahony_update(q, integral, row, params):
    """The filter update shared by mahony_step and mahony_run, on Python
    floats and without input checks.

    q is (w, x, y, z), integral (x, y, z) and row the 9 sample values
    [ax ay az mx my mz gx gy gz].  Returns the new (q, integral) as tuples.
    Raises InvalidInputError when a finite but huge accel or mag sample
    overflows its norm, or when the updated quaternion's norm is zero or not
    finite (a finite but huge gyro rate overflows it).
    """
    w, x, y, z = q
    ax, ay, az, mx, my, mz, gx, gy, gz = row
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = _rotation_entries(w, x, y, z)
    ex = ey = ez = 0.0
    na = math.sqrt(ax * ax + ay * ay + az * az)
    if na > 0.0:
        if na == math.inf:
            raise InvalidInputError("accelerometer sample too large")
        ax, ay, az = ax / na, ay / na, az / na
        # err = a x g_b, where g_b = m_rot.T @ (0, 0, -1) = -(m20, m21, m22)
        # is the expected specific-force direction
        ex = az * m21 - ay * m22
        ey = ax * m22 - az * m20
        ez = ay * m20 - ax * m21
    nm = math.sqrt(mx * mx + my * my + mz * mz)
    if nm > 0.0:
        if nm == math.inf:
            raise InvalidInputError("magnetometer sample too large")
        mx, my, mz = mx / nm, my / nm, mz / nm
        if params.mag_reference_handling == "auto":
            # h = m_rot @ m with its horizontal part turned onto north
            bn = math.hypot(m00 * mx + m01 * my + m02 * mz, m10 * mx + m11 * my + m12 * mz)
            bd = m20 * mx + m21 * my + m22 * mz
        else:
            inc = math.radians(params.fixed_inclination_deg)
            bn, bd = math.cos(inc), math.sin(inc)
        nb = math.sqrt(bn * bn + bd * bd)
        if nb > 0.0:
            bn, bd = bn / nb, bd / nb
            # err += m x w_b, with w_b = m_rot.T @ (bn, 0, bd)
            wx = m00 * bn + m20 * bd
            wy = m01 * bn + m21 * bd
            wz = m02 * bn + m22 * bd
            ex += my * wz - mz * wy
            ey += mz * wx - mx * wz
            ez += mx * wy - my * wx

    dt = 1.0 / params.sample_rate_hz
    kp, ki = params.kp, params.ki
    if ki > 0.0:
        integral = (integral[0] + ex * dt, integral[1] + ey * dt, integral[2] + ez * dt)
    ox = gx + kp * ex + ki * integral[0]
    oy = gy + kp * ey + ki * integral[1]
    oz = gz + kp * ez + ki * integral[2]

    dw, dx, dy, dz = _hamilton(w, x, y, z, 0.0, ox, oy, oz)
    w += 0.5 * dw * dt
    x += 0.5 * dx * dt
    y += 0.5 * dy * dt
    z += 0.5 * dz * dt
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise InvalidInputError("filter quaternion overflowed: sample too large")
    return (w / n, x / n, y / n, z / n), integral


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
    row = np.concatenate([accel, mag, gyro]).tolist()
    q, integral = _mahony_update(
        q.tolist(), np.asarray(state.integral_error, dtype=float).tolist(), row, params
    )
    return MahonyState(q=np.array(q), integral_error=np.array(integral), steps=state.steps + 1)


def mahony_run(series, params):
    """Filter a whole 9-axis stream.

    series: (t, 9) array in channel order [ax ay az mx my mz gx gy gz].
    Returns a (t, 4) array of unit quaternions, one per input sample, equal
    bit for bit to a loop of mahony_step.  The first sample seeds the filter
    through quat_from_accel_mag (identity on a degenerate pair).  The series
    is checked once for shape and finiteness; the loop then runs the shared
    update on Python floats, since NumPy's per-call cost on 3- and 4-element
    arrays is many times the arithmetic.  A sample that overflows the
    quaternion raises InvalidInputError.  No warm-up trimming happens here.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != 9 or series.shape[0] == 0:
        raise InvalidInputError("series must be a non-empty (t, 9) array")
    _check_finite(series)
    try:
        q = quat_from_accel_mag(series[0, 0:3], series[0, 3:6]).tolist()
    except (DegenerateInitError, InvalidInputError):
        q = _IDENTITY.tolist()
    integral = (0.0, 0.0, 0.0)
    out = []
    for row in series.tolist():
        q, integral = _mahony_update(q, integral, row, params)
        out.append(q)
    return np.array(out)
