"""Quaternion algebra and the Mahony attitude filter: a proportional
complementary filter whose magnetic reference comes from the measured field.

Conventions used throughout the library:

* Quaternions are numpy arrays ``[w, x, y, z]`` (Hamilton convention) and
  describe the rotation taking body-frame vectors into the NED frame.
* Vectors are numpy arrays ``[x, y, z]``; accelerometers report specific
  force, so a stationary sensor aligned with NED reads ``(0, 0, -g0)``.
* Gyroscope rates are rad/s in the body frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError

G0 = 9.80665  # standard gravity, m/s^2

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_UNIT_TOL = 1e-6  # how far from 1 a quaternion's norm may be and still count as unit


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


def _require_unit(q):
    q = np.asarray(q, dtype=float)
    # A NaN or infinite component fails the comparison as well.
    if not (np.abs((q * q).sum(-1) - 1.0) <= 2.0 * _UNIT_TOL).all():
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


def quat_multiply(a, b):
    """Hamilton product a ⊗ b on Python floats, not renormalized and without
    unit-norm checks (b may be a pure rate quaternion)."""
    a = np.asarray(a, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    return np.array(_hamilton(*a, *b))


def _rotation_entries(w, x, y, z):
    """Row-major entries of the body-to-NED matrix of (w, x, y, z): the
    quadratic form, on floats or elementwise on arrays."""
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def rotation_from_quaternion(q):
    """Basis-change matrix taking body vectors into NED.

    q is one quaternion (4,) or a sequence (t, 4); the result is (3, 3) or
    (t, 3, 3).  Entries follow the standard quadratic form in the quaternion
    components; each matrix is orthogonal with determinant +1 for a unit
    quaternion (within 1e-6; any other row raises InvalidInputError).
    """
    q = _require_unit(q)
    m = np.array(_rotation_entries(*q.T))  # (9,) or (9, t)
    return m.T.reshape(q.shape[:-1] + (3, 3))


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
    down x mag, north completes the triad.  Raises InvalidInputError when the
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
        raise InvalidInputError("accelerometer and magnetometer nearly parallel")
    east_b = east_b / ne
    north_b = np.cross(east_b, down_b)
    # Rows of M are the NED axes expressed in the body frame.
    m = np.vstack([north_b, east_b, down_b])
    return quat_from_rotation_matrix(m)


# Proportional gain of the filter.  With no integral term this is the
# proportional complementary filter of Mahony, Hamel & Pflimlin (IEEE TAC 2008).
MAHONY_KP = 1.0


@dataclass(frozen=True)
class MahonyParams:
    """Stream geometry of the filter: the sample rate and the warm-up that
    globalview.mc_transform trims from the start of each stream.

    The gain is MAHONY_KP, and the magnetic reference is the measured field
    projected into the horizontal plane every step.
    """

    sample_rate_hz: float = 30.0
    warmup_seconds: float = 1.0

    def __post_init__(self):
        # Written as ranges so that NaN, which compares false, fails them.
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ConfigError("sample_rate_hz must be positive and finite")
        if not 0.0 <= self.warmup_seconds < math.inf:
            raise ConfigError("warmup_seconds must be non-negative and finite")
        # globalview.mc_transform trims ceil() of this many samples.
        if not math.isfinite(self.warmup_seconds * self.sample_rate_hz):
            raise ConfigError("warmup_seconds times sample_rate_hz must be finite")


def mahony_run(series, params):
    """Filter a whole 9-axis stream.

    series: (t, 9) array in channel order [ax ay az mx my mz gx gy gz].
    Returns a (t, 4) array of unit quaternions, one per input sample.  The
    first sample seeds the filter through quat_from_accel_mag (identity on a
    degenerate pair).  A zero accelerometer or magnetometer vector disables
    that correction term for its step (gyro-only propagation still happens).
    The series is checked once for shape and finiteness, and the accel and
    mag norms and unit vectors come from array ops over the whole series.
    The loop then runs only the recurrence, on Python floats, since NumPy's
    per-call cost on 3- and 4-element arrays is many times the arithmetic.
    A finite but huge accel or mag sample, whose norm overflows, or a sample
    that overflows the quaternion raises InvalidInputError.  No warm-up
    trimming happens here.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != 9 or series.shape[0] == 0:
        raise InvalidInputError("series must be a non-empty (t, 9) array")
    _check_finite(series)
    a, m = series[:, 0:3], series[:, 3:6]
    # Each sum runs left to right, as the same expression on floats does, so
    # the norms round bit for bit as in a per-sample loop.  A zero vector's
    # unit row is NaN and its flag is off.
    with np.errstate(all="ignore"):
        na = np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])
        nm = np.sqrt(m[:, 0] * m[:, 0] + m[:, 1] * m[:, 1] + m[:, 2] * m[:, 2])
        if (na == math.inf).any():
            raise InvalidInputError("accelerometer sample too large")
        if (nm == math.inf).any():
            raise InvalidInputError("magnetometer sample too large")
        rows = np.column_stack(
            (a / na[:, None], m / nm[:, None], series[:, 6:9], na > 0.0, nm > 0.0)
        )
    try:
        w, x, y, z = quat_from_accel_mag(series[0, 0:3], series[0, 3:6]).tolist()
    except InvalidInputError:
        w, x, y, z = _IDENTITY.tolist()
    dt = 1.0 / params.sample_rate_hz
    out = []
    for ax, ay, az, mx, my, mz, gx, gy, gz, has_a, has_m in rows.tolist():
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = _rotation_entries(w, x, y, z)
        ex = ey = ez = 0.0
        if has_a:
            # err = a x g_b, where g_b = m_rot.T @ (0, 0, -1) = -(m20, m21, m22)
            # is the expected specific-force direction
            ex = az * m21 - ay * m22
            ey = ax * m22 - az * m20
            ez = ay * m20 - ax * m21
        if has_m:
            # h = m_rot @ m with its horizontal part turned onto north
            bn = math.hypot(m00 * mx + m01 * my + m02 * mz, m10 * mx + m11 * my + m12 * mz)
            bd = m20 * mx + m21 * my + m22 * mz
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
        w, x, y, z = w / n, x / n, y / n, z / n
        out.append((w, x, y, z))
    return np.array(out)
