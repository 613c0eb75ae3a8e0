"""Change of base from body coordinates to NED: the "C" in M&C.

The attitude sequence produced by the Mahony filter is turned into per-sample
rotation matrices, the three sensor vectors are re-expressed in NED, and the
13-value global view ``[a', m', g', qw, qx, qy, qz]`` is assembled.  The first
second of output (configurable) is discarded because the filter is still
converging there; the matching prefix of the local stream is discarded too so
the two stay time-aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attitude import mahony_run, rotation_from_quaternion
from .errors import InsufficientDataError, InvalidInputError

LOCAL_CHANNELS = 9
GLOBAL_CHANNELS = 13


def transform_sample(sample, q):
    """Rotate one 9-axis local sample into NED and append the quaternion.

    sample: length-9 array [ax ay az mx my mz gx gy gz].
    Returns the 13-value global view [a' m' g' qw qx qy qz].
    """
    sample = np.asarray(sample, dtype=float)
    if sample.shape != (LOCAL_CHANNELS,):
        raise InvalidInputError("sample must have 9 channels")
    m = rotation_from_quaternion(q)
    out = np.empty(GLOBAL_CHANNELS)
    out[0:3] = m @ sample[0:3]
    out[3:6] = m @ sample[3:6]
    out[6:9] = m @ sample[6:9]
    out[9:13] = q
    return out


def transform_series(series, quats):
    """Vectorized transform_sample over aligned (t, 9) and (t, 4) arrays."""
    series = np.asarray(series, dtype=float)
    quats = np.asarray(quats, dtype=float)
    if series.shape[0] != quats.shape[0]:
        raise InvalidInputError("series and quaternion sequence lengths differ")
    t = series.shape[0]
    out = np.empty((t, GLOBAL_CHANNELS))
    for i in range(t):
        out[i] = transform_sample(series[i], quats[i])
    return out


@dataclass(frozen=True)
class McResult:
    """Aligned local/global streams after warm-up trimming."""

    local: np.ndarray  # (t', 9)
    global_: np.ndarray  # (t', 13)
    quats: np.ndarray  # (t', 4)
    trimmed: int  # samples dropped from the front


def mc_transform(series, params):
    """Run the Mahony filter over a local stream and re-express it in NED.

    Drops the first ceil(warmup_seconds * sample_rate_hz) samples from both
    the local and the global stream so downstream windowing sees only settled
    attitude estimates.
    """
    series = np.asarray(series, dtype=float)
    trim = math.ceil(params.warmup_seconds * params.sample_rate_hz)
    if series.shape[0] <= trim:
        raise InsufficientDataError(
            f"stream of {series.shape[0]} samples is not longer than the "
            f"{trim}-sample warm-up"
        )
    quats = mahony_run(series, params)
    global_ = transform_series(series, quats)
    return McResult(
        local=series[trim:].copy(),
        global_=global_[trim:],
        quats=quats[trim:],
        trimmed=trim,
    )
