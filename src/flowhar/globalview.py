"""Change of base from body coordinates to NED: the "C" in M&C.

The attitude sequence produced by the Mahony filter is turned into per-sample
rotation matrices, the three sensor vectors are re-expressed in NED, and the
13-value global view ``[a', m', g', qw, qx, qy, qz]`` is assembled.  The first
second of output (configurable) is discarded because the filter is still
converging there; the global view of a (t, 9) stream ``series`` is therefore
aligned with the local rows ``series[t - len(global_view):]``.
"""

from __future__ import annotations

import math

import numpy as np

from .attitude import mahony_run, rotation_from_quaternion
from .errors import DataError, InvalidInputError

LOCAL_CHANNELS = 9
GLOBAL_CHANNELS = 13


def transform_series(series, quats):
    """Rotate aligned (t, 9) local samples into NED and append the quaternions.

    series rows are [ax ay az mx my mz gx gy gz]; quats is the (t, 4) unit
    quaternion sequence.  Returns the (t, 13) global view, one row
    [a' m' g' qw qx qy qz] per sample.
    """
    series = np.asarray(series, dtype=float)
    quats = np.asarray(quats, dtype=float)
    if series.ndim != 2 or series.shape[1] != LOCAL_CHANNELS:
        raise InvalidInputError("series must be a (t, 9) array")
    if quats.shape != (series.shape[0], 4):
        raise InvalidInputError("quaternions must be a (t, 4) array as long as the series")
    rot = rotation_from_quaternion(quats)
    vectors = series.reshape(-1, 3, 3)  # (t, sensor triplet, xyz)
    rotated = np.einsum("tij,tsj->tsi", rot, vectors).reshape(-1, LOCAL_CHANNELS)
    return np.concatenate([rotated, quats], axis=1)


def mc_transform(series, params):
    """Run the Mahony filter over a (t, 9) local stream and re-express it in NED.

    Returns the (t - trim, 13) global view, trim = ceil(warmup_seconds *
    sample_rate_hz), so downstream windowing sees only settled attitude
    estimates; columns 9:13 are the attitude quaternions.  Its rows line up
    with the local rows series[t - trim:].
    """
    series = np.asarray(series, dtype=float)
    trim = math.ceil(params.warmup_seconds * params.sample_rate_hz)
    if series.shape[0] <= trim:
        raise DataError(
            f"stream of {series.shape[0]} samples is not longer than the "
            f"{trim}-sample warm-up"
        )
    quats = mahony_run(series, params)
    return transform_series(series, quats)[trim:]
