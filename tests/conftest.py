"""Shared helpers for the test suite."""

import io
import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from flowhar.attitude import G0
from flowhar.model import init_params


def rot_x(deg):
    a = math.radians(deg)
    return np.array(
        [[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]]
    )


def rot_y(deg):
    a = math.radians(deg)
    return np.array(
        [[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]]
    )


def rot_z(deg):
    a = math.radians(deg)
    return np.array(
        [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]]
    )


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def quat_to_matrix(q):
    """Independent quaternion -> rotation matrix (textbook formula)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def static_stream(q, n, inclination_deg=60.0):
    """Noiseless static 9-axis stream for a sensor at attitude q (body->NED)."""
    m = quat_to_matrix(q)
    inc = math.radians(inclination_deg)
    b_ned = np.array([math.cos(inc), 0.0, math.sin(inc)])
    accel = m.T @ np.array([0.0, 0.0, -G0])
    mag = m.T @ b_ned
    row = np.concatenate([accel, mag, np.zeros(3)])
    return np.tile(row, (n, 1))


def attitude_error_deg(qa, qb):
    d = abs(float(np.dot(qa, qb)))
    return math.degrees(2.0 * math.acos(min(1.0, d)))


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at float64 array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def max_rel_err(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# Files that save_checkpoint did not write, each named for how it differs
# from a checkpoint of the same config.
BAD_CHECKPOINTS = (
    "text", "empty", "truncated", "npy", "no_meta", "meta_not_object", "no_seed",
    "config_field_missing", "config_field_unknown", "config_rejected", "meta_only",
    "param_missing", "param_unknown", "param_wrong_shape", "param_wrong_dtype",
    "no_conv_layers", "windowing_not_object", "windowing_key_missing",
    "windowing_stride_zero", "windowing_stride_float", "windowing_warmup_negative",
)


def write_bad_checkpoint(path, case, config):
    """Write the BAD_CHECKPOINTS variant `case` of a checkpoint of config."""
    meta = {"config": asdict(config), "seed": 0, "mode": "vL_only"}
    windowing = {"warmup": 1.0, "stride": 32, "max_gap": 10}
    arrays = {f"param:{name}": t.data for name, t in init_params(config, 0).items()}
    bias = arrays["param:mvf.b"]

    def savez(target):
        np.savez(target, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8), **arrays)

    if case == "text":
        path.write_bytes(b"hi")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "truncated":
        buf = io.BytesIO()
        savez(buf)
        path.write_bytes(buf.getvalue()[: len(buf.getvalue()) // 2])
    elif case == "npy":
        with open(path, "wb") as fh:  # np.save would append .npy to the name
            np.save(fh, bias)
    elif case == "no_meta":
        np.savez(path, **arrays)
    else:
        if case == "meta_not_object":
            meta = [1, 2]
        elif case == "no_seed":
            del meta["seed"]
        elif case == "config_field_missing":
            del meta["config"]["k"]
        elif case == "config_field_unknown":
            meta["config"]["width"] = 3
        elif case == "config_rejected":
            meta["config"]["k"] = 1
        elif case == "meta_only":
            arrays = {}
        elif case == "param_missing":
            del arrays["param:mvf.b"]
        elif case == "param_unknown":
            arrays["param:mvf.extra"] = bias
        elif case == "param_wrong_shape":
            arrays["param:mvf.b"] = bias[:-1]
        elif case == "param_wrong_dtype":
            arrays["param:mvf.b"] = bias.astype(np.float16)
        elif case == "no_conv_layers":
            # Config and parameters agree, but ModelConfig rejects the config.
            meta["config"]["conv_layers"] = 0
            unchecked = SimpleNamespace(**meta["config"])
            arrays = {f"param:{name}": t.data for name, t in init_params(unchecked, 0).items()}
        elif case == "windowing_not_object":
            meta["windowing"] = list(windowing.values())
        elif case == "windowing_key_missing":
            del windowing["max_gap"]
            meta["windowing"] = windowing
        elif case == "windowing_stride_zero":
            meta["windowing"] = {**windowing, "stride": 0}
        elif case == "windowing_stride_float":
            meta["windowing"] = {**windowing, "stride": 32.0}
        elif case == "windowing_warmup_negative":
            meta["windowing"] = {**windowing, "warmup": -1.0}
        else:
            raise ValueError(f"unknown case {case!r}")
        savez(path)
