"""Acceptance suite: one gate per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Criterion 9 (full public-dataset sweeps) is optional and
skipped here because it needs the multi-hour PAMAP2/OPPORTUNITY corpora.
"""

import math
import time

import numpy as np
import pytest

from conftest import attitude_error_deg, fd_grad, max_rel_err, static_stream
from flowhar.attitude import G0, MahonyParams, mahony_run, quat_normalize
from flowhar.autodiff import Tensor, conv1d, lstm, softmax, softmax_cross_entropy
from flowhar.globalview import mc_transform, rotation_from_quaternion
from flowhar.harness import ExperimentConfig, run_louo
from flowhar.metrics import accuracy, weighted_f1
from flowhar.model import (
    Adam,
    ModelConfig,
    full_forward,
    init_params,
    params_by_prefix,
)
from flowhar.synth import SynthSpec, synth_generate, synth_population
from flowhar.trainer import TrainConfig, train_phase1, train_phase2
from flowhar.views import ViewSchema, gen_shuffle_matrix, shuffle_batch


def _gate(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_geometry():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_orth = 0.0
    worst_det = 0.0
    for _ in range(1000):
        q = rng.normal(size=4)
        m = rotation_from_quaternion(q / np.linalg.norm(q))
        worst_orth = max(worst_orth, np.abs(m.T @ m - np.eye(3)).max())
        worst_det = max(worst_det, abs(np.linalg.det(m) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_orth <= 1e-9 and worst_det <= 1e-9 and elapsed < 1.0
    _gate(1, ok, f"1000 quaternions: orthogonality {worst_orth:.2e}, "
                 f"det error {worst_det:.2e}, {elapsed:.2f}s")


def test_criterion_2_mahony_convergence():
    rng = np.random.default_rng(5)
    params = MahonyParams(sample_rate_hz=30.0)
    n = 60  # 2 s at 30 Hz

    q_true = quat_normalize(rng.normal(size=4))
    clean = static_stream(q_true, n)
    quats = mahony_run(clean, params)
    err_clean = attitude_error_deg(quats[-1], q_true)

    noisy = clean.copy()
    noisy[:, 0:3] += rng.normal(scale=0.05, size=(n, 3))
    noisy[:, 6:9] += rng.normal(scale=0.01, size=(n, 3))
    quats = mahony_run(noisy, params)
    err_noisy = attitude_error_deg(quats[-1], q_true)

    ok = err_clean <= 2.0 and err_noisy <= 5.0
    _gate(2, ok, f"static convergence in 2s: noiseless {err_clean:.3f} deg "
                 f"(<=2), noisy {err_noisy:.3f} deg (<=5)")


def test_criterion_3_mounting_invariance():
    start = time.perf_counter()
    base = dict(
        duration_s=10.0,
        rate_hz=30.0,
        segments=((3.0, (0.2, 0.0, 0.4)), (3.0, (-0.1, 0.3, 0.0))),
        lin_acc_amp_ned=(1.5, 0.0, 0.8),
        lin_acc_freq_hz=1.0,
    )
    half = math.radians(75.0) / 2  # mountings 75 deg apart (>= 30 required)
    mount = (math.cos(half), math.sin(half), 0.0, 0.0)
    rec_a, _ = synth_generate(SynthSpec(**base))
    rec_b, _ = synth_generate(SynthSpec(mounting=mount, **base))
    params = MahonyParams(sample_rate_hz=30.0)
    series_a, series_b = rec_a.sensors["imu0"], rec_b.sensors["imu0"]
    g_a = mc_transform(series_a, params)
    g_b = mc_transform(series_b, params)
    # The local rows that line up with the global view.
    local_a = series_a[len(series_a) - len(g_a):]
    local_b = series_b[len(series_b) - len(g_b):]
    global_rmse = np.sqrt(
        np.mean((g_a[:, 0:3] - g_b[:, 0:3]) ** 2, axis=0)
    ).max()
    local_rmse = np.sqrt(
        np.mean((local_a[:, 0:3] - local_b[:, 0:3]) ** 2, axis=0)
    ).max()
    elapsed = time.perf_counter() - start
    ok = global_rmse <= 1e-3 * G0 and local_rmse >= 0.5 * G0 and elapsed < 10.0
    _gate(3, ok, f"75-deg remount: global accel RMSE {global_rmse / G0:.2e} g0 "
                 f"(<=1e-3), worst local axis RMSE {local_rmse / G0:.2f} g0 "
                 f"(>=0.5), {elapsed:.1f}s")


def test_criterion_4_shuffle_suite():
    start = time.perf_counter()
    ok = True

    # column permutation property of generated matrices
    rng = np.random.default_rng(1)
    for b, n in ((2, 1), (5, 3), (16, 6)):
        r = gen_shuffle_matrix(b, n, rng)
        ok &= all(sorted(r[:, j]) == list(range(b)) for j in range(n))

    # worked batch-of-4 example with three single-channel views (0-based)
    data = np.zeros((4, 2, 3))
    for i in range(4):
        for ch in range(3):
            data[i, :, ch] = 100 * i + ch
    labels = np.arange(4)
    schema = ViewSchema(views=((0,), (1,), (2,)))
    r = np.array([[2, 3, 0], [0, 2, 1], [1, 0, 2], [3, 1, 3]])
    shuffled, view_labels = shuffle_batch(data, labels, schema, r)
    for i in range(4):
        for j in range(3):
            ok &= bool(np.array_equal(shuffled[i, :, j], data[r[i, j], :, j]))
            ok &= view_labels[i, j] == labels[r[i, j]]
    ok &= bool(np.array_equal(shuffled[0, 0, :], [200, 301, 2]))

    # conservation: each view's sample multiset is preserved
    r2 = gen_shuffle_matrix(4, 3, rng)
    mixed, _ = shuffle_batch(data, labels, schema, r2)
    for j in range(3):
        ok &= {a.tobytes() for a in data[:, :, [j]]} == {
            a.tobytes() for a in mixed[:, :, [j]]
        }

    # identity matrix round-trips
    ident = np.tile(np.arange(4)[:, None], (1, 3))
    same, same_labels = shuffle_batch(data, labels, schema, ident)
    ok &= bool(np.array_equal(same, data))
    ok &= bool(np.array_equal(same_labels, np.tile(labels[:, None], (1, 3))))

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _gate(4, ok, f"permutation/conservation/identity/worked-example checks, "
                 f"{elapsed:.2f}s")


def test_criterion_5_gradient_suite():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2)

    def check(build, shape, seed):
        nonlocal worst
        x0 = np.random.default_rng(seed).normal(size=shape)
        t = Tensor(x0.copy(), requires_grad=True)
        build(t).backward()
        numeric = fd_grad(lambda x: float(build(Tensor(x.copy())).data), x0)
        worst = max(worst, max_rel_err(t.grad, numeric))

    other = Tensor(np.random.default_rng(3).normal(size=(3, 4)))
    w = Tensor(np.random.default_rng(4).normal(size=(4, 2)))
    cw = Tensor(np.random.default_rng(5).normal(size=(3, 2, 4)))
    cb = Tensor(np.random.default_rng(6).normal(size=(4,)))
    sel = Tensor(np.random.default_rng(7).normal(size=(3, 5)))
    labels34 = np.array([1, 0, 2])
    # one LSTM layer, batch 2, 4 steps, 3 inputs, hidden 2; the probe weights
    # every step's output so each input is checked through the full BPTT
    lx = Tensor(np.random.default_rng(8).normal(size=(2, 4, 3)))
    lwx = Tensor(np.random.default_rng(9).normal(size=(3, 8)))
    lwh = Tensor(np.random.default_rng(10).normal(size=(2, 8)))
    lb = Tensor(np.random.default_rng(11).normal(size=(8,)))
    lprobe = Tensor(np.random.default_rng(12).normal(size=(2, 4, 2)))
    # (op, input shape, seed of the input)
    ops = [
        (lambda t: (t + 2.5).sum(), (3, 4), 10),
        (lambda t: (t * other).sum(), (3, 4), 11),
        (lambda t: (-(t - 1.0)).sum(), (3, 4), 12),
        (lambda t: (t @ w).sum(), (3, 4), 13),
        (lambda t: (t.reshape(6) * np.arange(6.0)).sum(), (2, 3), 14),
        (lambda t: (t[:, 1] * 3.0).sum(), (4, 3), 15),
        (lambda t: t.relu().sum(), (4, 4), 18),
        (lambda t: t.sigmoid().sum(), (4, 4), 19),
        (lambda t: t.tanh().sum(), (4, 4), 20),
        (lambda t: (softmax(t, axis=1) * sel).sum(), (3, 5), 21),
        (lambda t: softmax_cross_entropy(t, labels34), (3, 4), 22),
        (lambda t: conv1d(t, cw, cb).sum(), (2, 6, 2), 23),
        (lambda t: (lstm(t, lwx, lwh, lb) * lprobe).sum(), (2, 4, 3), 24),
        (lambda t: (lstm(lx, t, lwh, lb) * lprobe).sum(), (3, 8), 25),
        (lambda t: (lstm(lx, lwx, t, lb) * lprobe).sum(), (2, 8), 26),
        (lambda t: (lstm(lx, lwx, lwh, t) * lprobe).sum(), (8,), 27),
    ]
    for build, shape, seed in ops:
        check(build, shape, seed)

    # composed MVFNet forward at tiny shapes, sampled parameter entries
    cfg = ModelConfig(t=9, c=4, k=3, n=2, dtype="float64", conv_layers=2,
                      conv_filters=3, conv_kernel=3, lstm_layers=1,
                      lstm_hidden=4, voting_hidden=5)
    params = init_params(cfg, seed=7)
    x = rng.normal(size=(3, cfg.t, cfg.c))
    y = np.array([0, 2, 1])

    def loss_value():
        logits, grouped = full_forward(x, params, cfg)
        return softmax_cross_entropy(logits, y) + softmax_cross_entropy(
            grouped.reshape(3 * cfg.n, cfg.k),
            np.tile(y[:, None], (1, cfg.n)).reshape(-1),
        )

    loss = loss_value()
    for p in params.values():
        p.zero_grad()
    loss.backward()
    for name in ("backbone.conv0.w", "backbone.lstm0.wx", "backbone.lstm0.wh",
                 "mvf.w", "voting.fc0.w", "voting.fc2.b"):
        p = params[name]
        flat = p.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig, eps = flat[i], 1e-6
            flat[i] = orig + eps
            fp = float(loss_value().data)
            flat[i] = orig - eps
            fm = float(loss_value().data)
            flat[i] = orig
            # the loss is O(1), so central differences carry ~1e-10 absolute
            # roundoff; the floor keeps that noise from swamping the relative
            # error on near-zero gradient entries
            worst = max(worst, max_rel_err(p.grad.reshape(-1)[i],
                                           (fp - fm) / (2 * eps), floor=1e-5))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _gate(5, ok, f"all ops + composed forward FD max rel-err {worst:.2e} "
                 f"(<1e-4), {elapsed:.1f}s")


def test_criterion_6_freeze_suite():
    cfg = ModelConfig(t=9, c=4, k=2, n=2, dtype="float64", conv_layers=2,
                      conv_filters=3, conv_kernel=3, lstm_layers=1,
                      lstm_hidden=4, voting_hidden=5)
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 9, 4))
    labels = rng.integers(0, 2, size=8)
    schema = ViewSchema(views=((0, 1), (2, 3)))

    params = init_params(cfg, seed=1)
    frozen = {k: v.data.copy() for k, v in params.items() if k.startswith("voting.")}
    opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
    for step in range(10):
        train_phase1(data, labels, schema, params, cfg, opt,
                     np.random.default_rng(step))
    phase1_ok = all(np.array_equal(params[k].data, v) for k, v in frozen.items())

    frozen = {
        k: v.data.copy()
        for k, v in params.items()
        if k.startswith(("backbone.", "mvf."))
    }
    opt2 = Adam(params_by_prefix(params, "voting."))
    for _ in range(10):
        train_phase2(data, labels, params, cfg, opt2)
    phase2_ok = all(np.array_equal(params[k].data, v) for k, v in frozen.items())

    _gate(6, phase1_ok and phase2_ok,
          f"after 10 steps each: phase-1 voting frozen={phase1_ok}, "
          f"phase-2 backbone+MVF frozen={phase2_ok} (bit-identical)")


def test_criterion_7_cross_user_trend():
    start = time.perf_counter()
    base = dict(duration_s=12.0, rate_hz=30.0,
                accel_noise_std=0.05, gyro_noise_std=0.01, mag_noise_std=0.01)
    acts = [
        SynthSpec(label=0, **base),
        SynthSpec(label=1, lin_acc_amp_ned=(0.0, 0.0, 3.0), lin_acc_freq_hz=2.0, **base),
        SynthSpec(label=2, lin_acc_amp_ned=(3.0, 0.0, 0.0), lin_acc_freq_hz=2.0, **base),
        SynthSpec(label=3, lin_acc_amp_ned=(0.0, 3.0, 0.0), lin_acc_freq_hz=2.0, **base),
    ]
    recs = synth_population(3, acts, rng_seed=42, min_separation_deg=30.0,
                            sessions=5, random_heading="full")
    averages = {}
    for mode in ("vG_only", "vL_only", "flow"):
        cfg = ExperimentConfig(
            mode=mode, granularity="medium", win_len=64, stride=32,
            label_map={i: i for i in range(4)}, num_classes=4,
            train=TrainConfig(epochs=50, batch_size=64, lr=5e-4, seed=7),
            model_overrides=dict(conv_filters=16, lstm_hidden=32,
                                 voting_hidden=32),
        )
        report = run_louo(recs, cfg)
        assert all(r.error is None for r in report.rows)
        averages[mode] = report.average_accuracy
    elapsed = time.perf_counter() - start
    vg, vl, flow = averages["vG_only"], averages["vL_only"], averages["flow"]
    ok = (vg >= 0.95 and vl <= vg - 0.10 and flow >= vl + 0.10
          and flow >= vg - 0.02 and elapsed < 600.0)
    _gate(7, ok, f"3-user LOUO averages: vG={vg:.3f} (>=0.95), vL={vl:.3f} "
                 f"(<=vG-0.10), flow={flow:.3f} (>=vL+0.10 and >=vG-0.02), "
                 f"{elapsed:.0f}s")


def test_criterion_8_metrics_suite():
    ok = True
    cm = np.array([[3, 1], [2, 4]])
    ok &= abs(accuracy(cm) - 0.7) < 1e-12
    ok &= abs(weighted_f1(cm) - (0.4 * (2 / 3) + 0.6 * (8 / 11))) < 1e-12
    ok &= abs(accuracy(np.diag([5, 2, 9])) - 1.0) < 1e-12
    ok &= abs(weighted_f1(np.diag([5, 2, 9])) - 1.0) < 1e-12

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        k = rng.integers(2, 7)
        m = rng.integers(0, 12, size=(k, k))
        if m.sum() == 0:
            m[0, 0] = 1
        total = m.sum()
        brute = 0.0
        for i in range(k):
            tp = m[i, i]
            fp = m[:, i].sum() - tp
            fn = m[i, :].sum() - tp
            if 2 * tp + fp + fn > 0:
                brute += (m[i, :].sum() / total) * (2 * tp) / (2 * tp + fp + fn)
        worst = max(worst, abs(weighted_f1(m) - brute))
    ok &= worst < 1e-12
    _gate(8, ok, f"hand matrices exact, 200 random matrices vs brute force "
                 f"max diff {worst:.1e} (<1e-12)")


def test_criterion_9_full_dataset_sweeps():
    print("\nACCEPTANCE 9: SKIP - optional multi-hour PAMAP2/OPPORTUNITY "
          "sweeps (not gating; corpora not bundled)")
    pytest.skip("optional criterion: requires full public datasets")
