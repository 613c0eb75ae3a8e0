#!/usr/bin/env python3
"""Benchmark for flowhar, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  NAME is one of louo_c7, ingest_opp5, infer_opp5 (see
workloads.py and BENCHMARK.json).  Inputs are generated from the seed.

--trace 0 sets the inputs up three times (setup_s is the median), makes the
workload's untimed warm-up calls, then repeats its operation for S seconds
and prints the end-to-end metrics.  --trace 1 sets up once under the
tracer, then for S seconds alternates untraced and traced calls, so both
see the same machine conditions.  It prints every per-layer metric and the
tracing overhead (traced minus untraced median time per operation), writes
the spans to .perfbench_out/, and checks that traced outputs are
bit-identical to untraced ones and that every wrapped function is restored.

Output: human-readable lines, then as the last line one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every correctness check passed, 1 when one failed, 2 when the library or
its inputs cannot be loaded.  repeat.py runs every workload, traced and
untraced, over several seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("louo_c7", "ingest_opp5", "infer_opp5")
SETUP_REPEATS = 3
# Fixed before the interpreter starts, because glibc reads its malloc
# settings and OpenBLAS its thread count only once, at start-up.
# - One BLAS thread: the benchmark then runs on one CPU, and idle BLAS
#   threads do not spin on the other one.
# - Freed memory stays in the process (no trim, large blocks from the heap):
#   on a shared VM the cost of the page faults that returning and re-faulting
#   it causes swings by about 2x over minutes (predict_batch at the paper's
#   widths took 1.2 million faults for 12 batches and ran at 230 or 430 ms a
#   batch depending on the host); with these settings it took 8 faults.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit():
    """HEAD of the checkout's .git, read without running git (which could
    look above the checkout); 'unknown' when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "malloc": {k: v for k, v in RUN_ENV.items() if k.startswith("MALLOC_")},
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def import_library():
    """Import flowhar from this checkout's src/; None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowhar
    except ImportError:
        return None
    if Path(flowhar.__file__).resolve().parent.parent != src.resolve():
        return None
    return flowhar


@dataclass
class Call:
    traced: bool
    elapsed: float  # seconds, set-up and checks excluded
    per_op: float | None  # elapsed / operations; None when the call raised
    outcome: object  # workloads.Outcome


def call(wl, state, i, tracer=None):
    """One call of wl.op, timed, then checked outside the timing (and
    outside the tracer).  A FlowError counts as one failed operation."""
    from flowhar.errors import FlowError
    from workloads import Outcome

    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = wl.op(state, i)
        else:
            with tracer, tracer.span("bench.op"):
                t0 = time.perf_counter()
                result = wl.op(state, i)
        elapsed = time.perf_counter() - t0
    except FlowError as exc:
        elapsed = time.perf_counter() - t0
        return Call(tracer is not None, elapsed, None,
                    Outcome(1, 1, 0, -1, "", [f"operation {i}: {exc!r}"]))
    out = wl.inspect(state, i, result)
    return Call(tracer is not None, elapsed, elapsed / out.attempted, out)


def warm_up(wl, state):
    """Untimed, checked calls that let first-call costs (allocator growth,
    BLAS threads starting) settle before timing; their outputs are what
    the timed calls must reproduce bit for bit."""
    return [call(wl, state, i).outcome for i in range(wl.WARMUP_CALLS)]


def measure(wl, state, seconds, tracer=None):
    """Call wl.op for `seconds`: at least once, and no call is started that
    the median call so far says would end after the deadline.  With a
    tracer the calls come in pairs on the same input, untraced then traced,
    and there is at least one pair."""
    calls = []
    start = time.perf_counter()
    while len(calls) < (2 if tracer else 1) or (
            time.perf_counter() - start
            + statistics.median(c.elapsed for c in calls) <= seconds):
        i = len(calls)
        if tracer is None:
            calls.append(call(wl, state, i))
        else:
            calls.append(call(wl, state, i // 2, tracer if i % 2 else None))
    return calls


def fingerprint_problems(outcomes, seen):
    """Every call on the same input must give bit-identical outputs."""
    problems = []
    for out in outcomes:
        if not out.fingerprint:
            continue
        first = seen.setdefault(out.key, out.fingerprint)
        if first != out.fingerprint:
            problems.append(f"input {out.key}: outputs differ between calls")
    return problems


def summarize(name, calls):
    """The generic end-to-end metrics, and the workload's own named figures
    as (name, value, unit) lines."""
    from tracing import tail_percentile

    done = [c for c in calls if c.per_op is not None]
    per_op = [c.per_op for c in done]
    timed = sum(c.elapsed for c in done)
    items = sum(c.outcome.items for c in done)
    p50 = statistics.median(per_op) if per_op else float("nan")
    rate = items / timed if timed else float("nan")
    tail = tail_percentile(per_op)
    lines = []
    if name == "louo_c7":
        loss = calls[-1].outcome.values.get("louo_loss_last_epoch", float("nan"))
        lines += [("louo_s_per_subject", p50, f"s ({len(per_op)} run_louo calls)"),
                  ("louo_loss_last_epoch", loss, "loss_mvf1, mean over subjects")]
    elif name == "ingest_opp5":
        errs = [c.outcome.values["attitude_error_deg_p50"] for c in done]
        lines += [("ingest_rows_per_s", rate, "rows/s"),
                  ("ingest_file_ms_p50", 1e3 * p50, f"ms ({len(per_op)} files)"),
                  ("ingest_attitude_error_deg_p50", max(errs, default=float("nan")),
                   "deg, worst file")]
        if tail:
            lines.append(("ingest_file_ms_tail", 1e3 * tail[1], f"ms (p{tail[0]} of {tail[2]})"))
    else:
        lines += [("infer_windows_per_s", rate, "windows/s"),
                  ("infer_batch_ms_p50", 1e3 * p50, f"ms ({len(per_op)} batches)")]
        if tail:
            lines.append(("infer_batch_ms_tail", 1e3 * tail[1], f"ms (p{tail[0]} of {tail[2]})"))
    return lines, {"op_ms_p50": 1e3 * p50, "throughput_per_s": rate}


def run_one(args):
    if import_library() is None:
        print(f"flowhar not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=tmp_root))
    try:
        if args.trace:
            return traced_run(args, wl, workdir)
        return plain_run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def _fresh(workdir, k):
    d = workdir / f"setup{k}"
    d.mkdir()
    return d


def _result_line(problems, outcomes, metrics):
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append(f"metric {name} is {m['value']}")
            m["value"] = None
    for p in problems:
        print(f"CHECK FAILED: {p}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def plain_run(args, wl, workdir):
    setup_times = []
    for k in range(SETUP_REPEATS):
        state = None  # let the previous set-up's inputs go first
        d = _fresh(workdir, k)
        t0 = time.perf_counter()
        state = wl.setup(args.seed, d)
        setup_times.append(time.perf_counter() - t0)
    warm = warm_up(wl, state)
    calls = measure(wl, state, args.seconds)
    outcomes = warm + [c.outcome for c in calls]
    problems = [p for o in outcomes for p in o.problems]
    problems += fingerprint_problems(outcomes, {})
    lines, generic = summarize(wl.name, calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)
    failed = sum(o.failed for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    lines += [
        ("setup_s", setup_s, f"s (median of {SETUP_REPEATS})"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("failed_share", failed / attempted, f"({failed} of {attempted} operations)"),
    ]
    for name, value, unit in lines:
        print(f"{name} {value:.6g} {unit}")
    print("op_ms_each " + " ".join(f"{1e3 * c.per_op:.2f}" for c in calls if c.per_op))
    return _result_line(problems, outcomes, {
        "op_ms_p50": {"value": generic["op_ms_p50"], "unit": "ms"},
        "throughput_per_s": {"value": generic["throughput_per_s"], "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def traced_run(args, wl, workdir):
    from tracing import Tracer, layer_metrics, layer_table, originals_restored, snapshot_layers

    before = snapshot_layers()
    tracer = Tracer()
    with tracer, tracer.span("bench.setup"):
        state = wl.setup(args.seed, _fresh(workdir, 0))
    setup_spans = len(tracer.spans)
    warm = warm_up(wl, state)
    calls = measure(wl, state, args.seconds, tracer)
    plain = warm + [c.outcome for c in calls if not c.traced]
    traced = [c.outcome for c in calls if c.traced]
    problems = [] if originals_restored(before) else ["a traced function was not restored"]
    problems += [p for o in plain + traced for p in o.problems]
    seen = {}
    problems += fingerprint_problems(plain, seen)
    problems += [p.replace("between calls", "with tracing on and off")
                 for p in fingerprint_problems(traced, seen)]

    layers = layer_metrics(tracer.spans)

    def median_ms(traced):
        per_op = [c.per_op for c in calls if c.traced == traced and c.per_op is not None]
        return 1e3 * statistics.median(per_op) if per_op else float("nan")

    plain_ms, traced_ms = median_ms(False), median_ms(True)
    layers["trace.overhead_ms_per_op"] = (
        traced_ms - plain_ms, "ms",
        f"traced {traced_ms:.3f} - untraced {plain_ms:.3f}, medians per operation")
    layers["trace.overhead_share"] = ((traced_ms - plain_ms) / plain_ms, "ratio", "")
    for name, (value, unit, note) in layers.items():
        print(f"{name} {value:.6g} {unit} {note}".rstrip())
    print(f"spans {len(tracer.spans)} ({setup_spans} in set-up); per layer: calls, total s, self s")
    for name, (n, total, own) in layer_table(tracer.spans).items():
        print(f"  {name:32s} {n:6d} {total:10.4f} {own:10.4f}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return _result_line(problems, plain + traced, {
        name: {"value": value, "unit": unit} for name, (value, unit, _) in layers.items()})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **RUN_ENV})
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
