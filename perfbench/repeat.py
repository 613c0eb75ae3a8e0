#!/usr/bin/env python3
"""Run the benchmark for several workloads, seeds and trace modes.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 0|1-10|1,4]
                                [--seconds S] [--trace 0,1] [--out FILE]

With no options it runs every workload once (seed 0), untraced and then
traced: the one command that prints every end-to-end and per-layer metric
and runs every correctness check.  Each run is its own process
(perfbench/run.py), one after another.  With several seeds it also prints,
per workload and metric, the median, the quartiles and the spread
(quartile distance over median) that the benchmark's bounds are judged
against.  Exits non-zero if any run fails a check or does not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("louo_c7", "ingest_opp5", "infer_opp5")
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=HERE.parent)
    except subprocess.TimeoutExpired:
        return None, [], f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, lines, f"exit code {proc.returncode}, no result line"
    if proc.returncode != 0 or not result["correct"]:
        return result, lines[:-1], f"exit code {proc.returncode}, correct={result['correct']}"
    return result, lines[:-1], None


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(NAMES))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", default="0,1")
    parser.add_argument("--out", help="write every result and the spreads here as JSON")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(NAMES)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    seeds = parse_seeds(args.seeds)
    traces = [int(t) for t in args.trace.split(",")]

    runs, failures, env = [], [], None
    for workload in workloads:
        for trace in traces:
            for seed in seeds:
                print(f"== {workload} --seed {seed} --trace {trace}", flush=True)
                result, lines, error = run(workload, seed, args.seconds, trace)
                for line in lines:
                    if line.startswith("env "):
                        env = json.loads(line[4:])
                    elif not line.startswith("op_ms_each"):
                        print("   " + line)
                if error:
                    failures.append(f"{workload} seed {seed} trace {trace}: {error}")
                    print(f"   FAILED: {error}", flush=True)
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "seconds": args.seconds, "error": error, "result": result})

    summary = {}
    for workload in workloads:
        for trace in traces:
            done = [r["result"] for r in runs
                    if r["workload"] == workload and r["trace"] == trace and r["result"]]
            names = done[0]["metrics"] if done else {}
            for name, metric in names.items():
                s = spread([d["metrics"][name]["value"] for d in done])
                summary.setdefault(workload, {})[name] = dict(s, unit=metric["unit"])
                if trace == 0 and len(done) > 1:
                    print(f"{workload} {name}: median {s['median']:.6g} {metric['unit']} "
                          f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                          f"({len(done)} seeds)")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seeds": seeds, "seconds": args.seconds, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    for f in failures:
        print(f"FAILED: {f}")
    print("all runs correct" if not failures else f"{len(failures)} runs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
