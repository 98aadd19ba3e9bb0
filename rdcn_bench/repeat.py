#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 rdcn_bench/repeat.py --runs 10 [--workloads replay_1m,...]
                                 [--trace 0|1] [--write rdcn_bench/results.json]

For every workload, run i uses seed 42 + i (run 0 is the default seed).
Each metric is summarised over the runs as median, first and third
quartile (statistics.quantiles, n=4) and spread = (q3 - q1) / |median|; the
spread is checked against the metric's bound in BENCHMARK.json.  With
--write, the summary and the runs' environment record are saved as the
committed reference numbers.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    detail = os.path.join(ROOT, ".bench_results", "%s_seed%d_trace%d.json" %
                          (workload, seed, trace))
    with open(detail) as f:
        return result, json.load(f), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", help="save the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    expected = {m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    summary = {"runs_per_workload": args.runs, "seeds": [
        42 + i for i in range(args.runs)], "run_seconds": args.seconds,
        "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values, walls, env = {}, [], None
        for i in range(args.runs):
            result, detail, wall = run_once(workload, 42 + i, args.seconds,
                                            args.trace)
            walls.append(wall)
            env = detail["env"]
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d reported failures" %
                                 (workload, 42 + i))
            if set(result["metrics"]) != expected:
                raise SystemExit("%s result line metrics differ from "
                                 "BENCHMARK.json: %s" % (
                                     workload,
                                     sorted(set(result["metrics"]) ^ expected)))
            # The detail file also holds each workload's own metric names.
            for name, m in detail["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        rows = {}
        print("== %s (%d runs, wall per run %.1f s max)" %
              (workload, args.runs, max(walls)))
        for name, (unit, vals) in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady = steady and spread <= bound
                flag = "  bound %.2f %s" % (bound, "ok" if ok else "WIDE")
            print("  %-34s %14.6g %-6s spread %.3f%s" %
                  (name, med, unit, spread, flag))
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "n": len(vals)}
        env = {k: v for k, v in env.items() if k not in ("seed",)}
        summary["workloads"][workload] = {"env": env, "metrics": rows,
                                          "max_wall_s": max(walls)}
    if args.write:
        with open(args.write, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
