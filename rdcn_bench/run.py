#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 rdcn_bench/run.py --workload replay_1m --seed 42 --seconds 20 --trace 0

Run from the repository root.  The Release build goes to $CARGO_TARGET_DIR
(default .bench_build); the detailed result file, with its environment
record, goes to .bench_results/.  The binary's listing of every metric
and its last line, the one-line JSON result, pass through unchanged.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("replay_1m", "sweep_1k_cold", "serve_cached")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for step in (configure,
                 ["cmake", "--build", build_dir, "--parallel",
                  str(os.cpu_count() or 1)]):
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rdcn sources next to %s: nothing to build" % HERE)
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)

    os.makedirs(".bench_results", exist_ok=True)
    out = os.path.join(".bench_results", "%s_seed%d_trace%d.json" % (
        args.workload, args.seed, args.trace))
    binary = os.path.join(build_dir, "rdcn_bench")
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out, "--commit", source_id()])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
