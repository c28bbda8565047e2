#!/usr/bin/env python3
"""The s2s pipeline benchmark.

    python3 s2sbench/run.py --workload analyze|serve|live --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the s2sbench binary from the
sources under src/ into .bench_build/ (once; later runs reuse it), runs
one workload in a scratch directory under .bench_work/, and prints the
run's machine and input facts followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set. Exits non-zero, printing no result, if the build or the
run fails; a run whose correctness checks fail prints its result and
exits non-zero.

Every workload reports every end-to-end metric; "op" is the workload's
unit of work:

  metric        analyze               serve                live
  setup_s       deployment, campaigns, archives (median of 3 set-ups,
                5 for live; serve adds load, server start, fill pass;
                live the shard prefix and its load)
  peak_rss_mib  getrusage peak resident set of the run's process
  load_s        Dataset::load of      Dataset::load at     fresh Dataset::load
                the archive           start-up and reload  of the shard
  op_p50_ms     load + study set at   request, client-     refresh: seal()
                pool width            observed             returned to every
                min(4, nproc)                              verdict answered
  ops_per_s     loads + study sets    completed requests   refreshes per
                per second            per second           second of refresh

Time metrics are medians: over the run's loads and study sets, over
one-second windows (serve, live refresh), or over set-ups. Per-layer
metrics of a layer the workload does not exercise read 0.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "s2sbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"s2sbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources: run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "serve", "live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail(f"run failed with exit code {proc.returncode}")
    wanted = metric_names(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail(f"run is incorrect (exit code {proc.returncode})")


if __name__ == "__main__":
    main()
