#!/usr/bin/env python3
"""Build and run the FPSA stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload vgg17-serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The script builds perfbench/ (which builds the library from ../src) into
.bench_build/perfbench, runs the benchmark binary, and prints two JSON
lines: first the machine and toolchain fingerprint with explanatory
info, then the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (and a Chrome trace is written to
.bench_build/traces).  A per-layer metric of a layer the workload does
not exercise reads 0.  The exit code is not 0 when an output check
failed, the build failed, or the source tree is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("vgg17-serve", "lenet-fleet", "zoo-compile")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step, its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no FPSA source tree next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    return run_quiet(["cmake", "--build", BUILD, "--target", target,
                      "-j", jobs])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_tests"):
            return 3
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              cwd=BUILD).returncode
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build("perfbench"):
        log("build failed")
        return 3
    log("built in %.1f s" % (time.monotonic() - started))
    os.makedirs(TRACES, exist_ok=True)

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACES, "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark binary exited with code %d" % proc.returncode)
        return 4
    raw = json.loads(lines[-1])

    metrics = {}
    for m in expected_metrics(args.trace):
        name, unit = m["name"], m["unit"]
        if name in raw["metrics"]:
            got = raw["metrics"].pop(name)
            if got["unit"] != unit:
                log("metric %s measured in %s, declared in %s"
                    % (name, got["unit"], unit))
                return 5
            metrics[name] = {"value": got["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            log("end-to-end metric %s was not measured" % name)
            return 5

    print(json.dumps({"fingerprint": raw["fingerprint"],
                      "info": raw["info"],
                      "failures": raw["failures"],
                      "unlisted_metrics": raw["metrics"]}))
    correct = bool(raw["correct"]) and not raw["failures"]
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}), flush=True)
    if not correct:
        for failure in raw["failures"]:
            log("check failed:", failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
