#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark binary together with the repository's cpr_core library under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. The binary's last stdout line is the JSON result;
build output and progress go to stderr. Exits nonzero when the sources are
missing, the build fails, the run times out, or any correctness check fails.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s once built
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources not found (%s is missing); nothing to build" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            step = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        step = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout):
    """Runs the binary with the serving thread budget; returns (code, stdout)."""
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was stopped" % timeout)
    return proc.returncode, proc.stdout


def selftest(binary):
    failures = []
    code, _ = run_binary(binary, ["--selftest"], RUN_TIMEOUT_S)
    if code != 0:
        failures.append("binary self-tests failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        failures.append("BENCHMARK.json keys: %s" % sorted(spec))
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            name = m["name"]
            if not NAME_RE.match(name):
                failures.append("bad metric name %r" % name)
            if not UNIT_RE.match(m["unit"]):
                failures.append("bad unit for %s" % name)
            if m["better"] not in ("lower", "higher"):
                failures.append("bad direction for %s" % name)
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                failures.append("bad bound for %s" % name)
            if name in declared:
                failures.append("metric %s declared twice" % name)
            declared[name] = (kind, m["unit"], m["better"])
    for w in spec["workloads"]:
        if not NAME_RE.match(w["name"]) or set(w) != {"name", "why"}:
            failures.append("bad workload entry %r" % w)
    # The binary's metric tables must be the ones BENCHMARK.json declares.
    code, listing = run_binary(binary, ["--list-metrics"], RUN_TIMEOUT_S)
    listed = {}
    for line in listing.splitlines():
        kind, name, unit, better = line.split()
        listed[name] = (kind, unit, better)
    if code != 0 or listed != declared:
        failures.append("binary metrics differ from BENCHMARK.json: %s" %
                        sorted(set(listed.items()) ^ set(declared.items())))
    for f in failures:
        print("selftest FAILED: " + f, file=sys.stderr)
    print("selftest: " + ("all passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    # On SIGTERM, unwind so subprocess.run kills and reaps the binary.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (not args.workload or args.seconds is None):
        parser.error("--workload and --seconds are required")

    binary = build()
    if args.selftest:
        return selftest(binary)

    out = build_dir()
    workdir = os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", workdir, "--expected", os.path.join(HERE, "expected.tsv")]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    start = time.monotonic()
    try:
        code, stdout = run_binary(binary, command, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # also after a killed run
    sys.stdout.write(stdout)
    print("perfbench: %s seed %d ran %.1f s" % (args.workload, args.seed,
                                                time.monotonic() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
