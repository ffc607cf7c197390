#!/usr/bin/env python3
"""End-to-end benchmark of the LDKE library.

Builds perfbench/ldke_perfbench (Release) from the repository's own src/
tree, runs one workload in a child process and prints its metrics:

    python3 perfbench/run.py --workload steady_2k --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics named in BENCHMARK.json;
--trace 1 makes the traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every correctness
check passed; 1 when one failed (the result line is still printed);
2 on a usage, build or environment error (no result line).

perfbench/README.md describes the workloads, the metrics and the noise
findings behind this design.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ldke_perfbench")
SPEC = os.path.join(HERE, "workloads", "dynamics_10k.json")
# Whole-run ceilings: the workload child must finish well inside the
# benchmark's own time limit, the build inside the first run's.
BUILD_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A usage, build or environment problem: no result line is printed."""


def run(cmd, timeout, stdout, stderr):
    """Runs cmd in its own process group and waits for it.  On timeout, or
    when this script is told to stop, the whole group (a build's compilers
    too) is killed and reaped.  Returns (returncode, stdout, stderr)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out: " + " ".join(cmd))
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return proc.returncode, out, err


def run_checked(cmd, timeout, log):
    """Runs cmd with output appended to log; raises BenchError on failure."""
    with open(log, "a") as out:
        returncode, _, _ = run(cmd, timeout, out, subprocess.STDOUT)
    if returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        raise BenchError("failed: %s\n%s" % (" ".join(cmd), tail))


def cached_build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures and builds the workload program; returns the build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, log)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "ldke_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, log)
    build_type = cached_build_type()
    # Timings from an unoptimized build are not worth recording.
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError("refusing to measure: %s is '%s', not Release"
                         % (BUILD_DIR, build_type))
    return build_type


def run_workload(args, mode, trace_out=None):
    """Runs the workload program; returns its JSON document."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--spec", SPEC]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    returncode, out, err = run(cmd, CHILD_TIMEOUT_S, subprocess.PIPE,
                               subprocess.PIPE)
    sys.stderr.write(err)
    if returncode != 0 or not out.strip():
        raise BenchError("workload %s exited with %d"
                         % (args.workload, returncode))
    return json.loads(out.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def end_to_end(doc):
    """The end-to-end metrics from a measure run: medians over its
    repetitions for the host timings, the exact simulated outcome for
    the rest."""
    fp = doc["fingerprint"]
    reps = doc["reps"]
    delivered = fp["delivered"]
    sim_s = fp["traffic_sim_s"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "delivered_per_host_s": statistics.median(
            delivered / r["traffic_s"] for r in reps),
        "host_s_per_sim_s": statistics.median(
            r["traffic_s"] / sim_s for r in reps),
        "peak_rss_mb": doc["peak_rss_mb"],
        "delivery_ratio": fp["delivery_ratio"],
        "on_time_ratio": fp["on_time_ratio"],
        "keys_per_node": fp["keys_per_node"],
        "setup_msgs_per_node": fp["setup_msgs_per_node"],
        "secured_link_fraction": fp["secured_link_fraction"],
    }


def print_report(doc, values, declared):
    """Human-readable lines ahead of the result line."""
    reps = doc["reps"]
    if isinstance(reps, list):
        for rep in reps:
            parts = " ".join("%.4f" % t for t in rep["traffic_parts_s"])
            print("  rep setup_s=%.4f traffic_s=%.4f %s%s" % (
                rep["setup_s"], rep["traffic_s"],
                "(%s) " % parts if parts else "",
                "; ".join(rep["failures"]) or "ok"))
    for failure in doc.get("failures", []):
        print("  check failed: %s" % failure)
    fp = doc["fingerprint"]
    if "trace_digests" in fp:
        print("  trace digests: %s" % " ".join(fp["trace_digests"]))
    for m in declared:
        print("  %-40s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        load_start = os.getloadavg()
        build_type = build()
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_build", "perfbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(
                trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
            doc = run_workload(args, "trace", trace_out)
            values = doc["per_layer"]
            declared = bench["per_layer"]
            attempted = doc["reps"]
        else:
            doc = run_workload(args, "measure")
            values = end_to_end(doc)
            declared = bench["end_to_end"]
            attempted = len(doc["reps"])
        load_end = os.getloadavg()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as e:
        print("perfbench: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print("perfbench: workload did not report %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "lanes": doc.get("lanes", 1),
        "load_avg_start": list(load_start),
        "load_avg_end": list(load_end),
        "build_type": build_type,
    }
    print(json.dumps({"host": host}))
    print_report(doc, values, declared)
    if args.trace:
        print("  trace written to %s" % trace_out)

    failed = int(doc["failed"])
    correct = failed == 0 and all(
        math.isfinite(float(values[m["name"]])) for m in declared)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
