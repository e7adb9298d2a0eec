#!/usr/bin/env python3
"""Builds and runs the SMASH benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_day|stream_week|serve_mixed|all \
        --seed N --seconds S --trace 0|1 [--smoke] [--inject-fault NAME]

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into .bench_build/ on first use. Human-readable lines go
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1). The
exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("batch_day", "stream_week", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(args, workload):
    """Runs one workload; returns its report dict, or None on failure."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s timed out" % workload)
        return None
    if proc.returncode != 0 or not out.strip():
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(out.strip().splitlines()[-1])


def select_metrics(report, spec, trace):
    """The BENCHMARK.json metric set of this mode, checked against the report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = report["layer"] if trace else report["e2e"]
    known = {m["name"]: m["unit"] for m in wanted}
    for name, m in emitted.items():
        if known.get(name) != m["unit"]:
            raise ValueError("metric %s (%s) is not in BENCHMARK.json with that unit"
                             % (name, m["unit"]))
    metrics = {}
    for m in wanted:
        if m["name"] in emitted:
            metrics[m["name"]] = {"value": emitted[m["name"]]["value"], "unit": m["unit"]}
        elif trace:
            # A layer this workload does not exercise.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise ValueError("end-to-end metric %s missing" % m["name"])
    return metrics


def describe(report, commit):
    header = dict(report["header"], commit=commit)
    print("# %s: %s" % (report["workload"], " ".join("%s=%s" % kv for kv in sorted(header.items()))))
    for section in ("e2e", "named"):
        for name, m in report[section].items():
            print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  checks: %d passed, %d failed" % (report["checks_passed"], len(report["failed_checks"])))
    for check in report["failed_checks"]:
        print("  FAILED %s: %s" % (check["name"], check["detail"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="scaled-down inputs")
    parser.add_argument("--inject-fault", default="", help="corrupt one checked output")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        return 2

    commit = git_commit()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        report = run_binary(args, workload)
        if report is None:
            return 1
        describe(report, commit)
        try:
            selected = select_metrics(report, spec, args.trace)
        except ValueError as e:
            log("perfbench: %s" % e)
            return 1
        prefix = "" if len(workloads) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in selected.items()})
        correct = correct and not report["failed_checks"]
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
