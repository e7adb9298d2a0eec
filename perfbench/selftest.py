#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Unit checks of the percentile and time-weighted-rate helpers
   (`perfbench unit`; a ramp over [2k, 16k] must offer 9k).
2. A smoke-sized pass of every workload, untraced and traced: the result
   line has exactly the contract's keys, and its metric names and units
   match BENCHMARK.json.
3. Each workload's correctness check fires: with one checked output
   corrupted the run reports correct=false and exits non-zero.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

FAULTS = {"batch_day": "batch_staged", "stream_week": "stream_digest",
          "serve_mixed": "serve_verdict"}
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect(run.build(), "benchmark builds")

    unit = subprocess.run([run.BINARY, "unit"], capture_output=True, text=True)
    print(unit.stdout, end="")
    expect(unit.returncode == 0, "unit checks of the measurement helpers")

    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stdout = bench(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None, tag + " exits 0 with a result line")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   tag + " result has exactly the contract's keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, tag + " is correct")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, tag + " prints every %s metric with its unit" % section)
            if trace == 0:
                expect(all(v["value"] != 0 for v in result["metrics"].values()),
                       tag + " end-to-end metrics are non-zero")
                expect("checks:" in stdout, tag + " prints its named metrics and checks")

    for workload, fault in FAULTS.items():
        code, result, _ = bench(workload, 0, "--inject-fault", fault)
        expect(code != 0 and result is not None and result["correct"] is False,
               "%s correctness check fires on %s" % (workload, fault))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("batch_day", 0, cwd=bare)
    expect(code != 0 and result is None, "without the program's sources it fails, printing no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
