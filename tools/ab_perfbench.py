#!/usr/bin/env python3
"""A/B comparison of two commits on the repository benchmark (perfbench).

    python3 tools/ab_perfbench.py BASE [CHANGE] [--workload W ...] [--pairs 10]
        [--smoke] [--work-dir DIR]
    python3 tools/ab_perfbench.py --selftest

Run from inside the git checkout. Each revision (CHANGE defaults to HEAD) is
extracted with `git archive REV | tar -x` into its own directory under the
work directory, so neither a worktree nor a stale .bench_build/ is shared;
each copy builds its own perfbench on a first smoke run. The tool then runs
`perfbench/run.py --trace 0` in ABBA-ordered pairs (pair i runs the base
first when i is even, the change first when it is odd), both sides of pair i
on seed i + 1, and prints per workload x end-to-end metric each side's
median and quartile spread (IQR), the change's wins, losses and ties over
the pairs, and one verdict:

  gain        over at least 10 pairs, the change wins at least 9/10 of them,
              its median is better than the base's by more than the base's
              IQR, and it failed no more operations than the base in all;
  regression  the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's IQR, relative to its median, exceeds the bound;
  no change   none of the above.

Metric names, `better`, `bound` and the run length (`run_seconds`) come from
BENCHMARK.json; --smoke runs perfbench's scaled-down inputs for 2 s instead,
as a quick check of the tool and both builds. Each workload's failed
operations (perfbench's `failed`), summed over the pairs, are printed per
side. The exit code is non-zero when any run fails or reports a failed
correctness check, and 0 otherwise, whatever the verdicts.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch_day", "stream_week", "serve_mixed")
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10
SMOKE_SECONDS = 2


# --- statistics (pure) -------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) by statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative(delta, base):
    """delta as a share of |base|; a non-zero delta on a zero base is inf."""
    if base != 0:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def pair_order(i):
    """ABBA: even pairs run the base first, odd pairs the change first."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def compare(base, change, better, bound, base_failed=0, change_failed=0):
    """Summary and verdict of one metric over matched pairs of runs.

    `base[i]` and `change[i]` come from pair i; `better` is "lower" or
    "higher"; `bound` is the metric's relative regression bound;
    `base_failed` and `change_failed` are each side's failed operations
    over all the pairs: a change that fails more is never a gain.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(base, change) if sign * (b - a) < 0)
    q1, base_median, q3 = quartiles(base)
    cq1, change_median, cq3 = quartiles(change)
    base_iqr = q3 - q1
    gain = sign * (change_median - base_median)  # > 0: the change is better
    pairs = len(base)
    if (pairs >= GAIN_MIN_PAIRS and wins >= GAIN_WIN_SHARE * pairs and gain > base_iqr
            and change_failed <= base_failed):
        verdict = "gain"
    elif relative(-gain, base_median) > bound:
        verdict = "regression"
    elif relative(base_iqr, base_median) > bound:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {"base_median": base_median, "base_iqr": base_iqr,
            "change_median": change_median, "change_iqr": cq3 - cq1,
            "delta": relative(change_median - base_median, base_median),
            "wins": wins, "losses": losses,
            "ties": pairs - wins - losses, "verdict": verdict}


# --- running -----------------------------------------------------------------

def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, work_dir):
    """The directory holding REV's files, extracted once by git archive."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    target = os.path.join(work_dir, commit[:12])
    if not os.path.exists(os.path.join(target, "perfbench", "run.py")):
        os.makedirs(target, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % rev)
    return commit, target


def run_bench(checkout, workload, seed, seconds, smoke):
    """Runs perfbench once; (metrics dict, failed operations), or None on
    any failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0 or result is None or result["correct"] is not True:
        log(done.stdout[-3000:] + done.stderr[-3000:])
        log("ab_perfbench: %s in %s failed (exit %d)" % (workload, checkout, done.returncode))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def print_table(workloads, metrics, values, failed):
    print("%-12s %-16s %14s %10s %14s %10s %7s %8s  %s" % (
        "workload", "metric", "base median", "base IQR", "change median", "change IQR",
        "delta", "W/L/T", "verdict"))
    for workload in workloads:
        base_failed, change_failed = failed[workload]["base"], failed[workload]["change"]
        for m in metrics:
            base = values[workload]["base"][m["name"]]
            change = values[workload]["change"][m["name"]]
            c = compare(base, change, m["better"], m["bound"], base_failed, change_failed)
            print("%-12s %-16s %14.6g %10.3g %14.6g %10.3g %+6.1f%% %8s  %s" % (
                workload, m["name"], c["base_median"], c["base_iqr"], c["change_median"],
                c["change_iqr"], 100.0 * c["delta"],
                "%d/%d/%d" % (c["wins"], c["losses"], c["ties"]), c["verdict"]))
        print("%-12s failed operations over all pairs: base %d, change %d" % (
            workload, base_failed, change_failed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="base revision (the parent)")
    parser.add_argument("change", nargs="?", default="HEAD", help="changed revision")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's scaled-down inputs, %d s runs" % SMOKE_SECONDS)
    parser.add_argument("--work-dir", help="where the revisions are extracted (reused)")
    parser.add_argument("--selftest", action="store_true", help="check the statistics and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.base is None:
        parser.error("BASE is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="ab_perfbench.")
    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        commit, checkout = extract(rev, work_dir)
        log("ab_perfbench: %s = %s in %s" % (side, commit, checkout))
        # The first run builds this copy's perfbench and checks it runs.
        if run_bench(checkout, workloads[0], 1, SMOKE_SECONDS, True) is None:
            return 1
        sides[side] = checkout

    values = {w: {side: {m["name"]: [] for m in metrics} for side in sides} for w in workloads}
    failed = {w: {side: 0 for side in sides} for w in workloads}
    for i in range(args.pairs):
        for workload in workloads:
            for side in pair_order(i):
                got = run_bench(sides[side], workload, i + 1, seconds, args.smoke)
                if got is None:
                    return 1
                got, failed_ops = got
                for m in metrics:
                    values[workload][side][m["name"]].append(got[m["name"]])
                failed[workload][side] += failed_ops
                log("pair %d %s %s: failed %d %s" % (
                    i, workload, side, failed_ops, json.dumps(got, sort_keys=True)))
    print_table(workloads, metrics, values, failed)
    return 0


# --- self-test ---------------------------------------------------------------

def selftest():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    base = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 100.0]
    expect(quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5),
           "quartiles use the exclusive method")
    expect(quartiles([7.0]) == (7.0, 7.0, 7.0), "one run is its own quartiles")
    expect([pair_order(i) for i in range(3)] == [("base", "change"), ("change", "base"),
                                                   ("base", "change")], "pairs alternate ABBA")

    same = compare(base, list(base), "lower", 0.25)
    expect((same["wins"], same["losses"], same["ties"], same["verdict"]) == (0, 0, 10, "no change"),
           "identical runs tie every pair and read no change")

    faster = compare(base, [v * 0.9 for v in base], "lower", 0.25)
    expect(faster["wins"] == 10 and faster["verdict"] == "gain",
           "10% faster in every pair, beyond the base IQR, is a gain")
    expect(abs(faster["delta"] + 0.1) < 1e-9, "delta is the relative change of the medians")

    expect(compare(base[:5], [v * 0.9 for v in base[:5]], "lower", 0.25)["verdict"] == "no change",
           "fewer than 10 pairs never read as a gain")
    eight = [v * 0.9 for v in base[:8]] + [v * 1.1 for v in base[8:]]
    expect(compare(base, eight, "lower", 0.25)["verdict"] == "no change",
           "8 wins of 10 is no gain")

    small = [v - 0.5 for v in base]
    small_c = compare(base, small, "lower", 0.25)
    expect(small_c["wins"] == 10 and small_c["verdict"] == "no change",
           "a win in every pair inside the base IQR is no gain")

    expect(compare(base, [v * 1.3 for v in base], "lower", 0.25)["verdict"] == "regression",
           "30% slower against a 0.25 bound is a regression")
    expect(compare(base, [v * 1.2 for v in base], "lower", 0.25)["verdict"] == "no change",
           "20% slower against a 0.25 bound is within the bound")
    expect(compare(base, [v * 0.7 for v in base], "higher", 0.25)["verdict"] == "regression",
           "30% less of a higher-is-better metric is a regression")
    expect(compare(base, [v * 1.1 for v in base], "higher", 0.25)["verdict"] == "gain",
           "10% more of a higher-is-better metric in every pair is a gain")
    expect(compare(base, [v * 1.1 for v in base], "higher", 0.25, 3, 3)["verdict"] == "gain",
           "a gain stands when the change fails as many operations as the base")
    expect(compare(base, [v * 1.1 for v in base], "higher", 0.25, 3, 4)["verdict"] == "no change",
           "a gain with more failed operations than the base is no change")
    expect(compare([1.0] * 10, [0.985] * 10, "higher", 0.01)["verdict"] == "regression",
           "a 1.5% drop of ok_share against its 0.01 bound is a regression")

    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 100.0, 100.0]
    wide_c = compare(wide, list(reversed(wide)), "lower", 0.25)
    expect(wide_c["verdict"] == "unresolved", "a base IQR over the bound is unresolved")

    zero = compare([0.0] * 4, [0.0] * 4, "lower", 0.25)
    expect(zero["verdict"] == "no change" and zero["delta"] == 0.0,
           "all-zero metrics read no change")
    expect(compare([0.0] * 4, [1.0] * 4, "lower", 0.25)["verdict"] == "regression",
           "a rise from zero is a regression")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
