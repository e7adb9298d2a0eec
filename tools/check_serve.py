#!/usr/bin/env python3
"""Validate the report written by bench/loadgen (the serving gates).

Checks (see docs/SERVING.md):
  - the file is the JsonReporter shape (``benchmark: "serve"`` with an
    ``entries`` list);
  - both gate stages, ``serve/overload`` and ``serve/stale_probe``, are
    present, each reporting offered_qps, the sent/received/ok/stale/rejected
    outcome counts, and the p50/p99/p999 latency percentiles;
  - no stage lost responses (received == sent: every request got an
    explicit answer, shed or not);
  - the ``serve/overload`` stage itself shows explicit shedding — a
    non-zero rejected count.  Overload must surface as loud kRejected
    answers, never as silently dropped or endlessly queued requests; the
    stale probe's kStale answers are a separate property and do not
    satisfy this check;
  - every ``serve/stale_probe`` answer is kStale;
  - the serve/metrics_summary entry agrees with the stages: the server's
    own rejected_total/stale_total counters corroborate the shedding the
    client observed.

Exits non-zero with a message on the first violation.

Usage: check_serve.py REPORT.json
"""

import argparse
import json
import sys

STAGE_FIELDS = (
    "offered_qps",
    "sent",
    "received",
    "ok",
    "stale",
    "rejected",
    "p50_us",
    "p99_us",
    "p999_us",
)


def fail(message):
    print(f"check_serve: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    args = parser.parse_args()

    try:
        with open(args.path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.path}: {e}")

    if doc.get("benchmark") != "serve":
        fail(f'benchmark is {doc.get("benchmark")!r}, expected "serve"')
    entries = doc.get("entries")
    if not isinstance(entries, list):
        fail("entries is missing or not a list")

    stages = []
    summary = None
    for entry in entries:
        name = entry.get("name", "")
        if name == "serve/metrics_summary":
            summary = entry
        elif name.startswith("serve/"):
            stages.append(entry)

    names = sorted(stage.get("name") for stage in stages)
    if names != ["serve/overload", "serve/stale_probe"]:
        fail(f"stages are {names}, expected serve/overload and serve/stale_probe")

    shed_rejected = 0
    shed_stale = 0
    for stage in stages:
        name = stage["name"]
        for field in STAGE_FIELDS:
            if field not in stage:
                fail(f"{name}: missing field {field!r}")
            if not isinstance(stage[field], (int, float)):
                fail(f"{name}: field {field!r} is not numeric")
        if stage["received"] != stage["sent"]:
            fail(
                f'{name}: lost responses ({stage["received"]:.0f} received '
                f'of {stage["sent"]:.0f} sent)'
            )
        if stage["ok"] + stage["stale"] + stage["rejected"] != stage["received"]:
            fail(f"{name}: ok+stale+rejected does not add up to received")
        if not (stage["p50_us"] <= stage["p99_us"] <= stage["p999_us"]):
            fail(f"{name}: percentiles are not ordered (p50 <= p99 <= p999)")
        shed_rejected += stage["rejected"]
        shed_stale += stage["stale"]

    overload = next(s for s in stages if s["name"] == "serve/overload")
    if overload["rejected"] == 0:
        fail(
            f'serve/overload answered {overload["ok"]:.0f} ok and 0 rejected '
            "— the shedding path was not exercised"
        )
    probe = next(s for s in stages if s["name"] == "serve/stale_probe")
    if probe["received"] == 0 or probe["stale"] != probe["received"]:
        fail(
            f'serve/stale_probe answered {probe["stale"]:.0f} of '
            f'{probe["received"]:.0f} kStale after the staleness SLO'
        )

    if summary is None:
        fail("serve/metrics_summary entry is missing")
    for field in ("accepted_total", "rejected_total", "stale_total",
                  "responses_total", "snapshots_published"):
        if field not in summary:
            fail(f"serve/metrics_summary: missing field {field!r}")
    # The server's own counters must corroborate the client-observed
    # shedding. Totals can exceed the stage sums (other connections, e.g.
    # an operator poking the port), never fall short.
    if summary["rejected_total"] < shed_rejected:
        fail(
            f'server counted {summary["rejected_total"]:.0f} rejected but '
            f"clients saw {shed_rejected:.0f}"
        )
    if summary["stale_total"] < shed_stale:
        fail(
            f'server counted {summary["stale_total"]:.0f} stale but '
            f"clients saw {shed_stale:.0f}"
        )
    if summary["snapshots_published"] < 1:
        fail("no snapshots were published under load")

    print(
        "check_serve: ok — "
        f'overload shed {overload["rejected"]:.0f} of '
        f'{overload["received"]:.0f}, '
        f"{shed_rejected:.0f} rejected + {shed_stale:.0f} stale in all, "
        f'{summary["snapshots_published"]:.0f} snapshots published under load'
    )


if __name__ == "__main__":
    main()
