#!/usr/bin/env python3
"""Validates a chrome://tracing JSON file written by --trace-out.

The trace surface is only useful if the emitted file actually loads in
chrome://tracing / Perfetto, so CI runs this after a `slimfast_cli
replay --trace-out` run and a durable `slimfast_cli serve --wal-dir
--trace-out` session, and fails on any malformation: not a JSON
object, missing or non-list "traceEvents", an event missing the
complete-event fields (name/ph/ts/dur/pid/tid), a phase other than "X"
(the writer only emits complete events), or negative timestamps or
durations. An empty traceEvents list also fails — a run that executed
ingest and relearn stages must have recorded spans.

Usage: check_trace.py TRACE.json [--min-events N]
"""

import json
import sys

REQUIRED_EVENT_FIELDS = {
    "name": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
}


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    min_events = 1
    if len(argv) == 4 and argv[2] == "--min-events":
        min_events = int(argv[3])
    elif len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {path}: {err}")

    if not isinstance(data, dict):
        fail(f"top level is not an object: {type(data).__name__}")
    if "traceEvents" not in data:
        fail("missing top-level 'traceEvents'")
    events = data["traceEvents"]
    if not isinstance(events, list):
        fail(f"'traceEvents' is not a list: {type(events).__name__}")
    if len(events) < min_events:
        fail(f"expected at least {min_events} events, got {len(events)}")

    names = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{i}] is not an object: {event!r}")
        for field, expected in REQUIRED_EVENT_FIELDS.items():
            if field not in event:
                fail(f"traceEvents[{i}] is missing '{field}': {event!r}")
            value = event[field]
            if isinstance(value, bool) or not isinstance(value, expected):
                fail(
                    f"traceEvents[{i}].{field} has wrong type "
                    f"{type(value).__name__}: {event!r}"
                )
        if event["ph"] != "X":
            fail(
                f"traceEvents[{i}].ph is '{event['ph']}'; the writer only "
                f"emits complete ('X') events"
            )
        if event["ts"] < 0 or event["dur"] < 0:
            fail(
                f"traceEvents[{i}] has negative ts/dur: ts={event['ts']} "
                f"dur={event['dur']}"
            )
        if not event["name"]:
            fail(f"traceEvents[{i}] has an empty name")
        names.add(event["name"])

    print(
        f"check_trace: OK: {path} ({len(events)} events, "
        f"{len(names)} distinct spans: {', '.join(sorted(names))})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
