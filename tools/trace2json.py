#!/usr/bin/env python3
"""Convert a BTRC binary trace (obs/trace.h) to Chrome trace_event JSON.

Usage: trace2json.py TRACE.btrc [OUT.json]

The output loads in chrome://tracing and in Perfetto (ui.perfetto.dev).
TRACE_SCOPE records become complete ("X") events of pid 1 "wall clock",
one row per recording thread, timed against the recorder's steady-clock
epoch.

Timestamps are nanoseconds in the file; trace_event wants microseconds,
so values are divided by 1e3 (fractional microseconds are preserved —
both viewers accept floats).

File layout (little-endian, written by obs::TraceRecorder::write):

  char[4]  magic "BTRC"
  u32      version (1)
  u64      string_count
  u64      record_count
  repeated string table entries: u32 length + raw bytes
  repeated 32-byte records:
      i64 ts_ns, i64 dur_ns, u32 name_id, u32 tid, u8 type, u8 pad[7]

type 0 = wall-clock scope, the only type written; any other is an error.
"""

import json
import struct
import sys

RECORD = struct.Struct("<qqIIB7x")
assert RECORD.size == 32


def parse(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"BTRC":
        raise ValueError(f"{path}: not a BTRC trace (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported BTRC version {version}")
    string_count, record_count = struct.unpack_from("<QQ", data, 8)
    offset = 24

    names = []
    for _ in range(string_count):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        names.append(data[offset:offset + length].decode("utf-8"))
        offset += length

    expected = offset + record_count * RECORD.size
    if len(data) < expected:
        raise ValueError(
            f"{path}: truncated ({len(data)} bytes, expected {expected})")

    records = [
        RECORD.unpack_from(data, offset + i * RECORD.size)
        for i in range(record_count)
    ]
    return names, records


def to_trace_events(names, records):
    events = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "wall clock (TRACE_SCOPE)"}},
    ]
    for ts_ns, dur_ns, name_id, tid, rtype in records:
        if rtype != 0:
            raise ValueError(f"unknown BTRC record type {rtype}")
        name = names[name_id] if name_id < len(names) else f"name#{name_id}"
        events.append({
            "ph": "X", "pid": 1, "tid": tid, "name": name,
            "ts": ts_ns / 1e3, "dur": dur_ns / 1e3,
        })
    return events


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    names, records = parse(argv[1])
    doc = {"traceEvents": to_trace_events(names, records),
           "displayTimeUnit": "ms"}
    out = argv[2] if len(argv) == 3 else None
    if out:
        with open(out, "w") as f:
            json.dump(doc, f)
        print(f"{out}: {len(records)} records, {len(names)} names")
    else:
        json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
