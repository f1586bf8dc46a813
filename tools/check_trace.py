#!/usr/bin/env python3
"""Validate a Chrome/Perfetto timeline written by a PM2_TRACE run.

Usage:
    check_trace.py TRACE_JSON [TRACE_JSON ...]

Each file must be an array-form Chrome trace in which:

  * every tid that carries an event has "thread_name" metadata;
  * every flow start ("s") has exactly one flow end ("f") with the same
    id, and every "f" exactly one "s";
  * every flow endpoint falls inside an "X" slice on its own track
    (ts <= endpoint <= ts + dur), so the viewer binds the arrow to a slice;
  * no "X" slice has a negative duration;
  * every async begin ("b") has a matching end ("e") with the same
    (cat, id, name), and no "e" lacks its "b".

Timestamps are compared in integer nanoseconds (the writer prints
microseconds with three decimals).  Prints one summary line per file and
exits 1 when any file fails.
"""

import bisect
import json
import sys
from collections import Counter, defaultdict


def ns(us: float) -> int:
    return round(us * 1000)


def check(path: str) -> list:
    errors = []
    with open(path, encoding="utf-8") as f:
        events = json.load(f)
    if not isinstance(events, list):
        return [f"{path}: not an array-form trace"]

    named = set()
    used = set()
    slices = defaultdict(list)  # (pid, tid) -> [(begin, end)]
    flow_ends = defaultdict(list)  # id -> [(phase, pid, tid, ts)]
    asyncs = Counter()
    for e in events:
        ph = e.get("ph")
        key = (e.get("pid"), e.get("tid"))
        if ph == "M":
            if e.get("name") == "thread_name":
                named.add(key)
            continue
        used.add(key)
        if ph == "X":
            dur = ns(e.get("dur", 0))
            if dur < 0:
                errors.append(f"negative dur on {e.get('name')!r} at "
                              f"ts={e.get('ts')}")
            begin = ns(e["ts"])
            slices[key].append((begin, begin + dur))
        elif ph in ("s", "f"):
            flow_ends[e.get("id")].append((ph, key, ns(e["ts"])))
        elif ph in ("b", "e"):
            asyncs[(e.get("cat"), e.get("id"), e.get("name"))] += (
                1 if ph == "b" else -1)

    for key in sorted(used - named, key=str):
        errors.append(f"tid {key[1]} (pid {key[0]}) has no thread_name")

    # Per track: slice starts sorted, with the running maximum of their
    # ends, so "some slice contains t" is one bisect.
    index = {}
    for key, spans in slices.items():
        spans.sort()
        starts = [b for b, _ in spans]
        reach, top = [], -1
        for _, end in spans:
            top = max(top, end)
            reach.append(top)
        index[key] = (starts, reach)

    def inside(key, t):
        if key not in index:
            return False
        starts, reach = index[key]
        i = bisect.bisect_right(starts, t) - 1
        return i >= 0 and reach[i] >= t

    arrows = 0
    for fid, ends in flow_ends.items():
        phases = Counter(ph for ph, _, _ in ends)
        if phases["s"] != 1 or phases["f"] != 1:
            errors.append(f"flow id {fid}: {phases['s']} 's' and "
                          f"{phases['f']} 'f' events (want 1 each)")
            continue
        arrows += 1
        for ph, key, t in ends:
            if not inside(key, t):
                errors.append(f"flow id {fid}: '{ph}' at {t} ns on tid "
                              f"{key[1]} is outside every X slice")

    for (cat, aid, name), balance in asyncs.items():
        if balance != 0:
            errors.append(f"async {name!r} (cat {cat!r}, id {aid}): "
                          f"{balance:+d} unmatched 'b' events")

    n_slices = sum(len(v) for v in slices.values())
    print(f"{path}: {len(events)} events, {len(named)} tracks, "
          f"{n_slices} slices, {arrows} flow arrows: "
          f"{'FAIL' if errors else 'ok'}")
    return [f"{path}: {msg}" for msg in errors]


def main() -> None:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    errors = []
    for path in sys.argv[1:]:
        errors += check(path)
    for msg in errors[:50]:
        print(f"  {msg}", file=sys.stderr)
    if len(errors) > 50:
        print(f"  ... {len(errors) - 50} more", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
