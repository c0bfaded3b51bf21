#!/usr/bin/env python3
"""Per-layer report from a traced benchmark run's span file.

    python3 perfbench/trace_report.py .bench_build/traces/apird-mix-seed1.json

Each span is one call from the benchmark into a layer of apir, named
"<layer>:<call>" (roots are "bench:setup", "bench:timed" and, for
apird-mix, "bench:replay"). A span's self time is its duration minus
the part of it its child spans cover. The report gives, per root, each
layer's self time and the share of the root's wall time that spans
cover; the rest is the benchmark's own glue.
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return json.load(f)["spans"]


def _union(intervals):
    """Total length covered by possibly overlapping intervals."""
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def analyse(spans):
    """{root name: {"wall_s", "covered_s", "layers": {layer: self_s}}}.

    Several roots of one name (never the case today) are summed.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"]:
            s = by_id[s["parent"]]
        return s

    out = {}
    for s in spans:
        dur = (s["end_us"] - s["start_us"]) * 1e-6
        kids = [(c["start_us"] * 1e-6, c["end_us"] * 1e-6)
                for c in children[s["id"]]]
        self_s = dur - _union(kids)
        root = root_of(s)
        r = out.setdefault(root["name"], {"wall_s": 0.0, "covered_s": 0.0,
                                          "layers": defaultdict(float)})
        if s is root:
            r["wall_s"] += dur
            r["covered_s"] += _union(kids)
        else:
            r["layers"][s["name"].split(":", 1)[0]] += self_s
    return out


def durations(spans, name):
    """Durations in seconds of every span called `name`."""
    return [(s["end_us"] - s["start_us"]) * 1e-6
            for s in spans if s["name"] == name]


def render(report):
    lines = []
    for root, r in sorted(report.items()):
        wall = r["wall_s"]
        cover = r["covered_s"] / wall if wall else 0.0
        lines.append(f"{root}: wall {wall:.4f} s, spans cover "
                     f"{100 * cover:.1f}%")
        for layer, t in sorted(r["layers"].items(), key=lambda kv: -kv[1]):
            share = 100 * t / wall if wall else 0.0
            lines.append(f"  {layer:<20} self {t:10.4f} s  {share:5.1f}%")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    print(render(analyse(load(argv[1]))))


if __name__ == "__main__":
    main(sys.argv)
