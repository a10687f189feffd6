"""Share of op time per traced name, grouped by op kind and size.

    python3 perfbench/trace_report.py .perfbench_out/trace-control-seed1.jsonl

Reads the JSONL spans a traced run wrote.  For each group of ops with the
same kind and n (``control(n=256)``, ``pgd(n=128)``, ...) it prints the op
count, the mean op time, and for every traced name the inclusive busy time
of its outermost spans as a share of op time, with calls per op.
"""

import json
import re
import sys
from collections import defaultdict


def load(path):
    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    return [r for r in rows if "note" not in r], [r["note"] for r in rows if "note" in r]


def report(spans):
    by_id = {sp["id"]: sp for sp in spans}
    ops = {sp["id"]: sp for sp in spans if sp["name"] == "op"}
    group_of = {op_id: re.sub(r", s=[^)]*", "", sp["attrs"]["label"]) for op_id, sp in ops.items()}
    op_time = defaultdict(float)
    op_count = defaultdict(int)
    for op_id, sp in ops.items():
        op_time[group_of[op_id]] += sp["end"] - sp["start"]
        op_count[group_of[op_id]] += 1
    busy = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    for sp in spans:
        if sp["name"] == "op":
            continue
        node, nested = by_id.get(sp["parent"]), False
        while node is not None and node["name"] != "op":
            nested = nested or node["name"] == sp["name"]
            node = by_id.get(node["parent"])
        group = group_of[node["id"]]
        calls[group][sp["name"]] += 1
        if not nested:
            busy[group][sp["name"]] += sp["end"] - sp["start"]
        for hot, (count, hot_busy) in sp["agg"].items():
            calls[group][hot] += count
            busy[group][hot] += hot_busy
    lines = []
    for group in sorted(op_time):
        total = op_time[group]
        lines.append(f"{group}: {op_count[group]} ops, {total / op_count[group]:.4f} s per op")
        for name, value in sorted(busy[group].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:28s} {value / total:7.1%} of op time, "
                         f"{calls[group][name] / op_count[group]:10.1f} calls per op")
    return "\n".join(lines)


if __name__ == "__main__":
    spans, notes = load(sys.argv[1])
    for note in notes:
        print(f"note: {note}")
    print(report(spans))
