#!/usr/bin/env python3
"""A/B of Google Benchmark rows between two build trees, run back to back.

  scripts/bench-ab.py record <parent-build> <change-build> <out.json> [reps=5]
      Runs the rows in ROWS from each tree's bench binaries, parent first,
      then change, binary by binary, with <reps> repetitions each, and
      writes both sides' Google Benchmark JSON into <out.json> as
      {"parent": {...}, "change": {...}}.

  scripts/bench-ab.py table <file.json>
      Prints the markdown table README.md carries: each row's median real
      time on both sides and the parent/change ratio.

The rows are the invocation path's copies: the cross-domain calls, the
same-domain call they are measured against, and the software-MMU reads and
writes that carry their frames.
"""
import json
import subprocess
import sys

ROWS = {
    "bench_proxy": ["BM_SameDomainCall", "BM_CrossDomainScalar", "BM_CrossDomainPayload/64",
                    "BM_CrossDomainPayload/512", "BM_CrossDomainPayload/4096"],
    "bench_invocation": ["BM_CrossDomainNullCall"],
    "bench_vmem": ["BM_ReadU64ThroughMmu", "BM_WriteBulkThroughMmu/64",
                   "BM_WriteBulkThroughMmu/512", "BM_WriteBulkThroughMmu/4096"],
}
ORDER = ["BM_SameDomainCall", "BM_CrossDomainNullCall", "BM_CrossDomainScalar",
         "BM_CrossDomainPayload/64", "BM_CrossDomainPayload/512", "BM_CrossDomainPayload/4096",
         "BM_ReadU64ThroughMmu", "BM_WriteBulkThroughMmu/64", "BM_WriteBulkThroughMmu/512",
         "BM_WriteBulkThroughMmu/4096"]


def run(build, binary, rows, reps):
    pattern = "^(" + "|".join(rows) + ")$"
    out = subprocess.run(
        [f"{build}/bench/{binary}", f"--benchmark_filter={pattern}",
         f"--benchmark_repetitions={reps}", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def record(parent, change, path, reps):
    doc = {"parent": None, "change": None}
    for binary, rows in ROWS.items():
        for side, build in (("parent", parent), ("change", change)):
            result = run(build, binary, rows, reps)
            if doc[side] is None:
                doc[side] = result
            else:
                doc[side]["benchmarks"] += result["benchmarks"]
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def medians(side):
    return {b["run_name"]: b["real_time"] for b in side["benchmarks"]
            if b.get("aggregate_name") == "median"}


def fmt(ns):
    return f"{ns:.1f}" if ns < 100 else f"{ns:.0f}"


def table(path):
    doc = json.load(open(path))
    parent, change = medians(doc["parent"]), medians(doc["change"])
    print("| row | parent ns | change ns | parent / change |")
    print("|-----|-----------|-----------|-----------------|")
    for row in ORDER:
        p, c = parent[row], change[row]
        print(f"| `{row}` | {fmt(p)} | {fmt(c)} | {p / c:.2f}x |")


def main(argv):
    if len(argv) >= 5 and argv[1] == "record":
        record(argv[2], argv[3], argv[4], int(argv[5]) if len(argv) > 5 else 5)
    elif len(argv) == 3 and argv[1] == "table":
        table(argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
