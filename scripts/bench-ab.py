#!/usr/bin/env python3
"""A/B of Google Benchmark rows between two build trees, run back to back.

  scripts/bench-ab.py [--rows SET] record <parent-build> <change-build> <out.json> [reps=5]
      Runs the rows of SET from each tree's bench binaries, binary by
      binary, in <reps> processes per side of one repetition each, the two
      sides alternating which goes first, and writes both sides' Google
      Benchmark JSON into <out.json> as {"parent": {...}, "change": {...}}.
      A row can settle at a different speed in each process (code and page
      placement), so the median across processes is what a side reads.

  scripts/bench-ab.py [--rows SET] table <file.json>
      Prints the markdown table README.md carries: each row of SET, its
      median real time on both sides (over every repetition the file holds)
      and the parent/change ratio.

The row sets (SET defaults to copies):
  copies  the invocation path's copies: the cross-domain calls, the
          same-domain call they are measured against, and the software-MMU
          reads and writes that carry their frames
          (bench-baseline/BENCH_copies.json);
  rx      the receive path: the stack's receive body on a 32-frame burst,
          and the kernel-placed stack component end to end over the
          simulated wire (bench-baseline/BENCH_rx_deliver.json);
  wire    the paper's placement experiment E9: a datagram over the
          simulated wire from a stack component in the kernel and from one
          in a user domain, at three payload sizes
          (bench-baseline/BENCH_wire_rings.json);
  jit     the SFI JIT's code: the 256-rule classifiers in both modes, a
          burst through the filter, the field-check loop, the empty
          program, and the frame check sequence an rx_* frame and a
          near-MTU frame carry (bench-baseline/BENCH_jit_stack.json).
"""
import json
import statistics
import subprocess
import sys

# Per set: (bench binary, row) in the order the table prints them.
ROW_SETS = {
    "copies": [("bench_proxy", "BM_SameDomainCall"),
               ("bench_invocation", "BM_CrossDomainNullCall"),
               ("bench_proxy", "BM_CrossDomainScalar"),
               ("bench_proxy", "BM_CrossDomainPayload/64"),
               ("bench_proxy", "BM_CrossDomainPayload/512"),
               ("bench_proxy", "BM_CrossDomainPayload/4096"),
               ("bench_vmem", "BM_ReadU64ThroughMmu"),
               ("bench_vmem", "BM_WriteBulkThroughMmu/64"),
               ("bench_vmem", "BM_WriteBulkThroughMmu/512"),
               ("bench_vmem", "BM_WriteBulkThroughMmu/4096")],
    "rx": [("bench_protocol_placement", "BM_StackRxBurst/32"),
           ("bench_protocol_placement", "BM_StackInKernel/64")],
    "wire": [("bench_protocol_placement", f"BM_StackIn{placement}/{size}")
             for placement in ("Kernel", "UserDomain") for size in (64, 512, 1280)],
    "jit": [("bench_filter", f"BM_Filter{row}/256")
            for row in ("Trusted", "Sandboxed", "TrustedRange", "SandboxedRange")] +
           [("bench_filter", "BM_FilterBatch/32"),
            ("bench_filter", "BM_FilterEngineFlowPressure/4096"),
            ("bench_sfi", "BM_SfiFieldCheckTrusted/256"),
            ("bench_sfi", "BM_SfiFieldCheckSandboxed/256"),
            ("bench_sfi", "BM_SfiNullTrusted"),
            ("bench_protocol_placement", "BM_Crc32/60"),
            ("bench_protocol_placement", "BM_Crc32/1326")],
}


def run(build, binary, rows, reps):
    pattern = "^(" + "|".join(rows) + ")$"
    out = subprocess.run(
        [f"{build}/bench/{binary}", f"--benchmark_filter={pattern}",
         f"--benchmark_repetitions={reps}", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def record(rows, parent, change, path, reps):
    by_binary = {}
    for binary, row in rows:
        by_binary.setdefault(binary, []).append(row)
    doc = {"parent": None, "change": None}
    sides = (("parent", parent), ("change", change))
    for binary, names in by_binary.items():
        for rep in range(reps):
            for side, build in sides if rep % 2 == 0 else sides[::-1]:
                result = run(build, binary, names, 1)
                if doc[side] is None:
                    doc[side] = result
                else:
                    doc[side]["benchmarks"] += result["benchmarks"]
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def medians(side):
    times = {}
    for b in side["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            times.setdefault(b["run_name"], []).append(b["real_time"])
    return {name: statistics.median(t) for name, t in times.items()}


def fmt(ns):
    return f"{ns:.1f}" if ns < 100 else f"{ns:.0f}"


def table(rows, path):
    doc = json.load(open(path))
    parent, change = medians(doc["parent"]), medians(doc["change"])
    print("| row | parent ns | change ns | parent / change |")
    print("|-----|-----------|-----------|-----------------|")
    for _, row in rows:
        p, c = parent[row], change[row]
        print(f"| `{row}` | {fmt(p)} | {fmt(c)} | {p / c:.2f}x |")


def main(argv):
    args = argv[1:]
    row_set = "copies"
    if args[:1] == ["--rows"] and len(args) > 1:
        row_set, args = args[1], args[2:]
    if row_set not in ROW_SETS:
        sys.exit(__doc__)
    if len(args) >= 4 and args[0] == "record":
        record(ROW_SETS[row_set], args[1], args[2], args[3], int(args[4]) if len(args) > 4 else 5)
    elif len(args) == 2 and args[0] == "table":
        table(ROW_SETS[row_set], args[1])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
