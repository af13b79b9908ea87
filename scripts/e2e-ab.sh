#!/usr/bin/env bash
# Paired end-to-end A/B of two source trees on the BENCHMARK.json workloads.
#
#   scripts/e2e-ab.sh <parent-tree> <change-tree> [pairs=10] [seconds] [out-dir]
#
# For every workload and every pair i (0-based), runs each tree's
#   bench/e2e/run.sh --workload <w> --seed <1+i> --seconds <s> --trace 0
# back to back — the parent first on even pairs, the change first on odd
# ones, so drift in machine state does not favour either side. Each tree
# builds its own harness into <tree>/build-e2e/ on first use. `seconds`
# defaults to BENCHMARK.json's run_seconds.
#
# Every run is appended, in the shape of run.sh's results.jsonl, to
# <out-dir>/parent.jsonl or <out-dir>/change.jsonl (default out-dir:
# build-ab/<timestamp>/ in this tree; per-run logs land next to them).
# The script then prints
#   bench/e2e/summarize.py --benchmark BENCHMARK.json --against parent.jsonl change.jsonl
# followed by, per workload and end-to-end metric, how many pairs the change
# won (strictly better in the metric's BENCHMARK.json direction).
#
# Exits 1 if any run failed, printed no result, or disagreed with the oracle;
# otherwise with summarize.py's status (nonzero when it flags a metric).
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-tree> <change-tree> [pairs=10] [seconds] [out-dir]" >&2
  exit 2
fi

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")}
out=${5:-$root/build-ab/$(date +%Y%m%d-%H%M%S)}
mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")

mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

# run_one <side> <tree> <workload> <seed>: one run, appended to <side>.jsonl.
run_one() {
  local side=$1 tree=$2 workload=$3 seed=$4
  local log="$out/$side-$workload-seed$seed.txt"
  local status=0
  bash "$tree/bench/e2e/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 0 > "$log" || status=$?
  python3 - "$workload" "$seed" "$status" "$log" >> "$out/$side.jsonl" << 'EOF'
import json, sys
workload, seed, status, log = sys.argv[1:]
lines = open(log).read().splitlines()
result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
env = " ".join(l[2:] for l in lines if l.startswith(("# env:", "# pinned:")))
print(json.dumps({"workload": workload, "seed": int(seed), "trace": 0,
                  "exit": int(status), "env": env, "result": result}))
EOF
  echo "e2e-ab: $side $workload seed $seed exit $status" >&2
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((1 + i))
    if ((i % 2 == 0)); then
      run_one parent "$parent" "$workload" "$seed"
      run_one change "$change" "$workload" "$seed"
    else
      run_one change "$change" "$workload" "$seed"
      run_one parent "$parent" "$workload" "$seed"
    fi
  done
done

summary=0
python3 "$root/bench/e2e/summarize.py" --benchmark "$root/BENCHMARK.json" \
  --against "$out/parent.jsonl" "$out/change.jsonl" || summary=$?

python3 - "$root/BENCHMARK.json" "$out/parent.jsonl" "$out/change.jsonl" << 'EOF'
import json, sys
bench, parent_path, change_path = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]

def load(path):
    return {(r["workload"], r["seed"]): r for r in map(json.loads, open(path))}

parent, change = load(parent_path), load(change_path)
incorrect = 0
for side, runs in (("parent", parent), ("change", change)):
    for (workload, seed), run in sorted(runs.items()):
        result = run.get("result")
        if run["exit"] != 0 or result is None or not result["correct"] or result["failed"] != 0:
            print(f"INCORRECT: {side} {workload} seed {seed}")
            incorrect += 1

print("== pairs the change won")
for workload in sorted({w for w, _ in change}):
    keys = sorted(k for k in change if k[0] == workload and k in parent)
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = [(parent[k]["result"]["metrics"][name]["value"],
                   change[k]["result"]["metrics"][name]["value"]) for k in keys
                  if parent[k].get("result") and change[k].get("result")]
        wins = sum(1 for p, c in values if sign * (c - p) > 0)
        print(f"   {workload:16} {name:14} {wins:3d} / {len(values)}")
sys.exit(1 if incorrect else 0)
EOF
exit $summary
