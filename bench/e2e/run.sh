#!/usr/bin/env bash
# End-to-end benchmark runner. Two modes:
#
#   bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run, the command BENCHMARK.json names: builds the harness into
#       build-e2e/ if needed, then runs one workload in this process. The
#       last stdout line is the result JSON.
#
#   bench/e2e/run.sh [--reps N] [--seed S] [--quick] [--trace 0|1] [--out DIR]
#       Builds once, then runs every workload N times (default 10), each
#       run in its own process with seeds S, S+1, ... (default S = 1, the
#       default seed; 1000003 is the held-out seed for claims). Prints the
#       median and quartile spread of every metric and flags each metric
#       whose spread exceeds its BENCHMARK.json bound. Results land in
#       DIR/results.jsonl (default build-e2e/runs/<timestamp>/).
#       --quick measures 2 s after 0.5 s of warm-up with a single set-up:
#       for smoke runs only, never for numbers anyone keeps.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"
bin="$build/para_e2e"

build_harness() {
  if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" || ! -f "$root/BENCHMARK.json" ]]; then
    echo "run.sh: $root is not a paramecium source tree" >&2
    exit 2
  fi
  mkdir -p "$build"
  (
    flock 9
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
      generator=()
      if command -v ninja > /dev/null; then
        generator=(-G Ninja)
      fi
      cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}" >&2
    fi
    cmake --build "$build" --target para_e2e -j "$(nproc)" >&2
  ) 9> "$build/.lock"
}

git_sha=$(git -C "$root" rev-parse --short=12 HEAD 2> /dev/null || echo n/a)

# --- one run -------------------------------------------------------------------
if [[ " $* " == *" --workload "* ]]; then
  build_harness
  args=("$@")
  workload="" seed="" trace=0
  for ((i = 0; i < ${#args[@]} - 1; i++)); do
    case "${args[i]}" in
      --workload) workload=${args[i + 1]} ;;
      --seed) seed=${args[i + 1]} ;;
      --trace) trace=${args[i + 1]} ;;
    esac
  done
  extra=(--git-sha "$git_sha")
  if [[ "$trace" != 0 ]]; then
    mkdir -p "$build/traces"
    extra+=(--trace-out "$build/traces/$workload-seed$seed.json")
  fi
  exec "$bin" "$@" "${extra[@]}"
fi

# --- repetitions -----------------------------------------------------------------
reps=10
seed=1
quick=0
trace=0
out="$build/runs/$(date +%Y%m%d-%H%M%S)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --reps) reps=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --quick) quick=1; shift ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) echo "run.sh: unknown flag $1" >&2; exit 1 ;;
  esac
done

build_harness
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")
flags=()
if [[ $quick == 1 ]]; then
  seconds=2
  flags=(--quick)
fi
mkdir -p "$out"
results="$out/results.jsonl"
: > "$results"
for workload in wire_mix rx_established rx_churn xdomain_calls; do
  for ((r = 0; r < reps; r++)); do
    s=$((seed + r))
    log="$out/$workload-seed$s-trace$trace.txt"
    extra=()
    if [[ "$trace" != 0 ]]; then
      mkdir -p "$build/traces"
      extra=(--trace-out "$build/traces/$workload-seed$s.json")
    fi
    status=0
    "$bin" --workload "$workload" --seed "$s" --seconds "$seconds" --trace "$trace" \
      --git-sha "$git_sha" "${flags[@]}" "${extra[@]}" > "$log" || status=$?
    python3 - "$workload" "$s" "$trace" "$status" "$log" >> "$results" << 'EOF'
import json, sys
workload, seed, trace, status, log = sys.argv[1:]
lines = open(log).read().splitlines()
result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
env = " ".join(l[2:] for l in lines if l.startswith(("# env:", "# pinned:")))
print(json.dumps({"workload": workload, "seed": int(seed), "trace": int(trace),
                  "exit": int(status), "env": env, "result": result}))
EOF
    echo "run.sh: $workload seed $s exit $status" >&2
  done
done
exec python3 "$here/summarize.py" --benchmark "$root/BENCHMARK.json" "$results"
