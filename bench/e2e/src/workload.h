// The workload interface the harness drives. A Testbed is one complete
// set-up of a workload — machine, nucleus, components, inputs — and runs
// closed-loop items: the harness stages an item (Prepare), times it
// (Execute), then checks its outcome against the oracle (Check), and only
// then offers the next one.
#ifndef PARAMECIUM_BENCH_E2E_SRC_WORKLOAD_H_
#define PARAMECIUM_BENCH_E2E_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>

#include "bench/e2e/src/harness.h"
#include "src/base/status.h"

namespace para::e2e {

// Measurement window length. Windows are short so that a burst of
// interference from outside the process (a neighbour's load) spoils whole
// windows the reported quiet share then leaves out, instead of shifting
// every window a little; each still holds over a thousand items, enough for
// a p99 with ten or more samples beyond it.
inline constexpr double kWindowSeconds = 0.05;

struct BedOptions {
  uint64_t seed = 1;
  // Non-null for the traced bed only: spans, interposers, wrapped hooks and
  // event stamps are installed against it. The plain bed carries none.
  Tracer* tracer = nullptr;
  // Corrupt one expected outcome; the oracle must report it.
  bool self_test = false;
};

// Wall time of each set-up phase. The warm-up phase runs a fixed number of
// items to take lazy state (JIT code, flow tables, caches) to steady state.
struct SetupTimes {
  double boot_ms = 0;
  double keygen_ms = 0;
  double load_certified_ms = 0;
  double warmup_ms = 0;
  uint64_t warmup_units = 0;
  uint64_t warmup_failures = 0;
  double total_s() const { return (boot_ms + keygen_ms + load_certified_ms + warmup_ms) / 1e3; }
};

struct Outcome {
  uint32_t units = 0;     // datagrams, packets or calls the item carried
  uint32_t failures = 0;  // of which disagreed with the oracle
};

// What a bed runs its classifier on, for the run to pin and print.
struct Pinned {
  bool has_classifier = false;
  bool classifier_on_jit = false;  // meaningful only when has_classifier
  size_t filter_shards = 0;
};

class Testbed {
 public:
  virtual ~Testbed() = default;

  // Called before each of this bed's measurement windows (rx_churn reloads
  // here, outside the window's clock).
  virtual void OnWindowStart() {}
  // Stages the next item. Untimed.
  virtual void Prepare() = 0;
  // The item itself. Timed; the root span.
  virtual void Execute() = 0;
  // Oracle check of the item just executed. Untimed.
  virtual Outcome Check() = 0;

  // Snapshot of the counters the per-layer metrics are deltas of; called
  // when the measured phase starts.
  virtual void BeginMeasure() {}
  // Per-layer values of the measured phase (traced bed only), over the
  // `units` the traced windows carried.
  virtual void ReportLayers(uint64_t units, LayerValues& out) = 0;
  // Re-times the reload path's public functions (compile, verify, certify)
  // outside the measured phase.
  virtual void TimeControlPlane(LayerValues& out) = 0;

  virtual Pinned pinned() const = 0;
};

struct Workload {
  const char* name;
  // Builds a testbed, filling `times`; fails when any layer refuses to set
  // up (a bad build, a missing JIT that the run requires, ...).
  Result<std::unique_ptr<Testbed>> (*create)(const BedOptions& options, SetupTimes* times);
};

Result<std::unique_ptr<Testbed>> CreateWireMix(const BedOptions& options, SetupTimes* times);
Result<std::unique_ptr<Testbed>> CreateRxEstablished(const BedOptions& options,
                                                     SetupTimes* times);
Result<std::unique_ptr<Testbed>> CreateRxChurn(const BedOptions& options, SetupTimes* times);
Result<std::unique_ptr<Testbed>> CreateXdomainCalls(const BedOptions& options,
                                                    SetupTimes* times);

inline constexpr Workload kWorkloads[] = {
    {"wire_mix", &CreateWireMix},
    {"rx_established", &CreateRxEstablished},
    {"rx_churn", &CreateRxChurn},
    {"xdomain_calls", &CreateXdomainCalls},
};

// Runs `count` untimed closed-loop items (the set-up warm-up), recording
// their units, failures and wall time in `times`.
void RunWarmupItems(Testbed& bed, uint64_t count, SetupTimes* times);

// Milliseconds since `t0` (Ticks()).
inline double MsSince(uint64_t t0) { return TicksToMs(static_cast<double>(Ticks() - t0)); }

}  // namespace para::e2e

#endif  // PARAMECIUM_BENCH_E2E_SRC_WORKLOAD_H_
