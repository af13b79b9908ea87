// Measurement primitives of the end-to-end benchmark: a calibrated cycle
// clock, a process-wide allocation counter, the bench-side span tracer, and
// the metric tables the harness prints.
//
// Everything here is timed from the outside: spans are opened and closed by
// the benchmark's own code around calls into public functions, and around
// the hook, socket, event and interposition points the system already
// offers. Nothing in src/ is instrumented for this benchmark.
#ifndef PARAMECIUM_BENCH_E2E_SRC_HARNESS_H_
#define PARAMECIUM_BENCH_E2E_SRC_HARNESS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace para::e2e {

// --- Clock ------------------------------------------------------------------

// Raw timestamp: the TSC on x86-64 (invariant on every host this runs on;
// the harness prints the calibration), steady_clock nanoseconds elsewhere.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// Ticks per nanosecond, measured once against steady_clock (~50 ms).
double TicksPerNs();
inline double TicksToNs(double ticks) { return ticks / TicksPerNs(); }
inline double TicksToMs(double ticks) { return ticks / TicksPerNs() / 1e6; }
inline uint64_t NsToTicks(double ns) { return static_cast<uint64_t>(ns * TicksPerNs()); }

// --- Allocations ------------------------------------------------------------

// Heap allocations made by the whole process so far. The benchmark binary
// replaces the global operator new with a counting one; spans read this at
// their edges, so a layer's allocations are attributed like its time.
uint64_t AllocCount();

// --- Spans --------------------------------------------------------------------

// Every span the benchmark opens. The root is the timed closed-loop item;
// its self time is the harness's own share of the item (a clock read and a
// virtual call), so every system layer shows up as a child.
enum class SpanId : uint8_t {
  kRoot,             // bench.item
  kAppSend,          // StackComponent send slot, sender (user) domain
  kDriverSend,       // timing interposer at the sender driver's directory name
  kHwAdvance,        // Machine::Advance: link, device, interrupt delivery
  kRxIrq,            // event stamps around the driver's pop-up RX handler
  kNetStack,         // stack RX: OnFrameBurst, or event stamps around the
                     // stack component's pop-up RX handler
  kDriverPollRecv,   // timing interposer at the receiver driver's name
  kFilterEvaluate,   // wrapper around the filter's hook / batch hook
  kAppDeliver,       // the benchmark's own bound socket handler
  kRunUntilIdle,     // Scheduler::RunUntilIdle after each datagram
  kProxyCall,        // one invocation through a cross-domain proxy
  kObjHandler,       // the benchmark's own server object method
  kCount,
};
inline constexpr size_t kSpanCount = static_cast<size_t>(SpanId::kCount);

const char* SpanName(SpanId id);

struct SpanAgg {
  uint64_t count = 0;
  uint64_t total_ticks = 0;
  int64_t self_ticks = 0;  // total minus time covered by direct children
  uint64_t total_allocs = 0;
  int64_t self_allocs = 0;
};

// Bench-side tracer. Keeps every span's aggregate (count, total and self
// time, allocations) and, for one root item in `sample_every`, the span
// events themselves, which WriteChromeTrace writes out at exit. Disabled, it
// records nothing; the harness enables it only while the traced test bed
// runs.
class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void Begin(SpanId id) {
    if (enabled_) {
      Push(id, Ticks());
    }
  }
  void End() {
    if (enabled_) {
      Pop(Ticks());
    }
  }
  // Root edges take the harness's own timestamps, so the root span and the
  // latency sample of an item are the same interval.
  void BeginRoot(uint64_t t) {
    if (enabled_) {
      Push(SpanId::kRoot, t);
    }
  }
  void EndRoot(uint64_t t) {
    if (enabled_) {
      Pop(t);
    }
  }

  // Edges of the most recent closed span of each kind (for derived
  // intervals such as the proxy's inbound leg).
  uint64_t last_begin(SpanId id) const { return last_begin_[static_cast<size_t>(id)]; }
  uint64_t last_end(SpanId id) const { return last_end_[static_cast<size_t>(id)]; }

  const SpanAgg& agg(SpanId id) const { return agg_[static_cast<size_t>(id)]; }
  // Spans opened with no root open, or closed without being opened: either
  // means a stamp fired outside the item it belongs to.
  uint64_t stray() const { return stray_; }

  // Clears aggregates and samples (end of warm-up).
  void ResetAggregates();

  // Self times of all spans over the root's total, in percent. 100 when the
  // span tree is well nested.
  double CoveragePct() const;

  // Writes the sampled span events as chrome://tracing JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    SpanId id;
    uint64_t t0;
    uint64_t allocs0;
    uint64_t child_ticks;
    uint64_t child_allocs;
  };
  struct Event {
    SpanId id;
    uint8_t depth;
    uint64_t t0;
    uint64_t t1;
  };
  static constexpr size_t kMaxDepth = 16;
  static constexpr uint64_t kSampleEvery = 1009;  // prime: no aliasing with input rings
  static constexpr size_t kMaxEvents = 1 << 16;

  void Push(SpanId id, uint64_t t);
  void Pop(uint64_t t);

  bool enabled_ = false;
  std::array<Frame, kMaxDepth> stack_{};
  size_t depth_ = 0;
  uint64_t roots_ = 0;
  bool sampling_ = false;
  uint64_t stray_ = 0;
  std::array<SpanAgg, kSpanCount> agg_{};
  std::array<uint64_t, kSpanCount> last_begin_{};
  std::array<uint64_t, kSpanCount> last_end_{};
  std::vector<Event> events_;
};

// Opens a span on construction and closes it on destruction; a null tracer
// (the plain test bed) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanId id) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(id);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// --- Metrics ------------------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// The end-to-end metrics every untraced run prints, in BENCHMARK.json order.
// The p99 latency is in the human report only: on a shared host its spread
// exceeds any bound BENCHMARK.json can hold (bench/e2e/README.md).
inline constexpr MetricDef kEndToEnd[] = {
    {"items_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics every traced run prints, in BENCHMARK.json order.
// A layer the workload never calls reads 0.
enum class Layer : uint8_t {
  kFilterEvaluateNsPerPkt,
  kFilterFlowHitRatio,
  kFilterFlowInsertsPerKpkt,
  kFilterFlowEvictionsPerKpkt,
  kFilterFlowReevaluationsPerKpkt,
  kFilterProcInvocationsPerPkt,
  kFilterAllocsPerPkt,
  kFilterCompileMs,
  kFilterReloadMs,
  kSfiClassifyReplayNsPerPkt,
  kSfiJitRunsPerPkt,
  kSfiBackendJit,
  kSfiVerifyMs,
  kNetStackNsPerPkt,
  kNetStackSelfNsPerPkt,
  kNetStackAllocsPerPkt,
  kAppDeliverNsPerPkt,
  kAppAllocsPerPkt,
  kDriverSendNsPerItem,
  kDriverPollRecvNsPerItem,
  kProtocolStackSendSelfNsPerItem,
  kHwAdvanceNsPerItem,
  kThreadsRxSelfNsPerItem,
  kProxyNullCallNs,
  kProxyScalarCallNs,
  kProxyPayloadInCallNs,
  kProxyPayloadOutCallNs,
  kProxyInboundNs,
  kProxyOutboundNs,
  kObjHandlerNs,
  kProxyFaultsPerCall,
  kProxyContextSwitchesPerCall,
  kProxyPayloadBytesPerCall,
  kVmemFaultsPerCall,
  kCertCertifyMs,
  kAllocsPerCall,
  kSetupBootMs,
  kSetupKeygenMs,
  kSetupLoadCertifiedMs,
  kSetupWarmupMs,
  kBenchRootSelfNsPerItem,
  kTraceOverheadPct,
  kTraceCoveragePct,
  kHostCalibrateNs,
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

inline constexpr MetricDef kPerLayer[kLayerCount] = {
    {"filter.evaluate_ns_per_pkt", "ns"},
    {"filter.flow_hit_ratio", "ratio"},
    {"filter.flow_inserts_per_kpkt", "count"},
    {"filter.flow_evictions_per_kpkt", "count"},
    {"filter.flow_reevaluations_per_kpkt", "count"},
    {"filter.proc_invocations_per_pkt", "count"},
    {"filter.allocs_per_pkt", "count"},
    {"filter.compile_ms", "ms"},
    {"filter.reload_ms", "ms"},
    {"sfi.classify_replay_ns_per_pkt", "ns"},
    {"sfi.jit_runs_per_pkt", "count"},
    {"sfi.backend_jit", "bool"},
    {"sfi.verify_ms", "ms"},
    {"net.stack.ns_per_pkt", "ns"},
    {"net.stack.self_ns_per_pkt", "ns"},
    {"net.stack.allocs_per_pkt", "count"},
    {"app.deliver_ns_per_pkt", "ns"},
    {"app.allocs_per_pkt", "count"},
    {"components.net_driver.send_ns_per_item", "ns"},
    {"components.net_driver.poll_recv_ns_per_item", "ns"},
    {"components.protocol_stack.send_self_ns_per_item", "ns"},
    {"hw.advance_ns_per_item", "ns"},
    {"threads.rx_self_ns_per_item", "ns"},
    {"nucleus.proxy.null_call_ns", "ns"},
    {"nucleus.proxy.scalar_call_ns", "ns"},
    {"nucleus.proxy.payload_in_call_ns", "ns"},
    {"nucleus.proxy.payload_out_call_ns", "ns"},
    {"nucleus.proxy.inbound_ns", "ns"},
    {"nucleus.proxy.outbound_ns", "ns"},
    {"obj.handler_ns", "ns"},
    {"nucleus.proxy.faults_per_call", "count"},
    {"nucleus.proxy.context_switches_per_call", "count"},
    {"nucleus.proxy.payload_bytes_per_call", "bytes"},
    {"nucleus.vmem.faults_per_call", "count"},
    {"nucleus.cert.certify_ms", "ms"},
    {"allocs_per_call", "count"},
    {"setup.boot_ms", "ms"},
    {"setup.keygen_ms", "ms"},
    {"setup.load_certified_ms", "ms"},
    {"setup.warmup_ms", "ms"},
    {"bench.root_self_ns_per_item", "ns"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
    {"host.calibrate_ns", "ns"},
};

constexpr bool EveryLayerNamed() {
  for (const MetricDef& m : kPerLayer) {
    if (m.name.empty()) {
      return false;
    }
  }
  return true;
}
static_assert(EveryLayerNamed(), "kPerLayer needs one entry per Layer, in enum order");

// Per-layer values of one traced run, indexed by Layer.
struct LayerValues {
  std::array<double, kLayerCount> value{};
  double& operator[](Layer id) { return value[static_cast<size_t>(id)]; }
  double operator[](Layer id) const { return value[static_cast<size_t>(id)]; }
};

// --- Statistics ---------------------------------------------------------------

// Percentile q in [0, 1] of `values`, interpolating linearly between order
// statistics (0 when empty).
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
// Quantile q in [0, 1] of tick samples: the order statistic at rank
// q * size. Reorders `samples`.
double Quantile(std::span<uint64_t> samples, double q);

// Latency samples of one measurement window. Every op is recorded until
// the buffer fills; past that the window keeps every 2nd, 4th, ... sample
// (systematic decimation), so memory stays bounded at any op rate while
// every kept value is an exact measurement. The buffer is allocated and
// touched up front, so it adds the same resident memory to every run.
class LatencyWindow {
 public:
  LatencyWindow();
  void Clear();
  void Add(uint64_t ticks) {
    if ((seen_++ & stride_mask_) != 0) {
      return;
    }
    if (size_ == kCapacity) {
      // Halving keeps samples whose index is a multiple of the doubled
      // stride; this one's index is kCapacity * stride, which is one.
      Decimate();
    }
    samples_[size_++] = ticks;
  }
  std::span<uint64_t> samples() { return {samples_.data(), size_}; }

 private:
  static constexpr size_t kCapacity = size_t{1} << 16;
  void Decimate();

  std::vector<uint64_t> samples_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_mask_ = 0;
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Host-speed probe, in ns (~0.6 ms): fixed register work across eight
// independent chains plus a dependent walk through a 256-KiB table the
// probe owns. Nothing the system under test does changes it; only the
// processor's own speed does — its clock, and the execution ports and
// caches its neighbours on a shared host take from it.
double ProbeNs();

// A typical ProbeNs() on the recording host (it read 0.4-0.8 ms there). The
// harness scales each end-to-end time by the probe taken beside it, to read
// as on that host at that speed: a time t measured while the probe took p
// is reported as t * kProbeReferenceNs / p. The constant only fixes the
// scale; two commits measured on one host are scaled alike.
inline constexpr double kProbeReferenceNs = 600000;

}  // namespace para::e2e

#endif  // PARAMECIUM_BENCH_E2E_SRC_HARNESS_H_
