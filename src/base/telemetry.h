// Process-wide telemetry substrate: a mergeable metrics registry and
// per-thread trace rings.
//
// The design is the per-worker counter shape the sharded data plane needs
// (NPF keeps per-CPU counter blocks merged on read; DPDK keeps per-queue
// stats): every thread owns a cache-local block of cells, an increment is a
// single relaxed store into the caller's own block, and a snapshot walks all
// blocks under a lock and sums them. Nothing on the hot path ever contends.
//
// Two owned metric kinds:
//  * Counter   — monotonically increasing u64, per-thread cells.
//  * Histogram — log2-bucketed latency histogram: bucket i holds values whose
//                bit width is i (bucket 0 = {0}, bucket i = [2^(i-1), 2^i-1]),
//                plus a running sum. Per-thread cells like counters.
//
// Components whose counters predate the registry keep their plain struct
// fields as the source of truth and register ALIASES: a name plus a pointer
// (or closure) the registry reads at snapshot time. The hot path pays nothing
// and the numbered StatsSlot control interfaces stay bit-identical, but every
// counter appears in the one `layer.component.metric` namespace. Gauges exist
// only as aliases (MetricKind::kGauge): a component's own field or closure is
// the gauge.
//
// Tracing: each thread owns a fixed-size ring of TSC-stamped begin/end/
// instant events that overwrites its oldest entry — always on, never
// allocates, and exportable as chrome://tracing JSON (see
// components/telemetry_object.h). Timestamps are raw TSC ticks; the
// tick->nanosecond calibration happens once at export time, never on the
// recording path.
//
// Compile-time kill switch: building with -DPARA_NO_TELEMETRY compiles every
// macro and handle operation down to nothing (kEnabled == false), for
// measuring the instrumented paths' true floor.
#ifndef PARAMECIUM_SRC_BASE_TELEMETRY_H_
#define PARAMECIUM_SRC_BASE_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#if !defined(__x86_64__)
#include <ctime>
#endif

namespace para::telemetry {

#if defined(PARA_NO_TELEMETRY)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

enum class TracePhase : uint8_t { kBegin, kEnd, kInstant };

// Trace events carrying this flag came from the logger (name is a __FILE__
// literal, arg packs (level << 32) | line); the exporter renders them as
// named log instants instead of generic spans.
inline constexpr uint8_t kTraceFlagLog = 0x1;

struct TraceEvent {
  uint64_t ts = 0;               // raw TSC ticks (TraceClock())
  const char* name = nullptr;    // must be a string with static storage
  uint64_t arg = 0;              // event-defined payload
  uint32_t tid = 0;              // registry-assigned thread id
  TracePhase phase = TracePhase::kInstant;
  uint8_t flags = 0;
};

namespace detail {

inline constexpr size_t kMaxCounters = 256;
inline constexpr size_t kMaxHistograms = 64;
inline constexpr size_t kHistBuckets = 65;              // bucket per bit width of u64
inline constexpr size_t kHistStride = kHistBuckets + 1; // + running-sum cell
inline constexpr size_t kTraceRingCapacity = 2048;      // power of two, per thread
inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

static_assert((kTraceRingCapacity & (kTraceRingCapacity - 1)) == 0,
              "trace ring indexing relies on a power-of-two capacity");

// One thread's slice of every owned metric plus its trace ring. Cells are
// atomics only so the snapshot thread may read them; the owning thread is the
// sole writer and uses relaxed loads/stores (plain adds on x86-64).
struct ThreadState {
  std::atomic<uint64_t> counters[kMaxCounters] = {};
  std::atomic<uint64_t> hist[kMaxHistograms * kHistStride] = {};
  TraceEvent ring[kTraceRingCapacity] = {};
  // Monotonic write index; event fields are published before the release
  // store so a snapshot never reads a half-written *committed* slot (the slot
  // currently being overwritten on wraparound is best-effort by design).
  std::atomic<uint64_t> ring_pos{0};
  // Events below this index are considered cleared. Written/read only under
  // the registry lock (never by the owning thread's hot path).
  uint64_t clear_floor = 0;
  uint32_t tid = 0;
  ThreadState* next = nullptr;  // intrusive list of live threads
};

extern thread_local ThreadState* tls_state;

// Creates and registers this thread's block (and arms the thread-exit hook
// that folds it into the retired totals).
ThreadState* TlsSlow();

inline ThreadState* Tls() {
  ThreadState* state = tls_state;
  if (state == nullptr) [[unlikely]] {
    state = TlsSlow();
  }
  return state;
}

}  // namespace detail

// Raw timestamp for trace events and latency spans: TSC on x86-64 (constant
// rate on every machine this repo targets), CLOCK_MONOTONIC elsewhere.
// Convert with Registry::TicksPerSecond() at export time only.
inline uint64_t TraceClock() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
#endif
}

// Appends one event to the calling thread's ring. `name` must outlive the
// process (string literal).
inline void EmitTrace(const char* name, TracePhase phase, uint64_t arg = 0, uint8_t flags = 0) {
  if constexpr (!kEnabled) {
    (void)name, (void)phase, (void)arg, (void)flags;
    return;
  } else {
    detail::ThreadState* s = detail::Tls();
    const uint64_t pos = s->ring_pos.load(std::memory_order_relaxed);
    TraceEvent& e = s->ring[pos & (detail::kTraceRingCapacity - 1)];
    e.ts = TraceClock();
    e.name = name;
    e.arg = arg;
    e.tid = s->tid;
    e.phase = phase;
    e.flags = flags;
    s->ring_pos.store(pos + 1, std::memory_order_release);
  }
}

// Handles are trivially copyable ids into the registry; default-constructed
// (or capacity-overflow) handles are inert. All mutators are single relaxed
// stores into the caller's own cell block.
class Counter {
 public:
  Counter() = default;

  void Add(uint64_t n) {
    if constexpr (!kEnabled) {
      (void)n;
      return;
    } else {
      if (id_ == detail::kInvalidId) return;
      std::atomic<uint64_t>& cell = detail::Tls()->counters[id_];
      cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }
  }
  void Inc() { Add(1); }

  // Increments and returns this thread's cell value — a free modular sequence
  // number for 1-in-N sampling decisions on the hot path.
  uint64_t IncAndCount() {
    if constexpr (!kEnabled) {
      return 0;
    } else {
      if (id_ == detail::kInvalidId) return 0;
      std::atomic<uint64_t>& cell = detail::Tls()->counters[id_];
      const uint64_t next = cell.load(std::memory_order_relaxed) + 1;
      cell.store(next, std::memory_order_relaxed);
      return next;
    }
  }

  // Merged value across all threads, live and retired. Snapshot-path cost.
  uint64_t Value() const;

  bool valid() const { return id_ != detail::kInvalidId; }

 private:
  friend class Registry;
  explicit Counter(uint32_t id) : id_(id) {}
  uint32_t id_ = detail::kInvalidId;
};

struct HistogramValue {
  uint64_t buckets[detail::kHistBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
};

class Histogram {
 public:
  Histogram() = default;

  // Bucket index is the bit width of the sample: 0 for 0, otherwise
  // floor(log2(v)) + 1 — exact power-of-two boundaries, no float math.
  void Record(uint64_t v) {
    if constexpr (!kEnabled) {
      (void)v;
      return;
    } else {
      if (id_ == detail::kInvalidId) return;
      const size_t base = static_cast<size_t>(id_) * detail::kHistStride;
      std::atomic<uint64_t>* cells = detail::Tls()->hist;
      std::atomic<uint64_t>& bucket = cells[base + static_cast<size_t>(std::bit_width(v))];
      bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
      std::atomic<uint64_t>& sum = cells[base + detail::kHistBuckets];
      sum.store(sum.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
    }
  }

  // Merged across all threads, live and retired. Snapshot-path cost.
  HistogramValue Value() const;

  bool valid() const { return id_ != detail::kInvalidId; }

 private:
  friend class Registry;
  explicit Histogram(uint32_t id) : id_(id) {}
  uint32_t id_ = detail::kInvalidId;
};

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;    // counter/gauge value; histogram sample count
  HistogramValue hist;   // kHistogram only
};

struct Snapshot {
  std::vector<MetricValue> metrics;  // sorted by name
  double ticks_per_second = 0.0;     // TraceClock calibration at snapshot time
};

// The process-wide registry. All registration and snapshot paths take one
// mutex; the mutation hot paths (handle methods above) never do.
class Registry {
 public:
  static Registry& Get();

  // Get-or-create by name: the same name always yields a handle onto the same
  // metric, so instrumentation sites can cache `static` handles without init
  // races. Returns an inert handle when the name is taken by a different kind
  // or the fixed capacity is exhausted (both count in
  // `telemetry.registry.rejected`).
  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name);

  // Registers a metric whose value lives outside the registry: `source` (or
  // `reader`) is consulted only under the registry lock at snapshot time.
  // Duplicate names get a "#2", "#3"... suffix (multi-instance components).
  // Returns an id for RemoveAlias; ScopedMetricGroup wraps the pairing.
  uint64_t AddAlias(std::string name, const uint64_t* source,
                    MetricKind kind = MetricKind::kCounter);
  uint64_t AddAlias(std::string name, std::function<uint64_t()> reader,
                    MetricKind kind = MetricKind::kCounter);
  void RemoveAlias(uint64_t alias_id);

  // Merged view of every metric, owned and aliased, sorted by name.
  Snapshot TakeSnapshot();

  // Zeroes owned metrics and rebases aliases (their sources keep counting;
  // the registry subtracts the value seen at Reset from later snapshots).
  void Reset();

  // All committed trace events from every thread's ring, merged and sorted by
  // timestamp. ClearTrace drops them (new events may land concurrently).
  std::vector<TraceEvent> TraceSnapshot();
  void ClearTrace();

  size_t metric_count();

  // Measured TraceClock ticks per second, cached after the first call (which
  // blocks ~5 ms to calibrate). Export-time only.
  static double TicksPerSecond();

  struct Impl;  // opaque; nested so file-local code in telemetry.cc can name it

 private:
  Registry() = default;
  Impl& impl();
};

// RAII bundle of aliases: a component registers its stats fields at
// construction and they vanish from the namespace when it dies. Declare the
// group AFTER the fields it points at, so it unregisters first.
class ScopedMetricGroup {
 public:
  ScopedMetricGroup() = default;
  ~ScopedMetricGroup() { Clear(); }
  ScopedMetricGroup(const ScopedMetricGroup&) = delete;
  ScopedMetricGroup& operator=(const ScopedMetricGroup&) = delete;
  ScopedMetricGroup(ScopedMetricGroup&& other) noexcept : ids_(std::move(other.ids_)) {
    other.ids_.clear();
  }
  ScopedMetricGroup& operator=(ScopedMetricGroup&& other) noexcept {
    if (this != &other) {
      Clear();
      ids_ = std::move(other.ids_);
      other.ids_.clear();
    }
    return *this;
  }

  void Counter(std::string name, const uint64_t* source) {
    Add(std::move(name), source, MetricKind::kCounter);
  }
  void Fn(std::string name, std::function<uint64_t()> reader,
          MetricKind kind = MetricKind::kGauge) {
    if constexpr (!kEnabled) return;
    ids_.push_back(Registry::Get().AddAlias(std::move(name), std::move(reader), kind));
  }
  void Clear() {
    for (uint64_t id : ids_) Registry::Get().RemoveAlias(id);
    ids_.clear();
  }

 private:
  void Add(std::string name, const uint64_t* source, MetricKind kind) {
    if constexpr (!kEnabled) return;
    ids_.push_back(Registry::Get().AddAlias(std::move(name), source, kind));
  }
  std::vector<uint64_t> ids_;
};

// Begin/end span around a scope. `name` must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t arg = 0) : name_(name) {
    EmitTrace(name_, TracePhase::kBegin, arg);
  }
  ~TraceSpan() { EmitTrace(name_, TracePhase::kEnd, 0); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
};

}  // namespace para::telemetry

#if defined(PARA_NO_TELEMETRY)
#define PARA_TRACE_SCOPE(name) \
  do {                         \
  } while (0)
#define PARA_TRACE_SCOPE_ARG(name, arg) \
  do {                                  \
  } while (0)
#define PARA_TRACE_INSTANT(name, arg) \
  do {                                \
  } while (0)
#else
#define PARA_TELEMETRY_CONCAT2(a, b) a##b
#define PARA_TELEMETRY_CONCAT(a, b) PARA_TELEMETRY_CONCAT2(a, b)
#define PARA_TRACE_SCOPE(name) \
  ::para::telemetry::TraceSpan PARA_TELEMETRY_CONCAT(para_trace_span_, __LINE__)(name)
#define PARA_TRACE_SCOPE_ARG(name, arg) \
  ::para::telemetry::TraceSpan PARA_TELEMETRY_CONCAT(para_trace_span_, __LINE__)((name), (arg))
#define PARA_TRACE_INSTANT(name, arg) \
  ::para::telemetry::EmitTrace((name), ::para::telemetry::TracePhase::kInstant, (arg))
#endif

#endif  // PARAMECIUM_SRC_BASE_TELEMETRY_H_
