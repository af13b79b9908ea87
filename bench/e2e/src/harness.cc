#include "bench/e2e/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace para::e2e {

// --- Counting allocator ---------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace para::e2e

// The replaceable global allocation functions, all on malloc/free. GCC 12
// flags free() in a replacement operator delete as mismatched with the
// operator new it pairs with; that is the pairing these definitions are.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = para::e2e::CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = para::e2e::CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return para::e2e::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return para::e2e::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = para::e2e::CountedAlignedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = para::e2e::CountedAlignedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace para::e2e {

// --- Clock --------------------------------------------------------------------

double TicksPerNs() {
  static const double ticks_per_ns = [] {
    using Clock = std::chrono::steady_clock;
    const auto w0 = Clock::now();
    const uint64_t t0 = Ticks();
    while (Clock::now() - w0 < std::chrono::milliseconds(50)) {
    }
    const uint64_t t1 = Ticks();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - w0)
                                .count());
    return static_cast<double>(t1 - t0) / ns;
  }();
  return ticks_per_ns;
}

// --- Tracer -------------------------------------------------------------------

const char* SpanName(SpanId id) {
  switch (id) {
    case SpanId::kRoot: return "bench.item";
    case SpanId::kAppSend: return "app.send";
    case SpanId::kDriverSend: return "components.net_driver.send";
    case SpanId::kHwAdvance: return "hw.advance";
    case SpanId::kRxIrq: return "threads.rx_irq";
    case SpanId::kNetStack: return "net.stack";
    case SpanId::kDriverPollRecv: return "components.net_driver.poll_recv";
    case SpanId::kFilterEvaluate: return "filter.evaluate";
    case SpanId::kAppDeliver: return "app.deliver";
    case SpanId::kRunUntilIdle: return "threads.run_until_idle";
    case SpanId::kProxyCall: return "nucleus.proxy.call";
    case SpanId::kObjHandler: return "obj.handler";
    case SpanId::kCount: break;
  }
  return "?";
}

Tracer::Tracer() { events_.reserve(kMaxEvents); }

void Tracer::Push(SpanId id, uint64_t t) {
  if (id == SpanId::kRoot) {
    if (depth_ != 0) {
      ++stray_;
      depth_ = 0;
    }
    sampling_ = (roots_++ % kSampleEvery) == 0 && events_.size() + 64 <= kMaxEvents;
  } else if (depth_ == 0 || depth_ == kMaxDepth) {
    ++stray_;
    return;
  }
  stack_[depth_++] = Frame{id, t, AllocCount(), 0, 0};
}

void Tracer::Pop(uint64_t t) {
  if (depth_ == 0) {
    ++stray_;
    return;
  }
  const Frame f = stack_[--depth_];
  const uint64_t dur = t - f.t0;
  const uint64_t allocs = AllocCount() - f.allocs0;
  SpanAgg& a = agg_[static_cast<size_t>(f.id)];
  ++a.count;
  a.total_ticks += dur;
  a.self_ticks += static_cast<int64_t>(dur) - static_cast<int64_t>(f.child_ticks);
  a.total_allocs += allocs;
  a.self_allocs += static_cast<int64_t>(allocs) - static_cast<int64_t>(f.child_allocs);
  last_begin_[static_cast<size_t>(f.id)] = f.t0;
  last_end_[static_cast<size_t>(f.id)] = t;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ticks += dur;
    stack_[depth_ - 1].child_allocs += allocs;
  }
  if (sampling_ && events_.size() < kMaxEvents) {
    events_.push_back(Event{f.id, static_cast<uint8_t>(depth_), f.t0, t});
  }
}

void Tracer::ResetAggregates() {
  agg_ = {};
  events_.clear();
  roots_ = 0;
  stray_ = 0;
}

double Tracer::CoveragePct() const {
  const SpanAgg& root = agg(SpanId::kRoot);
  if (root.total_ticks == 0) {
    return 0.0;
  }
  int64_t self = 0;
  for (const SpanAgg& a : agg_) {
    self += a.self_ticks;
  }
  return 100.0 * static_cast<double>(self) / static_cast<double>(root.total_ticks);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"traceEvents\":[\n");
  const uint64_t origin = events_.empty() ? 0 : events_.front().t0;
  bool first = true;
  for (const Event& e : events_) {
    std::fprintf(out, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                 first ? "" : ",\n", SpanName(e.id),
                 TicksToNs(static_cast<double>(e.t0 - origin)) / 1000.0,
                 TicksToNs(static_cast<double>(e.t1 - e.t0)) / 1000.0,
                 static_cast<unsigned>(e.depth));
    first = false;
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(out) == 0;
}

// --- Statistics ---------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Quantile(std::span<uint64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank =
      std::min(static_cast<size_t>(q * static_cast<double>(samples.size())), samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

LatencyWindow::LatencyWindow() : samples_(kCapacity, 0) {}

void LatencyWindow::Clear() {
  size_ = 0;
  seen_ = 0;
  stride_mask_ = 0;
}

void LatencyWindow::Decimate() {
  size_t out = 0;
  for (size_t i = 0; i < size_; i += 2) {
    samples_[out++] = samples_[i];
  }
  size_ = out;
  stride_mask_ = stride_mask_ * 2 + 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

// Ticks of the fastest of four runs of `work`, times four: a host stall
// lands in one run and would otherwise read as a slow host for the window.
template <typename Work>
uint64_t FastestOfFour(Work work) {
  uint64_t best = UINT64_MAX;
  for (int run = 0; run < 4; ++run) {
    const uint64_t t0 = Ticks();
    work();
    best = std::min(best, Ticks() - t0);
  }
  return best * 4;
}

inline void XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
}

// A random cyclic permutation of 256 KiB of indices: following it is a
// chain of dependent loads the prefetcher cannot predict.
const std::vector<uint32_t>& ProbeTable() {
  static const std::vector<uint32_t> table = [] {
    constexpr uint32_t kEntries = (256 * 1024) / sizeof(uint32_t);
    std::vector<uint32_t> order(kEntries);
    for (uint32_t i = 0; i < kEntries; ++i) {
      order[i] = i;
    }
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = kEntries - 1; i > 0; --i) {
      XorShift(x);
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> next(kEntries);
    for (uint32_t i = 0; i < kEntries; ++i) {
      next[order[i]] = order[(i + 1) % kEntries];
    }
    return next;
  }();
  return table;
}

}  // namespace

double ProbeNs() {
  const std::vector<uint32_t>& table = ProbeTable();
  // Eight independent chains keep the core's execution ports busy, as the
  // system's own code does, so a neighbour on the sibling hyperthread slows
  // them; a single dependent chain would hardly notice it.
  const uint64_t alu = FastestOfFour([] {
    // Seeded from the clock so the compiler cannot fold the loop away.
    const uint64_t seed = Ticks() | 1;
    std::array<uint64_t, 8> x = {seed, seed + 2, seed + 4, seed + 6,
                                 seed + 8, seed + 10, seed + 12, seed + 14};
    for (int i = 0; i < (1 << 13); ++i) {
      for (uint64_t& chain : x) {
        XorShift(chain);
      }
    }
    // Keep the loop: the result feeds an opaque asm operand.
    asm volatile("" : : "r"(x[0] ^ x[1] ^ x[2] ^ x[3] ^ x[4] ^ x[5] ^ x[6] ^ x[7]));
  });
  // The walk slows when a neighbour takes the caches.
  const uint64_t walk = FastestOfFour([&table] {
    uint32_t at = 0;
    for (int i = 0; i < 12288; ++i) {
      at = table[at];
    }
    asm volatile("" : : "r"(at));
  });
  return TicksToNs(static_cast<double>(alu + walk));
}

}  // namespace para::e2e
