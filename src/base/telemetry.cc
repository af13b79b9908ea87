#include "src/base/telemetry.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>

namespace para::telemetry {

namespace detail {

thread_local ThreadState* tls_state = nullptr;

}  // namespace detail

namespace {

using detail::kHistBuckets;
using detail::kHistStride;
using detail::kInvalidId;
using detail::kMaxCounters;
using detail::kMaxHistograms;
using detail::kTraceRingCapacity;
using detail::ThreadState;

// Retired trace events (threads that exited) are capped so a test that spawns
// thousands of short-lived threads cannot grow the registry without bound.
constexpr size_t kRetiredTraceCap = 8192;

struct OwnedEntry {
  MetricKind kind;
  uint32_t id;
};

struct AliasEntry {
  std::string name;
  MetricKind kind;
  const uint64_t* source = nullptr;      // exactly one of source/reader is set
  std::function<uint64_t()> reader;
  uint64_t reset_base = 0;
};

uint64_t ReadAlias(const AliasEntry& alias) {
  const uint64_t raw = alias.source != nullptr ? *alias.source : alias.reader();
  // Counters are monotonic; if the source object was swapped for a fresh one
  // after Reset(), clamp instead of wrapping.
  return raw >= alias.reset_base ? raw - alias.reset_base : 0;
}

}  // namespace

struct Registry::Impl {
  std::mutex mu;

  // Owned metrics: name -> (kind, dense id). Names are never reclaimed; the
  // convention is that owned metrics carry process-wide names
  // ("sfi.vm.runs"), while per-instance names go through aliases, which are
  // reclaimed on RemoveAlias.
  std::map<std::string, OwnedEntry, std::less<>> owned;
  std::string counter_names[kMaxCounters];
  std::string hist_names[kMaxHistograms];
  uint32_t counter_count = 0;
  uint32_t hist_count = 0;
  uint64_t rejected = 0;  // capacity overflow or kind conflict

  std::map<uint64_t, AliasEntry> aliases;
  uint64_t next_alias_id = 1;

  // Live threads (intrusive list) and the folded totals of exited ones.
  ThreadState* threads = nullptr;
  uint32_t next_tid = 1;
  uint64_t live_threads = 0;
  uint64_t retired_counters[kMaxCounters] = {};
  uint64_t retired_hist[kMaxHistograms * kHistStride] = {};
  std::deque<TraceEvent> retired_events;

  uint64_t SumCounter(uint32_t id) const {
    uint64_t total = retired_counters[id];
    for (const ThreadState* t = threads; t != nullptr; t = t->next) {
      total += t->counters[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  HistogramValue SumHistogram(uint32_t id) const {
    HistogramValue out;
    const size_t base = static_cast<size_t>(id) * kHistStride;
    for (size_t i = 0; i < kHistBuckets; ++i) out.buckets[i] = retired_hist[base + i];
    out.sum = retired_hist[base + kHistBuckets];
    for (const ThreadState* t = threads; t != nullptr; t = t->next) {
      for (size_t i = 0; i < kHistBuckets; ++i) {
        out.buckets[i] += t->hist[base + i].load(std::memory_order_relaxed);
      }
      out.sum += t->hist[base + kHistBuckets].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kHistBuckets; ++i) out.count += out.buckets[i];
    return out;
  }

  // Folds an exiting thread's cells into the retired totals and unlinks it.
  void Retire(ThreadState* state) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = 0; i < kMaxCounters; ++i) {
      retired_counters[i] += state->counters[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kMaxHistograms * kHistStride; ++i) {
      retired_hist[i] += state->hist[i].load(std::memory_order_relaxed);
    }
    const uint64_t pos = state->ring_pos.load(std::memory_order_relaxed);
    const uint64_t floor = state->clear_floor;
    const uint64_t n = std::min<uint64_t>(pos - floor, kTraceRingCapacity);
    for (uint64_t i = pos - n; i < pos; ++i) {
      retired_events.push_back(state->ring[i & (kTraceRingCapacity - 1)]);
    }
    while (retired_events.size() > kRetiredTraceCap) retired_events.pop_front();
    ThreadState** link = &threads;
    while (*link != nullptr && *link != state) link = &(*link)->next;
    if (*link == state) *link = state->next;
    --live_threads;
    delete state;
  }
};

namespace {

// Leaky singletons: thread-exit hooks (including the main thread's, which
// fires during process teardown) must always find a live registry.
Registry::Impl* GlobalImpl() {
  static Registry::Impl* impl = new Registry::Impl();
  return impl;
}

// Per-thread owner whose destructor folds the block back into the registry.
struct TlsOwner {
  ThreadState* state = nullptr;
  ~TlsOwner() {
    if (state != nullptr) {
      detail::tls_state = nullptr;
      GlobalImpl()->Retire(state);
    }
  }
};

thread_local TlsOwner tls_owner;

}  // namespace

namespace detail {

ThreadState* TlsSlow() {
  auto* state = new ThreadState();
  Registry::Impl* impl = GlobalImpl();
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    state->tid = impl->next_tid++;
    state->next = impl->threads;
    impl->threads = state;
    ++impl->live_threads;
  }
  tls_owner.state = state;
  tls_state = state;
  return state;
}

}  // namespace detail

Registry& Registry::Get() {
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Impl& Registry::impl() { return *GlobalImpl(); }

Counter Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.owned.find(name);
  if (it != im.owned.end()) {
    if (it->second.kind != MetricKind::kCounter) {
      ++im.rejected;
      return Counter();
    }
    return Counter(it->second.id);
  }
  if (im.counter_count >= detail::kMaxCounters) {
    ++im.rejected;
    return Counter();
  }
  const uint32_t id = im.counter_count++;
  im.counter_names[id] = std::string(name);
  im.owned.emplace(std::string(name), OwnedEntry{MetricKind::kCounter, id});
  return Counter(id);
}

Histogram Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.owned.find(name);
  if (it != im.owned.end()) {
    if (it->second.kind != MetricKind::kHistogram) {
      ++im.rejected;
      return Histogram();
    }
    return Histogram(it->second.id);
  }
  if (im.hist_count >= detail::kMaxHistograms) {
    ++im.rejected;
    return Histogram();
  }
  const uint32_t id = im.hist_count++;
  im.hist_names[id] = std::string(name);
  im.owned.emplace(std::string(name), OwnedEntry{MetricKind::kHistogram, id});
  return Histogram(id);
}

namespace {

// Aliased names may collide (two filters both named "fw0"); disambiguate with
// a "#2" suffix rather than silently merging two components' counts.
std::string DedupeName(Registry::Impl& im, std::string name) {
  auto taken = [&im](const std::string& candidate) {
    if (im.owned.find(candidate) != im.owned.end()) return true;
    for (const auto& [id, alias] : im.aliases) {
      if (alias.name == candidate) return true;
    }
    return false;
  };
  if (!taken(name)) return name;
  for (int n = 2;; ++n) {
    std::string candidate = name + "#" + std::to_string(n);
    if (!taken(candidate)) return candidate;
  }
}

}  // namespace

uint64_t Registry::AddAlias(std::string name, const uint64_t* source, MetricKind kind) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const uint64_t id = im.next_alias_id++;
  AliasEntry alias;
  alias.name = DedupeName(im, std::move(name));
  alias.kind = kind;
  alias.source = source;
  im.aliases.emplace(id, std::move(alias));
  return id;
}

uint64_t Registry::AddAlias(std::string name, std::function<uint64_t()> reader, MetricKind kind) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const uint64_t id = im.next_alias_id++;
  AliasEntry alias;
  alias.name = DedupeName(im, std::move(name));
  alias.kind = kind;
  alias.reader = std::move(reader);
  im.aliases.emplace(id, std::move(alias));
  return id;
}

void Registry::RemoveAlias(uint64_t alias_id) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.aliases.erase(alias_id);
}

uint64_t Counter::Value() const {
  if (id_ == detail::kInvalidId) return 0;
  Registry::Impl& im = *GlobalImpl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.SumCounter(id_);
}

HistogramValue Histogram::Value() const {
  if (id_ == detail::kInvalidId) return HistogramValue{};
  Registry::Impl& im = *GlobalImpl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.SumHistogram(id_);
}

Snapshot Registry::TakeSnapshot() {
  // Calibrate outside the lock (first call blocks a few ms).
  const double ticks_per_second = TicksPerSecond();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  Snapshot snap;
  snap.ticks_per_second = ticks_per_second;
  snap.metrics.reserve(im.owned.size() + im.aliases.size() + 2);
  for (const auto& [name, entry] : im.owned) {
    MetricValue mv;
    mv.name = name;
    mv.kind = entry.kind;
    if (entry.kind == MetricKind::kHistogram) {
      mv.hist = im.SumHistogram(entry.id);
      mv.value = mv.hist.count;
    } else {
      mv.value = im.SumCounter(entry.id);
    }
    snap.metrics.push_back(std::move(mv));
  }
  for (const auto& [id, alias] : im.aliases) {
    MetricValue mv;
    mv.name = alias.name;
    mv.kind = alias.kind;
    mv.value = ReadAlias(alias);
    snap.metrics.push_back(std::move(mv));
  }
  {
    MetricValue mv;
    mv.name = "telemetry.registry.rejected";
    mv.value = im.rejected;
    snap.metrics.push_back(std::move(mv));
    MetricValue threads;
    threads.name = "telemetry.registry.threads";
    threads.kind = MetricKind::kGauge;
    threads.value = im.live_threads;
    snap.metrics.push_back(std::move(threads));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void Registry::Reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  // Owned cells are zeroed in place. A thread incrementing concurrently may
  // keep an in-flight add — Reset is an observability convenience, not a
  // linearization point.
  for (size_t i = 0; i < kMaxCounters; ++i) im.retired_counters[i] = 0;
  for (size_t i = 0; i < kMaxHistograms * kHistStride; ++i) im.retired_hist[i] = 0;
  for (ThreadState* t = im.threads; t != nullptr; t = t->next) {
    for (size_t i = 0; i < kMaxCounters; ++i) {
      t->counters[i].store(0, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kMaxHistograms * kHistStride; ++i) {
      t->hist[i].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [id, alias] : im.aliases) {
    alias.reset_base = 0;
    alias.reset_base = alias.source != nullptr ? *alias.source : alias.reader();
  }
}

std::vector<TraceEvent> Registry::TraceSnapshot() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<TraceEvent> events(im.retired_events.begin(), im.retired_events.end());
  for (const ThreadState* t = im.threads; t != nullptr; t = t->next) {
    const uint64_t pos = t->ring_pos.load(std::memory_order_acquire);
    const uint64_t floor = t->clear_floor;
    const uint64_t n = std::min<uint64_t>(pos - floor, kTraceRingCapacity);
    for (uint64_t i = pos - n; i < pos; ++i) {
      events.push_back(t->ring[i & (kTraceRingCapacity - 1)]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  return events;
}

void Registry::ClearTrace() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.retired_events.clear();
  for (ThreadState* t = im.threads; t != nullptr; t = t->next) {
    // clear_floor is only ever read under the registry lock; the owning
    // thread never touches it.
    t->clear_floor = t->ring_pos.load(std::memory_order_acquire);
  }
}

size_t Registry::metric_count() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.owned.size() + im.aliases.size();
}

double Registry::TicksPerSecond() {
#if !defined(__x86_64__)
  return 1e9;  // TraceClock already returns nanoseconds
#else
  static const double cached = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t tsc0 = TraceClock();
    // ~5 ms is enough for <1% calibration error on a constant-rate TSC.
    const auto deadline = wall0 + std::chrono::milliseconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
    }
    const auto wall1 = std::chrono::steady_clock::now();
    const uint64_t tsc1 = TraceClock();
    const double seconds = std::chrono::duration<double>(wall1 - wall0).count();
    if (seconds <= 0 || tsc1 <= tsc0) return 1e9;
    return static_cast<double>(tsc1 - tsc0) / seconds;
  }();
  return cached;
#endif
}

}  // namespace para::telemetry
