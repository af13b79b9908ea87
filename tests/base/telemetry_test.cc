// Telemetry substrate tests: per-thread cell merging, log2 bucket edges,
// trace-ring wraparound, alias lifecycle, and the PARA_NO_TELEMETRY arm.
//
// The registry is process-global and owned names are never reclaimed, so
// every test uses its own `para.test.*` names. The whole file is written to
// pass under both builds: value assertions sit behind `telemetry::kEnabled`,
// and the kill-switch build checks the no-op contract instead.
#include "src/base/telemetry.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace para::telemetry {
namespace {

TEST(TelemetryCounter, MergesAcrossThreads) {
  Counter counter = Registry::Get().counter("para.test.merge");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (int n = 0; n < kIncrements; ++n) counter.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  // The spawned threads have retired; their cells must have been folded in.
  if constexpr (kEnabled) {
    EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kIncrements);
  } else {
    EXPECT_EQ(counter.Value(), 0u);
  }
}

TEST(TelemetryCounter, SnapshotIsMonotonicUnderConcurrentIncrements) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  Counter counter = Registry::Get().counter("para.test.monotonic");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) counter.Add(3);
  });
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t now = counter.Value();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true);
  writer.join();
}

TEST(TelemetryCounter, IncAndCountIsAPerThreadSequence) {
  Counter counter = Registry::Get().counter("para.test.seq");
  if constexpr (kEnabled) {
    // Run on a fresh thread so this test owns the cell from zero.
    std::thread([&counter] {
      EXPECT_EQ(counter.IncAndCount(), 1u);
      EXPECT_EQ(counter.IncAndCount(), 2u);
      EXPECT_EQ(counter.IncAndCount(), 3u);
    }).join();
  } else {
    EXPECT_EQ(counter.IncAndCount(), 0u);
  }
}

TEST(TelemetryCounter, SameNameYieldsSameMetric) {
  Counter a = Registry::Get().counter("para.test.samename");
  Counter b = Registry::Get().counter("para.test.samename");
  a.Add(5);
  b.Add(7);
  if constexpr (kEnabled) {
    EXPECT_EQ(a.Value(), 12u);
    EXPECT_EQ(b.Value(), 12u);
  }
}

TEST(TelemetryCounter, KindConflictYieldsInertHandle) {
  Counter counter = Registry::Get().counter("para.test.kindclash");
  ASSERT_TRUE(counter.valid());
  Histogram clash = Registry::Get().histogram("para.test.kindclash");
  EXPECT_FALSE(clash.valid());
  clash.Record(99);  // must be a no-op, not a write into someone else's cell
  EXPECT_EQ(clash.Value().count, 0u);
}

TEST(TelemetryHistogram, BucketBoundariesAreExactPowersOfTwo) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  Histogram hist = Registry::Get().histogram("para.test.buckets");
  // Bucket i holds samples of bit width i: 0 -> bucket 0, [2^(i-1), 2^i - 1]
  // -> bucket i. Probe every edge of the first few buckets plus the top.
  hist.Record(0);                        // bucket 0
  hist.Record(1);                        // bucket 1
  hist.Record(2);                        // bucket 2 low edge
  hist.Record(3);                        // bucket 2 high edge
  hist.Record(4);                        // bucket 3 low edge
  hist.Record(7);                        // bucket 3 high edge
  hist.Record(8);                        // bucket 4
  hist.Record((uint64_t{1} << 63) - 1);  // bucket 63 high edge
  hist.Record(uint64_t{1} << 63);        // bucket 64 (top)
  hist.Record(~uint64_t{0});             // bucket 64
  const HistogramValue v = hist.Value();
  EXPECT_EQ(v.buckets[0], 1u);
  EXPECT_EQ(v.buckets[1], 1u);
  EXPECT_EQ(v.buckets[2], 2u);
  EXPECT_EQ(v.buckets[3], 2u);
  EXPECT_EQ(v.buckets[4], 1u);
  EXPECT_EQ(v.buckets[63], 1u);
  EXPECT_EQ(v.buckets[64], 2u);
  EXPECT_EQ(v.count, 10u);
}

TEST(TelemetryHistogram, SumAndCountMergeAcrossThreads) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  Histogram hist = Registry::Get().histogram("para.test.histsum");
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&hist] {
      for (uint64_t v = 1; v <= 100; ++v) hist.Record(v);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramValue v = hist.Value();
  EXPECT_EQ(v.count, 400u);
  EXPECT_EQ(v.sum, 4u * (100u * 101u / 2));
}

TEST(TelemetryTrace, RingWrapsKeepingTheNewestEvents) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  // A dedicated thread owns a private ring, so the wraparound arithmetic is
  // observable without interference from other tests' events.
  std::thread([] {
    constexpr uint64_t kOverflow = 100;
    const uint64_t total = detail::kTraceRingCapacity + kOverflow;
    for (uint64_t i = 0; i < total; ++i) {
      PARA_TRACE_INSTANT("para.test.wrap", i);
    }
    std::vector<TraceEvent> events = Registry::Get().TraceSnapshot();
    std::vector<uint64_t> args;
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name) == "para.test.wrap") args.push_back(e.arg);
    }
    // Exactly one ring of the *newest* events survives, still in order.
    ASSERT_EQ(args.size(), detail::kTraceRingCapacity);
    EXPECT_EQ(args.front(), kOverflow);
    EXPECT_EQ(args.back(), total - 1);
    EXPECT_TRUE(std::is_sorted(args.begin(), args.end()));
  }).join();
}

TEST(TelemetryTrace, SpanEmitsPairedBeginEnd) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  std::thread([] {
    {
      PARA_TRACE_SCOPE_ARG("para.test.span", 7);
      PARA_TRACE_INSTANT("para.test.span.inner", 1);
    }
    std::vector<TraceEvent> events = Registry::Get().TraceSnapshot();
    std::vector<TraceEvent> ours;
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name).starts_with("para.test.span")) ours.push_back(e);
    }
    ASSERT_EQ(ours.size(), 3u);
    EXPECT_EQ(ours[0].phase, TracePhase::kBegin);
    EXPECT_EQ(ours[0].arg, 7u);
    EXPECT_EQ(ours[1].phase, TracePhase::kInstant);
    EXPECT_EQ(ours[2].phase, TracePhase::kEnd);
    EXPECT_LE(ours[0].ts, ours[2].ts);
    EXPECT_EQ(ours[0].tid, ours[2].tid);
  }).join();
}

TEST(TelemetryTrace, ClearTraceDropsCommittedEvents) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  PARA_TRACE_INSTANT("para.test.cleared", 1);
  Registry::Get().ClearTrace();
  PARA_TRACE_INSTANT("para.test.kept", 2);
  std::vector<TraceEvent> events = Registry::Get().TraceSnapshot();
  bool saw_cleared = false;
  bool saw_kept = false;
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == "para.test.cleared") saw_cleared = true;
    if (std::string_view(e.name) == "para.test.kept") saw_kept = true;
  }
  EXPECT_FALSE(saw_cleared);
  EXPECT_TRUE(saw_kept);
}

uint64_t SnapshotValue(const Snapshot& snap, std::string_view name, bool* found = nullptr) {
  for (const MetricValue& mv : snap.metrics) {
    if (mv.name == name) {
      if (found != nullptr) *found = true;
      return mv.value;
    }
  }
  if (found != nullptr) *found = false;
  return 0;
}

TEST(TelemetryAlias, PointerAliasTracksSourceAndUnregisters) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  uint64_t source = 5;
  {
    ScopedMetricGroup group;
    group.Counter("para.test.alias", &source);
    EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.alias"), 5u);
    source = 9;
    EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.alias"), 9u);
  }
  bool found = true;
  SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.alias", &found);
  EXPECT_FALSE(found);  // group destruction removed the alias
}

TEST(TelemetryAlias, ResetRebasesAliasesWithoutTouchingTheSource) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  uint64_t source = 100;
  ScopedMetricGroup group;
  group.Counter("para.test.rebase", &source);
  Registry::Get().Reset();
  // The component's own field keeps counting; the registry view restarts.
  EXPECT_EQ(source, 100u);
  EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.rebase"), 0u);
  source += 3;
  EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.rebase"), 3u);
}

TEST(TelemetryAlias, DuplicateNamesAreDeduped) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  uint64_t first = 1;
  uint64_t second = 2;
  ScopedMetricGroup a;
  ScopedMetricGroup b;
  a.Counter("para.test.dup", &first);
  b.Counter("para.test.dup", &second);
  const Snapshot snap = Registry::Get().TakeSnapshot();
  EXPECT_EQ(SnapshotValue(snap, "para.test.dup"), 1u);
  EXPECT_EQ(SnapshotValue(snap, "para.test.dup#2"), 2u);
}

TEST(TelemetryAlias, FunctionAliasIsReadAtSnapshotTime) {
  if constexpr (!kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  uint64_t calls = 0;
  ScopedMetricGroup group;
  group.Fn("para.test.fnalias", [&calls] { return ++calls * 10; }, MetricKind::kGauge);
  EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.fnalias"), 10u);
  EXPECT_EQ(SnapshotValue(Registry::Get().TakeSnapshot(), "para.test.fnalias"), 20u);
}

TEST(TelemetryRegistry, SnapshotIsSortedAndCarriesCalibration) {
  const Snapshot snap = Registry::Get().TakeSnapshot();
  EXPECT_GT(snap.ticks_per_second, 0.0);
  EXPECT_TRUE(std::is_sorted(
      snap.metrics.begin(), snap.metrics.end(),
      [](const MetricValue& x, const MetricValue& y) { return x.name < y.name; }));
  bool found = false;
  SnapshotValue(snap, "telemetry.registry.threads", &found);
  EXPECT_TRUE(found);
}

TEST(TelemetryKillSwitch, DisabledBuildCompilesToNoOps) {
  if constexpr (kEnabled) GTEST_SKIP() << "built with telemetry on";
  // Under PARA_NO_TELEMETRY the macros expand to nothing and handle
  // operations return zeroes; the registry itself still answers.
  PARA_TRACE_SCOPE("para.test.noop");
  PARA_TRACE_INSTANT("para.test.noop", 1);
  Counter counter = Registry::Get().counter("para.test.noop.counter");
  counter.Add(100);
  EXPECT_EQ(counter.Value(), 0u);
  Histogram hist = Registry::Get().histogram("para.test.noop.hist");
  hist.Record(5);
  EXPECT_EQ(hist.Value().count, 0u);
  EXPECT_TRUE(Registry::Get().TraceSnapshot().empty());
}

TEST(TelemetryKillSwitch, DefaultConstructedHandlesAreInert) {
  Counter counter;
  Histogram hist;
  counter.Add(1);
  hist.Record(1);
  EXPECT_FALSE(counter.valid());
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(hist.Value().count, 0u);
}

}  // namespace
}  // namespace para::telemetry
