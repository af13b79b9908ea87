// End-to-end benchmark harness. One process runs one workload:
//
//   para_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--quick] [--self-test] [--trace-out <file>] [--git-sha <sha>]
//
// The run sets the workload up kSetups times (setup_s is the median), runs
// kWarmupSeconds of closed-loop items, then measures `seconds` in
// kWindowSeconds windows. --quick (smoke runs only) sets up once and warms
// up for kQuickWarmupSeconds. On a shared host the processor's speed drifts
// by several percent from one minute to the next, so a host-speed probe
// (ProbeNs) runs before each set-up and after each window, and every
// end-to-end time is scaled by it to the reference speed. Interference that
// the probe misses (a neighbour contending for cache or memory, vCPU
// stalls) only ever slows a window down, and on a busy host most windows
// can be slowed, so the run reports what the system sustains in its
// quietest kQuietShare of windows: items_per_s is that upper percentile of
// the window rates, op_p50_us (and the report's p99) that lower percentile
// of the per-window median (and p99). The last stdout line is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Lines before it (prefixed '#') are the human report. A run
// in which any outcome disagreed with the oracle still prints the result
// line ("correct": false), then exits 3.
//
// A traced run keeps two test beds: the plain one and a traced one with
// spans, interposers, wrapped hooks and event stamps installed. Windows
// alternate between them, so trace.overhead_pct compares the two under the
// same conditions, and the per-layer numbers come from the traced windows.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/e2e/src/harness.h"
#include "bench/e2e/src/workload.h"
#include "src/base/log.h"
#include "src/sfi/jit.h"

namespace para::e2e {

void RunWarmupItems(Testbed& bed, uint64_t count, SetupTimes* times) {
  const uint64_t t0 = Ticks();
  for (uint64_t i = 0; i < count; ++i) {
    bed.Prepare();
    bed.Execute();
    const Outcome outcome = bed.Check();
    times->warmup_units += outcome.units;
    times->warmup_failures += outcome.failures;
  }
  times->warmup_ms = MsSince(t0);
}

namespace {

constexpr int kSetups = 20;
constexpr double kWarmupSeconds = 2.0;
constexpr double kQuickWarmupSeconds = 0.5;
// Share of windows the reported values come from: the quietest 30 of the
// 300 windows of a 15-s run, so that no single odd window decides them.
constexpr double kQuietShare = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  bool quick = false;
  bool self_test = false;
  std::string trace_out;
  std::string git_sha = "n/a";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 1;
}

struct Totals {
  uint64_t units = 0;
  uint64_t failures = 0;
};

struct WindowResult {
  bool traced = false;
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t units = 0;
  uint64_t op_ticks = 0;  // sum of item durations
  double p50_us = 0;
  double p99_us = 0;
  double probe_ns = 0;  // ProbeNs() right after the window
};

// Runs closed-loop items on `bed` for `duration_ticks`, then the host-speed
// probe. `tracer` (traced bed only) opens the root span on the same
// timestamps the latency sample uses.
WindowResult RunWindow(Testbed& bed, Tracer* tracer, uint64_t duration_ticks,
                       LatencyWindow& latency, Totals& totals) {
  WindowResult w;
  w.traced = tracer != nullptr;
  latency.Clear();
  const uint64_t start = Ticks();
  const uint64_t deadline = start + duration_ticks;
  uint64_t end = start;
  while (end < deadline) {
    bed.Prepare();
    const uint64_t t0 = Ticks();
    if (tracer != nullptr) {
      tracer->BeginRoot(t0);
    }
    bed.Execute();
    end = Ticks();
    if (tracer != nullptr) {
      tracer->EndRoot(end);
    }
    const Outcome outcome = bed.Check();
    latency.Add(end - t0);
    w.op_ticks += end - t0;
    ++w.ops;
    w.units += outcome.units;
    totals.units += outcome.units;
    totals.failures += outcome.failures;
  }
  w.seconds = TicksToNs(static_cast<double>(Ticks() - start)) / 1e9;
  w.p50_us = TicksToNs(Quantile(latency.samples(), 0.50)) / 1e3;
  w.p99_us = TicksToNs(Quantile(latency.samples(), 0.99)) / 1e3;
  w.probe_ns = ProbeNs();
  return w;
}

void PrintMetric(bool* first, std::string_view name, double value, std::string_view unit) {
  std::printf("%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}", *first ? "" : ", ",
              static_cast<int>(name.size()), name.data(), value, static_cast<int>(unit.size()),
              unit.data());
  *first = false;
}

// The spread of one per-window value, and the value the run reports.
void PrintWindowSpread(const char* what, const std::vector<double>& values, double reported) {
  std::printf("#   %-8s min %.6g  p10 %.6g  median %.6g  p90 %.6g  max %.6g  -> %.6g\n", what,
              Percentile(values, 0.0), Percentile(values, 0.1), Median(values),
              Percentile(values, 0.9), Percentile(values, 1.0), reported);
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

void PrintSelfTimeTable(const Tracer& tracer, const char* workload, uint64_t ops) {
  const double root = static_cast<double>(tracer.agg(SpanId::kRoot).total_ticks);
  std::printf("# self-time table: %s, %llu traced items\n", workload,
              static_cast<unsigned long long>(ops));
  std::printf("#   %-34s %10s %14s %14s %8s %12s\n", "span", "calls/item", "total ns/item",
              "self ns/item", "self %", "allocs/item");
  for (size_t i = 0; i < kSpanCount; ++i) {
    const SpanAgg& a = tracer.agg(static_cast<SpanId>(i));
    if (a.count == 0) {
      continue;
    }
    const double n = static_cast<double>(ops);
    std::printf("#   %-34s %10.3f %14.1f %14.1f %8.2f %12.3f\n", SpanName(static_cast<SpanId>(i)),
                static_cast<double>(a.count) / n,
                TicksToNs(static_cast<double>(a.total_ticks)) / n,
                TicksToNs(static_cast<double>(a.self_ticks)) / n,
                100.0 * static_cast<double>(a.self_ticks) / root,
                static_cast<double>(a.self_allocs) / n);
  }
  std::printf("#   coverage (sum of self / root): %.3f%%\n", tracer.CoveragePct());
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 1;
  }

  std::printf("# env: workload=%s seed=%llu seconds=%d trace=%d nproc=%ld "
              "PARA_SFI_NO_JIT=%s PARA_FILTER_SHARDS=%s git_sha=%s tsc_ghz=%.4f\n",
              workload->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), EnvOr("PARA_SFI_NO_JIT", "unset"),
              EnvOr("PARA_FILTER_SHARDS", "unset"), args.git_sha.c_str(), TicksPerNs());

  // Set-up, repeated; the last bed is the one measured.
  BedOptions options;
  options.seed = args.seed;
  options.self_test = args.self_test;
  Totals totals;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;  // scaled to the reference host speed
  std::unique_ptr<Testbed> plain;
  const int setup_count = args.quick ? 1 : kSetups;
  for (int k = 0; k < setup_count; ++k) {
    plain.reset();
    SetupTimes times;
    const double probe_ns = ProbeNs();
    Result<std::unique_ptr<Testbed>> bed = workload->create(options, &times);
    if (!bed.ok()) {
      std::fprintf(stderr, "set-up failed: %.*s\n",
                   static_cast<int>(bed.status().message().size()), bed.status().message().data());
      return 2;
    }
    plain = std::move(*bed);
    totals.units += times.warmup_units;
    totals.failures += times.warmup_failures;
    setups.push_back(times);
    setup_s.push_back(times.total_s() * kProbeReferenceNs / probe_ns);
  }

  const Pinned pinned = plain->pinned();
  const bool jit_available = sfi::JitAvailable();
  std::printf("# pinned: filter_shards=%zu jit_available=%d classifier=%s\n",
              pinned.filter_shards, jit_available ? 1 : 0,
              !pinned.has_classifier ? "none" : pinned.classifier_on_jit ? "jit" : "threaded");
  if (pinned.has_classifier && jit_available && !pinned.classifier_on_jit) {
    std::fprintf(stderr, "the JIT is available but the classifier is not on it\n");
    return 5;
  }

  Tracer tracer;
  std::unique_ptr<Testbed> traced;
  if (args.trace) {
    BedOptions traced_options = options;
    traced_options.tracer = &tracer;
    SetupTimes times;
    Result<std::unique_ptr<Testbed>> bed = workload->create(traced_options, &times);
    if (!bed.ok()) {
      std::fprintf(stderr, "traced set-up failed: %.*s\n",
                   static_cast<int>(bed.status().message().size()), bed.status().message().data());
      return 2;
    }
    traced = std::move(*bed);
    totals.units += times.warmup_units;
    totals.failures += times.warmup_failures;
  }

  LatencyWindow latency;
  const uint64_t warmup_ticks =
      NsToTicks((args.quick ? kQuickWarmupSeconds : kWarmupSeconds) * 1e9);
  RunWindow(*plain, nullptr, warmup_ticks, latency, totals);
  if (traced != nullptr) {
    tracer.set_enabled(true);
    RunWindow(*traced, &tracer, warmup_ticks, latency, totals);
    tracer.set_enabled(false);
    tracer.ResetAggregates();
    traced->BeginMeasure();
  }
  plain->BeginMeasure();

  const uint64_t window_ticks = NsToTicks(kWindowSeconds * 1e9);
  const auto window_count = static_cast<int>(args.seconds / kWindowSeconds + 0.5);
  std::vector<WindowResult> windows;
  for (int w = 0; w < window_count; ++w) {
    const bool use_traced = traced != nullptr && w % 2 == 1;
    Testbed& bed = use_traced ? *traced : *plain;
    bed.OnWindowStart();
    tracer.set_enabled(use_traced);
    windows.push_back(RunWindow(bed, use_traced ? &tracer : nullptr, window_ticks, latency, totals));
    tracer.set_enabled(false);
  }

  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> raw_rates;
  std::vector<double> probes;
  uint64_t plain_ops = 0;
  uint64_t plain_ticks = 0;
  uint64_t traced_ops = 0;
  uint64_t traced_units = 0;
  uint64_t traced_ticks = 0;
  for (const WindowResult& r : windows) {
    probes.push_back(r.probe_ns);
    if (r.traced) {
      traced_ops += r.ops;
      traced_units += r.units;
      traced_ticks += r.op_ticks;
      continue;
    }
    const double scale = r.probe_ns / kProbeReferenceNs;  // > 1 while the host runs slow
    raw_rates.push_back(static_cast<double>(r.units) / r.seconds);
    rates.push_back(raw_rates.back() * scale);
    p50s.push_back(r.p50_us / scale);
    p99s.push_back(r.p99_us / scale);
    plain_ops += r.ops;
    plain_ticks += r.op_ticks;
  }
  const double fail_ratio =
      totals.units > 0 ? static_cast<double>(totals.failures) / static_cast<double>(totals.units)
                       : 1.0;
  std::printf("# windows: %zu x %.2f s untraced, %llu timed ops\n", rates.size(), kWindowSeconds,
              static_cast<unsigned long long>(plain_ops));
  const double items_per_s = Percentile(rates, 1.0 - kQuietShare);
  const double op_p50_us = Percentile(p50s, kQuietShare);
  const double op_p99_us = Percentile(p99s, kQuietShare);
  std::printf("#   probe_ns min %.6g  median %.6g  max %.6g  (reference %.6g; values below are "
              "scaled by it, except raw i/s)\n",
              Percentile(probes, 0.0), Median(probes), Percentile(probes, 1.0), kProbeReferenceNs);
  PrintWindowSpread("raw i/s", raw_rates, Percentile(raw_rates, 1.0 - kQuietShare));
  PrintWindowSpread("items/s", rates, items_per_s);
  PrintWindowSpread("p50_us", p50s, op_p50_us);
  PrintWindowSpread("p99_us", p99s, op_p99_us);
  std::printf("# oracle: attempted=%llu failed=%llu fail_ratio=%.6g\n",
              static_cast<unsigned long long>(totals.units),
              static_cast<unsigned long long>(totals.failures), fail_ratio);

  int status = 0;
  LayerValues layers;
  if (traced != nullptr) {
    traced->ReportLayers(traced_units, layers);
    traced->TimeControlPlane(layers);
    auto median_of = [&setups](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : setups) {
        v.push_back(t.*field);
      }
      return Median(std::move(v));
    };
    layers[Layer::kSetupBootMs] = median_of(&SetupTimes::boot_ms);
    layers[Layer::kSetupKeygenMs] = median_of(&SetupTimes::keygen_ms);
    layers[Layer::kSetupLoadCertifiedMs] = median_of(&SetupTimes::load_certified_ms);
    layers[Layer::kSetupWarmupMs] = median_of(&SetupTimes::warmup_ms);
    const double plain_mean = static_cast<double>(plain_ticks) / static_cast<double>(plain_ops);
    const double traced_mean =
        static_cast<double>(traced_ticks) / static_cast<double>(traced_ops);
    layers[Layer::kTraceOverheadPct] = 100.0 * (traced_mean / plain_mean - 1.0);
    layers[Layer::kTraceCoveragePct] = tracer.CoveragePct();
    layers[Layer::kHostCalibrateNs] = Median(probes);
    PrintSelfTimeTable(tracer, workload->name, traced_ops);
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    const double coverage = tracer.CoveragePct();
    if (coverage < 98.0 || coverage > 102.0 || tracer.stray() != 0) {
      std::fprintf(stderr, "trace check failed: coverage %.3f%% (want 98-102), %llu stray spans\n",
                   coverage, static_cast<unsigned long long>(tracer.stray()));
      status = 4;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              totals.failures == 0 ? "true" : "false",
              static_cast<unsigned long long>(totals.units),
              static_cast<unsigned long long>(totals.failures));
  bool first = true;
  if (traced == nullptr) {
    const double values[] = {items_per_s, op_p50_us, Median(setup_s), PeakRssMb()};
    static_assert(sizeof(values) / sizeof(values[0]) == std::size(kEndToEnd));
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      PrintMetric(&first, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  } else {
    for (size_t i = 0; i < kLayerCount; ++i) {
      PrintMetric(&first, kPerLayer[i].name, layers.value[i], kPerLayer[i].unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);

  if (args.self_test) {
    // The oracle must have caught the corrupted expectation.
    return totals.failures > 0 ? 0 : 6;
  }
  if (totals.failures > 0) {
    std::fprintf(stderr, "%llu of %llu outcomes disagree with the oracle\n",
                 static_cast<unsigned long long>(totals.failures),
                 static_cast<unsigned long long>(totals.units));
    return 3;
  }
  return status;
}

}  // namespace
}  // namespace para::e2e

int main(int argc, char** argv) {
  para::e2e::Args args;
  if (!para::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: para_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--quick] [--self-test] [--trace-out <file>] [--git-sha <sha>]\n");
    return 1;
  }
  para::Logger::Get().set_min_level(para::LogLevel::kError);
  return para::e2e::Run(args);
}
