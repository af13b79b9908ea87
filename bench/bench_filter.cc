// Packet-filter benchmarks — the paper's safe-migration claim measured on
// the canonical kernel extension (ISSUE 3 / experiment E7 on a real
// workload):
//   * the same compiled rule set executed kSandboxed (SFI run-time checks)
//     vs kTrusted (certified, no checks) vs a host-native matcher, across
//     rule-set sizes — worst case: the packet matches only the last rule;
//   * the stateful fast path: flow-table hit vs full rule evaluation, and
//     behaviour under flow-table pressure (uniform flow churn with
//     working sets below and above capacity);
//   * hot rule-set reload cost (compile + verify + certify + validate), with
//     and without rule procedures.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/random.h"
#include "src/filter/compiler.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/nucleus/cert.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace {

using namespace para;           // NOLINT
using namespace para::filter;   // NOLINT

// Shared crypto state (keygen excluded from timing).
struct CryptoFixture {
  CryptoFixture() {
    para::Random rng(0xF117E2);
    authority = std::make_unique<nucleus::CertificationAuthority>(
        crypto::GenerateKeyPair(1024, rng));
    signer_keys = crypto::GenerateKeyPair(1024, rng);
    grant = authority->Grant("filter-compiler", signer_keys.public_key,
                             nucleus::kCertKernelEligible);
    signer = std::make_unique<nucleus::Certifier>(
        "filter-compiler", signer_keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    service = std::make_unique<nucleus::CertificationService>(authority->public_key());
    PARA_CHECK(service->RegisterGrant(grant).ok());
  }

  static CryptoFixture& Get() {
    static CryptoFixture fixture;
    return fixture;
  }

  std::unique_ptr<nucleus::CertificationAuthority> authority;
  crypto::RsaKeyPair signer_keys;
  nucleus::DelegationGrant grant;
  std::unique_ptr<nucleus::Certifier> signer;
  std::unique_ptr<nucleus::CertificationService> service;
};

// `n` rules none of which match the benchmark packet, then one pass rule
// that does — every evaluation walks the whole set (the worst case) and
// each rule tests proto + dst prefix + port range + one payload byte.
RuleSet WorstCaseRules(size_t n) {
  RuleSet set;
  for (size_t i = 0; i < n; ++i) {
    Rule rule;
    rule.verdict = net::FilterVerdict::kDrop;
    rule.proto = net::kIpProtoUdpLite;
    rule.dst_ip = 0xC0A80000u | static_cast<uint32_t>(i);  // never the packet's
    rule.dst_prefix = 32;
    rule.dport_lo = 1000;
    rule.dport_hi = 2000;
    rule.payload.push_back({0, 0x7F, 0xFF});
    set.rules.push_back(std::move(rule));
  }
  Rule match;
  match.verdict = net::FilterVerdict::kPass;
  match.dst_ip = 0x0A010002;
  match.dst_prefix = 32;
  set.rules.push_back(std::move(match));
  set.default_verdict = net::FilterVerdict::kDrop;
  return set;
}

// `n` rules dominated by non-/32 prefixes and real port ranges — the shapes
// production rule sets are made of, and the ones the PR-4 tree treated as
// wildcards (so this case degenerated to the linear walk). None match the
// bench packet; the one rule that does comes last.
RuleSet PrefixRangeRules(size_t n) {
  RuleSet set;
  for (size_t i = 0; i < n; ++i) {
    Rule rule;
    rule.verdict = net::FilterVerdict::kDrop;
    rule.proto = net::kIpProtoUdpLite;
    // Distinct /16 networks, none of them the packet's 10.1/16.
    rule.dst_ip = 0xC0000000u | (static_cast<uint32_t>(i) << 16);
    rule.dst_prefix = 16;
    // Disjoint 8-port ranges, none containing the packet's dport 1500.
    rule.dport_lo = static_cast<net::Port>(2000 + 8 * i);
    rule.dport_hi = static_cast<net::Port>(2000 + 8 * i + 7);
    set.rules.push_back(std::move(rule));
  }
  Rule match;
  match.verdict = net::FilterVerdict::kPass;
  match.dst_ip = 0x0A010000;
  match.dst_prefix = 16;
  match.dport_lo = 1024;  // overlaps the low drop ranges: real interval work
  match.dport_hi = 2047;
  set.rules.push_back(std::move(match));
  set.default_verdict = net::FilterVerdict::kDrop;
  return set;
}

net::PacketView BenchPacket(const std::vector<uint8_t>& payload) {
  net::PacketView view;
  view.src_ip = 0x0A000001;
  view.dst_ip = 0x0A010002;
  view.src_port = 4321;
  view.dst_port = 1500;
  view.proto = net::kIpProtoUdpLite;
  view.payload = payload;
  return view;
}

// --- the E7 matrix: sandboxed vs trusted vs native, by rule-set size --------

template <sfi::ExecMode kMode>
void BM_FilterVm(benchmark::State& state, CompileBackend backend,
                 RuleSet (*make_rules)(size_t) = WorstCaseRules,
                 sfi::VmBackend vm_backend = sfi::VmBackend::kAuto) {
  RuleSet set = make_rules(static_cast<size_t>(state.range(0)));
  auto compiled = CompileRules(set, {backend});
  PARA_CHECK(compiled.ok());
  auto verified = sfi::Verify(compiled->program);
  PARA_CHECK(verified.ok());
  sfi::Vm vm(&*verified, kMode, vm_backend);
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  for (auto _ : state) {
    WritePacketDescriptor(view, vm.memory(), compiled->payload_bytes_needed);
    auto verdict = vm.Run(0);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
  // Which engine actually served the row — smoke-bench refuses to gate a
  // "JIT" number that silently fell back to the threaded loop.
  state.counters["jit"] = vm.backend() == sfi::VmBackend::kJit ? 1.0 : 0.0;
  if (kMode == sfi::ExecMode::kSandboxed) {
    state.counters["bounds_checks_per_pkt"] =
        static_cast<double>(vm.stats().bounds_checks) /
        static_cast<double>(state.iterations());
  }
}

void BM_FilterSandboxed(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kSandboxed>(state, CompileBackend::kDecisionTree);
}

void BM_FilterTrusted(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kDecisionTree);
}

// The PR-3-era backends, kept measurable: the linear chain isolates what the
// decision tree buys at each rule-set size.
void BM_FilterSandboxedLinear(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kSandboxed>(state, CompileBackend::kLinear);
}

void BM_FilterTrustedLinear(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kLinear);
}

void BM_FilterNative(benchmark::State& state) {
  RuleSet set = WorstCaseRules(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  for (auto _ : state) {
    uint64_t verdict = NativeMatch(set, view);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}

// --- the prefix/range worst case: LPM + interval dispatch -------------------
// Before range-aware dispatch these tied with the Linear rows (every prefix
// and range bucketed as a wildcard); smoke-bench gates the trusted 256-rule
// row against the checked-in baseline.

void BM_FilterTrustedRange(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kDecisionTree,
                                       PrefixRangeRules);
}

void BM_FilterSandboxedRange(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kSandboxed>(state, CompileBackend::kDecisionTree,
                                         PrefixRangeRules);
}

void BM_FilterTrustedRangeLinear(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kLinear, PrefixRangeRules);
}

// Threaded-interpreter comparison rows: the same programs with the JIT
// forced off, so the JIT's contribution to the E7 gap reads off one run.
void BM_FilterTrustedThreaded(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kDecisionTree, WorstCaseRules,
                                       sfi::VmBackend::kThreaded);
}

void BM_FilterTrustedRangeThreaded(benchmark::State& state) {
  BM_FilterVm<sfi::ExecMode::kTrusted>(state, CompileBackend::kDecisionTree,
                                       PrefixRangeRules, sfi::VmBackend::kThreaded);
}

void BM_FilterNativeRange(benchmark::State& state) {
  RuleSet set = PrefixRangeRules(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  for (auto _ : state) {
    uint64_t verdict = NativeMatch(set, view);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}

// Machine-speed probe (same fixed integer loop as BM_SfiCalibrate):
// smoke-bench normalizes the prefix/range gate by the ratio of this across
// runs so the gate compares compiler quality, not machine speed.
void BM_FilterCalibrate(benchmark::State& state) {
  for (auto _ : state) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    benchmark::DoNotOptimize(x);
  }
}

// --- the full engine: flow-table fast path and pressure ---------------------

void BM_FilterEngineFlowHit(benchmark::State& state) {
  // One established flow: after the first packet every evaluation is a
  // flow-table hit — rule-set size does not matter on this path.
  FilterConfig config;
  auto filter = PacketFilter::Create(config);
  PARA_CHECK(filter.ok());
  PARA_CHECK((*filter)->Load(WorstCaseRules(static_cast<size_t>(state.range(0)))).ok());
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  for (auto _ : state) {
    auto decision = (*filter)->Evaluate(view, net::FilterDirection::kIngress);
    benchmark::DoNotOptimize(decision);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}

void BM_FilterEngineFlowPressure(benchmark::State& state) {
  // `range(0)` distinct flows round-robin through a 1024-entry table. Below
  // capacity every packet (after warmup) is a hit; above capacity the LRU
  // churns and evaluations fall back to the classifier.
  FilterConfig config;
  config.flow_capacity = 1024;
  auto filter = PacketFilter::Create(config);
  PARA_CHECK(filter.ok());
  PARA_CHECK((*filter)->Load(WorstCaseRules(16)).ok());
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  uint64_t flows = static_cast<uint64_t>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    view.src_port = static_cast<net::Port>(i % flows);
    ++i;
    auto decision = (*filter)->Evaluate(view, net::FilterDirection::kIngress);
    benchmark::DoNotOptimize(decision);
  }
  const auto& flow_stats = (*filter)->flows().stats();
  state.counters["distinct_flows"] = static_cast<double>(flows);
  state.counters["hit_rate"] =
      static_cast<double>(flow_stats.hits) /
      static_cast<double>(flow_stats.hits + flow_stats.misses);
  state.counters["evictions"] = static_cast<double>(flow_stats.evictions);
}

// --- rule procedures: chain cost on the flow-hit fast path -------------------
// A rule's attached procedures run on every packet of an established flow,
// so their cost lands on the hottest path the engine has. The no-chain row
// is the baseline the smoke gate holds the plain kPass path to; the
// ratelimit rows price one token-bucket procedure; the chain rows price a
// three-procedure chain (ratelimit + normalize + sampled log), sandboxed vs
// certified-trusted. The bucket refills exactly as fast as it drains (one
// token per evaluation tick through the no-clock fallback), so every packet
// takes the admit path — the expensive one.

void BM_FilterProcEngine(benchmark::State& state, const char* rule_text, bool certified) {
  auto rules = ParseRules(rule_text);
  PARA_CHECK(rules.ok());
  auto filter = PacketFilter::Create({});
  PARA_CHECK(filter.ok());
  if (certified) {
    auto& fx = CryptoFixture::Get();
    PARA_CHECK((*filter)->LoadCertified(*rules, *fx.signer, *fx.service).ok());
  } else {
    PARA_CHECK((*filter)->Load(*rules).ok());
  }
  std::vector<uint8_t> payload(64, 0x42);
  net::PacketView view = BenchPacket(payload);
  for (auto _ : state) {
    auto decision = (*filter)->Evaluate(view, net::FilterDirection::kIngress);
    benchmark::DoNotOptimize(decision);
  }
  const FilterStats& stats = (*filter)->stats();
  state.counters["procs_per_pkt"] = static_cast<double>(stats.proc_invocations) /
                                    static_cast<double>(state.iterations());
  state.counters["proc_blocks"] = static_cast<double>(stats.proc_blocks);
}

constexpr const char* kNoChainRules = "pass dport 1500\ndefault drop\n";
constexpr const char* kRateLimitRules =
    "pass dport 1500 proc ratelimit(rate=1000000000,burst=16)\ndefault drop\n";
constexpr const char* kProcChainRules =
    "pass dport 1500 proc ratelimit(rate=1000000000,burst=16) "
    "proc normalize(ttl=64) proc log(every=64)\ndefault drop\n";

void BM_FilterProcNone(benchmark::State& state) {
  BM_FilterProcEngine(state, kNoChainRules, /*certified=*/false);
}

void BM_FilterRateLimitSandboxed(benchmark::State& state) {
  BM_FilterProcEngine(state, kRateLimitRules, /*certified=*/false);
}

void BM_FilterRateLimitTrusted(benchmark::State& state) {
  BM_FilterProcEngine(state, kRateLimitRules, /*certified=*/true);
}

void BM_FilterProcChainSandboxed(benchmark::State& state) {
  BM_FilterProcEngine(state, kProcChainRules, /*certified=*/false);
}

void BM_FilterProcChainTrusted(benchmark::State& state) {
  BM_FilterProcEngine(state, kProcChainRules, /*certified=*/true);
}

// --- batched verdicts: amortized VM entry ------------------------------------
// The same 256-rule certified-trusted prefix/range set, evaluated one packet
// at a time vs in EvaluateBatch bursts. Flow tracking is off so every packet
// runs the classifier — the path batching amortizes (descriptor marshal up
// front, one CallMany trampoline entry per chunk: the host round trip and
// the native prologue paid once per chunk instead of once per packet).
// Evaluate is a chunk of one, so BM_FilterBatchSingle pays the per-chunk
// entry once per packet.
// Compare per-item times: the acceptance bar is BM_FilterBatch/32 ≥1.5×
// faster per packet than BM_FilterBatchSingle.

struct BatchBenchSetup {
  std::unique_ptr<PacketFilter> filter;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<net::PacketView> views;
};

BatchBenchSetup MakeBatchBench(size_t batch, size_t shards) {
  BatchBenchSetup setup;
  FilterConfig config;
  config.shards = shards;
  config.track_flows = false;  // every packet exercises the classifier
  auto filter = PacketFilter::Create(std::move(config));
  PARA_CHECK(filter.ok());
  auto& fx = CryptoFixture::Get();
  PARA_CHECK(
      (*filter)->LoadCertified(PrefixRangeRules(256), *fx.signer, *fx.service).ok());
  setup.filter = std::move(*filter);
  setup.payloads.reserve(batch);
  setup.views.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    auto& payload = setup.payloads.emplace_back(64, uint8_t{0x42});
    net::PacketView view = BenchPacket(payload);
    view.src_port = static_cast<net::Port>(4000 + i);  // distinct conversations
    setup.views.push_back(view);
  }
  return setup;
}

void BM_FilterBatch(benchmark::State& state) {
  auto setup = MakeBatchBench(static_cast<size_t>(state.range(0)), /*shards=*/1);
  std::vector<net::FilterDecision> decisions(setup.views.size());
  for (auto _ : state) {
    setup.filter->EvaluateBatch(setup.views, net::FilterDirection::kIngress, decisions);
    benchmark::DoNotOptimize(decisions.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(setup.views.size()));
  state.counters["jit"] =
      setup.filter->exec_backend() == sfi::VmBackend::kJit ? 1.0 : 0.0;
}

// The single-Evaluate comparison row over the identical packet sequence.
void BM_FilterBatchSingle(benchmark::State& state) {
  auto setup = MakeBatchBench(static_cast<size_t>(state.range(0)), /*shards=*/1);
  for (auto _ : state) {
    for (const auto& view : setup.views) {
      auto decision = setup.filter->Evaluate(view, net::FilterDirection::kIngress);
      benchmark::DoNotOptimize(decision);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(setup.views.size()));
  state.counters["jit"] =
      setup.filter->exec_backend() == sfi::VmBackend::kJit ? 1.0 : 0.0;
}

// --- sharded data plane: per-RX-queue scaling --------------------------------
// N benchmark threads drive one filter with N shards, each thread feeding
// bursts whose conversations pre-steer to its own shard — the one-queue-per-
// shard deployment, with hardware RSS stood in for by SteerShard. Real-time
// items/s across the rows is the scaling curve (acceptance: 4 shards ≥3×
// one shard).

struct ShardedBenchState {
  std::unique_ptr<PacketFilter> filter;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::vector<net::PacketView>> per_shard;
};
ShardedBenchState g_sharded;  // created in Setup, before threads spawn

void ShardedSetup(const benchmark::State& state) {
  const auto shards = static_cast<size_t>(state.threads());
  FilterConfig config;
  config.shards = shards;
  config.track_flows = false;
  auto filter = PacketFilter::Create(std::move(config));
  PARA_CHECK(filter.ok());
  auto& fx = CryptoFixture::Get();
  PARA_CHECK(
      (*filter)->LoadCertified(PrefixRangeRules(256), *fx.signer, *fx.service).ok());
  g_sharded.filter = std::move(*filter);
  g_sharded.per_shard.assign(shards, {});
  constexpr size_t kBurst = 32;
  uint32_t salt = 0;
  for (size_t s = 0; s < shards; ++s) {
    while (g_sharded.per_shard[s].size() < kBurst) {
      auto& payload = g_sharded.payloads.emplace_back(64, uint8_t{0x42});
      net::PacketView view = BenchPacket(payload);
      view.src_ip = 0x0A000001 + salt++;
      if (g_sharded.filter->SteerShard(view) == s) {
        g_sharded.per_shard[s].push_back(view);
      } else {
        g_sharded.payloads.pop_back();
      }
    }
  }
}

void ShardedTeardown(const benchmark::State&) { g_sharded = ShardedBenchState{}; }

void BM_FilterSharded(benchmark::State& state) {
  PacketFilter& filter = *g_sharded.filter;
  const auto& mine = g_sharded.per_shard[static_cast<size_t>(state.thread_index())];
  std::vector<net::FilterDecision> decisions(mine.size());
  for (auto _ : state) {
    filter.EvaluateBatch(mine, net::FilterDirection::kIngress, decisions);
    benchmark::DoNotOptimize(decisions.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(mine.size()));
  state.counters["shards"] = benchmark::Counter(static_cast<double>(state.threads()),
                                                benchmark::Counter::kAvgThreads);
}

// --- hot reload cost ---------------------------------------------------------

void BM_FilterReloadSandboxed(benchmark::State& state) {
  auto filter = PacketFilter::Create({});
  PARA_CHECK(filter.ok());
  RuleSet set = WorstCaseRules(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    PARA_CHECK((*filter)->Load(set).ok());
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}

void BM_FilterReloadCertified(benchmark::State& state) {
  // Compile + verify + sign + kernel validation: the one-time cost trusted
  // execution amortizes (cf. BM_CertificationCrossover in
  // bench_certification.cc).
  auto& fx = CryptoFixture::Get();
  auto filter = PacketFilter::Create({});
  PARA_CHECK(filter.ok());
  RuleSet set = WorstCaseRules(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    PARA_CHECK((*filter)->LoadCertified(set, *fx.signer, *fx.service).ok());
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}

// The end-to-end rx rule shape: of `n` prefix/range rules 30% drop, and 45
// of the passing ones attach `proc count proc log(every=64)` — 90 procedure
// instances of two distinct programs.
RuleSet ProcRules(size_t n) {
  RuleSet set = PrefixRangeRules(n);
  size_t with_procs = 0;
  for (size_t i = 0; i < set.rules.size(); ++i) {
    Rule& rule = set.rules[i];
    rule.verdict = i % 10 < 3 ? net::FilterVerdict::kDrop : net::FilterVerdict::kPass;
    if (rule.verdict == net::FilterVerdict::kPass && with_procs < 45 && i % 3 == 0) {
      rule.procs.push_back({"count", {}});
      rule.procs.push_back({"log", {{"every", 64}}});
      ++with_procs;
    }
  }
  return set;
}

void BM_FilterReloadCertifiedProcs(benchmark::State& state) {
  // A certified reload of rules that carry procedures: the classifier plus
  // one certificate per distinct procedure program.
  auto& fx = CryptoFixture::Get();
  auto filter = PacketFilter::Create({});
  PARA_CHECK(filter.ok());
  RuleSet set = ProcRules(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    PARA_CHECK((*filter)->LoadCertified(set, *fx.signer, *fx.service).ok());
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
  size_t instances = 0;
  for (const PacketFilter::ProcChain& chain : (*filter)->chains()) {
    instances += chain.size();
  }
  state.counters["proc_instances"] = static_cast<double>(instances);
}

void RuleSetSizes(benchmark::internal::Benchmark* bench) {
  for (long rules : {4L, 16L, 64L, 256L}) {
    bench->Arg(rules);
  }
}

BENCHMARK(BM_FilterSandboxed)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrusted)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterSandboxedLinear)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrustedLinear)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterNative)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrustedRange)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterSandboxedRange)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrustedRangeLinear)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrustedThreaded)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterTrustedRangeThreaded)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterNativeRange)->Apply(RuleSetSizes);
BENCHMARK(BM_FilterCalibrate);
BENCHMARK(BM_FilterEngineFlowHit)->Arg(16)->Arg(256);
BENCHMARK(BM_FilterEngineFlowPressure)->Arg(16)->Arg(512)->Arg(4096);
BENCHMARK(BM_FilterProcNone);
BENCHMARK(BM_FilterRateLimitSandboxed);
BENCHMARK(BM_FilterRateLimitTrusted);
BENCHMARK(BM_FilterProcChainSandboxed);
BENCHMARK(BM_FilterProcChainTrusted);
BENCHMARK(BM_FilterBatch)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_FilterBatchSingle)->Arg(32);
BENCHMARK(BM_FilterSharded)
    ->Setup(ShardedSetup)
    ->Teardown(ShardedTeardown)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_FilterReloadSandboxed)->Arg(16)->Arg(256);
BENCHMARK(BM_FilterReloadCertified)->Arg(16)->Arg(256);
BENCHMARK(BM_FilterReloadCertifiedProcs)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
