// rx_established and rx_churn: pre-encapsulated 64-byte frames fed to
// ProtocolStack::OnFrameBurst in bursts of 32 through the certified
// filter's batch hook, with a 256-rule prefix/range set (~30% drop rules, a
// quarter of the pass rules carrying `proc count() proc log(every=64)`).
//
//  * rx_established: 4096 flows with Zipf(1.0) popularity into an
//    8192-entry flow table. Dropped flows are confined to the least popular
//    ranks (~0.5% of packets) because drops are never cached, so steady
//    state is >99% flow hits: the flow probe, the procedure chain, decap
//    and delivery do the work and the SFI classifier barely runs.
//  * rx_churn: uniform over 65536 flows through a 4096-entry table, so
//    nearly every packet misses, and a certified hot reload alternating
//    between rule sets A and B every 2 s: classifier bursts,
//    descriptor marshalling, flow insert/evict and post-reload
//    re-evaluation.
//
// Oracle: filter::NativeMatch against the rule set live at that burst.
// Each payload carries its ring index; a burst is correct when exactly the
// packets NativeMatch passes reach the socket, in order. The stateful
// verdict must equal the stateless one because only passes are cached and
// stale-epoch flows re-decide.
#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "bench/e2e/src/common.h"
#include "bench/e2e/src/traffic.h"
#include "bench/e2e/src/workload.h"
#include "src/filter/compiler.h"
#include "src/net/stack.h"
#include "src/nucleus/nucleus.h"

namespace para::e2e {
namespace {

constexpr size_t kRules = 256;
constexpr size_t kRing = size_t{1} << 16;  // input frames, replayed cyclically
constexpr size_t kBurst = 32;
constexpr size_t kFrameBytes = 64;
constexpr size_t kPayloadBytes = kFrameBytes - kFrameOverhead;
constexpr net::IpAddr kStackIp = 0xC0A80001;  // 192.168.0.1
constexpr net::MacAddr kStackMac = 0xBBBB;
constexpr net::MacAddr kPeerMac = 0xAAAA;

struct RxConfig {
  bool churn = false;
  size_t flows = 0;
  size_t flow_capacity = 0;
  uint64_t warmup_bursts = 0;
};

constexpr RxConfig kEstablished{false, 4096, 8192, 512};
constexpr RxConfig kChurn{true, 65536, 4096, 256};

// Everything generated from the seed. Built once per process and shared by
// every set-up of the run (it is input, not set-up work).
struct RxInputs {
  std::array<filter::RuleSet, 2> sets;  // A, B (B only used by rx_churn)
  std::vector<Flow> flows;
  std::vector<uint32_t> flow_of;        // ring position -> flow
  std::vector<uint8_t> frames;          // kRing frames, kFrameBytes each
  std::array<std::vector<uint64_t>, 2> expected;  // NativeMatch word per position
};

std::shared_ptr<const RxInputs> MakeInputs(const RxConfig& config, uint64_t seed) {
  static std::map<std::pair<bool, uint64_t>, std::shared_ptr<const RxInputs>> cache;
  auto& slot = cache[{config.churn, seed}];
  if (slot != nullptr) {
    return slot;
  }
  auto in = std::make_shared<RxInputs>();
  Random rng(seed * 0x2545F4914F6CDD1Dull + (config.churn ? 2 : 1));
  const std::vector<RuleRegion> regions = MakeRegions(rng, kRules);
  in->sets[0] = MakeRuleSet(regions, rng, 0.3, 0.25);
  // B: the same regions in the same order with fresh verdicts and
  // procedures, so a reload re-decides established conversations.
  in->sets[1] = MakeRuleSet(regions, rng, 0.3, 0.25);

  if (config.churn) {
    for (size_t i = 0; i < config.flows; ++i) {
      in->flows.push_back(FlowInRegion(regions[rng.NextBelow(regions.size())], rng));
    }
    for (size_t p = 0; p < kRing; ++p) {
      in->flow_of.push_back(static_cast<uint32_t>(rng.NextBelow(config.flows)));
    }
  } else {
    // Zipf ranks. Dropped flows take the tail holding ~0.5% of the packets;
    // among the passing ranks every 4th flow's rule attaches the procedure
    // chain, so the chain's share of the traffic is the same for every seed
    // instead of hinging on which flows land on the few hottest ranks.
    const Zipf zipf(config.flows, 1.0);
    size_t first_drop = config.flows;
    while (first_drop > 0 && zipf.TailMass(first_drop - 1) < 0.005) {
      --first_drop;
    }
    std::array<std::vector<Flow>, 3> pools;  // pass without chain, pass with, drop
    auto pool_of = [&in](const Flow& flow) {
      const net::FilterDecision d =
          filter::DecodeVerdict(filter::NativeMatch(in->sets[0], ViewOf(flow, kStackIp, {})));
      return d.verdict != net::FilterVerdict::kPass ? 2 : d.chain != 0 ? 1 : 0;
    };
    std::array<size_t, 3> need{};
    for (size_t r = 0; r < config.flows; ++r) {
      ++need[r >= first_drop ? 2 : r % 4 == 0 ? 1 : 0];
    }
    while (pools[0].size() < need[0] || pools[1].size() < need[1] || pools[2].size() < need[2]) {
      const Flow flow = FlowInRegion(regions[rng.NextBelow(regions.size())], rng);
      pools[pool_of(flow)].push_back(flow);
    }
    std::array<size_t, 3> next{};
    for (size_t r = 0; r < config.flows; ++r) {
      const size_t pool = r >= first_drop ? 2 : r % 4 == 0 ? 1 : 0;
      in->flows.push_back(pools[pool][next[pool]++]);
    }
    for (size_t p = 0; p < kRing; ++p) {
      in->flow_of.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
    }
  }

  std::array<std::vector<uint64_t>, 2> flow_word;
  for (size_t set = 0; set < 2; ++set) {
    flow_word[set].reserve(in->flows.size());
    for (const Flow& flow : in->flows) {
      flow_word[set].push_back(filter::NativeMatch(in->sets[set], ViewOf(flow, kStackIp, {})));
    }
  }
  in->frames.reserve(kRing * kFrameBytes);
  std::array<uint8_t, kPayloadBytes> payload{};
  for (size_t p = 0; p < kRing; ++p) {
    const uint32_t pos = static_cast<uint32_t>(p);
    const uint32_t flow = in->flow_of[p];
    std::memcpy(payload.data(), &pos, 4);
    std::memcpy(payload.data() + 4, &flow, 4);
    const std::vector<uint8_t> frame =
        BuildFrame(kStackMac, kPeerMac, in->flows[flow], kStackIp, payload);
    in->frames.insert(in->frames.end(), frame.begin(), frame.end());
    for (size_t set = 0; set < 2; ++set) {
      in->expected[set].push_back(flow_word[set][flow]);
    }
  }
  slot = std::move(in);
  return slot;
}

class RxBed final : public Testbed {
 public:
  RxBed(const RxConfig& config, const BedOptions& options,
        std::shared_ptr<const RxInputs> inputs)
      : config_(config), tracer_(options.tracer), in_(std::move(inputs)) {
    frames_.reserve(kRing);
    for (size_t p = 0; p < kRing; ++p) {
      frames_.emplace_back(in_->frames.data() + p * kFrameBytes, kFrameBytes);
    }
    delivered_.reserve(kBurst);
    if (options.self_test) {
      corrupt_pos_ = 5;  // inside the first burst of the set-up warm-up
    }
  }

  Status Setup(SetupTimes* times) {
    uint64_t t0 = Ticks();
    keys_ = GenerateKeys();
    times->keygen_ms = MsSince(t0);

    t0 = Ticks();
    nucleus::Nucleus::Config config;
    config.physical_pages = 64;
    config.authority_key = keys_.authority.public_key;
    nucleus_ = std::make_unique<nucleus::Nucleus>(&machine_, config);
    PARA_RETURN_IF_ERROR(nucleus_->Boot());
    stack_ = std::make_unique<net::ProtocolStack>(
        net::StackConfig{kStackMac, kStackIp},
        [](std::span<const uint8_t>) { return OkStatus(); });
    for (size_t i = 0; i < kServicePorts; ++i) {
      PARA_RETURN_IF_ERROR(stack_->BindPort(
          ServicePort(i), [this](const net::Datagram& datagram) { OnDatagram(datagram); }));
    }
    times->boot_ms = MsSince(t0);

    t0 = Ticks();
    PARA_ASSIGN_OR_RETURN(nucleus::Certifier certifier,
                          MakeCertifier(keys_, nucleus_->certification()));
    certifier_.emplace(std::move(certifier));
    filter::FilterConfig fc;
    fc.name = config_.churn ? "rx_churn" : "rx_established";
    fc.shards = 1;  // pinned: the environment must not re-shard the run
    fc.flow_capacity = config_.flow_capacity;
    PARA_ASSIGN_OR_RETURN(filter_, filter::PacketFilter::Create(fc));
    PARA_RETURN_IF_ERROR(
        filter_->LoadCertified(in_->sets[live_], *certifier_, nucleus_->certification()));
    if (tracer_ == nullptr) {
      stack_->SetIngressBatchFilter(filter_->BatchHook());
    } else {
      stack_->SetIngressBatchFilter([this](std::span<const net::PacketView> views,
                                           net::FilterDirection dir,
                                           std::span<net::FilterDecision> decisions) {
        ScopedSpan span(tracer_, SpanId::kFilterEvaluate);
        filter_->EvaluateBatch(views, dir, decisions);
      });
      replay_.Bind(*filter_);
    }
    times->load_certified_ms = MsSince(t0);

    RunWarmupItems(*this, config_.warmup_bursts, times);
    return OkStatus();
  }

  void OnWindowStart() override {
    // Every 2 s of this bed's measured time.
    constexpr auto kReloadEvery = static_cast<uint64_t>(2.0 / kWindowSeconds);
    if (config_.churn && windows_ > 0 && windows_ % kReloadEvery == 0) {
      Reload();
    }
    ++windows_;
  }

  void Prepare() override { delivered_.clear(); }

  void Execute() override {
    ScopedSpan span(tracer_, SpanId::kNetStack);
    stack_->OnFrameBurst({frames_.data() + cursor_, kBurst});
  }

  Outcome Check() override {
    const std::vector<uint64_t>& expected = in_->expected[live_];
    uint32_t failures = reload_failures_;
    reload_failures_ = 0;
    // Merge the in-order delivered indices against the expected passes.
    size_t d = 0;
    for (size_t p = cursor_; p < cursor_ + kBurst; ++p) {
      bool pass = filter::DecodeVerdict(expected[p]).verdict == net::FilterVerdict::kPass;
      if (p == corrupt_pos_) {
        pass = !pass;
      }
      const bool got = d < delivered_.size() && delivered_[d] == p;
      if (got) {
        ++d;
      }
      if (pass != got) {
        ++failures;
      }
    }
    failures += static_cast<uint32_t>(delivered_.size() - d);
    if (tracer_ != nullptr) {
      failures += Replay(expected);
    }
    cursor_ = (cursor_ + kBurst) % kRing;
    return Outcome{static_cast<uint32_t>(kBurst), failures};
  }

  void BeginMeasure() override {
    counters_.Snapshot(*filter_);
    replay_.ResetCounters();
    reload_ms_.clear();
  }

  void ReportLayers(uint64_t units, LayerValues& out) override {
    const auto packets = static_cast<double>(units);
    ReportPacketSpans(*tracer_, packets, out);
    counters_.Report(*filter_, packets, out);
    out[Layer::kSfiClassifyReplayNsPerPkt] = replay_.NsPerPacket();
    out[Layer::kFilterReloadMs] = Median(reload_ms_);
  }

  void TimeControlPlane(LayerValues& out) override {
    TimeFilterControlPlane(in_->sets[0], *certifier_, out);
  }

  Pinned pinned() const override {
    return Pinned{true, filter_->exec_backend() == sfi::VmBackend::kJit, filter_->shard_count()};
  }

 private:
  void OnDatagram(const net::Datagram& datagram) {
    ScopedSpan span(tracer_, SpanId::kAppDeliver);
    uint32_t pos = ~uint32_t{0};
    if (datagram.payload.size() == kPayloadBytes) {
      std::memcpy(&pos, datagram.payload.data(), 4);
    }
    delivered_.push_back(pos);
  }

  void Reload() {
    counters_.Fold(*filter_);
    live_ ^= 1;
    const uint64_t t0 = Ticks();
    Status loaded =
        filter_->LoadCertified(in_->sets[live_], *certifier_, nucleus_->certification());
    reload_ms_.push_back(MsSince(t0));
    if (!loaded.ok()) {
      ++reload_failures_;
    }
    counters_.Rebase(*filter_);
    if (tracer_ != nullptr) {
      replay_.Bind(*filter_);
    }
  }

  // Re-classifies the burst's descriptors outside the filter; a result that
  // differs from NativeMatch is a failure.
  uint32_t Replay(const std::vector<uint64_t>& expected) {
    std::array<net::PacketView, kBurst> views;
    for (size_t i = 0; i < kBurst; ++i) {
      const size_t p = cursor_ + i;
      views[i] = ViewOf(in_->flows[in_->flow_of[p]], kStackIp,
                        frames_[p].subspan(kPayloadOffset, kPayloadBytes));
    }
    std::array<uint64_t, kBurst> results;
    replay_.Run(views, results.data());
    uint32_t failures = 0;
    for (size_t i = 0; i < kBurst; ++i) {
      failures += results[i] != expected[cursor_ + i] ? 1 : 0;
    }
    return failures;
  }

  const RxConfig config_;
  Tracer* const tracer_;
  const std::shared_ptr<const RxInputs> in_;
  std::vector<std::span<const uint8_t>> frames_;
  size_t corrupt_pos_ = ~size_t{0};

  Keys keys_;
  hw::Machine machine_;
  std::unique_ptr<nucleus::Nucleus> nucleus_;
  std::optional<nucleus::Certifier> certifier_;
  std::unique_ptr<filter::PacketFilter> filter_;
  std::unique_ptr<net::ProtocolStack> stack_;  // its hook calls filter_

  size_t live_ = 0;  // rule set installed: 0 = A, 1 = B
  size_t cursor_ = 0;
  uint64_t windows_ = 0;
  uint32_t reload_failures_ = 0;
  std::vector<uint32_t> delivered_;
  std::vector<double> reload_ms_;
  FilterCounters counters_;
  ClassifyReplay replay_;
};

Result<std::unique_ptr<Testbed>> CreateRx(const RxConfig& config, const BedOptions& options,
                                          SetupTimes* times) {
  auto bed = std::make_unique<RxBed>(config, options, MakeInputs(config, options.seed));
  PARA_RETURN_IF_ERROR(bed->Setup(times));
  return std::unique_ptr<Testbed>(std::move(bed));
}

}  // namespace

Result<std::unique_ptr<Testbed>> CreateRxEstablished(const BedOptions& options,
                                                     SetupTimes* times) {
  return CreateRx(kEstablished, options, times);
}

Result<std::unique_ptr<Testbed>> CreateRxChurn(const BedOptions& options, SetupTimes* times) {
  return CreateRx(kChurn, options, times);
}

}  // namespace para::e2e
