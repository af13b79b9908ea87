// EvaluateBatch differential and concurrency tests. The batch path promises
// bit-identical semantics to a loop of Evaluate() — verdicts, flow-table
// state, procedure-chain state, FilterStats, and classifier VmStats — while
// amortizing VM entry across the burst; the randomized differential here is
// the enforcement. The threaded test drives the acceptance criterion for
// epoch-based reclamation: hot reloads under full data-plane load never
// drop an established flow that both rule sets admit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/base/random.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/net/stack.h"

namespace para::filter {
namespace {

using net::FilterDecision;
using net::FilterDirection;
using net::FilterVerdict;
using net::PacketView;

// --- randomized batch-vs-single differential --------------------------------

// A pool of conversations plus per-packet payload storage: the views alias
// `payloads`, which must outlive every Evaluate/EvaluateBatch call on them.
struct BurstCase {
  std::vector<PacketView> views;
  std::vector<std::vector<uint8_t>> payloads;
  FilterDirection dir = FilterDirection::kIngress;
};

std::string RandomRuleText(para::Random& rng) {
  std::string text;
  const int rules = 1 + static_cast<int>(rng.NextBelow(6));
  for (int i = 0; i < rules; ++i) {
    const char* verdict =
        (const char*[]){"pass", "drop", "reject"}[rng.NextBelow(3)];
    text += verdict;
    if (rng.NextBelow(2) == 0) {
      // Source prefix over the 10.x test net, wide enough to match often.
      text += " from 10." + std::to_string(rng.NextBelow(4)) + ".0.0/" +
              std::to_string(8 + 8 * rng.NextBelow(2));
    }
    if (rng.NextBelow(2) == 0) {
      const uint64_t lo = 1000 + rng.NextBelow(64);
      text += " dport " + std::to_string(lo) + "-" + std::to_string(lo + rng.NextBelow(32));
    }
    if (rng.NextBelow(4) == 0) {
      text += " payload 0=0x40/0xC0";
    }
    if (rng.NextBelow(3) == 0) {
      text += rng.NextBelow(2) == 0 ? " proc count"
                                    : " proc ratelimit(rate=3,burst=2)";
    }
    text += "\n";
  }
  text += rng.NextBelow(2) == 0 ? "default pass\n" : "default drop\n";
  return text;
}

BurstCase RandomBurst(para::Random& rng) {
  BurstCase burst;
  burst.dir = rng.NextBelow(4) == 0 ? FilterDirection::kEgress : FilterDirection::kIngress;
  const size_t n = 1 + rng.NextBelow(kMaxFilterBatch);
  burst.payloads.reserve(n);
  burst.views.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Conversations from a small pool so the flow fast path, reverse hits,
    // and stale-epoch re-evaluation all fire; ~half the packets are replies.
    const uint32_t a = 0x0A000000u | static_cast<uint32_t>(rng.NextBelow(12));
    const uint32_t b = 0xC0A80000u | static_cast<uint32_t>(rng.NextBelow(4));
    const auto pa = static_cast<uint16_t>(1000 + rng.NextBelow(96));
    const auto pb = static_cast<uint16_t>(2000 + rng.NextBelow(8));
    const bool reply = rng.NextBelow(2) == 0;

    auto& payload = burst.payloads.emplace_back();
    payload.resize(rng.NextBelow(32));
    for (auto& byte : payload) {
      byte = static_cast<uint8_t>(rng.Next32());
    }

    PacketView view;
    view.src_ip = reply ? b : a;
    view.dst_ip = reply ? a : b;
    view.src_port = reply ? pb : pa;
    view.dst_port = reply ? pa : pb;
    view.proto = net::kIpProtoUdpLite;
    view.ttl = 64;
    view.payload = payload;
    burst.views.push_back(view);
  }
  return burst;
}

void ExpectFiltersIdentical(PacketFilter& single, PacketFilter& batch) {
  const FilterStats a = single.stats();
  const FilterStats b = batch.stats();
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.reject, b.reject);
  EXPECT_EQ(a.proc_invocations, b.proc_invocations);
  EXPECT_EQ(a.flow_hits, b.flow_hits);
  EXPECT_EQ(a.flow_hits_reverse, b.flow_hits_reverse);
  EXPECT_EQ(a.reloads, b.reloads);
  EXPECT_EQ(a.vm_faults, b.vm_faults);
  EXPECT_EQ(a.descriptor_faults, b.descriptor_faults);
  EXPECT_EQ(a.flow_reevaluations, b.flow_reevaluations);
  EXPECT_EQ(a.proc_blocks, b.proc_blocks);
  EXPECT_EQ(a.proc_faults, b.proc_faults);

  const sfi::VmStats va = single.vm_stats();
  const sfi::VmStats vb = batch.vm_stats();
  EXPECT_EQ(va.instructions, vb.instructions);
  EXPECT_EQ(va.bounds_checks, vb.bounds_checks);
  EXPECT_EQ(va.calls, vb.calls);
  EXPECT_EQ(va.host_calls, vb.host_calls);
  EXPECT_EQ(va.jit_runs, vb.jit_runs);

  ASSERT_EQ(single.shard_count(), batch.shard_count());
  EXPECT_EQ(single.flow_count(), batch.flow_count());
  for (size_t s = 0; s < single.shard_count(); ++s) {
    EXPECT_EQ(single.flows(s).size(), batch.flows(s).size()) << "shard " << s;
    const auto& ca = single.chains(s);
    const auto& cb = batch.chains(s);
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i].size(), cb[i].size());
      for (size_t j = 0; j < ca[i].size(); ++j) {
        EXPECT_EQ(ca[i][j]->invocations, cb[i][j]->invocations)
            << "shard " << s << " chain " << i << " proc " << j;
        EXPECT_EQ(ca[i][j]->blocks, cb[i][j]->blocks);
        EXPECT_EQ(ca[i][j]->faults, cb[i][j]->faults);
      }
    }
  }
}

// Parameterized over (shards, track_flows): shards=1 with track_flows=false
// is the stateless single-shard configuration where EvaluateChunk takes the
// eager CallMany fast path — the differential must hold there too.
class BatchDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(BatchDifferentialTest, BatchIsBitIdenticalToSingleEvaluateLoop) {
  const size_t shards = std::get<0>(GetParam());
  FilterConfig config;
  config.shards = shards;
  config.track_flows = std::get<1>(GetParam());
  config.flow_capacity = 512;
  auto single = PacketFilter::Create(config);
  auto batch = PacketFilter::Create(config);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.ok());

  para::Random rng(0xBA7C4 + shards);
  for (int round = 0; round < 16; ++round) {
    if (round % 3 == 0) {
      // Hot reload the SAME random rule set into both filters: subsequent
      // flow hits admitted under the old epoch re-evaluate — in both paths.
      const std::string text = RandomRuleText(rng);
      auto set = ParseRules(text);
      ASSERT_TRUE(set.ok()) << text;
      ASSERT_TRUE((*single)->Load(*set).ok());
      ASSERT_TRUE((*batch)->Load(*set).ok());
    }
    for (int b = 0; b < 4; ++b) {
      const BurstCase burst = RandomBurst(rng);
      std::vector<FilterDecision> expected(burst.views.size());
      for (size_t i = 0; i < burst.views.size(); ++i) {
        expected[i] = (*single)->Evaluate(burst.views[i], burst.dir);
      }
      std::vector<FilterDecision> got(burst.views.size());
      (*batch)->EvaluateBatch(burst.views, burst.dir, got);
      for (size_t i = 0; i < burst.views.size(); ++i) {
        EXPECT_EQ(got[i].verdict, expected[i].verdict)
            << "round " << round << " burst " << b << " pkt " << i;
        EXPECT_EQ(got[i].ttl, expected[i].ttl);
        EXPECT_EQ(got[i].chain, expected[i].chain);
        EXPECT_EQ(got[i].rule, expected[i].rule);
      }
    }
    ExpectFiltersIdentical(**single, **batch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, BatchDifferentialTest,
    ::testing::Values(std::make_tuple(size_t{1}, true), std::make_tuple(size_t{3}, true),
                      std::make_tuple(size_t{1}, false), std::make_tuple(size_t{3}, false)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return "Shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Flows" : "NoFlows");
    });

// EvaluateBatch must also chunk correctly past kMaxFilterBatch.
TEST(BatchChunkingTest, OversizedBatchSplitsIntoChunksWithIdenticalResults) {
  FilterConfig config;
  config.shards = 2;
  auto single = PacketFilter::Create(config);
  auto batch = PacketFilter::Create(config);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.ok());
  auto set = ParseRules("pass from 10.0.0.0/8\ndefault drop\n");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*single)->Load(*set).ok());
  ASSERT_TRUE((*batch)->Load(*set).ok());

  para::Random rng(0xC0C0);
  std::vector<PacketView> views;
  for (size_t i = 0; i < kMaxFilterBatch * 2 + 7; ++i) {
    PacketView view;
    view.src_ip = rng.NextBelow(2) == 0 ? 0x0A010101u : 0xC0A80101u;
    view.dst_ip = 0x0A000001u;
    view.src_port = static_cast<uint16_t>(5000 + i);
    view.dst_port = 53;
    view.proto = net::kIpProtoUdpLite;
    view.ttl = 64;
    views.push_back(view);
  }
  std::vector<FilterDecision> expected(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    expected[i] = (*single)->Evaluate(views[i], FilterDirection::kIngress);
  }
  std::vector<FilterDecision> got(views.size());
  (*batch)->EvaluateBatch(views, FilterDirection::kIngress, got);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(got[i].verdict, expected[i].verdict) << i;
  }
  ExpectFiltersIdentical(**single, **batch);
}

// --- stack integration ------------------------------------------------------

std::vector<uint8_t> BuildFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t sport,
                                uint16_t dport, const std::string& payload) {
  net::PacketBuffer packet;
  packet.Append(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  net::UdpEncap(packet, net::UdpHeader{sport, dport, 0});
  net::IpEncap(packet, net::IpHeader{64, net::kIpProtoUdpLite, src_ip, dst_ip, 0});
  net::EthEncap(packet, net::EthHeader{0xB0B, 0xA11CE, net::kEtherTypeIpLite});
  auto bytes = packet.data();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

TEST(StackBurstTest, OnFrameBurstMatchesPerFrameIngress) {
  FilterConfig config;
  config.shards = 2;
  auto single_filter = PacketFilter::Create(config);
  auto batch_filter = PacketFilter::Create(config);
  ASSERT_TRUE(single_filter.ok());
  ASSERT_TRUE(batch_filter.ok());
  auto set = ParseRules("drop sport 6000-6007\ndefault pass\n");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*single_filter)->Load(*set).ok());
  ASSERT_TRUE((*batch_filter)->Load(*set).ok());

  uint64_t delivered_single = 0;
  uint64_t delivered_batch = 0;
  net::ProtocolStack single_stack(net::StackConfig{0xB0B, 0x0A000002},
                                  [](std::span<const uint8_t>) { return OkStatus(); });
  net::ProtocolStack batch_stack(net::StackConfig{0xB0B, 0x0A000002},
                                 [](std::span<const uint8_t>) { return OkStatus(); });
  ASSERT_TRUE(single_stack
                  .BindPort(53, [&](const net::Datagram&) { ++delivered_single; })
                  .ok());
  ASSERT_TRUE(
      batch_stack.BindPort(53, [&](const net::Datagram&) { ++delivered_batch; }).ok());
  single_stack.SetIngressFilter((*single_filter)->Hook());
  batch_stack.SetIngressBatchFilter((*batch_filter)->BatchHook());

  para::Random rng(0x57AC);
  std::vector<std::vector<uint8_t>> frames;
  for (int i = 0; i < 40; ++i) {
    const auto sport = static_cast<uint16_t>(5998 + rng.NextBelow(16));
    frames.push_back(
        BuildFrame(0x0A000001u + static_cast<uint32_t>(rng.NextBelow(4)), 0x0A000002,
                   sport, 53, "hello"));
  }
  // A couple of frames that die in decap, interleaved, so the burst path's
  // compaction is exercised too.
  frames.insert(frames.begin() + 5, std::vector<uint8_t>(32, 0x5A));
  frames.insert(frames.begin() + 20, BuildFrame(0x0A000001, 0x0A0000EE, 1, 53, "x"));

  for (const auto& frame : frames) {
    single_stack.OnFrame(frame);
  }
  std::vector<std::span<const uint8_t>> spans(frames.begin(), frames.end());
  batch_stack.OnFrameBurst(spans);

  EXPECT_EQ(delivered_batch, delivered_single);
  const auto& ss = single_stack.stats();
  const auto& bs = batch_stack.stats();
  EXPECT_EQ(bs.frames_in, ss.frames_in);
  EXPECT_EQ(bs.datagrams_in, ss.datagrams_in);
  EXPECT_EQ(bs.drops_bad_frame, ss.drops_bad_frame);
  EXPECT_EQ(bs.drops_not_for_us, ss.drops_not_for_us);
  EXPECT_EQ(bs.filter_drop + bs.filter_reject, ss.filter_drop + ss.filter_reject);
  EXPECT_EQ(bs.filter_pass, ss.filter_pass);
  EXPECT_EQ(bs.filter_drop, ss.filter_drop);
  ExpectFiltersIdentical(**single_filter, **batch_filter);
}

TEST(StackBurstTest, BurstWithoutBatchHookDegradesToPerFrameLoop) {
  FilterConfig config;
  config.shards = 1;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto set = ParseRules("default pass\n");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*filter)->Load(*set).ok());

  uint64_t delivered = 0;
  net::ProtocolStack stack(net::StackConfig{0xB0B, 0x0A000002},
                           [](std::span<const uint8_t>) { return OkStatus(); });
  ASSERT_TRUE(stack.BindPort(53, [&](const net::Datagram&) { ++delivered; }).ok());
  stack.SetIngressFilter((*filter)->Hook());  // per-packet hook only

  std::vector<std::vector<uint8_t>> frames;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(BuildFrame(0x0A000001, 0x0A000002,
                                static_cast<uint16_t>(1000 + i), 53, "ping"));
  }
  std::vector<std::span<const uint8_t>> spans(frames.begin(), frames.end());
  stack.OnFrameBurst(spans);
  EXPECT_EQ(delivered, frames.size());
  EXPECT_EQ(stack.stats().frames_in, frames.size());
  EXPECT_EQ((*filter)->stats().evaluated, frames.size());
}

// The stack has one ingress slot that both setters fill, so a batch hook
// also filters OnFrame, and whichever setter ran last owns the slot.
TEST(StackBurstTest, OneIngressSlotFiltersOnFrameAndLastSetterWins) {
  FilterConfig config;
  config.shards = 1;
  auto drop_filter = PacketFilter::Create(config);
  auto pass_filter = PacketFilter::Create(config);
  ASSERT_TRUE(drop_filter.ok());
  ASSERT_TRUE(pass_filter.ok());
  auto drop_set = ParseRules("default drop\n");
  auto pass_set = ParseRules("default pass\n");
  ASSERT_TRUE(drop_set.ok());
  ASSERT_TRUE(pass_set.ok());
  ASSERT_TRUE((*drop_filter)->Load(*drop_set).ok());
  ASSERT_TRUE((*pass_filter)->Load(*pass_set).ok());
  PacketFilter& drop = **drop_filter;
  PacketFilter& pass = **pass_filter;

  uint64_t delivered = 0;
  net::ProtocolStack stack(net::StackConfig{0xB0B, 0x0A000002},
                           [](std::span<const uint8_t>) { return OkStatus(); });
  ASSERT_TRUE(stack.BindPort(53, [&](const net::Datagram&) { ++delivered; }).ok());
  const std::vector<uint8_t> frame = BuildFrame(0x0A000001, 0x0A000002, 1000, 53, "ping");
  const std::span<const uint8_t> burst[] = {frame, frame};

  stack.SetIngressBatchFilter(drop.BatchHook());  // batch hook only
  stack.OnFrame(frame);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(drop.stats().evaluated, 1u);
  EXPECT_EQ(stack.stats().filter_drop, 1u);

  stack.SetIngressFilter(pass.Hook());  // replaces the batch hook
  stack.OnFrameBurst(burst);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(pass.stats().evaluated, 2u);
  EXPECT_EQ(drop.stats().evaluated, 1u);

  stack.SetIngressBatchFilter(drop.BatchHook());  // and back
  stack.OnFrame(frame);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(drop.stats().evaluated, 2u);

  stack.SetIngressFilter(nullptr);  // either setter's nullptr clears the slot
  stack.OnFrame(frame);
  stack.SetIngressFilter(pass.Hook());
  stack.SetIngressBatchFilter(nullptr);
  stack.OnFrame(frame);
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(pass.stats().evaluated, 2u);
  EXPECT_EQ(drop.stats().evaluated, 2u);
  EXPECT_EQ(stack.stats().filter_pass, 2u);
  EXPECT_EQ(stack.stats().filter_drop, 2u);
}

// --- reload under load (epoch-based reclamation acceptance) -----------------

TEST(ReloadUnderLoadTest, EstablishedFlowsSurviveHotReloadsAcrossShards) {
  constexpr size_t kShards = 4;
  FilterConfig config;
  config.shards = kShards;
  config.flow_capacity = 4096;
  auto created = PacketFilter::Create(config);
  ASSERT_TRUE(created.ok());
  PacketFilter& filter = **created;

  // Two rule sets that BOTH admit every worker conversation (src 10.0.0.0/8,
  // dport 4000-4999): reloading between them must never drop an established
  // flow, whichever generation a packet lands on — including the stale-epoch
  // re-evaluations each reload triggers.
  auto set_a = ParseRules("pass from 10.0.0.0/8 dport 4000-4999\ndefault drop\n");
  auto set_b = ParseRules("pass from 10.0.0.0/8\nreject dport 9\ndefault drop\n");
  ASSERT_TRUE(set_a.ok());
  ASSERT_TRUE(set_b.ok());
  ASSERT_TRUE(filter.Load(*set_a).ok());

  // Pre-steer per-worker conversations: worker w only evaluates views whose
  // conversation steers to shard w — the one-RX-queue-per-shard deployment
  // contract that makes concurrent evaluation race-free.
  std::vector<std::vector<PacketView>> per_worker(kShards);
  para::Random rng(0x10AD);
  for (size_t w = 0; w < kShards; ++w) {
    while (per_worker[w].size() < 16) {
      PacketView view;
      view.src_ip = 0x0A000000u | rng.Next32() >> 8;
      view.dst_ip = 0xC0A80001u;
      view.src_port = static_cast<uint16_t>(10000 + rng.NextBelow(50000));
      view.dst_port = static_cast<uint16_t>(4000 + rng.NextBelow(1000));
      view.proto = net::kIpProtoUdpLite;
      view.ttl = 64;
      if (filter.SteerShard(view) == w) {
        per_worker[w].push_back(view);
      }
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> non_pass{0};
  std::atomic<uint64_t> evaluated{0};
  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (size_t w = 0; w < kShards; ++w) {
    workers.emplace_back([&, w] {
      const auto& mine = per_worker[w];
      std::vector<FilterDecision> decisions(mine.size());
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Alternate single-packet and batched evaluation on this shard.
        if ((local++ & 1) == 0) {
          for (const auto& view : mine) {
            if (filter.Evaluate(view, FilterDirection::kIngress).verdict !=
                FilterVerdict::kPass) {
              non_pass.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else {
          filter.EvaluateBatch(mine, FilterDirection::kIngress, decisions);
          for (const auto& decision : decisions) {
            if (decision.verdict != FilterVerdict::kPass) {
              non_pass.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        evaluated.fetch_add(mine.size(), std::memory_order_relaxed);
      }
    });
  }

  // Hot-reload under load: alternate the two admitting rule sets.
  for (int reload = 0; reload < 100; ++reload) {
    ASSERT_TRUE(filter.Load(reload % 2 == 0 ? *set_b : *set_a).ok());
  }
  // Let the workers chew on the final generation a little, then stop.
  const uint64_t target = evaluated.load() + kShards * 64;
  while (evaluated.load(std::memory_order_relaxed) < target) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }

  EXPECT_EQ(non_pass.load(), 0u) << "an established, still-admitted flow was dropped";
  EXPECT_GT(evaluated.load(), 0u);
  // Every shard is quiescent now: all retired generations reclaimable.
  filter.ReclaimRetired();
  EXPECT_EQ(filter.retired_generations(), 0u);
  EXPECT_EQ(filter.stats().evaluated, evaluated.load());
}

// --- clockless procedures under concurrent shards ---------------------------

TEST(ClocklessProcTest, ShardClocksStayPrivateUnderConcurrentWorkers) {
  // Without a clock, a procedure's `now` falls back to its own shard's
  // evaluation counter. Two workers each drive their own shard: every
  // shard's rate limiter must behave exactly like a single-shard filter fed
  // only that shard's traffic, and — under TSan — no worker may read another
  // shard's counter while its owner increments it.
  constexpr size_t kShards = 2;
  constexpr int kRounds = 2000;
  const char* kRules = "pass from 10.0.0.0/8 proc ratelimit(rate=3,burst=2)\n";
  auto rules = ParseRules(kRules);
  ASSERT_TRUE(rules.ok());
  auto make_filter = [&](size_t shards) {
    FilterConfig config;
    config.shards = shards;
    config.track_flows = false;
    auto created = PacketFilter::Create(config);
    EXPECT_TRUE(created.ok());
    EXPECT_TRUE((*created)->Load(*rules).ok());
    return std::move(*created);
  };
  std::unique_ptr<PacketFilter> filter = make_filter(kShards);

  std::vector<std::vector<PacketView>> per_worker(kShards);
  para::Random rng(0xC10C);
  for (size_t w = 0; w < kShards; ++w) {
    while (per_worker[w].size() < 8) {
      PacketView view;
      view.src_ip = 0x0A000000u | rng.Next32() >> 8;
      view.dst_ip = 0xC0A80001u;
      view.src_port = static_cast<uint16_t>(10000 + rng.NextBelow(50000));
      view.dst_port = static_cast<uint16_t>(4000 + rng.NextBelow(1000));
      view.proto = net::kIpProtoUdpLite;
      view.ttl = 64;
      if (filter->SteerShard(view) == w) {
        per_worker[w].push_back(view);
      }
    }
  }

  // Each worker's verdict sequence, round after round.
  auto drive = [&](PacketFilter& target, const std::vector<PacketView>& mine) {
    std::vector<FilterVerdict> verdicts;
    std::vector<FilterDecision> decisions(mine.size());
    for (int round = 0; round < kRounds; ++round) {
      target.EvaluateBatch(mine, FilterDirection::kIngress, decisions);
      for (const FilterDecision& decision : decisions) {
        verdicts.push_back(decision.verdict);
      }
    }
    return verdicts;
  };
  std::vector<std::vector<FilterVerdict>> seen(kShards);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kShards; ++w) {
    workers.emplace_back([&, w] { seen[w] = drive(*filter, per_worker[w]); });
  }
  for (auto& worker : workers) {
    worker.join();
  }

  uint64_t total = 0;
  for (size_t w = 0; w < kShards; ++w) {
    std::unique_ptr<PacketFilter> reference = make_filter(1);
    EXPECT_EQ(seen[w], drive(*reference, per_worker[w])) << "shard " << w;
    total += seen[w].size();
  }
  EXPECT_EQ(filter->stats().evaluated, total);
}

}  // namespace
}  // namespace para::filter
