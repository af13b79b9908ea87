// Sharded data-plane properties: steering symmetry (a conversation and its
// reply always land on the same shard), shard distribution sanity, merged
// stats/flow/telemetry views across shard partitions, and the epoch-based
// reclamation protocol that lets hot reloads retire old generations without
// stopping the data plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/telemetry.h"
#include "src/filter/filter.h"
#include "src/filter/flow_table.h"
#include "src/filter/rule.h"

namespace para::filter {
namespace {

using net::FilterDirection;
using net::FilterVerdict;
using net::PacketView;

PacketView MakeView(uint32_t src_ip, uint32_t dst_ip, uint16_t sport, uint16_t dport,
                    uint8_t proto = net::kIpProtoUdpLite) {
  PacketView view;
  view.src_ip = src_ip;
  view.dst_ip = dst_ip;
  view.src_port = sport;
  view.dst_port = dport;
  view.proto = proto;
  view.ttl = 64;
  return view;
}

std::unique_ptr<PacketFilter> MakeFilter(size_t shards, const std::string& rules) {
  FilterConfig config;
  config.shards = shards;
  auto filter = PacketFilter::Create(config);
  EXPECT_TRUE(filter.ok());
  auto set = ParseRules(rules);
  EXPECT_TRUE(set.ok());
  EXPECT_TRUE((*filter)->Load(*set).ok());
  return std::move(*filter);
}

// The satellite property test: 500 rounds of random 5-tuples, the forward
// and reversed orientations must hash — and therefore steer — identically.
TEST(ShardSteeringTest, SymmetricHashSteersForwardAndReplyToSameShard) {
  auto filter = MakeFilter(8, "default pass");
  ASSERT_EQ(filter->shard_count(), 8u);

  para::Random rng(0x5EED5EED);
  for (int round = 0; round < 500; ++round) {
    const uint32_t src_ip = rng.Next32();
    const uint32_t dst_ip = rng.Next32();
    const auto sport = static_cast<uint16_t>(rng.Next32());
    const auto dport = static_cast<uint16_t>(rng.Next32());
    const auto proto = static_cast<uint8_t>(rng.NextBelow(4));

    const FlowKey forward{src_ip, dst_ip, sport, dport, proto};
    const FlowKey reverse{dst_ip, src_ip, dport, sport, proto};
    EXPECT_EQ(SymmetricFlowHash(forward), SymmetricFlowHash(reverse))
        << "round " << round;

    const PacketView fwd = MakeView(src_ip, dst_ip, sport, dport, proto);
    const PacketView rev = MakeView(dst_ip, src_ip, dport, sport, proto);
    EXPECT_EQ(filter->SteerShard(fwd), filter->SteerShard(rev)) << "round " << round;
    EXPECT_LT(filter->SteerShard(fwd), filter->shard_count());
  }
}

TEST(ShardSteeringTest, SingleShardSteersEverythingToZero) {
  auto filter = MakeFilter(1, "default pass");
  para::Random rng(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(filter->SteerShard(MakeView(rng.Next32(), rng.Next32(),
                                          static_cast<uint16_t>(rng.Next32()),
                                          static_cast<uint16_t>(rng.Next32()))),
              0u);
  }
}

TEST(ShardSteeringTest, HashSpreadsConversationsAcrossShards) {
  auto filter = MakeFilter(8, "default pass");
  para::Random rng(0xD15C);
  std::vector<size_t> hits(filter->shard_count(), 0);
  constexpr int kConversations = 4096;
  for (int i = 0; i < kConversations; ++i) {
    ++hits[filter->SteerShard(MakeView(rng.Next32(), rng.Next32(),
                                       static_cast<uint16_t>(rng.Next32()),
                                       static_cast<uint16_t>(rng.Next32())))];
  }
  // Not a chi-squared test — just "no shard is starved or hogging": each
  // within a factor of two of the ideal eighth.
  for (size_t s = 0; s < hits.size(); ++s) {
    EXPECT_GT(hits[s], kConversations / 16u) << "shard " << s;
    EXPECT_LT(hits[s], kConversations / 4u) << "shard " << s;
  }
}

TEST(ShardedFilterTest, MergedStatsAndFlowsSumOverShards) {
  auto filter = MakeFilter(4, "pass from 10.0.0.0/8\ndefault drop");
  para::Random rng(0xF10);

  constexpr int kPackets = 256;
  uint64_t expected_pass = 0;
  for (int i = 0; i < kPackets; ++i) {
    const bool admit = rng.NextBelow(2) == 0;
    const uint32_t src = admit ? (0x0A000000u | rng.NextBelow(1u << 24)) : 0xC0A80001u;
    auto decision = filter->Evaluate(
        MakeView(src, 0x0A000001u, static_cast<uint16_t>(1024 + i), 53),
        FilterDirection::kIngress);
    if (admit) {
      EXPECT_EQ(decision.verdict, FilterVerdict::kPass);
      ++expected_pass;
    } else {
      EXPECT_EQ(decision.verdict, FilterVerdict::kDrop);
    }
  }

  const FilterStats merged = filter->stats();
  EXPECT_EQ(merged.evaluated, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(merged.pass, expected_pass);
  EXPECT_EQ(merged.drop, kPackets - expected_pass);

  // flow_count() is the sum of the per-shard partitions; only passed flows
  // are cached.
  uint64_t per_shard_sum = 0;
  for (size_t s = 0; s < filter->shard_count(); ++s) {
    per_shard_sum += filter->flows(s).size();
  }
  EXPECT_EQ(filter->flow_count(), per_shard_sum);
  EXPECT_EQ(filter->flow_count(), expected_pass);
}

TEST(ShardedFilterTest, RejectsFlowCapacityTheIndexCannotHold) {
  // The per-shard split of a huge capacity used to wrap to zero and abort
  // inside FlowTable; now any capacity past kMaxFlowCapacity is an error at
  // every shard count, before anything is allocated.
  for (const size_t shards : {1u, 2u, 4u}) {
    for (const size_t capacity : {SIZE_MAX, kMaxFlowCapacity + 1}) {
      FilterConfig config;
      config.shards = shards;
      config.flow_capacity = capacity;
      auto filter = PacketFilter::Create(config);
      ASSERT_FALSE(filter.ok()) << shards << " shards, capacity " << capacity;
      EXPECT_EQ(filter.status().code(), ErrorCode::kInvalidArgument);
    }
  }
}

TEST(ShardedFilterTest, FlowCapacitySplitRoundsUpPerShard) {
  FilterConfig config;
  config.shards = 4;
  config.flow_capacity = 10;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ((*filter)->flows(s).capacity(), 3u) << "shard " << s;
  }
}

#if !defined(PARA_NO_TELEMETRY)
TEST(ShardedFilterTest, TelemetryExportsMergedFlowProbes) {
  FilterConfig config;
  config.shards = 4;
  config.name = "shardprobes";
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  para::Random rng(0x9B0);
  for (int i = 0; i < 64; ++i) {
    (*filter)->Evaluate(MakeView(rng.Next32(), rng.Next32(),
                                 static_cast<uint16_t>(rng.Next32()), 80),
                        FilterDirection::kIngress);
  }
  uint64_t probes = 0;
  for (size_t s = 0; s < (*filter)->shard_count(); ++s) {
    probes += (*filter)->flows(s).stats().probes;
  }
  // Every packet is a new flow: its miss visits at least one bucket.
  EXPECT_GE(probes, 64u);
  bool found = false;
  for (const auto& metric : telemetry::Registry::Get().TakeSnapshot().metrics) {
    if (metric.name == "filter.shardprobes.flow.probes") {
      EXPECT_EQ(metric.value, probes);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "flow.probes alias not registered";
}

TEST(ShardedFilterTest, TelemetryAliasesExportMergedShardCounters) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  FilterConfig config;
  config.shards = 4;
  config.name = "shardtel";
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto set = ParseRules("default pass");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*filter)->Load(*set).ok());

  para::Random rng(0x7E1);
  for (int i = 0; i < 64; ++i) {
    (*filter)->Evaluate(MakeView(rng.Next32(), rng.Next32(),
                                 static_cast<uint16_t>(rng.Next32()), 80),
                        FilterDirection::kIngress);
  }

  auto snapshot = telemetry::Registry::Get().TakeSnapshot();
  uint64_t exported = 0;
  bool found = false;
  for (const auto& metric : snapshot.metrics) {
    if (metric.name == "filter.shardtel.evaluated") {
      exported = metric.value;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "merged alias not registered";
  EXPECT_EQ(exported, (*filter)->stats().evaluated);
  EXPECT_EQ(exported, 64u);
}
#endif

// --- epoch-based reclamation ------------------------------------------------

TEST(EpochReclamationTest, RetiredGenerationHeldUntilPinnedShardQuiesces) {
  auto filter = MakeFilter(2, "default pass");
  EXPECT_EQ(filter->retired_generations(), 0u);

  // Shard 0 announces a burst in flight at the current epoch...
  filter->DebugPinShard(0);
  auto set = ParseRules("default drop");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(filter->Load(*set).ok());

  // ...so the replaced generation cannot be reclaimed yet.
  EXPECT_EQ(filter->retired_generations(), 1u);
  filter->ReclaimRetired();
  EXPECT_EQ(filter->retired_generations(), 1u);

  // New traffic on the other shard already sees the new rules.
  PacketView view = MakeView(0x01020304, 0x05060708, 1000, 2000);
  for (uint16_t dport = 2000; filter->SteerShard(view) == 0; ++dport) {
    view = MakeView(0x01020304, 0x05060708, 1000, dport);  // reroll off shard 0
  }
  ASSERT_NE(filter->SteerShard(view), 0u);
  EXPECT_EQ(filter->Evaluate(view, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);

  // Quiescence releases it.
  filter->DebugUnpinShard(0);
  EXPECT_EQ(filter->retired_generations(), 0u);
}

TEST(EpochReclamationTest, BackToBackReloadsRetireEagerlyWhenIdle) {
  auto filter = MakeFilter(4, "default pass");
  for (int i = 0; i < 8; ++i) {
    auto set = ParseRules(i % 2 == 0 ? "default drop" : "default pass");
    ASSERT_TRUE(set.ok());
    ASSERT_TRUE(filter->Load(*set).ok());
    // All shards idle: each reload reclaims its predecessor immediately.
    EXPECT_EQ(filter->retired_generations(), 0u) << "reload " << i;
  }
  EXPECT_EQ(filter->stats().reloads, 9u);  // MakeFilter's initial Load + 8
}

TEST(EpochReclamationTest, PinnedShardStillEvaluatesAgainstLiveRules) {
  // A pin marks a quiescence boundary for RECLAMATION; it does not freeze
  // the shard's view of the rules — the next Evaluate pins the NEW live
  // generation (DebugPinShard models a burst that started before the
  // reload; Evaluate re-announces).
  auto filter = MakeFilter(2, "default pass");
  filter->DebugPinShard(0);
  filter->DebugPinShard(1);
  auto set = ParseRules("default drop");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(filter->Load(*set).ok());
  EXPECT_EQ(filter->retired_generations(), 1u);

  EXPECT_EQ(filter
                ->Evaluate(MakeView(0x0A000001, 0x0A000002, 40000, 53),
                           FilterDirection::kIngress)
                .verdict,
            FilterVerdict::kDrop);
  // That Evaluate's own unpin passed one shard through a quiescent point;
  // the other remains pinned until released.
  filter->DebugUnpinShard(0);
  filter->DebugUnpinShard(1);
  filter->ReclaimRetired();
  EXPECT_EQ(filter->retired_generations(), 0u);
}

}  // namespace
}  // namespace para::filter
