// Exact-count allocation guards. This binary links the counting global
// operator new of tests/support/counting_new.cc, so "allocates nothing" is
// an assertion on a count that cannot flip on a noisy host:
//  - a constructed FlowTable serves insert/find/erase/expiry churn without
//    allocating;
//  - after warm-up, PacketFilter::EvaluateBatch allocates nothing in the
//    rx_churn workload's shape: uniform flows at 16x the flow capacity, in
//    32-packet bursts, under rules whose passes carry `count` and `log`
//    procedures, on the sandboxed and the certified (trusted) path;
//  - after warm-up, ProtocolStack::OnFrameBurst allocates nothing from the
//    frame to the socket handler over 32-frame bursts of 64-B frames to 64
//    bound ports: unfiltered, and through either filter's BatchHook in the
//    same flow shape.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/crypto/rsa.h"
#include "src/filter/filter.h"
#include "src/filter/flow_table.h"
#include "src/filter/rule.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"
#include "src/nucleus/cert.h"
#include "tests/support/counting_new.h"

namespace para::filter {
namespace {

using net::FilterDecision;
using net::FilterDirection;
using net::PacketView;

// The guards below mean something only while the counting operator new is
// linked in: a heap allocation the optimizer cannot elide must move the count.
TEST(AllocGuardTest, CountingOperatorNewIsLinked) {
  const uint64_t before = Allocs();
  auto block = std::make_unique<std::array<uint8_t, 64>>();
  asm volatile("" : : "g"(block.get()) : "memory");
  EXPECT_EQ(Allocs() - before, 1u);
}

TEST(AllocGuardTest, FlowTableChurnAllocatesNothing) {
  VirtualClock clock;
  FlowTable table(512, &clock, /*ttl=*/5'000);
  Random rng(0xA110C);
  auto key = [&rng] {
    return FlowKey{0x0A000000u | static_cast<uint32_t>(rng.NextBelow(8192)), 0xC0A80001,
                   static_cast<net::Port>(1024 + rng.NextBelow(4)), 53, 17};
  };

  const uint64_t before = Allocs();
  for (int op = 0; op < 100'000; ++op) {
    const uint64_t choice = rng.NextBelow(16);
    if (choice < 6) {
      table.Insert(key(), op, 1);
    } else if (choice < 12) {
      table.Find(rng.NextBelow(2) == 0 ? key() : key().Reversed());
    } else if (choice < 14) {
      table.Erase(key());
    } else {
      clock.Advance(rng.NextBelow(10));
    }
    if (op % 10'000 == 9'999) {
      clock.Advance(5'000);  // a quiet spell: every entry goes idle past the TTL
    }
  }
  EXPECT_EQ(Allocs() - before, 0u);
  const FlowTableStats& stats = table.stats();
  // The churn really churned: every path that used to allocate or free ran.
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.expirations, 0u);
}

// 64 /16 source networks, each with a 64-port destination range: every
// third rule drops, and every fourth passing rule carries `count` then
// `log(every=64)`.
std::string ChurnRules() {
  std::string text;
  for (int k = 0; k < 64; ++k) {
    const bool drop = k % 3 == 0;
    text += drop ? "drop" : "pass";
    text += " from 10." + std::to_string(k) + ".0.0/16 dport " + std::to_string(1000 + 64 * k) +
            "-" + std::to_string(1063 + 64 * k);
    if (!drop && k % 4 == 1) {
      text += " proc count proc log(every=64)";
    }
    text += "\n";
  }
  return text + "default drop\n";
}

// Drives `filter` with uniform traffic over 16x its flow capacity, in
// 32-packet bursts, and returns the allocations made after warm-up.
uint64_t ChurnAllocs(PacketFilter& filter, size_t flow_capacity) {
  constexpr size_t kBurst = 32;
  Random rng(0xC4u);
  std::vector<PacketView> flows(16 * flow_capacity);
  for (PacketView& view : flows) {
    const auto k = static_cast<uint32_t>(rng.NextBelow(64));
    view.src_ip = 0x0A000000u | k << 16 | static_cast<uint32_t>(rng.NextBelow(1u << 16));
    view.dst_ip = 0xC0A80001u;
    view.src_port = static_cast<net::Port>(1024 + rng.NextBelow(60000));
    view.dst_port = static_cast<net::Port>(1000 + 64 * k + rng.NextBelow(64));
    view.proto = net::kIpProtoUdpLite;
    view.ttl = 64;
  }
  std::vector<PacketView> burst(kBurst);
  std::vector<FilterDecision> decisions(kBurst);
  auto run = [&](int bursts) {
    for (int b = 0; b < bursts; ++b) {
      for (PacketView& view : burst) {
        view = flows[rng.NextBelow(flows.size())];
      }
      filter.EvaluateBatch(burst, FilterDirection::kIngress, decisions);
    }
  };
  run(512);  // warm-up: fill the table, reach steady churn
  const uint64_t before = Allocs();
  run(2048);
  return Allocs() - before;
}

// Loads ChurnRules() into `filter`, certified (the trusted path) or
// sandboxed.
void LoadChurnRules(PacketFilter& filter, bool certified) {
  auto rules = ParseRules(ChurnRules());
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  if (certified) {
    Random rng(0x5167);
    nucleus::CertificationAuthority authority(crypto::GenerateKeyPair(512, rng));
    auto signer_keys = crypto::GenerateKeyPair(512, rng);
    auto grant = authority.Grant("filter-compiler", signer_keys.public_key,
                                 nucleus::kCertKernelEligible);
    nucleus::Certifier signer(
        "filter-compiler", signer_keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    nucleus::CertificationService service(authority.public_key());
    ASSERT_TRUE(service.RegisterGrant(grant).ok());
    ASSERT_TRUE(filter.LoadCertified(*rules, signer, service).ok());
  } else {
    ASSERT_TRUE(filter.Load(*rules).ok());
  }
}

class ChurnBatchAllocTest : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(ChurnBatchAllocTest, EvaluateBatchAllocatesNothingAfterWarmUp) {
  const auto [shards, certified] = GetParam();
  constexpr size_t kCapacity = 256;
  FilterConfig config;
  config.shards = shards;
  config.flow_capacity = kCapacity;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_NO_FATAL_FAILURE(LoadChurnRules(**filter, certified));

  EXPECT_EQ(ChurnAllocs(**filter, kCapacity), 0u);
  // The shape is rx_churn's: mostly misses, so inserts and evictions ran,
  // and the procedure chains ran on the hits and passes.
  const FilterStats stats = (*filter)->stats();
  EXPECT_GT(stats.proc_invocations, 0u);
  uint64_t evictions = 0;
  for (size_t s = 0; s < (*filter)->shard_count(); ++s) {
    evictions += (*filter)->flows(s).stats().evictions;
  }
  EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardsAndMode, ChurnBatchAllocTest,
                         ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                                            ::testing::Bool()));

constexpr net::MacAddr kStackMac = 0xB0B;
constexpr net::IpAddr kStackIp = 0xC0A80001;
// A 64-B frame's payload: the rest is Eth, IP and UDP headers and the FCS.
constexpr size_t kRxPayload = 64 - net::EthHeader::kWireSize - net::IpHeader::kWireSize -
                              net::UdpHeader::kWireSize - net::EthHeader::kFcsSize;

// The lowest port of ChurnRules' range for source network k.
net::Port BoundPort(uint32_t k) { return static_cast<net::Port>(1000 + 64 * k); }

// 64-B frames of `flows` uniform flows, each from one of ChurnRules' 64
// source networks to that network's bound port.
std::vector<std::vector<uint8_t>> ChurnFrames(size_t flows) {
  const std::vector<uint8_t> payload(kRxPayload, 0x5A);
  Random rng(0xF4A3);
  std::vector<std::vector<uint8_t>> frames(flows);
  for (std::vector<uint8_t>& frame : frames) {
    const auto k = static_cast<uint32_t>(rng.NextBelow(64));
    const uint32_t src_ip = 0x0A000000u | k << 16 | static_cast<uint32_t>(rng.NextBelow(1u << 16));
    const auto src_port = static_cast<net::Port>(1024 + rng.NextBelow(60000));
    net::PacketBuffer packet;
    packet.Append(payload);
    net::UdpEncap(packet, net::UdpHeader{src_port, BoundPort(k), 0});
    net::IpEncap(packet, net::IpHeader{64, net::kIpProtoUdpLite, src_ip, kStackIp, 0});
    net::EthEncap(packet, net::EthHeader{kStackMac, 0xA11CE, net::kEtherTypeIpLite});
    frame.assign(packet.data().begin(), packet.data().end());
  }
  return frames;
}

enum class RxFilter { kNone, kSandboxed, kCertified };

class StackRxAllocTest : public ::testing::TestWithParam<RxFilter> {};

TEST_P(StackRxAllocTest, OnFrameBurstAllocatesNothingAfterWarmUp) {
  constexpr size_t kBurst = 32;
  constexpr size_t kCapacity = 256;
  std::unique_ptr<PacketFilter> filter;  // outlives the stack, whose hook calls it
  net::ProtocolStack stack(net::StackConfig{kStackMac, kStackIp},
                           [](std::span<const uint8_t>) { return OkStatus(); });
  uint64_t payload_bytes = 0;
  for (uint32_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(stack.BindPort(BoundPort(k), [&payload_bytes](const net::Datagram& d) {
      payload_bytes += d.payload.size();
    }).ok());
  }
  if (GetParam() != RxFilter::kNone) {
    FilterConfig config;  // shards from the environment
    config.flow_capacity = kCapacity;
    auto created = PacketFilter::Create(config);
    ASSERT_TRUE(created.ok());
    filter = std::move(*created);
    ASSERT_NO_FATAL_FAILURE(LoadChurnRules(*filter, GetParam() == RxFilter::kCertified));
    stack.SetIngressBatchFilter(filter->BatchHook());
  }
  const std::vector<std::vector<uint8_t>> frames = ChurnFrames(16 * kCapacity);
  ASSERT_EQ(frames.front().size(), 64u);

  Random rng(0xB0257);
  std::array<std::span<const uint8_t>, kBurst> burst;
  auto run = [&](int bursts) {
    for (int b = 0; b < bursts; ++b) {
      for (std::span<const uint8_t>& frame : burst) {
        frame = frames[rng.NextBelow(frames.size())];
      }
      stack.OnFrameBurst(burst);
    }
  };
  run(512);  // warm-up: fill the flow table, reach steady churn
  const uint64_t before = Allocs();
  run(2048);
  EXPECT_EQ(Allocs() - before, 0u);

  // Every frame reached a bound port or the filter, and the sockets got
  // their payloads.
  const net::StackStats& stats = stack.stats();
  EXPECT_EQ(stats.frames_in, (512u + 2048u) * kBurst);
  EXPECT_EQ(stats.drops_bad_frame + stats.drops_not_for_us + stats.drops_no_socket, 0u);
  EXPECT_GT(stats.datagrams_in, 0u);
  EXPECT_EQ(payload_bytes, stats.datagrams_in * kRxPayload);
  if (filter == nullptr) {
    EXPECT_EQ(stats.datagrams_in, stats.frames_in);
  } else {
    // Both verdicts ran, and the table churned.
    EXPECT_GT(stats.filter_drop, 0u);
    uint64_t evictions = 0;
    for (size_t s = 0; s < filter->shard_count(); ++s) {
      evictions += filter->flows(s).stats().evictions;
    }
    EXPECT_GT(evictions, 0u);
  }
}

std::string RxFilterName(const ::testing::TestParamInfo<RxFilter>& info) {
  static constexpr const char* kNames[] = {"NoFilter", "Sandboxed", "Certified"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Hooks, StackRxAllocTest,
                         ::testing::Values(RxFilter::kNone, RxFilter::kSandboxed,
                                           RxFilter::kCertified),
                         RxFilterName);

}  // namespace
}  // namespace para::filter
