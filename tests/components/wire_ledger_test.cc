// Exact-count guards on the wire path: allocations and CopyBytes calls, not
// timings. This binary links the counting global operator new of
// tests/support/counting_new.cc and replaces para::CopyBytes
// (src/base/copy.h) with a counting version — the static linker then never
// pulls src/base/copy.cc in — so each count is an assertion that cannot flip
// on a noisy host:
//  - after warm-up, a datagram from a user-domain stack through the proxy to
//    a kernel stack with a certified filter allocates nothing;
//  - the same loop makes 8 CopyBytes calls per datagram: the payload read
//    into the TX page, the driver's copy into the TX area, the link's
//    in-flight copy, the device's copy into the RX area, PollRecv's copy
//    into the RX page, the 4-B FCS, and the proxy's argument frame and
//    result. The proxy's payload window is filled by memmove, outside this
//    count;
//  - a flood at a driver nobody polls, or at a bound port nobody reads,
//    allocates nothing beyond the inbox's slots, and every frame is
//    accounted for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/copy.h"
#include "src/base/random.h"
#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/crypto/rsa.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "tests/components/test_fixture.h"
#include "tests/support/counting_new.h"

namespace {

std::atomic<uint64_t> g_copies{0};
std::atomic<uint64_t> g_copy_bytes{0};

}  // namespace

namespace para {

void CopyBytes(void* dst, const void* src, size_t n) {
  g_copies.fetch_add(1, std::memory_order_relaxed);
  g_copy_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n != 0) {
    std::memcpy(dst, src, n);
  }
}

}  // namespace para

namespace para::components {
namespace {

constexpr net::IpAddr kTxIp = 0x0A000001;
constexpr net::IpAddr kRxIp = 0x0A000002;
constexpr net::Port kSrcPort = 4242;
constexpr net::Port kPort = 7000;

class WireLedgerTest : public para::testing::NucleusFixture {
 protected:
  void SetUp() override {
    kernel_ = nucleus_->kernel_context();
    auto a = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel_);
    auto b = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_b_, kernel_);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    driver_a_ = std::move(*a);
    driver_b_ = std::move(*b);
    ASSERT_TRUE(nucleus_->directory().Register("/shared/net0", driver_a_.get(), kernel_).ok());
    ASSERT_TRUE(nucleus_->directory().Register("/shared/net1", driver_b_.get(), kernel_).ok());
  }

  // wire_mix's placement: the sender in a user domain, through the proxy;
  // the receiver in the kernel behind a certified filter. With
  // `stack_socket`, kPort is bound on the receiver's stack to a counting
  // handler; without it, kPort is the component's own inbox.
  void BuildWire(bool stack_socket) {
    nucleus::Context* app = nucleus_->CreateUserContext("app");
    StackComponent::Deps deps{&nucleus_->vmem(), &nucleus_->events(), &nucleus_->directory()};
    auto tx = StackComponent::Create(deps, app, "/shared/net0", net::StackConfig{0xAAAA, kTxIp});
    auto rx =
        StackComponent::Create(deps, kernel_, "/shared/net1", net::StackConfig{0xBBBB, kRxIp});
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(rx.ok());
    tx_ = std::move(*tx);
    rx_ = std::move(*rx);
    ASSERT_TRUE(tx_->bound_via_proxy());
    tx_->stack().AddNeighbor(kRxIp, 0xBBBB);

    filter::FilterConfig config;
    config.shards = 1;  // pinned, as wire_mix pins it
    auto created = filter::PacketFilter::Create(config);
    ASSERT_TRUE(created.ok());
    filter_ = std::move(*created);
    auto rules = filter::ParseRules("pass from 10.0.0.1/32 dport 7000-7001\ndefault drop\n");
    ASSERT_TRUE(rules.ok());
    para::Random rng(0x5EED);
    nucleus::CertificationAuthority authority(AuthorityKeys());
    auto keys = crypto::GenerateKeyPair(512, rng);
    auto grant =
        authority.Grant("filter-compiler", keys.public_key, nucleus::kCertKernelEligible);
    ASSERT_TRUE(nucleus_->certification().RegisterGrant(grant).ok());
    nucleus::Certifier certifier(
        "filter-compiler", keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    ASSERT_TRUE(filter_->LoadCertified(*rules, certifier, nucleus_->certification()).ok());
    rx_->stack().SetIngressFilter(filter_->Hook());

    obj::Interface* rx_iface = *rx_->GetInterface(StackType()->name());
    if (stack_socket) {
      ASSERT_TRUE(rx_->stack()
                      .BindPort(kPort, [this](const net::Datagram& d) {
                        ++delivered_;
                        delivered_bytes_ += d.payload.size();
                      })
                      .ok());
    } else {
      ASSERT_EQ(rx_iface->Invoke(1, kPort), 0u);
    }
    tx_iface_ = *tx_->GetInterface(StackType()->name());
    auto buffer = nucleus_->vmem().AllocatePages(app, 1, nucleus::kProtReadWrite);
    ASSERT_TRUE(buffer.ok());
    app_buffer_ = *buffer;
    ASSERT_TRUE(nucleus_->vmem().Write(app, app_buffer_, std::vector<uint8_t>(1280, 0x6B)).ok());
  }

  // One datagram at a time, as wire_mix sends them.
  void SendOne(net::Port port, uint64_t len) {
    ASSERT_EQ(tx_iface_->Invoke(0, kRxIp, uint64_t{kSrcPort} << 16 | port, app_buffer_, len), 0u);
    machine_.Advance(100);
    nucleus_->scheduler().RunUntilIdle();
  }

  nucleus::Context* kernel_ = nullptr;
  std::unique_ptr<NetDriver> driver_a_;
  std::unique_ptr<NetDriver> driver_b_;
  std::unique_ptr<filter::PacketFilter> filter_;  // outlives rx_, whose hook calls it
  std::unique_ptr<StackComponent> tx_;
  std::unique_ptr<StackComponent> rx_;
  obj::Interface* tx_iface_ = nullptr;
  nucleus::VAddr app_buffer_ = 0;
  uint64_t delivered_ = 0;
  uint64_t delivered_bytes_ = 0;
};

TEST_F(WireLedgerTest, WirePathAllocatesNothingAfterWarmUp) {
  ASSERT_NO_FATAL_FAILURE(BuildWire(/*stack_socket=*/true));
  constexpr uint64_t kSizes[] = {64, 512, 1280};
  for (int i = 0; i < 256; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort, kSizes[i % 3]));
  }
  const uint64_t before = Allocs();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort, kSizes[i % 3]));
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(delivered_, 3256u);
  EXPECT_EQ(delivered_bytes_, (256u + 3000u) / 3 * (64 + 512 + 1280) + 64);
}

TEST_F(WireLedgerTest, WirePathCopiesEachDatagramSixTimes) {
  // A 315-B payload makes a 357-B frame. Five CopyBytes calls carry the
  // frame (the sixth frame-sized copy, into the proxy's payload window, is a
  // memmove), one the FCS, and two the proxy's 48-B argument frame and 8-B
  // result.
  ASSERT_NO_FATAL_FAILURE(BuildWire(/*stack_socket=*/true));
  constexpr uint64_t kPayload = 315;
  for (int i = 0; i < 64; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort, kPayload));
  }
  const uint64_t copies = g_copies.load();
  const uint64_t bytes = g_copy_bytes.load();
  constexpr uint64_t kDatagrams = 100;
  for (uint64_t i = 0; i < kDatagrams; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort, kPayload));
  }
  EXPECT_EQ((g_copies.load() - copies) / kDatagrams, 8u);
  EXPECT_EQ((g_copies.load() - copies) % kDatagrams, 0u);
  EXPECT_EQ((g_copy_bytes.load() - bytes) / kDatagrams, 315u + 4 * 357u + 4 + 48 + 8);
  EXPECT_EQ((g_copy_bytes.load() - bytes) % kDatagrams, 0u);
  EXPECT_EQ(delivered_, 64u + kDatagrams);
}

TEST_F(WireLedgerTest, UnpolledDriverFloodAllocatesNothing) {
  // Nobody polls driver B: its device keeps the RX area's frame and a full
  // ring, and drops the rest at the tail.
  obj::Interface* tx = *driver_a_->GetInterface(NetDriverType()->name());
  obj::Interface* rx = *driver_b_->GetInterface(NetDriverType()->name());
  auto buffer = nucleus_->vmem().AllocatePages(kernel_, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE(nucleus_->vmem().Write(kernel_, *buffer, std::vector<uint8_t>(1500, 0x42)).ok());
  auto flood = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      ASSERT_EQ(tx->Invoke(0, *buffer, 1500), 0u);
      machine_.Advance(150);
    }
  };
  ASSERT_NO_FATAL_FAILURE(flood(64));  // warm-up: the link's in-flight slot
  const uint64_t before = Allocs();
  ASSERT_NO_FATAL_FAILURE(flood(100'000));
  EXPECT_EQ(Allocs() - before, 0u);

  const hw::NetworkDevice& device = driver_b_->device();
  constexpr uint64_t kHeld = 1 + hw::NetworkDevice::kRxQueueDepth;
  EXPECT_EQ(driver_b_->rx_frames_buffered(), kHeld);
  // The RX area's frame counts as received; the ring's are still queued.
  EXPECT_EQ(driver_a_->device().frames_sent(),
            device.frames_received() + device.frames_dropped() + (kHeld - 1));
  EXPECT_EQ(rx->Invoke(5, 2), device.frames_dropped());  // stats slot 2

  // One poll loop drains the device; the next frame is delivered.
  auto dest = nucleus_->vmem().AllocatePages(kernel_, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(dest.ok());
  uint64_t drained = 0;
  while (rx->Invoke(1, *dest, nucleus::kPageSize) == 1500) {
    ++drained;
  }
  EXPECT_EQ(drained, kHeld);
  EXPECT_EQ(driver_b_->rx_frames_buffered(), 0u);
  const uint64_t dropped = device.frames_dropped();
  ASSERT_EQ(tx->Invoke(0, *buffer, 1500), 0u);
  machine_.Advance(150);
  EXPECT_EQ(rx->Invoke(1, *dest, nucleus::kPageSize), 1500u);
  EXPECT_EQ(device.frames_dropped(), dropped);
}

TEST_F(WireLedgerTest, UnreadInboxFloodAllocatesAtMostItsDepth) {
  ASSERT_NO_FATAL_FAILURE(BuildWire(/*stack_socket=*/false));
  for (int i = 0; i < 64; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort + 1, 1000));  // warm-up: bound nowhere
  }
  const uint64_t before = Allocs();
  constexpr uint64_t kFlood = 2000;
  for (uint64_t i = 0; i < kFlood; ++i) {
    ASSERT_NO_FATAL_FAILURE(SendOne(kPort, 1000));
  }
  EXPECT_LE(Allocs() - before, StackComponent::kInboxDepth);
  EXPECT_EQ(rx_->datagrams_overflow(), kFlood - StackComponent::kInboxDepth);
}

}  // namespace
}  // namespace para::components
