// Protocol-stack component placement tests — the E9 configurability story:
// identical component code bound to the driver directly (same domain) or via
// a cross-domain proxy.
#include "src/components/protocol_stack.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/components/net_driver.h"
#include "tests/components/test_fixture.h"

namespace para::components {
namespace {

using para::testing::NucleusFixture;

class StackComponentTest : public NucleusFixture {
 protected:
  void SetUp() override {
    auto* kernel = nucleus_->kernel_context();
    auto driver_a = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
    auto driver_b = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_b_, kernel);
    ASSERT_TRUE(driver_a.ok());
    ASSERT_TRUE(driver_b.ok());
    driver_a_ = std::move(*driver_a);
    driver_b_ = std::move(*driver_b);
    ASSERT_TRUE(nucleus_->directory()
                    .Register("/shared/net0", driver_a_.get(), kernel)
                    .ok());
    ASSERT_TRUE(nucleus_->directory()
                    .Register("/shared/net1", driver_b_.get(), kernel)
                    .ok());
  }

  StackComponent::Deps Deps() {
    return StackComponent::Deps{&nucleus_->vmem(), &nucleus_->events(),
                                &nucleus_->directory()};
  }

  // Sends `text` from one stack component to another and returns what
  // arrived on `port` at the receiver.
  std::string RoundTrip(StackComponent* sender, StackComponent* receiver, uint16_t port,
                        const std::string& text) {
    auto* vmem = &nucleus_->vmem();
    auto sbuf = vmem->AllocatePages(sender->home(), 1, nucleus::kProtReadWrite);
    EXPECT_TRUE(sbuf.ok());
    EXPECT_TRUE(vmem->Write(sender->home(), *sbuf,
                            std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                    .ok());

    auto siface = sender->GetInterface(StackType()->name());
    EXPECT_TRUE(siface.ok());
    auto riface = receiver->GetInterface(StackType()->name());
    EXPECT_TRUE(riface.ok());
    EXPECT_EQ((*riface)->Invoke(1, port), 0u);  // bind_port

    net::IpAddr dst = receiver->stack().config().ip;
    uint64_t ports = (uint64_t{9999} << 16) | port;
    EXPECT_EQ((*siface)->Invoke(0, dst, ports, *sbuf, text.size()), 0u);

    machine_.Advance(500);
    Settle();

    auto rbuf = vmem->AllocatePages(receiver->home(), 1, nucleus::kProtReadWrite);
    EXPECT_TRUE(rbuf.ok());
    uint64_t len = (*riface)->Invoke(2, port, *rbuf, nucleus::kPageSize);
    std::string out(len, '\0');
    EXPECT_TRUE(vmem->Read(receiver->home(), *rbuf,
                           std::span<uint8_t>(reinterpret_cast<uint8_t*>(out.data()), len))
                    .ok());
    return out;
  }

  std::unique_ptr<NetDriver> driver_a_;
  std::unique_ptr<NetDriver> driver_b_;
};

TEST_F(StackComponentTest, InKernelPlacementBindsDirect) {
  auto stack = StackComponent::Create(Deps(), nucleus_->kernel_context(), "/shared/net0",
                                      net::StackConfig{0xAAAA, 0x0A000001});
  ASSERT_TRUE(stack.ok());
  EXPECT_FALSE((*stack)->bound_via_proxy());
}

TEST_F(StackComponentTest, UserPlacementBindsViaProxy) {
  nucleus::Context* user = nucleus_->CreateUserContext("app");
  auto stack = StackComponent::Create(Deps(), user, "/shared/net0",
                                      net::StackConfig{0xAAAA, 0x0A000001});
  ASSERT_TRUE(stack.ok());
  EXPECT_TRUE((*stack)->bound_via_proxy());
}

TEST_F(StackComponentTest, KernelToKernelDatagram) {
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  (*rx)->stack().AddNeighbor(0x0A000001, 0xAAAA);

  EXPECT_EQ(RoundTrip(tx->get(), rx->get(), 80, "kernel to kernel"), "kernel to kernel");
  EXPECT_EQ((*tx)->stack().stats().datagrams_out, 1u);
  EXPECT_EQ((*rx)->stack().stats().datagrams_in, 1u);
}

TEST_F(StackComponentTest, OversizeDatagramDoesNotStrandTheOneBehindIt) {
  // A 100-B datagram, then a 40-B one, read with a 64-B buffer: the first is
  // dropped and counted, and the same recv returns the second.
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  (*rx)->stack().AddNeighbor(0x0A000001, 0xAAAA);
  auto siface = (*tx)->GetInterface(StackType()->name());
  auto riface = (*rx)->GetInterface(StackType()->name());
  ASSERT_TRUE(siface.ok());
  ASSERT_TRUE(riface.ok());
  ASSERT_EQ((*riface)->Invoke(1, 80), 0u);

  auto* vmem = &nucleus_->vmem();
  auto sbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(sbuf.ok());
  ASSERT_TRUE(rbuf.ok());
  std::vector<uint8_t> payload(100, 'x');
  ASSERT_TRUE(vmem->Write(kernel, *sbuf, payload).ok());
  const uint64_t ports = (uint64_t{9999} << 16) | 80;
  ASSERT_EQ((*siface)->Invoke(0, 0x0A000002, ports, *sbuf, 100), 0u);
  ASSERT_EQ((*siface)->Invoke(0, 0x0A000002, ports, *sbuf, 40), 0u);
  machine_.Advance(500);
  Settle();

  EXPECT_EQ((*riface)->Invoke(2, 80, *rbuf, 64), 40u);
  EXPECT_EQ((*rx)->datagrams_oversize(), 1u);
  EXPECT_EQ((*riface)->Invoke(2, 80, *rbuf, 64), 0u);  // nothing left
  EXPECT_EQ((*rx)->datagrams_oversize(), 1u);
}

TEST_F(StackComponentTest, UserPlacedStackStillMovesDatagrams) {
  // The same component, placed in a user domain: all driver traffic crosses
  // the proxy, payload marshalling included.
  nucleus::Context* user = nucleus_->CreateUserContext("app");
  auto tx = StackComponent::Create(Deps(), user, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), nucleus_->kernel_context(), "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  (*rx)->stack().AddNeighbor(0x0A000001, 0xAAAA);

  uint64_t proxy_calls_before = nucleus_->proxies().stats().calls;
  EXPECT_EQ(RoundTrip(tx->get(), rx->get(), 80, "via proxy"), "via proxy");
  EXPECT_GT(nucleus_->proxies().stats().calls, proxy_calls_before);
  EXPECT_GT(nucleus_->proxies().stats().payload_bytes, 0u);
}

TEST_F(StackComponentTest, BidirectionalUserStacks) {
  nucleus::Context* app1 = nucleus_->CreateUserContext("app1");
  nucleus::Context* app2 = nucleus_->CreateUserContext("app2");
  auto s1 = StackComponent::Create(Deps(), app1, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto s2 = StackComponent::Create(Deps(), app2, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  (*s1)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  (*s2)->stack().AddNeighbor(0x0A000001, 0xAAAA);

  EXPECT_EQ(RoundTrip(s1->get(), s2->get(), 10, "one way"), "one way");
  EXPECT_EQ(RoundTrip(s2->get(), s1->get(), 11, "other way"), "other way");
}

TEST_F(StackComponentTest, OversizedSendFailsAndLargeFramesStillFlow) {
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);

  // Send accepts up to a page of payload; a page-sized datagram's frame is
  // 42 bytes larger than the staging page, so the send fails cleanly.
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  auto iface = (*tx)->GetInterface(StackType()->name());
  ASSERT_TRUE(iface.ok());
  const uint64_t ports = (uint64_t{9999} << 16) | 80;
  EXPECT_EQ((*iface)->Invoke(0, 0x0A000002, ports, *buf, nucleus::kPageSize), ~uint64_t{0});

  // A 2000-byte datagram (a 2042-byte frame) fits the device and arrives.
  const std::string large(2000, 'L');
  EXPECT_EQ(RoundTrip(tx->get(), rx->get(), 80, large), large);
}

TEST_F(StackComponentTest, RecvOnEmptyPortReturnsZero) {
  auto stack = StackComponent::Create(Deps(), nucleus_->kernel_context(), "/shared/net0",
                                      net::StackConfig{0xAAAA, 0x0A000001});
  ASSERT_TRUE(stack.ok());
  auto iface = (*stack)->GetInterface(StackType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(1, 80), 0u);
  auto buf = nucleus_->vmem().AllocatePages(nucleus_->kernel_context(), 1,
                                            nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ((*iface)->Invoke(2, 80, *buf, nucleus::kPageSize), 0u);
}

TEST_F(StackComponentTest, ZeroLengthFramesDoNotStrandFramesBehindThem) {
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  auto siface = (*tx)->GetInterface(StackType()->name());
  auto riface = (*rx)->GetInterface(StackType()->name());
  auto driver = driver_a_->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(siface.ok());
  ASSERT_TRUE(riface.ok());
  ASSERT_TRUE(driver.ok());
  ASSERT_EQ((*riface)->Invoke(1, 80), 0u);  // bind_port

  // With interrupts off, the receiver's device queues two empty frames from
  // the peer's driver and then one datagram.
  const std::string text = "behind the empty frames";
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  std::span<const uint8_t> payload(reinterpret_cast<const uint8_t*>(text.data()), text.size());
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf, payload).ok());
  machine_.irq().DisableInterrupts();
  EXPECT_EQ((*driver)->Invoke(0, *buf, 0), 0u);  // send, zero length
  EXPECT_EQ((*driver)->Invoke(0, *buf, 0), 0u);
  const uint64_t ports = (uint64_t{9999} << 16) | 80;
  EXPECT_EQ((*siface)->Invoke(0, 0x0A000002, ports, *buf, text.size()), 0u);
  machine_.Advance(500);
  machine_.irq().EnableInterrupts();
  Settle();

  // The datagram arrives without any later frame to push it along.
  EXPECT_EQ(driver_b_->rx_frames_buffered(), 0u);
  EXPECT_EQ(driver_b_->frames_empty(), 2u);
  auto rbuf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(rbuf.ok());
  EXPECT_EQ((*riface)->Invoke(2, 80, *rbuf, nucleus::kPageSize), text.size());
  EXPECT_EQ((*rx)->stack().stats().datagrams_in, 1u);
}

TEST_F(StackComponentTest, UnreadPortKeepsAnInboxDepthAndCountsTheRest) {
  // 20 000 datagrams of 1000 B to a bound port nobody reads: the inbox
  // keeps kInboxDepth of them and drops the rest at the tail.
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  obj::Interface* siface = *(*tx)->GetInterface(StackType()->name());
  obj::Interface* riface = *(*rx)->GetInterface(StackType()->name());
  ASSERT_EQ(riface->Invoke(1, 80), 0u);
  auto* vmem = &nucleus_->vmem();
  auto sbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(sbuf.ok());
  ASSERT_TRUE(rbuf.ok());
  ASSERT_TRUE(vmem->Write(kernel, *sbuf, std::vector<uint8_t>(1000, 0x3C)).ok());

  constexpr uint64_t kFlood = 20'000;
  const uint64_t ports = (uint64_t{9999} << 16) | 80;
  for (uint64_t i = 0; i < kFlood; ++i) {
    ASSERT_EQ(siface->Invoke(0, 0x0A000002, ports, *sbuf, 1000), 0u);
    machine_.Advance(200);
    nucleus_->scheduler().RunUntilIdle();
  }
  EXPECT_EQ((*rx)->stack().stats().datagrams_in, kFlood);
  EXPECT_EQ((*rx)->datagrams_overflow(), kFlood - StackComponent::kInboxDepth);
  for (size_t i = 0; i < StackComponent::kInboxDepth; ++i) {
    ASSERT_EQ(riface->Invoke(2, 80, *rbuf, nucleus::kPageSize), 1000u) << i;
  }
  EXPECT_EQ(riface->Invoke(2, 80, *rbuf, nucleus::kPageSize), 0u);

  // Drained, the port takes the next datagram.
  ASSERT_TRUE(vmem->Write(kernel, *sbuf, std::vector<uint8_t>{'l', 'a', 't', 'e'}).ok());
  ASSERT_EQ(siface->Invoke(0, 0x0A000002, ports, *sbuf, 4), 0u);
  machine_.Advance(200);
  Settle();
  ASSERT_EQ(riface->Invoke(2, 80, *rbuf, nucleus::kPageSize), 4u);
  std::vector<uint8_t> got(4);
  ASSERT_TRUE(vmem->Read(kernel, *rbuf, got).ok());
  EXPECT_EQ(got, (std::vector<uint8_t>{'l', 'a', 't', 'e'}));
  EXPECT_EQ((*rx)->datagrams_overflow(), kFlood - StackComponent::kInboxDepth);
}

TEST_F(StackComponentTest, RecvIntoAnUnmappedBufferKeepsTheDatagram) {
  auto* kernel = nucleus_->kernel_context();
  auto tx = StackComponent::Create(Deps(), kernel, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  obj::Interface* riface = *(*rx)->GetInterface(StackType()->name());
  ASSERT_EQ(riface->Invoke(1, 80), 0u);
  auto* vmem = &nucleus_->vmem();
  auto sbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(sbuf.ok());
  ASSERT_TRUE(rbuf.ok());
  const std::vector<uint8_t> text = {'k', 'e', 'p', 't'};
  ASSERT_TRUE(vmem->Write(kernel, *sbuf, text).ok());
  obj::Interface* siface = *(*tx)->GetInterface(StackType()->name());
  ASSERT_EQ(siface->Invoke(0, 0x0A000002, (uint64_t{9999} << 16) | 80, *sbuf, text.size()), 0u);
  machine_.Advance(500);
  Settle();

  // The copy out fails, so the datagram stays queued for the next recv.
  constexpr uint64_t kUnmapped = 0x7FFF'0000'0000;
  EXPECT_EQ(riface->Invoke(2, 80, kUnmapped, nucleus::kPageSize), 0u);
  ASSERT_EQ(riface->Invoke(2, 80, *rbuf, nucleus::kPageSize), text.size());
  std::vector<uint8_t> got(text.size());
  ASSERT_TRUE(vmem->Read(kernel, *rbuf, got).ok());
  EXPECT_EQ(got, text);
  EXPECT_EQ(riface->Invoke(2, 80, *rbuf, nucleus::kPageSize), 0u);
}

TEST_F(StackComponentTest, MissingDriverPathFails) {
  auto stack = StackComponent::Create(Deps(), nucleus_->kernel_context(), "/shared/ghost",
                                      net::StackConfig{0xAAAA, 0x0A000001});
  EXPECT_FALSE(stack.ok());
}

}  // namespace
}  // namespace para::components
