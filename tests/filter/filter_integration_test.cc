// End-to-end packet-filter tests on the full testbed: two stack components
// over the simulated link, the filter installed at the stack's ingress /
// egress hook points, verdict events observed by a monitor, filter chains
// named in the directory, and hot rule-set reloads (including the sandboxed
// -> certified-trusted upgrade) with the opt-in keep-alive semantics that
// let established flows survive them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/sfi/jit.h"
#include "src/sfi/vm.h"
#include "tests/components/test_fixture.h"

namespace para::filter {
namespace {

using components::NetDriver;
using components::StackComponent;
using net::FilterDirection;
using net::FilterVerdict;
using para::testing::NucleusFixture;

class FilterIntegrationTest : public NucleusFixture {
 protected:
  void SetUp() override {
    auto* kernel = nucleus_->kernel_context();
    auto driver_a = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
    auto driver_b = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_b_, kernel);
    ASSERT_TRUE(driver_a.ok());
    ASSERT_TRUE(driver_b.ok());
    driver_a_ = std::move(*driver_a);
    driver_b_ = std::move(*driver_b);
    ASSERT_TRUE(
        nucleus_->directory().Register("/shared/net0", driver_a_.get(), kernel).ok());
    ASSERT_TRUE(
        nucleus_->directory().Register("/shared/net1", driver_b_.get(), kernel).ok());

    StackComponent::Deps deps{&nucleus_->vmem(), &nucleus_->events(), &nucleus_->directory()};
    auto tx = StackComponent::Create(deps, kernel, "/shared/net0",
                                     net::StackConfig{0xAAAA, 0x0A000001});
    auto rx = StackComponent::Create(deps, kernel, "/shared/net1",
                                     net::StackConfig{0xBBBB, 0x0A000002});
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(rx.ok());
    tx_ = std::move(*tx);
    rx_ = std::move(*rx);
    tx_->stack().AddNeighbor(0x0A000002, 0xBBBB);
    rx_->stack().AddNeighbor(0x0A000001, 0xAAAA);

    // Deliver everything that reaches a bound port into `delivered_`.
    for (net::Port port : {net::Port{80}, net::Port{81}, net::Port{9999}}) {
      ASSERT_TRUE(rx_->stack()
                      .BindPort(port,
                                [this, port](const net::Datagram& datagram) {
                                  delivered_.emplace_back(
                                      port, std::string(datagram.payload.begin(),
                                                        datagram.payload.end()));
                                })
                      .ok());
    }
  }

  // Sends one datagram tx -> rx and pumps the simulation.
  Status Send(net::Port src_port, net::Port dst_port, const std::string& text) {
    Status sent = tx_->stack().SendDatagram(
        0x0A000002, src_port, dst_port,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
    machine_.Advance(500);
    Settle();
    return sent;
  }

  // A certifier whose grant chains to the fixture's authority.
  nucleus::Certifier MakeCertifier() {
    para::Random rng(0x5EED);
    nucleus::CertificationAuthority authority(AuthorityKeys());
    auto keys = crypto::GenerateKeyPair(512, rng);
    auto grant = authority.Grant("filter-compiler", keys.public_key,
                                 nucleus::kCertKernelEligible);
    EXPECT_TRUE(nucleus_->certification().RegisterGrant(grant).ok());
    return nucleus::Certifier(
        "filter-compiler", keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
  }

  std::unique_ptr<NetDriver> driver_a_;
  std::unique_ptr<NetDriver> driver_b_;
  std::unique_ptr<StackComponent> tx_;
  std::unique_ptr<StackComponent> rx_;
  std::vector<std::pair<net::Port, std::string>> delivered_;
};

TEST_F(FilterIntegrationTest, IngressVerdictsAndEventNotifications) {
  FilterConfig config;
  config.name = "ingress";
  config.events = &nucleus_->events();
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules(
      "pass dport 80\n"
      "pass dport 81 proc count\n"
      "reject dport 9999\n"
      "default drop\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  rx_->stack().SetIngressFilter((*filter)->Hook());

  // A monitor subscribes to verdict events.
  std::vector<uint64_t> details;
  auto registration = nucleus_->events().Register(
      nucleus::kTrapFilterVerdict, nucleus_->kernel_context(),
      [&details](nucleus::EventNumber, uint64_t detail) { details.push_back(detail); },
      threads::DispatchMode::kRawCallback, "verdict-monitor");
  ASSERT_TRUE(registration.ok());

  EXPECT_TRUE(Send(4000, 80, "allowed").ok());
  EXPECT_TRUE(Send(4000, 81, "counted").ok());
  EXPECT_TRUE(Send(4000, 9999, "rejected").ok());
  EXPECT_TRUE(Send(4000, 7777, "defaulted").ok());

  // Two packets were delivered; reject and default-drop never reached a
  // socket (and never materialized a Datagram).
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0], (std::pair<net::Port, std::string>{80, "allowed"}));
  EXPECT_EQ(delivered_[1], (std::pair<net::Port, std::string>{81, "counted"}));

  const net::StackStats& stats = rx_->stack().stats();
  // The counted packet passes (counting is a procedure now, not a verdict);
  // the filter tallies the procedure run.
  EXPECT_EQ(stats.filter_pass, 2u);
  EXPECT_EQ(stats.filter_reject, 1u);
  EXPECT_EQ(stats.filter_drop, 1u);
  EXPECT_EQ(stats.filter_drop + stats.filter_reject, 2u);
  EXPECT_EQ(stats.datagrams_in, 2u);
  EXPECT_EQ((*filter)->stats().proc_invocations, 1u);

  // The monitor saw the count procedure's event and the reject, with
  // decodable details: the count event carries its procedure id (ordinal 1),
  // the reject comes from the dispatch verdict itself (proc 0).
  ASSERT_EQ(details.size(), 2u);
  EXPECT_EQ(FilterEventVerdict(details[0]), FilterVerdict::kPass);
  EXPECT_EQ(FilterEventProc(details[0]), 1u);
  EXPECT_EQ(FilterEventRule(details[0]), 1u);
  EXPECT_EQ(FilterEventVerdict(details[1]), FilterVerdict::kReject);
  EXPECT_EQ(FilterEventProc(details[1]), 0u);
  EXPECT_EQ(FilterEventRule(details[1]), 2u);
  EXPECT_EQ(FilterEventDirection(details[1]), FilterDirection::kIngress);
  EXPECT_EQ((*filter)->stats().events_raised, 2u);

  ASSERT_TRUE(nucleus_->events().Unregister(*registration).ok());
}

TEST_F(FilterIntegrationTest, EgressFilterBlocksAtTheSource) {
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules("drop dport 9999\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  tx_->stack().SetEgressFilter((*filter)->Hook());

  uint64_t frames_before = net_a_->frames_sent();
  Status blocked = Send(4000, 9999, "should not leave");
  EXPECT_EQ(blocked.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(net_a_->frames_sent(), frames_before);  // never hit the wire
  EXPECT_EQ(tx_->stack().stats().filter_drop + tx_->stack().stats().filter_reject, 1u);

  EXPECT_TRUE(Send(4000, 80, "fine").ok());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].second, "fine");
}

TEST_F(FilterIntegrationTest, HotReloadKeepsEstablishedFlowsAcrossModes) {
  FilterConfig config;
  config.name = "ingress";
  // This test exercises the opt-in keep-alive semantics; the default
  // re-evaluates established flows after a reload (covered in filter_test).
  config.flow_keepalive_across_reloads = true;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto permissive = ParseRules("pass dport 80\ndefault drop\n");
  auto lockdown = ParseRules("default drop\n");
  ASSERT_TRUE(permissive.ok() && lockdown.ok());
  ASSERT_TRUE((*filter)->Load(*permissive).ok());
  rx_->stack().SetIngressFilter((*filter)->Hook());

  // Establish a flow while the permissive set is installed.
  EXPECT_TRUE(Send(4000, 80, "syn").ok());
  ASSERT_EQ(delivered_.size(), 1u);

  // Hot reload #1: certified-trusted lockdown. The established flow keeps
  // flowing (served from the flow table); a new flow is dropped by the new
  // rules.
  nucleus::Certifier certifier = MakeCertifier();
  ASSERT_TRUE((*filter)->LoadCertified(*lockdown, certifier, nucleus_->certification()).ok());
  EXPECT_EQ((*filter)->mode(), sfi::ExecMode::kTrusted);

  EXPECT_TRUE(Send(4000, 80, "data after lockdown").ok());
  EXPECT_TRUE(Send(4001, 80, "new flow").ok());
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1].second, "data after lockdown");
  EXPECT_EQ(rx_->stack().stats().filter_drop + rx_->stack().stats().filter_reject, 1u);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);

  // Hot reload #2: back to a sandboxed set; the flow still survives.
  ASSERT_TRUE((*filter)->Load(*lockdown).ok());
  EXPECT_EQ((*filter)->mode(), sfi::ExecMode::kSandboxed);
  EXPECT_TRUE(Send(4000, 80, "still alive").ok());
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[2].second, "still alive");
}

TEST_F(FilterIntegrationTest, FlowEvictionUnderPressureForcesReevaluation) {
  FilterConfig config;
  config.flow_capacity = 4;
  config.flow_keepalive_across_reloads = true;  // isolate LRU-eviction effects
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto permissive = ParseRules("pass dport 80\ndefault drop\n");
  auto lockdown = ParseRules("default drop\n");
  ASSERT_TRUE(permissive.ok() && lockdown.ok());
  ASSERT_TRUE((*filter)->Load(*permissive).ok());
  rx_->stack().SetIngressFilter((*filter)->Hook());

  // Establish one flow, then reload to the lockdown set.
  EXPECT_TRUE(Send(4000, 80, "establish").ok());
  ASSERT_TRUE((*filter)->Load(*lockdown).ok());

  // Push more than `flow_capacity` distinct flows through: they are all
  // dropped by the new rules (drops do not occupy table space), so the
  // established flow survives...
  for (net::Port p = 5000; p < 5008; ++p) {
    EXPECT_TRUE(Send(p, 80, "pressure").ok());
  }
  EXPECT_TRUE(Send(4000, 80, "still cached").ok());
  EXPECT_EQ(delivered_.size(), 2u);

  // ...until passing flows crowd it out of the LRU. Reload a permissive set
  // and establish enough new flows to evict the old one, then lock down
  // again: the evicted flow now re-evaluates against the lockdown rules.
  ASSERT_TRUE((*filter)->Load(*permissive).ok());
  for (net::Port p = 6000; p < 6004; ++p) {
    EXPECT_TRUE(Send(p, 80, "filler").ok());
  }
  EXPECT_GT((*filter)->flows().stats().evictions, 0u);
  ASSERT_TRUE((*filter)->Load(*lockdown).ok());
  size_t before = delivered_.size();
  EXPECT_TRUE(Send(4000, 80, "evicted flow").ok());
  EXPECT_EQ(delivered_.size(), before);  // dropped: its flow entry is gone
}

TEST_F(FilterIntegrationTest, FilterChainsAreNamedDirectoryObjects) {
  FilterConfig ingress_config;
  ingress_config.name = "ingress";
  FilterConfig egress_config;
  egress_config.name = "egress";
  auto ingress = PacketFilter::Create(ingress_config);
  auto egress = PacketFilter::Create(egress_config);
  ASSERT_TRUE(ingress.ok() && egress.ok());
  auto rules = ParseRules("pass dport 80 proc count\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*ingress)->Load(*rules).ok());

  auto* kernel = nucleus_->kernel_context();
  ASSERT_TRUE(
      nucleus_->directory().Register("/shared/filter/ingress", ingress->get(), kernel).ok());
  ASSERT_TRUE(
      nucleus_->directory().Register("/shared/filter/egress", egress->get(), kernel).ok());

  auto chains = nucleus_->directory().List("/shared/filter");
  ASSERT_TRUE(chains.ok());
  EXPECT_EQ(*chains, (std::vector<std::string>{"egress", "ingress"}));

  // A management client binds by name and reads filter state through the
  // exported interface.
  auto binding = nucleus_->directory().Bind("/shared/filter/ingress", kernel);
  ASSERT_TRUE(binding.ok());
  auto iface = binding->object->GetInterface(FilterType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(1), 1u);  // rule_count
  EXPECT_EQ((*iface)->Invoke(2), 0u);  // sandboxed
}


TEST_F(FilterIntegrationTest, ExecutionBackendIsObservableNotAssumed) {
  // The classifier's execution backend (JIT vs threaded fallback) is part of
  // the filter's observable state: a silent fallback must be detectable, so
  // a "JIT" benchmark number can never secretly be the interpreter. Asserted
  // both through the typed accessors and through the exported interface
  // (stats slots 14/15) a management client would use.
  FilterConfig config;
  config.name = "observed";
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules("drop dport 9999\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  rx_->stack().SetIngressFilter((*filter)->Hook());

  EXPECT_TRUE(Send(4000, 80, "one").ok());
  EXPECT_TRUE(Send(4000, 9999, "two").ok());
  ASSERT_GE((*filter)->stats().evaluated, 2u);

  const bool jit = sfi::JitAvailable();
  EXPECT_EQ((*filter)->exec_backend(),
            jit ? sfi::VmBackend::kJit : sfi::VmBackend::kThreaded);
  if (jit) {
    // Both classifications were served by native code, not the threaded loop.
    EXPECT_GE((*filter)->vm_stats().jit_runs, 2u);
  } else {
    EXPECT_EQ((*filter)->vm_stats().jit_runs, 0u);
  }

  auto iface = (*filter)->GetInterface(FilterType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 14), jit ? 1u : 0u);
  EXPECT_EQ((*iface)->Invoke(0, 15), (*filter)->vm_stats().jit_runs);

  // A hot reload re-resolves the backend: the replacement program must land
  // on the same backend on this host, and its run counter starts fresh.
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  EXPECT_EQ((*filter)->exec_backend(),
            jit ? sfi::VmBackend::kJit : sfi::VmBackend::kThreaded);
  EXPECT_EQ((*iface)->Invoke(0, 15), 0u);
}

}  // namespace
}  // namespace para::filter
