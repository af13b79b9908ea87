// A stateful in-nucleus firewall, end to end (ISSUE 3; §1, §4 of the paper):
//
//   1. A rule set in the NPF-style text language compiles to SFI bytecode
//      and runs *sandboxed* at the receive stack's ingress hook — untrusted
//      rules, per-access run-time checks.
//   2. The same rule set is certified (compile -> verify -> sign ->
//      kernel validation) and hot-reloaded *trusted* — no run-time checks,
//      and the established flow keeps flowing through the reload.
//   3. A lockdown rule set is hot-loaded: the established flow still
//      survives (stateful firewalling), while new flows are refused; a
//      monitor subscribed to verdict events watches rejects live.
//   4. Rule procedures (PAPER.md's extensible in-kernel services, NPF's
//      rprocs): a web rule gains `proc ratelimit(...) proc log(...)` — a
//      token bucket and a sampled logger, each its own certified SFI
//      program — and the monitor watches the logger's events arrive.
//
//   $ ./firewall
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/telemetry.h"
#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/components/telemetry_object.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/hw/netdev.h"
#include "src/nucleus/nucleus.h"
#include "src/sfi/jit.h"

using namespace para;           // NOLINT
using namespace para::nucleus;  // NOLINT

namespace {

constexpr net::IpAddr kClientIp = 0x0A000001;  // 10.0.0.1
constexpr net::IpAddr kServerIp = 0x0A010002;  // 10.1.0.2

struct Testbed {
  hw::Machine machine;
  hw::NetworkDevice* client_dev = nullptr;
  hw::NetworkDevice* server_dev = nullptr;
  std::unique_ptr<Nucleus> nucleus;
  std::unique_ptr<components::NetDriver> client_drv;
  std::unique_ptr<components::NetDriver> server_drv;
  std::unique_ptr<components::StackComponent> client;
  std::unique_ptr<components::StackComponent> server;

  void Pump() {
    machine.Advance(500);
    for (int i = 0; i < 64; ++i) {
      bool progress = machine.IdleStep();
      nucleus->scheduler().RunUntilIdle();
      if (!progress) {
        break;
      }
    }
  }
};

Status SendFrom(Testbed& bed, net::Port sport, net::Port dport, const std::string& text) {
  Status sent = bed.client->stack().SendDatagram(
      kServerIp, sport, dport,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  bed.Pump();
  return sent;
}

}  // namespace

int main() {
  Testbed bed;
  para::Random rng(0xF12E);

  // Trust setup: the authority delegates to the filter compiler's certifier.
  CertificationAuthority authority(crypto::GenerateKeyPair(512, rng));
  auto signer_keys = crypto::GenerateKeyPair(512, rng);
  auto grant = authority.Grant("filter-compiler", signer_keys.public_key,
                               kCertKernelEligible);
  Certifier certifier(
      "filter-compiler", signer_keys, grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });

  bed.client_dev =
      bed.machine.AddDevice(std::make_unique<hw::NetworkDevice>("net0", 4, 0xAAAA));
  bed.server_dev =
      bed.machine.AddDevice(std::make_unique<hw::NetworkDevice>("net1", 5, 0xBBBB));
  auto* link =
      bed.machine.AddLink(hw::NetworkLink::Config{.latency = 100, .loss_rate = 0.0, .seed = 1});
  link->Attach(bed.client_dev, bed.server_dev);

  Nucleus::Config config;
  config.physical_pages = 512;
  config.authority_key = authority.public_key();
  bed.nucleus = std::make_unique<Nucleus>(&bed.machine, config);
  PARA_CHECK(bed.nucleus->Boot().ok());
  PARA_CHECK(bed.nucleus->certification().RegisterGrant(grant).ok());

  auto* kernel = bed.nucleus->kernel_context();
  auto client_drv = components::NetDriver::Create(&bed.nucleus->vmem(),
                                                  &bed.nucleus->events(), bed.client_dev,
                                                  kernel);
  auto server_drv = components::NetDriver::Create(&bed.nucleus->vmem(),
                                                  &bed.nucleus->events(), bed.server_dev,
                                                  kernel);
  PARA_CHECK(client_drv.ok() && server_drv.ok());
  bed.client_drv = std::move(*client_drv);
  bed.server_drv = std::move(*server_drv);
  PARA_CHECK(
      bed.nucleus->directory().Register("/shared/net0", bed.client_drv.get(), kernel).ok());
  PARA_CHECK(
      bed.nucleus->directory().Register("/shared/net1", bed.server_drv.get(), kernel).ok());

  components::StackComponent::Deps deps{&bed.nucleus->vmem(), &bed.nucleus->events(),
                                        &bed.nucleus->directory()};
  auto client = components::StackComponent::Create(deps, kernel, "/shared/net0",
                                                   net::StackConfig{0xAAAA, kClientIp});
  auto server = components::StackComponent::Create(deps, kernel, "/shared/net1",
                                                   net::StackConfig{0xBBBB, kServerIp});
  PARA_CHECK(client.ok() && server.ok());
  bed.client = std::move(*client);
  bed.server = std::move(*server);
  bed.client->stack().AddNeighbor(kServerIp, 0xBBBB);
  bed.server->stack().AddNeighbor(kClientIp, 0xAAAA);

  std::vector<std::string> delivered;
  PARA_CHECK(bed.server->stack()
                 .BindPort(80,
                           [&delivered](const net::Datagram& datagram) {
                             delivered.emplace_back(datagram.payload.begin(),
                                                    datagram.payload.end());
                           })
                 .ok());

  // The firewall: a named filter chain on the server's ingress path.
  filter::FilterConfig fw_config;
  fw_config.name = "fw0";
  fw_config.events = &bed.nucleus->events();
  // Act 3 shows the stateful keep-alive story: established flows outlive the
  // lockdown reload. That is opt-in now — by default a reload re-evaluates
  // established flows against the new rules (fail closed).
  fw_config.flow_keepalive_across_reloads = true;
  auto firewall = filter::PacketFilter::Create(fw_config);
  PARA_CHECK(firewall.ok());
  PARA_CHECK(bed.nucleus->directory()
                 .Register("/shared/filter/fw0", firewall->get(), kernel)
                 .ok());
  bed.server->stack().SetIngressFilter((*firewall)->Hook());

  // A monitor subscribes to verdict events. The detail word carries the
  // verdict, the direction, the raising procedure's id (0 = the dispatch
  // program itself), and the rule index.
  uint64_t rejects_seen = 0;
  uint64_t proc_events_seen = 0;
  PARA_CHECK(bed.nucleus->events()
                 .Register(kTrapFilterVerdict, kernel,
                           [&rejects_seen, &proc_events_seen](EventNumber, uint64_t detail) {
                             if (filter::FilterEventVerdict(detail) ==
                                 net::FilterVerdict::kReject) {
                               ++rejects_seen;
                             }
                             if (filter::FilterEventProc(detail) != 0) {
                               ++proc_events_seen;
                             }
                           },
                           threads::DispatchMode::kRawCallback, "fw-monitor")
                 .ok());

  // --- Act 1: untrusted rules, sandboxed execution --------------------------
  auto rules = filter::ParseRules(R"(
    pass from 10.0.0.0/8 dport 80 proto udp
    reject dport 23          ; nobody gets telnet
    default drop
  )");
  PARA_CHECK(rules.ok());
  PARA_CHECK((*firewall)->Load(*rules).ok());
  // The backend actually executing the classifier is part of the filter's
  // observable state: on x86-64 hosts (without PARA_SFI_NO_JIT) that must be
  // the native JIT, and a silent fallback to the threaded loop would be a
  // bug, not a footnote.
  const bool expect_jit = sfi::JitAvailable();
  PARA_CHECK((*firewall)->exec_backend() ==
             (expect_jit ? sfi::VmBackend::kJit : sfi::VmBackend::kThreaded));
  std::printf("loaded %zu rules, mode=sandboxed (SFI run-time checks), backend=%s\n",
              (*firewall)->rule_count(), expect_jit ? "jit" : "threaded");

  PARA_CHECK(SendFrom(bed, 4000, 80, "GET /index").ok());
  (void)SendFrom(bed, 4000, 23, "telnet?");
  std::printf("  http delivered=%zu, rejects seen by monitor=%llu\n", delivered.size(),
              static_cast<unsigned long long>(rejects_seen));

  // --- Act 2: the same rules, certified and trusted -------------------------
  PARA_CHECK(
      (*firewall)->LoadCertified(*rules, certifier, bed.nucleus->certification()).ok());
  std::printf("hot reload: certified, mode=trusted (no run-time checks); "
              "flow table kept %zu flow(s)\n",
              (*firewall)->flows().size());
  PARA_CHECK(SendFrom(bed, 4000, 80, "GET /again").ok());
  std::printf("  established flow still flowing: delivered=%zu (flow hits=%llu)\n",
              delivered.size(),
              static_cast<unsigned long long>((*firewall)->stats().flow_hits));

  // --- Act 3: lockdown without dropping established flows -------------------
  auto lockdown = filter::ParseRules("default drop\n");
  PARA_CHECK(lockdown.ok());
  PARA_CHECK(
      (*firewall)->LoadCertified(*lockdown, certifier, bed.nucleus->certification()).ok());
  PARA_CHECK(SendFrom(bed, 4000, 80, "GET /still-here").ok());  // established: passes
  (void)SendFrom(bed, 4001, 80, "new flow");                    // new flow: dropped
  const net::StackStats& server_stats = bed.server->stack().stats();
  std::printf("lockdown reload: delivered=%zu (established flow survived), "
              "filter_drop+filter_reject=%llu\n",
              delivered.size(),
              static_cast<unsigned long long>(server_stats.filter_drop +
                                              server_stats.filter_reject));

  // --- Act 4: rule procedures — rate-limited, logged web traffic ------------
  // The web rule gains two `proc` clauses: a token bucket that admits a
  // two-packet burst, then a logger that raises a verdict event for every
  // packet the bucket admits. Each procedure compiles to its own SFI
  // program and rides the same certify -> kernel-validate path as the
  // dispatch program, so the whole chain runs trusted.
  auto limited = filter::ParseRules(R"(
    pass from 10.0.0.0/8 dport 80 proto udp proc ratelimit(rate=1,burst=2) proc log(every=1)
    default drop
  )");
  PARA_CHECK(limited.ok());
  PARA_CHECK(
      (*firewall)->LoadCertified(*limited, certifier, bed.nucleus->certification()).ok());
  for (int i = 0; i < 4; ++i) {
    (void)SendFrom(bed, 4002, 80, "burst " + std::to_string(i));
  }
  std::printf("rate limit: 4 packets sent, delivered=%zu (bucket admitted 2), "
              "proc blocks=%llu, log events=%llu\n",
              delivered.size(),
              static_cast<unsigned long long>((*firewall)->stats().proc_blocks),
              static_cast<unsigned long long>(proc_events_seen));

  // Every classification across all four acts ran on the resolved backend;
  // vm_stats().jit_runs counts the runs native code actually served, so a
  // fallback mid-demo cannot masquerade as a JIT'd run.
  PARA_CHECK((*firewall)->exec_backend() ==
             (expect_jit ? sfi::VmBackend::kJit : sfi::VmBackend::kThreaded));
  PARA_CHECK(expect_jit ? (*firewall)->vm_stats().jit_runs > 0
                        : (*firewall)->vm_stats().jit_runs == 0);

  const filter::FilterStats& stats = (*firewall)->stats();
  std::printf("\nfirewall stats: evaluated=%llu pass=%llu drop=%llu reject=%llu "
              "flow_hits=%llu reloads=%llu proc_invocations=%llu proc_blocks=%llu\n",
              static_cast<unsigned long long>(stats.evaluated),
              static_cast<unsigned long long>(stats.pass),
              static_cast<unsigned long long>(stats.drop),
              static_cast<unsigned long long>(stats.reject),
              static_cast<unsigned long long>(stats.flow_hits),
              static_cast<unsigned long long>(stats.reloads),
              static_cast<unsigned long long>(stats.proc_invocations),
              static_cast<unsigned long long>(stats.proc_blocks));
  PARA_CHECK(delivered.size() == 5);
  PARA_CHECK(rejects_seen == 1);
  PARA_CHECK(proc_events_seen == 2);
  PARA_CHECK(stats.proc_blocks == 2);

  // --- Final act: the unified telemetry view --------------------------------
  // Everything the demo just did — proxy faults, event dispatches, filter
  // verdicts, flow-table traffic, SFI runs — landed in one registry under
  // one naming scheme. Bind "paramecium.telemetry" and dump it.
  auto telemetry = components::TelemetryObject::Create();
  PARA_CHECK(bed.nucleus->directory()
                 .Register("/services/telemetry", telemetry.get(),
                           bed.nucleus->kernel_context())
                 .ok());
  std::printf("\n-- paramecium.telemetry snapshot (filter + flow + sfi rows) --\n");
  const telemetry::Snapshot snap = telemetry->TakeSnapshot();
  for (const telemetry::MetricValue& m : snap.metrics) {
    if (m.value == 0) continue;  // only rows the demo actually moved
    if (m.name.rfind("filter.", 0) == 0 || m.name.rfind("sfi.", 0) == 0) {
      std::printf("  %-44s %llu\n", m.name.c_str(),
                  static_cast<unsigned long long>(m.value));
    }
  }
  const std::vector<telemetry::TraceEvent> trace =
      telemetry::Registry::Get().TraceSnapshot();
  std::printf("trace ring: %zu events buffered (chrome://tracing JSON is %zu bytes)\n",
              trace.size(), telemetry->RenderTraceJson().size());
  if constexpr (telemetry::kEnabled) {
    PARA_CHECK(!trace.empty());  // the certified reload alone spans the ring
  }

  std::printf("firewall demo OK\n");
  return 0;
}
