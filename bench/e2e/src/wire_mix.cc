// wire_mix: the full testbed. Two NetworkDevices share a NetworkLink, each
// with a NetDriver in the kernel. The sender StackComponent lives in a user
// domain, so it reaches its driver through the fault-driven proxy; the
// receiver StackComponent lives in the kernel with a certified 64-rule
// PacketFilter on ingress and the benchmark's own socket handler. One
// datagram is in flight at a time; payloads are drawn 7:4:1 from
// {64, 512, 1280} bytes over 64 flows, all of which the rules pass.
//
// Hardware, the nucleus (I/O space, proxy, events), the pop-up threads and
// the components do the work here; the filter is well under 1% of it, so a
// filter-only change must read as no change on this workload while driver,
// proxy and scheduler changes show.
//
// Traced bed only: timing interposers replace both drivers at their
// directory names (the paper's interposition mechanism), raw event
// call-backs registered around the driver's and the stack's pop-up RX
// handlers stamp the interrupt path, and the filter hook is wrapped.
#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "bench/e2e/src/common.h"
#include "bench/e2e/src/traffic.h"
#include "bench/e2e/src/workload.h"
#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/filter/compiler.h"
#include "src/nucleus/nucleus.h"

namespace para::e2e {
namespace {

using components::NetDriver;
using components::StackComponent;

constexpr size_t kRules = 64;
constexpr size_t kFlows = 64;
constexpr size_t kRing = size_t{1} << 16;  // item sequence, replayed cyclically
constexpr size_t kPoolBytes = size_t{1} << 16;
constexpr size_t kMaxPayload = 1280;
constexpr uint64_t kWarmupItems = 256;
constexpr net::IpAddr kTxIp = 0x0A000001;  // 10.0.0.1
constexpr net::IpAddr kRxIp = 0x0A000002;  // 10.0.0.2
constexpr net::MacAddr kTxMac = 0xAAAA;
constexpr net::MacAddr kRxMac = 0xBBBB;
constexpr int kTxIrq = 4;
constexpr int kRxIrq = 5;
constexpr VTime kLinkLatency = 100;

struct Item {
  uint8_t flow;
  uint16_t len;
};

struct WireInputs {
  filter::RuleSet rules;
  std::array<Flow, kFlows> flows;
  std::array<uint64_t, kFlows> expected;  // NativeMatch word per flow
  std::vector<Item> items;
  std::vector<uint8_t> pool;  // payload bytes
};

std::shared_ptr<const WireInputs> MakeInputs(uint64_t seed) {
  static std::map<uint64_t, std::shared_ptr<const WireInputs>> cache;
  auto& slot = cache[seed];
  if (slot != nullptr) {
    return slot;
  }
  auto in = std::make_shared<WireInputs>();
  Random rng(seed * 0x2545F4914F6CDD1Dull + 3);
  std::vector<RuleRegion> regions = MakeRegions(rng, kRules);
  for (RuleRegion& r : regions) {
    r.src = kTxIp & filter::PrefixMask(r.prefix);  // every rule can see the sender
  }
  in->rules = MakeRuleSet(regions, rng, 0.3, 0.0);
  for (size_t i = 0; i < kFlows;) {
    Flow flow{kTxIp, static_cast<net::Port>(1024 + rng.NextBelow(64000)),
              ServicePort(rng.NextBelow(kServicePorts))};
    const uint64_t word = filter::NativeMatch(in->rules, ViewOf(flow, kRxIp, {}));
    if (filter::DecodeVerdict(word).verdict == net::FilterVerdict::kPass) {
      in->flows[i] = flow;
      in->expected[i++] = word;
    }
  }
  in->items.reserve(kRing);
  for (size_t k = 0; k < kRing; ++k) {
    const uint64_t size_draw = rng.NextBelow(12);
    const uint16_t len = size_draw < 7 ? 64 : size_draw < 11 ? 512 : 1280;
    in->items.push_back(Item{static_cast<uint8_t>(rng.NextBelow(kFlows)), len});
  }
  in->pool.resize(kPoolBytes + kMaxPayload);
  FillPattern(seed, in->pool);
  slot = std::move(in);
  return slot;
}

// A bench-owned interposer on the NetDriver interface: forwards every slot
// to the real driver, timing send and poll_recv.
class TimingInterposer : public obj::Object {
 public:
  static Result<std::unique_ptr<TimingInterposer>> Wrap(obj::Object* driver, Tracer* tracer) {
    PARA_ASSIGN_OR_RETURN(obj::Interface * target,
                          driver->GetInterface(components::NetDriverType()->name()));
    auto tap = std::unique_ptr<TimingInterposer>(new TimingInterposer(tracer, target));
    obj::Interface iface = *target;
    iface.SetSlot(0, &TimingInterposer::SendTap, tap.get());
    iface.SetSlot(1, &TimingInterposer::PollTap, tap.get());
    tap->ExportInterface(components::NetDriverType()->name(), std::move(iface));
    return tap;
  }

 private:
  TimingInterposer(Tracer* tracer, const obj::Interface* target)
      : tracer_(tracer), target_(target) {}

  static uint64_t SendTap(void* state, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
    auto* tap = static_cast<TimingInterposer*>(state);
    ScopedSpan span(tap->tracer_, SpanId::kDriverSend);
    return tap->target_->Invoke(0, a0, a1, a2, a3);
  }
  static uint64_t PollTap(void* state, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
    auto* tap = static_cast<TimingInterposer*>(state);
    ScopedSpan span(tap->tracer_, SpanId::kDriverPollRecv);
    return tap->target_->Invoke(1, a0, a1, a2, a3);
  }

  Tracer* tracer_;
  const obj::Interface* target_;
};

class WireBed final : public Testbed {
 public:
  WireBed(const BedOptions& options, std::shared_ptr<const WireInputs> inputs)
      : tracer_(options.tracer), self_test_(options.self_test), in_(std::move(inputs)) {}

  Status Setup(SetupTimes* times) {
    uint64_t t0 = Ticks();
    keys_ = GenerateKeys();
    times->keygen_ms = MsSince(t0);

    t0 = Ticks();
    PARA_RETURN_IF_ERROR(Boot());
    times->boot_ms = MsSince(t0);

    t0 = Ticks();
    PARA_ASSIGN_OR_RETURN(nucleus::Certifier certifier,
                          MakeCertifier(keys_, nucleus_->certification()));
    certifier_.emplace(std::move(certifier));
    filter::FilterConfig fc;
    fc.name = "wire_mix";
    fc.shards = 1;  // pinned: the environment must not re-shard the run
    PARA_ASSIGN_OR_RETURN(filter_, filter::PacketFilter::Create(fc));
    PARA_RETURN_IF_ERROR(
        filter_->LoadCertified(in_->rules, *certifier_, nucleus_->certification()));
    if (tracer_ == nullptr) {
      rx_->stack().SetIngressFilter(filter_->Hook());
    } else {
      rx_->stack().SetIngressFilter(
          [this](const net::PacketView& view, net::FilterDirection dir) {
            ScopedSpan span(tracer_, SpanId::kFilterEvaluate);
            return filter_->Evaluate(view, dir);
          });
      replay_.Bind(*filter_);
    }
    times->load_certified_ms = MsSince(t0);

    RunWarmupItems(*this, kWarmupItems, times);
    return OkStatus();
  }

  void Prepare() override {
    item_ = &in_->items[seq_ % kRing];
    const size_t len = item_->len;
    // Payload: the sequence number, then pool bytes at a sequence-dependent
    // offset. The application writes it into its own (user-domain) buffer.
    std::memcpy(expected_.data(), &seq_, 8);
    std::memcpy(expected_.data() + 8, in_->pool.data() + (seq_ * 8) % kPoolBytes, len - 8);
    std::memcpy(tx_payload_.data(), expected_.data(), len);
    if (self_test_ && seq_ == 3) {
      expected_[8] ^= 1;
    }
    delivered_ok_ = 0;
    delivered_bad_ = 0;
    ++seq_;
  }

  void Execute() override {
    {
      ScopedSpan span(tracer_, SpanId::kAppSend);
      const Flow& flow = in_->flows[item_->flow];
      send_rc_ = tx_iface_->Invoke(0, kRxIp, uint64_t{flow.sport} << 16 | flow.dport, tx_buffer_,
                                   item_->len);
    }
    {
      ScopedSpan span(tracer_, SpanId::kHwAdvance);
      machine_.Advance(kLinkLatency);
    }
    ScopedSpan span(tracer_, SpanId::kRunUntilIdle);
    nucleus_->scheduler().RunUntilIdle();
  }

  Outcome Check() override {
    uint32_t failures = send_rc_ == 0 && delivered_ok_ == 1 && delivered_bad_ == 0 ? 0 : 1;
    if (tracer_ != nullptr) {
      const net::PacketView view = ViewOf(in_->flows[item_->flow], kRxIp,
                                          std::span<const uint8_t>(expected_.data(), item_->len));
      uint64_t word = 0;
      replay_.Run({&view, 1}, &word);
      failures += word != in_->expected[item_->flow] ? 1 : 0;
    }
    return Outcome{1, failures};
  }

  void BeginMeasure() override {
    counters_.Snapshot(*filter_);
    replay_.ResetCounters();
    proxy_.Snapshot(*nucleus_);
  }

  void ReportLayers(uint64_t units, LayerValues& out) override {
    const auto n = static_cast<double>(units);
    const Tracer& t = *tracer_;
    out[Layer::kDriverSendNsPerItem] = TotalNsPer(t, SpanId::kDriverSend, n);
    out[Layer::kDriverPollRecvNsPerItem] = TotalNsPer(t, SpanId::kDriverPollRecv, n);
    out[Layer::kProtocolStackSendSelfNsPerItem] = SelfNsPer(t, SpanId::kAppSend, n);
    out[Layer::kHwAdvanceNsPerItem] = SelfNsPer(t, SpanId::kHwAdvance, n);
    out[Layer::kThreadsRxSelfNsPerItem] =
        SelfNsPer(t, SpanId::kRxIrq, n) + SelfNsPer(t, SpanId::kRunUntilIdle, n);
    ReportPacketSpans(t, n, out);
    counters_.Report(*filter_, n, out);
    out[Layer::kSfiClassifyReplayNsPerPkt] = replay_.NsPerPacket();
    proxy_.Report(*nucleus_, out);
  }

  void TimeControlPlane(LayerValues& out) override {
    TimeFilterControlPlane(in_->rules, *certifier_, out);
  }

  Pinned pinned() const override {
    return Pinned{true, filter_->exec_backend() == sfi::VmBackend::kJit, filter_->shard_count()};
  }

 private:
  Status Boot() {
    auto* net_a = machine_.AddDevice(std::make_unique<hw::NetworkDevice>("net0", kTxIrq, kTxMac));
    auto* net_b = machine_.AddDevice(std::make_unique<hw::NetworkDevice>("net1", kRxIrq, kRxMac));
    machine_.AddLink(hw::NetworkLink::Config{.latency = kLinkLatency, .loss_rate = 0, .seed = 1})
        ->Attach(net_a, net_b);
    nucleus::Nucleus::Config config;
    config.physical_pages = 512;
    config.authority_key = keys_.authority.public_key;
    nucleus_ = std::make_unique<nucleus::Nucleus>(&machine_, config);
    PARA_RETURN_IF_ERROR(nucleus_->Boot());
    nucleus::Context* kernel = nucleus_->kernel_context();

    // Receive-interrupt stamps, in registration (= dispatch) order around
    // the driver's and the stack's pop-up handlers:
    //   [stamp] driver RX copy-in [stamp] stack PumpRx [stamp]
    PARA_RETURN_IF_ERROR(Stamp([](Tracer* t) { t->Begin(SpanId::kRxIrq); }));
    PARA_ASSIGN_OR_RETURN(driver_a_,
                          NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a, kernel));
    PARA_ASSIGN_OR_RETURN(driver_b_,
                          NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_b, kernel));
    PARA_RETURN_IF_ERROR(nucleus_->directory().Register("/shared/net0", driver_a_.get(), kernel));
    PARA_RETURN_IF_ERROR(nucleus_->directory().Register("/shared/net1", driver_b_.get(), kernel));
    if (tracer_ != nullptr) {
      PARA_ASSIGN_OR_RETURN(send_tap_, TimingInterposer::Wrap(driver_a_.get(), tracer_));
      PARA_ASSIGN_OR_RETURN(recv_tap_, TimingInterposer::Wrap(driver_b_.get(), tracer_));
      PARA_RETURN_IF_ERROR(
          nucleus_->directory().Replace("/shared/net0", send_tap_.get(), kernel).status());
      PARA_RETURN_IF_ERROR(
          nucleus_->directory().Replace("/shared/net1", recv_tap_.get(), kernel).status());
    }
    PARA_RETURN_IF_ERROR(Stamp([](Tracer* t) {
      t->End();
      t->Begin(SpanId::kNetStack);
    }));

    nucleus::Context* app = nucleus_->CreateUserContext("app");
    StackComponent::Deps deps{&nucleus_->vmem(), &nucleus_->events(), &nucleus_->directory()};
    PARA_ASSIGN_OR_RETURN(tx_, StackComponent::Create(deps, app, "/shared/net0",
                                                      net::StackConfig{kTxMac, kTxIp}));
    PARA_ASSIGN_OR_RETURN(rx_, StackComponent::Create(deps, kernel, "/shared/net1",
                                                      net::StackConfig{kRxMac, kRxIp}));
    PARA_RETURN_IF_ERROR(Stamp([](Tracer* t) { t->End(); }));
    if (!tx_->bound_via_proxy() || rx_->bound_via_proxy()) {
      return Status(ErrorCode::kInternal, "wire_mix placement: sender must use the proxy");
    }
    tx_->stack().AddNeighbor(kRxIp, kRxMac);
    for (size_t i = 0; i < kServicePorts; ++i) {
      PARA_RETURN_IF_ERROR(rx_->stack().BindPort(
          ServicePort(i), [this](const net::Datagram& datagram) { OnDatagram(datagram); }));
    }
    PARA_ASSIGN_OR_RETURN(tx_iface_, tx_->GetInterface(components::StackType()->name()));
    PARA_ASSIGN_OR_RETURN(tx_buffer_,
                          nucleus_->vmem().AllocatePages(app, 1, nucleus::kProtReadWrite));
    PARA_ASSIGN_OR_RETURN(tx_payload_, nucleus_->vmem().TranslateSpan(app, tx_buffer_, kMaxPayload,
                                                                      /*write=*/true));
    return OkStatus();
  }

  // Registers a raw call-back on the receiver's interrupt line (traced bed
  // only).
  template <typename Fn>
  Status Stamp(Fn fn) {
    if (tracer_ == nullptr) {
      return OkStatus();
    }
    Tracer* tracer = tracer_;
    return nucleus_->events()
        .Register(nucleus::IrqEvent(kRxIrq), nucleus_->kernel_context(),
                  [tracer, fn](nucleus::EventNumber, uint64_t) { fn(tracer); },
                  threads::DispatchMode::kRawCallback, "e2e-stamp")
        .status();
  }

  void OnDatagram(const net::Datagram& datagram) {
    ScopedSpan span(tracer_, SpanId::kAppDeliver);
    const bool ok = datagram.src == kTxIp && datagram.src_port == in_->flows[item_->flow].sport &&
                    datagram.payload.size() == item_->len &&
                    std::memcmp(datagram.payload.data(), expected_.data(), item_->len) == 0;
    ++(ok ? delivered_ok_ : delivered_bad_);
  }

  Tracer* const tracer_;
  const bool self_test_;
  const std::shared_ptr<const WireInputs> in_;

  Keys keys_;
  // The directory caches proxies of the interposers: they outlive the
  // nucleus.
  std::unique_ptr<TimingInterposer> send_tap_;
  std::unique_ptr<TimingInterposer> recv_tap_;
  hw::Machine machine_;
  std::unique_ptr<nucleus::Nucleus> nucleus_;
  std::optional<nucleus::Certifier> certifier_;
  std::unique_ptr<NetDriver> driver_a_;
  std::unique_ptr<NetDriver> driver_b_;
  std::unique_ptr<filter::PacketFilter> filter_;
  std::unique_ptr<StackComponent> tx_;
  std::unique_ptr<StackComponent> rx_;  // its ingress hook calls filter_
  obj::Interface* tx_iface_ = nullptr;
  nucleus::VAddr tx_buffer_ = 0;
  std::span<uint8_t> tx_payload_;

  uint64_t seq_ = 0;
  const Item* item_ = nullptr;
  std::array<uint8_t, kMaxPayload> expected_{};
  uint64_t send_rc_ = 0;
  uint32_t delivered_ok_ = 0;
  uint32_t delivered_bad_ = 0;

  FilterCounters counters_;
  ClassifyReplay replay_;
  ProxyCounters proxy_;
};

}  // namespace

Result<std::unique_ptr<Testbed>> CreateWireMix(const BedOptions& options, SetupTimes* times) {
  auto bed = std::make_unique<WireBed>(options, MakeInputs(options.seed));
  PARA_RETURN_IF_ERROR(bed->Setup(times));
  return std::unique_ptr<Testbed>(std::move(bed));
}

}  // namespace para::e2e
