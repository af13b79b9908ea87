// xdomain_calls: a client in a user domain calls a server object in the
// kernel through the nucleus's fault-driven proxy — the paper's invocation
// path (argument frame, page fault, per-page handler, copies, context
// switches). Calls are drawn 6:2:1:1 from null, scalar, 4-KiB in-payload
// and 4-KiB out-payload. The server is loaded the way a kernel component
// must be: a certified image fetched from the repository and validated by
// the certification service before it is mapped into the kernel.
//
// Nothing from net or filter runs here: proxy and vmem changes show on
// this workload, filter changes predict zero.
//
// Oracle: return values, and checksums of every payload on both sides.
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "bench/e2e/src/common.h"
#include "bench/e2e/src/traffic.h"
#include "bench/e2e/src/workload.h"
#include "src/nucleus/nucleus.h"

namespace para::e2e {
namespace {

enum Kind : uint8_t { kNull, kScalar, kPayloadIn, kPayloadOut, kKinds };

constexpr size_t kRing = size_t{1} << 16;  // call sequence, replayed cyclically
constexpr size_t kPayload = 4096;
constexpr size_t kInBuffers = 16;
constexpr size_t kOutSeeds = 16;
constexpr uint64_t kWarmupItems = 4096;
constexpr uint64_t kNullMagic = 0x6E756C6C;
constexpr const char* kServerPath = "/shared/bench/echo";

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  return (a * 0x9E3779B97F4A7C15ull) ^ (b + 0x632BE59BD9B4E019ull) ^ (c << 7) ^ (d >> 3);
}

const obj::TypeInfo* EchoType() {
  static const obj::TypeInfo type("bench.echo", 1, {"null", "scalar", "payload_in", "payload_out"});
  return &type;
}

// The server: its methods do the application's share of each call, inside
// the obj.handler span.
class EchoServer : public obj::Object {
 public:
  EchoServer(nucleus::VirtualMemoryService* vmem, nucleus::Context* home, Tracer* tracer)
      : vmem_(vmem), home_(home), tracer_(tracer) {
    obj::Interface* iface = ExportInterface(EchoType(), this);
    iface->SetSlot(kNull, obj::Thunk<EchoServer, &EchoServer::Null>());
    iface->SetSlot(kScalar, obj::Thunk<EchoServer, &EchoServer::Scalar>());
    iface->SetSlot(kPayloadIn, obj::Thunk<EchoServer, &EchoServer::PayloadIn>());
    iface->SetSlot(kPayloadOut, obj::Thunk<EchoServer, &EchoServer::PayloadOut>());
  }

  uint64_t Null(uint64_t, uint64_t, uint64_t, uint64_t) {
    ScopedSpan span(tracer_, SpanId::kObjHandler);
    return kNullMagic;
  }
  uint64_t Scalar(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    ScopedSpan span(tracer_, SpanId::kObjHandler);
    return Mix(a, b, c, d);
  }
  // Checksums the payload the proxy copied into this domain.
  uint64_t PayloadIn(uint64_t vaddr, uint64_t len, uint64_t, uint64_t) {
    ScopedSpan span(tracer_, SpanId::kObjHandler);
    auto bytes = vmem_->TranslateSpan(home_, vaddr, len, /*write=*/false);
    return bytes.ok() ? Checksum(*bytes) : ~uint64_t{0};
  }
  // Fills the caller's buffer (re-homed into this domain) from `seed`.
  uint64_t PayloadOut(uint64_t vaddr, uint64_t capacity, uint64_t seed, uint64_t) {
    ScopedSpan span(tracer_, SpanId::kObjHandler);
    const size_t n = std::min<size_t>(capacity, kPayload);
    auto bytes = vmem_->TranslateSpan(home_, vaddr, n, /*write=*/true);
    if (!bytes.ok()) {
      return 0;
    }
    FillPattern(seed, *bytes);
    return n;
  }

 private:
  nucleus::VirtualMemoryService* vmem_;
  nucleus::Context* home_;
  Tracer* tracer_;
};

struct Call {
  Kind kind;
  uint8_t arg;  // in-buffer or out-seed index
  uint64_t a;
  uint64_t b;
};

struct XdomainInputs {
  std::vector<Call> calls;
  std::array<std::vector<uint8_t>, kInBuffers> in_payloads;
  std::array<uint64_t, kInBuffers> in_sums;
  std::array<uint64_t, kOutSeeds> out_seeds;
  std::array<uint64_t, kOutSeeds> out_sums;
  std::vector<uint8_t> image_code;  // the component's code identity
};

std::shared_ptr<const XdomainInputs> MakeInputs(uint64_t seed) {
  static std::map<uint64_t, std::shared_ptr<const XdomainInputs>> cache;
  auto& slot = cache[seed];
  if (slot != nullptr) {
    return slot;
  }
  auto in = std::make_shared<XdomainInputs>();
  Random rng(seed * 0x2545F4914F6CDD1Dull + 4);
  in->calls.reserve(kRing);
  for (size_t k = 0; k < kRing; ++k) {
    const uint64_t draw = rng.NextBelow(10);
    const Kind kind = draw < 6 ? kNull : draw < 8 ? kScalar : draw < 9 ? kPayloadIn : kPayloadOut;
    in->calls.push_back(Call{kind, static_cast<uint8_t>(rng.NextBelow(kInBuffers)), rng.Next(),
                             rng.Next()});
  }
  std::vector<uint8_t> scratch(kPayload);
  for (size_t i = 0; i < kInBuffers; ++i) {
    in->in_payloads[i].resize(kPayload);
    FillPattern(rng.Next(), in->in_payloads[i]);
    in->in_sums[i] = Checksum(in->in_payloads[i]);
  }
  for (size_t i = 0; i < kOutSeeds; ++i) {
    in->out_seeds[i] = rng.Next();
    FillPattern(in->out_seeds[i], scratch);
    in->out_sums[i] = Checksum(scratch);
  }
  in->image_code.resize(kPayload);
  FillPattern(0xC0DE, in->image_code);
  slot = std::move(in);
  return slot;
}

class XdomainBed final : public Testbed {
 public:
  XdomainBed(const BedOptions& options, std::shared_ptr<const XdomainInputs> inputs)
      : tracer_(options.tracer), self_test_(options.self_test), in_(std::move(inputs)) {}

  Status Setup(SetupTimes* times) {
    uint64_t t0 = Ticks();
    keys_ = GenerateKeys();
    times->keygen_ms = MsSince(t0);

    t0 = Ticks();
    nucleus::Nucleus::Config config;
    config.physical_pages = 256;
    config.authority_key = keys_.authority.public_key;
    nucleus_ = std::make_unique<nucleus::Nucleus>(&machine_, config);
    PARA_RETURN_IF_ERROR(nucleus_->Boot());
    client_ = nucleus_->CreateUserContext("client");
    times->boot_ms = MsSince(t0);

    t0 = Ticks();
    PARA_RETURN_IF_ERROR(LoadServer());
    times->load_certified_ms = MsSince(t0);

    RunWarmupItems(*this, kWarmupItems, times);
    return OkStatus();
  }

  void Prepare() override {
    call_ = &in_->calls[seq_ % kRing];
    expected_ = Expected(*call_);
    if (call_->kind == kPayloadOut) {
      std::memset(out_host_.data(), 0, out_host_.size());  // stale bytes must not pass
    }
    if (self_test_ && seq_ == 3) {
      expected_ ^= 1;
    }
    ++seq_;
  }

  void Execute() override {
    ScopedSpan span(tracer_, SpanId::kProxyCall);
    switch (call_->kind) {
      case kNull:
        result_ = iface_->Invoke(kNull);
        break;
      case kScalar:
        result_ = iface_->Invoke(kScalar, call_->a, call_->b, call_->a >> 5, call_->b << 3);
        break;
      case kPayloadIn:
        result_ = iface_->Invoke(kPayloadIn, in_buffers_[call_->arg], kPayload);
        break;
      case kPayloadOut:
        result_ = iface_->Invoke(kPayloadOut, out_buffer_, kPayload,
                                 in_->out_seeds[call_->arg % kOutSeeds]);
        break;
      case kKinds:
        break;
    }
  }

  Outcome Check() override {
    bool ok = result_ == expected_;
    if (call_->kind == kPayloadOut) {
      ok = ok && Checksum(out_host_) == in_->out_sums[call_->arg % kOutSeeds];
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
      const size_t k = call_->kind;
      const uint64_t call_t0 = tracer_->last_begin(SpanId::kProxyCall);
      const uint64_t call_t1 = tracer_->last_end(SpanId::kProxyCall);
      kind_ticks_[k] += call_t1 - call_t0;
      ++kind_calls_[k];
      inbound_ticks_ += tracer_->last_begin(SpanId::kObjHandler) - call_t0;
      outbound_ticks_ += call_t1 - tracer_->last_end(SpanId::kObjHandler);
    }
    return Outcome{1, ok ? 0u : 1u};
  }

  void BeginMeasure() override {
    proxy_.Snapshot(*nucleus_);
    kind_ticks_ = {};
    kind_calls_ = {};
    inbound_ticks_ = outbound_ticks_ = 0;
  }

  void ReportLayers(uint64_t units, LayerValues& out) override {
    const auto n = static_cast<double>(units);
    const Tracer& t = *tracer_;
    auto per_kind = [this](Kind k) {
      return kind_calls_[k] > 0 ? TicksToNs(static_cast<double>(kind_ticks_[k])) /
                                      static_cast<double>(kind_calls_[k])
                                : 0;
    };
    out[Layer::kProxyNullCallNs] = per_kind(kNull);
    out[Layer::kProxyScalarCallNs] = per_kind(kScalar);
    out[Layer::kProxyPayloadInCallNs] = per_kind(kPayloadIn);
    out[Layer::kProxyPayloadOutCallNs] = per_kind(kPayloadOut);
    out[Layer::kProxyInboundNs] = TicksToNs(static_cast<double>(inbound_ticks_)) / n;
    out[Layer::kProxyOutboundNs] = TicksToNs(static_cast<double>(outbound_ticks_)) / n;
    out[Layer::kObjHandlerNs] = TotalNsPer(t, SpanId::kObjHandler, n);
    out[Layer::kAllocsPerCall] =
        static_cast<double>(t.agg(SpanId::kProxyCall).total_allocs) / n;
    out[Layer::kBenchRootSelfNsPerItem] = SelfNsPer(t, SpanId::kRoot, n);
    proxy_.Report(*nucleus_, out);
  }

  void TimeControlPlane(LayerValues& out) override {
    uint32_t version = 1000;
    out[Layer::kCertCertifyMs] = MedianMs(7, [&] {
      ++version;
      (void)certifier_->Certify("bench.echo", version, in_->image_code,
                                nucleus::kCertKernelEligible, version);
    });
  }

  Pinned pinned() const override { return Pinned{}; }

 private:
  // Certified load into the kernel through the repository and loader, then
  // a cross-domain bind from the client.
  Status LoadServer() {
    PARA_ASSIGN_OR_RETURN(nucleus::Certifier certifier,
                          MakeCertifier(keys_, nucleus_->certification()));
    certifier_.emplace(std::move(certifier));
    nucleus::VirtualMemoryService* vmem = &nucleus_->vmem();
    Tracer* tracer = tracer_;
    PARA_RETURN_IF_ERROR(nucleus_->repository().RegisterFactory(
        "bench.echo", [vmem, tracer](nucleus::Context* home) {
          return std::make_unique<EchoServer>(vmem, home, tracer);
        }));
    nucleus::ComponentImage image;
    image.name = "bench.echo";
    image.version = 1;
    image.factory = "bench.echo";
    image.code = in_->image_code;
    PARA_ASSIGN_OR_RETURN(nucleus::Certificate cert,
                          certifier_->Certify(image.name, image.version, image.code,
                                              nucleus::kCertKernelEligible, /*now=*/1));
    image.certificate = cert.Serialize();
    PARA_RETURN_IF_ERROR(nucleus_->repository().Store(image));
    PARA_RETURN_IF_ERROR(
        nucleus_->loader().Load("bench.echo", nucleus_->kernel_context(), kServerPath).status());

    nucleus::ProxyOptions options;
    options.payload_slots.insert(std::string(EchoType()->name()) + "#2");
    options.out_payload_slots.insert(std::string(EchoType()->name()) + "#3");
    PARA_ASSIGN_OR_RETURN(nucleus::Binding binding,
                          nucleus_->directory().Bind(kServerPath, client_, options));
    if (!binding.via_proxy) {
      return Status(ErrorCode::kInternal, "xdomain_calls: client must bind through a proxy");
    }
    PARA_ASSIGN_OR_RETURN(iface_, binding.object->GetInterface(EchoType()->name()));

    for (size_t i = 0; i < kInBuffers; ++i) {
      PARA_ASSIGN_OR_RETURN(in_buffers_[i],
                            vmem->AllocatePages(client_, 1, nucleus::kProtReadWrite));
      PARA_RETURN_IF_ERROR(vmem->Write(client_, in_buffers_[i], in_->in_payloads[i]));
    }
    PARA_ASSIGN_OR_RETURN(out_buffer_, vmem->AllocatePages(client_, 1, nucleus::kProtReadWrite));
    PARA_ASSIGN_OR_RETURN(out_host_,
                          vmem->TranslateSpan(client_, out_buffer_, kPayload, /*write=*/true));
    return OkStatus();
  }

  uint64_t Expected(const Call& call) const {
    switch (call.kind) {
      case kNull: return kNullMagic;
      case kScalar: return Mix(call.a, call.b, call.a >> 5, call.b << 3);
      case kPayloadIn: return in_->in_sums[call.arg];
      case kPayloadOut: return kPayload;
      case kKinds: break;
    }
    return 0;
  }

  Tracer* const tracer_;
  const bool self_test_;
  const std::shared_ptr<const XdomainInputs> in_;

  Keys keys_;
  hw::Machine machine_;
  std::unique_ptr<nucleus::Nucleus> nucleus_;
  std::optional<nucleus::Certifier> certifier_;
  nucleus::Context* client_ = nullptr;
  obj::Interface* iface_ = nullptr;
  std::array<nucleus::VAddr, kInBuffers> in_buffers_{};
  nucleus::VAddr out_buffer_ = 0;
  std::span<uint8_t> out_host_;

  uint64_t seq_ = 0;
  const Call* call_ = nullptr;
  uint64_t expected_ = 0;
  uint64_t result_ = 0;

  ProxyCounters proxy_;
  std::array<uint64_t, kKinds> kind_ticks_{};
  std::array<uint64_t, kKinds> kind_calls_{};
  uint64_t inbound_ticks_ = 0;
  uint64_t outbound_ticks_ = 0;
};

}  // namespace

Result<std::unique_ptr<Testbed>> CreateXdomainCalls(const BedOptions& options,
                                                    SetupTimes* times) {
  auto bed = std::make_unique<XdomainBed>(options, MakeInputs(options.seed));
  PARA_RETURN_IF_ERROR(bed->Setup(times));
  return std::unique_ptr<Testbed>(std::move(bed));
}

}  // namespace para::e2e
