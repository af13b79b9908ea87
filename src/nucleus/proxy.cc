#include "src/nucleus/proxy.h"

#include <algorithm>
#include <cstring>

#include "src/base/arena.h"
#include "src/base/copy.h"
#include "src/base/log.h"

namespace para::nucleus {

namespace {

// The cross-domain argument frame: 4 argument words, the slot id, and the
// return word, living at the start of each side's argument page.
struct ArgFrame {
  uint64_t args[4];
  uint64_t slot;
  uint64_t result;
};

// Per-slot payload marshalling flags.
constexpr uint8_t kPayloadIn = 1 << 0;
constexpr uint8_t kPayloadOut = 1 << 1;

}  // namespace

// One bound proxy: the object the client receives. Owns the fault pages,
// argument pages, and per-interface records.
class ProxyObject : public obj::Object {
 public:
  ProxyObject(ProxyEngine* engine, obj::Object* target, Context* server, Context* client,
              ProxyEngine::Options options)
      : engine_(engine), target_(target), server_(server), client_(client),
        options_(std::move(options)) {}

  Status Setup() {
    VirtualMemoryService* vmem = engine_->vmem_;
    // Argument pages on both sides plus a payload area in the server domain.
    PARA_ASSIGN_OR_RETURN(client_args_, vmem->AllocatePages(client_, 1, kProtReadWrite));
    PARA_ASSIGN_OR_RETURN(server_args_, vmem->AllocatePages(server_, 1, kProtReadWrite));
    PARA_ASSIGN_OR_RETURN(
        server_payload_,
        vmem->AllocatePages(server_, options_.payload_capacity_pages, kProtReadWrite));

    // Bind-time translation: the proxy owns these windows, so their host
    // addresses are resolved exactly once and every per-call copy below is
    // a plain memcpy instead of a word-granular software-MMU walk.
    PARA_ASSIGN_OR_RETURN(client_args_host_, vmem->TranslateSpan(client_, client_args_,
                                                                 sizeof(ArgFrame),
                                                                 /*write=*/true));
    PARA_ASSIGN_OR_RETURN(server_args_host_, vmem->TranslateSpan(server_, server_args_,
                                                                 sizeof(ArgFrame),
                                                                 /*write=*/true));
    PARA_ASSIGN_OR_RETURN(
        server_payload_host_,
        vmem->TranslateSpan(server_, server_payload_,
                            options_.payload_capacity_pages * kPageSize, /*write=*/true));

    // Mirror every interface of the target. Each interface gets one fault
    // page whose entries are 8 bytes apart, and ONE per-page fault handler
    // that demultiplexes on the slot id marshalled in the argument frame —
    // exactly the paper's "per page fault handler".
    for (const std::string& iface_name : target_->InterfaceNames()) {
      auto target_iface = target_->GetInterface(iface_name);
      if (!target_iface.ok()) {
        return target_iface.status();
      }
      const obj::TypeInfo* type = (*target_iface)->type();

      auto record = std::make_unique<IfaceRecord>();
      record->proxy = this;
      record->target_iface = *target_iface;
      record->fault_page = client_->AllocateRegion(1);  // stays unmapped: always faults
      record->payload_flags.resize(type->method_count(), 0);
      for (size_t slot = 0; slot < type->method_count(); ++slot) {
        const std::string key = iface_name + "#" + std::to_string(slot);
        if (options_.payload_slots.contains(key)) {
          record->payload_flags[slot] |= kPayloadIn;
        }
        if (options_.out_payload_slots.contains(key)) {
          record->payload_flags[slot] |= kPayloadOut;
        }
      }
      IfaceRecord* raw = record.get();
      PARA_RETURN_IF_ERROR(vmem->SetFaultHandler(
          client_, raw->fault_page,
          [raw](const FaultInfo& info) { return raw->proxy->HandleFault(*raw, info); }));

      obj::Interface proxy_iface(type, nullptr);
      for (size_t slot = 0; slot < type->method_count(); ++slot) {
        auto stub = std::make_unique<SlotStub>(SlotStub{raw, slot});
        proxy_iface.SetSlot(slot, &ProxyObject::Trampoline, stub.get());
        stubs_.push_back(std::move(stub));
      }
      records_.push_back(std::move(record));
      ExportInterface(iface_name, std::move(proxy_iface));
    }
    return OkStatus();
  }

  ~ProxyObject() override {
    VirtualMemoryService* vmem = engine_->vmem_;
    for (const auto& record : records_) {
      (void)vmem->ClearFaultHandler(client_, record->fault_page);
    }
  }

 private:
  struct IfaceRecord {
    ProxyObject* proxy = nullptr;
    const obj::Interface* target_iface = nullptr;
    VAddr fault_page = 0;
    std::vector<uint8_t> payload_flags;  // per slot
  };

  struct SlotStub {
    IfaceRecord* record;
    size_t slot;
  };

  // Client-side stub: marshal the frame, take the fault, read the result.
  static uint64_t Trampoline(void* state, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
    auto* stub = static_cast<SlotStub*>(state);
    return stub->record->proxy->Call(*stub->record, stub->slot, a0, a1, a2, a3);
  }

  // Sampled latency/trace recorder for the cross-domain call path: a span
  // plus a histogram sample on 1-in-32 calls, destructor-driven so every
  // early return (marshalling failure, fault rejection) still closes the
  // span.
  struct SampledCallTrace {
    bool on;
    uint64_t t0 = 0;
    SampledCallTrace(bool on_in, uint64_t slot) : on(on_in) {
      if (on) {
        telemetry::EmitTrace("nucleus.proxy.call", telemetry::TracePhase::kBegin, slot);
        t0 = telemetry::TraceClock();
      }
    }
    ~SampledCallTrace() {
      if (on) {
        if constexpr (telemetry::kEnabled) {
          static telemetry::Histogram ticks =
              telemetry::Registry::Get().histogram("nucleus.proxy.call_ticks");
          ticks.Record(telemetry::TraceClock() - t0);
        }
        telemetry::EmitTrace("nucleus.proxy.call", telemetry::TracePhase::kEnd, 0);
      }
    }
  };

  uint64_t Call(const IfaceRecord& record, size_t slot, uint64_t a0, uint64_t a1, uint64_t a2,
                uint64_t a3) {
    ProxyEngine* engine = engine_;
    VirtualMemoryService* vmem = engine->vmem_;
    ++engine->stats_.calls;
    SampledCallTrace trace(telemetry::kEnabled && (engine->stats_.calls & 31) == 0, slot);

    // Client-side marshalling goes through the software MMU so the client's
    // mapping state is honored: a bad mapping fails the call (error
    // sentinel), it does not abort the process. The per-domain translation
    // cache makes the steady-state cost one lookup and one CopyBytes, as for
    // the result read below.
    ArgFrame frame{{a0, a1, a2, a3}, slot, 0};
    Status status = vmem->Write(
        client_, client_args_,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&frame), sizeof(frame)));
    if (!status.ok()) {
      PARA_ERROR("cross-domain call: argument marshalling failed: %s",
                 status.message().data());
      return ~uint64_t{0};
    }

    // Reference the interface entry: this is the page fault that transfers
    // control to the per-page fault handler.
    ++engine->stats_.faults;
    status = vmem->Fault(client_, record.fault_page + slot * 8, FaultKind::kFaultHandler,
                         /*write=*/false);
    if (!status.ok()) {
      PARA_ERROR("cross-domain call failed: %s", status.message().data());
      return ~uint64_t{0};
    }

    // Return value marshalled back into the client frame by the handler.
    auto result = vmem->ReadU64(client_, client_args_ + offsetof(ArgFrame, result));
    if (!result.ok()) {
      PARA_ERROR("cross-domain call: result readback failed: %s",
                 result.status().message().data());
      return ~uint64_t{0};
    }
    return *result;
  }

  // Copies `len` payload bytes client -> server window ("map in arguments").
  // Fast path: the client buffer translates to one host span, so the copy is
  // a single memmove (the span may alias the window through shared pages).
  // A physically fragmented client buffer bounces through the proxy's
  // scratch arena — reused across calls, so even that path stops allocating
  // after warm-up.
  Status CopyPayloadIn(uint64_t client_buffer, size_t len) {
    VirtualMemoryService* vmem = engine_->vmem_;
    auto client_span = vmem->TranslateSpan(client_, client_buffer, len, /*write=*/false);
    if (client_span.ok()) {
      std::memmove(server_payload_host_.data(), client_span->data(), len);
      return OkStatus();
    }
    if (!client_span.status().is(ErrorCode::kFailedPrecondition)) {
      return client_span.status();  // unmapped / protection failure
    }
    // Physically fragmented client buffer: page-walk it through the arena.
    // The bounce is mandatory here — a fragmented buffer may still alias
    // the window through shared pages, and without one host span there is
    // no cheap overlap check.
    scratch_.Reset();
    std::span<uint8_t> bounce = scratch_.Allocate(len);
    PARA_RETURN_IF_ERROR(vmem->Read(client_, client_buffer, bounce));
    CopyBytes(server_payload_host_.data(), bounce.data(), len);
    return OkStatus();
  }

  // Copies `n` result bytes server window -> client buffer ("return values
  // are handled similarly"). Mirror image of CopyPayloadIn.
  Status CopyPayloadOut(uint64_t client_buffer, size_t n) {
    VirtualMemoryService* vmem = engine_->vmem_;
    auto client_span = vmem->TranslateSpan(client_, client_buffer, n, /*write=*/true);
    if (client_span.ok()) {
      std::memmove(client_span->data(), server_payload_host_.data(), n);
      return OkStatus();
    }
    if (!client_span.status().is(ErrorCode::kFailedPrecondition)) {
      return client_span.status();
    }
    // Fragmented client buffer: bounce for the same aliasing reason as in
    // CopyPayloadIn.
    scratch_.Reset();
    std::span<uint8_t> bounce = scratch_.Allocate(n);
    CopyBytes(bounce.data(), server_payload_host_.data(), n);
    return vmem->Write(client_, client_buffer, bounce);
  }

  // Kernel-side fault handler: map in arguments, switch context, invoke.
  // Runs entirely on bind-time translations — zero heap allocations and no
  // string or hash-map lookups per call.
  Status HandleFault(const IfaceRecord& record, const FaultInfo& info) {
    (void)info;

    // The argument frame was marshalled into the client argument page; the
    // kernel-side handler reads it through the bind-time translation.
    ArgFrame frame;
    std::memcpy(&frame, client_args_host_.data(), sizeof(frame));
    if (frame.slot >= record.payload_flags.size()) {
      return Status(ErrorCode::kInvalidArgument, "bad slot in argument frame");
    }
    uint8_t flags = record.payload_flags[frame.slot];

    uint64_t client_buffer = frame.args[0];
    if (flags != 0) {
      // a0 = client buffer vaddr, a1 = length/capacity: re-home a0 to the
      // server's payload area, copying the contents in for input payloads.
      size_t len = static_cast<size_t>(frame.args[1]);
      if (len > server_payload_host_.size()) {
        return Status(ErrorCode::kOutOfRange, "payload exceeds proxy window");
      }
      if ((flags & kPayloadIn) != 0 && len > 0) {
        PARA_RETURN_IF_ERROR(CopyPayloadIn(client_buffer, len));
        engine_->stats_.payload_bytes += len;
      }
      frame.args[0] = server_payload_;
    }

    // Frame client -> server ("map in arguments into the object's
    // protection domain"): one memcpy between the resolved windows.
    std::memcpy(server_args_host_.data(), &frame, sizeof(frame));

    // Context switch into the server domain, invoke, switch back.
    Context* previous = engine_->current_domain_;
    engine_->current_domain_ = server_;
    ++engine_->stats_.context_switches;
    uint64_t result = record.target_iface->Invoke(frame.slot, frame.args[0], frame.args[1],
                                                  frame.args[2], frame.args[3]);
    engine_->current_domain_ = previous;
    ++engine_->stats_.context_switches;

    if ((flags & kPayloadOut) != 0) {
      // The callee wrote up to `result` bytes into the re-homed buffer; copy
      // them back into the caller's buffer.
      size_t n = std::min<size_t>(result, frame.args[1]);
      if (n > 0) {
        PARA_RETURN_IF_ERROR(CopyPayloadOut(client_buffer, n));
        engine_->stats_.payload_bytes += n;
      }
    }

    // Marshal the return value into both frames.
    std::memcpy(server_args_host_.data() + offsetof(ArgFrame, result), &result,
                sizeof(result));
    std::memcpy(client_args_host_.data() + offsetof(ArgFrame, result), &result,
                sizeof(result));
    return OkStatus();
  }

  ProxyEngine* engine_;
  obj::Object* target_;
  Context* server_;
  Context* client_;
  ProxyEngine::Options options_;
  VAddr client_args_ = 0;
  VAddr server_args_ = 0;
  VAddr server_payload_ = 0;
  // Bind-time host translations of the windows above (see Setup).
  std::span<uint8_t> client_args_host_;
  std::span<uint8_t> server_args_host_;
  std::span<uint8_t> server_payload_host_;
  Arena scratch_;  // reusable bounce for fragmented payload buffers
  std::vector<std::unique_ptr<IfaceRecord>> records_;
  std::vector<std::unique_ptr<SlotStub>> stubs_;
};

Result<std::unique_ptr<obj::Object>> ProxyEngine::CreateProxy(obj::Object* target,
                                                              Context* server, Context* client,
                                                              Options options) {
  if (target == nullptr || server == nullptr || client == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "bad proxy request");
  }
  if (server == client) {
    return Status(ErrorCode::kInvalidArgument, "proxy within one domain is pointless");
  }
  auto proxy = std::make_unique<ProxyObject>(this, target, server, client, std::move(options));
  PARA_RETURN_IF_ERROR(proxy->Setup());
  return std::unique_ptr<obj::Object>(std::move(proxy));
}

}  // namespace para::nucleus
