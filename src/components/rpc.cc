#include "src/components/rpc.h"

#include <cstring>

#include "src/base/copy.h"
#include "src/base/log.h"

namespace para::components {

const obj::TypeInfo* RpcType() {
  static const obj::TypeInfo type("paramecium.rpc", 1, {"call", "procedure_count"});
  return &type;
}

namespace {

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

Result<std::unique_ptr<RpcComponent>> RpcComponent::Create(
    nucleus::VirtualMemoryService* vmem, threads::Scheduler* scheduler, StackComponent* stack,
    Config config) {
  if (vmem == nullptr || scheduler == nullptr || stack == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "rpc needs vmem, scheduler, stack");
  }
  auto rpc = std::unique_ptr<RpcComponent>(new RpcComponent(vmem, scheduler, stack, config));
  PARA_RETURN_IF_ERROR(rpc->Setup());
  return rpc;
}

Status RpcComponent::Setup() {
  // Receive path: all datagrams on the local port go through OnDatagram
  // (running on the stack's RX pop-up thread).
  PARA_RETURN_IF_ERROR(stack_->stack().BindPort(
      config_.local_port, [this](const net::Datagram& datagram) { OnDatagram(datagram); }));

  obj::Interface iface(RpcType(), this);
  iface.SetSlot(0, obj::Thunk<RpcComponent, &RpcComponent::CallSlot>());
  iface.SetSlot(1, obj::Thunk<RpcComponent, &RpcComponent::ProcedureCount>());
  ExportInterface(RpcType()->name(), std::move(iface));
  metrics_.Counter("components.rpc.calls", &stats_.calls);
  metrics_.Counter("components.rpc.replies", &stats_.replies);
  metrics_.Counter("components.rpc.timeouts", &stats_.timeouts);
  metrics_.Counter("components.rpc.server_requests", &stats_.server_requests);
  metrics_.Counter("components.rpc.server_errors", &stats_.server_errors);

  // The §2 evolution example: the measurement interface is exported
  // *alongside* the RPC interface; existing RPC clients are untouched.
  obj::Interface measurement(MeasurementType(), this);
  measurement.SetSlot(0, obj::Thunk<RpcComponent, &RpcComponent::Invocations>());
  measurement.SetSlot(1, obj::Thunk<RpcComponent, &RpcComponent::ResetMeasurement>());
  ExportInterface(MeasurementType()->name(), std::move(measurement));
  return OkStatus();
}

Status RpcComponent::RegisterProcedure(uint32_t proc, RpcProcedure procedure) {
  if (procedure == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null procedure");
  }
  auto [it, inserted] = procedures_.emplace(proc, std::move(procedure));
  if (!inserted) {
    return Status(ErrorCode::kAlreadyExists, "procedure number taken");
  }
  return OkStatus();
}

Status RpcComponent::SendMessage(net::IpAddr ip, net::Port port, uint32_t xid, uint32_t proc,
                                 uint32_t flags, std::span<const uint8_t> payload) {
  tx_arena_.Reset();
  std::span<uint8_t> message = tx_arena_.Allocate(kHeaderBytes + payload.size());
  PutU32(message.data(), xid);
  PutU32(message.data() + 4, proc);
  PutU32(message.data() + 8, flags);
  CopyBytes(message.data() + kHeaderBytes, payload.data(), payload.size());
  return stack_->stack().SendDatagram(ip, config_.local_port, port, message);
}

void RpcComponent::HandleRequest(const net::Datagram& datagram, uint32_t xid, uint32_t proc,
                                 std::span<const uint8_t> payload) {
  ++stats_.server_requests;
  auto it = procedures_.find(proc);
  if (it == procedures_.end()) {
    ++stats_.server_errors;
    (void)SendMessage(datagram.src, datagram.src_port, xid, proc, kFlagReply | kFlagError, {});
    return;
  }
  // The payload is a view of the stack's RX page, and a procedure may block
  // (a nested Call does), letting the next frame land there: it gets a copy.
  const std::vector<uint8_t> request(payload.begin(), payload.end());
  auto reply = it->second(request);
  if (!reply.ok()) {
    ++stats_.server_errors;
    (void)SendMessage(datagram.src, datagram.src_port, xid, proc, kFlagReply | kFlagError, {});
    return;
  }
  (void)SendMessage(datagram.src, datagram.src_port, xid, proc, kFlagReply, *reply);
}

void RpcComponent::OnDatagram(const net::Datagram& datagram) {
  if (datagram.payload.size() < kHeaderBytes) {
    return;  // runt
  }
  uint32_t xid = GetU32(datagram.payload.data());
  uint32_t proc = GetU32(datagram.payload.data() + 4);
  uint32_t flags = GetU32(datagram.payload.data() + 8);
  std::span<const uint8_t> payload(datagram.payload.data() + kHeaderBytes,
                                   datagram.payload.size() - kHeaderBytes);

  if ((flags & kFlagReply) == 0) {
    HandleRequest(datagram, xid, proc, payload);
    return;
  }

  // A reply: complete the pending call. The caller sleeps in slices and
  // observes `done` on its next wake (see Call below).
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;  // late or duplicate reply
  }
  PendingCall* call = it->second.get();
  call->done = true;
  call->error = (flags & kFlagError) != 0;
  call->reply.assign(payload.begin(), payload.end());
  ++stats_.replies;
}

Result<std::vector<uint8_t>> RpcComponent::Call(uint32_t proc,
                                                std::span<const uint8_t> request) {
  // Always-on span: an RPC round trip is microseconds at best (it parks the
  // calling fiber), so the two ring stores are noise.
  PARA_TRACE_SCOPE_ARG("components.rpc.call", proc);
  ++stats_.calls;
  uint32_t xid = next_xid_++;
  auto pending = std::make_unique<PendingCall>();
  PendingCall* call = pending.get();
  pending_.emplace(xid, std::move(pending));

  Status sent = SendMessage(config_.peer_ip, config_.peer_port, xid, proc, 0, request);
  if (!sent.ok()) {
    pending_.erase(xid);
    return sent;
  }

  // Park until the reply lands or virtual time runs out, sleeping in short
  // slices. The idle machinery (machine idle hook / sleepers) advances
  // virtual time, so a lost reply turns into a timeout instead of a hang.
  VTime deadline = scheduler_->clock()->now() + config_.call_timeout;
  while (!call->done && scheduler_->clock()->now() < deadline) {
    if (scheduler_->current() != nullptr || scheduler_->in_proto()) {
      scheduler_->Sleep(config_.call_timeout / 16 + 1);
    } else {
      // Called from the host main loop (tests): run whatever is ready once.
      scheduler_->RunUntilIdle();
      break;
    }
  }

  std::unique_ptr<PendingCall> finished = std::move(pending_[xid]);
  pending_.erase(xid);
  if (!finished->done) {
    ++stats_.timeouts;
    return Status(ErrorCode::kUnavailable, "rpc timeout");
  }
  if (finished->error) {
    return Status(ErrorCode::kFailedPrecondition, "remote procedure failed");
  }
  return finished->reply;
}

uint64_t RpcComponent::CallSlot(uint64_t proc, uint64_t payload_vaddr, uint64_t len,
                                uint64_t capacity) {
  request_arena_.Reset();
  std::span<uint8_t> request = request_arena_.Allocate(len);
  if (!vmem_->Read(stack_->home(), payload_vaddr, request).ok()) {
    return ~uint64_t{0};
  }
  auto reply = Call(static_cast<uint32_t>(proc), request);
  if (!reply.ok() || reply->size() > capacity) {
    return ~uint64_t{0};
  }
  if (!vmem_->Write(stack_->home(), payload_vaddr, *reply).ok()) {
    return ~uint64_t{0};
  }
  return reply->size();
}

uint64_t RpcComponent::ProcedureCount(uint64_t, uint64_t, uint64_t, uint64_t) {
  return procedures_.size();
}

uint64_t RpcComponent::Invocations(uint64_t, uint64_t, uint64_t, uint64_t) {
  return stats_.calls + stats_.server_requests;
}

uint64_t RpcComponent::ResetMeasurement(uint64_t, uint64_t, uint64_t, uint64_t) {
  stats_ = RpcStats{};
  return 0;
}

}  // namespace para::components
