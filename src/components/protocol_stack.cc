#include "src/components/protocol_stack.h"

#include "src/base/log.h"
#include "src/hw/netdev.h"

namespace para::components {

namespace {
// Slot indices in NetDriverType().
constexpr size_t kDriverSend = 0;
constexpr size_t kDriverPollRecv = 1;
constexpr size_t kDriverIrqEvent = 3;
}  // namespace

Result<std::unique_ptr<StackComponent>> StackComponent::Create(Deps deps,
                                                               nucleus::Context* home,
                                                               const std::string& driver_path,
                                                               net::StackConfig config) {
  if (deps.vmem == nullptr || deps.events == nullptr || deps.directory == nullptr ||
      home == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "stack component needs its dependencies");
  }
  auto component = std::unique_ptr<StackComponent>(new StackComponent(deps, home));
  PARA_RETURN_IF_ERROR(component->Setup(driver_path, config));
  return component;
}

StackComponent::~StackComponent() {
  if (event_registration_ != 0) {
    (void)deps_.events->Unregister(event_registration_);
  }
}

Status StackComponent::Setup(const std::string& driver_path, net::StackConfig config) {
  // Late binding through the name space; a cross-domain driver arrives as a
  // proxy with payload marshalling on send (in) and poll_recv (out).
  nucleus::ProxyOptions options;
  const std::string iface = NetDriverType()->name();
  options.payload_slots.insert(iface + "#" + std::to_string(kDriverSend));
  options.out_payload_slots.insert(iface + "#" + std::to_string(kDriverPollRecv));
  PARA_ASSIGN_OR_RETURN(nucleus::Binding binding,
                        deps_.directory->Bind(driver_path, home_, options));
  via_proxy_ = binding.via_proxy;
  PARA_ASSIGN_OR_RETURN(driver_, binding.object->GetInterface(iface));

  // Frame staging buffers in the home domain.
  PARA_ASSIGN_OR_RETURN(tx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  PARA_ASSIGN_OR_RETURN(rx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  // The component owns the RX page for its lifetime, so it translates it
  // once (as proxies translate their windows) and hands received frames to
  // the stack where they lie.
  PARA_ASSIGN_OR_RETURN(rx_frame_, deps_.vmem->TranslateSpan(home_, rx_buffer_,
                                                             nucleus::kPageSize,
                                                             /*write=*/false));

  stack_ = std::make_unique<net::ProtocolStack>(
      config, [this](std::span<const uint8_t> frame) { return SendFrame(frame); });

  // RX interrupts -> pop-up thread -> PumpRx. The event number comes from
  // the driver itself (works across domains: it is a plain return value).
  uint64_t event = driver_->Invoke(kDriverIrqEvent);
  PARA_ASSIGN_OR_RETURN(
      event_registration_,
      deps_.events->Register(static_cast<nucleus::EventNumber>(event), home_,
                             [this](nucleus::EventNumber, uint64_t) { PumpRx(); },
                             threads::DispatchMode::kProtoThread, "stack-rx"));

  obj::Interface exported(StackType(), this);
  exported.SetSlot(0, obj::Thunk<StackComponent, &StackComponent::Send>());
  exported.SetSlot(1, obj::Thunk<StackComponent, &StackComponent::BindPort>());
  exported.SetSlot(2, obj::Thunk<StackComponent, &StackComponent::Recv>());
  exported.SetSlot(3, obj::Thunk<StackComponent, &StackComponent::Stats>());
  ExportInterface(StackType()->name(), std::move(exported));
  return OkStatus();
}

Status StackComponent::SendFrame(std::span<const uint8_t> frame) {
  if (frame.size() > nucleus::kPageSize) {
    return Status(ErrorCode::kOutOfRange, "frame exceeds staging buffer");
  }
  PARA_RETURN_IF_ERROR(deps_.vmem->Write(home_, tx_buffer_, frame));
  uint64_t rc = driver_->Invoke(kDriverSend, tx_buffer_, frame.size());
  return rc == 0 ? OkStatus() : Status(ErrorCode::kUnavailable, "driver send failed");
}

void StackComponent::PumpRx() {
  for (;;) {
    uint64_t len = driver_->Invoke(kDriverPollRecv, rx_buffer_, rx_frame_.size());
    if (len == 0 || len > rx_frame_.size()) {
      return;
    }
    // Nothing writes rx_buffer_ again until the next PollRecv, after
    // OnFrame returns, so the frame stays unchanged for the call — unless a
    // handler blocks: another RX pop-up then polls into the same page, so a
    // handler that may block copies the payload view first.
    stack_->OnFrame(rx_frame_.first(len));
  }
}

uint64_t StackComponent::Send(uint64_t dst_ip, uint64_t ports, uint64_t payload_vaddr,
                              uint64_t len) {
  if (len > tx_payload_.size()) {
    return ~uint64_t{0};
  }
  std::span<uint8_t> payload(tx_payload_.data(), len);
  if (!deps_.vmem->Read(home_, payload_vaddr, payload).ok()) {
    return ~uint64_t{0};
  }
  auto src_port = static_cast<net::Port>(ports >> 16);
  auto dst_port = static_cast<net::Port>(ports & 0xFFFF);
  Status sent = stack_->SendDatagram(static_cast<net::IpAddr>(dst_ip), src_port, dst_port,
                                     payload);
  return sent.ok() ? 0 : ~uint64_t{0};
}

uint64_t StackComponent::BindPort(uint64_t port, uint64_t, uint64_t, uint64_t) {
  auto p = static_cast<net::Port>(port);
  Status bound = stack_->BindPort(p, [this, p](const net::Datagram& datagram) {
    inboxes_[p].emplace_back(datagram.payload.begin(), datagram.payload.end());
  });
  return bound.ok() ? 0 : ~uint64_t{0};
}

uint64_t StackComponent::Recv(uint64_t port, uint64_t dest_vaddr, uint64_t capacity,
                              uint64_t) {
  auto it = inboxes_.find(static_cast<net::Port>(port));
  if (it == inboxes_.end()) {
    return 0;
  }
  // A datagram longer than the caller's buffer is dropped and counted, and
  // the next one is tried: 0 means "none queued", so returning it here would
  // strand the datagrams behind the dropped one.
  while (!it->second.empty()) {
    const std::vector<uint8_t> payload = std::move(it->second.front());
    it->second.pop_front();
    if (payload.size() > capacity) {
      ++datagrams_oversize_;
      continue;
    }
    if (!deps_.vmem->Write(home_, dest_vaddr, payload).ok()) {
      return 0;
    }
    return payload.size();
  }
  return 0;
}

uint64_t StackComponent::Stats(uint64_t index, uint64_t, uint64_t, uint64_t) {
  // Reserved slots (null field) and indices past the table read 0.
  if (index >= std::size(net::kStackStatsSlots) || net::kStackStatsSlots[index].field == nullptr) {
    return 0;
  }
  return stack_->stats().*net::kStackStatsSlots[index].field;
}

}  // namespace para::components
