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

  // The TX and RX pages in the home domain. The component owns them for
  // its lifetime, so it translates each once (as proxies translate their
  // windows): the stack builds frames in the TX page and parses them where
  // they lie in the RX page.
  PARA_ASSIGN_OR_RETURN(tx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  PARA_ASSIGN_OR_RETURN(rx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  PARA_ASSIGN_OR_RETURN(tx_page_, deps_.vmem->TranslateSpan(home_, tx_buffer_,
                                                            nucleus::kPageSize,
                                                            /*write=*/true));
  PARA_ASSIGN_OR_RETURN(rx_frame_, deps_.vmem->TranslateSpan(home_, rx_buffer_,
                                                             nucleus::kPageSize,
                                                             /*write=*/false));

  stack_ = std::make_unique<net::ProtocolStack>(
      config, [this](std::span<const uint8_t> frame) { return SendFrame(frame); }, tx_page_);

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
  // The stack builds each frame at the start of the TX page, except one too
  // large for it and one nested in a send whose frame holds the page (a
  // driver that calls back into this component).
  if (frame.data() != tx_page_.data()) {
    return Status(ErrorCode::kOutOfRange, "frame not built in the TX page");
  }
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
  // The payload is read straight to its place in the frame. It fails when
  // the frame would not fit the TX page or a send holds the page, and when
  // the source lies in the TX page itself, where the read would overlap.
  std::span<uint8_t> payload = stack_->TxPayload(len);
  if (payload.size() != len ||
      (len != 0 && payload_vaddr < tx_buffer_ + nucleus::kPageSize &&
       tx_buffer_ < payload_vaddr + len) ||
      !deps_.vmem->Read(home_, payload_vaddr, payload).ok()) {
    return ~uint64_t{0};
  }
  auto src_port = static_cast<net::Port>(ports >> 16);
  auto dst_port = static_cast<net::Port>(ports & 0xFFFF);
  Status sent = stack_->SendDatagram(static_cast<net::IpAddr>(dst_ip), src_port, dst_port,
                                     payload);
  return sent.ok() ? 0 : ~uint64_t{0};
}

void StackComponent::Enqueue(Inbox& inbox, std::span<const uint8_t> payload) {
  if (inbox.count == kInboxDepth) {
    ++datagrams_overflow_;
    return;
  }
  inbox.slots[(inbox.head + inbox.count) % kInboxDepth].assign(payload.begin(), payload.end());
  ++inbox.count;
}

uint64_t StackComponent::BindPort(uint64_t port, uint64_t, uint64_t, uint64_t) {
  auto p = static_cast<net::Port>(port);
  Inbox* inbox = &inboxes_[p];
  Status bound = stack_->BindPort(
      p, [this, inbox](const net::Datagram& datagram) { Enqueue(*inbox, datagram.payload); });
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
  // strand the datagrams behind the dropped one. One the copy out fails for
  // stays queued.
  Inbox& inbox = it->second;
  while (inbox.count != 0) {
    const std::vector<uint8_t>& payload = inbox.slots[inbox.head];
    const bool oversize = payload.size() > capacity;
    if (!oversize && !deps_.vmem->Write(home_, dest_vaddr, payload).ok()) {
      return 0;
    }
    inbox.head = (inbox.head + 1) % kInboxDepth;
    --inbox.count;
    if (!oversize) {
      return payload.size();
    }
    ++datagrams_oversize_;
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
