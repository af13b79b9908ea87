#include "src/components/net_driver.h"

#include <iterator>
#include <string>

#include "src/base/log.h"

namespace para::components {

using nucleus::kProtReadWrite;
using nucleus::VAddr;

NetDriver::NetDriver(nucleus::VirtualMemoryService* vmem, nucleus::EventService* events,
                     hw::NetworkDevice* device, nucleus::Context* home)
    : vmem_(vmem), events_(events), device_(device), home_(home) {
  for (const NetDriverStatsSlot& slot : kNetDriverStatsSlots) {
    if (slot.read == nullptr) {
      continue;
    }
    metrics_.Fn("components.net_driver." + std::string(slot.name),
                [this, read = slot.read] { return read(*this); }, telemetry::MetricKind::kCounter);
  }
  metrics_.Counter("components.net_driver.invocations", &invocations_);
}

NetDriver::~NetDriver() {
  if (event_registration_ != 0) {
    (void)events_->Unregister(event_registration_);
  }
  if (regs_ != 0) {
    (void)vmem_->UnmapIo(home_, regs_);
  }
}

Result<std::unique_ptr<NetDriver>> NetDriver::Create(nucleus::VirtualMemoryService* vmem,
                                                     nucleus::EventService* events,
                                                     hw::NetworkDevice* device,
                                                     nucleus::Context* home) {
  if (vmem == nullptr || events == nullptr || device == nullptr || home == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "driver needs vmem, events, device, home");
  }
  auto driver = std::unique_ptr<NetDriver>(new NetDriver(vmem, events, device, home));
  PARA_RETURN_IF_ERROR(driver->Setup());
  return driver;
}

Status NetDriver::Setup() {
  // Exclusive register window, shared buffer window (§3 I/O space model).
  PARA_ASSIGN_OR_RETURN(regs_, vmem_->MapDeviceRegisters(home_, device_));
  PARA_ASSIGN_OR_RETURN(buffer_, vmem_->MapDeviceBuffer(home_, device_, kProtReadWrite));

  // RX interrupts become pop-up threads running OnRxInterrupt.
  PARA_ASSIGN_OR_RETURN(
      event_registration_,
      events_->Register(nucleus::IrqEvent(device_->irq_line()), home_,
                        [this](nucleus::EventNumber, uint64_t) { OnRxInterrupt(); },
                        threads::DispatchMode::kProtoThread, "netdrv-rx"));

  // Enable the device with RX interrupts.
  PARA_RETURN_IF_ERROR(vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl,
                                        hw::NetworkDevice::kCtrlEnable |
                                            hw::NetworkDevice::kCtrlRxIrqEnable));

  obj::Interface iface(NetDriverType(), this);
  iface.SetSlot(0, obj::Thunk<NetDriver, &NetDriver::Send>());
  iface.SetSlot(1, obj::Thunk<NetDriver, &NetDriver::PollRecv>());
  iface.SetSlot(2, obj::Thunk<NetDriver, &NetDriver::GetMac>());
  iface.SetSlot(3, obj::Thunk<NetDriver, &NetDriver::IrqEvent>());
  iface.SetSlot(4, obj::Thunk<NetDriver, &NetDriver::SetRxIrq>());
  iface.SetSlot(5, obj::Thunk<NetDriver, &NetDriver::Stats>());
  ExportInterface(NetDriverType()->name(), std::move(iface));

  obj::Interface measurement(MeasurementType(), this);
  measurement.SetSlot(0, obj::Thunk<NetDriver, &NetDriver::Invocations>());
  measurement.SetSlot(1, obj::Thunk<NetDriver, &NetDriver::ResetMeasurement>());
  ExportInterface(MeasurementType()->name(), std::move(measurement));
  return OkStatus();
}

void NetDriver::OnRxInterrupt() {
  // Drain every frame the device has staged: read RX_LEN, copy the frame out
  // of the buffer window, ack.
  for (;;) {
    auto status_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegStatus);
    if (!status_reg.ok() || (*status_reg & hw::NetworkDevice::kStatusRxAvailable) == 0) {
      return;
    }
    auto len_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen);
    if (!len_reg.ok() || *len_reg > hw::NetworkDevice::kMaxFrame) {
      return;
    }
    const size_t len = *len_reg;
    if (len == 0) {
      // PollRecv's 0 means "queue empty", so a queued empty frame would stop
      // a consumer short of the frames behind it.
      ++frames_empty_;
    } else {
      // Uninitialized storage: the copy out of the buffer window fills it.
      RxFrame frame{std::make_unique_for_overwrite<uint8_t[]>(len), len};
      Status read =
          vmem_->ReadIo(home_, buffer_ + hw::NetworkDevice::kRxAreaOffset, frame.bytes());
      if (!read.ok()) {
        return;
      }
      rx_frames_.push_back(std::move(frame));
    }
    // Ack: write RX_LEN, which pumps the next queued frame (possibly raising
    // the next interrupt).
    (void)vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen, 1);
  }
}

uint64_t NetDriver::Send(uint64_t payload_vaddr, uint64_t len, uint64_t, uint64_t) {
  ++invocations_;
  if (len > hw::NetworkDevice::kMaxFrame) {
    return ~uint64_t{0};
  }
  // Pull the payload from the caller-domain address (the proxy has already
  // re-homed it for cross-domain calls), then stage it in the TX area.
  std::span<uint8_t> payload(tx_frame_.data(), len);
  if (!vmem_->Read(home_, payload_vaddr, payload).ok()) {
    return ~uint64_t{0};
  }
  if (!vmem_->WriteIo(home_, buffer_ + hw::NetworkDevice::kTxAreaOffset, payload).ok()) {
    return ~uint64_t{0};
  }
  Status kicked = vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegTxLen,
                                   static_cast<uint32_t>(len));
  return kicked.ok() ? 0 : ~uint64_t{0};
}

uint64_t NetDriver::PollRecv(uint64_t dest_vaddr, uint64_t capacity, uint64_t, uint64_t) {
  ++invocations_;
  // A frame longer than the caller's buffer is dropped and counted (like
  // real NICs), and the next frame is tried: 0 means "queue empty", so
  // returning it here would strand the frames behind the dropped one.
  while (!rx_frames_.empty()) {
    RxFrame frame = std::move(rx_frames_.front());
    rx_frames_.pop_front();
    if (frame.size > capacity) {
      ++frames_oversize_;
      continue;
    }
    Status wrote = vmem_->Write(home_, dest_vaddr, frame.bytes());
    return wrote.ok() ? frame.size : 0;
  }
  return 0;
}

uint64_t NetDriver::GetMac(uint64_t, uint64_t, uint64_t, uint64_t) {
  ++invocations_;
  return device_->mac();
}

uint64_t NetDriver::IrqEvent(uint64_t, uint64_t, uint64_t, uint64_t) {
  return nucleus::IrqEvent(device_->irq_line());
}

uint64_t NetDriver::SetRxIrq(uint64_t enable, uint64_t, uint64_t, uint64_t) {
  ++invocations_;
  auto ctrl = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl);
  if (!ctrl.ok()) {
    return ~uint64_t{0};
  }
  uint32_t value = *ctrl;
  if (enable != 0) {
    value |= hw::NetworkDevice::kCtrlRxIrqEnable;
  } else {
    value &= ~hw::NetworkDevice::kCtrlRxIrqEnable;
  }
  return vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl, value).ok()
             ? 0
             : ~uint64_t{0};
}

uint64_t NetDriver::Stats(uint64_t index, uint64_t, uint64_t, uint64_t) {
  if (index >= std::size(kNetDriverStatsSlots) || kNetDriverStatsSlots[index].read == nullptr) {
    return 0;
  }
  return kNetDriverStatsSlots[index].read(*this);
}

uint64_t NetDriver::Invocations(uint64_t, uint64_t, uint64_t, uint64_t) {
  return invocations_;
}

uint64_t NetDriver::ResetMeasurement(uint64_t, uint64_t, uint64_t, uint64_t) {
  invocations_ = 0;
  return 0;
}

}  // namespace para::components
