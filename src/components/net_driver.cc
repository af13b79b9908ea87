#include "src/components/net_driver.h"

#include <iterator>
#include <string>

#include "src/base/log.h"

namespace para::components {

using nucleus::kProtReadWrite;
using nucleus::VAddr;

NetDriver::NetDriver(nucleus::VirtualMemoryService* vmem, hw::NetworkDevice* device,
                     nucleus::Context* home)
    : vmem_(vmem), device_(device), home_(home) {
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
  auto driver = std::unique_ptr<NetDriver>(new NetDriver(vmem, device, home));
  PARA_RETURN_IF_ERROR(driver->Setup());
  return driver;
}

Status NetDriver::Setup() {
  // Exclusive register window, shared buffer window (§3 I/O space model).
  PARA_ASSIGN_OR_RETURN(regs_, vmem_->MapDeviceRegisters(home_, device_));
  PARA_ASSIGN_OR_RETURN(buffer_, vmem_->MapDeviceBuffer(home_, device_, kProtReadWrite));

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

void NetDriver::AckRx() {
  (void)vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen, 1);
}

uint64_t NetDriver::Send(uint64_t payload_vaddr, uint64_t len, uint64_t, uint64_t) {
  ++invocations_;
  if (len > hw::NetworkDevice::kMaxFrame) {
    return ~uint64_t{0};
  }
  // The caller-domain bytes (the proxy has already re-homed them for
  // cross-domain calls) go straight into the TX area.
  if (!vmem_->WriteIoFromMemory(home_, buffer_ + hw::NetworkDevice::kTxAreaOffset, payload_vaddr,
                                len)
           .ok()) {
    return ~uint64_t{0};
  }
  Status kicked = vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegTxLen,
                                   static_cast<uint32_t>(len));
  return kicked.ok() ? 0 : ~uint64_t{0};
}

uint64_t NetDriver::PollRecv(uint64_t dest_vaddr, uint64_t capacity, uint64_t, uint64_t) {
  ++invocations_;
  // 0 means "no frame", so a frame this call cannot return is acked and
  // counted, and the next one is tried: returning 0 for it would strand the
  // frames behind it. An empty frame is skipped that way; so is one longer
  // than the caller's buffer, as real NICs drop it.
  for (;;) {
    auto status_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegStatus);
    if (!status_reg.ok() || (*status_reg & hw::NetworkDevice::kStatusRxAvailable) == 0) {
      return 0;
    }
    auto len_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen);
    if (!len_reg.ok()) {
      return 0;
    }
    const uint64_t len = *len_reg;
    if (len == 0 || len > capacity) {
      ++(len == 0 ? frames_empty_ : frames_oversize_);
      AckRx();
      continue;
    }
    // A failed copy leaves the frame in the device, unacked, for the next
    // poll.
    if (!vmem_->ReadIoToMemory(home_, buffer_ + hw::NetworkDevice::kRxAreaOffset, dest_vaddr, len)
             .ok()) {
      return 0;
    }
    AckRx();
    return len;
  }
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
