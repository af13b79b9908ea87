#include "src/components/console_driver.h"

#include <algorithm>
#include <array>

namespace para::components {

Result<std::unique_ptr<ConsoleDriver>> ConsoleDriver::Create(
    nucleus::VirtualMemoryService* vmem, hw::ConsoleDevice* device, nucleus::Context* home) {
  if (vmem == nullptr || device == nullptr || home == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "console driver needs vmem, device, home");
  }
  auto driver = std::unique_ptr<ConsoleDriver>(new ConsoleDriver(vmem, device, home));
  PARA_RETURN_IF_ERROR(driver->Setup());
  return driver;
}

Status ConsoleDriver::Setup() {
  PARA_ASSIGN_OR_RETURN(regs_, vmem_->MapDeviceRegisters(home_, device_));
  PARA_RETURN_IF_ERROR(vmem_->WriteIo32(home_, regs_ + hw::ConsoleDevice::kRegCtrl,
                                        hw::ConsoleDevice::kCtrlEnable));
  obj::Interface iface(ConsoleType(), this);
  iface.SetSlot(0, obj::Thunk<ConsoleDriver, &ConsoleDriver::PutChar>());
  iface.SetSlot(1, obj::Thunk<ConsoleDriver, &ConsoleDriver::Write>());
  iface.SetSlot(2, obj::Thunk<ConsoleDriver, &ConsoleDriver::GetChar>());
  ExportInterface(ConsoleType()->name(), std::move(iface));
  return OkStatus();
}

uint64_t ConsoleDriver::PutChar(uint64_t c, uint64_t, uint64_t, uint64_t) {
  return vmem_->WriteIo32(home_, regs_ + hw::ConsoleDevice::kRegData,
                          static_cast<uint32_t>(c))
                 .ok()
             ? 0
             : ~uint64_t{0};
}

uint64_t ConsoleDriver::Write(uint64_t vaddr, uint64_t len, uint64_t, uint64_t) {
  // One page at a time through a fixed buffer, so the caller's length never
  // sizes an allocation. Each chunk stays inside one page: a read fault then
  // means that page is unmapped, and every byte before it was written.
  std::array<uint8_t, nucleus::kPageSize> chunk{};
  uint64_t written = 0;
  while (written < len) {
    const uint64_t at = vaddr + written;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(len - written, nucleus::kPageSize - at % nucleus::kPageSize));
    std::span<uint8_t> text(chunk.data(), n);
    if (!vmem_->Read(home_, at, text).ok()) {
      break;
    }
    for (uint8_t c : text) {
      if (PutChar(c, 0, 0, 0) != 0) {
        return written;
      }
      ++written;
    }
  }
  return written;
}

uint64_t ConsoleDriver::GetChar(uint64_t, uint64_t, uint64_t, uint64_t) {
  auto status = vmem_->ReadIo32(home_, regs_ + hw::ConsoleDevice::kRegStatus);
  if (!status.ok() || (*status & hw::ConsoleDevice::kStatusInputAvailable) == 0) {
    return ~uint64_t{0};
  }
  auto c = vmem_->ReadIo32(home_, regs_ + hw::ConsoleDevice::kRegData);
  return c.ok() ? *c : ~uint64_t{0};
}

}  // namespace para::components
