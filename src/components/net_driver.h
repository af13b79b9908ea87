// Network device driver component. A toolbox component (§3: "all other
// system components, like ... device drivers ... reside outside this
// nucleus") that can be instantiated in the kernel domain or a user domain.
// It claims the device's register block as exclusive I/O space and the
// on-device buffer as a (shareable) window, per the paper's I/O-space model.
//
// Frames move as spans: registers are 32-bit accesses, but a frame crosses
// the buffer window in one ReadIo/WriteIo copy (one page lookup, every
// check of the word accessors). Send reads the caller's payload into a
// fixed TX staging buffer and writes it to the device from there; RX copies
// each frame out of the buffer window once, straight into the storage it is
// queued in.
#ifndef PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_
#define PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <string_view>

#include "src/base/telemetry.h"
#include "src/components/interfaces.h"
#include "src/hw/netdev.h"
#include "src/nucleus/event.h"
#include "src/nucleus/vmem.h"
#include "src/obj/object.h"

namespace para::components {

class NetDriver : public obj::Object {
 public:
  // Maps the device into `home` and hooks the RX interrupt. The driver
  // exports NetDriverType() plus MeasurementType().
  static Result<std::unique_ptr<NetDriver>> Create(nucleus::VirtualMemoryService* vmem,
                                                   nucleus::EventService* events,
                                                   hw::NetworkDevice* device,
                                                   nucleus::Context* home);

  ~NetDriver() override;

  nucleus::Context* home() const { return home_; }
  const hw::NetworkDevice& device() const { return *device_; }
  uint64_t rx_frames_buffered() const { return rx_frames_.size(); }
  // Zero-length frames the device delivered; RX acks and discards them.
  uint64_t frames_empty() const { return frames_empty_; }
  // Queued frames longer than a PollRecv caller's buffer; dropped.
  uint64_t frames_oversize() const { return frames_oversize_; }

  // Method implementations (uniform convention; see interfaces.h).
  uint64_t Send(uint64_t payload_vaddr, uint64_t len, uint64_t, uint64_t);
  uint64_t PollRecv(uint64_t dest_vaddr, uint64_t capacity, uint64_t, uint64_t);
  uint64_t GetMac(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t IrqEvent(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t SetRxIrq(uint64_t enable, uint64_t, uint64_t, uint64_t);
  uint64_t Stats(uint64_t index, uint64_t, uint64_t, uint64_t);
  uint64_t Invocations(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t ResetMeasurement(uint64_t, uint64_t, uint64_t, uint64_t);

 private:
  NetDriver(nucleus::VirtualMemoryService* vmem, nucleus::EventService* events,
            hw::NetworkDevice* device, nucleus::Context* home);

  Status Setup();
  void OnRxInterrupt();

  nucleus::VirtualMemoryService* vmem_;
  nucleus::EventService* events_;
  hw::NetworkDevice* device_;
  nucleus::Context* home_;
  nucleus::VAddr regs_ = 0;
  nucleus::VAddr buffer_ = 0;
  uint64_t event_registration_ = 0;
  // A received frame: `size` bytes, never zero-filled before the copy in.
  struct RxFrame {
    std::unique_ptr<uint8_t[]> storage;
    size_t size;
    std::span<uint8_t> bytes() const { return {storage.get(), size}; }
  };
  std::deque<RxFrame> rx_frames_;  // driver-side RX queue
  std::array<uint8_t, hw::NetworkDevice::kMaxFrame> tx_frame_{};  // Send's payload staging
  uint64_t frames_empty_ = 0;
  uint64_t frames_oversize_ = 0;
  uint64_t invocations_ = 0;
  // Aliases over the device's counters and this driver's tallies — declared
  // last so they unregister before the fields/device pointer die.
  telemetry::ScopedMetricGroup metrics_;
};

// NetDriverType's stats(index) slots, in index order — the single source of
// truth that the numbered slots, the `components.net_driver.<name>` registry
// metrics and the slot-map test all derive from. The device's counters sit
// behind its accessors, so each slot is a reader rather than a field. A
// retired slot keeps its number with an empty name and no reader: it reads 0
// and registers no metric.
struct NetDriverStatsSlot {
  std::string_view name;
  uint64_t (*read)(const NetDriver& driver);
};
inline constexpr NetDriverStatsSlot kNetDriverStatsSlots[] = {
    {"frames_sent", [](const NetDriver& d) { return d.device().frames_sent(); }},          // 0
    {"frames_received", [](const NetDriver& d) { return d.device().frames_received(); }},  // 1
    {"frames_dropped", [](const NetDriver& d) { return d.device().frames_dropped(); }},    // 2
    {"", nullptr},                                                                         // 3
    {"frames_empty", [](const NetDriver& d) { return d.frames_empty(); }},                 // 4
    {"frames_oversize", [](const NetDriver& d) { return d.frames_oversize(); }},           // 5
};

}  // namespace para::components

#endif  // PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_
