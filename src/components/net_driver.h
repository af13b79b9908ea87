// Network device driver component. A toolbox component (§3: "all other
// system components, like ... device drivers ... reside outside this
// nucleus") that can be instantiated in the kernel domain or a user domain.
// It claims the device's register block as exclusive I/O space and the
// on-device buffer as a (shareable) window, per the paper's I/O-space model.
//
// Frames wait in the device until polled: the driver keeps no queue of its
// own and registers no interrupt handler. Its consumer hooks the RX
// interrupt (IrqEvent) and calls PollRecv, which reads STATUS and RX_LEN,
// copies the frame out of the RX area straight into the caller's buffer and
// acks it. The device's ring of kRxQueueDepth frames is the only receive
// queue, so a peer flooding an idle consumer fills that ring and no more.
// Send copies the caller's bytes straight into the TX area. Each is one
// copy, with every check of the memory and I/O-space accessors
// (VirtualMemoryService::ReadIoToMemory / WriteIoFromMemory).
#ifndef PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_
#define PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_

#include <memory>
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
  // Maps the device into `home` and enables it with RX interrupts. The
  // driver exports NetDriverType() plus MeasurementType(). `events` is
  // checked but not kept: the RX interrupt's handler is the consumer's.
  static Result<std::unique_ptr<NetDriver>> Create(nucleus::VirtualMemoryService* vmem,
                                                   nucleus::EventService* events,
                                                   hw::NetworkDevice* device,
                                                   nucleus::Context* home);

  ~NetDriver() override;

  nucleus::Context* home() const { return home_; }
  const hw::NetworkDevice& device() const { return *device_; }
  // Frames the device holds, waiting for PollRecv.
  uint64_t rx_frames_buffered() const { return device_->rx_frames_held(); }
  // Zero-length frames PollRecv found; it acks and discards them.
  uint64_t frames_empty() const { return frames_empty_; }
  // Frames longer than a PollRecv caller's buffer; acked and dropped.
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
  NetDriver(nucleus::VirtualMemoryService* vmem, hw::NetworkDevice* device,
            nucleus::Context* home);

  Status Setup();
  // Acks the frame in the RX area; the device moves the next one in.
  void AckRx();

  nucleus::VirtualMemoryService* vmem_;
  hw::NetworkDevice* device_;
  nucleus::Context* home_;
  nucleus::VAddr regs_ = 0;
  nucleus::VAddr buffer_ = 0;
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
