// Network device + point-to-point link models. Two NetworkDevices attach to
// the ends of a NetworkLink that imposes latency and (deterministic,
// seedable) loss. The device exposes:
//   * a register block (private I/O space for the driver), and
//   * an on-device buffer with TX and RX staging areas — the paper's
//     "on-device buffers shared by other contexts".
//
// Received frames wait in the device until its driver polls them, in fixed
// storage: the RX area holds the frame the registers describe, and a ring of
// kRxQueueDepth slots of kMaxFrame bytes, allocated once, holds the frames
// behind it (netmap's preallocated rings). A frame arriving at a full ring is
// dropped at the tail and counted in DROPPED. The link copies each
// transmitted frame into an in-flight slot it reuses, so no frame allocates
// on its way from one device's TX area to the other's RX area.
//
// Register map (byte offsets):
//   0x00 CTRL     bit0 enable, bit1 rx interrupt enable
//   0x04 TX_LEN   write N: transmit first N bytes of the TX area
//   0x08 RX_LEN   read: length of the delivered frame; write: ack/pop it
//   0x0C STATUS   bit0 rx frame available, bit1 tx ready
//   0x10 DROPPED  frames dropped because the RX queue overflowed
//   0x14 MAC_LO / 0x18 MAC_HI
#ifndef PARAMECIUM_SRC_HW_NETDEV_H_
#define PARAMECIUM_SRC_HW_NETDEV_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/base/vclock.h"
#include "src/hw/device.h"

namespace para::hw {

class NetworkLink;

class NetworkDevice : public Device {
 public:
  static constexpr size_t kRegCtrl = 0x00;
  static constexpr size_t kRegTxLen = 0x04;
  static constexpr size_t kRegRxLen = 0x08;
  static constexpr size_t kRegStatus = 0x0C;
  static constexpr size_t kRegDropped = 0x10;
  static constexpr size_t kRegMacLo = 0x14;
  static constexpr size_t kRegMacHi = 0x18;
  static constexpr size_t kRegisterBytes = 0x20;

  static constexpr uint32_t kCtrlEnable = 1u << 0;
  static constexpr uint32_t kCtrlRxIrqEnable = 1u << 1;
  static constexpr uint32_t kStatusRxAvailable = 1u << 0;
  static constexpr uint32_t kStatusTxReady = 1u << 1;

  static constexpr size_t kBufferBytes = 4096;
  static constexpr size_t kTxAreaOffset = 0;
  static constexpr size_t kRxAreaOffset = 2048;
  static constexpr size_t kMaxFrame = 2048;
  static constexpr size_t kRxQueueDepth = 16;

  NetworkDevice(std::string name, int irq_line, uint64_t mac);

  void WriteReg(size_t offset, uint32_t value) override;
  uint32_t ReadReg(size_t offset) override;

  uint64_t mac() const { return mac_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_dropped() const { return frames_dropped_; }

  // Frames the device holds for its driver: the one in the RX area plus
  // those waiting in the ring (at most 1 + kRxQueueDepth).
  size_t rx_frames_held() const { return (rx_area_full_ ? 1 : 0) + rx_ring_count_; }

  // Link side: delivers a frame into the RX path. It is copied straight into
  // the RX area when that is free (the DMA), else into the ring's next free
  // slot; a full ring drops it. Bytes past kMaxFrame are cut off. The copy
  // is made before the RX interrupt is raised, so `frame` is not read once
  // a handler runs.
  void DeliverFrame(std::span<const uint8_t> frame);

 private:
  friend class NetworkLink;

  void AttachLink(NetworkLink* link, int endpoint);
  // Copies `frame` into the RX area, publishes RX_LEN and STATUS and raises
  // the RX interrupt.
  void FillRxArea(std::span<const uint8_t> frame);
  void PumpRx();  // after an ack: moves the ring's oldest frame into the RX area

  NetworkLink* link_ = nullptr;
  int endpoint_ = -1;
  uint64_t mac_;
  bool rx_area_full_ = false;  // while false, the ring is empty
  // The RX ring: kRxQueueDepth slots of kMaxFrame bytes, never zero-filled.
  std::unique_ptr<uint8_t[]> rx_ring_;
  std::array<uint32_t, kRxQueueDepth> rx_ring_len_{};
  size_t rx_ring_head_ = 0;
  size_t rx_ring_count_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t frames_dropped_ = 0;
};

// A full-duplex point-to-point link with latency and loss.
class NetworkLink {
 public:
  struct Config {
    VTime latency = 1000;      // virtual ns, applied per frame
    double loss_rate = 0.0;    // [0,1)
    uint64_t seed = 1;
  };

  explicit NetworkLink(Config config);

  // Wires the two endpoints. Must be called exactly once per endpoint.
  void Attach(NetworkDevice* a, NetworkDevice* b);

  // Called by the TX path of an endpoint device with a span of its TX area
  // (at most kMaxFrame bytes): the frame is copied into an in-flight slot,
  // and that copy is the wire.
  void Transmit(int from_endpoint, std::span<const uint8_t> frame, VTime now);

  // Delivers every frame whose arrival time has passed. Returns true when
  // anything was delivered.
  bool DeliverDue(VTime now);

  // Earliest in-flight arrival, if any.
  std::optional<VTime> NextArrival() const;

  uint64_t frames_lost() const { return frames_lost_; }
  size_t in_flight() const { return in_flight_count_; }

 private:
  // A frame on the wire, in a kMaxFrame slot the link reuses.
  struct InFlight {
    VTime arrival = 0;
    int dest_endpoint = 0;
    size_t len = 0;
    std::unique_ptr<uint8_t[]> bytes;
  };

  Config config_;
  para::Random rng_;
  NetworkDevice* endpoints_[2] = {nullptr, nullptr};
  // A ring sorted by arrival (latency is constant). It grows to the most
  // frames ever in flight at once and keeps its slots.
  std::vector<InFlight> in_flight_;
  size_t in_flight_head_ = 0;
  size_t in_flight_count_ = 0;
  uint64_t frames_lost_ = 0;
};

}  // namespace para::hw

#endif  // PARAMECIUM_SRC_HW_NETDEV_H_
