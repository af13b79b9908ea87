#include "src/hw/netdev.h"

#include <algorithm>

#include "src/base/copy.h"
#include "src/base/log.h"
#include "src/hw/machine.h"

namespace para::hw {

NetworkDevice::NetworkDevice(std::string name, int irq_line, uint64_t mac)
    : Device(std::move(name), irq_line, kRegisterBytes, kBufferBytes), mac_(mac) {
  PokeReg(kRegMacLo, static_cast<uint32_t>(mac));
  PokeReg(kRegMacHi, static_cast<uint32_t>(mac >> 32));
  PokeReg(kRegStatus, kStatusTxReady);
}

void NetworkDevice::AttachLink(NetworkLink* link, int endpoint) {
  link_ = link;
  endpoint_ = endpoint;
}

uint32_t NetworkDevice::ReadReg(size_t offset) { return PeekReg(offset); }

void NetworkDevice::WriteReg(size_t offset, uint32_t value) {
  switch (offset) {
    case kRegTxLen: {
      if ((PeekReg(kRegCtrl) & kCtrlEnable) == 0 || link_ == nullptr) {
        return;  // transmitting while disabled is silently dropped
      }
      size_t len = std::min<size_t>(value, kMaxFrame);
      // Built from the TX area's bytes: a Frame of `len` would be zero-filled
      // only to be overwritten.
      const uint8_t* tx = device_buffer().data() + kTxAreaOffset;
      Frame frame(tx, tx + len);
      ++frames_sent_;
      link_->Transmit(endpoint_, std::move(frame), machine_->clock().now());
      return;
    }
    case kRegRxLen: {
      // Ack: release the RX area and pump the next queued frame.
      rx_area_full_ = false;
      PokeReg(kRegRxLen, 0);
      PokeReg(kRegStatus, PeekReg(kRegStatus) & ~kStatusRxAvailable);
      PumpRx();
      return;
    }
    default:
      PokeReg(offset, value);
      return;
  }
}

void NetworkDevice::DeliverFrame(Frame frame) {
  if ((PeekReg(kRegCtrl) & kCtrlEnable) == 0) {
    ++frames_dropped_;
    PokeReg(kRegDropped, static_cast<uint32_t>(frames_dropped_));
    return;
  }
  if (rx_queue_.size() >= kRxQueueDepth) {
    ++frames_dropped_;
    PokeReg(kRegDropped, static_cast<uint32_t>(frames_dropped_));
    return;
  }
  rx_queue_.push_back(std::move(frame));
  PumpRx();
}

void NetworkDevice::PumpRx() {
  if (rx_area_full_ || rx_queue_.empty()) {
    return;
  }
  Frame frame = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  size_t len = std::min(frame.size(), kMaxFrame);
  CopyBytes(device_buffer().data() + kRxAreaOffset, frame.data(), len);
  rx_area_full_ = true;
  ++frames_received_;
  PokeReg(kRegRxLen, static_cast<uint32_t>(len));
  PokeReg(kRegStatus, PeekReg(kRegStatus) | kStatusRxAvailable);
  if ((PeekReg(kRegCtrl) & kCtrlRxIrqEnable) != 0) {
    RaiseIrq();
  }
}

NetworkLink::NetworkLink(Config config) : config_(config), rng_(config.seed) {}

void NetworkLink::Attach(NetworkDevice* a, NetworkDevice* b) {
  PARA_CHECK(a != nullptr && b != nullptr && a != b);
  endpoints_[0] = a;
  endpoints_[1] = b;
  a->AttachLink(this, 0);
  b->AttachLink(this, 1);
}

void NetworkLink::Transmit(int from_endpoint, Frame frame, VTime now) {
  PARA_CHECK(from_endpoint == 0 || from_endpoint == 1);
  if (config_.loss_rate > 0.0 && rng_.NextBool(config_.loss_rate)) {
    ++frames_lost_;
    return;
  }
  in_flight_.push_back(InFlight{now + config_.latency, 1 - from_endpoint, std::move(frame)});
}

bool NetworkLink::DeliverDue(VTime now) {
  bool delivered = false;
  while (!in_flight_.empty() && in_flight_.front().arrival <= now) {
    InFlight item = std::move(in_flight_.front());
    in_flight_.pop_front();
    NetworkDevice* dest = endpoints_[item.dest_endpoint];
    PARA_CHECK(dest != nullptr);
    dest->DeliverFrame(std::move(item.frame));
    delivered = true;
  }
  return delivered;
}

std::optional<VTime> NetworkLink::NextArrival() const {
  if (in_flight_.empty()) {
    return std::nullopt;
  }
  return in_flight_.front().arrival;
}

}  // namespace para::hw
