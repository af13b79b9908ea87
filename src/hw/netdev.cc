#include "src/hw/netdev.h"

#include <algorithm>
#include <cstddef>

#include "src/base/copy.h"
#include "src/base/log.h"
#include "src/hw/machine.h"

namespace para::hw {

NetworkDevice::NetworkDevice(std::string name, int irq_line, uint64_t mac)
    : Device(std::move(name), irq_line, kRegisterBytes, kBufferBytes),
      mac_(mac),
      rx_ring_(std::make_unique_for_overwrite<uint8_t[]>(kRxQueueDepth * kMaxFrame)) {
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
      ++frames_sent_;
      link_->Transmit(endpoint_, device_buffer().subspan(kTxAreaOffset, len),
                      machine_->clock().now());
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

void NetworkDevice::DeliverFrame(std::span<const uint8_t> frame) {
  frame = frame.first(std::min(frame.size(), kMaxFrame));
  if ((PeekReg(kRegCtrl) & kCtrlEnable) == 0 || rx_ring_count_ == kRxQueueDepth) {
    ++frames_dropped_;
    PokeReg(kRegDropped, static_cast<uint32_t>(frames_dropped_));
    return;
  }
  if (!rx_area_full_) {
    FillRxArea(frame);
    return;
  }
  const size_t slot = (rx_ring_head_ + rx_ring_count_) % kRxQueueDepth;
  CopyBytes(rx_ring_.get() + slot * kMaxFrame, frame.data(), frame.size());
  rx_ring_len_[slot] = static_cast<uint32_t>(frame.size());
  ++rx_ring_count_;
}

void NetworkDevice::FillRxArea(std::span<const uint8_t> frame) {
  CopyBytes(device_buffer().data() + kRxAreaOffset, frame.data(), frame.size());
  rx_area_full_ = true;
  ++frames_received_;
  PokeReg(kRegRxLen, static_cast<uint32_t>(frame.size()));
  PokeReg(kRegStatus, PeekReg(kRegStatus) | kStatusRxAvailable);
  if ((PeekReg(kRegCtrl) & kCtrlRxIrqEnable) != 0) {
    RaiseIrq();
  }
}

void NetworkDevice::PumpRx() {
  if (rx_area_full_ || rx_ring_count_ == 0) {
    return;
  }
  // The slot is released before the copy out of it: a handler the interrupt
  // runs may deliver into the ring, but only after the copy.
  const size_t slot = rx_ring_head_;
  rx_ring_head_ = (rx_ring_head_ + 1) % kRxQueueDepth;
  --rx_ring_count_;
  FillRxArea({rx_ring_.get() + slot * kMaxFrame, rx_ring_len_[slot]});
}

NetworkLink::NetworkLink(Config config) : config_(config), rng_(config.seed) {}

void NetworkLink::Attach(NetworkDevice* a, NetworkDevice* b) {
  PARA_CHECK(a != nullptr && b != nullptr && a != b);
  endpoints_[0] = a;
  endpoints_[1] = b;
  a->AttachLink(this, 0);
  b->AttachLink(this, 1);
}

void NetworkLink::Transmit(int from_endpoint, std::span<const uint8_t> frame, VTime now) {
  PARA_CHECK(from_endpoint == 0 || from_endpoint == 1);
  PARA_CHECK(frame.size() <= NetworkDevice::kMaxFrame);
  if (config_.loss_rate > 0.0 && rng_.NextBool(config_.loss_rate)) {
    ++frames_lost_;
    return;
  }
  if (in_flight_count_ == in_flight_.size()) {
    // Full: unroll the ring so its free end is the vector's, and add a slot.
    const auto head = in_flight_.begin() + static_cast<std::ptrdiff_t>(in_flight_head_);
    std::rotate(in_flight_.begin(), head, in_flight_.end());
    in_flight_head_ = 0;
    in_flight_.push_back(
        InFlight{.bytes = std::make_unique_for_overwrite<uint8_t[]>(NetworkDevice::kMaxFrame)});
  }
  InFlight& slot = in_flight_[(in_flight_head_ + in_flight_count_) % in_flight_.size()];
  slot.arrival = now + config_.latency;
  slot.dest_endpoint = 1 - from_endpoint;
  slot.len = frame.size();
  CopyBytes(slot.bytes.get(), frame.data(), frame.size());
  ++in_flight_count_;
}

bool NetworkLink::DeliverDue(VTime now) {
  bool delivered = false;
  while (in_flight_count_ != 0 && in_flight_[in_flight_head_].arrival <= now) {
    // Popped before delivery, so a handler the delivery runs (which may
    // transmit, or poll the machine) sees the ring without it. Its slot is
    // not reused before DeliverFrame has copied out of it.
    const InFlight& item = in_flight_[in_flight_head_];
    NetworkDevice* dest = endpoints_[item.dest_endpoint];
    const std::span<const uint8_t> frame(item.bytes.get(), item.len);
    in_flight_head_ = (in_flight_head_ + 1) % in_flight_.size();
    --in_flight_count_;
    PARA_CHECK(dest != nullptr);
    dest->DeliverFrame(frame);
    delivered = true;
  }
  return delivered;
}

std::optional<VTime> NetworkLink::NextArrival() const {
  if (in_flight_count_ == 0) {
    return std::nullopt;
  }
  return in_flight_[in_flight_head_].arrival;
}

}  // namespace para::hw
