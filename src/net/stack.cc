#include "src/net/stack.h"

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "src/base/copy.h"
#include "src/base/log.h"

namespace para::net {

namespace {

// Whether two byte ranges share a byte (std::less orders any two pointers).
bool Overlaps(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  const std::less<const uint8_t*> before;
  return !a.empty() && !b.empty() && before(a.data(), b.data() + b.size()) &&
         before(b.data(), a.data() + a.size());
}

}  // namespace

ProtocolStack::ProtocolStack(StackConfig config, FrameSender sender,
                             std::span<uint8_t> tx_storage)
    : config_(config), sender_(std::move(sender)), tx_storage_(tx_storage) {
  PARA_CHECK(sender_ != nullptr);
  if (tx_storage_.empty()) {
    tx_owned_ = std::make_unique_for_overwrite<uint8_t[]>(PacketBuffer::kDefaultCapacity);
    tx_storage_ = {tx_owned_.get(), PacketBuffer::kDefaultCapacity};
  }
  if constexpr (telemetry::kEnabled) {
    char host[24];
    std::snprintf(host, sizeof(host), "%u.%u.%u.%u", (config_.ip >> 24) & 0xFF,
                  (config_.ip >> 16) & 0xFF, (config_.ip >> 8) & 0xFF, config_.ip & 0xFF);
    const std::string prefix = std::string("net.stack.") + host + ".";
    for (const StackStatsSlot& slot : kStackStatsSlots) {
      if (slot.field != nullptr) {
        metrics_.Counter(prefix + std::string(slot.name), &(stats_.*slot.field));
      }
    }
  }
}

void ProtocolStack::AddNeighbor(IpAddr ip, MacAddr mac) { neighbors_[ip] = mac; }

Status ProtocolStack::BindPort(Port port, DatagramHandler handler) {
  if (handler == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null handler");
  }
  auto [it, inserted] = sockets_.emplace(port, std::move(handler));
  if (!inserted) {
    return Status(ErrorCode::kAlreadyExists, "port in use");
  }
  return OkStatus();
}

Status ProtocolStack::UnbindPort(Port port) {
  auto socket = sockets_.extract(port);
  if (socket.empty()) {
    return Status(ErrorCode::kNotFound, "port not bound");
  }
  if (deliver_depth_ > 0) {
    unbound_.push_back(std::move(socket));
  }
  return OkStatus();
}

void ProtocolStack::SetIngressFilter(FilterHook hook) {
  if (hook == nullptr) {
    ingress_filter_ = nullptr;
    return;
  }
  ingress_filter_ = [hook = std::move(hook)](std::span<const PacketView> views,
                                             FilterDirection direction,
                                             std::span<FilterDecision> decisions) {
    for (size_t i = 0; i < views.size(); ++i) {
      decisions[i] = hook(views[i], direction);
    }
  };
}

bool ProtocolStack::ApplyDecision(const FilterDecision& decision, uint8_t* ttl_override) {
  switch (decision.verdict) {
    case FilterVerdict::kPass:
      ++stats_.filter_pass;
      if (ttl_override != nullptr && decision.ttl != 0) {
        *ttl_override = decision.ttl;
        ++stats_.filter_ttl_rewrites;
      }
      return true;
    case FilterVerdict::kDrop:
      ++stats_.filter_drop;
      break;
    case FilterVerdict::kReject:
      ++stats_.filter_reject;
      break;
  }
  return false;
}

std::span<uint8_t> ProtocolStack::TxPayload(size_t len) {
  if (tx_busy_ || kHeaderBytes + len + EthHeader::kFcsSize > tx_storage_.size()) {
    return {};
  }
  return tx_storage_.subspan(kHeaderBytes, len);
}

Status ProtocolStack::SendDatagram(IpAddr dst, Port src_port, Port dst_port,
                                   std::span<const uint8_t> payload) {
  const bool nested = std::exchange(tx_busy_, true);
  Status sent = Encapsulate(dst, src_port, dst_port, payload, nested);
  tx_busy_ = nested;
  return sent;
}

Status ProtocolStack::Encapsulate(IpAddr dst, Port src_port, Port dst_port,
                                  std::span<const uint8_t> payload, bool nested) {
  if (payload.size() > kMaxPayload) {
    return Status(ErrorCode::kOutOfRange, "payload exceeds the IP length field");
  }
  auto neighbor = neighbors_.find(dst);
  if (neighbor == neighbors_.end()) {
    return Status(ErrorCode::kUnavailable, "no route to host");
  }
  uint8_t ttl = 64;  // what IpEncap will stamp; a normalize proc may rewrite it
  if (egress_filter_ != nullptr) {
    PacketView view;
    view.src_ip = config_.ip;
    view.dst_ip = dst;
    view.src_port = src_port;
    view.dst_port = dst_port;
    view.proto = kIpProtoUdpLite;
    view.ttl = ttl;
    view.payload = payload;
    if (!ApplyDecision(egress_filter_(view, FilterDirection::kEgress), &ttl)) {
      return Status(ErrorCode::kPermissionDenied, "blocked by egress filter");
    }
  }
  auto send = [&](PacketBuffer& packet) {
    UdpEncap(packet, UdpHeader{src_port, dst_port, 0});
    IpEncap(packet, IpHeader{ttl, kIpProtoUdpLite, config_.ip, dst, 0});
    EthEncap(packet, EthHeader{neighbor->second, config_.mac, kEtherTypeIpLite});
    ++stats_.datagrams_out;
    ++stats_.frames_out;
    return sender_(packet.data());
  };
  const size_t frame_size = kHeaderBytes + payload.size() + EthHeader::kFcsSize;
  if (nested || frame_size > tx_storage_.size()) {
    // Sized to the frame: headroom for the three headers, tailroom for the
    // FCS.
    PacketBuffer packet(kHeaderBytes, frame_size);
    packet.Append(payload);
    return send(packet);
  }
  uint8_t* const in_place = tx_storage_.data() + kHeaderBytes;
  if (payload.data() != in_place) {
    // A payload elsewhere in the storage overlaps where it goes, which
    // memcpy must not be given.
    if (Overlaps(payload, tx_storage_)) {
      std::memmove(in_place, payload.data(), payload.size());
    } else {
      CopyBytes(in_place, payload.data(), payload.size());
    }
  }
  PacketBuffer packet(tx_storage_, kHeaderBytes, payload.size());
  return send(packet);
}

bool ProtocolStack::DecapIngress(std::span<const uint8_t> frame, PacketView* view) {
  ++stats_.frames_in;
  auto eth = EthDecap(frame);
  if (!eth.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }
  if (eth->dst != config_.mac && eth->dst != kMacBroadcast) {
    ++stats_.drops_not_for_us;
    return false;
  }
  if (eth->ether_type != kEtherTypeIpLite) {
    ++stats_.drops_bad_frame;
    return false;
  }

  auto ip = IpDecap(frame);
  if (!ip.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }
  if (ip->dst != config_.ip) {
    ++stats_.drops_not_for_us;
    return false;
  }
  if (ip->proto != kIpProtoUdpLite) {
    ++stats_.drops_bad_frame;
    return false;
  }

  auto udp = UdpDecap(frame);
  if (!udp.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }

  std::construct_at(view, PacketView{.src_ip = ip->src,
                                     .dst_ip = ip->dst,
                                     .src_port = udp->src_port,
                                     .dst_port = udp->dst_port,
                                     .proto = ip->proto,
                                     .ttl = ip->ttl,
                                     .payload = frame});
  return true;
}

void ProtocolStack::Deliver(const PacketView& view) {
  auto socket = sockets_.find(view.dst_port);
  if (socket == sockets_.end()) {
    ++stats_.drops_no_socket;
    return;
  }
  ++stats_.datagrams_in;
  const Datagram datagram(view.src_ip, view.src_port, view.payload);
  ++deliver_depth_;
  socket->second(datagram);
  if (--deliver_depth_ == 0) {
    unbound_.clear();
  }
}

void ProtocolStack::OnFrameBurst(std::span<const std::span<const uint8_t>> frames) {
  // Unconstructed slots: each chunk constructs only the views and decisions
  // it uses, since default-constructing all kIngressChunk of both on every
  // call cost more than a one-frame burst's decap. They live in this frame,
  // not in the stack, because a loopback sender can re-enter OnFrameBurst
  // while a chunk is being delivered.
  alignas(PacketView) std::array<std::byte, sizeof(PacketView) * kIngressChunk> view_slots;
  alignas(FilterDecision) std::array<std::byte, sizeof(FilterDecision) * kIngressChunk>
      decision_slots;
  PacketView* const views = std::launder(reinterpret_cast<PacketView*>(view_slots.data()));
  FilterDecision* const decisions =
      std::launder(reinterpret_cast<FilterDecision*>(decision_slots.data()));
  while (!frames.empty()) {
    size_t n = 0;
    size_t parsed = 0;
    for (; parsed < frames.size() && n < kIngressChunk; ++parsed) {
      n += DecapIngress(frames[parsed], views + n) ? 1 : 0;
    }
    frames = frames.subspan(parsed);
    const std::span<const PacketView> chunk(views, n);
    if (chunk.empty()) {
      continue;
    }
    // One hook call decides the chunk; delivery replays its decisions in
    // order. The slot is read once: a handler that clears the hook mid-chunk
    // must not turn the chunk's drop decisions into deliveries.
    const bool filtered = ingress_filter_ != nullptr;
    if (filtered) {
      std::uninitialized_default_construct_n(decisions, n);
      ingress_filter_(chunk, FilterDirection::kIngress, {decisions, n});
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (!filtered || ApplyDecision(decisions[i], /*ttl_override=*/nullptr)) {
        Deliver(chunk[i]);
      }
    }
  }
}

}  // namespace para::net
