#include "src/net/stack.h"

#include <cstdio>
#include <string>

#include "src/base/log.h"

namespace para::net {

ProtocolStack::ProtocolStack(StackConfig config, FrameSender sender)
    : config_(config), sender_(std::move(sender)) {
  PARA_CHECK(sender_ != nullptr);
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
  return sockets_.erase(port) > 0 ? OkStatus()
                                  : Status(ErrorCode::kNotFound, "port not bound");
}

bool ProtocolStack::ApplyFilter(const FilterHook& hook, const PacketView& view,
                                FilterDirection dir, uint8_t* ttl_override) {
  return ApplyDecision(hook(view, dir), ttl_override);
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
  ++stats_.drops_filtered;
  return false;
}

Status ProtocolStack::SendDatagram(IpAddr dst, Port src_port, Port dst_port,
                                   std::span<const uint8_t> payload) {
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
    if (!ApplyFilter(egress_filter_, view, FilterDirection::kEgress, &ttl)) {
      return Status(ErrorCode::kPermissionDenied, "blocked by egress filter");
    }
  }
  PacketBuffer packet;
  packet.Append(payload);
  UdpEncap(packet, UdpHeader{src_port, dst_port, 0});
  IpEncap(packet, IpHeader{ttl, kIpProtoUdpLite, config_.ip, dst, 0});
  EthEncap(packet, EthHeader{neighbor->second, config_.mac, kEtherTypeIpLite});
  ++stats_.datagrams_out;
  ++stats_.frames_out;
  return sender_(packet.data());
}

bool ProtocolStack::DecapIngress(std::span<const uint8_t> frame, PacketBuffer* packet,
                                 PacketView* view) {
  ++stats_.frames_in;
  *packet = PacketBuffer::FromBytes(frame);

  auto eth = EthDecap(*packet);
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

  auto ip = IpDecap(*packet);
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

  auto udp = UdpDecap(*packet);
  if (!udp.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }

  view->src_ip = ip->src;
  view->dst_ip = ip->dst;
  view->src_port = udp->src_port;
  view->dst_port = udp->dst_port;
  view->proto = ip->proto;
  view->ttl = ip->ttl;
  view->payload = packet->data();
  return true;
}

void ProtocolStack::Deliver(const PacketView& view) {
  auto socket = sockets_.find(view.dst_port);
  if (socket == sockets_.end()) {
    ++stats_.drops_no_socket;
    return;
  }
  ++stats_.datagrams_in;
  Datagram datagram;
  datagram.src = view.src_ip;
  datagram.src_port = view.src_port;
  datagram.payload.assign(view.payload.begin(), view.payload.end());
  socket->second(datagram);
}

void ProtocolStack::OnFrame(std::span<const uint8_t> frame) {
  PacketBuffer packet;
  PacketView view;
  if (!DecapIngress(frame, &packet, &view)) {
    return;
  }
  // Ingress filter verdict on a zero-copy view of the decapsulated packet:
  // a dropped or rejected datagram costs no allocation.
  if (ingress_filter_ != nullptr &&
      !ApplyFilter(ingress_filter_, view, FilterDirection::kIngress)) {
    return;
  }
  Deliver(view);
}

void ProtocolStack::OnFrameBurst(std::span<const std::span<const uint8_t>> frames) {
  if (ingress_batch_filter_ == nullptr) {
    // No batched hook: identical semantics, one frame at a time (through the
    // per-packet hook, if any).
    for (std::span<const uint8_t> frame : frames) {
      OnFrame(frame);
    }
    return;
  }
  // Decap pass first: the surviving views alias their PacketBuffers, which
  // must outlive the batch verdict (PacketBuffer is vector-backed, so the
  // payload spans survive the moves into `packets`).
  std::vector<PacketBuffer> packets;
  std::vector<PacketView> views;
  packets.reserve(frames.size());
  views.reserve(frames.size());
  for (std::span<const uint8_t> frame : frames) {
    PacketBuffer packet;
    PacketView view;
    if (!DecapIngress(frame, &packet, &view)) {
      continue;
    }
    packets.push_back(std::move(packet));
    views.push_back(view);
  }
  if (views.empty()) {
    return;
  }
  // One filter entry for the whole burst; per-packet decisions come back in
  // order, and delivery replays them in order — byte-identical outcomes to
  // the per-frame path.
  std::vector<FilterDecision> decisions(views.size());
  ingress_batch_filter_(views, FilterDirection::kIngress, decisions);
  for (size_t i = 0; i < views.size(); ++i) {
    if (!ApplyDecision(decisions[i], /*ttl_override=*/nullptr)) {
      continue;
    }
    Deliver(views[i]);
  }
}

}  // namespace para::net
