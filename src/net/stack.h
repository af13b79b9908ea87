// The UDP/IP-lite protocol stack. Deliberately transport-agnostic about
// where it runs: it talks to its network driver through a FrameIo function
// pair, so the same stack object can be placed in the kernel protection
// domain (direct calls into the driver) or in a user domain (proxy calls) —
// the configurability experiment E9 and the paper's §1 motivating example.
//
// Transmit builds each frame once, in reusable TX storage: the caller's (a
// StackComponent's TX page, which its driver reads the frame from) or a
// frame-sized buffer the stack allocates once. The payload goes behind
// kHeaderBytes of headroom, unless the caller already wrote it there
// (TxPayload), and the headers and FCS are written around it. The storage
// is held from SendDatagram's entry until its sender returns, so a send
// nested in that one (a loopback sender re-entering from a handler, or an
// egress hook) builds in a buffer of its own and leaves the outer frame —
// which the nested send's handlers may still be reading — intact.
#ifndef PARAMECIUM_SRC_NET_STACK_H_
#define PARAMECIUM_SRC_NET_STACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry.h"
#include "src/net/filter_hook.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"

namespace para::net {

// Driver-facing frame output: sends raw bytes on the wire.
using FrameSender = std::function<Status(std::span<const uint8_t>)>;

// Datagram delivery to a bound socket. `payload` is a view of the received
// frame, valid only for the handler call: a handler that keeps the bytes
// copies them. Not copyable, so a Datagram cannot be stored by accident.
struct Datagram {
  Datagram(IpAddr src, Port src_port, std::span<const uint8_t> payload)
      : src(src), src_port(src_port), payload(payload) {}
  Datagram(const Datagram&) = delete;
  Datagram& operator=(const Datagram&) = delete;

  IpAddr src;
  Port src_port;
  std::span<const uint8_t> payload;
};
using DatagramHandler = std::function<void(const Datagram&)>;

struct StackConfig {
  MacAddr mac = 0;
  IpAddr ip = 0;
};

struct StackStats {
  uint64_t frames_out = 0;
  uint64_t frames_in = 0;
  uint64_t datagrams_out = 0;
  uint64_t datagrams_in = 0;
  uint64_t drops_bad_frame = 0;
  uint64_t drops_not_for_us = 0;
  uint64_t drops_no_socket = 0;
  // Per-verdict filter counters, both directions combined; the packets the
  // filter dropped are filter_drop + filter_reject. (Counting is a
  // rule *procedure* now, tallied by the filter itself — the retired
  // per-stack filter_count moved to FilterStats::proc_invocations.)
  uint64_t filter_pass = 0;
  uint64_t filter_drop = 0;
  uint64_t filter_reject = 0;
  uint64_t filter_ttl_rewrites = 0;  // egress TTL overrides applied (normalize proc)
};

// One numbered stats slot: its name (also its `net.stack.<host>.<name>`
// registry metric) and the StackStats counter it reads. This table, in
// slot order, is the single source of truth for StackType slot 3
// (`stats(index)`), the registry aliases ProtocolStack registers, and the
// slot-map test. Slots 7 and 11 are reserved (the retired drops_filtered,
// which only repeated filter_drop + filter_reject, and the retired per-stack
// count-verdict tally): no name, no field, always reads 0.
struct StackStatsSlot {
  std::string_view name;
  uint64_t StackStats::*field;
};
inline constexpr StackStatsSlot kStackStatsSlots[] = {
    {"frames_out", &StackStats::frames_out},
    {"frames_in", &StackStats::frames_in},
    {"datagrams_out", &StackStats::datagrams_out},
    {"datagrams_in", &StackStats::datagrams_in},
    {"drops_bad_frame", &StackStats::drops_bad_frame},
    {"drops_not_for_us", &StackStats::drops_not_for_us},
    {"drops_no_socket", &StackStats::drops_no_socket},
    {"", nullptr},  // 7: reserved
    {"filter_pass", &StackStats::filter_pass},
    {"filter_drop", &StackStats::filter_drop},
    {"filter_reject", &StackStats::filter_reject},
    {"", nullptr},  // 11: reserved
    {"filter_ttl_rewrites", &StackStats::filter_ttl_rewrites},
};

class ProtocolStack {
 public:
  // The Eth, IP and UDP headers in front of a frame's payload.
  static constexpr size_t kHeaderBytes =
      EthHeader::kWireSize + IpHeader::kWireSize + UdpHeader::kWireSize;

  // Frames are built at the start of `tx_storage`, which must outlive the
  // stack; when it is empty, the stack allocates PacketBuffer's default
  // capacity. A frame larger than the storage is built in a buffer of its
  // own.
  ProtocolStack(StackConfig config, FrameSender sender, std::span<uint8_t> tx_storage = {});

  // Static neighbor table (the simulation has no ARP).
  void AddNeighbor(IpAddr ip, MacAddr mac);

  // Binds a datagram handler to a local port.
  Status BindPort(Port port, DatagramHandler handler);
  // A handler may unbind any port, its own included: the port stops
  // receiving at once, and the handler is destroyed after the outermost
  // delivery in progress returns.
  Status UnbindPort(Port port);

  // Sends a UDP-lite datagram. Blocked by the egress filter =>
  // kPermissionDenied; a payload over kMaxPayload (65511 B, what the 16-bit
  // IP length field can carry) => kOutOfRange. The frame is the payload plus
  // 42 B of headers and FCS; one too large for the device fails at the sender.
  static constexpr size_t kMaxPayload = 0xFFFF - IpHeader::kWireSize - UdpHeader::kWireSize;
  Status SendDatagram(IpAddr dst, Port src_port, Port dst_port,
                      std::span<const uint8_t> payload);

  // Where the next frame's `len`-byte payload goes in the TX storage. A
  // caller that writes the payload there and passes this span to
  // SendDatagram saves the payload copy. Shorter than `len` (empty) when the
  // frame would not fit the storage, or while a send holds it.
  std::span<uint8_t> TxPayload(size_t len);

  // Driver-facing input: a raw frame arrived on the wire. A burst of one.
  void OnFrame(std::span<const uint8_t> frame) { OnFrameBurst({&frame, 1}); }

  // Driver-facing input for a burst of frames (one RX-queue poll): the one
  // receive body. Frames are parsed where they lie — each surviving packet's
  // PacketView, and the Datagram its handler gets, aliases its frame, and
  // nothing is copied or allocated on the way — so the caller's frames must
  // not change during the call. Surviving packets are decided kIngressChunk
  // at a time in one ingress-hook call, and every verdict of a chunk is
  // decided before its first datagram is delivered (so a burst of up to
  // kIngressChunk frames is decided whole, whichever setter installed the
  // hook). Delivery follows frame order, and the counters end as if each
  // frame had come through OnFrame alone.
  static constexpr size_t kIngressChunk = 64;  // = filter::kMaxFilterBatch
  void OnFrameBurst(std::span<const std::span<const uint8_t>> frames);

  // The ingress hook point: one slot, consulted after UDP decap with the
  // zero-copy views above, so a dropped packet costs no allocation. Both
  // setters fill that slot (a per-packet hook is wrapped to the batch shape)
  // and whichever runs last owns it: no frame reaches a socket without
  // passing the installed hook. nullptr to either clears ingress filtering.
  void SetIngressFilter(FilterHook hook);
  void SetIngressBatchFilter(FilterBatchHook hook) { ingress_filter_ = std::move(hook); }
  // The egress hook runs before encapsulation; nullptr removes it.
  void SetEgressFilter(FilterHook hook) { egress_filter_ = std::move(hook); }

  const StackStats& stats() const { return stats_; }
  const StackConfig& config() const { return config_; }

 private:
  // Counts `decision` and returns true when the packet may proceed. A
  // non-null `ttl_override` receives the decision's TTL rewrite, if any
  // (egress only — ingress has no header left to rewrite).
  bool ApplyDecision(const FilterDecision& decision, uint8_t* ttl_override);
  // Eth/IP/UDP ingress decapsulation with the drop counters; on success
  // constructs *view from the header fields and a payload span aliasing
  // `frame` (`view` may point at unconstructed storage).
  bool DecapIngress(std::span<const uint8_t> frame, PacketView* view);
  // Hands a packet the filter passed to its socket's handler: one hash
  // probe, and a Datagram on the C++ stack whose payload aliases the
  // packet's, so delivery allocates nothing.
  void Deliver(const PacketView& view);
  // SendDatagram's body; `nested` when an outer send holds the TX storage.
  Status Encapsulate(IpAddr dst, Port src_port, Port dst_port, std::span<const uint8_t> payload,
                     bool nested);

  using SocketTable = std::unordered_map<Port, DatagramHandler>;

  StackConfig config_;
  FrameSender sender_;
  std::unique_ptr<uint8_t[]> tx_owned_;  // the TX storage, unless the caller's
  std::span<uint8_t> tx_storage_;
  bool tx_busy_ = false;  // a send holds tx_storage_
  std::map<IpAddr, MacAddr> neighbors_;
  // A handler lives in its table node, which neither a rehash (a handler
  // may bind ports) nor an unbind moves.
  SocketTable sockets_;
  // Handlers running (loopback sends nest them) and the sockets unbound
  // meanwhile, whose handlers may be among those running.
  uint32_t deliver_depth_ = 0;
  std::vector<SocketTable::node_type> unbound_;
  FilterBatchHook ingress_filter_;
  FilterHook egress_filter_;
  StackStats stats_;
  // Aliases onto stats_ — declared last so they unregister first. The names
  // are "net.stack.<host>.<field>" (per-instance, so two stacks in one test
  // process do not collide).
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_STACK_H_
