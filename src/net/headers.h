// Wire headers for the lite protocol suite: Ethernet-style framing, an
// IPv4-like network layer, and a UDP-like transport. Encodings are explicit
// byte serialization (no struct punning), big-endian on the wire.
#ifndef PARAMECIUM_SRC_NET_HEADERS_H_
#define PARAMECIUM_SRC_NET_HEADERS_H_

#include <cstdint>
#include <span>

#include "src/base/status.h"
#include "src/net/pktbuf.h"

namespace para::net {

using MacAddr = uint64_t;  // 48 significant bits
using IpAddr = uint32_t;
using Port = uint16_t;

inline constexpr MacAddr kMacBroadcast = 0xFFFF'FFFF'FFFFull;

// --- Ethernet-style framing -------------------------------------------------

inline constexpr uint16_t kEtherTypeIpLite = 0x0800;
inline constexpr uint16_t kEtherTypeRaw = 0xFFFF;

struct EthHeader {
  MacAddr dst = 0;
  MacAddr src = 0;
  uint16_t ether_type = kEtherTypeRaw;

  static constexpr size_t kWireSize = 6 + 6 + 2;
  static constexpr size_t kFcsSize = 4;  // CRC-32 trailer
};

// Prepends the header and appends a CRC-32 frame check sequence.
void EthEncap(PacketBuffer& packet, const EthHeader& header);

// Verifies the FCS and parses the header; on success narrows `frame` to the
// bytes between header and FCS. kInvalidArgument on malformed frames,
// kFailedPrecondition on FCS mismatch.
Result<EthHeader> EthDecap(std::span<const uint8_t>& frame);

// --- IPv4-lite ---------------------------------------------------------------

inline constexpr uint8_t kIpProtoUdpLite = 17;
inline constexpr uint8_t kIpProtoRaw = 255;

struct IpHeader {
  uint8_t ttl = 64;
  uint8_t proto = kIpProtoRaw;
  IpAddr src = 0;
  IpAddr dst = 0;
  uint16_t total_length = 0;  // header + payload; filled by encap

  static constexpr size_t kWireSize = 1 /*ver*/ + 1 /*ttl*/ + 1 /*proto*/ + 1 /*rsvd*/ +
                                      2 /*len*/ + 2 /*cksum*/ + 4 /*src*/ + 4 /*dst*/;
};

void IpEncap(PacketBuffer& packet, IpHeader header);
// Checks version, checksum, total_length == packet.size() and TTL; on
// success narrows `packet` past the header.
Result<IpHeader> IpDecap(std::span<const uint8_t>& packet);

// RFC 1071 Internet checksum: the ones'-complement of the ones'-complement
// sum of the big-endian 16-bit words of `data`, an odd last byte padded with
// zero. The IP-lite header and the UDP-lite datagram carry it, and a span
// holding a correct checksum sums to 0. Portable C++ that adds host-order
// 32-bit words and swaps the folded sum (RFC 1071 §2(B)); the result is
// bit-identical to the classic two-bytes-at-a-time loop at every length a
// 16-bit length field allows.
uint16_t InternetChecksum(std::span<const uint8_t> data);

// --- UDP-lite ----------------------------------------------------------------

struct UdpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  uint16_t length = 0;  // header + payload; filled by encap

  static constexpr size_t kWireSize = 2 + 2 + 2 + 2 /*cksum*/;
};

void UdpEncap(PacketBuffer& packet, UdpHeader header);
// Checks checksum and length == datagram.size(); on success narrows
// `datagram` to the payload.
Result<UdpHeader> UdpDecap(std::span<const uint8_t>& datagram);

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_HEADERS_H_
