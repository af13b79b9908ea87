#include "src/net/headers.h"

#include <bit>
#include <cstring>

#include "src/base/crc32.h"

namespace para::net {

namespace {

void PutBE16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

void PutBE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

void PutMac(uint8_t* p, MacAddr mac) {
  for (int i = 0; i < 6; ++i) {
    p[i] = static_cast<uint8_t>(mac >> (8 * (5 - i)));
  }
}

uint16_t GetBE16(const uint8_t* p) { return static_cast<uint16_t>((p[0] << 8) | p[1]); }

uint32_t GetBE32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) | p[3];
}

MacAddr GetMac(const uint8_t* p) {
  MacAddr mac = 0;
  for (int i = 0; i < 6; ++i) {
    mac = (mac << 8) | p[i];
  }
  return mac;
}

}  // namespace

void EthEncap(PacketBuffer& packet, const EthHeader& header) {
  auto hdr = packet.Prepend(EthHeader::kWireSize);
  PutMac(hdr.data(), header.dst);
  PutMac(hdr.data() + 6, header.src);
  PutBE16(hdr.data() + 12, header.ether_type);
  // FCS over header+payload, appended as a 4-byte trailer.
  uint32_t fcs = Crc32(packet.data());
  uint8_t trailer[EthHeader::kFcsSize];
  PutBE32(trailer, fcs);
  packet.Append(trailer);
}

Result<EthHeader> EthDecap(std::span<const uint8_t>& frame) {
  if (frame.size() < EthHeader::kWireSize + EthHeader::kFcsSize) {
    return Status(ErrorCode::kInvalidArgument, "frame too short");
  }
  const size_t covered = frame.size() - EthHeader::kFcsSize;
  if (GetBE32(frame.data() + covered) != Crc32(frame.first(covered))) {
    return Status(ErrorCode::kFailedPrecondition, "FCS mismatch");
  }
  EthHeader header;
  header.dst = GetMac(frame.data());
  header.src = GetMac(frame.data() + 6);
  header.ether_type = GetBE16(frame.data() + 12);
  frame = frame.subspan(EthHeader::kWireSize, covered - EthHeader::kWireSize);
  return header;
}

uint16_t InternetChecksum(std::span<const uint8_t> data) {
  // RFC 1071 §2(B): the ones'-complement sum does not depend on byte order,
  // so sum host-order words and swap the folded sum into network order. The
  // 64-bit accumulator cannot carry out before 2^32 words.
  const uint8_t* p = data.data();
  size_t len = data.size();
  uint64_t sum = 0;
  for (; len >= 4; p += 4, len -= 4) {
    uint32_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    sum += word;
  }
  if (len >= 2) {
    uint16_t half = 0;
    std::memcpy(&half, p, sizeof(half));
    sum += half;
    p += 2;
    len -= 2;
  }
  if (len == 1) {
    // An odd last byte is the high byte of a zero-padded wire word.
    sum += std::endian::native == std::endian::little ? uint32_t{*p} : uint32_t{*p} << 8;
  }
  // Fold to 16 bits, adding each carry back in.
  sum = (sum & 0xFFFF'FFFF) + (sum >> 32);
  sum = (sum & 0xFFFF'FFFF) + (sum >> 32);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  auto folded = static_cast<uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<uint16_t>((folded >> 8) | (folded << 8));
  }
  return static_cast<uint16_t>(~folded);
}

void IpEncap(PacketBuffer& packet, IpHeader header) {
  uint16_t total = static_cast<uint16_t>(packet.size() + IpHeader::kWireSize);
  auto hdr = packet.Prepend(IpHeader::kWireSize);
  hdr[0] = 4;  // version
  hdr[1] = header.ttl;
  hdr[2] = header.proto;
  hdr[3] = 0;  // reserved
  PutBE16(hdr.data() + 4, total);
  PutBE16(hdr.data() + 6, 0);  // checksum placeholder
  PutBE32(hdr.data() + 8, header.src);
  PutBE32(hdr.data() + 12, header.dst);
  uint16_t checksum = InternetChecksum(hdr);
  PutBE16(hdr.data() + 6, checksum);
}

Result<IpHeader> IpDecap(std::span<const uint8_t>& packet) {
  if (packet.size() < IpHeader::kWireSize) {
    return Status(ErrorCode::kInvalidArgument, "ip packet too short");
  }
  const uint8_t* data = packet.data();
  if (data[0] != 4) {
    return Status(ErrorCode::kInvalidArgument, "bad ip version");
  }
  if (InternetChecksum(packet.first(IpHeader::kWireSize)) != 0) {
    return Status(ErrorCode::kFailedPrecondition, "ip checksum mismatch");
  }
  IpHeader header;
  header.ttl = data[1];
  header.proto = data[2];
  header.total_length = GetBE16(data + 4);
  header.src = GetBE32(data + 8);
  header.dst = GetBE32(data + 12);
  if (header.total_length != packet.size()) {
    return Status(ErrorCode::kInvalidArgument, "ip length mismatch");
  }
  if (header.ttl == 0) {
    return Status(ErrorCode::kFailedPrecondition, "ttl expired");
  }
  packet = packet.subspan(IpHeader::kWireSize);
  return header;
}

void UdpEncap(PacketBuffer& packet, UdpHeader header) {
  uint16_t length = static_cast<uint16_t>(packet.size() + UdpHeader::kWireSize);
  auto hdr = packet.Prepend(UdpHeader::kWireSize);
  PutBE16(hdr.data(), header.src_port);
  PutBE16(hdr.data() + 2, header.dst_port);
  PutBE16(hdr.data() + 4, length);
  PutBE16(hdr.data() + 6, 0);
  uint16_t checksum = InternetChecksum(packet.data());
  PutBE16(hdr.data() + 6, checksum);
}

Result<UdpHeader> UdpDecap(std::span<const uint8_t>& datagram) {
  if (datagram.size() < UdpHeader::kWireSize) {
    return Status(ErrorCode::kInvalidArgument, "udp datagram too short");
  }
  if (InternetChecksum(datagram) != 0) {
    return Status(ErrorCode::kFailedPrecondition, "udp checksum mismatch");
  }
  UdpHeader header;
  header.src_port = GetBE16(datagram.data());
  header.dst_port = GetBE16(datagram.data() + 2);
  header.length = GetBE16(datagram.data() + 4);
  if (header.length != datagram.size()) {
    return Status(ErrorCode::kInvalidArgument, "udp length mismatch");
  }
  datagram = datagram.subspan(UdpHeader::kWireSize);
  return header;
}

}  // namespace para::net
