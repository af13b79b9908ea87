// Protocol suite tests: packet buffers, wire headers, and the UDP/IP-lite
// stack over an in-memory frame pipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"

namespace para::net {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string AsString(std::span<const uint8_t> data) {
  return std::string(data.begin(), data.end());
}

TEST(PacketBufferTest, AppendFillsTail) {
  PacketBuffer buf(16, 128);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.headroom(), 16u);
  buf.Append(Bytes("pay"));
  buf.Append(Bytes("load"));
  EXPECT_EQ(buf.size(), 7u);
  EXPECT_EQ(AsString(buf.data()), "payload");
  EXPECT_EQ(buf.headroom(), 16u);
}

TEST(PacketBufferTest, PrependUsesHeadroom) {
  PacketBuffer buf(8, 64);
  buf.Append(Bytes("body"));
  auto hdr = buf.Prepend(4);
  std::memcpy(hdr.data(), "HEAD", 4);
  EXPECT_EQ(AsString(buf.data()), "HEADbody");
  EXPECT_EQ(buf.headroom(), 4u);
}

TEST(EthTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("ether payload"));
  EthEncap(packet, EthHeader{0x0A0B0C0D0E0Full, 0x010203040506ull, kEtherTypeIpLite});
  std::span<const uint8_t> frame = packet.data();
  auto header = EthDecap(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->dst, 0x0A0B0C0D0E0Full);
  EXPECT_EQ(header->src, 0x010203040506ull);
  EXPECT_EQ(header->ether_type, kEtherTypeIpLite);
  EXPECT_EQ(AsString(frame), "ether payload");
}

TEST(EthTest, CorruptFcsRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("data"));
  EthEncap(packet, EthHeader{1, 2, kEtherTypeIpLite});
  packet.data()[15] ^= 0x01;
  std::span<const uint8_t> frame = packet.data();
  EXPECT_FALSE(EthDecap(frame).ok());
}

TEST(EthTest, ShortFrameRejected) {
  const std::string tiny = "tiny";
  std::span<const uint8_t> frame = Bytes(tiny);
  EXPECT_FALSE(EthDecap(frame).ok());
}

TEST(IpTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("ip payload"));
  IpEncap(packet, IpHeader{32, kIpProtoUdpLite, 0x0A000001, 0x0A000002, 0});
  std::span<const uint8_t> bytes = packet.data();
  auto header = IpDecap(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->ttl, 32);
  EXPECT_EQ(header->proto, kIpProtoUdpLite);
  EXPECT_EQ(header->src, 0x0A000001u);
  EXPECT_EQ(header->dst, 0x0A000002u);
  EXPECT_EQ(AsString(bytes), "ip payload");
}

TEST(IpTest, ChecksumDetectsCorruption) {
  PacketBuffer packet;
  packet.Append(Bytes("x"));
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 1, 2, 0});
  packet.data()[8] ^= 0x10;  // flip a src-address bit
  std::span<const uint8_t> bytes = packet.data();
  EXPECT_FALSE(IpDecap(bytes).ok());
}

TEST(IpTest, LengthMismatchRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 1, 2, 0});
  std::span<const uint8_t> bytes = packet.data();
  bytes = bytes.first(bytes.size() - 2);  // truncate in flight
  EXPECT_FALSE(IpDecap(bytes).ok());
}

TEST(IpTest, ZeroTtlRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("x"));
  IpEncap(packet, IpHeader{0, kIpProtoUdpLite, 1, 2, 0});
  std::span<const uint8_t> bytes = packet.data();
  EXPECT_FALSE(IpDecap(bytes).ok());
}

TEST(UdpTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("datagram"));
  UdpEncap(packet, UdpHeader{1234, 80, 0});
  std::span<const uint8_t> bytes = packet.data();
  auto header = UdpDecap(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->src_port, 1234);
  EXPECT_EQ(header->dst_port, 80);
  EXPECT_EQ(AsString(bytes), "datagram");
}

TEST(UdpTest, ChecksumCoversPayload) {
  PacketBuffer packet;
  packet.Append(Bytes("datagram"));
  UdpEncap(packet, UdpHeader{1234, 80, 0});
  packet.data()[UdpHeader::kWireSize + 2] ^= 0x01;  // corrupt payload byte
  std::span<const uint8_t> bytes = packet.data();
  EXPECT_FALSE(UdpDecap(bytes).ok());
}

TEST(ChecksumTest, Rfc1071Properties) {
  std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  uint16_t sum = InternetChecksum(data);
  // Appending the checksum makes the total verify to zero.
  data.push_back(static_cast<uint8_t>(sum >> 8));
  data.push_back(static_cast<uint8_t>(sum));
  EXPECT_EQ(InternetChecksum(data), 0);
}

TEST(ChecksumTest, OddLengthHandled) {
  std::vector<uint8_t> data = {0xAB};
  // Must not crash and must be stable.
  EXPECT_EQ(InternetChecksum(data), InternetChecksum(data));
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  // RFC 1071: an odd trailing byte is summed as the high half of a word
  // whose low half is zero — so an explicit zero pad must not change it.
  std::vector<uint8_t> odd = {0x12, 0x34, 0x56};
  std::vector<uint8_t> padded = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(InternetChecksum(odd), InternetChecksum(padded));
  // Exact value: words 0x1234 + 0x5600 = 0x6834, complemented.
  EXPECT_EQ(InternetChecksum(odd), static_cast<uint16_t>(~0x6834));
}

TEST(ChecksumTest, CarryFoldsBackIntoLowBits) {
  // 0xFFFF + 0x0001 = 0x10000: the carry must fold end-around to 0x0001.
  std::vector<uint8_t> carry = {0xFF, 0xFF, 0x00, 0x01};
  EXPECT_EQ(InternetChecksum(carry), static_cast<uint16_t>(~0x0001));
  // Odd length with carry: 0xFFFF + 0xFF00 = 0x1FEFF -> 0xFF00.
  std::vector<uint8_t> odd_carry = {0xFF, 0xFF, 0xFF};
  EXPECT_EQ(InternetChecksum(odd_carry), static_cast<uint16_t>(~0xFF00));
}

TEST(ChecksumTest, AllOnesFoldsToAllOnesSum) {
  // Every word 0xFFFF: the ones-complement sum saturates at 0xFFFF no
  // matter how many carries fold, so the checksum is 0.
  for (size_t words : {1u, 2u, 32u, 512u}) {
    std::vector<uint8_t> data(words * 2, 0xFF);
    EXPECT_EQ(InternetChecksum(data), 0) << words;
  }
}

// The classic two-bytes-at-a-time RFC 1071 loop: the oracle the word-wide
// InternetChecksum must match bit for bit.
uint16_t BytewiseInternetChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

TEST(InternetChecksumTest, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  Random rng(0x1071);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 256; ++len) {
    lengths.push_back(len);
  }
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(rng.NextBelow(65536));
  }
  lengths.push_back(65535);
  for (size_t len : lengths) {
    // Random bytes, then all-0xFF bytes: the most carries a sum can take.
    for (bool all_ones : {false, true}) {
      std::vector<uint8_t> bytes(len, 0xFF);
      if (!all_ones) {
        for (uint8_t& b : bytes) {
          b = static_cast<uint8_t>(rng.Next());
        }
      }
      const uint16_t oracle = BytewiseInternetChecksum(bytes);
      // Each copy ends its own heap block, so a load past the end leaves the
      // allocation; the offset varies the alignment.
      for (size_t offset = 0; offset < 16; ++offset) {
        std::vector<uint8_t> block(offset + len);
        std::copy(bytes.begin(), bytes.end(), block.begin() + static_cast<ptrdiff_t>(offset));
        const auto data = std::span<const uint8_t>(block).subspan(offset);
        ASSERT_EQ(InternetChecksum(data), oracle)
            << "len " << len << " offset " << offset << " all_ones " << all_ones;
      }
    }
  }
}

TEST(PacketBufferDeathTest, PrependPastHeadroomPanics) {
  PacketBuffer buf;  // kDefaultHeadroom of reserved header space
  buf.Append(Bytes("payload"));
  // Exhausting the headroom exactly is legal...
  auto hdr = buf.Prepend(PacketBuffer::kDefaultHeadroom);
  EXPECT_EQ(hdr.size(), PacketBuffer::kDefaultHeadroom);
  EXPECT_EQ(buf.headroom(), 0u);
  // ...one byte more is a programming error and must trip the guard.
  EXPECT_DEATH(buf.Prepend(1), "check failed");
}

TEST(PacketBufferDeathTest, OversizedPrependPanicsUpFront) {
  PacketBuffer buf;
  EXPECT_DEATH(buf.Prepend(PacketBuffer::kDefaultHeadroom + 1), "check failed");
}

// What a handler saw, copied out of the Datagram, whose payload is a view
// valid only for the handler call.
struct Received {
  IpAddr src = 0;
  Port src_port = 0;
  std::vector<uint8_t> payload;
};

Received Copy(const Datagram& d) {
  return Received{d.src, d.src_port, {d.payload.begin(), d.payload.end()}};
}

// Two stacks wired back-to-back through in-memory "wires".
class StackPairTest : public ::testing::Test {
 protected:
  StackPairTest()
      : alice_({0xAAAA, 0x0A000001},
               [this](std::span<const uint8_t> f) {
                 to_bob_.emplace_back(f.begin(), f.end());
                 return OkStatus();
               }),
        bob_({0xBBBB, 0x0A000002}, [this](std::span<const uint8_t> f) {
          to_alice_.emplace_back(f.begin(), f.end());
          return OkStatus();
        }) {
    alice_.AddNeighbor(0x0A000002, 0xBBBB);
    bob_.AddNeighbor(0x0A000001, 0xAAAA);
  }

  void Pump() {
    while (!to_bob_.empty() || !to_alice_.empty()) {
      if (!to_bob_.empty()) {
        bob_.OnFrame(to_bob_.front());
        to_bob_.pop_front();
      }
      if (!to_alice_.empty()) {
        alice_.OnFrame(to_alice_.front());
        to_alice_.pop_front();
      }
    }
  }

  std::deque<std::vector<uint8_t>> to_bob_;
  std::deque<std::vector<uint8_t>> to_alice_;
  ProtocolStack alice_;
  ProtocolStack bob_;
};

TEST_F(StackPairTest, DatagramDelivery) {
  std::vector<Received> received;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) { received.push_back(Copy(d)); }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("hello bob")).ok());
  Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(AsString(received[0].payload), "hello bob");
  EXPECT_EQ(received[0].src, 0x0A000001u);
  EXPECT_EQ(received[0].src_port, 1234);
  EXPECT_EQ(bob_.stats().datagrams_in, 1u);
  EXPECT_EQ(alice_.stats().datagrams_out, 1u);
}

TEST_F(StackPairTest, RequestResponse) {
  ASSERT_TRUE(bob_.BindPort(7, [&](const Datagram& d) {
    (void)bob_.SendDatagram(d.src, 7, d.src_port, d.payload);  // echo
  }).ok());
  std::vector<Received> replies;
  ASSERT_TRUE(alice_.BindPort(555, [&](const Datagram& d) { replies.push_back(Copy(d)); }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 555, 7, Bytes("ping")).ok());
  Pump();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(AsString(replies[0].payload), "ping");
}

TEST_F(StackPairTest, HandlerMayUnbindItsOwnPort) {
  // A one-shot socket: the handler unbinds its own port, then touches its
  // captures, so the closure must outlive the unbind. The next datagram
  // finds no socket.
  int delivered = 0;
  ASSERT_TRUE(bob_.BindPort(80, [this, &delivered](const Datagram&) {
    EXPECT_TRUE(bob_.UnbindPort(80).ok());
    ++delivered;
  }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("one")).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("two")).ok());
  Pump();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bob_.stats().datagrams_in, 1u);
  EXPECT_EQ(bob_.stats().drops_no_socket, 1u);
}

TEST_F(StackPairTest, PayloadIsAViewOfTheFrame) {
  // The handler reads the payload where it lies in the frame OnFrame got:
  // right behind the 38 B of Eth, IP and UDP headers, in place.
  const uint8_t* seen = nullptr;
  size_t seen_size = 0;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) {
    seen = d.payload.data();
    seen_size = d.payload.size();
  }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("in place")).ok());
  ASSERT_EQ(to_bob_.size(), 1u);
  const std::vector<uint8_t> frame = std::move(to_bob_.front());
  to_bob_.pop_front();
  bob_.OnFrame(frame);
  constexpr size_t kHeaders = EthHeader::kWireSize + IpHeader::kWireSize + UdpHeader::kWireSize;
  EXPECT_EQ(seen, frame.data() + kHeaders);
  EXPECT_EQ(seen_size, 8u);
}

TEST_F(StackPairTest, HandlerMayRehashTheSocketTableAndUnbindItsOwnPort) {
  // Port 80's handler binds enough ports to grow the socket table several
  // times over, then unbinds its own port and touches its captures after
  // that: its closure must survive both. The new ports then receive.
  constexpr Port kFirst = 2000;
  constexpr size_t kPorts = 1024;
  std::vector<int> hits(kPorts, 0);
  const std::string tag = "one-shot";
  std::string seen_tag;
  ASSERT_TRUE(bob_.BindPort(80, [this, &hits, &seen_tag, tag](const Datagram&) {
    for (size_t i = 0; i < kPorts; ++i) {
      EXPECT_TRUE(bob_.BindPort(static_cast<Port>(kFirst + i),
                                [&hits, i](const Datagram&) { ++hits[i]; }).ok());
    }
    EXPECT_TRUE(bob_.UnbindPort(80).ok());
    seen_tag = tag;
  }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("bind")).ok());
  Pump();
  EXPECT_EQ(seen_tag, "one-shot");
  for (size_t i = 0; i < kPorts; i += 7) {
    ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, static_cast<Port>(kFirst + i),
                                    Bytes("x")).ok());
  }
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("late")).ok());
  Pump();
  for (size_t i = 0; i < kPorts; ++i) {
    EXPECT_EQ(hits[i], i % 7 == 0 ? 1 : 0) << "port " << kFirst + i;
  }
  EXPECT_EQ(bob_.stats().drops_no_socket, 1u);
}

TEST(StackLoopbackTest, NestedDeliveryLeavesTheOuterPayloadIntact) {
  // Port 80's handler sends to port 81 over a loopback sender, so port 81's
  // delivery runs inside it; afterwards port 80's payload view still reads
  // its own bytes.
  ProtocolStack stack({0xAAAA, 0x0A000001}, [&stack](std::span<const uint8_t> f) {
    stack.OnFrame(f);
    return OkStatus();
  });
  stack.AddNeighbor(0x0A000001, 0xAAAA);
  std::string outer_before;
  std::string outer_after;
  std::string inner;
  ASSERT_TRUE(stack.BindPort(80, [&](const Datagram& d) {
    outer_before = AsString(d.payload);
    EXPECT_TRUE(stack.SendDatagram(0x0A000001, 80, 81, Bytes("the inner datagram")).ok());
    outer_after = AsString(d.payload);
  }).ok());
  ASSERT_TRUE(stack.BindPort(81, [&](const Datagram& d) { inner = AsString(d.payload); }).ok());
  ASSERT_TRUE(stack.SendDatagram(0x0A000001, 1234, 80, Bytes("outer")).ok());
  EXPECT_EQ(inner, "the inner datagram");
  EXPECT_EQ(outer_before, "outer");
  EXPECT_EQ(outer_after, "outer");
}

TEST(StackLoopbackTest, NestedHandlerMayUnbindTheOuterOne) {
  // A loopback sender re-enters delivery: port 80's handler sends to port
  // 81, whose handler unbinds both ports while port 80's handler is still
  // running, so both closures must live until the outer delivery returns.
  ProtocolStack stack({0xAAAA, 0x0A000001}, [&stack](std::span<const uint8_t> f) {
    stack.OnFrame(f);
    return OkStatus();
  });
  stack.AddNeighbor(0x0A000001, 0xAAAA);
  int outer = 0;
  int inner = 0;
  ASSERT_TRUE(stack.BindPort(80, [&stack, &outer](const Datagram&) {
    EXPECT_TRUE(stack.SendDatagram(0x0A000001, 80, 81, {}).ok());
    ++outer;
  }).ok());
  ASSERT_TRUE(stack.BindPort(81, [&stack, &inner](const Datagram&) {
    EXPECT_TRUE(stack.UnbindPort(80).ok());
    EXPECT_TRUE(stack.UnbindPort(81).ok());
    ++inner;
  }).ok());
  ASSERT_TRUE(stack.SendDatagram(0x0A000001, 1234, 80, {}).ok());
  ASSERT_TRUE(stack.SendDatagram(0x0A000001, 1234, 80, {}).ok());
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 1);
  EXPECT_EQ(stack.stats().drops_no_socket, 1u);
}

TEST_F(StackPairTest, NoRouteFails) {
  auto status = alice_.SendDatagram(0x0A0000FF, 1, 2, Bytes("x"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST_F(StackPairTest, UnboundPortDropped) {
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 9999, Bytes("x")).ok());
  Pump();
  EXPECT_EQ(bob_.stats().drops_no_socket, 1u);
}

TEST_F(StackPairTest, EmptyDatagramDelivered) {
  std::vector<Received> received;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) { received.push_back(Copy(d)); }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, {}).ok());
  Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_TRUE(received[0].payload.empty());
}

TEST_F(StackPairTest, LargeDatagramGetsAFrameOfItsOwnSize) {
  std::vector<Received> received;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) { received.push_back(Copy(d)); }).ok());
  std::vector<uint8_t> payload(2000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, payload).ok());
  ASSERT_EQ(to_bob_.size(), 1u);
  ASSERT_EQ(to_bob_.front().size(), 2042u);  // 14 Eth + 16 IP + 8 UDP + 4 FCS
  std::span<const uint8_t> bytes = to_bob_.front();
  ASSERT_TRUE(EthDecap(bytes).ok());
  ASSERT_TRUE(IpDecap(bytes).ok());
  ASSERT_TRUE(UdpDecap(bytes).ok());
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), payload);
  Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload, payload);
}

TEST_F(StackPairTest, PayloadPastTheIpLengthFieldIsOutOfRange) {
  std::vector<Received> received;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) { received.push_back(Copy(d)); }).ok());
  // 65511 bytes + 24 of IP and UDP header is the largest IP total_length.
  const std::vector<uint8_t> largest(65511, 0xA5);
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 80, largest).ok());
  const std::vector<uint8_t> too_large(65512, 0xA5);
  EXPECT_EQ(alice_.SendDatagram(0x0A000002, 1, 80, too_large).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(alice_.stats().datagrams_out, 1u);
  Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload, largest);
}

TEST_F(StackPairTest, WrongMacDropped) {
  // A frame addressed to another MAC must be ignored.
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  UdpEncap(packet, UdpHeader{1, 2, 0});
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, 0x0A000002, 0});
  EthEncap(packet, EthHeader{0xDDDD, 0xAAAA, kEtherTypeIpLite});
  bob_.OnFrame(packet.data());
  EXPECT_EQ(bob_.stats().drops_not_for_us, 1u);
}

TEST_F(StackPairTest, WrongIpDropped) {
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  UdpEncap(packet, UdpHeader{1, 2, 0});
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, 0x0A0000EE, 0});
  EthEncap(packet, EthHeader{0xBBBB, 0xAAAA, kEtherTypeIpLite});
  bob_.OnFrame(packet.data());
  EXPECT_EQ(bob_.stats().drops_not_for_us, 1u);
}

TEST_F(StackPairTest, GarbageFrameDropped) {
  std::vector<uint8_t> garbage(64, 0x5A);
  bob_.OnFrame(garbage);
  EXPECT_EQ(bob_.stats().drops_bad_frame, 1u);
}

TEST_F(StackPairTest, PortManagement) {
  ASSERT_TRUE(bob_.BindPort(80, [](const Datagram&) {}).ok());
  EXPECT_FALSE(bob_.BindPort(80, [](const Datagram&) {}).ok());
  EXPECT_TRUE(bob_.UnbindPort(80).ok());
  EXPECT_FALSE(bob_.UnbindPort(80).ok());
  EXPECT_TRUE(bob_.BindPort(80, [](const Datagram&) {}).ok());
}

TEST_F(StackPairTest, ManyDatagramsBothDirections) {
  int bob_got = 0, alice_got = 0;
  ASSERT_TRUE(bob_.BindPort(1, [&](const Datagram&) { ++bob_got; }).ok());
  ASSERT_TRUE(alice_.BindPort(1, [&](const Datagram&) { ++alice_got; }).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 1, Bytes("a" + std::to_string(i))).ok());
    ASSERT_TRUE(bob_.SendDatagram(0x0A000001, 1, 1, Bytes("b" + std::to_string(i))).ok());
  }
  Pump();
  EXPECT_EQ(bob_got, 50);
  EXPECT_EQ(alice_got, 50);
}

}  // namespace
}  // namespace para::net
