// Seeded fuzz of the stack's receive path. Valid frames are built with the
// *Encap functions and then truncated, bit-flipped, or given a lying IP
// total_length or UDP length (with both checksums and the FCS recomputed so
// the lie reaches the length checks); others are misaddressed or sent to an
// unbound port. The same frames go to two stacks with identical filters: one
// takes them one OnFrame at a time through a per-packet hook, the other in
// OnFrameBurst bursts of 1..130 frames (crossing the 64-packet ingress
// chunk) through a batch hook. Deliveries, StackStats and FilterStats must
// match; every unmutated frame must be delivered exactly when it is
// addressed to the stack, bound, and passed by NativeMatch; and no
// truncated, raw bit-flipped or length-lying frame may be delivered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/random.h"
#include "src/filter/compiler.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/net/stack.h"

namespace para::filter {
namespace {

constexpr net::MacAddr kStackMac = 0xB0B;
constexpr net::IpAddr kStackIp = 0x0A000901;  // 10.0.9.1: never a source below
constexpr size_t kIpOff = net::EthHeader::kWireSize;
constexpr size_t kUdpOff = kIpOff + net::IpHeader::kWireSize;
constexpr uint16_t kFirstBoundPort = 1000;
constexpr uint16_t kBoundPorts = 32;

// Pass/drop/reject rules over source prefixes and port ranges, plus one
// `proc count` rule. No payload predicates: the flow table caches a verdict
// per 5-tuple, and only tuple rules keep NativeMatch an exact oracle.
std::string RandomRules(para::Random& rng) {
  std::string text;
  const int rules = 2 + static_cast<int>(rng.NextBelow(5));
  const int counted = static_cast<int>(rng.NextBelow(rules));
  for (int i = 0; i < rules; ++i) {
    static constexpr const char* kVerdicts[] = {"pass", "drop", "reject"};
    text += kVerdicts[rng.NextBelow(3)];
    if (rng.NextBelow(2) == 0) {
      text += " from 10.0." + std::to_string(rng.NextBelow(4)) + ".0/" +
              std::to_string(rng.NextBelow(2) == 0 ? 24 : 16);
    }
    if (rng.NextBelow(2) == 0) {
      const uint64_t lo = kFirstBoundPort + rng.NextBelow(kBoundPorts);
      text += " dport " + std::to_string(lo) + "-" + std::to_string(lo + rng.NextBelow(12));
    }
    if (rng.NextBelow(3) == 0) {
      const uint64_t lo = 7000 + rng.NextBelow(16);
      text += " sport " + std::to_string(lo) + "-" + std::to_string(lo + rng.NextBelow(4));
    }
    if (i == counted) {
      text += " proc count";
    }
    text += "\n";
  }
  text += rng.NextBelow(2) == 0 ? "default pass\n" : "default drop\n";
  return text;
}

void PutBE16(std::vector<uint8_t>& frame, size_t off, uint16_t v) {
  frame[off] = static_cast<uint8_t>(v >> 8);
  frame[off + 1] = static_cast<uint8_t>(v);
}

// Recomputes whichever of the IP checksum, UDP checksum and FCS the frame
// still has room for, so an edit made before it passes the integrity checks
// and reaches the ones behind them.
void Reseal(std::vector<uint8_t>& frame) {
  if (frame.size() < net::EthHeader::kFcsSize) {
    return;
  }
  const size_t end = frame.size() - net::EthHeader::kFcsSize;
  const std::span<const uint8_t> bytes(frame);
  if (end >= kUdpOff) {
    PutBE16(frame, kIpOff + 6, 0);
    PutBE16(frame, kIpOff + 6, net::InternetChecksum(bytes.subspan(kIpOff, kUdpOff - kIpOff)));
  }
  if (end >= kUdpOff + net::UdpHeader::kWireSize) {
    PutBE16(frame, kUdpOff + 6, 0);
    PutBE16(frame, kUdpOff + 6, net::InternetChecksum(bytes.subspan(kUdpOff, end - kUdpOff)));
  }
  const uint32_t fcs = Crc32(bytes.first(end));
  PutBE16(frame, end, static_cast<uint16_t>(fcs >> 16));
  PutBE16(frame, end + 2, static_cast<uint16_t>(fcs));
}

// What the stack must do with a frame. A bit flip that every integrity
// check vouches for may legitimately yield a deliverable packet: kEither.
enum class Expect { kDelivered, kDropped, kEither };

struct FuzzFrame {
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> payload;
  Expect expect = Expect::kDropped;
};

FuzzFrame RandomFrame(para::Random& rng, const RuleSet& rules) {
  FuzzFrame out;
  net::PacketView view;
  view.src_ip = 0x0A000000u | static_cast<uint32_t>(rng.NextBelow(4) << 8) |
                static_cast<uint32_t>(1 + rng.NextBelow(8));
  view.dst_ip = rng.NextBelow(10) == 0 ? kStackIp + 1 : kStackIp;
  view.src_port = static_cast<uint16_t>(7000 + rng.NextBelow(16));
  view.dst_port = static_cast<uint16_t>(
      rng.NextBelow(10) == 0 ? 5000 : kFirstBoundPort + rng.NextBelow(kBoundPorts));
  view.proto = net::kIpProtoUdpLite;
  view.ttl = 64;
  const uint64_t mac_pick = rng.NextBelow(12);
  const net::MacAddr dst_mac =
      mac_pick == 0 ? net::MacAddr{0xDEAD} : mac_pick == 1 ? net::kMacBroadcast : kStackMac;
  out.payload.resize(rng.NextBelow(4) == 0 ? rng.NextBelow(600) : rng.NextBelow(48));
  for (uint8_t& byte : out.payload) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  view.payload = out.payload;

  net::PacketBuffer packet(64, 64 + out.payload.size() + net::EthHeader::kFcsSize);
  packet.Append(out.payload);
  net::UdpEncap(packet, net::UdpHeader{view.src_port, view.dst_port, 0});
  net::IpEncap(packet, net::IpHeader{view.ttl, view.proto, view.src_ip, view.dst_ip, 0});
  net::EthEncap(packet, net::EthHeader{dst_mac, 0xA11CE, net::kEtherTypeIpLite});
  const std::span<const uint8_t> built = packet.data();
  out.bytes.assign(built.begin(), built.end());

  std::vector<uint8_t>& f = out.bytes;
  switch (rng.NextBelow(12)) {
    case 0:  // truncated: the FCS fails, or re-sealed, the IP length does
    case 1:
      f.resize(rng.NextBelow(f.size()));
      if (rng.NextBelow(2) == 0) {
        Reseal(f);
      }
      break;
    case 2:  // 1-3 bit flips: the FCS catches them, unless re-sealed
    case 3:
      for (uint64_t flips = 1 + rng.NextBelow(3); flips > 0; --flips) {
        f[rng.NextBelow(f.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      if (rng.NextBelow(2) == 0) {
        Reseal(f);
        out.expect = Expect::kEither;
      }
      break;
    case 4: {  // IP total_length lies
      const auto actual = static_cast<uint16_t>(f.size() - kIpOff - net::EthHeader::kFcsSize);
      PutBE16(f, kIpOff + 4, static_cast<uint16_t>(actual + 1 + rng.NextBelow(0xFFFF)));
      Reseal(f);
      break;
    }
    case 5: {  // UDP length lies
      const auto actual = static_cast<uint16_t>(f.size() - kUdpOff - net::EthHeader::kFcsSize);
      PutBE16(f, kUdpOff + 4, static_cast<uint16_t>(actual + 1 + rng.NextBelow(0xFFFF)));
      Reseal(f);
      break;
    }
    default:  // unmutated
      if (dst_mac != 0xDEAD && view.dst_ip == kStackIp && view.dst_port != 5000 &&
          net::VerdictPasses(DecodeVerdict(NativeMatch(rules, view)).verdict)) {
        out.expect = Expect::kDelivered;
      }
      break;
  }
  return out;
}

struct Delivery {
  net::Port dst_port = 0;
  net::Port src_port = 0;
  std::vector<uint8_t> payload;
  bool operator==(const Delivery&) const = default;
};

// One stack with its own filter, recording every delivery in order.
struct Receiver {
  explicit Receiver(const RuleSet& rules)
      : stack(net::StackConfig{kStackMac, kStackIp},
              [](std::span<const uint8_t>) { return OkStatus(); }) {
    auto created = PacketFilter::Create(FilterConfig{});  // shards from the environment
    EXPECT_TRUE(created.ok());
    filter = std::move(*created);
    EXPECT_TRUE(filter->Load(rules).ok());
    for (uint16_t p = kFirstBoundPort; p < kFirstBoundPort + kBoundPorts; ++p) {
      auto record = [this, p](const net::Datagram& d) {
        delivered.push_back({p, d.src_port, {d.payload.begin(), d.payload.end()}});
      };
      EXPECT_TRUE(stack.BindPort(p, record).ok());
    }
  }
  Receiver(const Receiver&) = delete;  // the socket handlers hold `this`
  Receiver& operator=(const Receiver&) = delete;

  net::ProtocolStack stack;
  std::unique_ptr<PacketFilter> filter;
  std::vector<Delivery> delivered;
};

TEST(PacketPathFuzzTest, OnFrameAndBurstsAgreeOnMutatedFrames) {
  net::StackStats seen;  // summed over seeds: every outcome must occur
  uint64_t proc_invocations = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    para::Random rng(0xF0220000 + seed);
    const std::string text = RandomRules(rng);
    auto rules = ParseRules(text);
    ASSERT_TRUE(rules.ok()) << text;

    std::vector<FuzzFrame> frames;
    frames.reserve(500);
    for (int i = 0; i < 500; ++i) {
      frames.push_back(RandomFrame(rng, *rules));
    }

    Receiver single(*rules);
    single.stack.SetIngressFilter(single.filter->Hook());
    for (size_t i = 0; i < frames.size(); ++i) {
      const size_t before = single.delivered.size();
      single.stack.OnFrame(frames[i].bytes);
      if (frames[i].expect == Expect::kEither) {
        continue;
      }
      const bool delivered = frames[i].expect == Expect::kDelivered;
      ASSERT_EQ(single.delivered.size() - before, delivered ? 1u : 0u)
          << "frame " << i << " under\n" << text;
      if (delivered) {
        EXPECT_EQ(single.delivered.back().payload, frames[i].payload) << "frame " << i;
      }
    }

    Receiver burst(*rules);
    burst.stack.SetIngressBatchFilter(burst.filter->BatchHook());
    std::vector<std::span<const uint8_t>> spans(frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      spans[i] = frames[i].bytes;
    }
    for (size_t at = 0; at < spans.size();) {
      const size_t n = std::min<size_t>(1 + rng.NextBelow(130), spans.size() - at);
      burst.stack.OnFrameBurst(std::span(spans).subspan(at, n));
      at += n;
    }

    EXPECT_TRUE(single.delivered == burst.delivered);
    for (const net::StackStatsSlot& slot : net::kStackStatsSlots) {
      if (slot.field != nullptr) {
        EXPECT_EQ(single.stack.stats().*slot.field, burst.stack.stats().*slot.field)
            << slot.name;
        seen.*slot.field += single.stack.stats().*slot.field;
      }
    }
    const FilterStats a = single.filter->stats();
    const FilterStats b = burst.filter->stats();
    for (const FilterStatsSlot& slot : kFilterStatsSlots) {
      if (slot.field != nullptr) {
        EXPECT_EQ(a.*slot.field, b.*slot.field) << slot.name;
      }
    }
    proc_invocations += a.proc_invocations;
    EXPECT_EQ(single.stack.stats().frames_in, frames.size());
  }
  EXPECT_GT(seen.datagrams_in, 0u);
  EXPECT_GT(seen.drops_bad_frame, 0u);
  EXPECT_GT(seen.drops_not_for_us, 0u);
  EXPECT_GT(seen.drops_no_socket, 0u);
  EXPECT_GT(seen.filter_drop, 0u);
  EXPECT_GT(seen.filter_reject, 0u);
  EXPECT_GT(proc_invocations, 0u);
}

}  // namespace
}  // namespace para::filter
