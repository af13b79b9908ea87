#include "bench/e2e/src/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/net/pktbuf.h"

namespace para::e2e {

net::Port ServicePort(size_t index) {
  return static_cast<net::Port>(1024 + (index % kServicePorts) * 937);
}

std::vector<RuleRegion> MakeRegions(Random& rng, size_t count) {
  std::vector<RuleRegion> regions;
  regions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    RuleRegion r;
    // A small pool of second octets makes /16 and /24 prefixes nest.
    const uint32_t b = static_cast<uint32_t>(rng.NextBelow(64));
    const uint32_t c = static_cast<uint32_t>(rng.NextBelow(256));
    r.prefix = rng.NextBelow(10) < 4 ? 16 : 24;
    r.src = (10u << 24 | b << 16 | c << 8) & filter::PrefixMask(r.prefix);

    const int port = ServicePort(rng.NextBelow(kServicePorts));
    const uint64_t width = rng.NextBelow(10);
    int below = 0;
    int above = 0;
    if (width >= 4 && width < 8) {
      below = static_cast<int>(rng.NextBelow(64));
      above = static_cast<int>(rng.NextBelow(64));
    } else if (width >= 8) {
      below = 64 + static_cast<int>(rng.NextBelow(448));
      above = 64 + static_cast<int>(rng.NextBelow(448));
    }
    r.dport_lo = static_cast<net::Port>(std::max(1, port - below));
    r.dport_hi = static_cast<net::Port>(std::min(65535, port + above));
    regions.push_back(r);
  }
  return regions;
}

filter::RuleSet MakeRuleSet(std::span<const RuleRegion> regions, Random& rng, double drop_share,
                            double proc_share) {
  // Exact counts, random placement: every seed gets the same number of drop
  // rules and procedure chains (the chains dominate load and reload cost).
  const size_t n = regions.size();
  const auto drops = static_cast<size_t>(drop_share * static_cast<double>(n) + 0.5);
  const auto chains = static_cast<size_t>(proc_share * static_cast<double>(n - drops) + 0.5);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  filter::RuleSet set;
  set.default_verdict = net::FilterVerdict::kDrop;
  set.rules.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    const RuleRegion& region = regions[i];
    filter::Rule& rule = set.rules[i];
    rule.src_ip = region.src;
    rule.src_prefix = region.prefix;
    rule.dport_lo = region.dport_lo;
    rule.dport_hi = region.dport_hi;
    rule.proto = net::kIpProtoUdpLite;
    if (k < drops) {
      rule.verdict = net::FilterVerdict::kDrop;
    } else {
      rule.verdict = net::FilterVerdict::kPass;
      if (k < drops + chains) {
        rule.procs.push_back({"count", {}});
        rule.procs.push_back({"log", {{"every", 64}}});
      }
    }
  }
  return set;
}

Flow FlowInRegion(const RuleRegion& region, Random& rng) {
  Flow flow;
  const uint32_t host_mask = ~filter::PrefixMask(region.prefix);
  flow.src = region.src | (static_cast<uint32_t>(rng.Next()) & host_mask);
  flow.sport = static_cast<net::Port>(1024 + rng.NextBelow(65536 - 1024));
  // A service port inside the range (the one the range was built around is
  // always there).
  std::vector<net::Port> inside;
  for (size_t i = 0; i < kServicePorts; ++i) {
    const net::Port p = ServicePort(i);
    if (p >= region.dport_lo && p <= region.dport_hi) {
      inside.push_back(p);
    }
  }
  flow.dport = inside[rng.NextBelow(inside.size())];
  return flow;
}

net::PacketView ViewOf(const Flow& flow, net::IpAddr dst, std::span<const uint8_t> payload) {
  net::PacketView view;
  view.src_ip = flow.src;
  view.dst_ip = dst;
  view.src_port = flow.sport;
  view.dst_port = flow.dport;
  view.proto = net::kIpProtoUdpLite;
  view.ttl = 64;
  view.payload = payload;
  return view;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t Zipf::Sample(Random& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Zipf::TailMass(size_t first) const {
  if (first == 0) {
    return 1.0;
  }
  return first >= cdf_.size() ? 0.0 : 1.0 - cdf_[first - 1];
}

std::vector<uint8_t> BuildFrame(net::MacAddr dst_mac, net::MacAddr src_mac, const Flow& flow,
                                net::IpAddr dst_ip, std::span<const uint8_t> payload) {
  net::PacketBuffer packet;
  packet.Append(payload);
  net::UdpEncap(packet, net::UdpHeader{flow.sport, flow.dport, 0});
  net::IpEncap(packet, net::IpHeader{64, net::kIpProtoUdpLite, flow.src, dst_ip, 0});
  net::EthEncap(packet, net::EthHeader{dst_mac, src_mac, net::kEtherTypeIpLite});
  const auto bytes = packet.data();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

void FillPattern(uint64_t seed, std::span<uint8_t> out) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t off = 0; off < out.size(); off += 8) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(out.data() + off, &z, std::min<size_t>(8, out.size() - off));
  }
}

uint64_t Checksum(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  size_t off = 0;
  for (; off + 8 <= bytes.size(); off += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + off, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  for (; off < bytes.size(); ++off) {
    h = (h ^ bytes[off]) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace para::e2e
