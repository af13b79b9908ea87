// Seeded input generators shared by the workloads: prefix/range rule sets,
// flows drawn from the rules' own match regions, Zipf popularity,
// pre-encapsulated frames, and payload patterns with checksums. The
// program under test only ever sees the generated inputs; the seed stays
// in the harness.
#ifndef PARAMECIUM_BENCH_E2E_SRC_TRAFFIC_H_
#define PARAMECIUM_BENCH_E2E_SRC_TRAFFIC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/filter/rule.h"
#include "src/net/headers.h"

namespace para::e2e {

// Destination ports the receivers bind. Every generated rule's port range
// contains at least one of them and every flow targets one, so each passed
// packet reaches a socket.
inline constexpr size_t kServicePorts = 64;
net::Port ServicePort(size_t index);

// Where one rule matches: a source prefix and a destination-port range.
struct RuleRegion {
  net::IpAddr src = 0;
  uint8_t prefix = 0;
  net::Port dport_lo = 0;
  net::Port dport_hi = 0;
};

// `count` regions over 10.0.0.0/10 whose /16 and /24 source prefixes nest
// into each other and whose port ranges are exact, narrow (<64) or wide
// (<512) around the service ports: overlapping enough that first-match
// order matters, sparse enough that the default decision-tree backend
// compiles them (a denser set falls back to the linear walk).
std::vector<RuleRegion> MakeRegions(Random& rng, size_t count);

// Rules over `regions` in order: `drop_share` of them drop, the rest pass,
// and `proc_share` of the passing ones attach
// `proc count() proc log(every=64)` (counts exact, placement random).
// Default verdict: drop.
filter::RuleSet MakeRuleSet(std::span<const RuleRegion> regions, Random& rng,
                            double drop_share, double proc_share);

struct Flow {
  net::IpAddr src = 0;
  net::Port sport = 0;
  net::Port dport = 0;
};

// A flow inside `region` (the first rule matching it may be another one).
Flow FlowInRegion(const RuleRegion& region, Random& rng);

// The filter's view of a flow's packets at the receiver `dst`.
net::PacketView ViewOf(const Flow& flow, net::IpAddr dst, std::span<const uint8_t> payload);

// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Random& rng) const;
  // Probability mass of ranks [first, n).
  double TailMass(size_t first) const;

 private:
  std::vector<double> cdf_;
};

// Full Ethernet/IP-lite/UDP-lite frame, checksums and FCS included.
std::vector<uint8_t> BuildFrame(net::MacAddr dst_mac, net::MacAddr src_mac, const Flow& flow,
                                net::IpAddr dst_ip, std::span<const uint8_t> payload);
inline constexpr size_t kPayloadOffset = 14 + 16 + 8;     // eth + ip + udp headers
inline constexpr size_t kFrameOverhead = kPayloadOffset + 4;  // + fcs trailer

// Deterministic byte pattern for `seed`, and the checksum the oracles
// compare (a word-wise FNV-1a; payload lengths are multiples of 8).
void FillPattern(uint64_t seed, std::span<uint8_t> out);
uint64_t Checksum(std::span<const uint8_t> bytes);

}  // namespace para::e2e

#endif  // PARAMECIUM_BENCH_E2E_SRC_TRAFFIC_H_
