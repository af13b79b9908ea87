// Seeded differential of FlowTable against ReferenceFlowTable, the list-and-
// map table it replaced. Both tables see the same random sequence of Find
// (either orientation), Insert, Erase, Clear and clock advances, and after
// every operation they must agree on the returned entry (null, or every
// field), the match direction, size() and every FlowTableStats counter the
// reference keeps (all but `probes`, which only the indexed table counts).
// The key universes are small — a few hosts and ports, including
// self-reversed tuples (src == dst, sport == dport) — so conversations
// collide, reorient, expire and evict constantly at capacities 1–40.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/base/random.h"
#include "src/filter/flow_table.h"
#include "tests/filter/reference_flow_table.h"

namespace para::filter {
namespace {

using testing::ReferenceFlowTable;

constexpr int kSeeds = 300;
constexpr int kOpsPerSeed = 20'000;

std::string Describe(const FlowKey& k) {
  std::ostringstream out;
  out << std::hex << k.src_ip << ":" << std::dec << k.src_port << "->" << std::hex << k.dst_ip
      << ":" << std::dec << k.dst_port << "/" << int{k.proto};
  return out.str();
}

// Empty when `got` and `want` agree; otherwise what differs.
std::string CompareEntries(const FlowEntry* got, const FlowEntry* want) {
  if ((got == nullptr) != (want == nullptr)) {
    return got == nullptr ? "table missed, reference hit" : "table hit, reference missed";
  }
  if (got == nullptr ||
      (got->key == want->key && got->verdict == want->verdict &&
       got->packets == want->packets && got->bytes == want->bytes &&
       got->reverse_packets == want->reverse_packets &&
       got->reverse_bytes == want->reverse_bytes && got->epoch == want->epoch &&
       got->last_seen == want->last_seen)) {
    return "";
  }
  std::ostringstream out;
  auto field = [&out](const char* name, uint64_t g, uint64_t w) {
    if (g != w) {
      out << name << " " << g << " != " << w << "; ";
    }
  };
  if (!(got->key == want->key)) {
    out << "key " << Describe(got->key) << " != " << Describe(want->key) << "; ";
  }
  field("verdict", got->verdict, want->verdict);
  field("packets", got->packets, want->packets);
  field("bytes", got->bytes, want->bytes);
  field("reverse_packets", got->reverse_packets, want->reverse_packets);
  field("reverse_bytes", got->reverse_bytes, want->reverse_bytes);
  field("epoch", got->epoch, want->epoch);
  field("last_seen", got->last_seen, want->last_seen);
  return out.str();
}

std::string CompareStats(const FlowTableStats& got, const FlowTableStats& want) {
  if (got.hits == want.hits && got.reverse_hits == want.reverse_hits &&
      got.misses == want.misses && got.inserts == want.inserts &&
      got.evictions == want.evictions && got.expirations == want.expirations &&
      got.reorientations == want.reorientations) {
    return "";
  }
  std::ostringstream out;
  auto field = [&out](const char* name, uint64_t g, uint64_t w) {
    if (g != w) {
      out << name << " " << g << " != " << w << "; ";
    }
  };
  field("hits", got.hits, want.hits);
  field("reverse_hits", got.reverse_hits, want.reverse_hits);
  field("misses", got.misses, want.misses);
  field("inserts", got.inserts, want.inserts);
  field("evictions", got.evictions, want.evictions);
  field("expirations", got.expirations, want.expirations);
  field("reorientations", got.reorientations, want.reorientations);
  return out.str();
}

// One seeded run; empty on agreement, else the first disagreement.
std::string RunSeed(uint64_t seed) {
  Random rng(seed);
  const size_t capacity = 1 + seed % 40;
  const bool with_clock = (seed / 40) % 2 == 1;
  // With a clock, one seed in eight keeps ttl 0: timestamps, no expiry.
  const VTime ttl = with_clock && rng.NextBelow(8) != 0 ? 1 + rng.NextBelow(200) : 0;
  VirtualClock clock;
  const VirtualClock* clock_ptr = with_clock ? &clock : nullptr;
  FlowTable table(capacity, clock_ptr, ttl, /*secret=*/rng.Next());
  ReferenceFlowTable reference(capacity, clock_ptr, ttl);

  // The universe: `hosts` addresses x `ports` ports x two protocols, so up
  // to 2 * hosts^2 * ports^2 tuples, hosts * ports * 2 of them self-reversed.
  const uint32_t hosts = 1 + static_cast<uint32_t>(rng.NextBelow(4));
  const uint32_t ports = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  auto random_key = [&] {
    return FlowKey{0x0A000001u + static_cast<uint32_t>(rng.NextBelow(hosts)),
                   0x0A000001u + static_cast<uint32_t>(rng.NextBelow(hosts)),
                   static_cast<net::Port>(1000 + rng.NextBelow(ports)),
                   static_cast<net::Port>(1000 + rng.NextBelow(ports)),
                   static_cast<uint8_t>(rng.NextBelow(2) == 0 ? 6 : 17)};
  };

  for (int op = 0; op < kOpsPerSeed; ++op) {
    const char* what = "";
    FlowKey key;
    const uint64_t choice = rng.NextBelow(100);
    std::string diff;
    if (choice < 45) {
      what = "Find";
      key = random_key();
      if (rng.NextBelow(2) == 0) {
        key = key.Reversed();
      }
      FlowTable::Direction got_dir = FlowTable::Direction::kForward;
      FlowTable::Direction want_dir = FlowTable::Direction::kForward;
      FlowEntry* got = table.Find(key, &got_dir);
      FlowEntry* want = reference.Find(key, &want_dir);
      diff = CompareEntries(got, want);
      if (diff.empty() && got != nullptr) {
        if (got_dir != want_dir) {
          diff = "direction differs";
        }
        // The filter's hit path: count the packet on the matched side.
        const uint64_t bytes = rng.NextBelow(1500);
        for (FlowEntry* e : {got, want}) {
          if (got_dir == FlowTable::Direction::kForward) {
            ++e->packets;
            e->bytes += bytes;
          } else {
            ++e->reverse_packets;
            e->reverse_bytes += bytes;
          }
        }
      }
    } else if (choice < 80) {
      what = "Insert";
      key = random_key();
      const uint64_t verdict = rng.Next();
      const auto epoch = static_cast<uint32_t>(rng.NextBelow(4));
      FlowEntry* got = table.Insert(key, verdict, epoch);
      FlowEntry* want = reference.Insert(key, verdict, epoch);
      diff = CompareEntries(got, want);
      if (got == nullptr) {
        diff += "Insert returned null; ";
      } else if (diff.empty()) {
        got->packets = want->packets = 1;
        got->bytes = want->bytes = 64;
      }
    } else if (choice < 93) {
      what = "Erase";
      key = random_key();
      const bool got = table.Erase(key);
      const bool want = reference.Erase(key);
      if (got != want) {
        diff = got ? "table erased, reference did not" : "reference erased, table did not";
      }
    } else if (choice < 94) {
      what = "Clear";
      table.Clear();
      reference.Clear();
    } else {
      what = "Advance";
      clock.Advance(rng.NextBelow(ttl != 0 ? ttl + ttl / 2 + 1 : 100));
    }
    if (table.size() != reference.size()) {
      diff += "size " + std::to_string(table.size()) + " != ";
      diff += std::to_string(reference.size()) + "; ";
    }
    diff += CompareStats(table.stats(), reference.stats());
    if (!diff.empty()) {
      std::ostringstream out;
      out << "seed " << seed << " (capacity " << capacity << ", ttl " << ttl << ") op " << op
          << " " << what << " " << Describe(key) << ": " << diff;
      return out.str();
    }
  }
  return "";
}

TEST(FlowTableDifferentialTest, MatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string diff = RunSeed(seed);
    ASSERT_TRUE(diff.empty()) << diff;
  }
}

}  // namespace
}  // namespace para::filter
