// Flow-table unit tests: lookup/insert semantics, LRU eviction under
// pressure, and the per-flow counters the stateful filter relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/random.h"
#include "src/filter/flow_table.h"

namespace para::filter {
namespace {

FlowKey Key(uint32_t n) {
  return FlowKey{0x0A000000u | n, 0x0A010002, static_cast<net::Port>(1000 + n), 80, 17};
}

TEST(FlowTableTest, FindMissThenInsertThenHit) {
  FlowTable table(4);
  EXPECT_EQ(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.stats().misses, 1u);

  FlowEntry* entry = table.Insert(Key(1), 0x42, /*epoch=*/1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->verdict, 0x42u);
  EXPECT_EQ(entry->epoch, 1u);
  EXPECT_EQ(table.size(), 1u);

  FlowEntry* found = table.Find(Key(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->verdict, 0x42u);
  EXPECT_EQ(table.stats().hits, 1u);
}

TEST(FlowTableTest, ReinsertUpdatesVerdictWithoutGrowth) {
  FlowTable table(4);
  table.Insert(Key(1), 1, 1);
  table.Insert(Key(1), 2, 3);
  EXPECT_EQ(table.size(), 1u);
  FlowEntry* entry = table.Find(Key(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->verdict, 2u);
  EXPECT_EQ(entry->epoch, 3u);
}

TEST(FlowTableTest, ReinsertResetsAllDirectionalCounters) {
  // A re-established flow starts a new counter generation. The old code
  // reset nothing; the filter patched packets/bytes back to 1 after insert
  // but the reverse counters leaked through — a flow that re-established
  // after carrying reply traffic reported phantom reverse packets.
  FlowTable table(4);
  FlowEntry* entry = table.Insert(Key(1), 1, 1);
  entry->packets = 3;
  entry->bytes = 300;
  FlowEntry* reply = table.Find(Key(1).Reversed());
  ASSERT_NE(reply, nullptr);
  reply->reverse_packets = 2;
  reply->reverse_bytes = 200;

  FlowEntry* fresh = table.Insert(Key(1), 2, 2);
  EXPECT_EQ(fresh->packets, 0u);
  EXPECT_EQ(fresh->bytes, 0u);
  EXPECT_EQ(fresh->reverse_packets, 0u);
  EXPECT_EQ(fresh->reverse_bytes, 0u);
  EXPECT_EQ(fresh->verdict, 2u);
  EXPECT_EQ(fresh->epoch, 2u);
}

TEST(FlowTableTest, InsertReversedTupleReplacesTheConversationEntry) {
  // Reply-first-style establishment: inserting the reversed orientation of a
  // live entry must not create a second entry for the same conversation —
  // two coexisting entries would split the conversation's counters and
  // invert the directional ones. The new establishment defines "forward".
  FlowTable table(4);
  table.Insert(Key(1), 1, 1);
  FlowEntry* reestablished = table.Insert(Key(1).Reversed(), 2, 2);
  ASSERT_NE(reestablished, nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().reorientations, 1u);
  EXPECT_EQ(reestablished->key, Key(1).Reversed());
  EXPECT_EQ(reestablished->verdict, 2u);

  // Both directions now resolve to the one entry, with the establishing
  // packet's orientation as forward.
  FlowTable::Direction dir = FlowTable::Direction::kReverse;
  EXPECT_EQ(table.Find(Key(1).Reversed(), &dir), reestablished);
  EXPECT_EQ(dir, FlowTable::Direction::kForward);
  EXPECT_EQ(table.Find(Key(1), &dir), reestablished);
  EXPECT_EQ(dir, FlowTable::Direction::kReverse);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, ExpireThenReplyKeepsOneConversationEntry) {
  // The forward entry idles past the TTL; the conversation is then
  // re-admitted from the reply side. The expired husk must be reclaimed (as
  // an expiration, not a live reorientation) and exactly one entry remain.
  VirtualClock clock;
  FlowTable table(4, &clock, /*ttl=*/100);
  table.Insert(Key(1), 1, 1);
  clock.Advance(150);

  // The reply misses (expired)...
  EXPECT_EQ(table.Find(Key(1).Reversed()), nullptr);
  EXPECT_EQ(table.stats().expirations, 1u);
  // ...and its re-establishment creates the single fresh entry.
  FlowEntry* entry = table.Insert(Key(1).Reversed(), 2, 2);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(entry->key, Key(1).Reversed());
  EXPECT_EQ(table.stats().reorientations, 0u);

  // Insert-side reclamation too: a reversed insert while the husk is still
  // in the table (no Find in between) counts as an expiration, not a
  // reorientation of a live flow.
  table.Clear();
  table.Insert(Key(2), 1, 1);
  clock.Advance(150);
  FlowEntry* after = table.Insert(Key(2).Reversed(), 2, 2);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().expirations, 2u);
  EXPECT_EQ(table.stats().reorientations, 0u);
}

TEST(FlowTableTest, EvictsLeastRecentlyUsedUnderPressure) {
  FlowTable table(3);
  table.Insert(Key(1), 1, 1);
  table.Insert(Key(2), 2, 1);
  table.Insert(Key(3), 3, 1);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(table.Find(Key(1)), nullptr);

  table.Insert(Key(4), 4, 1);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_EQ(table.Find(Key(2)), nullptr);  // evicted
  EXPECT_NE(table.Find(Key(1)), nullptr);
  EXPECT_NE(table.Find(Key(3)), nullptr);
  EXPECT_NE(table.Find(Key(4)), nullptr);
}

TEST(FlowTableTest, SustainedPressureStaysBounded) {
  constexpr size_t kCapacity = 64;
  FlowTable table(kCapacity);
  for (uint32_t i = 0; i < 10 * kCapacity; ++i) {
    table.Insert(Key(i), i, 1);
    EXPECT_LE(table.size(), kCapacity);
  }
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_EQ(table.stats().evictions, 9 * kCapacity);
  // The survivors are exactly the most recent kCapacity keys.
  for (uint32_t i = 10 * kCapacity - kCapacity; i < 10 * kCapacity; ++i) {
    EXPECT_NE(table.Find(Key(i)), nullptr) << i;
  }
}

TEST(FlowTableTest, EraseAndClear) {
  FlowTable table(4);
  table.Insert(Key(1), 1, 1);
  table.Insert(Key(2), 2, 1);
  EXPECT_TRUE(table.Erase(Key(1)));
  EXPECT_FALSE(table.Erase(Key(1)));
  EXPECT_EQ(table.size(), 1u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(Key(2)), nullptr);
}

TEST(FlowTableTest, ReverseTupleSharesEstablishedEntry) {
  FlowTable table(4);
  FlowEntry* entry = table.Insert(Key(1), 0x42, 1);
  ASSERT_NE(entry, nullptr);

  // The reply direction: src/dst and ports swapped.
  FlowTable::Direction dir = FlowTable::Direction::kForward;
  FlowEntry* reply = table.Find(Key(1).Reversed(), &dir);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply, table.Find(Key(1)));  // same entry, not a second flow
  EXPECT_EQ(dir, FlowTable::Direction::kReverse);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().reverse_hits, 1u);

  // Forward lookups report forward.
  dir = FlowTable::Direction::kReverse;
  ASSERT_NE(table.Find(Key(1), &dir), nullptr);
  EXPECT_EQ(dir, FlowTable::Direction::kForward);
  EXPECT_EQ(table.stats().reverse_hits, 1u);

  // An unrelated reversed tuple is still a miss.
  EXPECT_EQ(table.Find(Key(2).Reversed()), nullptr);
}

TEST(FlowTableTest, ReverseHitRefreshesLruPosition) {
  FlowTable table(2);
  table.Insert(Key(1), 1, 1);
  table.Insert(Key(2), 2, 1);
  // Touch flow 1 via its reply direction; flow 2 becomes the LRU victim.
  ASSERT_NE(table.Find(Key(1).Reversed()), nullptr);
  table.Insert(Key(3), 3, 1);
  EXPECT_NE(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.Find(Key(2)), nullptr);
}

TEST(FlowTableTest, TtlExpiresIdleFlows) {
  VirtualClock clock;
  FlowTable table(8, &clock, /*ttl=*/100);
  table.Insert(Key(1), 1, 1);

  clock.Advance(99);
  ASSERT_NE(table.Find(Key(1)), nullptr);  // touched: idle timer restarts

  clock.Advance(99);
  ASSERT_NE(table.Find(Key(1)), nullptr);  // still inside the refreshed window

  clock.Advance(100);
  EXPECT_EQ(table.Find(Key(1)), nullptr);  // idle a full TTL: expired
  EXPECT_EQ(table.stats().expirations, 1u);
  EXPECT_EQ(table.size(), 0u);

  // Reverse lookups expire idle entries too.
  table.Insert(Key(2), 2, 1);
  clock.Advance(100);
  EXPECT_EQ(table.Find(Key(2).Reversed()), nullptr);
  EXPECT_EQ(table.stats().expirations, 2u);
}

TEST(FlowTableTest, TtlUnderLruPressurePrefersExpiredVictims) {
  VirtualClock clock;
  constexpr size_t kCapacity = 8;
  FlowTable table(kCapacity, &clock, /*ttl=*/50);

  // Fill to capacity, then let everything go idle past the TTL.
  for (uint32_t i = 0; i < kCapacity; ++i) {
    table.Insert(Key(i), i, 1);
  }
  clock.Advance(60);

  // Sustained churn at capacity: every insert reclaims an expired entry, so
  // the table reports expirations, not LRU evictions of live flows.
  for (uint32_t i = 100; i < 100 + kCapacity; ++i) {
    table.Insert(Key(i), i, 1);
    EXPECT_LE(table.size(), kCapacity);
  }
  EXPECT_EQ(table.stats().expirations, kCapacity);
  EXPECT_EQ(table.stats().evictions, 0u);

  // Fresh entries are all live; further pressure now evicts live LRU flows.
  for (uint32_t i = 200; i < 200 + kCapacity; ++i) {
    table.Insert(Key(i), i, 1);
  }
  EXPECT_EQ(table.stats().evictions, kCapacity);
  EXPECT_EQ(table.size(), kCapacity);
}

TEST(FlowTableTest, ZeroTtlNeverExpires) {
  VirtualClock clock;
  FlowTable table(4, &clock, /*ttl=*/0);
  table.Insert(Key(1), 1, 1);
  clock.Advance(1u << 30);
  EXPECT_NE(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.stats().expirations, 0u);
}

TEST(FlowTableTest, CountersAccumulatePerFlow) {
  FlowTable table(4);
  FlowEntry* entry = table.Insert(Key(7), 0, 1);
  entry->packets = 1;
  entry->bytes = 100;
  for (int i = 0; i < 3; ++i) {
    FlowEntry* hit = table.Find(Key(7));
    ASSERT_NE(hit, nullptr);
    ++hit->packets;
    hit->bytes += 100;
  }
  EXPECT_EQ(table.Find(Key(7))->packets, 4u);
  EXPECT_EQ(table.Find(Key(7))->bytes, 400u);
}

// --- collision flood: the index hash is keyed ------------------------------

// Probes one Find of `key` costs `table`.
uint64_t ProbesOfFind(FlowTable& table, const FlowKey& key) {
  const uint64_t before = table.stats().probes;
  table.Find(key);
  return table.stats().probes - before;
}

TEST(FlowTableTest, CollisionFloodNeedsTheSecret) {
  // An attacker who knows secret A builds keys that all share one home
  // bucket in A's index. Found black-box: with one resident key, a miss
  // whose home bucket is that key's probes twice (occupied, then empty)
  // and any other miss probes once.
  constexpr uint64_t kSecretA = 0x5EC12E7A;
  constexpr uint64_t kSecretB = 0x0DDBA11;
  constexpr size_t kCapacity = 1024;  // 2048 buckets
  constexpr size_t kFloodKeys = 256;
  auto source_key = [](uint64_t bits) {
    return FlowKey{static_cast<net::IpAddr>(bits >> 16), 0xC0A80001,
                   static_cast<net::Port>(bits), 80, 17};
  };
  std::vector<FlowKey> flood{source_key(0x0A0000010400)};
  {
    FlowTable probe(kCapacity, nullptr, 0, kSecretA);
    probe.Insert(flood[0], 1, 1);
    Random rng(7);
    while (flood.size() < kFloodKeys) {
      const FlowKey candidate = source_key(rng.Next());
      if (ProbesOfFind(probe, candidate) == 2) {
        flood.push_back(candidate);
      }
    }
  }

  // Under A the keys form one cluster: finding the i-th probes ~i buckets.
  FlowTable keyed_a(kCapacity, nullptr, 0, kSecretA);
  FlowTable keyed_b(kCapacity, nullptr, 0, kSecretB);
  for (const FlowKey& key : flood) {
    keyed_a.Insert(key, 1, 1);
    keyed_b.Insert(key, 1, 1);
  }
  uint64_t total_a = 0;
  uint64_t total_b = 0;
  uint64_t longest_b = 0;
  for (const FlowKey& key : flood) {
    total_a += ProbesOfFind(keyed_a, key);
    const uint64_t b = ProbesOfFind(keyed_b, key);
    total_b += b;
    longest_b = std::max(longest_b, b);
  }
  EXPECT_EQ(keyed_a.stats().hits, kFloodKeys);
  EXPECT_EQ(keyed_b.stats().hits, kFloodKeys);
  const double mean_a = static_cast<double>(total_a) / kFloodKeys;
  const double mean_b = static_cast<double>(total_b) / kFloodKeys;
  EXPECT_GE(mean_a, kFloodKeys / 4.0) << "the flood did not collide under its own secret";
  // Another secret scatters the same keys over a 1/8-full index: no Find
  // walks more than 8 buckets (it walks 256 under A).
  EXPECT_LE(mean_b, 2.0);
  EXPECT_LE(longest_b, 8u);
}

TEST(FlowTableTest, OneProbePerConversation) {
  // One conversation in an empty index sits in its home bucket, which both
  // orientations hash to: a miss visits one bucket, the Insert after it
  // reuses that probe, and a forward or a reply hit visits one bucket each.
  FlowTable table(4);
  EXPECT_EQ(table.stats().probes, 0u);
  EXPECT_EQ(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.stats().probes, 1u);
  table.Insert(Key(1), 1, 1);
  EXPECT_EQ(table.stats().probes, 1u);
  ASSERT_NE(table.Find(Key(1).Reversed()), nullptr);
  EXPECT_EQ(table.stats().probes, 2u);
  ASSERT_NE(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.stats().probes, 3u);
}

}  // namespace
}  // namespace para::filter
