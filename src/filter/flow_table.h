// Stateful connection tracking for the packet filter: a bounded flow table
// of (src, dst, sport, dport, proto) conversations with exact LRU eviction,
// per-flow counters, reply-direction matching, and optional idle expiry on
// the virtual clock. A flow is recorded when a packet passes the rule set;
// subsequent packets of the flow — in EITHER direction — hit the table and
// skip rule evaluation entirely. Each entry records the rule-set epoch that
// admitted it, so the filter can tell a fresh verdict from one cached under
// rules that have since been reloaded (PacketFilter re-evaluates stale-epoch
// hits unless keep-alive is configured). With a clock and TTL configured,
// entries idle longer than the TTL expire lazily on the next touch (and
// expired LRU victims are reclaimed before live ones under pressure).
//
// Storage is three fixed arrays sized by the constructor, each an anonymous
// mmap of its own, so a page is zero until written and costs memory only
// once touched, whatever the process's heap did before; nothing allocates
// after the constructor returns:
//  - entries, each holding one conversation ONCE, under the 5-tuple of the
//    packet that established it (its forward direction). Entry storage is
//    first written when an entry comes into use.
//  - links: an exact LRU list threaded by 32-bit entry id, each link also
//    naming its entry's index bucket. Erased ids wait on a free list.
//  - an open-addressed index of power-of-two size, at most half full, whose
//    buckets hold an entry id and a 32-bit hash tag. An all-zero bucket is
//    empty (so a fresh index is the mapping's zero pages), and deletion
//    shifts the rest of the cluster back, so there are no tombstones.
// The index hash is symmetric — a tuple and its reversal hash alike — so a
// forward or a reply packet finds its conversation with one probe sequence,
// and the stored forward key tells which way it matched. A miss remembers
// where its probe ended, so the Insert that follows it does not probe again,
// and an eviction reaches its victim's bucket through the victim's link.
// The hash is keyed by a per-table secret (PacketFilter draws one from the
// kernel's entropy pool, getrandom(2), for each table), so keys chosen to
// pile into one probe cluster need the secret, and the home bucket comes
// from the tag's top bits, never from the unkeyed steering hash
// (SymmetricFlowHash), whose residue is the same for every key of a shard.
#ifndef PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_
#define PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/base/vclock.h"
#include "src/net/filter_hook.h"

namespace para::filter {

struct FlowKey {
  net::IpAddr src_ip = 0;
  net::IpAddr dst_ip = 0;
  net::Port src_port = 0;
  net::Port dst_port = 0;
  uint8_t proto = 0;

  bool operator==(const FlowKey& other) const = default;

  // The 5-tuple of the reply direction: what a response packet carries.
  FlowKey Reversed() const { return FlowKey{dst_ip, src_ip, dst_port, src_port, proto}; }
};

// Symmetric 5-tuple hash for shard steering: a conversation and its reply
// MUST land on the same shard, so the two (addr, port) endpoints are ordered
// canonically before mixing — SymmetricFlowHash(k) == SymmetricFlowHash(
// k.Reversed()) for every key, which the property tests enforce over random
// tuples. Unkeyed, so every filter steers alike; the flow table's index
// uses its own keyed hash.
inline uint64_t SymmetricFlowHash(const FlowKey& key) {
  uint64_t a = static_cast<uint64_t>(key.src_ip) << 16 | key.src_port;
  uint64_t b = static_cast<uint64_t>(key.dst_ip) << 16 | key.dst_port;
  if (a > b) {
    const uint64_t t = a;
    a = b;
    b = t;
  }
  // splitmix64-style finalization over the ordered endpoints + proto.
  uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += b;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  h += key.proto;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  return h;
}

struct FlowEntry {
  FlowKey key;           // the initiating (forward) direction
  uint64_t verdict = 0;  // encoded verdict cached from rule evaluation
  uint64_t packets = 0;  // forward-direction packets
  uint64_t bytes = 0;
  uint64_t reverse_packets = 0;  // reply-direction packets sharing this entry
  uint64_t reverse_bytes = 0;
  uint32_t epoch = 0;      // rule-set generation that admitted the flow
  VTime last_seen = 0;     // virtual time of the last touch (0 if no clock)
};

struct FlowTableStats {
  uint64_t hits = 0;          // forward + reverse
  uint64_t reverse_hits = 0;  // of which: matched via the reversed tuple
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t expirations = 0;    // TTL reclamations (lazy or under pressure)
  uint64_t reorientations = 0; // live reversed entry replaced by a re-establishment
  uint64_t probes = 0;         // index buckets visited by key lookups
};

// The largest table a FlowTable (and a PacketFilter's total flow_capacity)
// may have. Entry ids are 32 bits and the index is sized at construction,
// so the bound also caps the up-front reservation at ~1.5 GiB of address
// space (touched only as entries come into use).
inline constexpr size_t kMaxFlowCapacity = size_t{1} << 24;

class FlowTable {
 public:
  // `clock` + `ttl` enable idle expiry: an entry untouched for `ttl` virtual
  // nanoseconds is dead. ttl == 0 (or a null clock) disables expiry.
  // `secret` keys the index hash; lookups, eviction order and every counter
  // but `probes` are the same under any secret. Requires 0 < capacity <=
  // kMaxFlowCapacity.
  explicit FlowTable(size_t capacity, const VirtualClock* clock = nullptr, VTime ttl = 0,
                     uint64_t secret = 0);

  // Direction of the match Find() returns.
  enum class Direction : uint8_t { kForward, kReverse };

  // Looks up the conversation `key` belongs to, as sent (forward) or as its
  // reply (reverse), and on hit promotes it to most-recently-used and
  // refreshes its idle timer. `direction`, if non-null, reports which way
  // matched. Expired entries are reclaimed here and report as misses. The
  // returned pointer is valid until the next Insert/Erase/Clear.
  FlowEntry* Find(const FlowKey& key, Direction* direction = nullptr);

  // Inserts (or replaces) a flow, reclaiming an expired LRU victim — or
  // evicting the live LRU entry — when at capacity. Returns the new entry
  // with all traffic counters reset: establishment starts a fresh
  // generation. At most one entry per conversation: inserting a key whose
  // *reversed* tuple is present re-keys that entry in place (the new
  // establishment defines the forward direction) instead of growing an
  // inverted twin.
  FlowEntry* Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch);

  // Erases the flow established as `key` (its forward tuple).
  bool Erase(const FlowKey& key);
  void Clear();

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  VTime ttl() const { return ttl_; }
  const FlowTableStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // ref = entry id + 1, so the all-zero bucket is the empty one.
  struct Bucket {
    uint32_t ref;
    uint32_t tag;
  };
  struct Link {
    uint32_t prev;
    uint32_t next;
    uint32_t bucket;  // where the entry's index bucket is
  };
  // Unmaps an array Map made; the mapping's size rides in the deleter.
  struct Unmap {
    size_t bytes;
    void operator()(void* p) const;
  };
  template <typename T>
  using Mapped = std::unique_ptr<T[], Unmap>;
  // `count` Ts of fresh anonymous zero pages; a failed map fails PARA_CHECK.
  template <typename T>
  static Mapped<T> Map(size_t count);

  // Where a lookup ended: the bucket holding the match (id != kNone), or
  // the first empty bucket of the probe sequence.
  struct Slot {
    size_t bucket;
    uint32_t id;
    Direction direction;
  };
  // The last Find miss, valid until the index next changes.
  struct Miss {
    FlowKey key;
    uint32_t tag = 0;
    size_t bucket = 0;
    bool valid = false;
  };

  [[gnu::always_inline]] inline uint32_t Tag(const FlowKey& key) const;
  // Probes from `tag`'s home bucket for `key`'s conversation, as sent or as
  // its reply, counting the buckets it visits.
  [[gnu::always_inline]] inline Slot Lookup(const FlowKey& key, uint32_t tag);
  bool Expired(const FlowEntry& entry) const;
  void Unlink(uint32_t id);
  void PushFront(uint32_t id);
  void Promote(uint32_t id);  // to most-recently-used
  // Unindexes, unlinks and frees entry `id`, indexed at `bucket`.
  void Remove(size_t bucket, uint32_t id);
  // Drops the index bucket at `bucket`, shifting the rest of its cluster
  // back so every remaining key stays reachable from its home bucket.
  // Returns the bucket the shift leaves empty.
  size_t Unindex(size_t bucket);
  FlowEntry* Establish(uint32_t id, const FlowKey& key, uint64_t verdict, uint32_t epoch);

  size_t capacity_;
  const VirtualClock* clock_;
  VTime ttl_;
  uint64_t key0_;
  uint64_t key1_;
  size_t mask_;     // index buckets - 1
  unsigned shift_;  // home bucket = tag >> shift_
  size_t size_ = 0;
  uint32_t used_ = 0;      // ids below this have been written at least once
  uint32_t free_ = kNone;  // erased ids, chained through links_[id].next
  Miss miss_;
  Mapped<Bucket> index_;
  Mapped<Link> links_;  // [capacity_] heads the LRU ring: next = MRU
  Mapped<FlowEntry> entries_;
  FlowTableStats stats_;
};

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_
