#include "src/filter/flow_table.h"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <new>

#include "src/base/log.h"

namespace para::filter {

namespace {

// splitmix64 finalizer: spreads the one table secret into two hash keys.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The 5-tuple packed into two words, to compare whole keys at once.
uint64_t Addrs(const FlowKey& k) { return k.src_ip | static_cast<uint64_t>(k.dst_ip) << 32; }
uint64_t Ports(const FlowKey& k) {
  return k.src_port | static_cast<uint64_t>(k.dst_port) << 16 |
         static_cast<uint64_t>(k.proto) << 32;
}

}  // namespace

void FlowTable::Unmap::operator()(void* p) const { munmap(p, bytes); }

template <typename T>
FlowTable::Mapped<T> FlowTable::Map(size_t count) {
  const size_t bytes = count * sizeof(T);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PARA_CHECK(p != MAP_FAILED);
  return Mapped<T>(static_cast<T*>(p), Unmap{bytes});
}

FlowTable::FlowTable(size_t capacity, const VirtualClock* clock, VTime ttl, uint64_t secret)
    : capacity_(capacity),
      clock_(clock),
      ttl_(clock == nullptr ? 0 : ttl),
      key0_(Mix64(secret)),
      key1_(Mix64(~secret)) {
  PARA_CHECK(capacity > 0 && capacity <= kMaxFlowCapacity);
  // At most half full: a miss then ends on an empty bucket within a few
  // probes, and there always is one.
  const size_t buckets = std::bit_ceil(2 * capacity);
  mask_ = buckets - 1;
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(buckets));
  // An all-zero bucket is empty, so the fresh mapping is an empty index;
  // entries and links are written before they are read and cost memory
  // only once used.
  index_ = Map<Bucket>(buckets);
  links_ = Map<Link>(capacity + 1);
  entries_ = Map<FlowEntry>(capacity);
  const auto head = static_cast<uint32_t>(capacity_);
  links_[head] = Link{head, head, 0};
}

uint32_t FlowTable::Tag(const FlowKey& key) const {
  // The endpoints in canonical order, as SymmetricFlowHash orders them, so a
  // tuple and its reversal share a tag. A key enters before each mixing
  // multiply, and the tag is the last product's well-mixed high half.
  uint64_t a = static_cast<uint64_t>(key.src_ip) << 16 | key.src_port;
  uint64_t b = static_cast<uint64_t>(key.dst_ip) << 16 | key.dst_port;
  if (a > b) {
    const uint64_t t = a;
    a = b;
    b = t;
  }
  uint64_t h = (a ^ key0_) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h = (h + (b ^ (static_cast<uint64_t>(key.proto) << 48) ^ key1_)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<uint32_t>(h >> 32);
}

FlowTable::Slot FlowTable::Lookup(const FlowKey& key, uint32_t tag) {
  const uint64_t addrs = Addrs(key);
  const uint64_t ports = Ports(key);
  const uint64_t reply_addrs = addrs >> 32 | addrs << 32;
  const uint64_t reply_ports = ((ports >> 16) & 0xFFFF) | ((ports & 0xFFFF) << 16) |
                               (static_cast<uint64_t>(key.proto) << 32);
  const size_t home = tag >> shift_;
  for (size_t i = home;; i = (i + 1) & mask_) {
    const Bucket bucket = index_[i];
    if (bucket.ref == 0) {
      stats_.probes += ((i - home) & mask_) + 1;
      return Slot{i, kNone, Direction::kForward};
    }
    if (bucket.tag != tag) {
      continue;
    }
    const FlowKey& stored = entries_[bucket.ref - 1].key;
    Direction direction;
    if (Addrs(stored) == addrs && Ports(stored) == ports) {
      direction = Direction::kForward;  // first: a self-reversed key is forward
    } else if (Addrs(stored) == reply_addrs && Ports(stored) == reply_ports) {
      direction = Direction::kReverse;
    } else {
      continue;
    }
    stats_.probes += ((i - home) & mask_) + 1;
    return Slot{i, bucket.ref - 1, direction};
  }
}

bool FlowTable::Expired(const FlowEntry& entry) const {
  return ttl_ != 0 && clock_->now() >= entry.last_seen + ttl_;
}

void FlowTable::Unlink(uint32_t id) {
  const Link link = links_[id];
  links_[link.prev].next = link.next;
  links_[link.next].prev = link.prev;
}

void FlowTable::PushFront(uint32_t id) {
  const auto head = static_cast<uint32_t>(capacity_);
  const uint32_t first = links_[head].next;
  links_[id].prev = head;
  links_[id].next = first;
  links_[first].prev = id;
  links_[head].next = id;
}

void FlowTable::Promote(uint32_t id) {
  if (links_[capacity_].next != id) {
    Unlink(id);
    PushFront(id);
  }
}

void FlowTable::Remove(size_t bucket, uint32_t id) {
  Unindex(bucket);
  Unlink(id);
  links_[id].next = free_;
  free_ = id;
  --size_;
}

size_t FlowTable::Unindex(size_t hole) {
  miss_.valid = false;
  for (size_t j = (hole + 1) & mask_; index_[j].ref != 0; j = (j + 1) & mask_) {
    // The key at j may move into the hole unless its home bucket lies
    // cyclically in (hole, j]: then the hole is not on its probe path.
    const size_t home = index_[j].tag >> shift_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      links_[index_[hole].ref - 1].bucket = static_cast<uint32_t>(hole);
      hole = j;
    }
  }
  index_[hole] = Bucket{0, 0};
  return hole;
}

FlowEntry* FlowTable::Establish(uint32_t id, const FlowKey& key, uint64_t verdict,
                                uint32_t epoch) {
  return new (&entries_[id])
      FlowEntry{key, verdict, 0, 0, 0, 0, epoch, clock_ != nullptr ? clock_->now() : 0};
}

FlowEntry* FlowTable::Find(const FlowKey& key, Direction* direction) {
  const uint32_t tag = Tag(key);
  const Slot slot = Lookup(key, tag);
  if (slot.id == kNone) {
    // Remembered for the Insert that usually follows a miss: until the
    // index changes, this key's vacancy is known.
    miss_ = Miss{key, tag, slot.bucket, true};
  } else {
    FlowEntry& entry = entries_[slot.id];
    if (!Expired(entry)) {
      ++stats_.hits;
      if (slot.direction == Direction::kReverse) {
        ++stats_.reverse_hits;
      }
      if (direction != nullptr) {
        *direction = slot.direction;
      }
      Promote(slot.id);
      if (clock_ != nullptr) {
        entry.last_seen = clock_->now();
      }
      return &entry;
    }
    // Idle past the TTL: the flow is gone; reclaim lazily.
    ++stats_.expirations;
    Remove(slot.bucket, slot.id);
  }
  ++stats_.misses;
  return nullptr;
}

FlowEntry* FlowTable::Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch) {
  uint32_t tag;
  Slot slot;
  if (miss_.valid && miss_.key == key) {
    tag = miss_.tag;
    slot = Slot{miss_.bucket, kNone, Direction::kForward};
  } else {
    tag = Tag(key);
    slot = Lookup(key, tag);
  }
  miss_.valid = false;
  if (slot.id != kNone) {
    // Re-establishment of a known conversation: fresh verdict, fresh
    // counters — the previous generation's traffic (notably the reverse-
    // direction counters) must not be attributed to the new one. From the
    // reply side it re-keys the one entry to the new forward orientation
    // (reply-first establishment, or a forward entry that expired and the
    // conversation is being re-admitted from the other side): two entries
    // would split the conversation's counters.
    if (slot.direction == Direction::kReverse) {
      if (Expired(entries_[slot.id])) {
        ++stats_.expirations;
      } else {
        ++stats_.reorientations;
      }
      ++stats_.inserts;
    }
    Promote(slot.id);
    return Establish(slot.id, key, verdict, epoch);
  }

  uint32_t id;
  size_t bucket = slot.bucket;
  if (size_ < capacity_) {
    if (free_ != kNone) {
      id = free_;
      free_ = links_[id].next;
    } else {
      id = used_++;
    }
    ++size_;
  } else {
    // Prefer reclaiming an expired victim over evicting a live flow; the LRU
    // tail is the oldest-idle entry, so if anything has expired, it has.
    id = links_[capacity_].prev;
    if (Expired(entries_[id])) {
      ++stats_.expirations;
    } else {
      ++stats_.evictions;
    }
    const size_t hole = Unindex(links_[id].bucket);
    Unlink(id);
    // The shift empties one bucket. If it lies on this key's probe path,
    // ahead of the vacancy the lookup found, it is the first one there now.
    const size_t home = tag >> shift_;
    if (((hole - home) & mask_) < ((bucket - home) & mask_)) {
      bucket = hole;
    }
  }
  ++stats_.inserts;
  index_[bucket] = Bucket{id + 1, tag};
  links_[id].bucket = static_cast<uint32_t>(bucket);
  PushFront(id);
  return Establish(id, key, verdict, epoch);
}

bool FlowTable::Erase(const FlowKey& key) {
  const Slot slot = Lookup(key, Tag(key));
  if (slot.id == kNone || slot.direction != Direction::kForward) {
    return false;
  }
  Remove(slot.bucket, slot.id);
  return true;
}

void FlowTable::Clear() {
  if (size_ != 0) {
    std::memset(index_.get(), 0, (mask_ + 1) * sizeof(Bucket));
  }
  const auto head = static_cast<uint32_t>(capacity_);
  links_[head] = Link{head, head, 0};
  size_ = 0;
  used_ = 0;
  free_ = kNone;
  miss_.valid = false;
}

}  // namespace para::filter
