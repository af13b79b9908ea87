// Test-only reference model of FlowTable: the list-plus-hash-map table the
// filter used before the fixed-array rewrite, kept with its logic unchanged
// so the differential test can hold the production table to it. Each
// orientation of a conversation is a separate map key; Find probes the
// forward tuple, then the reversed one. It allocates per insert and is not
// meant to be fast.
#ifndef PARAMECIUM_TESTS_FILTER_REFERENCE_FLOW_TABLE_H_
#define PARAMECIUM_TESTS_FILTER_REFERENCE_FLOW_TABLE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "src/base/log.h"
#include "src/filter/flow_table.h"

namespace para::filter::testing {

struct FlowKeyHash {
  size_t operator()(const FlowKey& key) const {
    // FNV-1a over the packed tuple.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<uint64_t>(key.src_ip) << 32 | key.dst_ip);
    mix(static_cast<uint64_t>(key.src_port) << 24 | static_cast<uint64_t>(key.dst_port) << 8 |
        key.proto);
    return static_cast<size_t>(h);
  }
};

class ReferenceFlowTable {
 public:
  using Direction = FlowTable::Direction;

  explicit ReferenceFlowTable(size_t capacity, const VirtualClock* clock = nullptr, VTime ttl = 0)
      : capacity_(capacity), clock_(clock), ttl_(clock == nullptr ? 0 : ttl) {
    PARA_CHECK(capacity > 0);
    map_.reserve(capacity);
  }

  FlowEntry* Find(const FlowKey& key, Direction* direction = nullptr) {
    auto lookup = [this](const FlowKey& k) {
      auto it = map_.find(k);
      if (it != map_.end() && Expired(*it->second)) {
        // Idle past the TTL: the flow is gone; reclaim lazily.
        ++stats_.expirations;
        lru_.erase(it->second);
        map_.erase(it);
        return map_.end();
      }
      return it;
    };

    auto it = lookup(key);
    Direction dir = Direction::kForward;
    if (it == map_.end()) {
      // Reply traffic carries the reversed tuple; it shares the established
      // entry rather than establishing (and re-evaluating) its own flow.
      it = lookup(key.Reversed());
      dir = Direction::kReverse;
    }
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    if (dir == Direction::kReverse) {
      ++stats_.reverse_hits;
    }
    if (direction != nullptr) {
      *direction = dir;
    }
    return Touch(it->second);
  }

  FlowEntry* Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      // Re-establishment of a known flow: fresh verdict, fresh counters.
      FlowEntry* entry = Touch(it->second);
      entry->verdict = verdict;
      entry->epoch = epoch;
      entry->packets = 0;
      entry->bytes = 0;
      entry->reverse_packets = 0;
      entry->reverse_bytes = 0;
      return entry;
    }
    // One entry per conversation: if the reply orientation is already
    // present, replace it.
    auto reversed = map_.find(key.Reversed());
    if (reversed != map_.end()) {
      if (Expired(*reversed->second)) {
        ++stats_.expirations;
      } else {
        ++stats_.reorientations;
      }
      lru_.erase(reversed->second);
      map_.erase(reversed);
    }
    if (map_.size() >= capacity_) {
      // Prefer reclaiming an expired victim over evicting a live flow.
      if (Expired(lru_.back())) {
        ++stats_.expirations;
      } else {
        ++stats_.evictions;
      }
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    ++stats_.inserts;
    FlowEntry entry;
    entry.key = key;
    entry.verdict = verdict;
    entry.epoch = epoch;
    entry.last_seen = clock_ != nullptr ? clock_->now() : 0;
    lru_.push_front(entry);
    map_.emplace(key, lru_.begin());
    return &lru_.front();
  }

  bool Erase(const FlowKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void Clear() {
    lru_.clear();
    map_.clear();
  }

  size_t size() const { return map_.size(); }
  const FlowTableStats& stats() const { return stats_; }

 private:
  using LruList = std::list<FlowEntry>;

  bool Expired(const FlowEntry& entry) const {
    return ttl_ != 0 && clock_->now() >= entry.last_seen + ttl_;
  }

  FlowEntry* Touch(LruList::iterator it) {
    lru_.splice(lru_.begin(), lru_, it);
    if (clock_ != nullptr) {
      it->last_seen = clock_->now();
    }
    return &*it;
  }

  size_t capacity_;
  const VirtualClock* clock_;
  VTime ttl_;
  LruList lru_;  // front = most recently used
  std::unordered_map<FlowKey, LruList::iterator, FlowKeyHash> map_;
  FlowTableStats stats_;
};

}  // namespace para::filter::testing

#endif  // PARAMECIUM_TESTS_FILTER_REFERENCE_FLOW_TABLE_H_
