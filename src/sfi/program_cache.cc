#include "src/sfi/program_cache.h"

#include <cstring>

#include "src/base/log.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"

namespace para::sfi {

namespace {

// The artifact's resident footprint excluding JIT code: the decoded stream
// is the dominant term (16 bytes per instruction), the byte program rides
// along as the certified identity.
size_t DecodedCost(const VerifiedProgram& verified) {
  return verified.code.size() * sizeof(DecodedInsn) +
         verified.entry_points.size() * sizeof(uint32_t) + verified.program.code.size();
}

}  // namespace

VerifiedProgramCache::VerifiedProgramCache(size_t capacity, size_t memory_budget)
    : capacity_(capacity), memory_budget_(memory_budget) {
  PARA_CHECK(capacity > 0);
  PARA_CHECK(memory_budget > 0);
  entries_.reserve(capacity);
  metrics_.Counter("sfi.program_cache.hits", &stats_.hits);
  metrics_.Counter("sfi.program_cache.misses", &stats_.misses);
  metrics_.Counter("sfi.program_cache.failures", &stats_.failures);
  metrics_.Counter("sfi.program_cache.invalidations", &stats_.invalidations);
  metrics_.Counter("sfi.program_cache.evictions", &stats_.evictions);
  metrics_.Counter("sfi.program_cache.byte_evictions", &stats_.byte_evictions);
  metrics_.Fn("sfi.program_cache.charged_bytes",
              [this] { return static_cast<uint64_t>(charged_bytes_); });
}

std::string VerifiedProgramCache::KeyOf(const Program& program, VerifyOptions options) {
  // Every variable-length field is length-prefixed so the key is injective:
  // without the prefixes, code bytes could masquerade as entry points (or
  // vice versa) and alias a different program's cache slot.
  std::string key;
  key.reserve(program.code.size() + program.entry_points.size() * 4 + 24);
  auto append_u64 = [&key](uint64_t v) {
    char bytes[8];
    std::memcpy(bytes, &v, 8);
    key.append(bytes, 8);
  };
  append_u64(program.code.size());
  key.append(reinterpret_cast<const char*>(program.code.data()), program.code.size());
  append_u64(program.entry_points.size());
  for (uint32_t entry : program.entry_points) {
    char bytes[4];
    std::memcpy(bytes, &entry, 4);
    key.append(bytes, 4);
  }
  append_u64(program.memory_bytes);
  // Options shape the decoded artifact: a fused and an unfused build of the
  // same bytes must occupy distinct slots, and an analyzed stream (proof
  // flags, dropped stack checks) must never be handed to a caller that
  // asked for the plain one. The static_assert below is the tripwire for
  // new VerifyOptions fields: growing the struct without extending this key
  // would silently alias distinct artifacts.
  key.push_back(options.fuse_superinstructions ? '\1' : '\0');
  key.push_back(options.analyze ? '\1' : '\0');
  static_assert(sizeof(VerifyOptions) == 2,
                "new VerifyOptions field? append it to KeyOf and update "
                "tests/sfi/program_cache_test.cc");
  return key;
}

void VerifiedProgramCache::Recharge(Entry& entry) {
  size_t cost = DecodedCost(*entry.verified);
  if (entry.verified->jit_cache != nullptr) {
    // Native code compiled since the last touch (per mode, lazily, by the
    // first Vm to run the artifact) starts counting against the envelope
    // here — this is what keeps a handful of huge JIT'd programs from
    // silently tripling the cache's real footprint.
    cost += entry.verified->jit_cache->code_bytes();
  }
  charged_bytes_ += cost - entry.charged;
  entry.charged = cost;
}

void VerifiedProgramCache::EvictWhileOverBounds() {
  while (entries_.size() > 1 &&
         (entries_.size() > capacity_ || charged_bytes_ > memory_budget_)) {
    if (entries_.size() > capacity_) {
      ++stats_.evictions;
    } else {
      ++stats_.byte_evictions;
    }
    charged_bytes_ -= lru_.back().charged;
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

Result<std::shared_ptr<const VerifiedProgram>> VerifiedProgramCache::GetOrVerify(
    const Program& program, VerifyOptions options) {
  std::string key = KeyOf(program, options);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    // A hit is where lazily compiled JIT code gets noticed: re-cost the
    // entry and shed colder ones if the envelope is now exceeded.
    Recharge(lru_.front());
    std::shared_ptr<const VerifiedProgram> verified = lru_.front().verified;
    EvictWhileOverBounds();
    return verified;
  }

  PARA_TRACE_SCOPE_ARG("sfi.verify", program.code.size());
  auto verified = Verify(program, options);  // copies: the caller keeps its Program
  if (!verified.ok()) {
    ++stats_.failures;
    return verified.status();
  }
  ++stats_.misses;
  auto shared = std::make_shared<const VerifiedProgram>(std::move(*verified));
  lru_.push_front(Entry{std::move(key), shared, 0});
  entries_.emplace(lru_.front().key, lru_.begin());
  Recharge(lru_.front());
  EvictWhileOverBounds();
  return shared;
}

bool VerifiedProgramCache::Invalidate(const std::vector<uint8_t>& identity) {
  bool dropped = false;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->verified->identity() == identity) {
      charged_bytes_ -= it->charged;
      entries_.erase(it->key);
      it = lru_.erase(it);
      ++stats_.invalidations;
      dropped = true;
    } else {
      ++it;
    }
  }
  return dropped;
}

void VerifiedProgramCache::Clear() {
  lru_.clear();
  entries_.clear();
  charged_bytes_ = 0;
}

}  // namespace para::sfi
