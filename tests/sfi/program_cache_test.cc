// VerifiedProgramCache: hit/miss accounting, LRU bounding, shared-artifact
// lifetime (an in-flight Vm outlives invalidation), and the reload contract —
// invalidating an identity forces the next load of those bytes through the
// verifier again.
#include <gtest/gtest.h>

#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/program_cache.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

Program MakeProgram(uint64_t salt) {
  Assembler as;
  as.EmitPush(salt);
  as.EmitLdArg(0);
  as.Emit(Op::kAdd);
  as.Emit(Op::kRetV);
  auto program = as.Finish();
  EXPECT_TRUE(program.ok());
  return std::move(*program);
}

TEST(ProgramCacheTest, HitsShareOneArtifact) {
  VerifiedProgramCache cache(8);
  Program program = MakeProgram(7);

  auto first = cache.GetOrVerify(program);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrVerify(program);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same artifact, not a copy
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  Vm vm(first->get(), ExecMode::kTrusted);
  auto result = vm.Run(0, 35);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42u);
}

TEST(ProgramCacheTest, StructurallyDifferentProgramsDoNotCollide) {
  // Identical code bytes, different memory size: must be distinct entries
  // (certification digests only the code; the cache must not conflate).
  VerifiedProgramCache cache(8);
  Program a = MakeProgram(1);
  Program b = a;
  b.memory_bytes = a.memory_bytes * 2;

  auto va = cache.GetOrVerify(a);
  auto vb = cache.GetOrVerify(b);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_NE(va->get(), vb->get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ProgramCacheTest, KeyIsInjectiveAcrossFieldBoundaries) {
  // Without length prefixes in the key, program B {code=C||le32(e1),
  // entries=[e2]} would alias program A {code=C, entries=[e1,e2]} and be
  // handed A's artifact without ever being verified itself.
  Program a = MakeProgram(3);
  a.entry_points = {0, 0};  // two entries at the same (valid) offset

  Program b = a;
  b.entry_points = {0};
  uint32_t moved = 0;
  for (int i = 0; i < 4; ++i) {
    b.code.push_back(static_cast<uint8_t>(moved >> (8 * i)));
  }

  VerifiedProgramCache cache(8);
  auto va = cache.GetOrVerify(a);
  ASSERT_TRUE(va.ok());
  // If the lookup aliased A, this would be a cache hit handing back A's
  // artifact; with an injective key it is a miss that verifies B itself.
  auto vb = cache.GetOrVerify(b);
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(va->get(), vb->get());
  EXPECT_NE((*va)->program.code.size(), (*vb)->program.code.size());
  EXPECT_EQ((*va)->entry_points.size(), 2u);
  EXPECT_EQ((*vb)->entry_points.size(), 1u);
}

TEST(ProgramCacheTest, VerifyOptionsKeyDistinctArtifacts) {
  // The same bytes verified with and without superinstruction fusion are
  // different executables; conflating them would hand a fusion-free caller a
  // fused stream (or vice versa).
  VerifiedProgramCache cache(8);
  Assembler as;
  as.EmitPush(0);
  as.Emit(Op::kLoad64);  // push+load: fusable
  as.Emit(Op::kRetV);
  auto program = as.Finish();
  ASSERT_TRUE(program.ok());

  auto fused = cache.GetOrVerify(*program);
  auto plain = cache.GetOrVerify(*program, {.fuse_superinstructions = false});
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(fused->get(), plain->get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_GT((*fused)->report.fused_pairs, 0u);
  EXPECT_EQ((*plain)->report.fused_pairs, 0u);

  // Repeat lookups hit their own slots.
  EXPECT_EQ(cache.GetOrVerify(*program)->get(), fused->get());
  EXPECT_EQ(cache.GetOrVerify(*program, {.fuse_superinstructions = false})->get(),
            plain->get());
  EXPECT_EQ(cache.stats().hits, 2u);

  // Invalidation is by identity: it retires both artifacts of those bytes.
  EXPECT_TRUE(cache.Invalidate(program->identity()));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCacheTest, KeyCoversEveryVerifyOptionsField) {
  // Regression tripwire for satellite audits: the cache key must cover
  // EVERY VerifyOptions field. A static_assert on sizeof(VerifyOptions) in
  // KeyOf's definition fires at compile time when a field is added; this
  // test is the run-time half — it enumerates all 2^N option vectors for
  // the N known fields and requires all keys pairwise distinct. When a new
  // field lands, the static_assert forces whoever adds it to extend both
  // KeyOf and this table.
  Program program = MakeProgram(3);
  const VerifyOptions variants[] = {
      {.fuse_superinstructions = false, .analyze = false},
      {.fuse_superinstructions = false, .analyze = true},
      {.fuse_superinstructions = true, .analyze = false},
      {.fuse_superinstructions = true, .analyze = true},
  };
  constexpr size_t kVariants = std::size(variants);
  static_assert(kVariants == (size_t{1} << 2),
                "cover every combination of the known VerifyOptions fields");
  std::string keys[kVariants];
  for (size_t i = 0; i < kVariants; ++i) {
    keys[i] = VerifiedProgramCache::KeyOf(program, variants[i]);
  }
  for (size_t i = 0; i < kVariants; ++i) {
    for (size_t j = i + 1; j < kVariants; ++j) {
      EXPECT_NE(keys[i], keys[j]) << "options vectors " << i << " and " << j
                                  << " alias one cache slot";
    }
  }
  // And the same options over a different structural tuple still diverge.
  Program other = MakeProgram(3);
  other.memory_bytes = program.memory_bytes * 2;
  EXPECT_NE(VerifiedProgramCache::KeyOf(other, variants[0]), keys[0]);
}

TEST(ProgramCacheTest, AnalyzedAndPlainArtifactsOccupyDistinctSlots) {
  // analyze=true rewrites the decoded stream (proof flags, dropped stack
  // checks); handing the analyzed artifact to an analyze=false caller would
  // violate its contract exactly like the fusion aliasing above.
  VerifiedProgramCache cache(8);
  Assembler as;
  as.EmitPush(0);
  as.Emit(Op::kLoad64);  // constant in-bounds: the analyzer elides it
  as.Emit(Op::kRetV);
  auto program = as.Finish();
  ASSERT_TRUE(program.ok());

  auto analyzed = cache.GetOrVerify(*program);  // analyze defaults on
  auto plain = cache.GetOrVerify(*program, {.analyze = false});
  ASSERT_TRUE(analyzed.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(analyzed->get(), plain->get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE((*analyzed)->analyzed);
  EXPECT_FALSE((*plain)->analyzed);
  EXPECT_GT((*analyzed)->report.elided_accesses, 0u);
  EXPECT_EQ((*plain)->report.elided_accesses, 0u);
  EXPECT_EQ(cache.GetOrVerify(*program)->get(), analyzed->get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProgramCacheTest, VerificationFailuresAreNotCached) {
  VerifiedProgramCache cache(8);
  Program bad;
  bad.code = {0xEE};
  bad.entry_points = {0};
  EXPECT_FALSE(cache.GetOrVerify(bad).ok());
  EXPECT_FALSE(cache.GetOrVerify(bad).ok());
  EXPECT_EQ(cache.stats().failures, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCacheTest, LruEvictionStaysBounded) {
  VerifiedProgramCache cache(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.GetOrVerify(MakeProgram(i)).ok());
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.stats().evictions, 6u);
  // The most recent 4 are still hits...
  for (uint64_t i = 6; i < 10; ++i) {
    ASSERT_TRUE(cache.GetOrVerify(MakeProgram(i)).ok());
  }
  EXPECT_EQ(cache.stats().hits, 4u);
  // ...and an evicted one re-verifies.
  uint64_t misses = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrVerify(MakeProgram(0)).ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST(ProgramCacheTest, InvalidationForcesReverifyButSparesLiveUsers) {
  // The reload contract: a loader replacing its program invalidates the old
  // identity; the next load of those bytes is a verifier round trip, while a
  // Vm still holding the old artifact keeps executing it safely.
  VerifiedProgramCache cache(8);
  Program program = MakeProgram(5);

  auto verified = cache.GetOrVerify(program);
  ASSERT_TRUE(verified.ok());
  std::shared_ptr<const VerifiedProgram> live = *verified;
  Vm vm(live.get(), ExecMode::kSandboxed);

  EXPECT_TRUE(cache.Invalidate(program.identity()));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.Invalidate(program.identity()));  // already gone

  // The live artifact is unaffected by invalidation.
  auto result = vm.Run(0, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 6u);

  // Reload of the same bytes is a miss (re-verify), producing a distinct
  // artifact.
  uint64_t misses = cache.stats().misses;
  auto reloaded = cache.GetOrVerify(program);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(reloaded->get(), live.get());
}

TEST(ProgramCacheTest, MemoryBudgetEvictsByBytesButKeepsMostRecent) {
  Program a = MakeProgram(1), b = MakeProgram(2), c = MakeProgram(3);
  // Probe the deterministic per-entry decoded cost.
  VerifiedProgramCache probe(8);
  ASSERT_TRUE(probe.GetOrVerify(a).ok());
  const size_t cost = probe.charged_bytes();
  ASSERT_GT(cost, 0u);

  // Budget fits two entries but not three; capacity is not the binding bound.
  VerifiedProgramCache cache(64, cost * 2 + cost / 2);
  ASSERT_TRUE(cache.GetOrVerify(a).ok());
  ASSERT_TRUE(cache.GetOrVerify(b).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().byte_evictions, 0u);

  ASSERT_TRUE(cache.GetOrVerify(c).ok());  // pushes over budget: LRU (a) goes
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().byte_evictions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // count bound never hit
  EXPECT_LE(cache.charged_bytes(), cache.memory_budget());

  // The evicted identity re-verifies on its next load.
  uint64_t misses = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrVerify(a).ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);

  // A budget too small for even one entry still keeps the most recent one:
  // refusing the program just asked for would defeat the cache entirely.
  VerifiedProgramCache tiny(64, 1);
  ASSERT_TRUE(tiny.GetOrVerify(a).ok());
  ASSERT_TRUE(tiny.GetOrVerify(b).ok());
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.stats().byte_evictions, 1u);
  EXPECT_GT(tiny.charged_bytes(), tiny.memory_budget());  // tolerated for MRU
}

TEST(ProgramCacheTest, JitCodeBytesChargeTowardTheBudget) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  Program a = MakeProgram(10), b = MakeProgram(11), c = MakeProgram(12);

  // Probe both cost components: the decoded artifact, and the native code a
  // JIT'd run attaches to it.
  VerifiedProgramCache probe(8);
  auto probed = probe.GetOrVerify(a);
  ASSERT_TRUE(probed.ok());
  const size_t decoded_cost = probe.charged_bytes();
  {
    Vm vm(probed->get(), ExecMode::kSandboxed, VmBackend::kJit);
    ASSERT_TRUE(vm.Run(0, 1).ok());
    ASSERT_EQ(vm.backend(), VmBackend::kJit);
  }
  const size_t jit_bytes = (*probed)->jit_cache->code_bytes();
  ASSERT_GT(jit_bytes, 0u);

  // Room for three decoded artifacts but not for three plus compiled code.
  VerifiedProgramCache cache(64, decoded_cost * 3 + jit_bytes / 2);
  auto va = cache.GetOrVerify(a);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(cache.GetOrVerify(b).ok());
  ASSERT_TRUE(cache.GetOrVerify(c).ok());
  EXPECT_EQ(cache.size(), 3u);
  const size_t charged_before = cache.charged_bytes();

  // Compiling happens lazily inside a Vm; the cache only learns about the
  // growth when the entry is next touched.
  Vm vm(va->get(), ExecMode::kSandboxed, VmBackend::kJit);
  ASSERT_TRUE(vm.Run(0, 1).ok());
  EXPECT_EQ((*va)->jit_cache->code_bytes(), jit_bytes);
  EXPECT_EQ(cache.charged_bytes(), charged_before);

  // Touching `a` re-samples its cost (decoded + native) and the byte bound
  // evicts least-recently-used entries to make room.
  ASSERT_TRUE(cache.GetOrVerify(a).ok());
  EXPECT_GT(cache.stats().byte_evictions, 0u);
  EXPECT_LT(cache.size(), 3u);
  EXPECT_TRUE(cache.charged_bytes() <= cache.memory_budget() || cache.size() == 1);

  // The recharged entry itself survived — same artifact, compiled code and
  // all, still shared with the in-flight Vm.
  auto again = cache.GetOrVerify(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), va->get());
}

}  // namespace
}  // namespace para::sfi
