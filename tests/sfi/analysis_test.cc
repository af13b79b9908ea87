// The static analyzer's own contract (analysis.h), at two levels: the
// abstract domain's algebra (interval join/widen, stack-state join), and the
// verifier-integrated pass — check elision with its soundness floor,
// verify-time rejection of provable faults, redundant-stack-check dropping,
// and unreachable-code accounting. The bit-exactness of elided execution
// against the plain artifact is covered by sfi_differential_test.cc.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "src/sfi/analysis.h"
#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

using analysis::AbsState;
using analysis::Interval;
using analysis::JoinInto;

VerifiedProgram MustVerify(const char* src, VerifyOptions options = {}) {
  auto program = Assembler::Assemble(src);
  EXPECT_TRUE(program.ok()) << program.status().message();
  auto verified = Verify(*program, options);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  return std::move(*verified);
}

// ---- abstract domain algebra ----

TEST(IntervalTest, JoinIsConvexHull) {
  EXPECT_EQ(Join(Interval::Const(3), Interval::Const(9)), (Interval{3, 9}));
  EXPECT_EQ(Join((Interval{2, 5}), (Interval{4, 12})), (Interval{2, 12}));
  // Join with Top stays Top; join with a subset is a no-op.
  EXPECT_TRUE(Join(Interval::Top(), Interval::Const(7)).IsTop());
  EXPECT_EQ(Join((Interval{0, 100}), (Interval{10, 20})), (Interval{0, 100}));
}

TEST(IntervalTest, WidenSendsMovedBoundsToExtremes) {
  // Only the bound that moved is widened: a growing hi goes to ~0, a
  // shrinking lo goes to 0; a stable bound stays put. This is what makes the
  // fixpoint terminate on loop back-edges without losing the stable side.
  const Interval prev{5, 10};
  EXPECT_EQ(analysis::Widen(prev, Interval{5, 11}), (Interval{5, ~0ull}));
  EXPECT_EQ(analysis::Widen(prev, Interval{4, 10}), (Interval{0, 10}));
  EXPECT_EQ(analysis::Widen(prev, Interval{4, 11}), (Interval{0, ~0ull}));
  EXPECT_EQ(analysis::Widen(prev, prev), prev);
}

TEST(AbsStateTest, JoinAlignsStackSuffixesFromTheTop) {
  // Two predecessors reach a merge with different tracked depths: the join
  // keeps the common suffix (aligned at top-of-stack) and absorbs the rest
  // into the untracked base. Slot values merge by interval join.
  AbsState a = AbsState::Entry();
  a.known = {Interval::Const(1), Interval::Const(2), Interval::Const(3)};
  AbsState b = AbsState::Entry();
  b.known = {Interval::Const(20), Interval::Const(30)};

  AbsState merged = a;
  EXPECT_TRUE(JoinInto(merged, b, /*widen=*/false));
  ASSERT_EQ(merged.known.size(), 2u);  // common suffix length
  EXPECT_EQ(merged.known[0], (Interval{2, 20}));  // below-top slots joined
  EXPECT_EQ(merged.known[1], (Interval{3, 30}));  // top-of-stack joined
  // Depth bounds cover both predecessors: a had 3, b had 2.
  EXPECT_EQ(merged.depth_lo(), 2u);
  EXPECT_EQ(merged.depth_hi(), 3u);
}

TEST(AbsStateTest, JoinIsIdempotentAndReportsNoChange) {
  AbsState a = AbsState::Entry();
  a.known = {Interval{1, 5}, Interval{2, 6}};
  AbsState copy = a;
  EXPECT_FALSE(JoinInto(a, copy, /*widen=*/false));  // self-join: fixpoint
  EXPECT_EQ(a.known.size(), 2u);
  EXPECT_EQ(a.known[0], (Interval{1, 5}));
}

// ---- check elision ----

TEST(AnalysisTest, ConstantAccessesAreElidedAndCounted) {
  // Constant addresses under the 4 KiB memory: every check discharged.
  auto verified = MustVerify(
      "push 0\nload64\n"
      "push 8\nload64\n"
      "add\n"
      "push 16\nswap\nstore64\n"
      "push 16\nload64\nretv");
  EXPECT_EQ(verified.report.elided_accesses, 4u);
  EXPECT_EQ(verified.report.unreachable_insns, 0u);
  // Floor = the largest addr+width the proofs assumed: 16 + 8.
  EXPECT_EQ(verified.elide_floor, 24u);

  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm vm(&verified, ExecMode::kSandboxed, backend);
    auto result = vm.Run(0);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(*result, 0u);
    // Coverage accounting is unchanged by elision; all 4 were discharged.
    EXPECT_EQ(vm.stats().bounds_checks, 4u);
    EXPECT_EQ(vm.stats().static_proofs, 4u);
  }

  // Trusted mode has no checks to discharge: static_proofs stays 0.
  Vm trusted(&verified, ExecMode::kTrusted);
  ASSERT_TRUE(trusted.Run(0).ok());
  EXPECT_EQ(trusted.stats().static_proofs, 0u);
  EXPECT_EQ(trusted.stats().bounds_checks, 0u);
}

TEST(AnalysisTest, AnalyzeOffLeavesEverythingChecked) {
  auto verified = MustVerify("push 0\nload64\nretv", {.analyze = false});
  EXPECT_EQ(verified.report.elided_accesses, 0u);
  EXPECT_EQ(verified.elide_floor, 0u);
  Vm vm(&verified, ExecMode::kSandboxed);
  ASSERT_TRUE(vm.Run(0).ok());
  EXPECT_EQ(vm.stats().bounds_checks, 1u);
  EXPECT_EQ(vm.stats().static_proofs, 0u);
}

TEST(AnalysisTest, RuntimeDependentAddressesAreNotElided) {
  // The address comes from an argument: nothing provable, check stays.
  auto verified = MustVerify("ldarg 0\nload64\nretv");
  EXPECT_EQ(verified.report.elided_accesses, 0u);
  Vm vm(&verified, ExecMode::kSandboxed);
  ASSERT_TRUE(vm.Run(0, 0).ok());
  EXPECT_EQ(vm.stats().bounds_checks, 1u);
  EXPECT_EQ(vm.stats().static_proofs, 0u);
  // And the retained check still fires on a bad argument.
  Vm bad(&verified, ExecMode::kSandboxed);
  auto oob = bad.Run(0, 1ull << 40);
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), ErrorCode::kOutOfRange);
}

TEST(AnalysisTest, MaskedAddressIsProvedThroughArithmetic) {
  // addr = arg & 0xFF8: the AND transfer bounds it to [0, 0xFF8], and
  // 0xFF8 + 8 == 4096 == the usable memory size — provable for ANY arg.
  auto verified = MustVerify("ldarg 0\npush 0xFF8\nand\nload64\nretv");
  EXPECT_EQ(verified.report.elided_accesses, 1u);
  EXPECT_EQ(verified.elide_floor, 4096u);
  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm vm(&verified, ExecMode::kSandboxed, backend);
    auto result = vm.Run(0, 0xFFFFFFFFFFFFFFFFull);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(vm.stats().static_proofs, 1u);
  }
}

TEST(AnalysisTest, LoopVariantAddressFallsBackToTopSoundly) {
  // A counted loop storing through an induction-variable address: widening
  // sends the counter's range to the extremes at the back-edge join, so the
  // store is neither elidable nor provably faulting — the check stays, and
  // execution is untouched. This is the soundness half of widening: a loop
  // must never make the analyzer *more* confident.
  const char* src =
      "push 0\n"            // i = 0
      "loop:\n"
      "dup\npush 100\nltu\n"
      "jz done\n"
      "dup\npush 8\nmul\n"  // addr = i*8 (loop-variant)
      "push 7\n"
      "store64\n"
      "push 1\nadd\n"
      "jmp loop\n"
      "done:\n"
      "retv";
  auto verified = MustVerify(src);
  EXPECT_EQ(verified.report.elided_accesses, 0u);
  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm vm(&verified, ExecMode::kSandboxed, backend);
    auto result = vm.Run(0);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(*result, 100u);
    EXPECT_EQ(vm.stats().bounds_checks, 100u);
    EXPECT_EQ(vm.stats().static_proofs, 0u);
    uint64_t stored = 0;
    std::memcpy(&stored, vm.memory().data() + 99 * 8, 8);
    EXPECT_EQ(stored, 7u);
  }
}

// ---- verify-time rejection ----

TEST(AnalysisTest, ProvablyOutOfBoundsLoadIsRejected) {
  auto program = Assembler::Assemble("push 4096\nload64\nretv");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(verified.status().message(),
            std::string_view("analysis: load provably out of bounds"));
  // The same program is accepted — and faults at run time — without analysis.
  EXPECT_TRUE(Verify(*program, {.analyze = false}).ok());
}

TEST(AnalysisTest, ProvablyOutOfBoundsStoreIsRejected) {
  // 4089 + 8 crosses the 4096 limit by one byte.
  auto program = Assembler::Assemble("push 4089\npush 1\nstore64\nhalt");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(verified.status().message(),
            std::string_view("analysis: store provably out of bounds"));
  // 4088 + 8 == 4096 is the last legal store: accepted AND elided.
  auto edge = MustVerify("push 4088\npush 1\nstore64\nhalt");
  EXPECT_EQ(edge.report.elided_accesses, 1u);
}

TEST(AnalysisTest, ProvableDivideByZeroIsRejected) {
  for (const char* src : {"push 7\npush 0\ndivu\nretv", "push 7\npush 0\nremu\nretv"}) {
    auto program = Assembler::Assemble(src);
    ASSERT_TRUE(program.ok());
    auto verified = Verify(*program);
    ASSERT_FALSE(verified.ok()) << src;
    EXPECT_EQ(verified.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(verified.status().message(),
              std::string_view("analysis: provable divide by zero"));
  }
  // A *possible* zero divisor (range includes 0 but isn't pinned to it)
  // must NOT be rejected — that is the run-time fault's job.
  auto possible = Assembler::Assemble("push 7\nldarg 0\ndivu\nretv");
  ASSERT_TRUE(possible.ok());
  EXPECT_TRUE(Verify(*possible).ok());
}

TEST(AnalysisTest, UnreachableFaultIsNotRejected) {
  // The faulting load sits behind a constant-false branch: provably
  // unreachable, so the program is accepted and the dead code is flagged.
  auto verified = MustVerify(
      "push 0\n"
      "jz done\n"
      "push 4096\nload64\ndrop\n"
      "done:\n"
      "push 1\nretv");
  EXPECT_GT(verified.report.unreachable_insns, 0u);
  Vm vm(&verified, ExecMode::kSandboxed);
  auto result = vm.Run(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 1u);
}

// ---- redundant stack-check dropping ----

TEST(AnalysisTest, ImpliedStackChecksAreDropped) {
  // Entry state is exactly-empty, every block's depth is fully tracked, so
  // every synthetic envelope is implied and dropped. The jmp forces a block
  // split whose check is implied by its (sole) predecessor.
  const char* src =
      "push 1\npush 2\n"
      "jmp next\n"
      "next:\n"
      "add\nretv";
  auto analyzed = MustVerify(src);
  auto plain = MustVerify(src, {.analyze = false});
  EXPECT_GT(plain.report.stack_checks, 0u);
  EXPECT_GT(analyzed.report.dropped_stack_checks, 0u);
  EXPECT_EQ(analyzed.report.stack_checks + analyzed.report.dropped_stack_checks,
            plain.report.stack_checks);

  // Dropping synthetics must not change results or metering on any backend.
  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm a(&analyzed, ExecMode::kSandboxed, backend);
    Vm p(&plain, ExecMode::kSandboxed, backend);
    auto ra = a.Run(0);
    auto rp = p.Run(0);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(*ra, *rp);
    EXPECT_EQ(*ra, 3u);
    EXPECT_EQ(a.stats().instructions, p.stats().instructions);
  }
}

TEST(AnalysisTest, UntrackableDepthKeepsTheCheck) {
  // A loop whose net stack effect per iteration is 0 but whose depth at the
  // header is joined from entry and back-edge: still exactly tracked here,
  // but recursion through kCall joins call-site states with the fall-through
  // TopState, so the callee's envelope must survive. The cheap observable:
  // a self-recursive function keeps at least one check and still faults on
  // call-depth exhaustion, proving dropped checks never disabled the
  // envelope machinery wholesale.
  const char* src =
      "entry:\n"
      "push 1\n"
      "call entry\n"
      "retv";
  auto verified = MustVerify(src);
  Vm vm(&verified, ExecMode::kSandboxed);
  auto result = vm.Run(0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
}

// ---- unreachable-code accounting ----

TEST(AnalysisTest, UnreachableCodeIsFlagged) {
  auto verified = MustVerify(
      "push 1\nretv\n"
      "push 2\nretv");  // dead tail: 2 real instructions
  EXPECT_EQ(verified.report.unreachable_insns, 2u);
  auto clean = MustVerify("push 1\nretv");
  EXPECT_EQ(clean.report.unreachable_insns, 0u);
}

// ---- elide-floor fallback ----

TEST(AnalysisTest, ShrunkMemoryFallsBackToCheckedExecution) {
  // The proofs assumed 4096 usable bytes (elide_floor below). Shrinking the
  // VM's memory under that floor must re-enable the checked variants: the
  // access faults exactly as an unanalyzed program would, static_proofs
  // stays 0, and nothing touches memory out of bounds.
  auto verified = MustVerify("push 0xFF8\nload64\nretv");
  ASSERT_EQ(verified.elide_floor, 4096u);
  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm vm(&verified, ExecMode::kSandboxed, backend);
    // Warm run at full size: elided.
    auto warm = vm.Run(0);
    ASSERT_TRUE(warm.ok()) << warm.status().message();
    EXPECT_EQ(vm.stats().static_proofs, 1u);

    // Shrink usable memory below the floor (keep the 8-byte bounds slack).
    vm.memory().resize(512 + 8);
    auto cold = vm.Run(0);
    ASSERT_FALSE(cold.ok());
    EXPECT_EQ(cold.status().code(), ErrorCode::kOutOfRange);
    // The fallback run counted its checks dynamically, proving nothing.
    EXPECT_EQ(vm.stats().static_proofs, 1u);  // unchanged from the warm run
    EXPECT_EQ(vm.stats().bounds_checks, 2u);  // one per run, both counted
  }
}

TEST(AnalysisTest, BurstRebaseBelowFloorFallsBack) {
  // A burst re-bases guest address 0 deep into the arena, shrinking the
  // usable window below the floor: per-call fallback must kick in (and the
  // CallMany fast path must decline such layouts — covered by its own
  // layout precheck, exercised here through the Call path).
  auto verified = MustVerify("push 0xFF8\nload64\nretv");
  ASSERT_EQ(verified.elide_floor, 4096u);
  for (VmBackend backend : {VmBackend::kThreaded, VmBackend::kJit}) {
    if (backend == VmBackend::kJit && !JitAvailable()) {
      continue;
    }
    Vm vm(&verified, ExecMode::kSandboxed, backend);
    auto burst = vm.BeginBurst(0);
    auto front = burst.Call(0);  // full window: elided path
    ASSERT_TRUE(front.ok()) << front.status().message();
    auto deep = burst.Call(2048);  // 4096-2048 < floor: checked fallback
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), ErrorCode::kOutOfRange);
  }
}

// ---- stats parity across backends ----

TEST(AnalysisTest, StaticProofCountsAgreeAcrossBackends) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  auto verified = MustVerify(
      "push 0\nload64\n"
      "push 64\nload64\nadd\n"
      "push 128\nswap\nstore64\n"
      "push 128\nload64\nretv");
  Vm threaded(&verified, ExecMode::kSandboxed, VmBackend::kThreaded);
  Vm jitted(&verified, ExecMode::kSandboxed, VmBackend::kJit);
  ASSERT_EQ(jitted.backend(), VmBackend::kJit);
  auto t = threaded.Run(0);
  auto j = jitted.Run(0);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(*t, *j);
  EXPECT_EQ(threaded.stats().static_proofs, 4u);
  EXPECT_EQ(jitted.stats().static_proofs, 4u);
  EXPECT_EQ(threaded.stats().bounds_checks, jitted.stats().bounds_checks);
}

}  // namespace
}  // namespace para::sfi
