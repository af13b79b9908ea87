// Differential testing: randomly generated, verifier-clean, terminating
// programs must behave identically under sandboxed and trusted execution.
// This is the semantic-equivalence guarantee that makes the E7 comparison
// (and the paper's "omit all run time checks" claim) sound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

// Generates a structured random program: straight-line arithmetic over the
// stack plus in-bounds loads/stores, tracked stack depth, one retv at the
// end. No backward jumps, so termination is structural.
Program GenerateProgram(para::Random& rng, int instructions) {
  Assembler assembler;
  int depth = 0;
  auto push_const = [&]() {
    assembler.EmitPush(rng.Next() & 0xFFFF);
    ++depth;
  };
  push_const();
  for (int i = 0; i < instructions; ++i) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
        push_const();
        break;
      case 2:
        assembler.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
        ++depth;
        break;
      case 3:
        if (depth >= 2) {
          static const Op kBinOps[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kAnd, Op::kOr,
                                       Op::kXor, Op::kEq, Op::kNe, Op::kLtU, Op::kGtU};
          assembler.Emit(kBinOps[rng.NextBelow(std::size(kBinOps))]);
          --depth;
        } else {
          push_const();
        }
        break;
      case 4:
        if (depth >= 1) {
          assembler.Emit(Op::kDup);
          ++depth;
        } else {
          push_const();
        }
        break;
      case 5:
        if (depth >= 2) {
          assembler.Emit(Op::kSwap);
        } else {
          push_const();
        }
        break;
      case 6: {
        // In-bounds load: address = small constant.
        assembler.EmitPush(rng.NextBelow(512) * 8);
        assembler.Emit(Op::kLoad64);
        ++depth;
        break;
      }
      case 7: {
        // In-bounds store: push addr, value; store.
        assembler.EmitPush(rng.NextBelow(512) * 8);
        assembler.EmitPush(rng.Next() & 0xFFFFFF);
        assembler.Emit(Op::kStore64);
        break;
      }
      case 8:
        if (depth >= 1) {
          assembler.Emit(Op::kNot);
        } else {
          push_const();
        }
        break;
      case 9:
        if (depth >= 2) {
          assembler.Emit(Op::kDrop);
          --depth;
        } else {
          push_const();
        }
        break;
    }
    // Keep depth bounded well under the VM limit.
    if (depth > 64) {
      assembler.Emit(Op::kDrop);
      --depth;
    }
  }
  while (depth > 1) {
    assembler.Emit(Op::kDrop);
    --depth;
  }
  assembler.Emit(Op::kRetV);
  auto result = assembler.Finish(4096);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

class SfiDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SfiDifferentialTest, ModesAgreeOnRandomPrograms) {
  para::Random rng(static_cast<uint64_t>(GetParam()) * 0x9E37 + 5);
  for (int round = 0; round < 40; ++round) {
    Program program = GenerateProgram(rng, 60);
    auto verified = Verify(program);
    ASSERT_TRUE(verified.ok());

    uint64_t a0 = rng.Next(), a1 = rng.Next(), a2 = rng.Next(), a3 = rng.Next();
    Vm trusted(&*verified, ExecMode::kTrusted, VmBackend::kThreaded);
    Vm sandboxed(&*verified, ExecMode::kSandboxed, VmBackend::kThreaded);
    auto t = trusted.Run(0, a0, a1, a2, a3);
    auto s = sandboxed.Run(0, a0, a1, a2, a3);
    ASSERT_TRUE(t.ok()) << "trusted failed: " << t.status().message();
    ASSERT_TRUE(s.ok()) << "sandboxed failed: " << s.status().message();
    EXPECT_EQ(*t, *s) << "divergence in round " << round;
    // Memory states must match too.
    EXPECT_EQ(trusted.memory(), sandboxed.memory()) << "memory divergence, round " << round;
    // And the sandbox must actually have exercised its checks.
    EXPECT_GE(sandboxed.stats().bounds_checks, 0u);
    EXPECT_EQ(trusted.stats().bounds_checks, 0u);
    // Metering is mode-independent: both engines retire the same stream.
    EXPECT_EQ(trusted.stats().instructions, sandboxed.stats().instructions);

    // The JIT backend must reproduce the threaded results exactly — value,
    // memory image, and every counter — in both modes.
    if (JitAvailable()) {
      for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
        Vm& oracle = mode == ExecMode::kSandboxed ? sandboxed : trusted;
        Vm jit(&*verified, mode, VmBackend::kJit);
        auto j = jit.Run(0, a0, a1, a2, a3);
        ASSERT_TRUE(j.ok()) << "jit failed: " << j.status().message();
        EXPECT_EQ(*j, *t) << "jit divergence, round " << round;
        EXPECT_EQ(jit.memory(), oracle.memory()) << "jit memory divergence, round " << round;
        EXPECT_EQ(jit.stats().instructions, oracle.stats().instructions) << round;
        EXPECT_EQ(jit.stats().bounds_checks, oracle.stats().bounds_checks) << round;
        EXPECT_EQ(jit.stats().jit_runs, 1u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfiDifferentialTest, ::testing::Range(0, 6));

TEST(SfiDifferentialTest, FaultingProgramsAgreeAcrossBackends) {
  // Fuzz the fail-closed paths: random programs that may divide by zero or
  // touch out-of-bounds addresses, run sandboxed with randomly starved fuel.
  // The JIT and the threaded loop must agree on everything observable —
  // success/failure, Status code and message, value, memory image, and all
  // VmStats counters. (Trusted mode is never fed unsafe programs, so the
  // fault fuzz is sandboxed-only; trusted parity is covered by the in-bounds
  // fuzz above and the metering sweep.)
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  para::Random rng(0xFA17);
  for (int round = 0; round < 200; ++round) {
    Assembler as;
    int depth = 0;
    for (int i = 0, n = 4 + static_cast<int>(rng.NextBelow(30)); i < n; ++i) {
      switch (rng.NextBelow(6)) {
        case 0:
          as.EmitPush(rng.Next() & 0xFFFF);
          ++depth;
          break;
        case 1:
          as.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
          ++depth;
          break;
        case 2: {
          // Address occasionally far out of bounds.
          uint64_t addr = rng.NextBool(0.3) ? (1ull << 26) + rng.NextBelow(4096)
                                            : rng.NextBelow(512) * 8;
          as.EmitPush(addr);
          as.Emit(Op::kLoad64);
          ++depth;
          break;
        }
        case 3: {
          uint64_t addr = rng.NextBool(0.3) ? (1ull << 26) + rng.NextBelow(4096)
                                            : rng.NextBelow(512) * 8;
          as.EmitPush(addr);
          as.EmitPush(rng.Next() & 0xFFFF);
          as.Emit(Op::kStore64);
          break;
        }
        case 4:
          if (depth >= 2) {
            // Divisor may be zero (an ldarg of a zero argument, or a pushed 0).
            as.Emit(rng.NextBool(0.5) ? Op::kDivU : Op::kRemU);
            --depth;
          } else {
            as.EmitPush(rng.NextBelow(3));  // sometimes 0: a future divisor
            ++depth;
          }
          break;
        case 5:
          if (depth >= 2) {
            as.Emit(rng.NextBool(0.5) ? Op::kAdd : Op::kSub);
            --depth;
          } else {
            as.EmitPush(rng.NextBelow(3));
            ++depth;
          }
          break;
      }
    }
    if (depth == 0) {
      as.EmitPush(0);
      ++depth;
    }
    while (depth > 1) {
      as.Emit(Op::kDrop);
      --depth;
    }
    as.Emit(Op::kRetV);
    auto program = as.Finish(4096);
    ASSERT_TRUE(program.ok());
    // analyze=false: these programs are *built* to fault (constant far-OOB
    // addresses), which the analyzer would reject at verify time. The fault
    // fuzz's subject is run-time parity, so it runs on the plain artifact;
    // AnalysisOnOffAgree below covers the analyzed side.
    auto verified = Verify(*program, {.analyze = false});
    ASSERT_TRUE(verified.ok());

    uint64_t a0 = rng.NextBelow(4);  // small: zero divisors are common
    uint64_t fuel = rng.NextBool(0.25) ? rng.NextBelow(24) : Vm::kDefaultFuel;
    Vm threaded(&*verified, ExecMode::kSandboxed, VmBackend::kThreaded);
    Vm jitted(&*verified, ExecMode::kSandboxed, VmBackend::kJit);
    threaded.set_fuel(fuel);
    jitted.set_fuel(fuel);
    auto t = threaded.Run(0, a0);
    auto j = jitted.Run(0, a0);
    ASSERT_EQ(t.ok(), j.ok()) << "round " << round << " threaded: " << t.status().message()
                              << " jit: " << j.status().message();
    if (t.ok()) {
      EXPECT_EQ(*t, *j) << round;
    } else {
      EXPECT_EQ(t.status().code(), j.status().code()) << round;
      EXPECT_EQ(t.status().message(), j.status().message()) << round;
    }
    EXPECT_EQ(threaded.memory(), jitted.memory()) << round;
    EXPECT_EQ(threaded.stats().instructions, jitted.stats().instructions) << round;
    EXPECT_EQ(threaded.stats().bounds_checks, jitted.stats().bounds_checks) << round;
    EXPECT_EQ(threaded.stats().calls, jitted.stats().calls) << round;
  }
}

TEST(SfiDifferentialTest, SandboxCatchesWhatTrustedWouldCorrupt) {
  // The complementary property: for an out-of-bounds program, only the
  // sandbox notices. (Trusted mode is only ever fed verified+certified
  // code, so we assert the sandbox side alone.)
  auto program = Assembler::Assemble(R"(
    push 0xFFFFFF8
    load64
    retv
  )");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program, {.analyze = false});
  ASSERT_TRUE(verified.ok());
  Vm sandboxed(&*verified, ExecMode::kSandboxed);
  auto result = sandboxed.Run(0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), para::ErrorCode::kOutOfRange);

  // With analysis on, the same program never reaches execution: the verifier
  // rejects the provable fault under the same code the sandbox would raise.
  auto rejected = Verify(*program);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), para::ErrorCode::kOutOfRange);
}

class AnalysisDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalysisDifferentialTest, AnalysisOnOffAgreeBitExactly) {
  // The elision soundness contract: verifying with analyze on and off must
  // produce observably identical executions — value, Status code AND
  // message, memory image, fuel boundaries, and every VmStats counter except
  // static_proofs (the analyzed artifact's elided subset) — on both backends
  // and in both modes. Uses the in-bounds generator (constant addresses
  // < 4096), so elision actually fires; the analyzed artifact must still
  // *count* every access in bounds_checks.
  para::Random rng(static_cast<uint64_t>(GetParam()) * 0xA11A + 3);
  uint64_t total_proofs = 0;
  for (int round = 0; round < 20; ++round) {
    Program program = GenerateProgram(rng, 60);
    auto plain = Verify(program, {.analyze = false});
    auto analyzed = Verify(program);  // analyze defaults on
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().message();

    uint64_t a0 = rng.Next(), a1 = rng.Next(), a2 = rng.Next(), a3 = rng.Next();
    // Starved fuel in some rounds: elision must not move fuel boundaries.
    uint64_t fuel = rng.NextBool(0.25) ? rng.NextBelow(40) : Vm::kDefaultFuel;
    std::vector<VmBackend> backends = {VmBackend::kThreaded};
    if (JitAvailable()) {
      backends.push_back(VmBackend::kJit);
    }
    for (VmBackend backend : backends) {
      for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
        if (mode == ExecMode::kTrusted && fuel != Vm::kDefaultFuel) {
          continue;  // trusted runs unmetered; the starved round is moot
        }
        Vm off(&*plain, mode, backend);
        Vm on(&*analyzed, mode, backend);
        off.set_fuel(fuel);
        on.set_fuel(fuel);
        auto r_off = off.Run(0, a0, a1, a2, a3);
        auto r_on = on.Run(0, a0, a1, a2, a3);
        ASSERT_EQ(r_off.ok(), r_on.ok())
            << "round " << round << " off: " << r_off.status().message()
            << " on: " << r_on.status().message();
        if (r_off.ok()) {
          EXPECT_EQ(*r_off, *r_on) << round;
        } else {
          EXPECT_EQ(r_off.status().code(), r_on.status().code()) << round;
          EXPECT_EQ(r_off.status().message(), r_on.status().message()) << round;
        }
        EXPECT_EQ(off.memory(), on.memory()) << round;
        EXPECT_EQ(off.stats().instructions, on.stats().instructions) << round;
        // bounds_checks is check *coverage*, not check cost: identical.
        EXPECT_EQ(off.stats().bounds_checks, on.stats().bounds_checks) << round;
        EXPECT_EQ(off.stats().calls, on.stats().calls) << round;
        EXPECT_EQ(off.stats().host_calls, on.stats().host_calls) << round;
        // static_proofs: zero without analysis or trust; bounded by coverage.
        EXPECT_EQ(off.stats().static_proofs, 0u) << round;
        if (mode == ExecMode::kTrusted) {
          EXPECT_EQ(on.stats().static_proofs, 0u) << round;
        } else {
          EXPECT_LE(on.stats().static_proofs, on.stats().bounds_checks) << round;
          total_proofs += on.stats().static_proofs;
        }
      }
    }
  }
  // The generator only emits constant in-bounds addresses, so across the
  // sweep the analyzer must have discharged a nonzero number of checks —
  // otherwise this test is vacuously comparing identical artifacts.
  EXPECT_GT(total_proofs, 0u);
}

TEST_P(AnalysisDifferentialTest, AnalysisOnOffAgreeOnFaultingPrograms) {
  // Fault-path flavor: programs with far-OOB constant addresses and zero
  // divisors. When analyze-on verification *accepts* such a program (the
  // fault was not provable/reachable), execution must be bit-identical to
  // the plain artifact; when it rejects, the rejection must carry one of the
  // two analysis codes. Reuses the FaultingProgramsAgreeAcrossBackends
  // generator shape, threaded-only (JIT parity is covered above).
  para::Random rng(static_cast<uint64_t>(GetParam()) * 0xFA17 + 11);
  int rejected = 0, compared = 0;
  for (int round = 0; round < 120; ++round) {
    Assembler as;
    int depth = 0;
    for (int i = 0, n = 4 + static_cast<int>(rng.NextBelow(30)); i < n; ++i) {
      switch (rng.NextBelow(5)) {
        case 0:
          as.EmitPush(rng.Next() & 0xFFFF);
          ++depth;
          break;
        case 1:
          as.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
          ++depth;
          break;
        case 2: {
          uint64_t addr = rng.NextBool(0.2) ? (1ull << 26) + rng.NextBelow(4096)
                                            : rng.NextBelow(512) * 8;
          as.EmitPush(addr);
          as.Emit(Op::kLoad64);
          ++depth;
          break;
        }
        case 3:
          if (depth >= 2) {
            as.Emit(rng.NextBool(0.5) ? Op::kDivU : Op::kRemU);
            --depth;
          } else {
            as.EmitPush(rng.NextBelow(3));
            ++depth;
          }
          break;
        case 4:
          if (depth >= 2) {
            as.Emit(rng.NextBool(0.5) ? Op::kAdd : Op::kSub);
            --depth;
          } else {
            as.EmitPush(rng.NextBelow(3));
            ++depth;
          }
          break;
      }
    }
    if (depth == 0) {
      as.EmitPush(0);
      ++depth;
    }
    while (depth > 1) {
      as.Emit(Op::kDrop);
      --depth;
    }
    as.Emit(Op::kRetV);
    auto program = as.Finish(4096);
    ASSERT_TRUE(program.ok());
    auto plain = Verify(*program, {.analyze = false});
    ASSERT_TRUE(plain.ok());
    auto analyzed = Verify(*program);
    if (!analyzed.ok()) {
      EXPECT_TRUE(analyzed.status().code() == para::ErrorCode::kOutOfRange ||
                  analyzed.status().code() == para::ErrorCode::kInvalidArgument)
          << analyzed.status().message();
      ++rejected;
      continue;
    }
    ++compared;
    uint64_t a0 = rng.NextBelow(4);
    uint64_t fuel = rng.NextBool(0.25) ? rng.NextBelow(24) : Vm::kDefaultFuel;
    Vm off(&*plain, ExecMode::kSandboxed, VmBackend::kThreaded);
    Vm on(&*analyzed, ExecMode::kSandboxed, VmBackend::kThreaded);
    off.set_fuel(fuel);
    on.set_fuel(fuel);
    auto r_off = off.Run(0, a0);
    auto r_on = on.Run(0, a0);
    ASSERT_EQ(r_off.ok(), r_on.ok())
        << "round " << round << " off: " << r_off.status().message()
        << " on: " << r_on.status().message();
    if (!r_off.ok()) {
      EXPECT_EQ(r_off.status().code(), r_on.status().code()) << round;
      EXPECT_EQ(r_off.status().message(), r_on.status().message()) << round;
    } else {
      EXPECT_EQ(*r_off, *r_on) << round;
    }
    EXPECT_EQ(off.memory(), on.memory()) << round;
    EXPECT_EQ(off.stats().instructions, on.stats().instructions) << round;
    EXPECT_EQ(off.stats().bounds_checks, on.stats().bounds_checks) << round;
  }
  // The mix must exercise both arms, or the seed went degenerate.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisDifferentialTest, ::testing::Range(0, 4));

// --- control flow: the JIT's block boundaries -------------------------------

// Generates verifier-clean, terminating programs with forward control flow,
// shaped to hit every place the native code generator keeps the operand
// stack in registers and must put it back: forward jz/jnz and the
// compare-branch pairs the verifier fuses; jump targets between a push and
// its consumer and between a compare and its branch (the label is a leader,
// so the pair does not fuse and the pushed value must reach memory before
// it); loads and stores of every width at constant and computed addresses;
// shl/shr counts of 64 and more; divu/remu by zero; host calls with values
// live across them; and stacks deeper than the registers that cache them.
// Every construct in a block leaves the stack depth where it found it, so
// every label is reached at one depth, and its values end up in memory.
class FlowProgramGenerator {
 public:
  explicit FlowProgramGenerator(para::Random& rng) : rng_(rng) {}

  Program Generate() {
    as_ = Assembler();
    labels_ = 0;
    Value();  // the result, returned at the end
    Block(2);
    as_.Emit(Op::kRetV);
    auto program = as_.Finish(4096);
    EXPECT_TRUE(program.ok()) << program.status().message();
    return std::move(*program);
  }

 private:
  uint64_t Below(uint64_t n) { return rng_.NextBelow(n); }
  std::string NewLabel() { return "l" + std::to_string(labels_++); }

  // An immediate from the interesting ranges: small, imm32 boundaries,
  // values with a clear or a set upper half, full 64-bit.
  uint64_t Immediate() {
    switch (Below(6)) {
      case 0: return Below(16);
      case 1: return 0x7FFFFFF0u + Below(32);
      case 2: return 0xFFFFFF00u + Below(256);
      case 3: return ~uint64_t{0} - Below(256);
      case 4: return rng_.Next();
      default: return Below(0x10000);
    }
  }

  // A guest address for an access of `width`: in bounds but for a rare
  // sandboxed fault at the top of memory (the bounds slack keeps even that
  // access inside the Vm's buffer, so trusted runs stay defined).
  void Address(size_t width) {
    const bool edge = Below(25) == 0;
    if (Below(2) == 0) {
      as_.EmitPush(edge ? 4096 - width + 1 : Below(4096 - width + 1));
      return;
    }
    Value();
    as_.EmitPush(edge ? 0xFF8 : 0xFF0);
    as_.Emit(Op::kAnd);
    as_.EmitPush(edge ? 7 : Below(8));
    as_.Emit(Op::kOr);
  }

  // Pushes one value (net +1) by a straight-line sequence.
  void Value() {
    switch (Below(8)) {
      case 0:
      case 1:
        as_.EmitPush(Immediate());
        break;
      case 2:
        as_.EmitLdArg(static_cast<uint8_t>(Below(4)));
        break;
      case 3: {
        static constexpr Op kLoads[] = {Op::kLoad8, Op::kLoad16, Op::kLoad32, Op::kLoad64};
        const size_t w = Below(4);
        Address(size_t{1} << w);
        as_.Emit(kLoads[w]);
        break;
      }
      case 4: {
        static constexpr Op kBinOps[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kAnd, Op::kOr,
                                         Op::kXor, Op::kEq,  Op::kNe,  Op::kLtU, Op::kGtU};
        Operand();
        Operand();
        as_.Emit(kBinOps[Below(std::size(kBinOps))]);
        break;
      }
      case 5: {
        Operand();
        if (Below(2) == 0) {
          static constexpr uint64_t kCounts[] = {0, 1, 31, 63, 64, 65, 127, 1ull << 40};
          as_.EmitPush(kCounts[Below(std::size(kCounts))]);
        } else {
          as_.EmitLdArg(static_cast<uint8_t>(Below(4)));  // args reach 64 and beyond
        }
        as_.Emit(Below(2) == 0 ? Op::kShl : Op::kShr);
        break;
      }
      case 6:
        Operand();
        if (Below(10) == 0) {
          as_.EmitPush(0);
        } else if (Below(2) == 0) {
          as_.EmitPush(1 + Below(1000));
        } else {
          as_.EmitLdArg(static_cast<uint8_t>(Below(4)));  // zero in some runs
        }
        as_.Emit(Below(2) == 0 ? Op::kDivU : Op::kRemU);
        break;
      default:
        Operand();
        if (Below(3) == 0) {
          as_.Emit(Op::kNot);
        } else {
          as_.Emit(Op::kDup);
          if (Below(2) == 0) {
            as_.Emit(Op::kAdd);
          } else {
            as_.Emit(Op::kSwap);
            as_.Emit(Op::kDrop);
          }
        }
        break;
    }
  }
  // A shallow value: an immediate or an argument, so Value() recursion ends.
  void Operand() {
    if (Below(3) == 0) {
      Value();
    } else if (Below(2) == 0) {
      as_.EmitPush(Immediate());
    } else {
      as_.EmitLdArg(static_cast<uint8_t>(Below(4)));
    }
  }

  // Consumes the value on top (net -1) so it stays observable: a store of
  // a random width, or a fold into the accumulator below it.
  void Sink() {
    if (Below(2) == 0) {
      static constexpr Op kStores[] = {Op::kStore8, Op::kStore16, Op::kStore32, Op::kStore64};
      const size_t w = Below(4);
      Address(size_t{1} << w);
      as_.Emit(Op::kSwap);
      as_.Emit(kStores[w]);
    } else {
      // Store a hash of the value at a fixed cell: the accumulator lives in
      // memory so nested blocks can reach it at any depth.
      as_.EmitPush(0);
      as_.Emit(Op::kLoad64);
      as_.Emit(Below(2) == 0 ? Op::kXor : Op::kAdd);
      as_.EmitPush(0);
      as_.Emit(Op::kSwap);
      as_.Emit(Op::kStore64);
    }
  }

  // A branch condition: a value, then jz/jnz, or a compare the verifier
  // fuses with the branch.
  void Branch(const std::string& label) {
    if (Below(2) == 0) {
      Value();
      as_.EmitJump(Below(2) == 0 ? Op::kJz : Op::kJnz, label);
      return;
    }
    static constexpr Op kCompares[] = {Op::kEq, Op::kNe, Op::kLtU, Op::kGtU};
    Operand();
    Operand();
    as_.Emit(kCompares[Below(4)]);
    as_.EmitJump(Below(2) == 0 ? Op::kJz : Op::kJnz, label);
  }

  // A sequence of constructs, each with net stack effect 0.
  void Block(int nest) {
    for (int i = 0, n = 2 + static_cast<int>(Below(5)); i < n; ++i) {
      switch (Below(nest > 0 ? 8 : 5)) {
        case 0:
        case 1:
          Value();
          Sink();
          break;
        case 2: {
          // Values live across a host call, which clobbers the registers
          // that cache them.
          const int live = 1 + static_cast<int>(Below(3));
          for (int k = 0; k < live; ++k) {
            Value();
          }
          Value();
          as_.EmitHostCall(0);
          for (int k = 0; k < live; ++k) {
            as_.Emit(Below(2) == 0 ? Op::kAdd : Op::kXor);
          }
          Sink();
          break;
        }
        case 3: {
          // Deeper than the cache registers: the oldest values spill.
          const int deep = 6 + static_cast<int>(Below(8));
          for (int k = 0; k < deep; ++k) {
            Operand();
          }
          static constexpr Op kFold[] = {Op::kAdd, Op::kSub, Op::kXor, Op::kMul, Op::kOr};
          for (int k = 1; k < deep; ++k) {
            as_.Emit(kFold[Below(std::size(kFold))]);
          }
          Sink();
          break;
        }
        case 4: {
          // A target between a push and its consumer: the jump carries one
          // value, the fall-through path pushes another just before the
          // label, so `push; loadN` there cannot fuse.
          static constexpr Op kLoads[] = {Op::kLoad8, Op::kLoad16, Op::kLoad32, Op::kLoad64};
          const std::string join = NewLabel();
          const bool load = Below(2) == 0;
          const size_t w = Below(4);
          if (load) {
            Address(size_t{1} << w);
          } else {
            Value();
          }
          Branch(join);
          as_.Emit(Op::kDrop);
          as_.EmitPush(load ? Below(4096 - (size_t{1} << w) + 1) : Immediate());
          as_.Label(join);
          if (load) {
            as_.Emit(kLoads[w]);
          } else if (Below(3) == 0) {
            as_.Emit(Op::kNot);
          } else if (Below(2) == 0) {
            as_.Emit(Op::kDup);  // reads the top while the cache is empty
            as_.Emit(Below(2) == 0 ? Op::kMul : Op::kXor);
          } else {
            as_.EmitPush(Below(8));
            as_.Emit(Below(2) == 0 ? Op::kShl : Op::kAdd);
          }
          Sink();
          break;
        }
        case 5: {
          // if (cond) { block }
          const std::string skip = NewLabel();
          Branch(skip);
          Block(nest - 1);
          as_.Label(skip);
          break;
        }
        case 6: {
          // A target between a compare and its branch: the two paths meet
          // on a compare result (fall-through) or a plain value (jump).
          const std::string join = NewLabel();
          const std::string skip = NewLabel();
          Value();
          Branch(join);
          as_.Emit(Op::kDrop);
          Operand();
          Operand();
          static constexpr Op kCompares[] = {Op::kEq, Op::kNe, Op::kLtU, Op::kGtU};
          as_.Emit(kCompares[Below(4)]);
          as_.Label(join);
          as_.EmitJump(Below(2) == 0 ? Op::kJz : Op::kJnz, skip);
          Block(nest - 1);
          as_.Label(skip);
          break;
        }
        default: {
          // An unconditional forward jump over dead code.
          const std::string over = NewLabel();
          as_.EmitJump(Op::kJmp, over);
          Block(nest - 1);
          as_.Label(over);
          break;
        }
      }
    }
  }

  para::Random& rng_;
  Assembler as_;
  int labels_ = 0;
};

// Doubles its argument after overwriting every caller-saved register the
// System V ABI lets a callee clobber, as any real helper may.
uint64_t ClobberingHelper(void*, uint64_t arg) {
#if defined(__x86_64__)
  asm volatile(
      "mov $0x5A5A5A5A, %%esi\n\tmov %%rsi, %%rdi\n\tmov %%rsi, %%r8\n\t"
      "mov %%rsi, %%r9\n\tmov %%rsi, %%r10\n\tmov %%rsi, %%r11\n\t"
      "mov %%rsi, %%rcx\n\tmov %%rsi, %%rdx"
      :
      :
      : "rsi", "rdi", "r8", "r9", "r10", "r11", "rcx", "rdx");
#endif
  return arg * 2 + 1;
}

// Runs `program` on the threaded loop and on the JIT in `mode` with `fuel`,
// and requires bit-identical results: value or Status code and message,
// memory image, and every VmStats field.
void ExpectJitMatchesThreaded(const VerifiedProgram& program, ExecMode mode, uint64_t fuel,
                              const uint64_t (&args)[4], const std::string& what) {
  Vm threaded(&program, mode, VmBackend::kThreaded);
  Vm jitted(&program, mode, VmBackend::kJit);
  ASSERT_EQ(jitted.backend(), VmBackend::kJit) << what;
  for (Vm* vm : {&threaded, &jitted}) {
    vm->set_fuel(fuel);
    vm->SetHostHelper(0, &ClobberingHelper, nullptr);
  }
  auto t = threaded.Run(0, args[0], args[1], args[2], args[3]);
  auto j = jitted.Run(0, args[0], args[1], args[2], args[3]);
  ASSERT_EQ(t.ok(), j.ok()) << what << " threaded: " << t.status().message()
                            << " jit: " << j.status().message();
  if (t.ok()) {
    EXPECT_EQ(*t, *j) << what;
  } else {
    EXPECT_EQ(t.status().code(), j.status().code()) << what;
    EXPECT_EQ(t.status().message(), j.status().message()) << what;
  }
  EXPECT_EQ(threaded.memory(), jitted.memory()) << what;
  const VmStats& ts = threaded.stats();
  const VmStats& js = jitted.stats();
  EXPECT_EQ(ts.instructions, js.instructions) << what;
  EXPECT_EQ(ts.bounds_checks, js.bounds_checks) << what;
  EXPECT_EQ(ts.static_proofs, js.static_proofs) << what;
  EXPECT_EQ(ts.calls, js.calls) << what;
  EXPECT_EQ(ts.host_calls, js.host_calls) << what;
  EXPECT_EQ(ts.jit_runs, 0u) << what;
  EXPECT_EQ(js.jit_runs, 1u) << what;
}

TEST(SfiDifferentialTest, JitMatchesThreadedAcrossControlFlow) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  para::Random rng(0xB10C);
  FlowProgramGenerator generator(rng);
  uint64_t fused = 0, faulted = 0, host_calls = 0;
  for (int round = 0; round < 200; ++round) {
    const Program program = generator.Generate();
    // Small arguments make zero divisors and in-range shift counts common;
    // large ones push counts past 64.
    const uint64_t args[4] = {rng.NextBelow(3), rng.NextBelow(70), rng.Next(),
                              rng.NextBelow(2) == 0 ? 0 : rng.Next()};
    for (bool analyze : {true, false}) {
      auto verified = Verify(program, {.analyze = analyze});
      if (!verified.ok()) {
        // Only the analyzer rejects (a provable fault on some path).
        ASSERT_TRUE(analyze) << verified.status().message();
        continue;
      }
      fused += verified->report.fused_pairs;
      for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
        const std::string what = "round " + std::to_string(round) +
                                 (analyze ? " analyzed " : " plain ") +
                                 (mode == ExecMode::kTrusted ? "trusted" : "sandboxed");
        ExpectJitMatchesThreaded(*verified, mode, Vm::kDefaultFuel, args, what);
        Vm probe(&*verified, mode, VmBackend::kThreaded);
        probe.SetHostHelper(0, &ClobberingHelper, nullptr);
        faulted += probe.Run(0, args[0], args[1], args[2], args[3]).ok() ? 0 : 1;
        host_calls += probe.stats().host_calls;
      }
    }
  }
  // The generator must actually reach the shapes it exists for.
  EXPECT_GT(fused, 0u);
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(host_calls, 0u);
}

TEST(SfiDifferentialTest, JitMatchesThreadedAtEveryFuelBoundary) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  para::Random rng(0xF0E1);
  FlowProgramGenerator generator(rng);
  for (int round = 0; round < 8; ++round) {
    const Program program = generator.Generate();
    auto verified = Verify(program, {.analyze = false});
    ASSERT_TRUE(verified.ok()) << verified.status().message();
    const uint64_t args[4] = {1 + rng.NextBelow(3), rng.NextBelow(70), rng.Next(), rng.Next()};
    Vm full(&*verified, ExecMode::kSandboxed, VmBackend::kThreaded);
    full.SetHostHelper(0, &ClobberingHelper, nullptr);
    (void)full.Run(0, args[0], args[1], args[2], args[3]);
    // Every budget from none to one past what the whole run retires: each
    // lands the fuel fault on a different instruction.
    for (uint64_t fuel = 0; fuel <= full.stats().instructions + 1; ++fuel) {
      ExpectJitMatchesThreaded(*verified, ExecMode::kSandboxed, fuel, args,
                               "round " + std::to_string(round) + " fuel " + std::to_string(fuel));
    }
  }
}

}  // namespace
}  // namespace para::sfi
