// Metering exactness across the threaded-engine refactor: VmStats
// (instructions, bounds_checks, calls) and fuel exhaustion must be
// *bit-identical* to the original byte-code interpreter, in both modes —
// the decoded stream's synthetic instructions (block stack checks, the end
// sentinel) must be invisible to accounting. The oracle is ReferenceRun, a
// faithful re-implementation of the pre-refactor switch interpreter over
// the raw bytes.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/random.h"
#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

// Every execution backend the host offers: metering assertions must hold for
// each one, not just whichever kAuto picks. On non-JIT hosts this degrades
// to the threaded loop alone.
std::vector<VmBackend> BackendsUnderTest() {
  std::vector<VmBackend> backends = {VmBackend::kThreaded};
  if (JitAvailable()) {
    backends.push_back(VmBackend::kJit);
  }
  return backends;
}

struct ReferenceResult {
  bool ok = false;
  uint64_t value = 0;
  ErrorCode error = ErrorCode::kOk;
  uint64_t instructions = 0;
  uint64_t bounds_checks = 0;
  uint64_t calls = 0;
};

// The pre-refactor interpreter, verbatim semantics: per-instruction pc
// bounds + fuel checks (sandboxed), per-access bounds checks (sandboxed),
// per-push/pop stack checks (both modes), byte-level decode of every
// instruction. Kept here as the metering oracle.
ReferenceResult ReferenceRun(const Program& program, bool sandboxed, uint64_t fuel,
                             size_t method, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                             uint64_t a3 = 0) {
  ReferenceResult out;
  auto fail = [&out](ErrorCode code) {
    out.ok = false;
    out.error = code;
    return out;
  };
  size_t mem_size = 1;
  while (mem_size < program.memory_bytes) {
    mem_size <<= 1;
  }
  std::vector<uint8_t> memory(mem_size + 8, 0);
  const uint8_t* code = program.code.data();
  const size_t code_size = program.code.size();
  uint8_t* mem = memory.data();

  uint64_t stack[Vm::kStackSlots];
  size_t sp = 0;
  size_t call_stack[Vm::kCallDepth];
  size_t csp = 0;
  uint64_t args[4] = {a0, a1, a2, a3};
  size_t pc = program.entry_points[method];

  auto push = [&](uint64_t v) {
    if (sp >= Vm::kStackSlots) {
      return false;
    }
    stack[sp++] = v;
    return true;
  };
  auto pop = [&](uint64_t* v) {
    if (sp == 0) {
      return false;
    }
    *v = stack[--sp];
    return true;
  };

  for (;;) {
    if (sandboxed) {
      if (pc >= code_size) {
        return fail(ErrorCode::kOutOfRange);
      }
      if (fuel-- == 0) {
        return fail(ErrorCode::kResourceExhausted);
      }
    }
    ++out.instructions;
    Op op = static_cast<Op>(code[pc]);
    switch (op) {
      case Op::kHalt:
        out.ok = true;
        out.value = 0;
        return out;
      case Op::kPush: {
        uint64_t imm;
        std::memcpy(&imm, code + pc + 1, 8);
        if (!push(imm)) return fail(ErrorCode::kResourceExhausted);
        pc += 9;
        continue;
      }
      case Op::kDrop: {
        uint64_t v;
        if (!pop(&v)) return fail(ErrorCode::kFailedPrecondition);
        ++pc;
        continue;
      }
      case Op::kDup: {
        uint64_t v;
        if (!pop(&v)) return fail(ErrorCode::kFailedPrecondition);
        if (!push(v) || !push(v)) return fail(ErrorCode::kResourceExhausted);
        ++pc;
        continue;
      }
      case Op::kSwap: {
        uint64_t a, b;
        if (!pop(&a) || !pop(&b)) return fail(ErrorCode::kFailedPrecondition);
        if (!push(a) || !push(b)) return fail(ErrorCode::kResourceExhausted);
        ++pc;
        continue;
      }
      case Op::kDivU:
      case Op::kRemU: {
        uint64_t rhs, lhs;
        if (!pop(&rhs) || !pop(&lhs)) return fail(ErrorCode::kFailedPrecondition);
        if (rhs == 0) return fail(ErrorCode::kInvalidArgument);
        if (!push(op == Op::kDivU ? lhs / rhs : lhs % rhs)) {
          return fail(ErrorCode::kResourceExhausted);
        }
        ++pc;
        continue;
      }
      case Op::kNot: {
        uint64_t v;
        if (!pop(&v)) return fail(ErrorCode::kFailedPrecondition);
        if (!push(v == 0 ? 1 : 0)) return fail(ErrorCode::kResourceExhausted);
        ++pc;
        continue;
      }
      case Op::kJmp: {
        int32_t rel;
        std::memcpy(&rel, code + pc + 1, 4);
        pc = static_cast<size_t>(static_cast<int64_t>(pc + 5) + rel);
        continue;
      }
      case Op::kJz:
      case Op::kJnz: {
        uint64_t v;
        if (!pop(&v)) return fail(ErrorCode::kFailedPrecondition);
        int32_t rel;
        std::memcpy(&rel, code + pc + 1, 4);
        bool taken = (op == Op::kJz) ? (v == 0) : (v != 0);
        pc = taken ? static_cast<size_t>(static_cast<int64_t>(pc + 5) + rel) : pc + 5;
        continue;
      }
      case Op::kCall: {
        if (csp >= Vm::kCallDepth) return fail(ErrorCode::kResourceExhausted);
        ++out.calls;
        int32_t rel;
        std::memcpy(&rel, code + pc + 1, 4);
        call_stack[csp++] = pc + 5;
        pc = static_cast<size_t>(static_cast<int64_t>(pc + 5) + rel);
        continue;
      }
      case Op::kRet: {
        if (csp == 0) {
          out.ok = true;
          out.value = 0;
          return out;
        }
        pc = call_stack[--csp];
        continue;
      }
      case Op::kLdArg: {
        if (!push(args[code[pc + 1] & 3])) return fail(ErrorCode::kResourceExhausted);
        pc += 2;
        continue;
      }
      case Op::kRetV: {
        uint64_t v;
        if (!pop(&v)) return fail(ErrorCode::kFailedPrecondition);
        out.ok = true;
        out.value = v;
        return out;
      }
      default:
        break;
    }
    // Loads/stores, binops.
    uint64_t rhs, lhs;
    switch (op) {
#define REF_BINOP(name, expr)                                               \
  case Op::name:                                                            \
    if (!pop(&rhs) || !pop(&lhs)) return fail(ErrorCode::kFailedPrecondition); \
    if (!push(expr)) return fail(ErrorCode::kResourceExhausted);            \
    ++pc;                                                                   \
    continue;
      REF_BINOP(kAdd, lhs + rhs)
      REF_BINOP(kSub, lhs - rhs)
      REF_BINOP(kMul, lhs * rhs)
      REF_BINOP(kAnd, lhs & rhs)
      REF_BINOP(kOr, lhs | rhs)
      REF_BINOP(kXor, lhs ^ rhs)
      REF_BINOP(kShl, rhs >= 64 ? 0 : lhs << rhs)
      REF_BINOP(kShr, rhs >= 64 ? 0 : lhs >> rhs)
      REF_BINOP(kEq, lhs == rhs ? 1 : 0)
      REF_BINOP(kNe, lhs != rhs ? 1 : 0)
      REF_BINOP(kLtU, lhs < rhs ? 1 : 0)
      REF_BINOP(kGtU, lhs > rhs ? 1 : 0)
#undef REF_BINOP
#define REF_LOAD(name, width)                                                \
  case Op::name: {                                                           \
    uint64_t addr;                                                           \
    if (!pop(&addr)) return fail(ErrorCode::kFailedPrecondition);            \
    if (sandboxed) {                                                         \
      ++out.bounds_checks;                                                   \
      if (addr + (width) > mem_size) return fail(ErrorCode::kOutOfRange);    \
    }                                                                        \
    uint64_t value = 0;                                                      \
    std::memcpy(&value, mem + addr, (width));                                \
    if (!push(value)) return fail(ErrorCode::kResourceExhausted);            \
    ++pc;                                                                    \
    continue;                                                                \
  }
      REF_LOAD(kLoad8, 1)
      REF_LOAD(kLoad16, 2)
      REF_LOAD(kLoad32, 4)
      REF_LOAD(kLoad64, 8)
#undef REF_LOAD
#define REF_STORE(name, width)                                               \
  case Op::name: {                                                           \
    uint64_t value, addr;                                                    \
    if (!pop(&value) || !pop(&addr)) return fail(ErrorCode::kFailedPrecondition); \
    if (sandboxed) {                                                         \
      ++out.bounds_checks;                                                   \
      if (addr + (width) > mem_size) return fail(ErrorCode::kOutOfRange);    \
    }                                                                        \
    std::memcpy(mem + addr, &value, (width));                                \
    ++pc;                                                                    \
    continue;                                                                \
  }
      REF_STORE(kStore8, 1)
      REF_STORE(kStore16, 2)
      REF_STORE(kStore32, 4)
      REF_STORE(kStore64, 8)
#undef REF_STORE
      default:
        return fail(ErrorCode::kInvalidArgument);
    }
  }
}

// The fixture programs: every dynamic shape the engine has (straight line,
// loops, two-way branches, call/ret, memory traffic).
const char* kFixtures[] = {
    // arith, 9 instructions exactly
    "ldarg 0\npush 3\nmul\nldarg 1\nadd\npush 7\nxor\npush 13\nand\nretv",
    // checksum loop over memory
    R"(
      push 0
      ldarg 0
    loop:
      dup
      jz done
      dup
      push 8
      mul
      load64
      push 0
      load64
      add
      push 0
      swap
      store64
      push 1
      sub
      jmp loop
    done:
      drop
      push 0
      load64
      retv
    )",
    // branchy countdown
    R"(
      ldarg 0
    loop:
      dup
      jz done
      dup
      push 1
      and
      jnz odd
      push 1
      sub
      jmp loop
    odd:
      push 1
      sub
      jmp loop
    done:
      retv
    )",
    // call/ret
    R"(
      ldarg 0
    loop:
      dup
      jz done
      call dec
      jmp loop
    done:
      retv
    dec:
      push 1
      sub
      ret
    )",
    // compiled-classifier shape: fixed-offset field loads compared against
    // constants with two-way branches — every superinstruction pattern
    // (push+load at all widths, eq/ne/ltu/gtu against jz/jnz) fires here.
    R"(
      ldarg 0
    loop:
      dup
      jz done
      push 0
      load64
      push 7
      eq
      jz a
    a:
      push 8
      load32
      push 100
      ltu
      jnz b
    b:
      push 16
      load16
      push 3
      gtu
      jz c
    c:
      push 24
      load8
      push 1
      ne
      jnz d
    d:
      push 1
      sub
      jmp loop
    done:
      retv
    )",
};

class MeteringExactnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MeteringExactnessTest, CountsMatchReferenceInterpreter) {
  auto program = Assembler::Assemble(kFixtures[GetParam()]);
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());

  for (uint64_t a0 : {0ull, 1ull, 7ull, 64ull, 255ull}) {
    ReferenceResult ref = ReferenceRun(*program, /*sandboxed=*/true, Vm::kDefaultFuel, 0, a0,
                                       a0 * 3);
    ASSERT_TRUE(ref.ok);
    for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
      for (VmBackend backend : BackendsUnderTest()) {
        Vm vm(&*verified, mode, backend);
        auto result = vm.Run(0, a0, a0 * 3);
        ASSERT_TRUE(result.ok()) << result.status().message();
        EXPECT_EQ(*result, ref.value) << "a0=" << a0;
        EXPECT_EQ(vm.stats().instructions, ref.instructions) << "a0=" << a0;
        EXPECT_EQ(vm.stats().calls, ref.calls) << "a0=" << a0;
        if (mode == ExecMode::kSandboxed) {
          EXPECT_EQ(vm.stats().bounds_checks, ref.bounds_checks) << "a0=" << a0;
        } else {
          EXPECT_EQ(vm.stats().bounds_checks, 0u) << "a0=" << a0;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fixtures, MeteringExactnessTest,
                         ::testing::Range<size_t>(0, std::size(kFixtures)));

TEST(MeteringExactnessTest, FuelBoundaryIsExact) {
  // Fuel semantics: initial fuel F admits exactly F instructions. Running a
  // fixture that retires N instructions with fuel N must succeed; with
  // fuel N-1 it must die on the Nth — same boundary as the old engine.
  auto program = Assembler::Assemble(kFixtures[1]);
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());

  Vm probe(&*verified, ExecMode::kSandboxed);
  ASSERT_TRUE(probe.Run(0, 16).ok());
  uint64_t n = probe.stats().instructions;
  ASSERT_GT(n, 0u);

  for (VmBackend backend : BackendsUnderTest()) {
    Vm exact(&*verified, ExecMode::kSandboxed, backend);
    exact.set_fuel(n);
    EXPECT_TRUE(exact.Run(0, 16).ok());
    EXPECT_EQ(exact.stats().instructions, n);

    Vm starved(&*verified, ExecMode::kSandboxed, backend);
    starved.set_fuel(n - 1);
    auto result = starved.Run(0, 16);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
    // The starving instruction is not retired: n-1 counted, as before.
    EXPECT_EQ(starved.stats().instructions, n - 1);

    // Trusted mode is unmetered: the same program runs on empty fuel.
    Vm trusted(&*verified, ExecMode::kTrusted, backend);
    trusted.set_fuel(0);
    EXPECT_TRUE(trusted.Run(0, 16).ok());
    EXPECT_EQ(trusted.stats().instructions, n);
  }
}

TEST(MeteringExactnessTest, FusedAndUnfusedStreamsAgreeExactly) {
  // The superinstruction pass is a pure dispatch optimization: values,
  // instruction counts, bounds-check counts, and call counts of the fused
  // stream must equal the unfused stream (and both the reference
  // interpreter) in both modes, for every fixture shape.
  for (size_t f = 0; f < std::size(kFixtures); ++f) {
    auto program = Assembler::Assemble(kFixtures[f]);
    ASSERT_TRUE(program.ok());
    auto fused = Verify(*program, {.fuse_superinstructions = true});
    auto plain = Verify(*program, {.fuse_superinstructions = false});
    ASSERT_TRUE(fused.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain->report.fused_pairs, 0u);
    if (f == 4) {
      // The classifier-shaped fixture exists to exercise every pattern.
      EXPECT_GE(fused->report.fused_pairs, 8u);
    }
    for (uint64_t a0 : {0ull, 1ull, 13ull, 64ull}) {
      ReferenceResult ref = ReferenceRun(*program, /*sandboxed=*/true, Vm::kDefaultFuel, 0, a0);
      ASSERT_TRUE(ref.ok);
      for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
        Vm fused_vm(&*fused, mode);
        Vm plain_vm(&*plain, mode);
        auto fused_result = fused_vm.Run(0, a0);
        auto plain_result = plain_vm.Run(0, a0);
        ASSERT_TRUE(fused_result.ok());
        ASSERT_TRUE(plain_result.ok());
        EXPECT_EQ(*fused_result, ref.value) << "fixture " << f << " a0=" << a0;
        EXPECT_EQ(*plain_result, ref.value) << "fixture " << f << " a0=" << a0;
        EXPECT_EQ(fused_vm.stats().instructions, ref.instructions) << f;
        EXPECT_EQ(plain_vm.stats().instructions, ref.instructions) << f;
        EXPECT_EQ(fused_vm.stats().calls, ref.calls) << f;
        if (mode == ExecMode::kSandboxed) {
          EXPECT_EQ(fused_vm.stats().bounds_checks, ref.bounds_checks) << f;
          EXPECT_EQ(plain_vm.stats().bounds_checks, ref.bounds_checks) << f;
        }
      }
    }
  }
}

TEST(MeteringExactnessTest, FuelBoundaryInsideFusedPairIsExact) {
  // A fused pair is one dispatch but two instructions: with fuel for only
  // the first half, execution must die on the second half having retired
  // exactly one instruction and paid no bounds check — the same boundary the
  // byte interpreter had.
  auto program = Assembler::Assemble("push 0\nload64\nretv");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  ASSERT_EQ(verified->report.fused_pairs, 1u);

  ReferenceResult ref = ReferenceRun(*program, /*sandboxed=*/true, /*fuel=*/1, 0);
  ASSERT_FALSE(ref.ok);
  ASSERT_EQ(ref.error, ErrorCode::kResourceExhausted);
  ASSERT_EQ(ref.instructions, 1u);
  ASSERT_EQ(ref.bounds_checks, 0u);

  for (VmBackend backend : BackendsUnderTest()) {
    Vm starved(&*verified, ExecMode::kSandboxed, backend);
    starved.set_fuel(1);
    auto result = starved.Run(0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(starved.stats().instructions, 1u);
    EXPECT_EQ(starved.stats().bounds_checks, 0u);

    Vm exact(&*verified, ExecMode::kSandboxed, backend);
    exact.set_fuel(3);
    ASSERT_TRUE(exact.Run(0).ok());
    EXPECT_EQ(exact.stats().instructions, 3u);
    EXPECT_EQ(exact.stats().bounds_checks, 1u);
  }
}

TEST(MeteringExactnessTest, FuelStarvationSweepIsBackendInvariant) {
  // Exhaustive fuel sweep over every fixture: at every possible starvation
  // point — including mid-fused-pair boundaries — the JIT and the threaded
  // loop must agree with the reference interpreter on success/failure, the
  // retired-instruction count, and the bounds-check count. This is the
  // bit-identical-metering claim at its sharpest.
  for (size_t f = 0; f < std::size(kFixtures); ++f) {
    auto program = Assembler::Assemble(kFixtures[f]);
    ASSERT_TRUE(program.ok());
    auto verified = Verify(*program);
    ASSERT_TRUE(verified.ok());

    const uint64_t a0 = 5;
    ReferenceResult full =
        ReferenceRun(*program, /*sandboxed=*/true, Vm::kDefaultFuel, 0, a0, a0 * 3);
    ASSERT_TRUE(full.ok);

    for (uint64_t fuel = 0; fuel <= full.instructions + 1; ++fuel) {
      ReferenceResult ref = ReferenceRun(*program, /*sandboxed=*/true, fuel, 0, a0, a0 * 3);
      for (VmBackend backend : BackendsUnderTest()) {
        Vm vm(&*verified, ExecMode::kSandboxed, backend);
        vm.set_fuel(fuel);
        auto result = vm.Run(0, a0, a0 * 3);
        ASSERT_EQ(result.ok(), ref.ok) << "fixture " << f << " fuel " << fuel;
        if (ref.ok) {
          EXPECT_EQ(*result, ref.value) << "fixture " << f << " fuel " << fuel;
        } else {
          EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted)
              << "fixture " << f << " fuel " << fuel;
        }
        EXPECT_EQ(vm.stats().instructions, ref.instructions)
            << "fixture " << f << " fuel " << fuel;
        EXPECT_EQ(vm.stats().bounds_checks, ref.bounds_checks)
            << "fixture " << f << " fuel " << fuel;
        EXPECT_EQ(vm.stats().calls, ref.calls) << "fixture " << f << " fuel " << fuel;
      }
    }
  }
}

TEST(MeteringExactnessTest, JumpTargetSuppressesFusion) {
  // A branch lands exactly on the jz half of a would-be eq+jz pair: fusing
  // would let that entry skip the compare. The verifier must keep the pair
  // split, and both entry paths must behave.
  auto program = Assembler::Assemble(R"(
    ldarg 0
    jnz alt
    push 5
    push 5
    eq
  target:
    jz no
    push 1
    retv
  alt:
    push 0
    jmp target
  no:
    push 0
    retv
  )");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->report.fused_pairs, 0u);

  for (uint64_t a0 : {0ull, 1ull}) {
    ReferenceResult ref = ReferenceRun(*program, /*sandboxed=*/true, Vm::kDefaultFuel, 0, a0);
    ASSERT_TRUE(ref.ok);
    Vm vm(&*verified, ExecMode::kSandboxed);
    auto result = vm.Run(0, a0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ref.value) << a0;
    EXPECT_EQ(vm.stats().instructions, ref.instructions) << a0;
  }
  // a0=0 takes the fall-through path through the live compare: returns 1.
  Vm vm(&*verified, ExecMode::kTrusted);
  auto through = vm.Run(0, 0);
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(*through, 1u);
  // a0=1 jumps into `target` with a 0 on the stack: returns 0.
  auto jumped = vm.Run(0, 1);
  ASSERT_TRUE(jumped.ok());
  EXPECT_EQ(*jumped, 0u);
}

TEST(MeteringExactnessTest, RandomProgramsMatchReference) {
  // Random straight-line programs (in-bounds memory ops, balanced stack):
  // values, instruction counts, and bounds-check counts must agree with the
  // reference interpreter in sandboxed mode, and instruction counts must be
  // mode-independent.
  para::Random rng(0x5F1C0DE);
  for (int round = 0; round < 60; ++round) {
    Assembler as;
    int depth = 0;
    int emitted = 0;
    for (int i = 0; i < 50; ++i) {
      switch (rng.NextBelow(6)) {
        case 0:
          as.EmitPush(rng.Next() & 0xFFFF);
          ++depth;
          break;
        case 1:
          as.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
          ++depth;
          break;
        case 2:
          as.EmitPush(rng.NextBelow(256) * 8);
          as.Emit(Op::kLoad64);
          ++depth;
          ++emitted;
          break;
        case 3:
          as.EmitPush(rng.NextBelow(256) * 8);
          as.EmitPush(rng.Next() & 0xFFFF);
          as.Emit(Op::kStore64);
          emitted += 2;
          break;
        case 4:
          if (depth >= 2) {
            as.Emit(rng.NextBool(0.5) ? Op::kAdd : Op::kXor);
            --depth;
          } else {
            as.EmitPush(1);
            ++depth;
          }
          break;
        case 5:
          if (depth >= 1) {
            as.Emit(Op::kDup);
            ++depth;
          } else {
            as.EmitPush(1);
            ++depth;
          }
          break;
      }
    }
    while (depth > 1) {
      as.Emit(Op::kDrop);
      --depth;
    }
    if (depth == 0) {
      as.EmitPush(0);
    }
    as.Emit(Op::kRetV);
    auto program = as.Finish(4096);
    ASSERT_TRUE(program.ok());
    auto verified = Verify(*program);
    ASSERT_TRUE(verified.ok());

    uint64_t a0 = rng.Next() & 0xFFFF;
    ReferenceResult ref = ReferenceRun(*program, true, Vm::kDefaultFuel, 0, a0);
    ASSERT_TRUE(ref.ok);

    Vm sandboxed(&*verified, ExecMode::kSandboxed);
    auto s = sandboxed.Run(0, a0);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, ref.value) << round;
    EXPECT_EQ(sandboxed.stats().instructions, ref.instructions) << round;
    EXPECT_EQ(sandboxed.stats().bounds_checks, ref.bounds_checks) << round;

    Vm trusted(&*verified, ExecMode::kTrusted);
    auto t = trusted.Run(0, a0);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, ref.value) << round;
    EXPECT_EQ(trusted.stats().instructions, ref.instructions) << round;
  }
}

}  // namespace
}  // namespace para::sfi
