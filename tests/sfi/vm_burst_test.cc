// Vm::Burst correctness: every Call() is a complete run through the same
// entry as Run() — results, faults, fuel boundaries, final VmStats and
// telemetry must be bit-identical to the equivalent Run() loop on both
// backends and in both execution modes, Run() and Call() must interleave
// freely, and the mem_off re-base must behave exactly like a memory that
// starts at the slot. Also covers the persistent-JitContext plumbing every
// run relies on: helper bindings and memory resizes must stay visible
// across runs even though the context keeps the helper table.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/telemetry.h"
#include "src/sfi/assembler.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

// mem[arg0] as a u64, plus arg... no: returns mem64[a0] + 1000.
VerifiedProgram LoadAtArgProgram() {
  Assembler a;
  a.EntryPoint();
  a.EmitLdArg(0);
  a.Emit(Op::kLoad64);
  a.EmitPush(1000);
  a.Emit(Op::kAdd);
  a.Emit(Op::kRetV);
  auto program = a.Finish(/*memory_bytes=*/4096);
  EXPECT_TRUE(program.ok());
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok());
  return std::move(*verified);
}

uint64_t CounterHelper(void* ctx, uint64_t arg) {
  auto* counter = static_cast<uint64_t*>(ctx);
  return ++*counter + arg;
}

// Helper-calling program: returns helper0(a0).
VerifiedProgram HostCallProgram() {
  Assembler a;
  a.EntryPoint();
  a.EmitLdArg(0);
  a.EmitHostCall(0);
  a.Emit(Op::kRetV);
  auto program = a.Finish(/*memory_bytes=*/256);
  EXPECT_TRUE(program.ok());
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok());
  return std::move(*verified);
}

void FillMemory(Vm& vm) {
  for (size_t off = 0; off + 8 <= vm.memory().size(); off += 8) {
    const uint64_t v = off * 3 + 7;
    std::memcpy(vm.memory().data() + off, &v, 8);
  }
}

class VmBurstTest : public ::testing::TestWithParam<std::tuple<ExecMode, VmBackend>> {};

TEST_P(VmBurstTest, BurstMatchesRunLoopBitExactly) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();

  Vm loop_vm(&program, mode, backend);
  Vm burst_vm(&program, mode, backend);
  FillMemory(loop_vm);
  FillMemory(burst_vm);
  ASSERT_EQ(loop_vm.backend(), burst_vm.backend());

  std::vector<uint64_t> loop_results;
  for (uint64_t i = 0; i < 64; ++i) {
    auto run = loop_vm.Run(0, (i * 8) % 512);
    ASSERT_TRUE(run.ok());
    loop_results.push_back(*run);
  }
  {
    Vm::Burst burst = burst_vm.BeginBurst(0);
    for (uint64_t i = 0; i < 64; ++i) {
      auto run = burst.Call(/*mem_off=*/0, (i * 8) % 512);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(*run, loop_results[i]) << "i=" << i;
    }
  }

  const VmStats& a = loop_vm.stats();
  const VmStats& b = burst_vm.stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.bounds_checks, b.bounds_checks);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.jit_runs, b.jit_runs);
}

TEST_P(VmBurstTest, MemOffRebasesGuestAddressZero) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);

  // Guest address 0 re-based to byte offset `off`: loading guest 0 must
  // read host offset `off`.
  Vm::Burst burst = vm.BeginBurst(0);
  for (size_t off : {size_t{0}, size_t{8}, size_t{256}, size_t{1024}}) {
    auto run = burst.Call(off, /*a0=*/0);
    ASSERT_TRUE(run.ok());
    uint64_t expected = 0;
    std::memcpy(&expected, vm.memory().data() + off, 8);
    EXPECT_EQ(*run, expected + 1000) << "off=" << off;
  }
}

TEST_P(VmBurstTest, SandboxedBoundsShrinkWithOffset) {
  const auto [mode, backend] = GetParam();
  if (mode != ExecMode::kSandboxed) {
    GTEST_SKIP() << "bounds checks are a sandboxed-mode property";
  }
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);
  const size_t usable = vm.memory().size() - 8;  // the VM's slack convention

  Vm::Burst burst = vm.BeginBurst(0);
  // In-bounds at offset 0...
  ASSERT_TRUE(burst.Call(0, usable - 8).ok());
  // ...is out of bounds once the base moves past it.
  auto run = burst.Call(1024, usable - 8);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kOutOfRange);
}

TEST_P(VmBurstTest, HostHelperBindingsStayLiveAcrossRuns) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = HostCallProgram();
  Vm vm(&program, mode, backend);

  // Bind AFTER construction, re-bind between runs: the persistent context
  // must observe the updated helper table (it points at the Vm's live
  // arrays, not a snapshot).
  uint64_t counter_a = 0;
  vm.SetHostHelper(0, &CounterHelper, &counter_a);
  ASSERT_TRUE(vm.Run(0, 10).ok());
  EXPECT_EQ(counter_a, 1u);

  uint64_t counter_b = 100;
  vm.SetHostHelper(0, &CounterHelper, &counter_b);
  Vm::Burst burst = vm.BeginBurst(0);
  auto run = burst.Call(0, 10);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 111u);  // ++100 + 10
  EXPECT_EQ(counter_a, 1u);
  EXPECT_EQ(counter_b, 101u);
}

TEST_P(VmBurstTest, MemoryResizeRefreshesCachedBase) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);

  auto before = vm.Run(0, 0);
  ASSERT_TRUE(before.ok());

  // Grow (and almost certainly reallocate) the memory, then write a fresh
  // value at guest 0: the next run must read through the NEW base.
  vm.memory().assign(vm.memory().size() * 4, 0);
  const uint64_t sentinel = 0xDEADBEEFCAFEull;
  std::memcpy(vm.memory().data(), &sentinel, 8);
  auto after = vm.Run(0, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, sentinel + 1000);

  // A burst re-bases the context's memory view; a plain Run afterwards must
  // see base 0 again.
  {
    Vm::Burst burst = vm.BeginBurst(0);
    ASSERT_TRUE(burst.Call(1024, 0).ok());
  }
  auto plain = vm.Run(0, 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, sentinel + 1000);
}

TEST_P(VmBurstTest, RunWhileBurstIsOpenReadsItsOwnWindow) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  Vm plain(&program, mode, backend);
  FillMemory(vm);
  FillMemory(plain);
  ASSERT_EQ(vm.backend(), plain.backend());

  {
    Vm::Burst burst = vm.BeginBurst(0);
    ASSERT_TRUE(burst.Call(1024, 0).ok());
    // A Run() between two re-based calls reads guest address 16 at host
    // offset 16 — not through the burst's window at 1024.
    auto run = vm.Run(0, 16);
    ASSERT_TRUE(run.ok());
    uint64_t expected = 0;
    std::memcpy(&expected, vm.memory().data() + 16, 8);
    EXPECT_EQ(*run, expected + 1000);
    ASSERT_TRUE(burst.Call(1024, 0).ok());
  }

  // The same three entries with no burst held open across the Run().
  ASSERT_TRUE(plain.BeginBurst(0).Call(1024, 0).ok());
  ASSERT_TRUE(plain.Run(0, 16).ok());
  ASSERT_TRUE(plain.BeginBurst(0).Call(1024, 0).ok());

  const VmStats& a = plain.stats();
  const VmStats& b = vm.stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.bounds_checks, b.bounds_checks);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.jit_runs, b.jit_runs);
  EXPECT_EQ(a.static_proofs, b.static_proofs);
}

TEST_P(VmBurstTest, EveryCallIsCountedAndSampledLikeARun) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);

  telemetry::Counter runs = telemetry::Registry::Get().counter("sfi.vm.runs");
  telemetry::Histogram ticks = telemetry::Registry::Get().histogram("sfi.vm.run_ticks");
  const uint64_t runs_before = runs.Value();
  const uint64_t samples_before = ticks.Value().count;
  {
    Vm::Burst burst = vm.BeginBurst(0);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(burst.Call(0, 0).ok());
    }
    // Runs are sampled 1-in-64 on the per-thread run count, so 64
    // consecutive calls hold exactly one sample — taken while the burst is
    // still open, as for 64 Run() calls.
    EXPECT_EQ(ticks.Value().count - samples_before, 1u);
  }
  EXPECT_EQ(runs.Value() - runs_before, 64u);
}

TEST_P(VmBurstTest, BurstOnUnknownEntryPointFails) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  Vm::Burst burst = vm.BeginBurst(7);
  auto run = burst.Call(0, 0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kNotFound);
}

TEST_P(VmBurstTest, CallManyMatchesCallLoopBitExactly) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();

  Vm loop_vm(&program, mode, backend);
  Vm many_vm(&program, mode, backend);
  FillMemory(loop_vm);
  FillMemory(many_vm);
  ASSERT_EQ(loop_vm.backend(), many_vm.backend());

  constexpr size_t kStride = 64;
  constexpr size_t kCount = 32;
  std::vector<uint64_t> pairs(2 * kCount, 0xABABABAB);
  bool fast = false;
  {
    Vm::Burst burst = many_vm.BeginBurst(0);
    fast = burst.CallMany(/*base_off=*/0, kStride, kCount, pairs.data());
  }
  if (many_vm.backend() != VmBackend::kJit) {
    // Threaded backend: no batch entry; callers must fall back to Call().
    EXPECT_FALSE(fast);
    GTEST_SKIP() << "CallMany is a JIT-backend entry point";
  }
  ASSERT_TRUE(fast);

  {
    Vm::Burst burst = loop_vm.BeginBurst(0);
    for (size_t i = 0; i < kCount; ++i) {
      auto run = burst.Call(i * kStride, /*a0=*/0);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(pairs[2 * i + 1], 0u) << "slot " << i << " faulted";
      EXPECT_EQ(pairs[2 * i], *run) << "slot " << i;
    }
  }

  const VmStats& a = loop_vm.stats();
  const VmStats& b = many_vm.stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.bounds_checks, b.bounds_checks);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.jit_runs, b.jit_runs);
}

TEST_P(VmBurstTest, CallManyFaultingSlotDoesNotStopTheBurst) {
  const auto [mode, backend] = GetParam();
  if (mode != ExecMode::kSandboxed) {
    GTEST_SKIP() << "per-slot faults are a sandboxed-mode property";
  }
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);
  if (vm.backend() != VmBackend::kJit) {
    GTEST_SKIP() << "CallMany is a JIT-backend entry point";
  }

  // Slots at the tail of memory: the shrinking per-slot window makes the
  // final slot's 8-byte load out of range while earlier slots stay clean.
  const size_t usable = vm.memory().size() - 8;  // the VM's slack convention
  const size_t base = usable - 16;               // slots at usable-16, -8, -0
  uint64_t pairs[6] = {};
  {
    Vm::Burst burst = vm.BeginBurst(0);
    ASSERT_TRUE(burst.CallMany(base, /*stride=*/8, /*count=*/3, pairs));
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pairs[2 * i + 1], 0u) << "slot " << i;
    uint64_t expected = 0;
    std::memcpy(&expected, vm.memory().data() + base + i * 8, 8);
    EXPECT_EQ(pairs[2 * i], expected + 1000) << "slot " << i;
  }
  // Window of the last slot is 0 bytes: the load must fault, matching what a
  // re-based Call() reports for the same slot.
  EXPECT_NE(pairs[5], 0u);
  Vm::Burst burst = vm.BeginBurst(0);
  auto run = burst.Call(base + 16, /*a0=*/0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kOutOfRange);
}

TEST_P(VmBurstTest, CallManyRejectsLayoutsPastTheSlack) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  FillMemory(vm);

  const size_t usable = vm.memory().size() - 8;
  uint64_t pairs[8] = {};
  Vm::Burst burst = vm.BeginBurst(0);
  // Last slot's base would land past the slack line: rejected up front, out
  // is never touched.
  EXPECT_FALSE(burst.CallMany(usable - 4, /*stride=*/8, /*count=*/2, pairs));
  EXPECT_FALSE(burst.CallMany(/*base_off=*/0, /*stride=*/1024, /*count=*/1000, pairs));
  EXPECT_FALSE(burst.CallMany(/*base_off=*/0, /*stride=*/64, /*count=*/0, pairs));
  for (uint64_t word : pairs) {
    EXPECT_EQ(word, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, VmBurstTest,
    ::testing::Values(std::make_tuple(ExecMode::kSandboxed, VmBackend::kThreaded),
                      std::make_tuple(ExecMode::kTrusted, VmBackend::kThreaded),
                      std::make_tuple(ExecMode::kSandboxed, VmBackend::kAuto),
                      std::make_tuple(ExecMode::kTrusted, VmBackend::kAuto)),
    [](const ::testing::TestParamInfo<std::tuple<ExecMode, VmBackend>>& info) {
      std::string name =
          std::get<0>(info.param) == ExecMode::kSandboxed ? "Sandboxed" : "Trusted";
      name += std::get<1>(info.param) == VmBackend::kThreaded ? "Threaded" : "Auto";
      return name;
    });

}  // namespace
}  // namespace para::sfi
