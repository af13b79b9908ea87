// The JIT backend's own contract: availability gating (host capability vs
// the PARA_SFI_NO_JIT kill switch), backend resolution and observability on
// Vm, per-mode code sharing through JitCacheSlot, and — the load-bearing
// property — fault-for-fault parity with the threaded interpreter: identical
// Status codes, messages, values, and VmStats for every fail-closed exit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/base/random.h"
#include "src/filter/compiler.h"
#include "src/filter/rule.h"
#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

VerifiedProgram MustVerify(const char* src, VerifyOptions options = {}) {
  auto program = Assembler::Assemble(src);
  EXPECT_TRUE(program.ok()) << program.status().message();
  auto verified = Verify(*program, options);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  return std::move(*verified);
}

TEST(JitTest, AvailabilityImpliesSupport) {
  if (JitAvailable()) {
    EXPECT_TRUE(JitSupported());
  }
}

TEST(JitTest, EnvKillSwitchDisablesJitButNotSupport) {
  if (!JitSupported()) {
    GTEST_SKIP() << "JIT compiled out on this host";
  }
  ASSERT_EQ(setenv("PARA_SFI_NO_JIT", "1", 1), 0);
  EXPECT_FALSE(JitAvailable());
  EXPECT_TRUE(JitSupported());

  // A Vm constructed under the kill switch must resolve kAuto to the
  // threaded loop and report it — no silent pretending.
  auto verified = MustVerify("ldarg 0\npush 2\nmul\nretv");
  Vm vm(&verified, ExecMode::kTrusted);
  EXPECT_EQ(vm.backend(), VmBackend::kThreaded);
  auto result = vm.Run(0, 21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42u);
  EXPECT_EQ(vm.stats().jit_runs, 0u);

  ASSERT_EQ(unsetenv("PARA_SFI_NO_JIT"), 0);
  EXPECT_EQ(JitAvailable(), JitSupported());
}

TEST(JitTest, AutoBackendResolvesAndReportsItself) {
  auto verified = MustVerify("ldarg 0\nldarg 1\nadd\nretv");
  Vm vm(&verified, ExecMode::kSandboxed);
  EXPECT_EQ(vm.backend(), JitAvailable() ? VmBackend::kJit : VmBackend::kThreaded);
  auto result = vm.Run(0, 40, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42u);
  EXPECT_EQ(vm.stats().jit_runs, vm.backend() == VmBackend::kJit ? 1u : 0u);
  EXPECT_EQ(vm.stats().instructions, 4u);
}

TEST(JitTest, ForcedThreadedBackendNeverJits) {
  auto verified = MustVerify("ldarg 0\npush 1\nadd\nretv");
  Vm vm(&verified, ExecMode::kSandboxed, VmBackend::kThreaded);
  EXPECT_EQ(vm.backend(), VmBackend::kThreaded);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(vm.Run(0, static_cast<uint64_t>(i)).ok());
  }
  EXPECT_EQ(vm.stats().jit_runs, 0u);
}

TEST(JitTest, DirectCompileAndRun) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  auto verified = MustVerify("ldarg 0\npush 2\nmul\nretv");
  auto compiled = JitCompile(verified, ExecMode::kTrusted);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  const JitProgram& jit = **compiled;
  EXPECT_EQ(jit.mode(), ExecMode::kTrusted);
  EXPECT_GT(jit.code_bytes(), 0u);

  auto ctx = std::make_unique<JitContext>();
  *ctx = {};
  ctx->args[0] = 21;
  EXPECT_EQ(jit.Run(0, ctx.get()), JitFault::kNone);
  EXPECT_EQ(ctx->result, 42u);
  EXPECT_EQ(ctx->instructions, 4u);
}

TEST(JitTest, CompiledCodeIsSharedPerModeThroughTheSlot) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  auto verified = MustVerify("push 0\nload64\nretv");
  ASSERT_NE(verified.jit_cache, nullptr);  // Verify() attaches the slot
  EXPECT_EQ(verified.jit_cache->per_mode[0], nullptr);  // nothing compiled yet
  EXPECT_EQ(verified.jit_cache->per_mode[1], nullptr);

  auto sandboxed1 = GetOrCompileJit(verified, ExecMode::kSandboxed);
  auto sandboxed2 = GetOrCompileJit(verified, ExecMode::kSandboxed);
  auto trusted = GetOrCompileJit(verified, ExecMode::kTrusted);
  ASSERT_TRUE(sandboxed1.ok());
  ASSERT_TRUE(sandboxed2.ok());
  ASSERT_TRUE(trusted.ok());
  EXPECT_EQ(sandboxed1->get(), sandboxed2->get());  // one compile, shared
  EXPECT_NE(sandboxed1->get(), trusted->get());     // modes differ per-insn

  // The slot holds exactly the two compiled images, one per mode.
  EXPECT_EQ(verified.jit_cache->per_mode[0], *sandboxed1);
  EXPECT_EQ(verified.jit_cache->per_mode[1], *trusted);
  // Sandboxed code carries the inlined checks: strictly bigger.
  EXPECT_GT((*sandboxed1)->code_bytes(), (*trusted)->code_bytes());
}

// Runs `src` on both backends under identical conditions and requires
// bit-identical observable behavior: status code AND message, value,
// instructions, bounds_checks, calls.
void ExpectBackendParity(const char* src, ExecMode mode, uint64_t fuel,
                         uint64_t a0 = 0, HostHelper helper = nullptr,
                         VerifyOptions options = {}) {
  if (!JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable";
  }
  auto verified = MustVerify(src, options);
  Vm threaded(&verified, mode, VmBackend::kThreaded);
  Vm jitted(&verified, mode, VmBackend::kJit);
  ASSERT_EQ(jitted.backend(), VmBackend::kJit);
  threaded.set_fuel(fuel);
  jitted.set_fuel(fuel);
  if (helper != nullptr) {
    threaded.SetHostHelper(0, helper, nullptr);
    jitted.SetHostHelper(0, helper, nullptr);
  }
  auto t = threaded.Run(0, a0);
  auto j = jitted.Run(0, a0);
  ASSERT_EQ(t.ok(), j.ok()) << "threaded: " << t.status().message()
                            << " jit: " << j.status().message();
  if (t.ok()) {
    EXPECT_EQ(*t, *j);
  } else {
    EXPECT_EQ(t.status().code(), j.status().code());
    EXPECT_EQ(t.status().message(), j.status().message());
  }
  EXPECT_EQ(threaded.stats().instructions, jitted.stats().instructions);
  EXPECT_EQ(threaded.stats().bounds_checks, jitted.stats().bounds_checks);
  EXPECT_EQ(threaded.stats().calls, jitted.stats().calls);
  EXPECT_EQ(threaded.stats().host_calls, jitted.stats().host_calls);
  EXPECT_EQ(jitted.stats().jit_runs, 1u);
  EXPECT_EQ(threaded.memory(), jitted.memory());
}

TEST(JitTest, FaultParityLoadOutOfBounds) {
  // analyze=false: the analyzer would reject this provably-OOB load at
  // verify time; the subject here is the *run-time* fault parity.
  ExpectBackendParity("push 0xFFFFFF8\nload64\nretv", ExecMode::kSandboxed, Vm::kDefaultFuel,
                      /*a0=*/0, /*helper=*/nullptr, {.analyze = false});
}

TEST(JitTest, FaultParityStoreOutOfBounds) {
  ExpectBackendParity("push 0xFFFFFF8\npush 1\nstore64\nhalt", ExecMode::kSandboxed,
                      Vm::kDefaultFuel, /*a0=*/0, /*helper=*/nullptr, {.analyze = false});
}

TEST(JitTest, FaultParityDivideByZero) {
  for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
    ExpectBackendParity("push 1\nldarg 0\ndivu\nretv", mode, Vm::kDefaultFuel, /*a0=*/0);
    ExpectBackendParity("push 7\nldarg 0\nremu\nretv", mode, Vm::kDefaultFuel, /*a0=*/0);
  }
}

TEST(JitTest, FaultParityOutOfFuel) {
  const char* loop = R"(
    ldarg 0
  loop:
    dup
    jz done
    push 1
    sub
    jmp loop
  done:
    retv
  )";
  for (uint64_t fuel : {0ull, 1ull, 2ull, 3ull, 7ull, 19ull}) {
    ExpectBackendParity(loop, ExecMode::kSandboxed, fuel, /*a0=*/1000);
  }
}

TEST(JitTest, FaultParityCallDepthExceeded) {
  // Unbounded recursion trips the call-depth rail in both modes.
  for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
    ExpectBackendParity("entry:\ncall entry\nret", mode, Vm::kDefaultFuel);
  }
}

TEST(JitTest, FaultParityUnboundHostHelper) {
  for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
    ExpectBackendParity("push 5\nhostcall 0\nretv", mode, Vm::kDefaultFuel);
  }
}

TEST(JitTest, HostCallParityWithBoundHelper) {
  HostHelper doubler = +[](void*, uint64_t arg) -> uint64_t { return arg * 2; };
  for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
    ExpectBackendParity("ldarg 0\nhostcall 0\npush 1\nadd\nretv", mode, Vm::kDefaultFuel,
                        /*a0=*/20, doubler);
  }
}

TEST(JitTest, CallRetAndMemoryTrafficParity) {
  const char* src = R"(
    ldarg 0
  loop:
    dup
    jz done
    dup
    push 8
    mul
    push 123
    store64
    call dec
    jmp loop
  done:
    retv
  dec:
    push 1
    sub
    ret
  )";
  for (ExecMode mode : {ExecMode::kSandboxed, ExecMode::kTrusted}) {
    ExpectBackendParity(src, mode, Vm::kDefaultFuel, /*a0=*/17);
  }
}

// The shape of the rule sets the filter tests and the end-to-end receive
// workloads generate: udplite rules over nesting /16 and /24 source
// prefixes under 10/8 with exact ports and port ranges, three in ten of
// them drop rules. Fixed seed, so the classifier is the same on every host.
std::string PrefixRangeRuleText(size_t rules) {
  para::Random rng(0x5EED);
  std::string text;
  for (size_t i = 0; i < rules; ++i) {
    text += rng.NextBelow(10) < 3 ? "drop" : "pass";
    const int prefix = rng.NextBelow(10) < 4 ? 16 : 24;
    text += " proto 17 from 10." + std::to_string(rng.NextBelow(64)) + "." +
            std::to_string(prefix == 16 ? 0 : rng.NextBelow(256)) + ".0/" +
            std::to_string(prefix);
    const uint64_t port = 1000 + 100 * rng.NextBelow(16);
    const uint64_t width = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(200);
    text += " dport " + std::to_string(port) + "-" + std::to_string(port + width) + "\n";
  }
  return text + "default drop\n";
}

// Cost ledger: the JIT's output depends only on the decoded stream, so a
// fixed classifier compiles to a fixed number of bytes in each mode. A
// change to the rule compiler, the verifier or code generation that moves
// these numbers updates them and says why in CHANGES.md.
TEST(JitTest, CodeSizeOfAFixed256RuleClassifier) {
  if (!JitSupported()) {
    GTEST_SKIP() << "JIT compiled out on this host";
  }
  auto rules = filter::ParseRules(PrefixRangeRuleText(256));
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  auto compiled = filter::CompileRules(*rules);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  ASSERT_EQ(compiled->backend, filter::CompileBackend::kDecisionTree);
  auto verified = Verify(compiled->program);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  auto trusted = JitCompile(*verified, ExecMode::kTrusted);
  auto sandboxed = JitCompile(*verified, ExecMode::kSandboxed);
  ASSERT_TRUE(trusted.ok()) << trusted.status().message();
  ASSERT_TRUE(sandboxed.ok()) << sandboxed.status().message();
  EXPECT_EQ(verified->code.size(), 5166u);
  EXPECT_EQ((*trusted)->code_bytes(), 36847u);
  EXPECT_EQ((*sandboxed)->code_bytes(), 130381u);
}

}  // namespace
}  // namespace para::sfi
