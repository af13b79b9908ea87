// Golden decoded streams: the executable artifact sfi::Verify builds must
// not drift. A fixed corpus (every built-in rule procedure at default
// arguments, a compiled prefix/range rule set in both code-generation
// backends, hand-written fixtures with fusable pairs, droppable stack checks,
// proven accesses and unreachable code, and seeded generated programs) is
// verified under all four (fuse_superinstructions, analyze) settings. Each
// artifact is summarized as one line — a digest over every slot's op, imm,
// target, arg and flags, plus the entry points, elide_floor and every
// VerifyReport field, or the rejection Status — and compared against
// golden_streams.inc.
//
// A change to the verifier that alters any stream must re-record the
// expectation: on a mismatch this test prints the full actual text, which
// replaces the body of golden_streams.inc, and the change says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/random.h"
#include "src/filter/compiler.h"
#include "src/filter/extension.h"
#include "src/filter/rule.h"
#include "src/sfi/assembler.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

constexpr std::string_view kExpected =
#include "tests/sfi/golden_streams.inc"
    ;

struct CorpusEntry {
  std::string name;
  Program program;
};

// Compiled-classifier shape, a loop with a counter that widens, calls, a
// check the analyzer drops between a push and a load that is a jump target
// (the pair must not fuse), unreachable code before the first entry point
// and behind a constant branch, two entry points, streams that end in a
// conditional branch or a call (their fall-through is the sentinel), and a
// stack deeper than the analyzer's exactly-modelled suffix.
constexpr std::pair<const char*, const char*> kFixtures[] = {
    {"classifier", R"(
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
    )"},
    {"checksum_loop", R"(
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
    )"},
    {"call_ret", R"(
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
    )"},
    {"dropped_check_splits_pair", R"(
      ldarg 0
      jnz other
      push 0
    target:
      load64
      retv
    other:
      push 16
      jmp target
    )"},
    {"unreachable", R"(
      push 99999
      load64
      retv
    .entry main
      push 0
      jz live
      push 99999
      load64
      push 1
      eq
      jnz live
      retv
    live:
      push 8
      load16
      push 2
      ltu
      jz out
      push 64
      load64
      retv
    out:
      push 4088
      load64
      retv
    )"},
    {"two_entries", R"(
    .entry first
      push 32
      load32
      push 9
      gtu
      jnz shared
      push 0
      retv
    .entry second
      push 40
      load64
    shared:
      push 1
      add
      dup
      push 16
      swap
      store64
      retv
    )"},
    {"ends_in_branch", R"(
      ldarg 0
      push 3
      eq
    top:
      jz top
    )"},
    {"ends_in_call", R"(
      ldarg 1
      jz body
      push 5
      retv
    body:
      push 2
      load8
      call body
    )"},
    {"constant_branches", R"(
      push 1
      push 1
      eq
      jz never
      push 2
      push 3
      ltu
      jnz taken
    never:
      push 5000
      load64
      retv
    taken:
      push 7
      push 7
      ne
      jnz never
      push 48
      load64
      retv
    )"},
};

// Pushes past the analyzer's 64-slot exactly-modelled suffix, then fused
// and unfused pairs against the absorbed base.
std::string DeepStackSource() {
  std::string src;
  for (int i = 0; i < 70; ++i) {
    src += "push " + std::to_string(8 * i) + "\n";
  }
  src += "push 8\nload64\npush 56\nload32\nltu\njz done\n";
  for (int i = 0; i < 40; ++i) {
    src += "load16\n";
  }
  src += "done:\nretv\n";
  return src;
}

// A seeded structured-random program: labels scattered between
// instruction groups (so fusable pairs sometimes straddle a block leader),
// forward and backward branches, calls and returns, in-bounds and
// out-of-bounds constant accesses, and constant divisors.
Program GeneratedProgram(para::Random& rng) {
  static const Op kLoads[] = {Op::kLoad8, Op::kLoad16, Op::kLoad32, Op::kLoad64};
  static const Op kCompares[] = {Op::kEq, Op::kNe, Op::kLtU, Op::kGtU};
  static const Op kArith[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kAnd,
                              Op::kOr,  Op::kXor, Op::kShl, Op::kShr};
  static const Op kShuffles[] = {Op::kDup, Op::kDrop, Op::kSwap, Op::kNot};
  Assembler a;
  const uint64_t groups = 24 + rng.NextBelow(40);
  const uint64_t labels = 1 + rng.NextBelow(6);
  std::vector<uint64_t> label_at(labels);
  for (uint64_t& at : label_at) {
    at = rng.NextBelow(groups);
  }
  auto label = [](uint64_t j) { return "L" + std::to_string(j); };
  a.EntryPoint();
  for (uint64_t i = 0, n = 3 + rng.NextBelow(4); i < n; ++i) {
    if (rng.NextBool(0.5)) {
      a.EmitPush(rng.NextBelow(4) * 8);
    } else {
      a.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
    }
  }
  for (uint64_t g = 0; g < groups; ++g) {
    for (uint64_t j = 0; j < labels; ++j) {
      if (label_at[j] == g) {
        a.Label(label(j));
      }
    }
    if (g == groups / 2 && rng.NextBool(0.3)) {
      a.EntryPoint();
    }
    const std::string target = label(rng.NextBelow(labels));
    switch (rng.NextBelow(24)) {
      default:
        a.EmitPush(rng.NextBelow(16) * 8);
        a.Emit(kLoads[rng.NextBelow(4)]);
        break;
      case 2:
        a.EmitPush(rng.NextBelow(64));
        break;
      case 3:
        a.EmitLdArg(static_cast<uint8_t>(rng.NextBelow(4)));
        break;
      case 4:
        a.Emit(kCompares[rng.NextBelow(4)]);
        a.EmitJump(rng.NextBool(0.5) ? Op::kJz : Op::kJnz, target);
        break;
      case 5:
        a.Emit(kCompares[rng.NextBelow(4)]);
        break;
      case 6:
        a.EmitJump(rng.NextBool(0.5) ? Op::kJz : Op::kJnz, target);
        break;
      case 7:
        a.EmitJump(Op::kJmp, target);
        break;
      case 8:
        a.EmitJump(Op::kCall, target);
        break;
      case 9:
        a.Emit(rng.NextBool(0.5) ? Op::kRet : Op::kRetV);
        break;
      case 10:
        a.Emit(kArith[rng.NextBelow(std::size(kArith))]);
        break;
      case 11:
        a.Emit(kShuffles[rng.NextBelow(std::size(kShuffles))]);
        break;
      case 12:
        a.EmitPush(rng.NextBelow(540) * 8);
        a.EmitPush(rng.Next());
        a.Emit(Op::kStore64);
        break;
      case 13:
        a.EmitPush(1 + rng.NextBelow(9));
        a.Emit(rng.NextBool(0.5) ? Op::kDivU : Op::kRemU);
        break;
      case 14:
        a.Emit(kLoads[rng.NextBelow(4)]);
        break;
      case 15:
        a.EmitHostCall(static_cast<uint8_t>(rng.NextBelow(2)));
        break;
      case 16:
        a.Emit(Op::kHalt);
        break;
    }
  }
  if (rng.NextBool(0.7)) {
    a.Emit(Op::kRetV);
  }
  auto program = a.Finish();
  EXPECT_TRUE(program.ok()) << program.status().message();
  return program.ok() ? std::move(*program) : Program{};
}

// A few hundred rules of the shapes production rule sets are made of: /16
// and /24 destination networks, some with source prefixes, disjoint port
// ranges, all three verdicts, and a last rule whose range overlaps the
// others (real interval work for the decision tree).
filter::RuleSet PrefixRangeRules() {
  filter::RuleSet set;
  for (uint32_t i = 0; i < 300; ++i) {
    filter::Rule rule;
    rule.verdict = i % 3 == 0   ? net::FilterVerdict::kDrop
                   : i % 3 == 1 ? net::FilterVerdict::kPass
                                : net::FilterVerdict::kReject;
    rule.proto = net::kIpProtoUdpLite;
    rule.dst_ip = 0xC0000000u | (i << 16) | (i % 2 == 0 ? 0 : (i & 0xFF) << 8);
    rule.dst_prefix = i % 2 == 0 ? 16 : 24;
    if (i % 5 == 0) {
      rule.src_ip = 0x0A000000u | (i << 8);
      rule.src_prefix = 24;
    }
    rule.dport_lo = static_cast<net::Port>(2000 + 8 * i);
    rule.dport_hi = static_cast<net::Port>(2000 + 8 * i + 7);
    set.rules.push_back(std::move(rule));
  }
  filter::Rule last;
  last.dst_ip = 0x0A010000;
  last.dst_prefix = 16;
  last.dport_lo = 1024;
  last.dport_hi = 2047;
  set.rules.push_back(std::move(last));
  set.default_verdict = net::FilterVerdict::kDrop;
  return set;
}

std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  const filter::RuleProcRegistry& builtins = filter::BuiltIns();
  for (const std::string& name : builtins.Names()) {
    auto program = builtins.Generate(filter::RuleProcSpec{name, {}});
    EXPECT_TRUE(program.ok()) << name << ": " << program.status().message();
    if (program.ok()) {
      corpus.push_back({"proc/" + name, std::move(*program)});
    }
  }
  const filter::RuleSet rules = PrefixRangeRules();
  for (auto [name, backend] : {std::pair{"rules/tree", filter::CompileBackend::kDecisionTree},
                               std::pair{"rules/linear", filter::CompileBackend::kLinear}}) {
    auto compiled = filter::CompileRules(rules, {.backend = backend});
    EXPECT_TRUE(compiled.ok()) << name << ": " << compiled.status().message();
    if (compiled.ok()) {
      EXPECT_EQ(compiled->backend, backend) << name;
      corpus.push_back({name, std::move(compiled->program)});
    }
  }
  for (const auto& [name, src] : kFixtures) {
    auto program = Assembler::Assemble(src);
    EXPECT_TRUE(program.ok()) << name << ": " << program.status().message();
    if (program.ok()) {
      corpus.push_back({std::string("fixture/") + name, std::move(*program)});
    }
  }
  auto deep = Assembler::Assemble(DeepStackSource());
  EXPECT_TRUE(deep.ok());
  if (deep.ok()) {
    corpus.push_back({"fixture/deep_stack", std::move(*deep)});
  }
  para::Random rng(0x601DE5u);
  for (int i = 0; i < 48; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "generated/%02d", i);
    corpus.push_back({name, GeneratedProgram(rng)});
  }
  return corpus;
}

// FNV-1a over every slot's fields, each little-endian at its own width.
uint64_t StreamDigest(const std::vector<DecodedInsn>& code) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xFF)) * 0x100000001b3ull;
    }
  };
  for (const DecodedInsn& insn : code) {
    mix(insn.op, 1);
    mix(insn.imm, 8);
    mix(insn.target, 4);
    mix(insn.arg, 1);
    mix(insn.flags, 2);
  }
  return h;
}

std::string Summarize(const std::string& name, const Program& program, VerifyOptions options) {
  std::ostringstream line;
  line << name << " fuse=" << options.fuse_superinstructions
       << " analyze=" << options.analyze << ": ";
  auto verified = Verify(program, options);
  if (!verified.ok()) {
    line << "rejected " << static_cast<int>(verified.status().code()) << " "
         << verified.status().message();
    return line.str();
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(StreamDigest(verified->code)));
  line << "slots=" << verified->code.size() << " stream=" << digest << " entries=";
  for (size_t i = 0; i < verified->entry_points.size(); ++i) {
    line << (i == 0 ? "" : ",") << verified->entry_points[i];
  }
  const VerifyReport& r = verified->report;
  line << " floor=" << verified->elide_floor << " report=" << r.instructions << "/" << r.jumps
       << "/" << r.memory_ops << "/" << r.basic_blocks << "/" << r.stack_checks << "/"
       << r.fused_pairs << "/" << r.elided_accesses << "/" << r.dropped_stack_checks << "/"
       << r.unreachable_insns;
  return line.str();
}

std::vector<std::string> Lines(std::string_view text) {
  std::vector<std::string> lines;
  std::istringstream in{std::string(text)};
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(GoldenStreamTest, VerifiedStreamsMatchTheRecordedExpectation) {
  std::string actual;
  for (const CorpusEntry& entry : Corpus()) {
    for (bool fuse : {false, true}) {
      for (bool analyze : {false, true}) {
        actual += Summarize(entry.name, entry.program,
                            {.fuse_superinstructions = fuse, .analyze = analyze});
        actual += "\n";
      }
    }
  }
  const std::vector<std::string> expected = Lines(kExpected);
  const std::vector<std::string> got = Lines(actual);
  const std::set<std::string> expected_set(expected.begin(), expected.end());
  const std::set<std::string> got_set(got.begin(), got.end());
  for (const std::string& line : got) {
    EXPECT_TRUE(expected_set.count(line) != 0) << "not in the expectation: " << line;
  }
  for (const std::string& line : expected) {
    EXPECT_TRUE(got_set.count(line) != 0) << "expected but not produced: " << line;
  }
  EXPECT_EQ(expected.size(), got.size());
  if (HasFailure()) {
    std::printf("---- actual golden_streams.inc body ----\n%s---- end ----\n", actual.c_str());
  }
}

uint64_t FixedHelper(void* /*ctx*/, uint64_t arg) { return arg * 3 + 1; }

// Fusion is a dispatch-only rewrite: it must not move anything the analyzer
// decided, nor what a run discharges statically.
TEST(GoldenStreamTest, FusionLeavesAnalysisResultsAndProofsUnchanged) {
  std::vector<VmBackend> backends = {VmBackend::kThreaded};
  if (JitAvailable()) {
    backends.push_back(VmBackend::kJit);
  }
  uint64_t total_proofs = 0;
  for (const CorpusEntry& entry : Corpus()) {
    auto plain = Verify(entry.program, {.fuse_superinstructions = false});
    auto fused = Verify(entry.program, {.fuse_superinstructions = true});
    ASSERT_EQ(plain.ok(), fused.ok()) << entry.name;
    if (!plain.ok()) {
      EXPECT_EQ(plain.status().code(), fused.status().code()) << entry.name;
      EXPECT_EQ(plain.status().message(), fused.status().message()) << entry.name;
      continue;
    }
    EXPECT_EQ(plain->report.fused_pairs, 0u) << entry.name;
    EXPECT_EQ(plain->report.elided_accesses, fused->report.elided_accesses) << entry.name;
    EXPECT_EQ(plain->report.dropped_stack_checks, fused->report.dropped_stack_checks)
        << entry.name;
    EXPECT_EQ(plain->report.unreachable_insns, fused->report.unreachable_insns) << entry.name;
    EXPECT_EQ(plain->elide_floor, fused->elide_floor) << entry.name;

    for (uint64_t seed : {0ull, 1ull, 7ull, 64ull}) {
      for (VmBackend backend : backends) {
        Vm plain_vm(&*plain, ExecMode::kSandboxed, backend);
        Vm fused_vm(&*fused, ExecMode::kSandboxed, backend);
        for (Vm* vm : {&plain_vm, &fused_vm}) {
          vm->set_fuel(20'000);
          for (size_t h = 0; h < 2; ++h) {
            vm->SetHostHelper(h, &FixedHelper, nullptr);
          }
          for (size_t b = 0; b < vm->memory().size(); ++b) {
            vm->memory()[b] = static_cast<uint8_t>(b * 37 + seed * 11);
          }
        }
        auto r_plain = plain_vm.Run(0, seed, seed * 3, 1, 2);
        auto r_fused = fused_vm.Run(0, seed, seed * 3, 1, 2);
        const std::string where = entry.name + " seed " + std::to_string(seed);
        ASSERT_EQ(r_plain.ok(), r_fused.ok()) << where;
        if (r_plain.ok()) {
          EXPECT_EQ(*r_plain, *r_fused) << where;
        } else {
          EXPECT_EQ(r_plain.status().code(), r_fused.status().code()) << where;
        }
        EXPECT_EQ(plain_vm.stats().instructions, fused_vm.stats().instructions) << where;
        EXPECT_EQ(plain_vm.stats().bounds_checks, fused_vm.stats().bounds_checks) << where;
        EXPECT_EQ(plain_vm.stats().static_proofs, fused_vm.stats().static_proofs) << where;
        total_proofs += fused_vm.stats().static_proofs;
      }
    }
  }
  // The corpus must actually discharge accesses statically, or the
  // comparison above is vacuous.
  EXPECT_GT(total_proofs, 0u);
}

}  // namespace
}  // namespace para::sfi
