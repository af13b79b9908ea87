// Unit tests for the packet-filter subsystem: the rule language, the
// rule-to-bytecode compiler (differential against the native matcher), the
// sandboxed/trusted execution modes, the certification gate on trusted
// loads, and the verifier rejection paths the filter relies on to never run
// an unverified program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/base/random.h"
#include "src/base/telemetry.h"
#include "src/filter/compiler.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/nucleus/cert.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::filter {
namespace {

using net::FilterDecision;
using net::FilterDirection;
using net::FilterVerdict;
using net::PacketView;
using nucleus::CertificationAuthority;

std::span<const uint8_t> Bytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// --- rule language ----------------------------------------------------------

TEST(RuleParserTest, ParsesFullGrammar) {
  auto set = ParseRules(R"(
    ; management net may talk to the resolver
    pass from 10.0.0.0/8 to 10.1.0.2 dport 53 proto udp
    pass to any dport 8000-8080 proc count  # tap the web tier
    reject payload 0=0x7F payload 3=0x45/0xF0
    drop sport 6000-7000
    default drop
  )");
  ASSERT_TRUE(set.ok()) << set.status().message();
  ASSERT_EQ(set->rules.size(), 4u);
  EXPECT_EQ(set->default_verdict, FilterVerdict::kDrop);

  const Rule& r0 = set->rules[0];
  EXPECT_EQ(r0.verdict, FilterVerdict::kPass);
  EXPECT_EQ(r0.src_ip, 0x0A000000u);
  EXPECT_EQ(r0.src_prefix, 8);
  EXPECT_EQ(r0.dst_ip, 0x0A010002u);
  EXPECT_EQ(r0.dst_prefix, 32);
  EXPECT_EQ(r0.dport_lo, 53);
  EXPECT_EQ(r0.dport_hi, 53);
  EXPECT_EQ(r0.proto, net::kIpProtoUdpLite);

  const Rule& r1 = set->rules[1];
  EXPECT_EQ(r1.verdict, FilterVerdict::kPass);
  ASSERT_EQ(r1.procs.size(), 1u);
  EXPECT_EQ(r1.procs[0].name, "count");
  EXPECT_EQ(r1.dst_prefix, 0);  // "any"
  EXPECT_EQ(r1.dport_lo, 8000);
  EXPECT_EQ(r1.dport_hi, 8080);

  const Rule& r2 = set->rules[2];
  ASSERT_EQ(r2.payload.size(), 2u);
  EXPECT_EQ(r2.payload[0].offset, 0);
  EXPECT_EQ(r2.payload[0].value, 0x7F);
  EXPECT_EQ(r2.payload[0].mask, 0xFF);
  EXPECT_EQ(r2.payload[1].offset, 3);
  EXPECT_EQ(r2.payload[1].mask, 0xF0);
}

TEST(RuleParserTest, RejectsMalformedRules) {
  EXPECT_FALSE(ParseRules("frobnicate from 1.2.3.4").ok());
  EXPECT_FALSE(ParseRules("pass from 1.2.3").ok());
  EXPECT_FALSE(ParseRules("pass from 1.2.3.4.5").ok());
  EXPECT_FALSE(ParseRules("pass from 1.2.3.4/33").ok());
  EXPECT_FALSE(ParseRules("pass dport 70000").ok());
  EXPECT_FALSE(ParseRules("pass dport 90-80").ok());
  EXPECT_FALSE(ParseRules("pass proto bogus").ok());
  EXPECT_FALSE(ParseRules("pass payload 4").ok());
  EXPECT_FALSE(ParseRules("pass payload 4=999").ok());
  EXPECT_FALSE(ParseRules("pass from").ok());
  EXPECT_FALSE(ParseRules("default").ok());
}

TEST(RuleParserTest, FormatRoundTrips) {
  auto set = ParseRules(
      "reject from 192.168.1.0/24 to 10.0.0.1 sport 1000-2000 dport 53 proto 17 "
      "payload 2=0x41/0x7F\n");
  ASSERT_TRUE(set.ok());
  std::string text = FormatRule(set->rules[0]);
  auto reparsed = ParseRules(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  const Rule& a = set->rules[0];
  const Rule& b = reparsed->rules[0];
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.src_ip, b.src_ip);
  EXPECT_EQ(a.src_prefix, b.src_prefix);
  EXPECT_EQ(a.dst_ip, b.dst_ip);
  EXPECT_EQ(a.sport_lo, b.sport_lo);
  EXPECT_EQ(a.sport_hi, b.sport_hi);
  EXPECT_EQ(a.dport_lo, b.dport_lo);
  EXPECT_EQ(a.proto, b.proto);
  ASSERT_EQ(b.payload.size(), 1u);
  EXPECT_EQ(a.payload[0].value, b.payload[0].value);
  EXPECT_EQ(a.payload[0].mask, b.payload[0].mask);
}

// --- compiler ---------------------------------------------------------------

// Runs the compiled classifier for one packet view, the way PacketFilter
// does: marshal descriptor, run entry 0.
uint64_t RunCompiled(const CompiledFilter& compiled, sfi::Vm& vm, const PacketView& view) {
  EXPECT_TRUE(WritePacketDescriptor(view, vm.memory(), compiled.payload_bytes_needed));
  auto result = vm.Run(0);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? *result : ~uint64_t{0};
}

TEST(CompilerTest, CompiledProgramVerifies) {
  auto set = ParseRules(
      "pass from 10.0.0.0/8 dport 53 proto udp\n"
      "reject payload 0=0x7F\n"
      "default drop\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->rule_count, 2u);
  EXPECT_EQ(compiled->payload_bytes_needed, 1u);
  auto verified = sfi::Verify(compiled->program);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_GT(verified->report.jumps, 0u);
  EXPECT_GT(verified->report.memory_ops, 0u);
}

TEST(CompilerTest, FirstMatchWinsAndDefaultApplies) {
  auto set = ParseRules(
      "pass dport 80 proc count\n"
      "drop dport 80\n"  // shadowed by the count rule
      "pass dport 443\n"
      "default reject\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->chains.size(), 1u);
  EXPECT_EQ(compiled->chains[0][0].name, "count");
  auto verified = sfi::Verify(compiled->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);

  PacketView http{1, 2, 1234, 80, net::kIpProtoUdpLite, 64, {}};
  FilterDecision d = DecodeVerdict(RunCompiled(*compiled, vm, http));
  EXPECT_EQ(d.verdict, FilterVerdict::kPass);
  EXPECT_EQ(d.rule, 0u);
  EXPECT_EQ(d.chain, 1u);  // the count rule's procedure chain

  PacketView https{1, 2, 1234, 443, net::kIpProtoUdpLite, 64, {}};
  d = DecodeVerdict(RunCompiled(*compiled, vm, https));
  EXPECT_EQ(d.verdict, FilterVerdict::kPass);
  EXPECT_EQ(d.rule, 2u);
  EXPECT_EQ(d.chain, 0u);

  PacketView other{1, 2, 1234, 7777, net::kIpProtoUdpLite, 64, {}};
  d = DecodeVerdict(RunCompiled(*compiled, vm, other));
  EXPECT_EQ(d.verdict, FilterVerdict::kReject);
  EXPECT_EQ(d.rule, net::kDefaultRuleIndex);
}

TEST(CompilerTest, PayloadMatchRespectsLengthAndMask) {
  auto set = ParseRules("drop payload 4=0x40/0xC0\ndefault pass\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  auto verified = sfi::Verify(compiled->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);

  std::string long_match = "xxxx\x7Fzz";   // byte 4 = 0x7F, & 0xC0 == 0x40
  std::string long_miss = "xxxx\xC1zz";    // byte 4 & 0xC0 == 0xC0
  std::string short_pkt = "xxxx";          // byte 4 absent => rule cannot match
  PacketView view{1, 2, 3, 4, net::kIpProtoUdpLite, 64, Bytes(long_match)};
  EXPECT_EQ(DecodeVerdict(RunCompiled(*compiled, vm, view)).verdict, FilterVerdict::kDrop);
  view.payload = Bytes(long_miss);
  EXPECT_EQ(DecodeVerdict(RunCompiled(*compiled, vm, view)).verdict, FilterVerdict::kPass);
  view.payload = Bytes(short_pkt);
  EXPECT_EQ(DecodeVerdict(RunCompiled(*compiled, vm, view)).verdict, FilterVerdict::kPass);
}

TEST(CompilerTest, RejectsPayloadOffsetBeyondCaptureWindow) {
  RuleSet set;
  Rule rule;
  rule.payload.push_back({static_cast<uint16_t>(kMaxPayloadCapture), 0x41, 0xFF});
  set.rules.push_back(rule);
  EXPECT_FALSE(CompileRules(set).ok());
}

TEST(CompilerTest, RejectsOversizedRuleSets) {
  RuleSet set;
  set.rules.resize(kMaxRules + 1);
  EXPECT_FALSE(CompileRules(set).ok());
}

// Differential: random rule sets x random packets, compiled (in both modes)
// vs the native matcher. Any divergence is a compiler bug. The generator is
// deliberately range/prefix-heavy (nested networks from a small pool of
// bases, overlapping port ranges) so the LPM-trie and interval dispatch
// paths — not just exact buckets — carry real load.
TEST(CompilerTest, DifferentialAgainstNativeMatcher) {
  para::Random rng(0xF17E12);
  // A small pool of network bases so random prefixes nest and collide.
  const uint32_t kBases[] = {0x0A000000u, 0x0A010000u, 0x0A010200u, 0xC0A80000u, 0xAC100000u};
  const uint8_t kPrefixes[] = {4, 8, 12, 16, 20, 24, 28, 32};
  auto random_network = [&](uint32_t* ip, uint8_t* prefix) {
    *ip = kBases[rng.NextBelow(std::size(kBases))] | (rng.Next32() & 0xFFFF);
    *prefix = kPrefixes[rng.NextBelow(std::size(kPrefixes))];
  };
  for (int round = 0; round < 40; ++round) {
    RuleSet set;
    set.default_verdict = static_cast<FilterVerdict>(rng.NextBelow(4));
    size_t rule_count = 1 + rng.NextBelow(24);
    for (size_t i = 0; i < rule_count; ++i) {
      Rule rule;
      rule.verdict = static_cast<FilterVerdict>(rng.NextBelow(4));
      if (rng.NextBool(0.5)) {
        random_network(&rule.src_ip, &rule.src_prefix);
      }
      if (rng.NextBool(0.5)) {
        random_network(&rule.dst_ip, &rule.dst_prefix);
      }
      if (rng.NextBool(0.5)) {
        rule.sport_lo = static_cast<net::Port>(rng.NextBelow(12));
        rule.sport_hi = static_cast<net::Port>(rule.sport_lo + rng.NextBelow(12));
      }
      if (rng.NextBool(0.5)) {
        rule.dport_lo = static_cast<net::Port>(rng.NextBelow(12));
        rule.dport_hi = static_cast<net::Port>(rule.dport_lo + rng.NextBelow(12));
      }
      if (rng.NextBool(0.4)) {
        rule.proto = static_cast<int16_t>(rng.NextBelow(3));
      }
      size_t payload_tests = rng.NextBelow(3);
      for (size_t p = 0; p < payload_tests; ++p) {
        PayloadMatch match;
        match.offset = static_cast<uint16_t>(rng.NextBelow(6));
        match.value = static_cast<uint8_t>(rng.NextBelow(4));
        match.mask = rng.NextBool(0.5) ? 0xFF : 0x03;
        rule.payload.push_back(match);
      }
      set.rules.push_back(std::move(rule));
    }

    auto linear = CompileRules(set, {CompileBackend::kLinear});
    auto tree = CompileRules(set, {CompileBackend::kDecisionTree});
    ASSERT_TRUE(linear.ok());
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(linear->backend, CompileBackend::kLinear);
    auto linear_verified = sfi::Verify(linear->program);
    auto tree_verified = sfi::Verify(tree->program);
    ASSERT_TRUE(linear_verified.ok());
    ASSERT_TRUE(tree_verified.ok());
    sfi::Vm sandboxed(&*linear_verified, sfi::ExecMode::kSandboxed);
    sfi::Vm trusted(&*linear_verified, sfi::ExecMode::kTrusted);
    sfi::Vm tree_sandboxed(&*tree_verified, sfi::ExecMode::kSandboxed);
    sfi::Vm tree_trusted(&*tree_verified, sfi::ExecMode::kTrusted);

    for (int pkt = 0; pkt < 50; ++pkt) {
      std::vector<uint8_t> payload(rng.NextBelow(8));
      for (auto& byte : payload) {
        byte = static_cast<uint8_t>(rng.NextBelow(4));
      }
      PacketView view;
      // Small field domains so rules and packets actually collide; half the
      // packets land inside a random rule's networks (with random host bits,
      // so non-/32 prefixes are hit away from their base address too).
      view.src_ip = static_cast<net::IpAddr>(rng.Next32());
      view.dst_ip = static_cast<net::IpAddr>(rng.Next32());
      if (!set.rules.empty() && rng.NextBool(0.5)) {
        const Rule& target = set.rules[rng.NextBelow(set.rules.size())];
        uint32_t src_mask = PrefixMask(target.src_prefix);
        uint32_t dst_mask = PrefixMask(target.dst_prefix);
        view.src_ip = (target.src_ip & src_mask) | (rng.Next32() & ~src_mask & 0xFFFF);
        view.dst_ip = (target.dst_ip & dst_mask) | (rng.Next32() & ~dst_mask & 0xFFFF);
      }
      view.src_port = static_cast<net::Port>(rng.NextBelow(24));
      view.dst_port = static_cast<net::Port>(rng.NextBelow(24));
      view.proto = static_cast<uint8_t>(rng.NextBelow(3));
      view.payload = payload;

      uint64_t expected = NativeMatch(set, view);
      EXPECT_EQ(RunCompiled(*linear, sandboxed, view), expected)
          << "sandboxed divergence, round " << round << " pkt " << pkt;
      EXPECT_EQ(RunCompiled(*linear, trusted, view), expected)
          << "trusted divergence, round " << round << " pkt " << pkt;
      EXPECT_EQ(RunCompiled(*tree, tree_sandboxed, view), expected)
          << "tree sandboxed divergence, round " << round << " pkt " << pkt;
      EXPECT_EQ(RunCompiled(*tree, tree_trusted, view), expected)
          << "tree trusted divergence, round " << round << " pkt " << pkt;
    }
  }
}

// --- decision-tree backend --------------------------------------------------

TEST(DecisionTreeTest, SplitsOnDiscriminatingField) {
  // 64 rules pinning distinct /32 destinations: the tree must dispatch
  // instead of chaining, and a packet for the last rule must execute far
  // fewer instructions than the linear walk.
  RuleSet set;
  for (uint32_t i = 0; i < 64; ++i) {
    Rule rule;
    rule.verdict = FilterVerdict::kDrop;
    rule.dst_ip = 0x0A000000u + i;
    rule.dst_prefix = 32;
    set.rules.push_back(rule);
  }
  set.default_verdict = FilterVerdict::kPass;

  auto tree = CompileRules(set, {CompileBackend::kDecisionTree});
  auto linear = CompileRules(set, {CompileBackend::kLinear});
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(tree->backend, CompileBackend::kDecisionTree);
  EXPECT_GT(tree->dispatch_nodes, 0u);
  EXPECT_EQ(tree->emitted_rule_instances, 64u);  // no wildcards, no duplication

  auto tree_verified = sfi::Verify(tree->program);
  auto linear_verified = sfi::Verify(linear->program);
  ASSERT_TRUE(tree_verified.ok());
  ASSERT_TRUE(linear_verified.ok());
  sfi::Vm tree_vm(&*tree_verified, sfi::ExecMode::kSandboxed);
  sfi::Vm linear_vm(&*linear_verified, sfi::ExecMode::kSandboxed);

  PacketView view{1, 0x0A000000u + 63, 1, 2, 0, 64, {}};
  uint64_t expected = NativeMatch(set, view);
  EXPECT_EQ(RunCompiled(*tree, tree_vm, view), expected);
  EXPECT_EQ(RunCompiled(*linear, linear_vm, view), expected);
  // The point of the exercise: logarithmic dispatch, not a 63-rule walk.
  EXPECT_LT(tree_vm.stats().instructions, linear_vm.stats().instructions / 4);
}

TEST(DecisionTreeTest, FirstMatchSemanticsSurviveBucketing) {
  // A shadowing wildcard rule between exact rules: bucketing must keep it in
  // every bucket at its original priority.
  auto set = ParseRules(
      "drop dport 10\n"
      "pass proto 1 proc count\n"  // wildcard on dport: rides into every bucket
      "pass dport 10\n"            // shadowed by rule 0 for dport 10
      "reject dport 20\n"
      "drop dport 30\n"
      "pass dport 40\n"
      "default pass\n");
  ASSERT_TRUE(set.ok());
  auto tree = CompileRules(*set, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(tree.ok());
  auto verified = sfi::Verify(tree->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);

  struct Case {
    net::Port dport;
    uint8_t proto;
  };
  for (const Case& c : {Case{10, 0}, Case{10, 1}, Case{20, 1}, Case{20, 0}, Case{30, 0},
                        Case{40, 1}, Case{77, 0}, Case{77, 1}}) {
    PacketView view{1, 2, 3, c.dport, c.proto, 64, {}};
    EXPECT_EQ(RunCompiled(*tree, vm, view), NativeMatch(*set, view))
        << "dport=" << c.dport << " proto=" << static_cast<int>(c.proto);
  }
}

TEST(DecisionTreeTest, PrefixesAndRangesNowDispatch) {
  // Port ranges and short prefixes used to be wildcards to the dispatcher
  // (this exact rule set degenerated to the linear chain); they are now
  // first-class dispatch shapes — and the semantics must not move.
  auto set = ParseRules(
      "drop sport 1000-2000\n"
      "pass from 10.0.0.0/8\n"
      "pass dport 5000-6000 proc count\n"
      "reject from 192.168.0.0/16\n"
      "default drop\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->backend, CompileBackend::kDecisionTree);
  EXPECT_GT(compiled->dispatch_nodes, 0u);

  auto verified = sfi::Verify(compiled->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);
  for (net::Port sport : {999, 1000, 1500, 2000, 2001}) {
    for (net::Port dport : {4999, 5000, 6000, 6001}) {
      for (net::IpAddr src : {0x0A000001u, 0x0AFFFFFFu, 0xC0A80001u, 0xC0A90001u, 0x7F000001u}) {
        PacketView view{src, 2, sport, dport, net::kIpProtoUdpLite, 64, {}};
        EXPECT_EQ(RunCompiled(*compiled, vm, view), NativeMatch(*set, view))
            << "src=" << src << " sport=" << sport << " dport=" << dport;
      }
    }
  }
}

TEST(DecisionTreeTest, FallsBackToLinearWhenNothingDiscriminates) {
  // Payload-only rules give the dispatcher no packet field to split on: the
  // tree degenerates to the linear chain.
  auto set = ParseRules(
      "drop payload 0=0x7F\n"
      "pass payload 1=0x45/0xF0\n"
      "pass payload 2=0x01 proc count\n"
      "reject payload 3=0x02\n"
      "default drop\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->backend, CompileBackend::kLinear);
  EXPECT_EQ(compiled->dispatch_nodes, 0u);
}

TEST(DecisionTreeTest, LpmTrieDispatchesPrefixHeavySets) {
  // 64 distinct /16 networks: the old tree treated every one as a wildcard
  // and walked the chain; the LPM node must bucket by the leading 16 bits.
  RuleSet set;
  for (uint32_t i = 0; i < 64; ++i) {
    Rule rule;
    rule.verdict = FilterVerdict::kDrop;
    rule.dst_ip = (0xC0u << 24) | (i << 16);
    rule.dst_prefix = 16;
    set.rules.push_back(rule);
  }
  set.default_verdict = FilterVerdict::kPass;

  auto tree = CompileRules(set, {CompileBackend::kDecisionTree});
  auto linear = CompileRules(set, {CompileBackend::kLinear});
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(tree->backend, CompileBackend::kDecisionTree);
  EXPECT_GT(tree->lpm_nodes, 0u);
  EXPECT_EQ(tree->emitted_rule_instances, 64u);  // one bucket each, no duplication

  auto tree_verified = sfi::Verify(tree->program);
  auto linear_verified = sfi::Verify(linear->program);
  ASSERT_TRUE(tree_verified.ok());
  ASSERT_TRUE(linear_verified.ok());
  sfi::Vm tree_vm(&*tree_verified, sfi::ExecMode::kSandboxed);
  sfi::Vm linear_vm(&*linear_verified, sfi::ExecMode::kSandboxed);

  // Any address inside the last network (not just its base) must match it.
  PacketView view{1, (0xC0u << 24) | (63u << 16) | 0x1234u, 1, 2, 0, 64, {}};
  uint64_t expected = NativeMatch(set, view);
  EXPECT_EQ(DecodeVerdict(expected).rule, 63u);
  EXPECT_EQ(RunCompiled(*tree, tree_vm, view), expected);
  EXPECT_EQ(RunCompiled(*linear, linear_vm, view), expected);
  // Logarithmic dispatch, not a 63-rule walk.
  EXPECT_LT(tree_vm.stats().instructions, linear_vm.stats().instructions / 4);
}

TEST(DecisionTreeTest, LpmTrieSplitsNestedPrefixesDeeper) {
  // A covering /8 plus /16s nested inside it plus /24s inside one of those:
  // stride selection must not stall on the /8 (it rides as this node's
  // wildcard) and deeper nodes must consume further bits.
  auto set = ParseRules(
      "pass from 10.0.0.0/8 proc count\n"
      "drop from 10.1.0.0/16\n"
      "pass from 10.2.0.0/16\n"
      "reject from 10.2.3.0/24\n"
      "drop from 10.2.4.0/24\n"
      "pass from 11.0.0.0/8\n"
      "default drop\n");
  ASSERT_TRUE(set.ok());
  auto tree = CompileRules(*set, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->backend, CompileBackend::kDecisionTree);
  EXPECT_GT(tree->lpm_nodes, 0u);

  auto verified = sfi::Verify(tree->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);
  for (net::IpAddr src :
       {0x0A000001u,  // 10.0.x: only the /8 (count, rule 0 — first match)
        0x0A010001u,  // 10.1.x: rule 0 still wins (priority over the /16)
        0x0A020301u,  // 10.2.3.x: rule 0 wins over the nested /24 too
        0x0B000001u,  // 11.x: rule 5
        0x0C000001u}) {
    PacketView view{src, 2, 3, 4, 0, 64, {}};
    EXPECT_EQ(RunCompiled(*tree, vm, view), NativeMatch(*set, view)) << "src=" << src;
  }

  // Priority inverted: nested-longest first, so the /24s and /16s actually
  // decide — the trie must preserve that ordering as well.
  auto inverted = ParseRules(
      "reject from 10.2.3.0/24\n"
      "drop from 10.2.4.0/24\n"
      "drop from 10.1.0.0/16\n"
      "pass from 10.2.0.0/16\n"
      "pass from 10.0.0.0/8 proc count\n"
      "default drop\n");
  ASSERT_TRUE(inverted.ok());
  auto inv_tree = CompileRules(*inverted, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(inv_tree.ok());
  auto inv_verified = sfi::Verify(inv_tree->program);
  ASSERT_TRUE(inv_verified.ok());
  sfi::Vm inv_vm(&*inv_verified, sfi::ExecMode::kSandboxed);
  for (net::IpAddr src : {0x0A020301u, 0x0A020401u, 0x0A020501u, 0x0A010001u, 0x0A000001u,
                          0x0B000001u}) {
    PacketView view{src, 2, 3, 4, 0, 64, {}};
    EXPECT_EQ(RunCompiled(*inv_tree, inv_vm, view), NativeMatch(*inverted, view))
        << "src=" << src;
  }
}

TEST(DecisionTreeTest, IntervalDispatchesRangeHeavySets) {
  // 64 disjoint port ranges: interval binary search over the endpoints, not
  // a 64-rule walk.
  RuleSet set;
  for (uint32_t i = 0; i < 64; ++i) {
    Rule rule;
    rule.verdict = FilterVerdict::kDrop;
    rule.dport_lo = static_cast<net::Port>(1000 + 10 * i);
    rule.dport_hi = static_cast<net::Port>(1000 + 10 * i + 9);
    set.rules.push_back(rule);
  }
  set.default_verdict = FilterVerdict::kPass;

  auto tree = CompileRules(set, {CompileBackend::kDecisionTree});
  auto linear = CompileRules(set, {CompileBackend::kLinear});
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(tree->backend, CompileBackend::kDecisionTree);
  EXPECT_GT(tree->interval_nodes, 0u);

  auto tree_verified = sfi::Verify(tree->program);
  auto linear_verified = sfi::Verify(linear->program);
  ASSERT_TRUE(tree_verified.ok());
  ASSERT_TRUE(linear_verified.ok());
  sfi::Vm tree_vm(&*tree_verified, sfi::ExecMode::kSandboxed);
  sfi::Vm linear_vm(&*linear_verified, sfi::ExecMode::kSandboxed);

  // Range interior, boundaries, gaps outside every range.
  for (net::Port dport : {999, 1000, 1004, 1009, 1635, 1639, 1999, 2000}) {
    PacketView view{1, 2, 3, dport, 0, 64, {}};
    uint64_t expected = NativeMatch(set, view);
    EXPECT_EQ(RunCompiled(*tree, tree_vm, view), expected) << dport;
    EXPECT_EQ(RunCompiled(*linear, linear_vm, view), expected) << dport;
  }
  // Fresh VMs for a clean per-packet instruction comparison: a packet deep
  // in the rule set must binary-search, not walk.
  sfi::Vm tree_probe(&*tree_verified, sfi::ExecMode::kSandboxed);
  sfi::Vm linear_probe(&*linear_verified, sfi::ExecMode::kSandboxed);
  PacketView last{1, 2, 3, 1635, 0, 64, {}};
  EXPECT_EQ(RunCompiled(*tree, tree_probe, last), RunCompiled(*linear, linear_probe, last));
  EXPECT_LT(tree_probe.stats().instructions, linear_probe.stats().instructions / 4);
}

TEST(DecisionTreeTest, OverlappingRangesKeepFirstMatchOrder) {
  // Nested and overlapping ranges with interleaved priorities: every
  // elementary segment must test its covering rules in original order.
  auto set = ParseRules(
      "pass dport 100-200 proc count\n"
      "drop dport 150-160\n"    // shadowed by the count rule
      "pass dport 190-300\n"    // decides only 201-300
      "reject dport 250-260\n"  // shadowed by the pass rule
      "drop sport 1-10\n"       // different field: rides across segments
      "default drop\n");
  ASSERT_TRUE(set.ok());
  auto tree = CompileRules(*set, {CompileBackend::kDecisionTree});
  ASSERT_TRUE(tree.ok());
  auto verified = sfi::Verify(tree->program);
  ASSERT_TRUE(verified.ok());
  sfi::Vm vm(&*verified, sfi::ExecMode::kSandboxed);

  for (net::Port sport : {0, 5, 11}) {
    for (net::Port dport : {99, 100, 149, 155, 189, 195, 201, 255, 300, 301}) {
      PacketView view{1, 2, sport, dport, 0, 64, {}};
      EXPECT_EQ(RunCompiled(*tree, vm, view), NativeMatch(*set, view))
          << "sport=" << sport << " dport=" << dport;
    }
  }
}

// --- verifier rejection paths (the filter must never load unverified code) --

TEST(VerifierGateTest, RejectsJumpOutOfBounds) {
  auto set = ParseRules("pass dport 80\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  // Corrupt the first jz rel32 to point far outside the program.
  auto& code = compiled->program.code;
  size_t pos = 0;
  bool patched = false;
  while (pos < code.size()) {
    auto op = static_cast<sfi::Op>(code[pos]);
    if (op == sfi::Op::kJz) {
      int32_t rel = 0x7FFFFFF;
      std::memcpy(code.data() + pos + 1, &rel, 4);
      patched = true;
      break;
    }
    pos += sfi::InstructionLength(op);
  }
  ASSERT_TRUE(patched);
  EXPECT_FALSE(sfi::Verify(compiled->program).ok());
}

TEST(VerifierGateTest, RejectsJumpIntoInstructionMiddle) {
  auto set = ParseRules("pass dport 80\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  auto& code = compiled->program.code;
  size_t pos = 0;
  bool patched = false;
  while (pos < code.size()) {
    auto op = static_cast<sfi::Op>(code[pos]);
    if (op == sfi::Op::kJz) {
      // Target the byte after the next instruction's opcode: a valid code
      // offset but not an instruction start (the next op is a push imm64).
      size_t next = pos + sfi::InstructionLength(op);
      ASSERT_EQ(static_cast<sfi::Op>(code[next]), sfi::Op::kPush);
      int32_t rel = static_cast<int32_t>(next + 1) - static_cast<int32_t>(pos + 5);
      std::memcpy(code.data() + pos + 1, &rel, 4);
      patched = true;
      break;
    }
    pos += sfi::InstructionLength(op);
  }
  ASSERT_TRUE(patched);
  EXPECT_FALSE(sfi::Verify(compiled->program).ok());
}

TEST(VerifierGateTest, RejectsTruncatedFinalInstruction) {
  auto set = ParseRules("pass dport 80\n");
  ASSERT_TRUE(set.ok());
  auto compiled = CompileRules(*set);
  ASSERT_TRUE(compiled.ok());
  // The program ends with push imm64 + retv; chop the retv and half the
  // immediate so the final instruction is truncated.
  auto& code = compiled->program.code;
  code.resize(code.size() - 6);
  EXPECT_FALSE(sfi::Verify(compiled->program).ok());
}

TEST(VerifierGateTest, RejectsOversizedPrograms) {
  sfi::Program program;
  program.code.assign(sfi::kMaxProgramBytes + 1, static_cast<uint8_t>(sfi::Op::kHalt));
  program.entry_points.push_back(0);
  auto report = sfi::Verify(program);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kResourceExhausted);
  // One byte under the cap is fine.
  program.code.resize(sfi::kMaxProgramBytes);
  EXPECT_TRUE(sfi::Verify(program).ok());
}

// --- PacketFilter -----------------------------------------------------------

TEST(PacketFilterTest, EmptyFilterPassesEverything) {
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ((*filter)->mode(), sfi::ExecMode::kSandboxed);
  EXPECT_EQ((*filter)->rule_count(), 0u);
  PacketView view{1, 2, 3, 4, net::kIpProtoUdpLite, 64, {}};
  FilterDecision d = (*filter)->Evaluate(view, FilterDirection::kIngress);
  EXPECT_EQ(d.verdict, FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().pass, 1u);
}

TEST(PacketFilterTest, SandboxedAndTrustedAgree) {
  auto rules = ParseRules(
      "pass from 10.0.0.0/8 dport 53\n"
      "pass dport 8080 proc count\n"
      "default drop\n");
  ASSERT_TRUE(rules.ok());

  FilterConfig config;
  config.track_flows = false;
  auto sandboxed = PacketFilter::Create(config);
  ASSERT_TRUE(sandboxed.ok());
  ASSERT_TRUE((*sandboxed)->Load(*rules).ok());
  EXPECT_EQ((*sandboxed)->mode(), sfi::ExecMode::kSandboxed);

  para::Random rng(0xDEAD);
  CertificationAuthority authority =
      nucleus::CertificationAuthority(crypto::GenerateKeyPair(512, rng));
  auto signer_keys = crypto::GenerateKeyPair(512, rng);
  auto grant = authority.Grant("filter-compiler", signer_keys.public_key,
                               nucleus::kCertKernelEligible);
  nucleus::Certifier signer(
      "filter-compiler", signer_keys, grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
  nucleus::CertificationService service(authority.public_key());
  ASSERT_TRUE(service.RegisterGrant(grant).ok());

  auto trusted = PacketFilter::Create(config);
  ASSERT_TRUE(trusted.ok());
  ASSERT_TRUE((*trusted)->LoadCertified(*rules, signer, service).ok());
  EXPECT_EQ((*trusted)->mode(), sfi::ExecMode::kTrusted);

  for (uint32_t i = 0; i < 64; ++i) {
    PacketView view;
    view.src_ip = (i % 2) ? 0x0A000005u : 0xC0A80005u;
    view.dst_ip = 0x0A010002;
    view.src_port = static_cast<net::Port>(1000 + i);
    view.dst_port = (i % 3 == 0) ? 53 : (i % 3 == 1) ? 8080 : 9999;
    view.proto = net::kIpProtoUdpLite;
    FilterDecision a = (*sandboxed)->Evaluate(view, FilterDirection::kIngress);
    FilterDecision b = (*trusted)->Evaluate(view, FilterDirection::kIngress);
    EXPECT_EQ(a.verdict, b.verdict) << i;
    EXPECT_EQ(a.rule, b.rule) << i;
  }
  // The sandbox paid bounds checks for every access; trusted paid none.
  EXPECT_GT((*sandboxed)->vm_stats().bounds_checks, 0u);
  EXPECT_EQ((*trusted)->vm_stats().bounds_checks, 0u);
}

TEST(PacketFilterTest, TrustedLoadRequiresValidCertificationChain) {
  auto rules = ParseRules("drop dport 23\n");
  ASSERT_TRUE(rules.ok());
  para::Random rng(0xBEEF);
  CertificationAuthority authority(crypto::GenerateKeyPair(512, rng));
  auto signer_keys = crypto::GenerateKeyPair(512, rng);

  // Grant restricted to non-kernel flags: certification succeeds but the
  // kernel validation refuses kernel residence.
  auto weak_grant =
      authority.Grant("weak", signer_keys.public_key, nucleus::kCertSharedService);
  nucleus::Certifier weak(
      "weak", signer_keys, weak_grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
  nucleus::CertificationService service(authority.public_key());
  ASSERT_TRUE(service.RegisterGrant(weak_grant).ok());

  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  EXPECT_FALSE((*filter)->LoadCertified(*rules, weak, service).ok());
  // The failed trusted load must not have replaced the installed program.
  EXPECT_EQ((*filter)->mode(), sfi::ExecMode::kSandboxed);

  // A certifier whose policy refuses also blocks the load.
  auto strict_keys = crypto::GenerateKeyPair(512, rng);
  auto strict_grant =
      authority.Grant("strict", strict_keys.public_key, nucleus::kCertKernelEligible);
  nucleus::Certifier strict("strict", strict_keys, strict_grant,
                            [](const std::string&, std::span<const uint8_t>, uint32_t) {
                              return Status(ErrorCode::kPermissionDenied, "policy says no");
                            });
  ASSERT_TRUE(service.RegisterGrant(strict_grant).ok());
  EXPECT_FALSE((*filter)->LoadCertified(*rules, strict, service).ok());

  // An unregistered signer fails kernel-side validation.
  auto rogue_keys = crypto::GenerateKeyPair(512, rng);
  auto rogue_grant =
      authority.Grant("rogue", rogue_keys.public_key, nucleus::kCertKernelEligible);
  nucleus::Certifier rogue(
      "rogue", rogue_keys, rogue_grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
  EXPECT_FALSE((*filter)->LoadCertified(*rules, rogue, service).ok());
}

TEST(PacketFilterTest, FlowFastPathAndCounters) {
  auto rules = ParseRules("pass dport 80\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  FilterConfig config;
  config.flow_capacity = 16;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  std::string body = "hello";
  PacketView view{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, Bytes(body)};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*filter)->Evaluate(view, FilterDirection::kIngress).verdict,
              FilterVerdict::kPass);
  }
  const FilterStats& stats = (*filter)->stats();
  EXPECT_EQ(stats.evaluated, 5u);
  EXPECT_EQ(stats.pass, 5u);
  EXPECT_EQ(stats.flow_hits, 4u);  // first packet ran the VM, the rest hit the table

  FlowKey key{view.src_ip, view.dst_ip, view.src_port, view.dst_port, view.proto};
  FlowEntry* flow = (*filter)->flows().Find(key);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->packets, 5u);
  EXPECT_EQ(flow->bytes, 5u * body.size());

  // Dropped packets do not establish flows.
  PacketView blocked{0x0A000001, 0x0A000002, 4000, 9999, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(blocked, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->flows().size(), 1u);
}

TEST(PacketFilterTest, HotReloadReevaluatesEstablishedFlowsByDefault) {
  // Tightening the rules must take effect for established conversations too:
  // a flow admitted under epoch N that hits the table under epoch N+1 is
  // sent back through the installed classifier (and, failing it, dropped) —
  // the cached verdict of a dead rule-set generation is never served.
  auto permissive = ParseRules("pass dport 80\ndefault drop\n");
  auto lockdown = ParseRules("default drop\n");
  ASSERT_TRUE(permissive.ok() && lockdown.ok());

  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*permissive).ok());

  PacketView established{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);

  ASSERT_TRUE((*filter)->Load(*lockdown).ok());

  // The established flow re-evaluates against the lockdown rules and drops;
  // its stale entry is gone (drops do not re-establish).
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->stats().flow_reevaluations, 1u);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);  // the stale hit was not served
  EXPECT_EQ((*filter)->flows().size(), 0u);

  // Loosening works the same way: a reload back to permissive rules
  // re-admits the flow on its next packet.
  ASSERT_TRUE((*filter)->Load(*permissive).ok());
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->flows().size(), 1u);
}

TEST(PacketFilterTest, ReloadReevaluatesReplyTrafficInForwardOrientation) {
  // Rules pass only dport 80, so the reply tuple (sport 80) never matched
  // them — only the reverse-tuple fast path lets replies through. After a
  // reload (even of the identical rule set: every reload bumps the epoch),
  // the stale-epoch re-evaluation must therefore judge the conversation's
  // FORWARD orientation; judging the reply tuple would wedge every
  // server-speaks-next conversation the rules still admit.
  auto rules = ParseRules("pass dport 80\ndefault drop\n");
  auto lockdown = ParseRules("default drop\n");
  ASSERT_TRUE(rules.ok() && lockdown.ok());
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  std::string body = "pong";
  PacketView request{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, {}};
  PacketView reply{0x0A000002, 0x0A000001, 80, 4000, net::kIpProtoUdpLite, 64, Bytes(body)};
  EXPECT_EQ((*filter)->Evaluate(request, FilterDirection::kEgress).verdict,
            FilterVerdict::kPass);

  // Reload the same rules; the server speaks next. The flow re-admits in
  // its original orientation and the reply passes.
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  EXPECT_EQ((*filter)->Evaluate(reply, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().flow_reevaluations, 1u);
  EXPECT_EQ((*filter)->flows().size(), 1u);

  FlowKey key{request.src_ip, request.dst_ip, request.src_port, request.dst_port,
              request.proto};
  FlowEntry* flow = (*filter)->flows().Find(key);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->reverse_packets, 1u);  // the reply that re-admitted it
  EXPECT_EQ(flow->reverse_bytes, body.size());
  EXPECT_EQ(flow->packets, 0u);          // orientation preserved

  // Forward traffic now hits the re-established entry in its own direction.
  EXPECT_EQ((*filter)->Evaluate(request, FilterDirection::kEgress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);

  // A genuinely tightened rule set still drops the reply — fail closed.
  ASSERT_TRUE((*filter)->Load(*lockdown).ok());
  EXPECT_EQ((*filter)->Evaluate(reply, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->stats().flow_reevaluations, 2u);
  EXPECT_EQ((*filter)->flows().size(), 0u);
}

TEST(PacketFilterTest, HotReloadKeepAliveIsOptIn) {
  auto permissive = ParseRules("pass dport 80\ndefault drop\n");
  auto lockdown = ParseRules("default drop\n");
  ASSERT_TRUE(permissive.ok() && lockdown.ok());

  FilterConfig config;
  config.flow_keepalive_across_reloads = true;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*permissive).ok());

  PacketView established{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  uint32_t first_epoch = (*filter)->epoch();

  // Hot reload to a rule set that would drop the flow.
  ASSERT_TRUE((*filter)->Load(*lockdown).ok());
  EXPECT_GT((*filter)->epoch(), first_epoch);

  // With keep-alive configured the established flow still passes (served
  // from the flow table)...
  EXPECT_EQ((*filter)->Evaluate(established, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().flow_reevaluations, 0u);
  // ...while a new flow is evaluated against the new rules and dropped.
  PacketView fresh{0x0A000001, 0x0A000002, 4001, 80, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(fresh, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
}

TEST(PacketFilterTest, DescriptorMarshallingFailureFailsClosed) {
  // If the VM memory cannot hold the packet descriptor, running the
  // classifier would score whatever bytes are still there — the previous
  // packet. The filter must drop instead.
  auto rules = ParseRules("drop dport 23\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  FilterConfig config;
  config.shards = 1;  // fault injection targets shard 0's vm()
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  PacketView view{1, 2, 3, 80, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(view, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);

  // Fault injection: shrink the VM memory below the descriptor size. A new
  // 5-tuple forces the classifier path (the first flow stays established).
  (*filter)->vm().memory().resize(8);
  view.src_port = 4;
  FilterDecision d = (*filter)->Evaluate(view, FilterDirection::kIngress);
  EXPECT_EQ(d.verdict, FilterVerdict::kDrop);
  EXPECT_EQ(d.rule, net::kDefaultRuleIndex);
  EXPECT_EQ((*filter)->stats().descriptor_faults, 1u);
  EXPECT_EQ((*filter)->stats().drop, 1u);
  // A dropped-for-safety packet must not have established a flow either
  // (the first packet's pass did).
  EXPECT_EQ((*filter)->flows().size(), 1u);

  // The burst path marshals into slots past the shrunk memory's end: every
  // one of them must fail closed the same way, never write out of bounds.
  std::vector<PacketView> burst(3, view);
  for (size_t i = 0; i < burst.size(); ++i) {
    burst[i].src_port = static_cast<net::Port>(10 + i);
  }
  std::vector<FilterDecision> decisions(burst.size());
  (*filter)->EvaluateBatch(burst, FilterDirection::kIngress, decisions);
  for (const FilterDecision& decision : decisions) {
    EXPECT_EQ(decision.verdict, FilterVerdict::kDrop);
    EXPECT_EQ(decision.rule, net::kDefaultRuleIndex);
  }
  EXPECT_EQ((*filter)->stats().descriptor_faults, 4u);
  EXPECT_EQ((*filter)->stats().drop, 4u);
  EXPECT_EQ((*filter)->flows().size(), 1u);
}

TEST(PacketFilterTest, ReplyTrafficSharesEstablishedFlow) {
  // Rules pass only dport 80 — the reply (sport 80) would be dropped if it
  // were evaluated, so the reverse-tuple fast path is what lets it through,
  // exactly like a stateful firewall admitting return traffic.
  auto rules = ParseRules("pass dport 80\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  std::string req = "GET /";
  std::string resp = "200 OK!!";
  PacketView request{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, Bytes(req)};
  PacketView reply{0x0A000002, 0x0A000001, 80, 4000, net::kIpProtoUdpLite, 64, Bytes(resp)};

  EXPECT_EQ((*filter)->Evaluate(request, FilterDirection::kEgress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->Evaluate(reply, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->flows().size(), 1u);  // one shared entry, not two
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);
  EXPECT_EQ((*filter)->stats().flow_hits_reverse, 1u);

  FlowKey key{request.src_ip, request.dst_ip, request.src_port, request.dst_port,
              request.proto};
  FlowEntry* flow = (*filter)->flows().Find(key);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->packets, 1u);
  EXPECT_EQ(flow->bytes, req.size());
  EXPECT_EQ(flow->reverse_packets, 1u);
  EXPECT_EQ(flow->reverse_bytes, resp.size());
}

TEST(PacketFilterTest, FlowTtlExpiresOnVirtualClock) {
  auto rules = ParseRules("pass dport 80\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  VirtualClock clock;
  FilterConfig config;
  config.clock = &clock;
  config.flow_ttl = 1000;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  PacketView view{0x0A000001, 0x0A000002, 4000, 80, net::kIpProtoUdpLite, 64, {}};
  EXPECT_EQ((*filter)->Evaluate(view, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  clock.Advance(500);
  (void)(*filter)->Evaluate(view, FilterDirection::kIngress);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);  // inside the TTL: cached

  // Idle past the TTL: the flow is gone; the next packet re-evaluates (and
  // re-establishes).
  clock.Advance(1000);
  (void)(*filter)->Evaluate(view, FilterDirection::kIngress);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);
  EXPECT_EQ((*filter)->flows().stats().expirations, 1u);
  EXPECT_EQ((*filter)->flows().size(), 1u);
}

TEST(PacketFilterTest, ExportsFilterInterface) {
  auto rules = ParseRules("drop dport 23\npass dport 80 proc count\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  auto iface = (*filter)->GetInterface(FilterType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(1), 2u);  // rule_count
  EXPECT_EQ((*iface)->Invoke(2), 0u);  // mode: sandboxed
  EXPECT_EQ((*iface)->Invoke(3), 0u);  // flow_count

  PacketView telnet{1, 2, 3, 23, net::kIpProtoUdpLite, 64, {}};
  PacketView web{1, 2, 3, 80, net::kIpProtoUdpLite, 64, {}};
  (void)(*filter)->Evaluate(telnet, FilterDirection::kIngress);
  (void)(*filter)->Evaluate(web, FilterDirection::kIngress);
  EXPECT_EQ((*iface)->Invoke(0, 0), 2u);  // evaluated
  EXPECT_EQ((*iface)->Invoke(0, 2), 1u);  // drop
  EXPECT_EQ((*iface)->Invoke(0, 4), 1u);  // count
  EXPECT_EQ((*iface)->Invoke(3), 1u);     // the count flow is established
}

// Samples recorded so far into the filter's per-verdict classify histograms.
uint64_t ClassifySamples() {
  uint64_t samples = 0;
  for (const telemetry::MetricValue& mv : telemetry::Registry::Get().TakeSnapshot().metrics) {
    if (mv.name.starts_with("filter.engine.classify_ticks.")) {
      samples += mv.value;
    }
  }
  return samples;
}

TEST(PacketFilterTest, BatchClassifierPathIsSampled) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  auto rules = ParseRules("pass dport 80\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  FilterConfig config;
  config.shards = 1;  // one sampling sequence
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  // 64 first packets of distinct flows: every one takes the classifier path,
  // and the 1-in-32 sampling picks two of them, exactly as through Evaluate.
  std::vector<PacketView> burst(kMaxFilterBatch);
  for (size_t i = 0; i < burst.size(); ++i) {
    burst[i] = PacketView{1, 2, static_cast<net::Port>(1000 + i), 80, net::kIpProtoUdpLite, 64, {}};
  }
  std::vector<FilterDecision> decisions(burst.size());
  const uint64_t before = ClassifySamples();
  (*filter)->EvaluateBatch(burst, FilterDirection::kIngress, decisions);
  EXPECT_EQ(ClassifySamples() - before, 2u);
  EXPECT_EQ((*filter)->stats().flow_hits, 0u);
}

TEST(PacketFilterTest, ControlPlaneReadsSurviveConcurrentReloads) {
  // The accessors and telemetry aliases a snapshot runs read the installed
  // generation; a reload with every shard idle frees the old one at once.
  // Run them against 200 back-to-back reloads (the sanitizer legs catch a
  // read of a freed generation).
  auto small = ParseRules("pass dport 80\ndefault drop\n");
  auto large = ParseRules("drop dport 23\npass dport 443\ndefault pass\n");
  ASSERT_TRUE(small.ok() && large.ok());
  FilterConfig config;
  config.name = "cpreads";
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  PacketFilter& f = **filter;
  auto iface = f.GetInterface(FilterType()->name());
  ASSERT_TRUE(iface.ok());

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)telemetry::Registry::Get().TakeSnapshot();
      EXPECT_LE(f.rule_count(), 2u);  // 0 until the first reload lands
      EXPECT_EQ(f.mode(), sfi::ExecMode::kSandboxed);
      (void)f.backend();
      (void)f.exec_backend();
      (void)f.vm_stats();
      (void)(*iface)->Invoke(0, 14);
      (void)(*iface)->Invoke(0, 15);
      EXPECT_LE((*iface)->Invoke(1), 2u);  // rule_count slot
      EXPECT_EQ((*iface)->Invoke(2), 0u);  // mode slot: sandboxed
    }
  });
  bool loaded = true;
  for (int i = 0; i < 200 && loaded; ++i) {
    loaded = f.Load(i % 2 == 0 ? *small : *large).ok();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(loaded);
  EXPECT_EQ(f.rule_count(), 2u);
  EXPECT_EQ(f.stats().reloads, 200u);
}

}  // namespace
}  // namespace para::filter
