// Property tests for the rule language: randomized Rules must survive the
// FormatRule -> ParseRules round trip field-for-field (prefixes, ranges,
// masked payload bytes, every verdict), and the parser must reject malformed
// prefixes, ranges, addresses, and payload matches rather than guess.
#include <gtest/gtest.h>

#include <string>

#include "src/base/random.h"
#include "src/filter/rule.h"

namespace para::filter {
namespace {

using net::FilterVerdict;

Rule RandomRule(para::Random& rng) {
  Rule rule;
  rule.verdict = static_cast<FilterVerdict>(rng.NextBelow(3));
  if (rng.NextBool(0.6)) {
    rule.src_ip = rng.Next32();
    rule.src_prefix = static_cast<uint8_t>(1 + rng.NextBelow(32));
  }
  if (rng.NextBool(0.6)) {
    rule.dst_ip = rng.Next32();
    rule.dst_prefix = static_cast<uint8_t>(1 + rng.NextBelow(32));
  }
  if (rng.NextBool(0.6)) {
    // Exact ports, proper ranges, and ranges touching the domain edges.
    rule.sport_lo = static_cast<net::Port>(rng.NextBelow(0x10000));
    rule.sport_hi = static_cast<net::Port>(
        rule.sport_lo + rng.NextBelow(0x10000 - rule.sport_lo));
  }
  if (rng.NextBool(0.6)) {
    rule.dport_lo = static_cast<net::Port>(rng.NextBelow(0x10000));
    rule.dport_hi = static_cast<net::Port>(
        rule.dport_lo + rng.NextBelow(0x10000 - rule.dport_lo));
  }
  if (rng.NextBool(0.5)) {
    rule.proto = static_cast<int16_t>(rng.NextBelow(256));
  }
  size_t payload_tests = rng.NextBelow(4);
  for (size_t i = 0; i < payload_tests; ++i) {
    PayloadMatch match;
    match.offset = static_cast<uint16_t>(rng.NextBelow(0x10000));
    match.value = static_cast<uint8_t>(rng.NextBelow(256));
    match.mask = static_cast<uint8_t>(rng.NextBelow(256));
    rule.payload.push_back(match);
  }
  // Attached procedure clauses: names from the built-in vocabulary (the
  // parser does not resolve them — any well-formed name round-trips), with
  // zero to two u64 parameters each.
  static constexpr const char* kProcNames[] = {"count", "ratelimit", "log", "rndblock",
                                               "normalize", "custom-proc_7"};
  static constexpr const char* kProcKeys[] = {"rate", "burst", "every", "percent", "ttl"};
  size_t procs = rng.NextBelow(3);
  for (size_t i = 0; i < procs; ++i) {
    RuleProcSpec spec;
    spec.name = kProcNames[rng.NextBelow(6)];
    size_t nargs = rng.NextBelow(3);
    for (size_t a = 0; a < nargs; ++a) {
      uint64_t value = (uint64_t{rng.Next32()} << 32) | rng.Next32();
      spec.args.emplace_back(kProcKeys[rng.NextBelow(5)], value);
    }
    rule.procs.push_back(std::move(spec));
  }
  return rule;
}

TEST(RulePropertyTest, FormatParseRoundTripsRandomizedRules) {
  para::Random rng(0x52C1E7E5);
  for (int round = 0; round < 500; ++round) {
    Rule rule = RandomRule(rng);
    std::string text = FormatRule(rule);
    auto reparsed = ParseRules(text + "\n");
    ASSERT_TRUE(reparsed.ok()) << "round " << round << ": " << text;
    ASSERT_EQ(reparsed->rules.size(), 1u) << text;
    const Rule& back = reparsed->rules[0];

    EXPECT_EQ(back.verdict, rule.verdict) << text;
    EXPECT_EQ(back.src_ip, rule.src_ip) << text;
    EXPECT_EQ(back.src_prefix, rule.src_prefix) << text;
    EXPECT_EQ(back.dst_ip, rule.dst_ip) << text;
    EXPECT_EQ(back.dst_prefix, rule.dst_prefix) << text;
    EXPECT_EQ(back.sport_lo, rule.sport_lo) << text;
    EXPECT_EQ(back.sport_hi, rule.sport_hi) << text;
    EXPECT_EQ(back.dport_lo, rule.dport_lo) << text;
    EXPECT_EQ(back.dport_hi, rule.dport_hi) << text;
    EXPECT_EQ(back.proto, rule.proto) << text;
    ASSERT_EQ(back.payload.size(), rule.payload.size()) << text;
    for (size_t i = 0; i < rule.payload.size(); ++i) {
      EXPECT_EQ(back.payload[i].offset, rule.payload[i].offset) << text;
      EXPECT_EQ(back.payload[i].value, rule.payload[i].value) << text;
      EXPECT_EQ(back.payload[i].mask, rule.payload[i].mask) << text;
    }
    EXPECT_EQ(back.procs, rule.procs) << text;

    // The canonical form is a fixed point: formatting the reparsed rule
    // reproduces the text byte-for-byte.
    EXPECT_EQ(FormatRule(back), text);
  }
}

TEST(RulePropertyTest, RoundTripCoversEveryVerdictAndDefault) {
  for (FilterVerdict verdict :
       {FilterVerdict::kPass, FilterVerdict::kDrop, FilterVerdict::kReject}) {
    Rule rule;
    rule.verdict = verdict;
    rule.dport_lo = rule.dport_hi = 443;
    auto reparsed = ParseRules(FormatRule(rule) + "\n");
    ASSERT_TRUE(reparsed.ok());
    ASSERT_EQ(reparsed->rules.size(), 1u);
    EXPECT_EQ(reparsed->rules[0].verdict, verdict);

    auto with_default =
        ParseRules(std::string("default ") + net::VerdictName(verdict) + "\n");
    ASSERT_TRUE(with_default.ok());
    EXPECT_EQ(with_default->default_verdict, verdict);
  }

  // `count` is a procedure, not a verdict: the retired verdict spelling is
  // rejected as a rule head and as a default (write `pass ... proc count`).
  EXPECT_FALSE(ParseRules("count dport 443\n").ok());
  EXPECT_FALSE(ParseRules("default count\n").ok());
  auto spelled_out = ParseRules("pass dport 443 proc count\n");
  ASSERT_TRUE(spelled_out.ok());
  EXPECT_EQ(spelled_out->rules[0].verdict, FilterVerdict::kPass);
  ASSERT_EQ(spelled_out->rules[0].procs.size(), 1u);
  EXPECT_EQ(spelled_out->rules[0].procs[0].name, "count");
}

TEST(RulePropertyTest, RejectsMalformedProcClauses) {
  EXPECT_FALSE(ParseRules("pass proc\n").ok());
  EXPECT_FALSE(ParseRules("pass proc ()\n").ok());
  EXPECT_FALSE(ParseRules("pass proc rate(limit\n").ok());
  EXPECT_FALSE(ParseRules("pass proc ratelimit(rate)\n").ok());
  EXPECT_FALSE(ParseRules("pass proc ratelimit(rate=)\n").ok());
  EXPECT_FALSE(ParseRules("pass proc ratelimit(=5)\n").ok());
  EXPECT_FALSE(ParseRules("pass proc ratelimit(rate=x)\n").ok());
  EXPECT_FALSE(ParseRules("pass proc rate!limit\n").ok());
  EXPECT_TRUE(ParseRules("pass proc log\n").ok());
  EXPECT_TRUE(ParseRules("pass proc ratelimit(rate=100,burst=16)\n").ok());
}

TEST(RulePropertyTest, RejectsMalformedPrefixes) {
  EXPECT_FALSE(ParseRules("pass from 10.0.0.0/33\n").ok());
  EXPECT_FALSE(ParseRules("pass from 10.0.0.0/-1\n").ok());
  EXPECT_FALSE(ParseRules("pass from 10.0.0.0/\n").ok());
  EXPECT_FALSE(ParseRules("pass from 10.0.0.0/x\n").ok());
  EXPECT_FALSE(ParseRules("pass to 256.0.0.1\n").ok());
  EXPECT_FALSE(ParseRules("pass to 1.2.3\n").ok());
  EXPECT_FALSE(ParseRules("pass to 1.2.3.4.5\n").ok());
  EXPECT_FALSE(ParseRules("pass to 1..2.3\n").ok());
  EXPECT_FALSE(ParseRules("pass to one.two.three.four\n").ok());
  // And the boundary cases that must parse.
  EXPECT_TRUE(ParseRules("pass from 0.0.0.0/1\n").ok());
  EXPECT_TRUE(ParseRules("pass from 255.255.255.255/32\n").ok());
  EXPECT_TRUE(ParseRules("pass from any\n").ok());
}

TEST(RulePropertyTest, RejectsMalformedRanges) {
  EXPECT_FALSE(ParseRules("pass dport 65536\n").ok());
  EXPECT_FALSE(ParseRules("pass dport 100-65536\n").ok());
  EXPECT_FALSE(ParseRules("pass dport 200-100\n").ok());
  EXPECT_FALSE(ParseRules("pass dport -5\n").ok());
  EXPECT_FALSE(ParseRules("pass dport 10-\n").ok());
  EXPECT_FALSE(ParseRules("pass sport abc\n").ok());
  EXPECT_FALSE(ParseRules("pass sport\n").ok());
  EXPECT_TRUE(ParseRules("pass dport 0-65535\n").ok());
  EXPECT_TRUE(ParseRules("pass dport 80-80\n").ok());
}

TEST(RulePropertyTest, RejectsMalformedPayloadMatches) {
  EXPECT_FALSE(ParseRules("drop payload 4\n").ok());
  EXPECT_FALSE(ParseRules("drop payload 4=256\n").ok());
  EXPECT_FALSE(ParseRules("drop payload 4=0x41/0x100\n").ok());
  EXPECT_FALSE(ParseRules("drop payload 65536=0x41\n").ok());
  EXPECT_FALSE(ParseRules("drop payload =0x41\n").ok());
  EXPECT_FALSE(ParseRules("drop payload 4=\n").ok());
  EXPECT_TRUE(ParseRules("drop payload 4=0x41/0x00\n").ok());
}

TEST(RulePropertyTest, RejectsStructuralGarbage) {
  EXPECT_FALSE(ParseRules("pass bogus 1\n").ok());
  EXPECT_FALSE(ParseRules("pass from\n").ok());
  EXPECT_FALSE(ParseRules("10.0.0.1 pass\n").ok());
  EXPECT_FALSE(ParseRules("default\n").ok());
  EXPECT_FALSE(ParseRules("default frobnicate\n").ok());
  EXPECT_FALSE(ParseRules("pass proto 300\n").ok());
  EXPECT_FALSE(ParseRules("pass proto icmpv9\n").ok());
}

}  // namespace
}  // namespace para::filter
