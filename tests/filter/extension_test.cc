// Tests for rule-procedure extensions (extension.h): registry behaviour and
// parameter validation, the widened verdict-event detail encoding, per-rule
// procedure state isolation, fail-closed fuel exhaustion, chain behaviour
// across hot reloads, one certificate per distinct procedure program per
// certified load, and the sandboxed-vs-trusted differential for every
// built-in — a certified procedure must be bit-for-bit equivalent to its
// sandboxed self, token buckets and host randomness included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/vclock.h"
#include "src/filter/extension.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/nucleus/cert.h"
#include "src/sfi/assembler.h"
#include "src/sfi/vm.h"

namespace para::filter {
namespace {

using net::FilterDecision;
using net::FilterDirection;
using net::FilterVerdict;
using net::PacketView;
using nucleus::CertificationAuthority;

// A self-contained certification environment for trusted loads.
struct CertEnv {
  CertEnv()
      : rng(0xCE27),
        authority(crypto::GenerateKeyPair(512, rng)),
        signer_keys(crypto::GenerateKeyPair(512, rng)),
        grant(authority.Grant("filter-compiler", signer_keys.public_key,
                              nucleus::kCertKernelEligible)),
        signer("filter-compiler", signer_keys, grant,
               [](const std::string&, std::span<const uint8_t>, uint32_t) {
                 return OkStatus();
               }),
        service(authority.public_key()) {
    (void)service.RegisterGrant(grant);
  }

  para::Random rng;
  CertificationAuthority authority;
  crypto::RsaKeyPair signer_keys;
  nucleus::DelegationGrant grant;
  nucleus::Certifier signer;
  nucleus::CertificationService service;
};

PacketView WebPacket(net::Port sport = 4000, net::Port dport = 80, uint8_t ttl = 64) {
  PacketView view;
  view.src_ip = 0x0A000001;
  view.dst_ip = 0x0A010002;
  view.src_port = sport;
  view.dst_port = dport;
  view.proto = net::kIpProtoUdpLite;
  view.ttl = ttl;
  return view;
}

// --- event detail encoding (the widened kTrapFilterVerdict word) ------------

TEST(FilterEventTest, DetailWordRoundTripsEveryField) {
  for (FilterVerdict verdict :
       {FilterVerdict::kPass, FilterVerdict::kDrop, FilterVerdict::kReject}) {
    for (FilterDirection dir : {FilterDirection::kIngress, FilterDirection::kEgress}) {
      for (uint16_t proc : {uint16_t{0}, uint16_t{1}, uint16_t{42}, uint16_t{0x7FF}}) {
        for (uint32_t rule : {uint32_t{0}, uint32_t{7}, net::kDefaultRuleIndex}) {
          uint64_t detail = EncodeFilterEvent(verdict, dir, proc, rule);
          EXPECT_EQ(FilterEventVerdict(detail), verdict);
          EXPECT_EQ(FilterEventDirection(detail), dir);
          EXPECT_EQ(FilterEventProc(detail), proc);
          EXPECT_EQ(FilterEventRule(detail), rule);
        }
      }
    }
  }
}

// --- registry ----------------------------------------------------------------

TEST(RuleProcRegistryTest, BuiltInsAndRegistration) {
  const RuleProcRegistry& builtins = BuiltIns();
  for (const char* name : {"count", "ratelimit", "log", "rndblock", "normalize"}) {
    EXPECT_TRUE(builtins.Contains(name)) << name;
  }
  EXPECT_FALSE(builtins.Contains("nat"));
  EXPECT_EQ(builtins.Names().size(), 5u);

  RuleProcRegistry mine;
  auto generator = [](const RuleProcSpec&) -> Result<sfi::Program> {
    return Status(ErrorCode::kInternal, "test stub");
  };
  EXPECT_TRUE(mine.Register("stub", generator).ok());
  EXPECT_EQ(mine.Register("stub", generator).code(), ErrorCode::kAlreadyExists);
  EXPECT_FALSE(mine.Register("", generator).ok());
  EXPECT_FALSE(mine.Register("null", nullptr).ok());

  RuleProcSpec unknown;
  unknown.name = "no-such-proc";
  EXPECT_EQ(builtins.Generate(unknown).status().code(), ErrorCode::kNotFound);
}

TEST(RuleProcRegistryTest, GeneratorsRejectFaultCapableParameters) {
  // Nothing a generator accepts may fault by construction: a zero modulus or
  // an out-of-range TTL is refused at generate time, not discovered as a
  // trap (sandboxed) or UB (trusted) at run time.
  auto gen = [](const std::string& name,
                std::vector<std::pair<std::string, uint64_t>> args) {
    RuleProcSpec spec;
    spec.name = name;
    spec.args = std::move(args);
    return BuiltIns().Generate(spec);
  };
  EXPECT_FALSE(gen("ratelimit", {{"burst", 0}}).ok());
  EXPECT_FALSE(gen("ratelimit", {{"burst", 2'000'000'000}}).ok());
  EXPECT_FALSE(gen("ratelimit", {{"rate", 2'000'000'000}}).ok());
  EXPECT_FALSE(gen("log", {{"every", 0}}).ok());
  EXPECT_FALSE(gen("rndblock", {{"percent", 101}}).ok());
  EXPECT_FALSE(gen("normalize", {{"ttl", 0}}).ok());
  EXPECT_FALSE(gen("normalize", {{"ttl", 256}}).ok());
  // And the documented defaults generate.
  EXPECT_TRUE(gen("ratelimit", {}).ok());
  EXPECT_TRUE(gen("log", {}).ok());
  EXPECT_TRUE(gen("rndblock", {}).ok());
  EXPECT_TRUE(gen("normalize", {}).ok());
}

TEST(RuleProcRegistryTest, LoadFailsClosedOnBadProcedures) {
  auto filter = PacketFilter::Create({});
  ASSERT_TRUE(filter.ok());
  auto good = ParseRules("pass dport 80 proc count\ndefault drop\n");
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE((*filter)->Load(*good).ok());
  ASSERT_EQ((*filter)->rule_count(), 1u);

  // Unknown procedure name: the load fails and nothing partial is installed.
  auto unknown = ParseRules("pass dport 80 proc frobnicate\ndefault drop\n");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE((*filter)->Load(*unknown).ok());
  EXPECT_EQ((*filter)->rule_count(), 1u);
  ASSERT_EQ((*filter)->chains().size(), 1u);
  EXPECT_EQ((*filter)->chains()[0][0]->spec.name, "count");

  // Known procedure, fault-capable parameters: same story.
  auto bad_args = ParseRules("pass dport 80 proc log(every=0)\ndefault drop\n");
  ASSERT_TRUE(bad_args.ok());
  EXPECT_FALSE((*filter)->Load(*bad_args).ok());
  EXPECT_EQ((*filter)->rule_count(), 1u);

  // The surviving install still evaluates.
  FilterDecision d = (*filter)->Evaluate(WebPacket(), FilterDirection::kIngress);
  EXPECT_EQ(d.verdict, FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().proc_invocations, 1u);
}

// --- state isolation and TTL normalization -----------------------------------

TEST(RuleProcTest, ProcedureStateIsPerRuleNeverShared)
{
  FilterConfig config;
  config.track_flows = false;
  config.shards = 1;  // the test reads shard 0's chain state directly
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules(
      "pass dport 80 proc count\n"
      "pass dport 81 proc count\n"
      "default drop\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  ASSERT_EQ((*filter)->chains().size(), 2u);

  for (int i = 0; i < 3; ++i) {
    (void)(*filter)->Evaluate(WebPacket(4000, 80), FilterDirection::kIngress);
  }
  (void)(*filter)->Evaluate(WebPacket(4000, 81), FilterDirection::kIngress);

  // Two rules, same procedure name, separate instances: separate counters.
  EXPECT_EQ((*filter)->chains()[0][0]->invocations, 3u);
  EXPECT_EQ((*filter)->chains()[1][0]->invocations, 1u);
  // Ordinals are the 1-based flat ids the event detail reports.
  EXPECT_EQ((*filter)->chains()[0][0]->ordinal, 1u);
  EXPECT_EQ((*filter)->chains()[1][0]->ordinal, 2u);
}

TEST(RuleProcTest, NormalizeRequestsTtlRewriteOnlyWhenNeeded) {
  FilterConfig config;
  config.track_flows = false;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules("pass dport 80 proc normalize(ttl=32)\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  FilterDecision rewrite =
      (*filter)->Evaluate(WebPacket(4000, 80, /*ttl=*/255), FilterDirection::kEgress);
  EXPECT_EQ(rewrite.verdict, FilterVerdict::kPass);
  EXPECT_EQ(rewrite.ttl, 32u);

  FilterDecision already =
      (*filter)->Evaluate(WebPacket(4000, 80, /*ttl=*/32), FilterDirection::kEgress);
  EXPECT_EQ(already.verdict, FilterVerdict::kPass);
  EXPECT_EQ(already.ttl, 0u) << "matching TTL must not request a rewrite";
}

// --- fail closed: fuel exhaustion --------------------------------------------

TEST(RuleProcTest, FuelExhaustionMidChainDropsPacketNotFilter) {
  FilterConfig config;
  config.track_flows = false;
  config.shards = 1;     // the test reads shard 0's chain state directly
  config.proc_fuel = 3;  // not enough for even the count procedure
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules("pass dport 80 proc count\ndefault pass\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  // The dispatch program passes the packet; the starving procedure then
  // fails closed — this packet drops, the filter does not.
  FilterDecision d = (*filter)->Evaluate(WebPacket(4000, 80), FilterDirection::kIngress);
  EXPECT_EQ(d.verdict, FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->stats().proc_faults, 1u);
  EXPECT_EQ((*filter)->stats().proc_invocations, 0u);
  EXPECT_EQ((*filter)->chains()[0][0]->faults, 1u);

  // Packets that match no procedure chain are untouched: the filter lives.
  FilterDecision clean = (*filter)->Evaluate(WebPacket(4000, 443), FilterDirection::kIngress);
  EXPECT_EQ(clean.verdict, FilterVerdict::kPass);
  // And the starving chain keeps failing closed per packet, not cumulatively.
  FilterDecision again = (*filter)->Evaluate(WebPacket(4000, 80), FilterDirection::kIngress);
  EXPECT_EQ(again.verdict, FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->stats().proc_faults, 2u);
}

// --- chains across hot reloads ----------------------------------------------

TEST(RuleProcTest, HotReloadResetsProcedureStateAndReevaluatesFlows) {
  // No clock: the ratelimit refill is (virtually) zero, so burst=1 admits
  // exactly one packet per procedure instance lifetime.
  FilterConfig config;
  config.shards = 1;  // per-shard ratelimit buckets; the test drains shard 0's
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = ParseRules("pass dport 80 proc ratelimit(rate=1,burst=1)\ndefault drop\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  PacketView packet = WebPacket();
  EXPECT_EQ((*filter)->Evaluate(packet, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->flows().size(), 1u);

  // The flow is established, but the chain still runs on flow hits: the
  // drained bucket blocks the second packet without tearing the flow down.
  EXPECT_EQ((*filter)->Evaluate(packet, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
  EXPECT_EQ((*filter)->stats().proc_blocks, 1u);
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);
  EXPECT_EQ((*filter)->flows().size(), 1u);

  // Hot reload of the same rules: fresh ProcInstances (a full bucket), and
  // the stale-epoch flow re-evaluates against them (fail closed by default).
  ASSERT_TRUE((*filter)->Load(*rules).ok());
  EXPECT_EQ((*filter)->Evaluate(packet, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().flow_reevaluations, 1u);
  // And the fresh bucket drains like the first one did.
  EXPECT_EQ((*filter)->Evaluate(packet, FilterDirection::kIngress).verdict,
            FilterVerdict::kDrop);
}

TEST(RuleProcTest, KeepaliveFlowWithRetiredChainIdFailsSafe) {
  // Keep-alive mode serves cached verdict words across reloads. The cached
  // word may name a chain the new rule set no longer has — that must be a
  // silent no-op (the dispatch verdict stands), never an out-of-bounds walk.
  FilterConfig config;
  config.flow_keepalive_across_reloads = true;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto with_proc = ParseRules("pass dport 80 proc log(every=1)\ndefault drop\n");
  ASSERT_TRUE(with_proc.ok());
  ASSERT_TRUE((*filter)->Load(*with_proc).ok());

  PacketView packet = WebPacket();
  EXPECT_EQ((*filter)->Evaluate(packet, FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ((*filter)->stats().proc_invocations, 1u);

  auto no_chains = ParseRules("default pass\n");
  ASSERT_TRUE(no_chains.ok());
  ASSERT_TRUE((*filter)->Load(*no_chains).ok());
  ASSERT_EQ((*filter)->chains().size(), 0u);

  FilterDecision kept = (*filter)->Evaluate(packet, FilterDirection::kIngress);
  EXPECT_EQ(kept.verdict, FilterVerdict::kPass);
  EXPECT_EQ(kept.chain, 1u) << "the cached word still names the retired chain";
  EXPECT_EQ((*filter)->stats().flow_hits, 1u);
  EXPECT_EQ((*filter)->stats().proc_invocations, 1u) << "no procedure may have run";
}

// --- certification: one certificate per distinct program --------------------

TEST(RuleProcCertTest, CertifiesEachDistinctProgramOnce) {
  // 12 rules holding 12 procedure instances of 3 distinct programs. With the
  // classifier that is 4 programs to certify and validate, not 13.
  CertEnv env;
  int policy_calls = 0;
  bool refuse_log8 = false;
  auto log8 = BuiltIns().Generate(RuleProcSpec{"log", {{"every", 8}}});
  ASSERT_TRUE(log8.ok());
  nucleus::Certifier counting(
      "filter-compiler", env.signer_keys, env.grant,
      [&](const std::string&, std::span<const uint8_t> code, uint32_t) {
        ++policy_calls;
        if (refuse_log8 && std::ranges::equal(code, log8->identity())) {
          return Status(ErrorCode::kPermissionDenied, "not this one");
        }
        return OkStatus();
      });

  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += "pass dport " + std::to_string(80 + i) + " proc count\n";
  }
  for (int i = 0; i < 4; ++i) {
    text += "pass dport " + std::to_string(90 + i) + " proc log(every=64)\n";
  }
  for (int i = 0; i < 2; ++i) {
    text += "pass dport " + std::to_string(100 + i) + " proc log(every=8)\n";
  }
  text += "default drop\n";
  auto rules = ParseRules(text);
  ASSERT_TRUE(rules.ok()) << rules.status().message();

  FilterConfig config;
  config.track_flows = false;
  config.shards = 1;  // the test reads shard 0's chain state directly
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->LoadCertified(*rules, counting, env.service).ok());
  EXPECT_EQ(policy_calls, 4);
  EXPECT_EQ(counting.issued(), 4u);
  EXPECT_EQ(env.service.stats().validations, 4u);

  // Instances of one program share its artifact; distinct programs do not.
  const std::vector<PacketFilter::ProcChain>& chains = (*filter)->chains();
  ASSERT_EQ(chains.size(), 12u);
  for (size_t c : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(chains[c][0]->program, chains[0][0]->program) << c;
  }
  for (size_t c : {7u, 8u, 9u}) {
    EXPECT_EQ(chains[c][0]->program, chains[6][0]->program) << c;
  }
  EXPECT_EQ(chains[11][0]->program, chains[10][0]->program);
  EXPECT_NE(chains[6][0]->program, chains[0][0]->program);
  EXPECT_NE(chains[10][0]->program, chains[6][0]->program);

  // Each rule still owns its instance: separate counters, separate ordinals.
  for (int i = 0; i < 3; ++i) {
    (void)(*filter)->Evaluate(WebPacket(4000, 80), FilterDirection::kIngress);
  }
  (void)(*filter)->Evaluate(WebPacket(4000, 81), FilterDirection::kIngress);
  EXPECT_EQ(chains[0][0]->invocations, 3u);
  EXPECT_EQ(chains[1][0]->invocations, 1u);
  EXPECT_EQ(chains[0][0]->ordinal, 1u);
  EXPECT_EQ(chains[11][0]->ordinal, 12u);

  // Refusing one distinct program refuses the load; the installed
  // generation keeps serving.
  const uint32_t epoch = (*filter)->epoch();
  const PacketFilter::ProcInstance* installed = chains[0][0].get();
  refuse_log8 = true;
  EXPECT_FALSE((*filter)->LoadCertified(*rules, counting, env.service).ok());
  EXPECT_EQ((*filter)->epoch(), epoch);
  ASSERT_EQ((*filter)->chains().size(), 12u);
  EXPECT_EQ((*filter)->chains()[0][0].get(), installed);
  EXPECT_EQ((*filter)->Evaluate(WebPacket(4000, 80), FilterDirection::kIngress).verdict,
            FilterVerdict::kPass);
  EXPECT_EQ(installed->invocations, 4u);
}

// A procedure whose code never depends on its spec: two identical
// `retv event` bodies. `entry` (0 or 1) picks which body is the entry point
// and `mem` sets the VM memory size, so two specs can generate programs that
// differ in exactly one field.
Result<sfi::Program> GenFixedCode(const RuleProcSpec& spec) {
  sfi::Assembler as;
  for (int body = 0; body < 2; ++body) {
    as.EntryPoint();
    as.EmitPush(kProcResultEvent);
    as.Emit(sfi::Op::kRetV);
  }
  PARA_ASSIGN_OR_RETURN(sfi::Program program, as.Finish(spec.Arg("mem", 4096)));
  program.entry_points = {program.entry_points.at(spec.Arg("entry", 0))};
  return program;
}

TEST(RuleProcCertTest, KeysCertifyOnceOnTheWholeProgram) {
  // Rules 80 and 81 generate one program. Each later rule differs from them
  // in one field only — memory size, entry point, procedure name — and so
  // needs an artifact and a certificate of its own.
  CertEnv env;
  RuleProcRegistry procs;
  ASSERT_TRUE(procs.Register("fixed", &GenFixedCode).ok());
  ASSERT_TRUE(procs.Register("twin", &GenFixedCode).ok());
  auto rules = ParseRules(
      "pass dport 80 proc fixed\n"
      "pass dport 81 proc fixed\n"
      "pass dport 82 proc fixed(mem=8192)\n"
      "pass dport 83 proc fixed(entry=1)\n"
      "pass dport 84 proc twin\n"
      "default drop\n");
  ASSERT_TRUE(rules.ok()) << rules.status().message();

  FilterConfig config;
  config.track_flows = false;
  config.shards = 1;  // the test reads shard 0's chain state directly
  config.procs = &procs;
  auto filter = PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE((*filter)->LoadCertified(*rules, env.signer, env.service).ok());
  // The classifier plus four distinct procedure programs.
  EXPECT_EQ(env.signer.issued(), 5u);
  EXPECT_EQ(env.service.stats().validations, 5u);

  const std::vector<PacketFilter::ProcChain>& chains = (*filter)->chains();
  ASSERT_EQ(chains.size(), 5u);
  EXPECT_EQ(chains[1][0]->program, chains[0][0]->program);
  EXPECT_EQ(chains[2][0]->program->program.memory_bytes, 8192u);
  EXPECT_EQ(chains[2][0]->program->identity(), chains[0][0]->program->identity());
  for (size_t c : {2u, 3u, 4u}) {
    for (size_t d = 0; d < c; ++d) {
      EXPECT_NE(chains[c][0]->program, chains[d][0]->program) << c << " vs " << d;
    }
  }
}

// --- sandboxed vs trusted differential, per built-in -------------------------

// Drives a sandboxed and a certified-trusted filter (same rules, same seed,
// same clock) through an identical packet sequence and requires bit-identical
// decisions and per-procedure counters. This is the extension-framework
// version of experiment E7's equivalence claim.
void RunDifferential(const std::string& rule_text, const VirtualClock* clock,
                     VirtualClock* advance) {
  SCOPED_TRACE(rule_text);
  auto rules = ParseRules(rule_text);
  ASSERT_TRUE(rules.ok()) << rules.status().message();

  CertEnv env;
  FilterConfig config;
  config.track_flows = false;
  config.clock = clock;
  config.proc_seed = 0x5EED5EED5EED5EEDull;

  auto sandboxed = PacketFilter::Create(config);
  ASSERT_TRUE(sandboxed.ok());
  ASSERT_TRUE((*sandboxed)->Load(*rules).ok());
  ASSERT_EQ((*sandboxed)->mode(), sfi::ExecMode::kSandboxed);

  auto trusted = PacketFilter::Create(config);
  ASSERT_TRUE(trusted.ok());
  ASSERT_TRUE((*trusted)->LoadCertified(*rules, env.signer, env.service).ok());
  ASSERT_EQ((*trusted)->mode(), sfi::ExecMode::kTrusted);

  para::Random traffic(0x7AFF1C);
  for (int i = 0; i < 48; ++i) {
    PacketView view = WebPacket(static_cast<net::Port>(4000 + (i % 3)),
                                (i % 4 == 3) ? 443 : 80,
                                static_cast<uint8_t>(1 + traffic.NextBelow(255)));
    auto dir = (i % 2) ? FilterDirection::kEgress : FilterDirection::kIngress;
    FilterDecision a = (*sandboxed)->Evaluate(view, dir);
    FilterDecision b = (*trusted)->Evaluate(view, dir);
    EXPECT_EQ(a.verdict, b.verdict) << "packet " << i;
    EXPECT_EQ(a.rule, b.rule) << "packet " << i;
    EXPECT_EQ(a.chain, b.chain) << "packet " << i;
    EXPECT_EQ(a.ttl, b.ttl) << "packet " << i;
    if (advance != nullptr && i % 5 == 4) {
      // Irregular time steps: partial refills must land identically.
      advance->Advance(137'000'000 * (1 + (i % 7)));
    }
  }

  const FilterStats& sa = (*sandboxed)->stats();
  const FilterStats& sb = (*trusted)->stats();
  EXPECT_EQ(sa.proc_invocations, sb.proc_invocations);
  EXPECT_EQ(sa.proc_blocks, sb.proc_blocks);
  EXPECT_EQ(sa.proc_faults, 0u);
  EXPECT_EQ(sb.proc_faults, 0u);
  ASSERT_EQ((*sandboxed)->chains().size(), (*trusted)->chains().size());
  for (size_t c = 0; c < (*sandboxed)->chains().size(); ++c) {
    const auto& chain_a = (*sandboxed)->chains()[c];
    const auto& chain_b = (*trusted)->chains()[c];
    ASSERT_EQ(chain_a.size(), chain_b.size());
    for (size_t p = 0; p < chain_a.size(); ++p) {
      EXPECT_EQ(chain_a[p]->invocations, chain_b[p]->invocations) << c << "/" << p;
      EXPECT_EQ(chain_a[p]->blocks, chain_b[p]->blocks) << c << "/" << p;
      // Trusted procedures really ran unchecked.
      EXPECT_EQ(chain_b[p]->vm.stats().bounds_checks, 0u);
    }
  }
}

TEST(RuleProcDifferentialTest, Count) {
  RunDifferential("pass dport 80 proc count\ndefault drop\n", nullptr, nullptr);
}

TEST(RuleProcDifferentialTest, RateLimitWithClock) {
  VirtualClock clock;
  RunDifferential("pass dport 80 proc ratelimit(rate=7,burst=3)\ndefault drop\n", &clock,
                  &clock);
}

TEST(RuleProcDifferentialTest, RateLimitWithoutClock) {
  // Without a clock the `now` helper falls back to the evaluating shard's own
  // evaluation counter — still deterministic, still identical across modes.
  RunDifferential("pass dport 80 proc ratelimit(rate=1,burst=2)\ndefault drop\n", nullptr,
                  nullptr);
}

TEST(RuleProcDifferentialTest, SampledLog) {
  RunDifferential("pass dport 80 proc log(every=3)\ndefault drop\n", nullptr, nullptr);
}

TEST(RuleProcDifferentialTest, RndBlock) {
  RunDifferential("pass dport 80 proc rndblock(percent=40)\ndefault drop\n", nullptr,
                  nullptr);
}

TEST(RuleProcDifferentialTest, Normalize) {
  RunDifferential("pass dport 80 proc normalize(ttl=48)\ndefault drop\n", nullptr, nullptr);
}

TEST(RuleProcDifferentialTest, FullChain) {
  VirtualClock clock;
  RunDifferential(
      "pass dport 80 proc ratelimit(rate=9,burst=2) proc normalize(ttl=60) proc log(every=2)\n"
      "pass dport 443 proc rndblock(percent=25) proc count\n"
      "default drop\n",
      &clock, &clock);
}

}  // namespace
}  // namespace para::filter
