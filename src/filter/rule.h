// The NPF-style rule language for the in-nucleus packet filter. A rule set
// is an ordered list of match rules with a default verdict; the first rule
// whose predicates all hold decides the packet. Rules match on source /
// destination address prefixes, port ranges, the IP-lite protocol number,
// and individual payload bytes (masked), and carry one of three dispatch
// verdicts: pass, drop, reject. A rule may additionally attach named,
// parameterized rule procedures (NPF's rproc shape) that the filter runs
// post-match on every packet the rule decides — see filter/extension.h for
// the registry and the built-ins (count, ratelimit, log, rndblock,
// normalize).
//
// Text form, one rule per line (';' or '#' starts a comment):
//     pass from 10.0.0.0/8 to any dport 53 proto udp
//     pass to 10.1.0.2 dport 8000-8080 proc count
//     pass dport 80 proc ratelimit(rate=100,burst=16) proc log(every=50)
//     reject payload 0=0x7F payload 1=0x45/0xF0
//     drop sport 1000-2000
//     default drop
#ifndef PARAMECIUM_SRC_FILTER_RULE_H_
#define PARAMECIUM_SRC_FILTER_RULE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/net/filter_hook.h"

namespace para::filter {

// One masked payload byte test: payload[offset] & mask == value & mask.
struct PayloadMatch {
  uint16_t offset = 0;
  uint8_t value = 0;
  uint8_t mask = 0xFF;
};

// One attached rule procedure: a registry name plus ordered key=value
// parameters (all values u64). Text form: `proc name` or
// `proc name(key=value,key=value)` — one whitespace-free token.
struct RuleProcSpec {
  std::string name;
  std::vector<std::pair<std::string, uint64_t>> args;

  bool operator==(const RuleProcSpec& other) const = default;

  // First value bound to `key`, or `fallback` when absent.
  uint64_t Arg(std::string_view key, uint64_t fallback) const {
    for (const auto& [name_, value] : args) {
      if (name_ == key) {
        return value;
      }
    }
    return fallback;
  }
};

struct Rule {
  net::FilterVerdict verdict = net::FilterVerdict::kPass;
  net::IpAddr src_ip = 0;
  uint8_t src_prefix = 0;  // 0 = any
  net::IpAddr dst_ip = 0;
  uint8_t dst_prefix = 0;  // 0 = any
  net::Port sport_lo = 0;
  net::Port sport_hi = 0xFFFF;
  net::Port dport_lo = 0;
  net::Port dport_hi = 0xFFFF;
  int16_t proto = -1;  // -1 = any, else the IP-lite protocol number
  std::vector<PayloadMatch> payload;
  // Procedures the rule attaches, run in order post-match. Each rule with a
  // non-empty list gets its own chain id, assigned in rule order (the first
  // such rule is chain 1) — procedure state is per rule, never shared.
  std::vector<RuleProcSpec> procs;
};

struct RuleSet {
  std::vector<Rule> rules;
  net::FilterVerdict default_verdict = net::FilterVerdict::kPass;
};

// Prefix length -> 32-bit netmask (0 -> 0, i.e. match-any).
constexpr uint32_t PrefixMask(uint8_t prefix) {
  return prefix == 0 ? 0u : ~uint32_t{0} << (32 - prefix);
}

// Parses the text form above. Errors carry the offending construct.
Result<RuleSet> ParseRules(std::string_view text);

// Canonical single-line text form of one rule (round-trips through
// ParseRules; used by diagnostics and the README's rule-language table).
std::string FormatRule(const Rule& rule);

// Dotted-quad helper for rule text ("10.0.0.1" <-> IpAddr).
std::string FormatIp(net::IpAddr ip);

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_RULE_H_
