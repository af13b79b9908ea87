#include "src/filter/rule.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace para::filter {

namespace {

using net::FilterVerdict;

// Splits the next whitespace-delimited token off `line` (no allocation).
std::string_view NextToken(std::string_view& line) {
  size_t start = line.find_first_not_of(" \t");
  if (start == std::string_view::npos) {
    line = {};
    return {};
  }
  size_t end = line.find_first_of(" \t", start);
  std::string_view token = line.substr(start, end - start);
  line = end == std::string_view::npos ? std::string_view{} : line.substr(end);
  return token;
}

bool ParseU32(std::string_view token, uint32_t* out, int base = 10) {
  if (token.starts_with("0x") || token.starts_with("0X")) {
    token.remove_prefix(2);
    base = 16;
  }
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), *out, base);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

bool ParseU64(std::string_view token, uint64_t* out) {
  int base = 10;
  if (token.starts_with("0x") || token.starts_with("0X")) {
    token.remove_prefix(2);
    base = 16;
  }
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), *out, base);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

bool ParseVerdict(std::string_view token, FilterVerdict* out) {
  if (token == "pass") {
    *out = FilterVerdict::kPass;
  } else if (token == "drop" || token == "block") {
    *out = FilterVerdict::kDrop;
  } else if (token == "reject") {
    *out = FilterVerdict::kReject;
  } else {
    return false;
  }
  return true;
}

bool IsProcNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '-';
}

// "name" or "name(key=value,key=value)", one token. Values are decimal or
// 0x-hex u64.
Status ParseProcSpec(std::string_view token, RuleProcSpec* out) {
  size_t paren = token.find('(');
  std::string_view name = token.substr(0, paren);
  if (name.empty() ||
      !std::all_of(name.begin(), name.end(), IsProcNameChar)) {
    return Status(ErrorCode::kInvalidArgument, "bad procedure name");
  }
  out->name = std::string(name);
  out->args.clear();
  if (paren == std::string_view::npos) {
    return OkStatus();
  }
  if (token.back() != ')') {
    return Status(ErrorCode::kInvalidArgument, "unterminated procedure arguments");
  }
  std::string_view args = token.substr(paren + 1, token.size() - paren - 2);
  while (!args.empty()) {
    size_t comma = args.find(',');
    std::string_view pair = args.substr(0, comma);
    args = comma == std::string_view::npos ? std::string_view{} : args.substr(comma + 1);
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status(ErrorCode::kInvalidArgument, "procedure argument needs key=value");
    }
    std::string_view key = pair.substr(0, eq);
    if (!std::all_of(key.begin(), key.end(), IsProcNameChar)) {
      return Status(ErrorCode::kInvalidArgument, "bad procedure argument key");
    }
    uint64_t value;
    if (!ParseU64(pair.substr(eq + 1), &value)) {
      return Status(ErrorCode::kInvalidArgument, "bad procedure argument value");
    }
    out->args.emplace_back(std::string(key), value);
  }
  return OkStatus();
}

// "<ip>[/prefix]" or "any". A bare address means /32.
Status ParseAddress(std::string_view token, net::IpAddr* ip, uint8_t* prefix) {
  if (token == "any") {
    *ip = 0;
    *prefix = 0;
    return OkStatus();
  }
  uint8_t out_prefix = 32;
  size_t slash = token.find('/');
  if (slash != std::string_view::npos) {
    uint32_t p;
    if (!ParseU32(token.substr(slash + 1), &p) || p > 32) {
      return Status(ErrorCode::kInvalidArgument, "bad prefix length");
    }
    out_prefix = static_cast<uint8_t>(p);
    token = token.substr(0, slash);
  }
  uint32_t addr = 0;
  for (int octet = 0; octet < 4; ++octet) {
    size_t dot = token.find('.');
    std::string_view part = token.substr(0, dot);
    uint32_t v;
    if (!ParseU32(part, &v) || v > 255) {
      return Status(ErrorCode::kInvalidArgument, "bad dotted-quad address");
    }
    addr = (addr << 8) | v;
    if (octet < 3) {
      if (dot == std::string_view::npos) {
        return Status(ErrorCode::kInvalidArgument, "bad dotted-quad address");
      }
      token = token.substr(dot + 1);
    } else if (dot != std::string_view::npos) {
      return Status(ErrorCode::kInvalidArgument, "bad dotted-quad address");
    }
  }
  *ip = addr;
  *prefix = out_prefix;
  return OkStatus();
}

// "<lo>[-<hi>]"
Status ParsePortRange(std::string_view token, net::Port* lo, net::Port* hi) {
  size_t dash = token.find('-');
  uint32_t l, h;
  if (!ParseU32(token.substr(0, dash), &l) || l > 0xFFFF) {
    return Status(ErrorCode::kInvalidArgument, "bad port");
  }
  h = l;
  if (dash != std::string_view::npos) {
    if (!ParseU32(token.substr(dash + 1), &h) || h > 0xFFFF || h < l) {
      return Status(ErrorCode::kInvalidArgument, "bad port range");
    }
  }
  *lo = static_cast<net::Port>(l);
  *hi = static_cast<net::Port>(h);
  return OkStatus();
}

// "<offset>=<value>[/<mask>]"
Status ParsePayloadMatch(std::string_view token, PayloadMatch* out) {
  size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    return Status(ErrorCode::kInvalidArgument, "payload match needs offset=value");
  }
  uint32_t offset, value, mask = 0xFF;
  if (!ParseU32(token.substr(0, eq), &offset) || offset > 0xFFFF) {
    return Status(ErrorCode::kInvalidArgument, "bad payload offset");
  }
  std::string_view rest = token.substr(eq + 1);
  size_t slash = rest.find('/');
  if (slash != std::string_view::npos) {
    if (!ParseU32(rest.substr(slash + 1), &mask) || mask > 0xFF) {
      return Status(ErrorCode::kInvalidArgument, "bad payload mask");
    }
    rest = rest.substr(0, slash);
  }
  if (!ParseU32(rest, &value) || value > 0xFF) {
    return Status(ErrorCode::kInvalidArgument, "bad payload value");
  }
  out->offset = static_cast<uint16_t>(offset);
  out->value = static_cast<uint8_t>(value);
  out->mask = static_cast<uint8_t>(mask);
  return OkStatus();
}

Status ParseProto(std::string_view token, int16_t* out) {
  if (token == "udp") {
    *out = net::kIpProtoUdpLite;
    return OkStatus();
  }
  if (token == "raw") {
    *out = net::kIpProtoRaw;
    return OkStatus();
  }
  uint32_t v;
  if (!ParseU32(token, &v) || v > 255) {
    return Status(ErrorCode::kInvalidArgument, "bad protocol");
  }
  *out = static_cast<int16_t>(v);
  return OkStatus();
}

}  // namespace

Result<RuleSet> ParseRules(std::string_view text) {
  RuleSet set;
  while (!text.empty()) {
    size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);

    size_t comment = line.find_first_of(";#");
    if (comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    std::string_view head = NextToken(line);
    if (head.empty()) {
      continue;
    }

    FilterVerdict verdict;
    if (head == "default") {
      std::string_view v = NextToken(line);
      if (!ParseVerdict(v, &verdict)) {
        return Status(ErrorCode::kInvalidArgument, "default needs a verdict");
      }
      set.default_verdict = verdict;
      continue;
    }
    if (!ParseVerdict(head, &verdict)) {
      return Status(ErrorCode::kInvalidArgument, "rule must start with a verdict");
    }

    Rule rule;
    rule.verdict = verdict;
    for (std::string_view key = NextToken(line); !key.empty(); key = NextToken(line)) {
      std::string_view arg = NextToken(line);
      if (arg.empty()) {
        return Status(ErrorCode::kInvalidArgument, "rule keyword missing its argument");
      }
      if (key == "proc") {
        RuleProcSpec spec;
        PARA_RETURN_IF_ERROR(ParseProcSpec(arg, &spec));
        rule.procs.push_back(std::move(spec));
      } else if (key == "from") {
        PARA_RETURN_IF_ERROR(ParseAddress(arg, &rule.src_ip, &rule.src_prefix));
      } else if (key == "to") {
        PARA_RETURN_IF_ERROR(ParseAddress(arg, &rule.dst_ip, &rule.dst_prefix));
      } else if (key == "sport") {
        PARA_RETURN_IF_ERROR(ParsePortRange(arg, &rule.sport_lo, &rule.sport_hi));
      } else if (key == "dport") {
        PARA_RETURN_IF_ERROR(ParsePortRange(arg, &rule.dport_lo, &rule.dport_hi));
      } else if (key == "proto") {
        PARA_RETURN_IF_ERROR(ParseProto(arg, &rule.proto));
      } else if (key == "payload") {
        PayloadMatch match;
        PARA_RETURN_IF_ERROR(ParsePayloadMatch(arg, &match));
        rule.payload.push_back(match);
      } else {
        return Status(ErrorCode::kInvalidArgument, "unknown rule keyword");
      }
    }
    set.rules.push_back(std::move(rule));
  }
  return set;
}

std::string FormatIp(net::IpAddr ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF, (ip >> 16) & 0xFF,
                (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

std::string FormatRule(const Rule& rule) {
  std::string out = net::VerdictName(rule.verdict);
  char buf[48];
  if (rule.src_prefix != 0) {
    out += " from " + FormatIp(rule.src_ip);
    if (rule.src_prefix != 32) {
      std::snprintf(buf, sizeof(buf), "/%u", rule.src_prefix);
      out += buf;
    }
  }
  if (rule.dst_prefix != 0) {
    out += " to " + FormatIp(rule.dst_ip);
    if (rule.dst_prefix != 32) {
      std::snprintf(buf, sizeof(buf), "/%u", rule.dst_prefix);
      out += buf;
    }
  }
  if (rule.sport_lo != 0 || rule.sport_hi != 0xFFFF) {
    std::snprintf(buf, sizeof(buf), " sport %u-%u", rule.sport_lo, rule.sport_hi);
    out += buf;
  }
  if (rule.dport_lo != 0 || rule.dport_hi != 0xFFFF) {
    std::snprintf(buf, sizeof(buf), " dport %u-%u", rule.dport_lo, rule.dport_hi);
    out += buf;
  }
  if (rule.proto >= 0) {
    std::snprintf(buf, sizeof(buf), " proto %d", rule.proto);
    out += buf;
  }
  for (const PayloadMatch& match : rule.payload) {
    std::snprintf(buf, sizeof(buf), " payload %u=0x%02X/0x%02X", match.offset, match.value,
                  match.mask);
    out += buf;
  }
  for (const RuleProcSpec& proc : rule.procs) {
    out += " proc " + proc.name;
    if (!proc.args.empty()) {
      out += '(';
      for (size_t i = 0; i < proc.args.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        out += proc.args[i].first;
        out += '=';
        out += std::to_string(proc.args[i].second);
      }
      out += ')';
    }
  }
  return out;
}

}  // namespace para::filter
