// Static analyzer for verified SFI programs: a forward abstract
// interpretation over the decoded instruction stream, in the spirit of
// proof-carrying code — move safety work from the per-packet hot path to
// load time (the paper's §4 "all run time checks can then be omitted",
// applied to individual accesses instead of whole programs).
//
// It reads the plain stream Verify() emits before its final rewrite: the
// byte ISA's opcodes plus the two synthetics, kCheckStack and kEndOfCode.
// Superinstructions do not exist yet at that point (verifier.cc fuses after
// the analysis), so the analyzer has no model of them.
//
// Domains:
//  * values — unsigned 64-bit intervals [lo, hi] over the operand stack.
//    Constants stay exact through push/dup/swap and the arithmetic the
//    compiled filters emit (add/sub/mul/and/shifts with provably-no-wrap
//    bounds); anything data-dependent (ldarg, loads, hostcall results)
//    widens to ⊤ = [0, 2^64-1].
//  * stack shape — a known suffix of intervals on top of an unknown-depth
//    base tracked as a depth interval, so block-entry stack envelopes can be
//    compared against what every predecessor actually guarantees.
//  * reachability — a block lattice seeded from the entry points; states
//    join at merge points, and loop back-edges widen changed coordinates to
//    their extremes after a bounded number of revisits, so the fixpoint
//    terminates and loop bodies fall back soundly to ⊤ rather than iterate
//    unboundedly.
//
// What the results are used for (verifier.cc applies them, flags first, then
// in the one rewrite that drops checks and fuses superinstructions):
//  * accesses whose address interval provably fits the declared memory size
//    get the kInsnProvenInBounds flag (verified_program.h), which lets both
//    backends skip their range test, with `elide_floor` recording the
//    assumption the run-time re-checks once per run;
//  * a REACHABLE access that provably faults on every execution — or a
//    divide whose divisor is provably zero — rejects the program at verify
//    time with the same Status code the run-time fault would have produced;
//  * kCheckStack envelopes already implied by every predecessor's state are
//    dropped from the stream;
//  * real instructions no entry point can reach are counted for the report.
#ifndef PARAMECIUM_SRC_SFI_ANALYSIS_H_
#define PARAMECIUM_SRC_SFI_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/verified_program.h"

namespace para::sfi::analysis {

// Mirror of Vm::kStackSlots — analysis.h cannot include vm.h (the verifier
// sits below the VM in the layer DAG); vm.cc static_asserts the two agree.
inline constexpr uint32_t kStackSlots = 1024;

// The usable sandboxed memory size a program with `memory_bytes` declared
// bytes runs against: the Vm rounds up to a power of two and keeps 8 slack
// bytes outside the checked window. Mirrors Vm's constructor; vm.cc
// static_asserts on a representative value.
constexpr uint64_t UsableMemorySize(uint64_t memory_bytes) {
  uint64_t p = 1;
  while (p < memory_bytes) {
    p <<= 1;
  }
  return p;
}

// An unsigned 64-bit value interval, inclusive on both ends. The lattice
// top is [0, 2^64-1]; there is no bottom — unreachable code is handled by
// the reachability lattice, never by empty intervals.
struct Interval {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  static constexpr Interval Top() { return Interval{}; }
  static constexpr Interval Const(uint64_t v) { return Interval{v, v}; }
  constexpr bool IsTop() const { return lo == 0 && hi == ~uint64_t{0}; }
  constexpr bool IsConst() const { return lo == hi; }
  friend constexpr bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Least upper bound: the convex hull of the two ranges.
constexpr Interval Join(const Interval& a, const Interval& b) {
  return Interval{a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
}

// Widening: any bound that moved since `prev` jumps straight to its extreme.
// Applied at merge points that keep changing (loop back-edges) so ascending
// chains are finite — each coordinate can widen at most twice.
constexpr Interval Widen(const Interval& prev, const Interval& next) {
  return Interval{next.lo < prev.lo ? 0 : next.lo, next.hi > prev.hi ? ~uint64_t{0} : next.hi};
}

// Abstract operand-stack state at one program point. The top of the stack is
// modeled exactly (a bounded suffix of known intervals); everything below is
// summarized as a depth interval. Total stack depth is
// [base_lo + known.size(), base_hi + known.size()].
struct AbsState {
  bool reachable = false;
  uint32_t base_lo = 0;               // depth of the unknown region under `known`
  uint32_t base_hi = 0;
  std::vector<Interval> known;        // known.back() = top of stack

  uint64_t depth_lo() const { return base_lo + known.size(); }
  uint64_t depth_hi() const { return base_hi + known.size(); }

  // The state at a method entry: an exactly-empty stack.
  static AbsState Entry() {
    AbsState s;
    s.reachable = true;
    return s;
  }
  // Full ⊤: unknown values at unknown depth. Used after a kCall returns
  // (the callee's net stack effect is not tracked interprocedurally).
  static AbsState TopState() {
    AbsState s;
    s.reachable = true;
    s.base_hi = kStackSlots;
    return s;
  }
};

// dst ⊔= src; returns whether dst changed. Suffixes align at the top of the
// stack (that is where subsequent pops read); slots only one side knows are
// absorbed into the unknown base. When `widen` is set, changed value
// coordinates and depth bounds jump to their extremes (see Widen).
bool JoinInto(AbsState& dst, const AbsState& src, bool widen);

// Everything the pass proved about one decoded stream. Vectors are indexed
// by decoded slot and sized to the stream.
struct ProgramAnalysis {
  std::vector<uint8_t> elide;       // access provably in-bounds: flag it
  std::vector<uint8_t> drop_check;  // kCheckStack implied by every predecessor
  std::vector<uint8_t> reachable;   // some entry point can reach this slot
  uint64_t elide_floor = 0;         // max addr+width among elided accesses
  size_t elided_accesses = 0;
  size_t dropped_stack_checks = 0;
  size_t unreachable_insns = 0;     // real (metered) instructions
};

// Runs the pass over the plain decoded stream (kCheckStack synthetics in
// place, jump targets resolved, sentinel present, nothing fused).
// `block_start` is indexed by slot and marks the first slot of every basic
// block: the verifier's leaders mapped to decoded slots (a block's check if
// it has one) and the sentinel; every CFG edge lands on one. Returns the
// proof obligations discharged, or the rejection Status for a reachable
// provably-faulting access (kOutOfRange) or provable divide-by-zero
// (kInvalidArgument) — deliberately the same codes the run-time faults
// carry, so rejection is the same failure moved earlier.
Result<ProgramAnalysis> AnalyzeProgram(const std::vector<DecodedInsn>& code,
                                       const std::vector<uint32_t>& entry_points,
                                       const std::vector<uint8_t>& block_start,
                                       uint64_t memory_bytes);

}  // namespace para::sfi::analysis

#endif  // PARAMECIUM_SRC_SFI_ANALYSIS_H_
