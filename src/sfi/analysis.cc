#include "src/sfi/analysis.h"

#include <algorithm>
#include <utility>

namespace para::sfi::analysis {

namespace {

// Cap on the exactly-modeled stack suffix. Deeper slots fall into the
// unknown-depth base; compiled filters never get near this.
constexpr size_t kMaxKnown = 64;

// Joins into a block after which further changes widen instead of join, so
// loop back-edges converge instead of counting up 2^64 values.
constexpr uint32_t kWidenAfter = 8;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return b > ~uint64_t{0} - a ? ~uint64_t{0} : a + b;
}

void Push(AbsState& s, Interval v) {
  if (s.known.size() >= kMaxKnown) {
    // Absorb the deepest known slot into the unknown base: its value is
    // forgotten but the depth bookkeeping stays exact.
    s.known.erase(s.known.begin());
    if (s.base_lo < kStackSlots) {
      ++s.base_lo;
    }
    if (s.base_hi < kStackSlots) {
      ++s.base_hi;
    }
  }
  s.known.push_back(v);
}

Interval Pop(AbsState& s) {
  if (!s.known.empty()) {
    Interval v = s.known.back();
    s.known.pop_back();
    return v;
  }
  // Popping out of the unknown base: value unknown, depth shrinks. An
  // actually-empty stack cannot reach here — the block's kCheckStack
  // envelope covers every pop, and its refinement raised base_lo — so the
  // saturation is pure defensiveness.
  if (s.base_lo > 0) {
    --s.base_lo;
  }
  if (s.base_hi > 0) {
    --s.base_hi;
  }
  return Interval::Top();
}

// Access width of a load or store.
uint64_t AccessWidth(uint8_t op) {
  if (op <= static_cast<uint8_t>(Op::kLoad64)) {
    return uint64_t{1} << (op - static_cast<uint8_t>(Op::kLoad8));
  }
  return uint64_t{1} << (op - static_cast<uint8_t>(Op::kStore8));
}

// What a width-limited load can produce.
Interval LoadResult(uint64_t width) {
  return width >= 8 ? Interval::Top() : Interval{0, (uint64_t{1} << (8 * width)) - 1};
}

// The run-time sandbox faults iff `addr > limit || limit - addr < width`
// (vm.cc / jit.cc, overflow-proof form). The fault set is upward closed in
// addr, which is what makes these two predicates exact duals.
bool ProvablyInBounds(const Interval& addr, uint64_t width, uint64_t limit) {
  return addr.hi <= limit && limit - addr.hi >= width;
}
bool ProvablyFaults(const Interval& addr, uint64_t width, uint64_t limit) {
  return addr.lo > limit || limit - addr.lo < width;
}

// Walks the straight-line block starting at `lead` with entry state `s`,
// applying the transfer function slot by slot and feeding every CFG edge
// through `edge(to, state)`. When `out` is non-null — the decision pass,
// run once over the post-fixpoint states — it additionally records
// reachability, elisions, and droppable checks, and returns the rejection
// Status for a provably-faulting access or divide (the block is reachable
// by construction then; deciding from intermediate fixpoint states would
// be unsound, since those states only grow).
template <typename EdgeFn>
Status WalkBlock(const std::vector<DecodedInsn>& code, const std::vector<uint8_t>& block_start,
                 uint32_t lead, AbsState s, uint64_t limit, EdgeFn&& edge,
                 ProgramAnalysis* out) {
  const size_t n = code.size();
  for (uint32_t i = lead; i < n; ++i) {
    const DecodedInsn& insn = code[i];
    const uint8_t op = insn.op;
    if (out != nullptr) {
      out->reachable[i] = 1;
    }

    switch (op) {
      case kOpCheckStack: {
        const uint64_t need = StackCheckNeed(insn.imm);
        const uint64_t grow = StackCheckGrow(insn.imm);
        if (s.depth_hi() < need || s.depth_lo() + grow > kStackSlots) {
          // Every execution reaching this check faults on it: the rest of
          // the block is dead and the check must stay — it IS the fault. Not
          // a rejection: stack-shape faults are the sandbox working as
          // designed (tests feed underflowing programs on purpose).
          return OkStatus();
        }
        if (out != nullptr && s.depth_lo() >= need && s.depth_hi() + grow <= kStackSlots) {
          // Every predecessor state already guarantees the envelope: the
          // check can never fire and is dropped from the final stream.
          out->drop_check[i] = 1;
          ++out->dropped_stack_checks;
        }
        // Refine with what surviving the check proves: depth >= need and
        // depth + grow <= kStackSlots. (Neither clamp can cross — the
        // always-faults cases were excluded above.)
        if (need > s.known.size()) {
          s.base_lo =
              std::max<uint32_t>(s.base_lo, static_cast<uint32_t>(need - s.known.size()));
        }
        const uint64_t cap = kStackSlots - grow;  // >= depth_lo >= known.size()
        s.base_hi = std::min<uint32_t>(s.base_hi, static_cast<uint32_t>(cap - s.known.size()));
        break;
      }
      case static_cast<uint8_t>(Op::kHalt):
      case static_cast<uint8_t>(Op::kRet):
      case kOpEndOfCode:
        return OkStatus();
      case static_cast<uint8_t>(Op::kRetV):
        Pop(s);
        return OkStatus();
      case static_cast<uint8_t>(Op::kPush):
        Push(s, Interval::Const(insn.imm));
        break;
      case static_cast<uint8_t>(Op::kDrop):
        Pop(s);
        break;
      case static_cast<uint8_t>(Op::kDup): {
        Interval v = Pop(s);
        Push(s, v);
        Push(s, v);
        break;
      }
      case static_cast<uint8_t>(Op::kSwap): {
        Interval a = Pop(s);
        Interval b = Pop(s);
        Push(s, a);
        Push(s, b);
        break;
      }
      case static_cast<uint8_t>(Op::kAdd): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        Push(s, l.hi <= ~uint64_t{0} - r.hi ? Interval{l.lo + r.lo, l.hi + r.hi}
                                            : Interval::Top());
        break;
      }
      case static_cast<uint8_t>(Op::kSub): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        // No wrap iff even the smallest lhs covers the largest rhs.
        Push(s, l.lo >= r.hi ? Interval{l.lo - r.hi, l.hi - r.lo} : Interval::Top());
        break;
      }
      case static_cast<uint8_t>(Op::kMul): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        const unsigned __int128 hi =
            static_cast<unsigned __int128>(l.hi) * static_cast<unsigned __int128>(r.hi);
        Push(s, hi <= ~uint64_t{0} ? Interval{l.lo * r.lo, l.hi * r.hi} : Interval::Top());
        break;
      }
      case static_cast<uint8_t>(Op::kDivU): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        if (r == Interval::Const(0)) {
          if (out != nullptr) {
            return Status(ErrorCode::kInvalidArgument, "analysis: provable divide by zero");
          }
          Push(s, Interval::Top());  // fault path produces no value; stay sound
          break;
        }
        // A zero divisor faults instead of producing a value, so the result
        // interval may assume divisor >= max(1, r.lo).
        const uint64_t div_lo = std::max<uint64_t>(r.lo, 1);
        Push(s, Interval{r.hi == 0 ? uint64_t{0} : l.lo / r.hi, l.hi / div_lo});
        break;
      }
      case static_cast<uint8_t>(Op::kRemU): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        if (r == Interval::Const(0)) {
          if (out != nullptr) {
            return Status(ErrorCode::kInvalidArgument, "analysis: provable divide by zero");
          }
          Push(s, Interval::Top());
          break;
        }
        Push(s, Interval{0, std::min(l.hi, r.hi - 1)});
        break;
      }
      case static_cast<uint8_t>(Op::kAnd): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        Push(s, Interval{0, std::min(l.hi, r.hi)});
        break;
      }
      case static_cast<uint8_t>(Op::kOr): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        // l|r >= max(l, r) and l|r <= l + r.
        Push(s, Interval{std::max(l.lo, r.lo), SatAdd(l.hi, r.hi)});
        break;
      }
      case static_cast<uint8_t>(Op::kXor): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        Push(s, Interval{0, SatAdd(l.hi, r.hi)});
        break;
      }
      case static_cast<uint8_t>(Op::kShl): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        if (r.IsConst()) {
          if (r.lo >= 64) {
            Push(s, Interval::Const(0));  // runtime defines oversized shifts as 0
          } else if (l.hi <= (~uint64_t{0} >> r.lo)) {
            Push(s, Interval{l.lo << r.lo, l.hi << r.lo});
          } else {
            Push(s, Interval::Top());
          }
        } else {
          Push(s, Interval::Top());
        }
        break;
      }
      case static_cast<uint8_t>(Op::kShr): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        if (r.IsConst()) {
          Push(s, r.lo >= 64 ? Interval::Const(0) : Interval{l.lo >> r.lo, l.hi >> r.lo});
        } else {
          Push(s, Interval{0, l.hi});  // every shift count shrinks or zeroes
        }
        break;
      }
      case static_cast<uint8_t>(Op::kEq):
      case static_cast<uint8_t>(Op::kNe):
      case static_cast<uint8_t>(Op::kLtU):
      case static_cast<uint8_t>(Op::kGtU): {
        Interval r = Pop(s);
        Interval l = Pop(s);
        if (l.IsConst() && r.IsConst()) {
          bool t = false;
          switch (op) {
            case static_cast<uint8_t>(Op::kEq): t = l.lo == r.lo; break;
            case static_cast<uint8_t>(Op::kNe): t = l.lo != r.lo; break;
            case static_cast<uint8_t>(Op::kLtU): t = l.lo < r.lo; break;
            default: t = l.lo > r.lo; break;
          }
          Push(s, Interval::Const(t ? 1 : 0));
        } else {
          Push(s, Interval{0, 1});
        }
        break;
      }
      case static_cast<uint8_t>(Op::kNot): {
        Interval v = Pop(s);
        if (v.IsConst()) {
          Push(s, Interval::Const(v.lo == 0 ? 1 : 0));
        } else if (v.lo >= 1) {
          Push(s, Interval::Const(0));  // provably non-zero: not(v) == 0
        } else {
          Push(s, Interval{0, 1});
        }
        break;
      }
      case static_cast<uint8_t>(Op::kLoad8):
      case static_cast<uint8_t>(Op::kLoad16):
      case static_cast<uint8_t>(Op::kLoad32):
      case static_cast<uint8_t>(Op::kLoad64):
      case static_cast<uint8_t>(Op::kStore8):
      case static_cast<uint8_t>(Op::kStore16):
      case static_cast<uint8_t>(Op::kStore32):
      case static_cast<uint8_t>(Op::kStore64): {
        const bool store = op >= static_cast<uint8_t>(Op::kStore8);
        if (store) {
          Pop(s);  // value
        }
        Interval addr = Pop(s);
        const uint64_t width = AccessWidth(op);
        if (out != nullptr) {
          if (ProvablyFaults(addr, width, limit)) {
            return Status(ErrorCode::kOutOfRange, store
                                                      ? "analysis: store provably out of bounds"
                                                      : "analysis: load provably out of bounds");
          }
          if (ProvablyInBounds(addr, width, limit)) {
            out->elide[i] = 1;
            ++out->elided_accesses;
            out->elide_floor = std::max(out->elide_floor, addr.hi + width);
          }
        }
        if (!store) {
          Push(s, LoadResult(width));
        }
        break;
      }
      case static_cast<uint8_t>(Op::kJmp):
        edge(insn.target, s);
        return OkStatus();
      case static_cast<uint8_t>(Op::kJz):
      case static_cast<uint8_t>(Op::kJnz): {
        Interval c = Pop(s);
        const bool jz = op == static_cast<uint8_t>(Op::kJz);
        const bool taken_only = c.IsConst() && ((c.lo == 0) == jz);
        const bool fall_only = jz ? c.lo >= 1 : c == Interval::Const(0);
        if (!fall_only) {
          edge(insn.target, s);
        }
        if (!taken_only && i + 1 < n) {
          edge(static_cast<uint32_t>(i + 1), s);
        }
        return OkStatus();
      }
      case static_cast<uint8_t>(Op::kCall): {
        // Operand stack is shared with the callee: it starts from the
        // caller's state. What it left behind on return is not tracked
        // interprocedurally — the fall-through restarts from full ⊤.
        edge(insn.target, s);
        if (i + 1 < n) {
          edge(static_cast<uint32_t>(i + 1), AbsState::TopState());
        }
        return OkStatus();
      }
      case static_cast<uint8_t>(Op::kLdArg):
        Push(s, Interval::Top());
        break;
      case static_cast<uint8_t>(Op::kHostCall): {
        Pop(s);
        Push(s, Interval::Top());
        break;
      }
      default:
        // Anything else is a verifier invariant violation.
        return Status(ErrorCode::kInternal, "analysis: unexpected decoded opcode");
    }

    // Straight-line fall-through. Stop at the next block start so every
    // slot is owned by exactly one block.
    if (i + 1 < n && block_start[i + 1]) {
      edge(static_cast<uint32_t>(i + 1), s);
      return OkStatus();
    }
  }
  return OkStatus();
}

}  // namespace

bool JoinInto(AbsState& dst, const AbsState& src, bool widen) {
  if (!src.reachable) {
    return false;
  }
  if (!dst.reachable) {
    dst = src;
    return true;
  }
  const AbsState before = dst;

  // Align the known suffixes at the top of the stack; slots only one side
  // models are absorbed into the unknown base.
  const size_t keep = std::min(dst.known.size(), src.known.size());
  const size_t dst_drop = dst.known.size() - keep;
  const size_t src_drop = src.known.size() - keep;
  dst.known.erase(dst.known.begin(), dst.known.begin() + static_cast<ptrdiff_t>(dst_drop));
  uint32_t dst_lo = std::min<uint32_t>(dst.base_lo + dst_drop, kStackSlots);
  uint32_t dst_hi = std::min<uint32_t>(dst.base_hi + dst_drop, kStackSlots);
  const uint32_t src_lo = std::min<uint32_t>(src.base_lo + src_drop, kStackSlots);
  const uint32_t src_hi = std::min<uint32_t>(src.base_hi + src_drop, kStackSlots);

  dst.base_lo = std::min(dst_lo, src_lo);
  dst.base_hi = std::max(dst_hi, src_hi);
  for (size_t k = 0; k < keep; ++k) {
    dst.known[k] = Join(dst.known[k], src.known[src_drop + k]);
  }

  if (widen) {
    // Reference point for widening is the pre-join dst aligned to the same
    // suffix length: any coordinate the join moved jumps to its extreme.
    if (dst.base_lo < dst_lo) {
      dst.base_lo = 0;
    }
    if (dst.base_hi > dst_hi) {
      dst.base_hi = kStackSlots;
    }
    for (size_t k = 0; k < keep; ++k) {
      const Interval& prev = before.known[dst_drop + k];
      if (!(dst.known[k] == prev)) {
        dst.known[k] = Widen(prev, dst.known[k]);
      }
    }
  }

  return !(dst.base_lo == before.base_lo && dst.base_hi == before.base_hi &&
           dst.known == before.known);
}

Result<ProgramAnalysis> AnalyzeProgram(const std::vector<DecodedInsn>& code,
                                       const std::vector<uint32_t>& entry_points,
                                       const std::vector<uint8_t>& block_start,
                                       uint64_t memory_bytes) {
  const size_t n = code.size();
  ProgramAnalysis out;
  out.elide.assign(n, 0);
  out.drop_check.assign(n, 0);
  out.reachable.assign(n, 0);
  if (n == 0) {
    return out;
  }
  const uint64_t limit = UsableMemorySize(memory_bytes);

  // Block-entry states are kept per block, not per slot: every CFG edge
  // lands on a block start, and `block_of` numbers the starts in slot order.
  std::vector<uint32_t> block_of(n, 0);
  std::vector<uint32_t> starts;
  for (uint32_t i = 0; i < n; ++i) {
    if (block_start[i]) {
      block_of[i] = static_cast<uint32_t>(starts.size());
      starts.push_back(i);
    }
  }

  // Worklist fixpoint over block-entry states.
  std::vector<AbsState> in_state(starts.size());
  std::vector<uint32_t> join_count(starts.size(), 0);
  std::vector<uint8_t> queued(starts.size(), 0);
  std::vector<uint32_t> worklist;
  auto edge = [&](uint32_t to, const AbsState& s) {
    const uint32_t b = block_of[to];
    if (JoinInto(in_state[b], s, join_count[b] >= kWidenAfter)) {
      ++join_count[b];
      if (!queued[b]) {
        queued[b] = 1;
        worklist.push_back(b);
      }
    }
  };
  for (uint32_t e : entry_points) {
    edge(e, AbsState::Entry());  // methods start on an exactly-empty stack
  }
  while (!worklist.empty()) {
    const uint32_t b = worklist.back();
    worklist.pop_back();
    queued[b] = 0;
    (void)WalkBlock(code, block_start, starts[b], in_state[b], limit, edge, nullptr);
  }

  // Decision pass: one more walk of every reachable block against its FINAL
  // entry state. Only now are elisions granted, redundant checks dropped,
  // and provably-faulting reachable ops turned into rejections — deciding
  // any earlier would read states that were still growing.
  auto no_edge = [](uint32_t, const AbsState&) {};
  for (uint32_t b = 0; b < starts.size(); ++b) {
    if (in_state[b].reachable) {
      PARA_RETURN_IF_ERROR(
          WalkBlock(code, block_start, starts[b], in_state[b], limit, no_edge, &out));
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (out.reachable[i]) {
      continue;
    }
    const uint8_t op = code[i].op;
    if (op < static_cast<uint8_t>(Op::kOpCount)) {
      ++out.unreachable_insns;
    } else if (op == kOpCheckStack) {
      // A check no execution reaches can never fire; drop it with the rest.
      out.drop_check[i] = 1;
      ++out.dropped_stack_checks;
    }
  }
  return out;
}

}  // namespace para::sfi::analysis
