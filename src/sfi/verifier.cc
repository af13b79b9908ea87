#include "src/sfi/verifier.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "src/sfi/analysis.h"
#include "src/sfi/jit.h"

namespace para::sfi {

namespace {

constexpr uint32_t kNoInsn = std::numeric_limits<uint32_t>::max();

// The superinstruction table: returns the fused decoded opcode for the pair
// (a, b), or 0 if the pair is not fusable (a synthetic opcode, which `Op`'s
// uint8_t range can hold, never is). Only pairs whose first instruction is
// pure stack traffic are fused, so a fault between the two halves (fuel
// exhaustion, bounds violation) leaves nothing externally visible half-done.
uint8_t FusedOp(Op a, Op b) {
  if (a == Op::kPush) {
    switch (b) {
      case Op::kLoad8: return kOpFusedPushLoad8;
      case Op::kLoad16: return kOpFusedPushLoad16;
      case Op::kLoad32: return kOpFusedPushLoad32;
      case Op::kLoad64: return kOpFusedPushLoad64;
      default: return 0;
    }
  }
  if (b != Op::kJz && b != Op::kJnz) {
    return 0;
  }
  const bool jnz = b == Op::kJnz;
  switch (a) {
    case Op::kEq: return jnz ? kOpFusedEqJnz : kOpFusedEqJz;
    case Op::kNe: return jnz ? kOpFusedNeJnz : kOpFusedNeJz;
    case Op::kLtU: return jnz ? kOpFusedLtUJnz : kOpFusedLtUJz;
    case Op::kGtU: return jnz ? kOpFusedGtUJnz : kOpFusedGtUJz;
    default: return 0;
  }
}

}  // namespace

Result<VerifiedProgram> Verify(Program program, VerifyOptions options) {
  const auto& code = program.code;
  if (code.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty program");
  }
  if (code.size() > kMaxProgramBytes) {
    return Status(ErrorCode::kResourceExhausted, "program exceeds size cap");
  }

  // Pass 1: decode linearly, collecting instruction boundaries.
  VerifyReport report;
  struct RawInsn {
    uint32_t offset;
    Op op;
  };
  std::vector<RawInsn> insns;
  std::vector<uint32_t> index_at(code.size(), kNoInsn);  // byte offset -> insn index
  std::vector<std::pair<uint32_t, uint32_t>> jumps;      // (insn index, target insn index)
  std::vector<std::pair<uint32_t, int32_t>> raw_jumps;   // (operand offset, rel)
  size_t pc = 0;
  while (pc < code.size()) {
    uint8_t raw = code[pc];
    if (raw >= static_cast<uint8_t>(Op::kOpCount)) {
      return Status(ErrorCode::kInvalidArgument, "invalid opcode");
    }
    Op op = static_cast<Op>(raw);
    size_t len = InstructionLength(op);
    if (pc + len > code.size()) {
      return Status(ErrorCode::kInvalidArgument, "truncated instruction");
    }
    index_at[pc] = static_cast<uint32_t>(insns.size());
    insns.push_back({static_cast<uint32_t>(pc), op});
    ++report.instructions;
    switch (op) {
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
      case Op::kCall: {
        int32_t rel;
        std::memcpy(&rel, code.data() + pc + 1, 4);
        raw_jumps.emplace_back(static_cast<uint32_t>(pc + 1), rel);
        ++report.jumps;
        break;
      }
      case Op::kLdArg:
        if (code[pc + 1] > 3) {
          return Status(ErrorCode::kInvalidArgument, "ldarg index out of range");
        }
        break;
      case Op::kHostCall:
        if (code[pc + 1] >= kMaxHostHelpers) {
          return Status(ErrorCode::kInvalidArgument, "hostcall helper out of range");
        }
        break;
      case Op::kLoad8:
      case Op::kLoad16:
      case Op::kLoad32:
      case Op::kLoad64:
      case Op::kStore8:
      case Op::kStore16:
      case Op::kStore32:
      case Op::kStore64:
        ++report.memory_ops;
        break;
      default:
        break;
    }
    pc += len;
  }

  // Pass 2: every jump target and entry point must be an instruction start.
  // Surviving this pass is what lets the decoded stream drop run-time pc
  // checks entirely: a rewritten target is an index into the stream, proven
  // in bounds and on a boundary here.
  for (const auto& [operand_offset, rel] : raw_jumps) {
    int64_t target = static_cast<int64_t>(operand_offset + 4) + rel;
    if (target < 0 || static_cast<size_t>(target) >= code.size() ||
        index_at[static_cast<size_t>(target)] == kNoInsn) {
      return Status(ErrorCode::kInvalidArgument, "jump to non-instruction");
    }
    // operand_offset - 1 is the jump instruction's own offset.
    jumps.emplace_back(index_at[operand_offset - 1], index_at[static_cast<size_t>(target)]);
  }
  if (program.entry_points.empty()) {
    return Status(ErrorCode::kInvalidArgument, "program has no entry points");
  }
  for (uint32_t entry : program.entry_points) {
    if (entry >= code.size() || index_at[entry] == kNoInsn) {
      return Status(ErrorCode::kInvalidArgument, "entry point is not an instruction");
    }
  }

  // Pass 3: basic-block leaders — instruction 0, entry points, jump targets,
  // and fall-through successors of block terminators.
  std::vector<uint8_t> leader(insns.size(), 0);
  leader[0] = 1;
  for (uint32_t entry : program.entry_points) {
    leader[index_at[entry]] = 1;
  }
  for (const auto& [from, to] : jumps) {
    leader[to] = 1;
  }
  for (size_t i = 0; i + 1 < insns.size(); ++i) {
    if (IsBlockTerminator(insns[i].op)) {
      leader[i + 1] = 1;
    }
  }

  // Pass 4: per-block stack envelope. A block is straight-line code, so its
  // cumulative stack motion is static: `need` operands must be present at
  // entry (deepest transient deficit) and up to `grow` slots of headroom are
  // consumed (highest transient watermark). One check at block entry then
  // covers every push/pop in the block.
  std::vector<uint32_t> need_of(insns.size(), 0);
  std::vector<uint32_t> grow_of(insns.size(), 0);
  {
    size_t block_leader = 0;
    int64_t cur = 0, low = 0, high = 0;
    auto flush = [&](size_t lead) {
      need_of[lead] = static_cast<uint32_t>(-low);
      grow_of[lead] = static_cast<uint32_t>(high);
    };
    for (size_t i = 0; i < insns.size(); ++i) {
      if (leader[i]) {
        if (i != 0) {
          flush(block_leader);
        }
        block_leader = i;
        cur = low = high = 0;
        ++report.basic_blocks;
      }
      StackEffect effect = StackEffectOf(insns[i].op);
      cur -= effect.pops;
      low = std::min(low, cur);
      cur += effect.pushes;
      high = std::max(high, cur);
    }
    flush(block_leader);
  }

  // Pass 5: emit the plain decoded stream. A block whose envelope is
  // non-trivial gets a synthetic kCheckStack ahead of its first instruction;
  // jump targets and entry points are rewritten to point at the check (so
  // every entry into the block — branch or fall-through — runs it). A
  // kEndOfCode sentinel terminates the stream so running off the end is an
  // ordinary dispatch, not undefined behaviour. `block_start` carries pass
  // 3's leaders over to decoded slots: a block starts at its check, or at its
  // first instruction when it has none; the sentinel is a block of its own.
  VerifiedProgram out;
  out.code.reserve(insns.size() + report.basic_blocks + 1);
  std::vector<uint32_t> decoded_pos(insns.size());    // insn -> its decoded slot
  std::vector<uint32_t> decoded_entry(insns.size());  // insn -> check slot if present
  for (size_t i = 0; i < insns.size(); ++i) {
    decoded_entry[i] = static_cast<uint32_t>(out.code.size());
    if (leader[i] && (need_of[i] != 0 || grow_of[i] != 0)) {
      DecodedInsn check;
      check.op = kOpCheckStack;
      check.imm = PackStackCheck(need_of[i], grow_of[i]);
      out.code.push_back(check);
      ++report.stack_checks;
    }
    decoded_pos[i] = static_cast<uint32_t>(out.code.size());
    DecodedInsn decoded;
    decoded.op = static_cast<uint8_t>(insns[i].op);
    switch (insns[i].op) {
      case Op::kPush:
        std::memcpy(&decoded.imm, code.data() + insns[i].offset + 1, 8);
        break;
      case Op::kLdArg:
        decoded.arg = static_cast<uint8_t>(code[insns[i].offset + 1] & 3);
        break;
      case Op::kHostCall:
        // Verified < kMaxHostHelpers in pass 1: the VM indexes its helper
        // table with no further check.
        decoded.arg = code[insns[i].offset + 1];
        break;
      default:
        break;
    }
    out.code.push_back(decoded);
  }
  for (const auto& [from, to] : jumps) {
    out.code[decoded_pos[from]].target = decoded_entry[to];
  }
  DecodedInsn sentinel;
  sentinel.op = kOpEndOfCode;
  out.code.push_back(sentinel);
  std::vector<uint8_t> block_start(out.code.size(), 0);
  for (size_t i = 0; i < insns.size(); ++i) {
    block_start[decoded_entry[i]] |= leader[i];
  }
  block_start.back() = 1;

  out.entry_points.reserve(program.entry_points.size());
  for (uint32_t entry : program.entry_points) {
    out.entry_points.push_back(decoded_entry[index_at[entry]]);
  }

  // Pass 6 (optional): abstract interpretation over the plain stream.
  // Provably in-bounds accesses get the kInsnProvenInBounds flag here; the
  // kCheckStack slots implied by every predecessor are dropped by pass 7; a
  // reachable provably-faulting access or divide rejects the program here
  // instead of faulting on some future packet.
  analysis::ProgramAnalysis facts;
  if (options.analyze) {
    PARA_ASSIGN_OR_RETURN(facts, analysis::AnalyzeProgram(out.code, out.entry_points,
                                                          block_start, program.memory_bytes));
    for (size_t i = 0; i < out.code.size(); ++i) {
      if (facts.elide[i]) {
        out.code[i].flags |= kInsnProvenInBounds;
      }
    }
    report.stack_checks -= facts.dropped_stack_checks;
    report.elided_accesses = facts.elided_accesses;
    report.dropped_stack_checks = facts.dropped_stack_checks;
    report.unreachable_insns = facts.unreachable_insns;
    out.elide_floor = facts.elide_floor;
  }

  // Pass 7: the one rewrite that renumbers the stream, compacting it in
  // place. Dropped checks disappear. With fusion enabled, a fusable pair
  // adjacent in the plain stream whose second instruction does not start a
  // block (no branch can land between the halves) collapses into one
  // superinstruction slot, which keeps the first half's immediate and takes
  // the second half's flags (a load's proof) and, below, its branch target.
  // Adjacency is judged before any check is dropped, so a dropped check
  // still keeps its block's first instruction out of a pair. `remap` sends
  // every plain slot to its final slot: a dropped check to the next kept
  // slot (so jumps and entry points that pointed at it land on the first
  // real instruction of its block), an absorbed second half to its
  // superinstruction.
  std::vector<uint32_t> remap(out.code.size());
  size_t kept = 0;
  for (size_t j = 0; j < out.code.size(); ++j) {
    remap[j] = static_cast<uint32_t>(kept);
    if (options.analyze && facts.drop_check[j]) {
      continue;
    }
    DecodedInsn insn = out.code[j];
    const uint8_t fused =
        options.fuse_superinstructions && j + 1 < out.code.size() && !block_start[j + 1]
            ? FusedOp(static_cast<Op>(insn.op), static_cast<Op>(out.code[j + 1].op))
            : 0;
    if (fused != 0) {
      insn.op = fused;
      insn.flags = out.code[j + 1].flags;
      remap[j + 1] = remap[j];
      ++j;
      ++report.fused_pairs;
    }
    out.code[kept++] = insn;
  }
  out.code.resize(kept);
  out.code.shrink_to_fit();  // the artifact keeps only the final stream
  for (const auto& [from, to] : jumps) {
    out.code[remap[decoded_pos[from]]].target = remap[decoded_entry[to]];
  }
  for (uint32_t& entry : out.entry_points) {
    entry = remap[entry];
  }

  out.report = report;
  out.program = std::move(program);
  // Every verified artifact gets a JIT slot so compiled code is shared by
  // all Vms bound to it. Compilation itself stays lazy — first JIT run.
  out.jit_cache = std::make_shared<JitCacheSlot>();
  return out;
}

}  // namespace para::sfi
