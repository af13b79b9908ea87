// The executable artifact verification produces (the point of this layer's
// design): `sfi::Verify` no longer answers a yes/no question about a byte
// stream — it returns a `VerifiedProgram`, a pre-decoded, patch-resolved
// instruction stream the VM can execute by threaded dispatch without ever
// touching the bytecode again. Decode once, validate once, dispatch forever:
// the load-time work the paper says certification is supposed to buy
// (§4 "all run time checks can then be omitted").
//
// What the decoded form carries that the byte form cannot:
//  * fixed-width instructions — no per-instruction length decode, no
//    operand memcpy, and pc arithmetic is an index increment;
//  * jump/call targets rewritten from byte-relative rel32 to absolute
//    decoded-stream indices — nothing to bounds-check at run time because
//    the verifier proved every target lands on an instruction start;
//  * per-basic-block stack envelopes, materialized as synthetic kCheckStack
//    instructions at block entry — one stack check per block instead of one
//    per push/pop (a block is straight-line code, so its cumulative stack
//    motion is static);
//  * a kEndOfCode sentinel, so "pc ran off the end" is an ordinary opcode
//    dispatch instead of a per-instruction bounds branch.
//
// The byte-exact `Program` rides along untouched: it is the certified,
// signed identity (`identity()` digests it), never re-consulted during
// execution.
#ifndef PARAMECIUM_SRC_SFI_VERIFIED_PROGRAM_H_
#define PARAMECIUM_SRC_SFI_VERIFIED_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sfi/isa.h"

namespace para::sfi {

// Defined in jit.h: per-artifact cache of native code compiled from the
// decoded stream, shared by every Vm bound to the program.
struct JitCacheSlot;

// Synthetic decoded opcodes. kCheckStack reuses the kOpCount slot (which the
// verifier guarantees never appears as a real instruction); kEndOfCode sits
// one past it. The VM's dispatch table covers all kDecodedOpCount values.
inline constexpr uint8_t kOpCheckStack = static_cast<uint8_t>(Op::kOpCount);
inline constexpr uint8_t kOpEndOfCode = kOpCheckStack + 1;

// Superinstructions: the hot decoded pairs compiled classifiers emit, fused
// by the verifier into a single dispatch (threaded dispatch costs ~2 ns per
// op, so a fused pair halves the loop overhead of that pair). Fusion is the
// verifier's last step, after the static analyzer has run on the plain
// stream, so only the verifier and the two backends (vm.cc, jit.cc) know
// these opcodes. A pair is only fused when the second instruction is not a
// basic-block leader — nothing can ever jump into the middle of a fused op.
// Each fused op meters as TWO instructions (two fuel decrements, two retire
// counts, in order), so fuel boundaries and VmStats stay bit-identical to
// the unfused stream.
inline constexpr uint8_t kOpFusedPushLoad8 = kOpEndOfCode + 1;  // push imm; loadN
inline constexpr uint8_t kOpFusedPushLoad16 = kOpEndOfCode + 2;
inline constexpr uint8_t kOpFusedPushLoad32 = kOpEndOfCode + 3;
inline constexpr uint8_t kOpFusedPushLoad64 = kOpEndOfCode + 4;
inline constexpr uint8_t kOpFusedEqJz = kOpEndOfCode + 5;  // cmp; jz/jnz
inline constexpr uint8_t kOpFusedEqJnz = kOpEndOfCode + 6;
inline constexpr uint8_t kOpFusedNeJz = kOpEndOfCode + 7;
inline constexpr uint8_t kOpFusedNeJnz = kOpEndOfCode + 8;
inline constexpr uint8_t kOpFusedLtUJz = kOpEndOfCode + 9;
inline constexpr uint8_t kOpFusedLtUJnz = kOpEndOfCode + 10;
inline constexpr uint8_t kOpFusedGtUJz = kOpEndOfCode + 11;
inline constexpr uint8_t kOpFusedGtUJnz = kOpEndOfCode + 12;

inline constexpr size_t kDecodedOpCount = kOpFusedGtUJnz + 1;

// DecodedInsn::flags bits.
// kInsnProvenInBounds marks a load, store or fused push-load (which takes
// its load's flag) the static analyzer (analysis.h) PROVED in bounds for
// every execution reaching it, given the program's declared memory size.
// Sandboxed code then performs the access with no range test but still
// charges `bounds_checks` (the access is guarded — statically) plus
// `static_proofs` (how it was discharged), so VmStats are identical whether
// or not the analyzer ran. The proof assumed `mem_size >=
// VerifiedProgram::elide_floor`; both backends re-check that single
// inequality per run and ignore the flag when an embedder shrank the window
// (Burst re-basing, a shrunk memory()). Trusted code never checks bounds, so
// the flag changes nothing there.
inline constexpr uint16_t kInsnProvenInBounds = 1u << 0;

// One pre-decoded instruction. 16 bytes, fixed width.
struct DecodedInsn {
  uint64_t imm = 0;     // kPush immediate; kCheckStack packs need | grow<<32
  uint32_t target = 0;  // decoded-stream index for kJmp/kJz/kJnz/kCall
  uint8_t op = 0;       // Op value, or a synthetic opcode above
  uint8_t arg = 0;      // kLdArg argument index (pre-masked)
  uint16_t flags = 0;   // kInsn* bits
};
static_assert(sizeof(DecodedInsn) == 16, "decoded instructions are 16-byte fixed width");

// kCheckStack immediate: the block needs `need` operands on entry and may
// grow the stack by up to `grow` slots before its terminator.
constexpr uint64_t PackStackCheck(uint32_t need, uint32_t grow) {
  return static_cast<uint64_t>(need) | (static_cast<uint64_t>(grow) << 32);
}
constexpr uint32_t StackCheckNeed(uint64_t imm) { return static_cast<uint32_t>(imm); }
constexpr uint32_t StackCheckGrow(uint64_t imm) { return static_cast<uint32_t>(imm >> 32); }

// Verification summary (over the *byte* program: synthetic instructions are
// not counted).
struct VerifyReport {
  size_t instructions = 0;
  size_t jumps = 0;
  size_t memory_ops = 0;
  size_t basic_blocks = 0;
  size_t stack_checks = 0;  // kCheckStack instructions in the final stream
  size_t fused_pairs = 0;   // superinstructions emitted (two byte insns each)
  // Static-analysis results (all zero when VerifyOptions::analyze is off).
  size_t elided_accesses = 0;       // loads/stores proven in-bounds, checks elided
  size_t dropped_stack_checks = 0;  // kCheckStack ops implied by every predecessor
  size_t unreachable_insns = 0;     // real instructions no entry point can reach
};

// A verified, executable program. Immutable after Verify() builds it — Vm
// instances share `const VerifiedProgram*` freely.
struct VerifiedProgram {
  Program program;  // the byte-exact certified/signed identity

  std::vector<DecodedInsn> code;      // decoded stream + synthetics + sentinel
  std::vector<uint32_t> entry_points; // decoded-stream indices, per method slot
  VerifyReport report;

  // Minimum usable mem_size the analyzer's in-bounds proofs assumed: the
  // largest `addr + width` among proven accesses (0 when nothing was proven).
  // A run whose sandboxed window is smaller — a shrunk memory(), a Burst
  // re-base deep into the arena — checks every access instead; behaviour is
  // identical either way, only `static_proofs` stops counting.
  uint64_t elide_floor = 0;

  // Native code compiled lazily from `code` (jit.h), one slot per ExecMode.
  // A shared_ptr (not a plain member) because VerifiedProgram is movable and
  // the slot holds a mutex; sharing also means every Vm bound to a shared
  // artifact reuses the same compiled code, and releasing the artifact can
  // never unmap code under an in-flight Vm (the Vm keeps the JitProgram
  // alive).
  // Null for hand-assembled VerifiedPrograms that bypassed Verify().
  std::shared_ptr<JitCacheSlot> jit_cache;

  // Code identity for certification: digests the byte form, exactly as
  // before — the decoded stream is derived, never signed.
  const std::vector<uint8_t>& identity() const { return program.identity(); }
};

}  // namespace para::sfi

#endif  // PARAMECIUM_SRC_SFI_VERIFIED_PROGRAM_H_
