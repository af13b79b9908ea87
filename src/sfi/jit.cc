#include "src/sfi/jit.h"

#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "src/base/log.h"
#include "src/base/telemetry.h"
#include "src/sfi/isa.h"

// The backend is x86-64-only by design (ROADMAP names it the reference
// target); PARA_SFI_JIT_DISABLED (CMake -DPARA_SFI_JIT=OFF) lets a build
// force the portable threaded loop even on x86-64, which is how CI builds
// and tests this fallback.
#if defined(__x86_64__) && !defined(PARA_SFI_JIT_DISABLED)
#define PARA_SFI_JIT_BACKEND 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define PARA_SFI_JIT_BACKEND 0
#endif

namespace para::sfi {

bool JitSupported() { return PARA_SFI_JIT_BACKEND != 0; }

bool JitAvailable() {
  if (!JitSupported()) {
    return false;
  }
  const char* env = std::getenv("PARA_SFI_NO_JIT");
  return env == nullptr || env[0] == '\0';
}

JitProgram::~JitProgram() {
#if PARA_SFI_JIT_BACKEND
  if (buffer_ != nullptr) {
    munmap(buffer_, mapped_bytes_);
  }
#endif
}

#if PARA_SFI_JIT_BACKEND

namespace {

// System V x86-64. Callee-saved registers carry the VM state so host calls
// (helpers) need no spills: rbx = JitContext*, rbp = operand-stack base,
// r12 = sp (slot index, next free), r13 = memory base, r14 = fuel
// (sandboxed only), r15 = instructions retired. Scratch: rax/rcx/rdx and
// the argument registers around calls.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRbp = 5, kRsi = 6, kRdi = 7;
constexpr int kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15;
constexpr int kNoIndex = -1;

// Condition codes (low nibble of 0F 8x Jcc / 0F 9x SETcc).
constexpr uint8_t kCcB = 0x2;   // unsigned <  (also "carry")
constexpr uint8_t kCcAE = 0x3;  // unsigned >=
constexpr uint8_t kCcE = 0x4;
constexpr uint8_t kCcNE = 0x5;
constexpr uint8_t kCcBE = 0x6;  // unsigned <=
constexpr uint8_t kCcA = 0x7;   // unsigned >

constexpr int32_t kOffArgs = offsetof(JitContext, args);
constexpr int32_t kOffMem = offsetof(JitContext, mem);
constexpr int32_t kOffMemSize = offsetof(JitContext, mem_size);
constexpr int32_t kOffFuel = offsetof(JitContext, fuel);
constexpr int32_t kOffInstructions = offsetof(JitContext, instructions);
constexpr int32_t kOffBoundsChecks = offsetof(JitContext, bounds_checks);
constexpr int32_t kOffCalls = offsetof(JitContext, calls);
constexpr int32_t kOffHostCalls = offsetof(JitContext, host_calls);
constexpr int32_t kOffHelpers = offsetof(JitContext, helpers);
constexpr int32_t kOffHelperCtx = offsetof(JitContext, helper_ctx);
constexpr int32_t kOffResult = offsetof(JitContext, result);
constexpr int32_t kOffCallSp = offsetof(JitContext, call_sp);
constexpr int32_t kOffCallStack = offsetof(JitContext, call_stack);
constexpr int32_t kOffStack = offsetof(JitContext, stack);
constexpr int32_t kOffBurstMem = offsetof(JitContext, burst_mem);
constexpr int32_t kOffBurstMemSize = offsetof(JitContext, burst_mem_size);
constexpr int32_t kOffBurstStride = offsetof(JitContext, burst_stride);
constexpr int32_t kOffBurstCount = offsetof(JitContext, burst_count);
constexpr int32_t kOffBurstFuel = offsetof(JitContext, burst_fuel);
constexpr int32_t kOffBurstOut = offsetof(JitContext, burst_out);
constexpr int32_t kOffStaticProofs = offsetof(JitContext, static_proofs);

// Minimal x86-64 emitter: only the encodings the translator needs, each a
// named method so the op templates below read like the assembly they emit.
// Every jump is rel32 (stubs live at the buffer head, bodies can be far).
class Emitter {
 public:
  std::vector<uint8_t> buf;

  size_t pos() const { return buf.size(); }
  void Byte(uint8_t b) { buf.push_back(b); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  // REX prefix for (reg field, index, base/rm). Skipped when it would be the
  // meaningless bare 0x40 (no 8-bit high-register operands are ever used).
  void Rex(bool w, int reg, int index, int base) {
    uint8_t rex = 0x40;
    if (w) rex |= 0x08;
    if (reg >= 8) rex |= 0x04;
    if (index >= 8) rex |= 0x02;
    if (base >= 8) rex |= 0x01;
    if (rex != 0x40) Byte(rex);
  }

  // ModRM (+SIB +disp) for reg, [base + index*scale + disp]. Handles the
  // rsp/r12-base SIB requirement and the rbp/r13-base mandatory disp.
  void Mem(int reg, int base, int index, int scale, int32_t disp) {
    const bool need_sib = index != kNoIndex || (base & 7) == 4;
    uint8_t mod;
    if (disp == 0 && (base & 7) != 5) {
      mod = 0;
    } else if (disp >= -128 && disp <= 127) {
      mod = 1;
    } else {
      mod = 2;
    }
    Byte(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (need_sib ? 4 : (base & 7))));
    if (need_sib) {
      int ss = scale == 8 ? 3 : scale == 4 ? 2 : scale == 2 ? 1 : 0;
      int idx = index == kNoIndex ? 4 : (index & 7);
      Byte(static_cast<uint8_t>((ss << 6) | (idx << 3) | (base & 7)));
    }
    if (mod == 1) {
      Byte(static_cast<uint8_t>(disp));
    } else if (mod == 2) {
      U32(static_cast<uint32_t>(disp));
    }
  }
  void ModRR(int reg, int rm) {
    Byte(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  // --- moves ---
  void MovRegMem(int reg, int base, int index, int scale, int32_t disp) {
    Rex(true, reg, index, base);
    Byte(0x8B);
    Mem(reg, base, index, scale, disp);
  }
  void MovMemReg(int base, int index, int scale, int32_t disp, int reg) {
    Rex(true, reg, index, base);
    Byte(0x89);
    Mem(reg, base, index, scale, disp);
  }
  void MovRegReg(int dst, int src) {
    Rex(true, src, kNoIndex, dst);
    Byte(0x89);
    ModRR(src, dst);
  }
  void MovRegImm(int reg, uint64_t imm) {
    if (imm <= 0xFFFFFFFFu) {  // mov r32, imm32 zero-extends
      Rex(false, 0, kNoIndex, reg);
      Byte(static_cast<uint8_t>(0xB8 | (reg & 7)));
      U32(static_cast<uint32_t>(imm));
    } else {
      Rex(true, 0, kNoIndex, reg);
      Byte(static_cast<uint8_t>(0xB8 | (reg & 7)));
      U64(imm);
    }
  }
  void MovMemImm32(int base, int32_t disp, uint32_t imm) {  // qword store, sign-extended imm32
    Rex(true, 0, kNoIndex, base);
    Byte(0xC7);
    Mem(0, base, kNoIndex, 0, disp);
    U32(imm);
  }
  void XorReg32(int reg) {  // xor r32, r32 — zero-extends to 64 bits
    Rex(false, reg, kNoIndex, reg);
    Byte(0x31);
    ModRR(reg, reg);
  }
  void Lea(int reg, int base, int index, int scale, int32_t disp) {
    Rex(true, reg, index, base);
    Byte(0x8D);
    Mem(reg, base, index, scale, disp);
  }
  size_t LeaRipPlaceholder(int reg) {  // lea reg, [rip+rel32]; returns rel32 patch site
    Rex(true, reg, kNoIndex, 0);
    Byte(0x8D);
    Byte(static_cast<uint8_t>(((reg & 7) << 3) | 0x05));
    size_t at = pos();
    U32(0);
    return at;
  }

  // --- loads/stores through [r13 + rax] in the VM's width ---
  void LoadWidth(int reg, int base, int index, size_t width) {
    switch (width) {
      case 1:
        Rex(true, reg, index, base);
        Byte(0x0F);
        Byte(0xB6);  // movzx r64, r/m8
        break;
      case 2:
        Rex(true, reg, index, base);
        Byte(0x0F);
        Byte(0xB7);  // movzx r64, r/m16
        break;
      case 4:
        Rex(false, reg, index, base);
        Byte(0x8B);  // mov r32, r/m32 zero-extends
        break;
      default:
        Rex(true, reg, index, base);
        Byte(0x8B);
        break;
    }
    Mem(reg, base, index, 1, 0);
  }
  void StoreWidth(int base, int index, int reg, size_t width) {
    if (width == 2) Byte(0x66);
    Rex(width == 8, reg, index, base);
    Byte(width == 1 ? 0x88 : 0x89);
    Mem(reg, base, index, 1, 0);
  }

  // --- ALU ---
  void AluMemReg(uint8_t opcode, int base, int index, int scale, int32_t disp, int reg) {
    Rex(true, reg, index, base);
    Byte(opcode);  // 0x01 add / 0x29 sub / 0x21 and / 0x09 or / 0x31 xor: [mem] op= reg
    Mem(reg, base, index, scale, disp);
  }
  void AluRegMem(uint8_t opcode, int reg, int base, int32_t disp) {
    Rex(true, reg, kNoIndex, base);
    Byte(opcode);  // 0x03 add / 0x2B sub: reg op= [mem]
    Mem(reg, base, kNoIndex, 0, disp);
  }
  void SubRegReg(int dst, int src) {
    Rex(true, src, kNoIndex, dst);
    Byte(0x29);
    ModRR(src, dst);
  }
  void ImulRegMem(int reg, int base, int index, int scale, int32_t disp) {
    Rex(true, reg, index, base);
    Byte(0x0F);
    Byte(0xAF);
    Mem(reg, base, index, scale, disp);
  }
  void DivReg(int reg) {  // div r64: rdx:rax / reg -> rax, rdx
    Rex(true, 0, kNoIndex, reg);
    Byte(0xF7);
    ModRR(6, reg);
  }
  void ShiftCl(int reg, bool right) {  // shl/shr reg, cl
    Rex(true, 0, kNoIndex, reg);
    Byte(0xD3);
    ModRR(right ? 5 : 4, reg);
  }
  void AddRegImm8(int reg, int8_t imm) {
    Rex(true, 0, kNoIndex, reg);
    Byte(0x83);
    ModRR(0, reg);
    Byte(static_cast<uint8_t>(imm));
  }
  void SubRegImm8(int reg, int8_t imm) {
    Rex(true, 0, kNoIndex, reg);
    Byte(0x83);
    ModRR(5, reg);
    Byte(static_cast<uint8_t>(imm));
  }
  void CmpRegReg(int lhs, int rhs) {  // flags from lhs - rhs
    Rex(true, rhs, kNoIndex, lhs);
    Byte(0x39);
    ModRR(rhs, lhs);
  }
  void CmpRegImm(int reg, int32_t imm) {
    Rex(true, 0, kNoIndex, reg);
    if (imm >= -128 && imm <= 127) {
      Byte(0x83);
      ModRR(7, reg);
      Byte(static_cast<uint8_t>(imm));
    } else {
      Byte(0x81);
      ModRR(7, reg);
      U32(static_cast<uint32_t>(imm));
    }
  }
  void TestRegReg(int reg) {
    Rex(true, reg, kNoIndex, reg);
    Byte(0x85);
    ModRR(reg, reg);
  }
  void Setcc(uint8_t cc, int reg8) {  // reg8 must be al/cl/dl/bl
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x90 | cc));
    ModRR(0, reg8);
  }
  void Cmovcc(uint8_t cc, int dst, int src) {
    Rex(true, dst, kNoIndex, src);
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x40 | cc));
    ModRR(dst, src);
  }
  void IncMem(int base, int32_t disp) {  // inc qword [base+disp]
    Rex(true, 0, kNoIndex, base);
    Byte(0xFF);
    Mem(0, base, kNoIndex, 0, disp);
  }
  void AddRegImm8R15(int8_t imm) { AddRegImm8(kR15, imm); }

  // --- control flow ---
  void PushReg(int reg) {
    if (reg >= 8) Byte(0x41);
    Byte(static_cast<uint8_t>(0x50 | (reg & 7)));
  }
  void PopReg(int reg) {
    if (reg >= 8) Byte(0x41);
    Byte(static_cast<uint8_t>(0x58 | (reg & 7)));
  }
  void Ret() { Byte(0xC3); }
  void CallReg(int reg) {
    if (reg >= 8) Byte(0x41);
    Byte(0xFF);
    ModRR(2, reg);
  }
  void JmpReg(int reg) {
    if (reg >= 8) Byte(0x41);
    Byte(0xFF);
    ModRR(4, reg);
  }
  // Direct jumps to already-emitted code (the stubs).
  void JmpTo(size_t target) {
    Byte(0xE9);
    U32(static_cast<uint32_t>(target - (pos() + 4)));
  }
  // Direct near call to already-emitted code (the entry stubs, from the
  // burst trampolines).
  void CallTo(size_t target) {
    Byte(0xE8);
    U32(static_cast<uint32_t>(target - (pos() + 4)));
  }
  void JccTo(uint8_t cc, size_t target) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x80 | cc));
    U32(static_cast<uint32_t>(target - (pos() + 4)));
  }
  // Jumps to decoded-stream targets, resolved after the whole body exists.
  size_t JmpPlaceholder() {
    Byte(0xE9);
    size_t at = pos();
    U32(0);
    return at;
  }
  size_t JccPlaceholder(uint8_t cc) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x80 | cc));
    size_t at = pos();
    U32(0);
    return at;
  }
};

struct Stubs {
  size_t exit_common;  // rax = fault code; flushes r15, restores, returns
  size_t ret_zero;     // clean return with result 0 (halt / outermost ret)
  size_t fault[11];    // indexed by JitFault
};
constexpr int kNumFaults = static_cast<int>(JitFault::kElideFloorMiss) + 1;
static_assert(kNumFaults == sizeof(Stubs::fault) / sizeof(size_t),
              "one stub per JitFault value");

// Operand-stack accessors. r12 is the slot index of the next free slot;
// slot_disp is in *slots* relative to r12 (e.g. -1 = top of stack).
void LoadSlot(Emitter& e, int reg, int slot_disp) {
  e.MovRegMem(reg, kRbp, kR12, 8, slot_disp * 8);
}
void StoreSlot(Emitter& e, int reg, int slot_disp) {
  e.MovMemReg(kRbp, kR12, 8, slot_disp * 8, reg);
}

// The per-real-instruction prologue, bit-identical to the interpreter's
// VM_METER(): sandboxed faults when fuel was already 0 (post-decrement), and
// the retire counter is bumped only after fuel clears — so a fuel fault
// flushes the count of instructions that actually retired.
void Meter(Emitter& e, bool sandboxed, const Stubs& stubs) {
  if (sandboxed) {
    e.SubRegImm8(kR14, 1);                                          // sub r14, 1 (CF = was zero)
    e.JccTo(kCcB, stubs.fault[static_cast<int>(JitFault::kOutOfFuel)]);
  }
  e.Rex(true, 0, kNoIndex, kR15);  // inc r15
  e.Byte(0xFF);
  e.ModRR(0, kR15);
}

// Sandboxed bounds check for an access of `width` at the address in rax,
// clobbering rcx. Mirrors the interpreter exactly: the checks counter is
// charged BEFORE the test (a faulting access still counts), and the test is
// the overflow-proof pair `addr > mem_size || mem_size - addr < width`.
void BoundsCheck(Emitter& e, size_t width, size_t fault_stub) {
  e.IncMem(kRbx, kOffBoundsChecks);
  e.MovRegMem(kRcx, kRbx, kNoIndex, 0, kOffMemSize);
  e.CmpRegReg(kRax, kRcx);
  e.JccTo(kCcA, fault_stub);
  e.SubRegReg(kRcx, kRax);
  e.CmpRegImm(kRcx, static_cast<int32_t>(width));
  e.JccTo(kCcB, fault_stub);
}

// Sandboxed guard for one access: a BoundsCheck, unless the verifier's static
// analyzer proved the access in bounds (kInsnProvenInBounds) for every memory
// window >= program.elide_floor — the entry stub rejects smaller windows
// before running. A proven site is still charged: it bumps ONLY
// ctx->static_proofs (one counter RMW, same cost as the checked site's
// bounds_checks bump), and the host folds static_proofs into bounds_checks at
// flush time, so the coverage count is bit-identical with analyze=false.
void AccessGuard(Emitter& e, const DecodedInsn& insn, size_t width, size_t fault_stub) {
  if ((insn.flags & kInsnProvenInBounds) != 0) {
    e.IncMem(kRbx, kOffStaticProofs);
  } else {
    BoundsCheck(e, width, fault_stub);
  }
}

struct Fixup {
  size_t at;        // buffer offset of a rel32 to patch
  uint32_t target;  // decoded-stream index it must reach
};

}  // namespace

Result<std::unique_ptr<const JitProgram>> JitCompile(const VerifiedProgram& program,
                                                     ExecMode mode) {
  // Compiles are rare (lazy, cached per program x mode) and slow enough that
  // an always-on span + counter costs nothing relative to the work.
  PARA_TRACE_SCOPE_ARG("sfi.jit.compile", program.code.size());
  if constexpr (telemetry::kEnabled) {
    static telemetry::Counter compiles = telemetry::Registry::Get().counter("sfi.jit.compiles");
    compiles.Inc();
  }
  const bool sandboxed = mode == ExecMode::kSandboxed;
  Emitter e;
  e.buf.reserve(program.code.size() * 80 + 512);
  std::vector<Fixup> fixups;
  std::vector<size_t> insn_off(program.code.size());

  // ---- shared stubs ----
  Stubs stubs{};
  // exit_common: every path leaves through here with the fault code in rax.
  // r15 (instructions retired) is flushed unconditionally — the interpreter's
  // CounterFlush destructor runs on faults too, and metering equivalence
  // depends on that.
  stubs.exit_common = e.pos();
  e.MovMemReg(kRbx, kNoIndex, 0, kOffInstructions, kR15);
  e.AddRegImm8(4 /*rsp*/, 8);
  e.PopReg(kR15);
  e.PopReg(kR14);
  e.PopReg(kR13);
  e.PopReg(kR12);
  e.PopReg(kRbp);
  e.PopReg(kRbx);
  e.Ret();
  // ret_zero: clean halt with result 0 (kHalt, and kRet from the outermost
  // frame, which the interpreter also treats as halt).
  stubs.ret_zero = e.pos();
  e.MovMemImm32(kRbx, kOffResult, 0);
  e.XorReg32(kRax);
  e.JmpTo(stubs.exit_common);
  for (int f = 1; f < kNumFaults; ++f) {
    stubs.fault[f] = e.pos();
    e.MovRegImm(kRax, static_cast<uint64_t>(f));
    e.JmpTo(stubs.exit_common);
  }
  const size_t fault_load = stubs.fault[static_cast<int>(JitFault::kLoadOutOfBounds)];
  const size_t fault_store = stubs.fault[static_cast<int>(JitFault::kStoreOutOfBounds)];

  // ---- body: one template per decoded instruction ----
  for (size_t i = 0; i < program.code.size(); ++i) {
    const DecodedInsn& insn = program.code[i];
    insn_off[i] = e.pos();
    const uint8_t op = insn.op;

    // Fused superinstructions and synthetics first (they sit above kOpCount).
    if (op >= kOpFusedPushLoad8 && op <= kOpFusedPushLoad64) {
      // push imm; loadN — meters twice (fuel faults can land between the
      // halves), then one guard on the immediate address.
      const size_t width = size_t{1} << (op - kOpFusedPushLoad8);
      Meter(e, sandboxed, stubs);
      Meter(e, sandboxed, stubs);
      e.MovRegImm(kRax, insn.imm);
      if (sandboxed) {
        AccessGuard(e, insn, width, fault_load);
      }
      e.LoadWidth(kRax, kR13, kRax, width);
      StoreSlot(e, kRax, 0);
      e.AddRegImm8(kR12, 1);
      continue;
    }
    if (op >= kOpFusedEqJz && op <= kOpFusedGtUJnz) {
      // cmp; jz/jnz — pops both operands, branches on the folded condition.
      static constexpr uint8_t kCcOf[8] = {
          kCcNE,  // eq+jz  taken when lhs != rhs
          kCcE,   // eq+jnz
          kCcE,   // ne+jz  taken when lhs == rhs
          kCcNE,  // ne+jnz
          kCcAE,  // ltu+jz taken when lhs >= rhs
          kCcB,   // ltu+jnz
          kCcBE,  // gtu+jz taken when lhs <= rhs
          kCcA,   // gtu+jnz
      };
      Meter(e, sandboxed, stubs);
      Meter(e, sandboxed, stubs);
      e.SubRegImm8(kR12, 2);
      LoadSlot(e, kRcx, 1);  // rhs (old top)
      LoadSlot(e, kRax, 0);  // lhs
      e.CmpRegReg(kRax, kRcx);
      fixups.push_back({e.JccPlaceholder(kCcOf[op - kOpFusedEqJz]), insn.target});
      continue;
    }
    if (op == kOpCheckStack) {
      // Per-block stack envelope: both modes, unmetered, exactly like the
      // interpreter's synthetic. Degenerate halves (need or grow of 0) are
      // statically never-faulting, so no code is emitted for them.
      const uint32_t need = StackCheckNeed(insn.imm);
      const uint32_t grow = StackCheckGrow(insn.imm);
      if (need > 0) {
        e.CmpRegImm(kR12, static_cast<int32_t>(need));
        e.JccTo(kCcB, stubs.fault[static_cast<int>(JitFault::kStackUnderflow)]);
      }
      if (grow > 0) {
        const int64_t limit = static_cast<int64_t>(Vm::kStackSlots) - grow;
        if (limit < 0) {
          e.JmpTo(stubs.fault[static_cast<int>(JitFault::kStackOverflow)]);
        } else {
          e.CmpRegImm(kR12, static_cast<int32_t>(limit));
          e.JccTo(kCcA, stubs.fault[static_cast<int>(JitFault::kStackOverflow)]);
        }
      }
      continue;
    }
    if (op == kOpEndOfCode) {
      e.JmpTo(stubs.fault[static_cast<int>(JitFault::kPcOutOfCode)]);
      continue;
    }

    switch (static_cast<Op>(op)) {
      case Op::kHalt:
        Meter(e, sandboxed, stubs);
        e.JmpTo(stubs.ret_zero);
        break;
      case Op::kPush:
        Meter(e, sandboxed, stubs);
        e.MovRegImm(kRax, insn.imm);
        StoreSlot(e, kRax, 0);
        e.AddRegImm8(kR12, 1);
        break;
      case Op::kDrop:
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        break;
      case Op::kDup:
        Meter(e, sandboxed, stubs);
        LoadSlot(e, kRax, -1);
        StoreSlot(e, kRax, 0);
        e.AddRegImm8(kR12, 1);
        break;
      case Op::kSwap:
        Meter(e, sandboxed, stubs);
        LoadSlot(e, kRax, -1);
        LoadSlot(e, kRcx, -2);
        StoreSlot(e, kRcx, -1);
        StoreSlot(e, kRax, -2);
        break;

      case Op::kAdd:
      case Op::kSub:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        // Memory-destination form: [new top] op= rhs.
        static constexpr uint8_t kAlu[] = {0x01, 0x29, 0x21, 0x09, 0x31};
        uint8_t alu = op == static_cast<uint8_t>(Op::kAdd)   ? kAlu[0]
                      : op == static_cast<uint8_t>(Op::kSub) ? kAlu[1]
                      : op == static_cast<uint8_t>(Op::kAnd) ? kAlu[2]
                      : op == static_cast<uint8_t>(Op::kOr)  ? kAlu[3]
                                                             : kAlu[4];
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRcx, 0);  // rhs
        e.AluMemReg(alu, kRbp, kR12, 8, -8, kRcx);
        break;
      }
      case Op::kMul:
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRax, -1);
        e.ImulRegMem(kRax, kRbp, kR12, 8, 0);
        StoreSlot(e, kRax, -1);
        break;
      case Op::kDivU:
      case Op::kRemU:
        // rhs == 0 faults in BOTH modes, same as the interpreter.
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRcx, 0);
        e.TestRegReg(kRcx);
        e.JccTo(kCcE, stubs.fault[static_cast<int>(JitFault::kDivideByZero)]);
        LoadSlot(e, kRax, -1);
        e.XorReg32(kRdx);
        e.DivReg(kRcx);
        StoreSlot(e, static_cast<Op>(op) == Op::kDivU ? kRax : kRdx, -1);
        break;
      case Op::kShl:
      case Op::kShr:
        // Shift counts >= 64 produce 0 (x86 masks cl to 6 bits, so select).
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRcx, 0);
        LoadSlot(e, kRax, -1);
        e.XorReg32(kRdx);
        e.ShiftCl(kRax, static_cast<Op>(op) == Op::kShr);
        e.CmpRegImm(kRcx, 64);
        e.Cmovcc(kCcAE, kRax, kRdx);
        StoreSlot(e, kRax, -1);
        break;
      case Op::kEq:
      case Op::kNe:
      case Op::kLtU:
      case Op::kGtU: {
        uint8_t cc = static_cast<Op>(op) == Op::kEq    ? kCcE
                     : static_cast<Op>(op) == Op::kNe  ? kCcNE
                     : static_cast<Op>(op) == Op::kLtU ? kCcB
                                                       : kCcA;
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRcx, 0);   // rhs
        LoadSlot(e, kRax, -1);  // lhs
        e.XorReg32(kRdx);
        e.CmpRegReg(kRax, kRcx);
        e.Setcc(cc, kRdx);
        StoreSlot(e, kRdx, -1);
        break;
      }
      case Op::kNot:
        Meter(e, sandboxed, stubs);
        LoadSlot(e, kRax, -1);
        e.XorReg32(kRcx);
        e.TestRegReg(kRax);
        e.Setcc(kCcE, kRcx);
        StoreSlot(e, kRcx, -1);
        break;

      case Op::kLoad8:
      case Op::kLoad16:
      case Op::kLoad32:
      case Op::kLoad64: {
        const size_t width = size_t{1} << (op - static_cast<uint8_t>(Op::kLoad8));
        Meter(e, sandboxed, stubs);
        LoadSlot(e, kRax, -1);  // addr; top is replaced in place
        if (sandboxed) {
          AccessGuard(e, insn, width, fault_load);
        }
        e.LoadWidth(kRax, kR13, kRax, width);
        StoreSlot(e, kRax, -1);
        break;
      }
      case Op::kStore8:
      case Op::kStore16:
      case Op::kStore32:
      case Op::kStore64: {
        const size_t width = size_t{1} << (op - static_cast<uint8_t>(Op::kStore8));
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 2);
        LoadSlot(e, kRdx, 1);  // stored value (old top)
        LoadSlot(e, kRax, 0);  // addr
        if (sandboxed) {
          AccessGuard(e, insn, width, fault_store);
        }
        e.StoreWidth(kR13, kRax, kRdx, width);
        break;
      }

      case Op::kJmp:
        Meter(e, sandboxed, stubs);
        fixups.push_back({e.JmpPlaceholder(), insn.target});
        break;
      case Op::kJz:
      case Op::kJnz:
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRax, 0);
        e.TestRegReg(kRax);
        fixups.push_back(
            {e.JccPlaceholder(static_cast<Op>(op) == Op::kJz ? kCcE : kCcNE), insn.target});
        break;
      case Op::kCall: {
        // Depth check (both modes), then push the NATIVE address of the next
        // decoded instruction and jump — kRet is an indirect jump, no
        // decoded-pc round trip.
        Meter(e, sandboxed, stubs);
        e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffCallSp);
        e.CmpRegImm(kRax, static_cast<int32_t>(Vm::kCallDepth));
        e.JccTo(kCcAE, stubs.fault[static_cast<int>(JitFault::kCallDepth)]);
        e.IncMem(kRbx, kOffCalls);
        fixups.push_back({e.LeaRipPlaceholder(kRcx), static_cast<uint32_t>(i + 1)});
        e.MovMemReg(kRbx, kRax, 8, kOffCallStack, kRcx);
        e.AddRegImm8(kRax, 1);
        e.MovMemReg(kRbx, kNoIndex, 0, kOffCallSp, kRax);
        fixups.push_back({e.JmpPlaceholder(), insn.target});
        break;
      }
      case Op::kRet:
        Meter(e, sandboxed, stubs);
        e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffCallSp);
        e.TestRegReg(kRax);
        e.JccTo(kCcE, stubs.ret_zero);  // outermost frame: ret == halt 0
        e.SubRegImm8(kRax, 1);
        e.MovMemReg(kRbx, kNoIndex, 0, kOffCallSp, kRax);
        e.MovRegMem(kRcx, kRbx, kRax, 8, kOffCallStack);
        e.JmpReg(kRcx);
        break;
      case Op::kLdArg:
        Meter(e, sandboxed, stubs);
        e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffArgs + insn.arg * 8);
        StoreSlot(e, kRax, 0);
        e.AddRegImm8(kR12, 1);
        break;
      case Op::kRetV:
        Meter(e, sandboxed, stubs);
        e.SubRegImm8(kR12, 1);
        LoadSlot(e, kRax, 0);
        e.MovMemReg(kRbx, kNoIndex, 0, kOffResult, kRax);
        e.XorReg32(kRax);
        e.JmpTo(stubs.exit_common);
        break;
      case Op::kHostCall: {
        // ABI shim: VM state lives entirely in callee-saved registers, so the
        // C call needs no spills. Unbound slot faults BEFORE host_calls is
        // charged, matching CallHostHelper's order.
        Meter(e, sandboxed, stubs);
        const int32_t slot_disp = static_cast<int32_t>(insn.arg) * 8;
        e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffHelpers);
        e.MovRegMem(kRax, kRax, kNoIndex, 0, slot_disp);
        e.TestRegReg(kRax);
        e.JccTo(kCcE, stubs.fault[static_cast<int>(JitFault::kUnboundHostHelper)]);
        e.MovRegMem(kRdx, kRbx, kNoIndex, 0, kOffHelperCtx);
        e.MovRegMem(kRdi, kRdx, kNoIndex, 0, slot_disp);
        LoadSlot(e, kRsi, -1);
        e.CallReg(kRax);
        StoreSlot(e, kRax, -1);
        e.IncMem(kRbx, kOffHostCalls);
        break;
      }
      case Op::kOpCount:
        return Status(ErrorCode::kInternal, "jit: bad decoded opcode");
    }
  }

  // ---- resolve decoded-stream jump targets ----
  for (const Fixup& fixup : fixups) {
    const size_t target = insn_off[fixup.target];
    e.PatchU32(fixup.at, static_cast<uint32_t>(target - (fixup.at + 4)));
  }

  // ---- entry stubs (one per method slot) ----
  // Prologue: 6 pushes + 8 keeps rsp 16-aligned at every generated call site.
  std::vector<uint32_t> entry_offsets;
  entry_offsets.reserve(program.entry_points.size());
  for (uint32_t entry : program.entry_points) {
    entry_offsets.push_back(static_cast<uint32_t>(e.pos()));
    e.PushReg(kRbx);
    e.PushReg(kRbp);
    e.PushReg(kR12);
    e.PushReg(kR13);
    e.PushReg(kR14);
    e.PushReg(kR15);
    e.SubRegImm8(4 /*rsp*/, 8);
    e.MovRegReg(kRbx, kRdi);
    e.Lea(kRbp, kRbx, kNoIndex, 0, kOffStack);
    e.XorReg32(kR12);
    e.MovRegMem(kR13, kRbx, kNoIndex, 0, kOffMem);
    if (sandboxed) {
      e.MovRegMem(kR14, kRbx, kNoIndex, 0, kOffFuel);
    }
    e.XorReg32(kR15);
    if (sandboxed && program.elide_floor > 0) {
      // Elision soundness gate: the analyzer's proofs assumed at least
      // elide_floor usable bytes. A run over a smaller window (shrunk
      // memory(), deep burst re-base) bails out to the host before executing
      // anything; the host re-runs it on the checked interpreter.
      // CmpRegImm is imm32-only, so the floor goes through rcx.
      e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffMemSize);
      e.MovRegImm(kRcx, program.elide_floor);
      e.CmpRegReg(kRax, kRcx);
      e.JccTo(kCcB, stubs.fault[static_cast<int>(JitFault::kElideFloorMiss)]);
    }
    e.JmpTo(insn_off[entry]);
  }

  // ---- burst trampolines (one per method slot) ----
  // The batch-entry ABI: loops the method over ctx->burst_count descriptor
  // slots entirely in native code. Per slot it re-bases ctx.mem/mem_size
  // (the window shrinks in step with the base, exactly like a loop of
  // re-based single runs; the host guarantees every slot sits under the
  // bounds slack so the size cursor cannot wrap), re-arms the fuel budget,
  // zeroes the call stack, calls the method's entry stub, and stores the
  // [result, fault] pair. Each entry run starts from the same context state
  // a single run would have written, so metering is bit-identical per slot.
  std::vector<uint32_t> burst_offsets;
  burst_offsets.reserve(program.entry_points.size());
  for (size_t m = 0; m < program.entry_points.size(); ++m) {
    burst_offsets.push_back(static_cast<uint32_t>(e.pos()));
    e.PushReg(kRbx);
    e.PushReg(kRbp);
    e.PushReg(kR12);
    e.PushReg(kR13);
    e.PushReg(kR14);
    e.PushReg(kR15);
    e.SubRegImm8(4 /*rsp*/, 8);  // entry stubs expect C++-caller alignment
    e.MovRegReg(kRbx, kRdi);
    e.MovRegMem(kRbp, kRbx, kNoIndex, 0, kOffBurstMem);      // slot base cursor
    e.MovRegMem(kR12, kRbx, kNoIndex, 0, kOffBurstMemSize);  // slot size cursor
    e.MovRegMem(kR13, kRbx, kNoIndex, 0, kOffBurstOut);
    e.MovRegMem(kR14, kRbx, kNoIndex, 0, kOffBurstCount);
    e.XorReg32(kR15);  // burst-total instructions retired
    e.TestRegReg(kR14);
    const size_t skip = e.JccPlaceholder(kCcE);
    const size_t loop_top = e.pos();
    e.MovMemReg(kRbx, kNoIndex, 0, kOffMem, kRbp);
    e.MovMemReg(kRbx, kNoIndex, 0, kOffMemSize, kR12);
    if (sandboxed) {
      e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffBurstFuel);
      e.MovMemReg(kRbx, kNoIndex, 0, kOffFuel, kRax);
    }
    e.MovMemImm32(kRbx, kOffCallSp, 0);
    e.MovRegReg(kRdi, kRbx);
    e.CallTo(entry_offsets[m]);
    e.MovMemReg(kR13, kNoIndex, 0, 8, kRax);  // pair.fault (0 = clean)
    e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffResult);
    e.MovMemReg(kR13, kNoIndex, 0, 0, kRax);            // pair.result
    e.AluRegMem(0x03, kR15, kRbx, kOffInstructions);    // += this run's retire count
    e.AluRegMem(0x03, kRbp, kRbx, kOffBurstStride);     // next slot base
    e.AluRegMem(0x2B, kR12, kRbx, kOffBurstStride);     // window shrinks in step
    e.AddRegImm8(kR13, 16);
    e.SubRegImm8(kR14, 1);
    e.JccTo(kCcNE, loop_top);
    e.PatchU32(skip, static_cast<uint32_t>(e.pos() - (skip + 4)));
    e.MovMemReg(kRbx, kNoIndex, 0, kOffInstructions, kR15);  // burst total
    e.AddRegImm8(4 /*rsp*/, 8);
    e.PopReg(kR15);
    e.PopReg(kR14);
    e.PopReg(kR13);
    e.PopReg(kR12);
    e.PopReg(kRbp);
    e.PopReg(kRbx);
    e.XorReg32(kRax);
    e.Ret();
  }

  // ---- publish: copy into a fresh mapping, then seal W^X ----
  const long page_long = sysconf(_SC_PAGESIZE);
  const size_t page = page_long > 0 ? static_cast<size_t>(page_long) : 4096;
  const size_t mapped = (e.buf.size() + page - 1) & ~(page - 1);
  void* buffer =
      mmap(nullptr, mapped, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buffer == MAP_FAILED) {
    return Status(ErrorCode::kInternal, "jit: mmap failed");
  }
  std::memcpy(buffer, e.buf.data(), e.buf.size());
  if (mprotect(buffer, mapped, PROT_READ | PROT_EXEC) != 0) {
    munmap(buffer, mapped);
    return Status(ErrorCode::kInternal, "jit: mprotect failed");
  }

  std::unique_ptr<JitProgram> compiled(new JitProgram());
  compiled->buffer_ = buffer;
  compiled->mapped_bytes_ = mapped;
  compiled->code_bytes_ = e.buf.size();
  compiled->entry_offsets_ = std::move(entry_offsets);
  compiled->burst_entry_offsets_ = std::move(burst_offsets);
  compiled->mode_ = mode;
  return std::unique_ptr<const JitProgram>(std::move(compiled));
}

#else  // !PARA_SFI_JIT_BACKEND

Result<std::unique_ptr<const JitProgram>> JitCompile(const VerifiedProgram&, ExecMode) {
  return Status(ErrorCode::kUnavailable, "jit: unsupported on this build/host");
}

#endif  // PARA_SFI_JIT_BACKEND

Result<std::shared_ptr<const JitProgram>> GetOrCompileJit(const VerifiedProgram& program,
                                                          ExecMode mode) {
  const int slot = mode == ExecMode::kTrusted ? 1 : 0;
  JitCacheSlot* cache = program.jit_cache.get();
  if (cache == nullptr) {
    // Hand-built VerifiedProgram (tests): compile privately, uncached.
    PARA_ASSIGN_OR_RETURN(auto compiled, JitCompile(program, mode));
    return std::shared_ptr<const JitProgram>(std::move(compiled));
  }
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->per_mode[slot] == nullptr) {
    PARA_ASSIGN_OR_RETURN(auto compiled, JitCompile(program, mode));
    cache->per_mode[slot] = std::move(compiled);
  }
  return cache->per_mode[slot];
}

}  // namespace para::sfi
