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

// System V x86-64. Callee-saved registers carry the VM state, so a host call
// (helper) never has to save it: rbx = JitContext*, rbp = operand-stack
// base, r12 = sp (slot index, next free) as of the last cache flush, r13 =
// memory base, r14 = fuel (sandboxed only), r15 = instructions retired.
// rsi, rdi and r8-r11 cache the top of the operand stack within a basic
// block (StackCache below). rax, rcx and rdx stay scratch: div takes rdx:rax,
// variable shifts take cl, and the bounds guard compares through rcx.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5, kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11;
constexpr int kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15;
constexpr int kNoIndex = -1;

// Condition codes (low nibble of 0F 8x Jcc / 0F 9x SETcc / 0F 4x CMOVcc).
constexpr uint8_t kCcB = 0x2;   // unsigned <  (also "carry")
constexpr uint8_t kCcAE = 0x3;  // unsigned >=
constexpr uint8_t kCcE = 0x4;
constexpr uint8_t kCcNE = 0x5;
constexpr uint8_t kCcBE = 0x6;  // unsigned <=
constexpr uint8_t kCcA = 0x7;   // unsigned >

// The same unsigned condition with its operands exchanged (a < b == b > a).
uint8_t SwapCc(uint8_t cc) {
  switch (cc) {
    case kCcB: return kCcA;
    case kCcA: return kCcB;
    case kCcAE: return kCcBE;
    case kCcBE: return kCcAE;
    default: return cc;  // E, NE are symmetric
  }
}

// Group-1 ALU operations by their ModRM /digit: `op r/m64, imm` is 0x83 or
// 0x81 /digit, and `op r/m64, r64` is opcode 8*digit + 1.
enum Alu : uint8_t { kAluAdd = 0, kAluOr = 1, kAluAnd = 4, kAluSub = 5, kAluXor = 6, kAluCmp = 7 };

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

// True when `v` survives the sign-extension of an imm32 operand.
bool FitsImm32(uint64_t v) { return static_cast<int64_t>(v) == static_cast<int32_t>(v); }

// Minimal x86-64 emitter: only the encodings the translator needs, each a
// named method so the translator reads like the assembly it emits. Every
// jump is rel32 (stubs live at the buffer head, bodies can be far).
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
  void Imm(int32_t imm, bool imm8) {
    if (imm8) {
      Byte(static_cast<uint8_t>(imm));
    } else {
      U32(static_cast<uint32_t>(imm));
    }
  }
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  // REX prefix for (reg field, index, base/rm). Skipped when it would be the
  // meaningless bare 0x40 (no 8-bit operand other than al is ever used).
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
  // Shortest exact load of a 64-bit constant; leaves the flags alone.
  void MovRegImm(int reg, uint64_t imm) {
    if (imm <= 0xFFFFFFFFu) {  // mov r32, imm32 zero-extends
      Rex(false, 0, kNoIndex, reg);
      Byte(static_cast<uint8_t>(0xB8 | (reg & 7)));
      U32(static_cast<uint32_t>(imm));
    } else if (FitsImm32(imm)) {  // mov r64, imm32 sign-extends
      Rex(true, 0, kNoIndex, reg);
      Byte(0xC7);
      ModRR(0, reg);
      U32(static_cast<uint32_t>(imm));
    } else {
      Rex(true, 0, kNoIndex, reg);
      Byte(static_cast<uint8_t>(0xB8 | (reg & 7)));
      U64(imm);
    }
  }
  // qword store of a sign-extended imm32.
  void MovMemImm32(int base, int index, int scale, int32_t disp, uint32_t imm) {
    Rex(true, 0, index, base);
    Byte(0xC7);
    Mem(0, base, index, scale, disp);
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

  // --- guest memory: [base + index + disp] in the VM's width ---
  void LoadWidth(int reg, int base, int index, int32_t disp, size_t width) {
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
    Mem(reg, base, index, 1, disp);
  }
  void StoreWidth(int base, int index, int32_t disp, int reg, size_t width) {
    if (width == 2) Byte(0x66);
    // A byte store from sil/dil needs a REX prefix even when bare.
    if (width == 1 && reg >= 4 && reg < 8 && index < 8 && base < 8) Byte(0x40);
    Rex(width == 8, reg, index, base);
    Byte(width == 1 ? 0x88 : 0x89);
    Mem(reg, base, index, 1, disp);
  }

  // --- ALU ---
  void AluRegReg(Alu op, int dst, int src) {  // dst op= src (cmp: flags of dst - src)
    Rex(true, src, kNoIndex, dst);
    Byte(static_cast<uint8_t>(8 * op + 1));
    ModRR(src, dst);
  }
  // dst op= imm32, sign-extended; `wide` false operates on the low 32 bits
  // and zero-extends the result.
  void AluRegImm(Alu op, int reg, int32_t imm, bool wide = true) {
    const bool imm8 = imm >= -128 && imm <= 127;
    Rex(wide, 0, kNoIndex, reg);
    Byte(imm8 ? 0x83 : 0x81);
    ModRR(op, reg);
    Imm(imm, imm8);
  }
  void AluMemImm(Alu op, int base, int32_t disp, int32_t imm) {  // qword [base+disp] op= imm
    const bool imm8 = imm >= -128 && imm <= 127;
    Rex(true, 0, kNoIndex, base);
    Byte(imm8 ? 0x83 : 0x81);
    Mem(op, base, kNoIndex, 0, disp);
    Imm(imm, imm8);
  }
  void AluRegMem(uint8_t opcode, int reg, int base, int32_t disp) {
    Rex(true, reg, kNoIndex, base);
    Byte(opcode);  // 0x03 add / 0x2B sub: reg op= [mem]
    Mem(reg, base, kNoIndex, 0, disp);
  }
  void ImulRegReg(int dst, int src) {
    Rex(true, dst, kNoIndex, src);
    Byte(0x0F);
    Byte(0xAF);
    ModRR(dst, src);
  }
  void ImulRegImm(int reg, int32_t imm) {  // reg = reg * imm32
    const bool imm8 = imm >= -128 && imm <= 127;
    Rex(true, reg, kNoIndex, reg);
    Byte(imm8 ? 0x6B : 0x69);
    ModRR(reg, reg);
    Imm(imm, imm8);
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
  void ShiftImm(int reg, bool right, uint8_t count) {  // shl/shr reg, imm8
    Rex(true, 0, kNoIndex, reg);
    Byte(0xC1);
    ModRR(right ? 5 : 4, reg);
    Byte(count);
  }
  void TestRegReg(int reg) {
    Rex(true, reg, kNoIndex, reg);
    Byte(0x85);
    ModRR(reg, reg);
  }
  // setcc al; movzx dst32, al — a 0/1 result from the flags.
  void SetccTo(uint8_t cc, int dst) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x90 | cc));
    ModRR(0, kRax);
    Rex(false, dst, kNoIndex, kRax);
    Byte(0x0F);
    Byte(0xB6);
    ModRR(dst, kRax);
  }
  void Cmovcc(uint8_t cc, int dst, int src) {
    Rex(true, dst, kNoIndex, src);
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x40 | cc));
    ModRR(dst, src);
  }
  void IncReg(int reg) {
    Rex(true, 0, kNoIndex, reg);
    Byte(0xFF);
    ModRR(0, reg);
  }
  void IncMem(int base, int32_t disp) {  // inc qword [base+disp]
    Rex(true, 0, kNoIndex, base);
    Byte(0xFF);
    Mem(0, base, kNoIndex, 0, disp);
  }

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

struct Fixup {
  size_t at;        // buffer offset of a rel32 to patch
  uint32_t target;  // decoded-stream index it must reach
};

// True when `insn.target` names a decoded-stream index control can reach.
bool HasTarget(const DecodedInsn& insn) {
  const uint8_t op = insn.op;
  return op == static_cast<uint8_t>(Op::kJmp) || op == static_cast<uint8_t>(Op::kJz) ||
         op == static_cast<uint8_t>(Op::kJnz) || op == static_cast<uint8_t>(Op::kCall) ||
         (op >= kOpFusedEqJz && op <= kOpFusedGtUJnz);
}

// One operand-stack value at translation time: in a cache register, or an
// immediate no instruction has materialized yet.
struct Value {
  int reg = kNoIndex;  // kNoIndex: the value is `imm`
  uint64_t imm = 0;
  bool is_imm() const { return reg == kNoIndex; }
};
Value Imm(uint64_t imm) { return {kNoIndex, imm}; }
Value InReg(int reg) { return {reg, 0}; }

constexpr int kCacheRegs[] = {kRsi, kRdi, kR8, kR9, kR10, kR11};
// Values pushed beyond this depth spill the oldest one to its slot.
constexpr int kMaxCached = 8;

// Translates the decoded stream one basic block at a time with the top of
// the operand stack cached (Ertl, "Stack Caching for Interpreters", PLDI
// 1995). Each op takes its operands from the cache — or from their stack
// slots when the cache holds fewer — and leaves its result in a cache
// register, so a classifier test `push off; loadN; push imm; <cmp>+j<cc>`
// becomes one load, one `cmp reg, imm` and one jcc.
//
// The virtual stack pointer is r12 + bias_: slots below the depth_ cached
// values are exact in memory, and the cached values own the slots above
// them. Flush() stores the cache and brings r12 up to date; it runs at every
// leader (a jump/branch/call target, a call's return slot, an entry point)
// and before every jump, branch, call, ret and hostcall, so control arrives
// at a leader — and at the kCheckStack that opens a block — with an exact
// r12 and an empty cache. Faults leave cached values unstored: no caller
// reads ctx->stack after a run, and an entry stub's elide-floor miss re-runs
// the program from scratch on the interpreter.
//
// Metering stays bit-identical to the threaded loop's VM_METER. Sandboxed
// code checks fuel and bumps r15 per instruction; trusted code counts a
// straight run at translation time and retires it with one `add r15, n`
// before every flush point and every check that can fault.
class Translator {
 public:
  Translator(Emitter& e, const Stubs& stubs, bool sandboxed)
      : e_(e), stubs_(stubs), sandboxed_(sandboxed) {}

  std::vector<Fixup> fixups;

  // Stores the cache and retires the pending run: the state every leader
  // and every control transfer needs.
  void Sync() {
    Flush();
    Retire();
  }

  Status Translate(const DecodedInsn& insn, uint32_t index);

 private:
  size_t Fault(JitFault fault) const { return stubs_.fault[static_cast<int>(fault)]; }

  // Opens `n` real instructions (a fused op is two), in stream order.
  void Meter(int n) {
    if (!sandboxed_) {
      pending_ += n;
      return;
    }
    for (int k = 0; k < n; ++k) {
      e_.AluRegImm(kAluSub, kR14, 1);  // CF = fuel was zero
      e_.JccTo(kCcB, Fault(JitFault::kOutOfFuel));
      e_.IncReg(kR15);
    }
  }
  void Retire() {
    if (pending_ > 0) {
      e_.AluRegImm(kAluAdd, kR15, pending_);
      pending_ = 0;
    }
  }

  // --- the stack cache ---
  // Displacement from rbp + r12*8 of the slot `k` below the virtual stack
  // pointer (k = 1 is the top of the stack).
  int32_t SlotDisp(int k) const { return (bias_ - k) * 8; }
  void StoreCached(int i) {  // cached value i (0 = oldest) to its slot
    const int32_t disp = SlotDisp(depth_ - i);
    const Value& v = cache_[i];
    if (!v.is_imm()) {
      e_.MovMemReg(kRbp, kR12, 8, disp, v.reg);
    } else if (FitsImm32(v.imm)) {
      e_.MovMemImm32(kRbp, kR12, 8, disp, static_cast<uint32_t>(v.imm));
    } else {
      e_.MovRegImm(kRax, v.imm);
      e_.MovMemReg(kRbp, kR12, 8, disp, kRax);
    }
  }
  void SpillOldest() {
    StoreCached(0);
    Free(cache_[0]);
    for (int i = 1; i < depth_; ++i) {
      cache_[i - 1] = cache_[i];
    }
    --depth_;
  }
  void Flush() {
    for (int i = 0; i < depth_; ++i) {
      StoreCached(i);
      Free(cache_[i]);
    }
    depth_ = 0;
    if (bias_ != 0) {
      e_.AluRegImm(kAluAdd, kR12, bias_);
      bias_ = 0;
    }
  }
  // Control does not fall through here: whatever is cached is dead.
  void Forget() {
    depth_ = 0;
    bias_ = 0;
    in_use_ = 0;
    pending_ = 0;
  }
  int Alloc() {
    for (;;) {
      for (int reg : kCacheRegs) {
        if ((in_use_ & (1u << reg)) == 0) {
          in_use_ |= 1u << reg;
          return reg;
        }
      }
      // Every register holds a value: at most three are operands an op has
      // popped, so the cache owns the rest and its oldest can spill.
      PARA_CHECK(depth_ > 0);
      SpillOldest();
    }
  }
  void Free(const Value& v) {
    if (!v.is_imm()) {
      in_use_ &= ~(1u << v.reg);
    }
  }
  int ToReg(Value& v) {
    if (v.is_imm()) {
      const int reg = Alloc();
      e_.MovRegImm(reg, v.imm);
      v = InReg(reg);
    }
    return v.reg;
  }
  Value Pop() {
    Value v;
    if (depth_ > 0) {
      v = cache_[--depth_];
    } else {
      v = InReg(Alloc());
      e_.MovRegMem(v.reg, kRbp, kR12, 8, SlotDisp(1));
    }
    --bias_;
    return v;
  }
  void Push(Value v) {
    if (depth_ == kMaxCached) {
      SpillOldest();
    }
    cache_[depth_++] = v;
    ++bias_;
  }
  void Drop() {
    --bias_;
    if (depth_ > 0) {
      Free(cache_[--depth_]);
    }
  }

  // --- op templates ---
  Value Binary(Op op, Value lhs, Value rhs);
  Value DivRem(bool rem, Value lhs, Value rhs);
  Value Shift(bool right, Value lhs, Value rhs);
  uint8_t Compare(uint8_t cc, Value& lhs, Value& rhs);
  void Guard(const DecodedInsn& insn, size_t width, Value& addr, JitFault fault);
  Value Load(const DecodedInsn& insn, size_t width, Value addr);
  void Store(const DecodedInsn& insn, size_t width, Value addr, Value value);
  void Branch(uint8_t cc, uint32_t target) {
    fixups.push_back({e_.JccPlaceholder(cc), target});
  }
  void Jump(uint32_t target) { fixups.push_back({e_.JmpPlaceholder(), target}); }

  Emitter& e_;
  const Stubs& stubs_;
  const bool sandboxed_;
  Value cache_[kMaxCached];
  int depth_ = 0;         // values cached above the exact memory stack
  int bias_ = 0;          // virtual sp minus r12
  uint32_t in_use_ = 0;   // cache registers holding a value, by number
  int32_t pending_ = 0;   // trusted: instructions retired since the last Retire
};

uint64_t Fold(Op op, uint64_t lhs, uint64_t rhs) {
  switch (op) {
    case Op::kAdd: return lhs + rhs;
    case Op::kSub: return lhs - rhs;
    case Op::kMul: return lhs * rhs;
    case Op::kAnd: return lhs & rhs;
    case Op::kOr: return lhs | rhs;
    case Op::kXor: return lhs ^ rhs;
    case Op::kEq: return lhs == rhs ? 1 : 0;
    case Op::kNe: return lhs != rhs ? 1 : 0;
    case Op::kLtU: return lhs < rhs ? 1 : 0;
    case Op::kGtU: return lhs > rhs ? 1 : 0;
    default: return 0;
  }
}

// add/sub/mul/and/or/xor. The result reuses the left operand's register.
Value Translator::Binary(Op op, Value lhs, Value rhs) {
  if (lhs.is_imm() && rhs.is_imm()) {
    return Imm(Fold(op, lhs.imm, rhs.imm));
  }
  if (lhs.is_imm() && op != Op::kSub) {
    std::swap(lhs, rhs);  // commutative: keep the immediate on the right
  }
  const int dst = ToReg(lhs);
  const Alu alu = op == Op::kAdd   ? kAluAdd
                  : op == Op::kSub ? kAluSub
                  : op == Op::kAnd ? kAluAnd
                  : op == Op::kOr  ? kAluOr
                                   : kAluXor;  // unused for mul, which takes imul
  if (rhs.is_imm() && FitsImm32(rhs.imm)) {
    if (op == Op::kMul) {
      e_.ImulRegImm(dst, static_cast<int32_t>(rhs.imm));
    } else {
      e_.AluRegImm(alu, dst, static_cast<int32_t>(rhs.imm));
    }
  } else if (rhs.is_imm() && op == Op::kAnd && rhs.imm <= 0xFFFFFFFFu) {
    // A mask with a clear upper half: the 32-bit and zero-extends exactly.
    e_.AluRegImm(kAluAnd, dst, static_cast<int32_t>(rhs.imm), /*wide=*/false);
  } else {
    const int src = rhs.is_imm() ? kRax : rhs.reg;
    if (rhs.is_imm()) {
      e_.MovRegImm(kRax, rhs.imm);
    }
    if (op == Op::kMul) {
      e_.ImulRegReg(dst, src);
    } else {
      e_.AluRegReg(alu, dst, src);
    }
    Free(rhs);
  }
  return InReg(dst);
}

// divu/remu: a zero divisor faults in BOTH modes, as in the interpreter.
Value Translator::DivRem(bool rem, Value lhs, Value rhs) {
  if (rhs.is_imm() && rhs.imm == 0) {
    Retire();
    e_.JmpTo(Fault(JitFault::kDivideByZero));
    Free(lhs);
    return Imm(0);  // unreachable; keeps the translation state balanced
  }
  if (lhs.is_imm() && rhs.is_imm()) {
    return Imm(rem ? lhs.imm % rhs.imm : lhs.imm / rhs.imm);
  }
  int divisor = kRcx;
  if (rhs.is_imm()) {
    e_.MovRegImm(kRcx, rhs.imm);
  } else {
    Retire();
    e_.TestRegReg(rhs.reg);
    e_.JccTo(kCcE, Fault(JitFault::kDivideByZero));
    divisor = rhs.reg;
  }
  if (lhs.is_imm()) {
    e_.MovRegImm(kRax, lhs.imm);
  } else {
    e_.MovRegReg(kRax, lhs.reg);
  }
  e_.XorReg32(kRdx);
  e_.DivReg(divisor);
  const int dst = !lhs.is_imm() ? lhs.reg : rhs.reg;
  e_.MovRegReg(dst, rem ? kRdx : kRax);
  Free(lhs.reg == dst ? rhs : lhs);
  return InReg(dst);
}

// shl/shr: counts >= 64 produce 0 (x86 masks cl to 6 bits, so select).
Value Translator::Shift(bool right, Value lhs, Value rhs) {
  if (rhs.is_imm()) {
    if (rhs.imm >= 64) {
      Free(lhs);
      return Imm(0);
    }
    if (lhs.is_imm()) {
      return Imm(right ? lhs.imm >> rhs.imm : lhs.imm << rhs.imm);
    }
    if (rhs.imm != 0) {
      e_.ShiftImm(lhs.reg, right, static_cast<uint8_t>(rhs.imm));
    }
    return lhs;
  }
  const int dst = ToReg(lhs);
  e_.MovRegReg(kRcx, rhs.reg);
  e_.XorReg32(kRdx);
  e_.ShiftCl(dst, right);
  e_.AluRegImm(kAluCmp, rhs.reg, 64);
  e_.Cmovcc(kCcAE, dst, kRdx);
  Free(rhs);
  return InReg(dst);
}

// Sets the flags for lhs - rhs and returns `cc` rewritten for the operand
// order actually compared (an immediate always ends up on the right).
uint8_t Translator::Compare(uint8_t cc, Value& lhs, Value& rhs) {
  if (lhs.is_imm()) {
    std::swap(lhs, rhs);
    cc = SwapCc(cc);
  }
  if (!rhs.is_imm()) {
    e_.AluRegReg(kAluCmp, lhs.reg, rhs.reg);
  } else if (FitsImm32(rhs.imm)) {
    e_.AluRegImm(kAluCmp, lhs.reg, static_cast<int32_t>(rhs.imm));
  } else {
    e_.MovRegImm(kRax, rhs.imm);
    e_.AluRegReg(kAluCmp, lhs.reg, kRax);
  }
  return cc;
}

// Sandboxed guard for one access of `width` at `addr`. An access the
// verifier's static analyzer proved in bounds (kInsnProvenInBounds) for
// every window >= program.elide_floor — the entry stub rejects smaller
// windows before running — bumps ONLY ctx->static_proofs, which the host
// folds into bounds_checks at flush time. Any other access is charged to
// bounds_checks BEFORE its test (a faulting access still counts), and the
// test is the interpreter's overflow-proof `addr > mem_size || mem_size -
// addr < width`; for a constant address that cannot overflow it is the
// single `mem_size < addr + width`.
void Translator::Guard(const DecodedInsn& insn, size_t width, Value& addr, JitFault fault) {
  if (!sandboxed_) {
    return;
  }
  if ((insn.flags & kInsnProvenInBounds) != 0) {
    e_.IncMem(kRbx, kOffStaticProofs);
    return;
  }
  e_.IncMem(kRbx, kOffBoundsChecks);
  if (addr.is_imm() && addr.imm <= 0x7FFFFFF0u) {
    e_.AluMemImm(kAluCmp, kRbx, kOffMemSize, static_cast<int32_t>(addr.imm + width));
    e_.JccTo(kCcB, Fault(fault));
    return;
  }
  const int reg = ToReg(addr);
  e_.MovRegMem(kRcx, kRbx, kNoIndex, 0, kOffMemSize);
  e_.AluRegReg(kAluCmp, reg, kRcx);
  e_.JccTo(kCcA, Fault(fault));
  e_.AluRegReg(kAluSub, kRcx, reg);
  e_.AluRegImm(kAluCmp, kRcx, static_cast<int32_t>(width));
  e_.JccTo(kCcB, Fault(fault));
}

// loadN: a constant address below 2^31 is a displacement off r13; trusted
// code accesses raw, as certified native code would.
Value Translator::Load(const DecodedInsn& insn, size_t width, Value addr) {
  Guard(insn, width, addr, JitFault::kLoadOutOfBounds);
  if (addr.is_imm() && addr.imm <= 0x7FFFFFFFu) {
    const int dst = Alloc();
    e_.LoadWidth(dst, kR13, kNoIndex, static_cast<int32_t>(addr.imm), width);
    return InReg(dst);
  }
  const int reg = ToReg(addr);
  e_.LoadWidth(reg, kR13, reg, 0, width);
  return addr;
}

void Translator::Store(const DecodedInsn& insn, size_t width, Value addr, Value value) {
  Guard(insn, width, addr, JitFault::kStoreOutOfBounds);
  const int src = ToReg(value);
  if (addr.is_imm() && addr.imm <= 0x7FFFFFFFu) {
    e_.StoreWidth(kR13, kNoIndex, static_cast<int32_t>(addr.imm), src, width);
  } else {
    const int reg = ToReg(addr);
    e_.StoreWidth(kR13, reg, 0, src, width);
  }
  Free(addr);
  Free(value);
}

Status Translator::Translate(const DecodedInsn& insn, uint32_t index) {
  const uint8_t op = insn.op;

  // Fused superinstructions and synthetics first (they sit above kOpCount).
  // A fused op meters twice: a sandboxed fuel fault can land between halves.
  if (op >= kOpFusedPushLoad8 && op <= kOpFusedPushLoad64) {
    Meter(2);
    Push(Load(insn, size_t{1} << (op - kOpFusedPushLoad8), Imm(insn.imm)));
    return OkStatus();
  }
  if (op >= kOpFusedEqJz && op <= kOpFusedGtUJnz) {
    // cmp; jz/jnz — the branch condition with the comparison folded in.
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
    static constexpr Op kCmpOf[8] = {Op::kEq,  Op::kEq,  Op::kNe,  Op::kNe,
                                     Op::kLtU, Op::kLtU, Op::kGtU, Op::kGtU};
    const int fused = op - kOpFusedEqJz;
    Meter(2);
    Value rhs = Pop();
    Value lhs = Pop();
    Sync();
    if (lhs.is_imm() && rhs.is_imm()) {
      // Statically decided: the compare yields 1 exactly when jnz jumps.
      if ((Fold(kCmpOf[fused], lhs.imm, rhs.imm) != 0) == ((fused & 1) != 0)) {
        Jump(insn.target);
      }
      return OkStatus();
    }
    Branch(Compare(kCcOf[fused], lhs, rhs), insn.target);
    Free(lhs);
    Free(rhs);
    return OkStatus();
  }
  if (op == kOpCheckStack) {
    // Per-block stack envelope: both modes, unmetered, exactly like the
    // interpreter's synthetic. Degenerate halves (need or grow of 0) are
    // statically never-faulting, so no code is emitted for them.
    const uint32_t need = StackCheckNeed(insn.imm);
    const uint32_t grow = StackCheckGrow(insn.imm);
    if (need == 0 && grow == 0) {
      return OkStatus();
    }
    Sync();
    if (need > 0) {
      e_.AluRegImm(kAluCmp, kR12, static_cast<int32_t>(need));
      e_.JccTo(kCcB, Fault(JitFault::kStackUnderflow));
    }
    if (grow > 0) {
      const int64_t limit = static_cast<int64_t>(Vm::kStackSlots) - grow;
      if (limit < 0) {
        e_.JmpTo(Fault(JitFault::kStackOverflow));
      } else {
        e_.AluRegImm(kAluCmp, kR12, static_cast<int32_t>(limit));
        e_.JccTo(kCcA, Fault(JitFault::kStackOverflow));
      }
    }
    return OkStatus();
  }
  if (op == kOpEndOfCode) {
    Retire();
    e_.JmpTo(Fault(JitFault::kPcOutOfCode));
    Forget();
    return OkStatus();
  }

  switch (static_cast<Op>(op)) {
    case Op::kHalt:
      Meter(1);
      Retire();
      e_.JmpTo(stubs_.ret_zero);
      Forget();
      break;
    case Op::kPush:
      Meter(1);
      Push(Imm(insn.imm));
      break;
    case Op::kDrop:
      Meter(1);
      Drop();
      break;
    case Op::kDup: {
      Meter(1);
      if (depth_ == 0) {
        // The top stays in its slot, unchanged; only the copy is cached, so
        // the next flush does not store the original back.
        const int reg = Alloc();
        e_.MovRegMem(reg, kRbp, kR12, 8, SlotDisp(1));
        Push(InReg(reg));
        break;
      }
      Value top = Pop();
      Value copy = top;
      if (!top.is_imm()) {
        copy = InReg(Alloc());
        e_.MovRegReg(copy.reg, top.reg);
      }
      Push(top);
      Push(copy);
      break;
    }
    case Op::kSwap: {
      Meter(1);
      Value top = Pop();
      Value below = Pop();
      Push(top);
      Push(below);
      break;
    }

    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor: {
      Meter(1);
      Value rhs = Pop();
      Value lhs = Pop();
      Push(Binary(static_cast<Op>(op), lhs, rhs));
      break;
    }
    case Op::kDivU:
    case Op::kRemU: {
      Meter(1);
      Value rhs = Pop();
      Value lhs = Pop();
      Push(DivRem(static_cast<Op>(op) == Op::kRemU, lhs, rhs));
      break;
    }
    case Op::kShl:
    case Op::kShr: {
      Meter(1);
      Value rhs = Pop();
      Value lhs = Pop();
      Push(Shift(static_cast<Op>(op) == Op::kShr, lhs, rhs));
      break;
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLtU:
    case Op::kGtU: {
      const uint8_t cc = static_cast<Op>(op) == Op::kEq    ? kCcE
                         : static_cast<Op>(op) == Op::kNe  ? kCcNE
                         : static_cast<Op>(op) == Op::kLtU ? kCcB
                                                           : kCcA;
      Meter(1);
      Value rhs = Pop();
      Value lhs = Pop();
      if (lhs.is_imm() && rhs.is_imm()) {
        Push(Imm(Fold(static_cast<Op>(op), lhs.imm, rhs.imm)));
        break;
      }
      const uint8_t taken = Compare(cc, lhs, rhs);
      e_.SetccTo(taken, lhs.reg);
      Free(rhs);
      Push(lhs);
      break;
    }
    case Op::kNot: {
      Meter(1);
      Value v = Pop();
      if (v.is_imm()) {
        Push(Imm(v.imm == 0 ? 1 : 0));
        break;
      }
      e_.TestRegReg(v.reg);
      e_.SetccTo(kCcE, v.reg);
      Push(v);
      break;
    }

    case Op::kLoad8:
    case Op::kLoad16:
    case Op::kLoad32:
    case Op::kLoad64: {
      Meter(1);
      Value addr = Pop();
      Push(Load(insn, size_t{1} << (op - static_cast<uint8_t>(Op::kLoad8)), addr));
      break;
    }
    case Op::kStore8:
    case Op::kStore16:
    case Op::kStore32:
    case Op::kStore64: {
      Meter(1);
      Value value = Pop();
      Value addr = Pop();
      Store(insn, size_t{1} << (op - static_cast<uint8_t>(Op::kStore8)), addr, value);
      break;
    }

    case Op::kJmp:
      Meter(1);
      Sync();
      if (insn.target != index + 1) {  // a jump to the next slot falls through
        Jump(insn.target);
      }
      break;
    case Op::kJz:
    case Op::kJnz: {
      Meter(1);
      Value v = Pop();
      Sync();
      const bool jz = static_cast<Op>(op) == Op::kJz;
      if (v.is_imm()) {
        if ((v.imm == 0) == jz) {
          Jump(insn.target);
        }
        break;
      }
      e_.TestRegReg(v.reg);
      Branch(jz ? kCcE : kCcNE, insn.target);
      Free(v);
      break;
    }
    case Op::kCall:
      // Depth check (both modes), then push the NATIVE address of the next
      // decoded instruction and jump — kRet is an indirect jump, no
      // decoded-pc round trip.
      Meter(1);
      Sync();
      e_.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffCallSp);
      e_.AluRegImm(kAluCmp, kRax, static_cast<int32_t>(Vm::kCallDepth));
      e_.JccTo(kCcAE, Fault(JitFault::kCallDepth));
      e_.IncMem(kRbx, kOffCalls);
      fixups.push_back({e_.LeaRipPlaceholder(kRcx), index + 1});
      e_.MovMemReg(kRbx, kRax, 8, kOffCallStack, kRcx);
      e_.AluRegImm(kAluAdd, kRax, 1);
      e_.MovMemReg(kRbx, kNoIndex, 0, kOffCallSp, kRax);
      Jump(insn.target);
      break;
    case Op::kRet:
      Meter(1);
      Sync();
      e_.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffCallSp);
      e_.TestRegReg(kRax);
      e_.JccTo(kCcE, stubs_.ret_zero);  // outermost frame: ret == halt 0
      e_.AluRegImm(kAluSub, kRax, 1);
      e_.MovMemReg(kRbx, kNoIndex, 0, kOffCallSp, kRax);
      e_.MovRegMem(kRcx, kRbx, kRax, 8, kOffCallStack);
      e_.JmpReg(kRcx);
      break;
    case Op::kLdArg: {
      Meter(1);
      const int reg = Alloc();
      e_.MovRegMem(reg, kRbx, kNoIndex, 0, kOffArgs + insn.arg * 8);
      Push(InReg(reg));
      break;
    }
    case Op::kRetV: {
      Meter(1);
      Value v = Pop();
      Retire();
      if (v.is_imm() && FitsImm32(v.imm)) {
        e_.MovMemImm32(kRbx, kNoIndex, 0, kOffResult, static_cast<uint32_t>(v.imm));
      } else {
        e_.MovMemReg(kRbx, kNoIndex, 0, kOffResult, ToReg(v));
      }
      e_.XorReg32(kRax);
      e_.JmpTo(stubs_.exit_common);
      Forget();
      break;
    }
    case Op::kHostCall: {
      // ABI shim. The helper clobbers every cache register, so the stack is
      // flushed first; the VM state lives in callee-saved registers and
      // needs nothing. An unbound slot faults BEFORE host_calls is charged,
      // matching CallHostHelper's order.
      Meter(1);
      Value arg = Pop();
      Sync();
      const int32_t slot_disp = static_cast<int32_t>(insn.arg) * 8;
      e_.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffHelpers);
      e_.MovRegMem(kRax, kRax, kNoIndex, 0, slot_disp);
      e_.TestRegReg(kRax);
      e_.JccTo(kCcE, Fault(JitFault::kUnboundHostHelper));
      if (arg.is_imm()) {
        e_.MovRegImm(kRsi, arg.imm);
      } else if (arg.reg != kRsi) {
        e_.MovRegReg(kRsi, arg.reg);
      }
      Free(arg);
      e_.MovRegMem(kRdx, kRbx, kNoIndex, 0, kOffHelperCtx);
      e_.MovRegMem(kRdi, kRdx, kNoIndex, 0, slot_disp);
      e_.CallReg(kRax);
      e_.IncMem(kRbx, kOffHostCalls);
      const int reg = Alloc();
      e_.MovRegReg(reg, kRax);
      Push(InReg(reg));
      break;
    }
    case Op::kOpCount:
      return Status(ErrorCode::kInternal, "jit: bad decoded opcode");
  }
  return OkStatus();
}

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
  e.buf.reserve(program.code.size() * 24 + 512);
  std::vector<size_t> insn_off(program.code.size());

  // ---- shared stubs ----
  Stubs stubs{};
  // exit_common: every path leaves through here with the fault code in rax.
  // r15 (instructions retired) is flushed unconditionally — the interpreter's
  // CounterFlush destructor runs on faults too, and metering equivalence
  // depends on that.
  stubs.exit_common = e.pos();
  e.MovMemReg(kRbx, kNoIndex, 0, kOffInstructions, kR15);
  e.AluRegImm(kAluAdd, kRsp, 8);
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
  e.MovMemImm32(kRbx, kNoIndex, 0, kOffResult, 0);
  e.XorReg32(kRax);
  e.JmpTo(stubs.exit_common);
  for (int f = 1; f < kNumFaults; ++f) {
    stubs.fault[f] = e.pos();
    e.MovRegImm(kRax, static_cast<uint64_t>(f));
    e.JmpTo(stubs.exit_common);
  }

  // ---- leaders: where control can arrive other than by falling through ----
  std::vector<bool> leader(program.code.size(), false);
  for (uint32_t entry : program.entry_points) {
    leader[entry] = true;
  }
  for (size_t i = 0; i < program.code.size(); ++i) {
    if (HasTarget(program.code[i])) {
      leader[program.code[i].target] = true;
      if (program.code[i].op == static_cast<uint8_t>(Op::kCall)) {
        leader[i + 1] = true;  // the return slot
      }
    }
  }

  // ---- body: basic blocks with the stack top cached ----
  Translator t(e, stubs, sandboxed);
  for (size_t i = 0; i < program.code.size(); ++i) {
    if (leader[i]) {
      t.Sync();  // the fall-through path arrives like every jump: flushed
    }
    insn_off[i] = e.pos();
    PARA_RETURN_IF_ERROR(t.Translate(program.code[i], static_cast<uint32_t>(i)));
  }

  // ---- resolve decoded-stream jump targets ----
  for (const Fixup& fixup : t.fixups) {
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
    e.AluRegImm(kAluSub, kRsp, 8);
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
      // A cmp immediate is imm32-only, so the floor goes through rcx.
      e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffMemSize);
      e.MovRegImm(kRcx, program.elide_floor);
      e.AluRegReg(kAluCmp, kRax, kRcx);
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
    e.AluRegImm(kAluSub, kRsp, 8);  // entry stubs expect C++-caller alignment
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
    e.MovMemImm32(kRbx, kNoIndex, 0, kOffCallSp, 0);
    e.MovRegReg(kRdi, kRbx);
    e.CallTo(entry_offsets[m]);
    e.MovMemReg(kR13, kNoIndex, 0, 8, kRax);  // pair.fault (0 = clean)
    e.MovRegMem(kRax, kRbx, kNoIndex, 0, kOffResult);
    e.MovMemReg(kR13, kNoIndex, 0, 0, kRax);            // pair.result
    e.AluRegMem(0x03, kR15, kRbx, kOffInstructions);    // += this run's retire count
    e.AluRegMem(0x03, kRbp, kRbx, kOffBurstStride);     // next slot base
    e.AluRegMem(0x2B, kR12, kRbx, kOffBurstStride);     // window shrinks in step
    e.AluRegImm(kAluAdd, kR13, 16);
    e.AluRegImm(kAluSub, kR14, 1);
    e.JccTo(kCcNE, loop_top);
    e.PatchU32(skip, static_cast<uint32_t>(e.pos() - (skip + 4)));
    e.MovMemReg(kRbx, kNoIndex, 0, kOffInstructions, kR15);  // burst total
    e.AluRegImm(kAluAdd, kRsp, 8);
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
