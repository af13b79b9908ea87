// Native x86-64 backend for VerifiedProgram execution. The verifier already
// resolved jumps to stream indices, materialized per-block stack envelopes,
// and fused the hot pairs — so translating the decoded stream to machine code
// is near-mechanical. What this layer guards jealously is *equivalence*: the
// emitted code performs the same checks in the same order as the threaded
// interpreter (vm.cc), so fuel boundaries, VmStats counters, and fail-closed
// faults are bit-identical between backends. kSandboxed inlines the
// overflow-proof load/store bounds checks, the per-block stack checks, and
// the in-order fuel decrements; kTrusted elides fuel and memory checks
// exactly as the threaded loop's template specialization does (stack
// envelopes, call depth, divide-by-zero, and host-helper binding stay, mode-
// invariantly). Certification discipline is inherited from the type system:
// a JitProgram can only be built from a VerifiedProgram, so nothing
// unverified is ever translated.
//
// W^X discipline: code is emitted into an anonymous PROT_READ|PROT_WRITE
// mapping and flipped to PROT_READ|PROT_EXEC before the first execution; the
// buffer is never writable and executable at the same time, and never
// becomes writable again.
#ifndef PARAMECIUM_SRC_SFI_JIT_H_
#define PARAMECIUM_SRC_SFI_JIT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/verified_program.h"
#include "src/sfi/vm.h"

namespace para::sfi {

// Everything one JIT'd run touches, gathered behind a single base pointer so
// the generated code addresses host state as [ctx + disp32]. Layout is part
// of the generated code's ABI: jit.cc bakes offsetof() values into the
// emitted instructions, so fields here may be appended but not reordered.
struct JitContext {
  uint64_t args[4];
  uint8_t* mem;            // VM data memory base
  uint64_t mem_size;       // usable bytes (power of two, slack excluded)
  uint64_t fuel;           // sandboxed budget for this run
  // Counter deltas for this run: the host adds them into VmStats afterwards
  // (instructions is written by the generated epilogue; the others are
  // incremented in place by the generated code).
  uint64_t instructions;
  uint64_t bounds_checks;
  uint64_t calls;
  uint64_t host_calls;
  // Host-helper tables (point at the owning Vm's arrays).
  const HostHelper* helpers;
  void* const* helper_ctx;
  uint64_t result;  // value produced by retv/halt
  uint64_t call_sp; // native-address call stack, bounded at Vm::kCallDepth
  const void* call_stack[Vm::kCallDepth];
  uint64_t stack[Vm::kStackSlots];  // operand stack
  // Batch-entry block (burst trampoline ABI; see JitProgram::RunBurst): the
  // host writes these once per burst, then the generated trampoline loops
  // the method over `burst_count` descriptor slots without returning to C++
  // between packets.
  uint8_t* burst_mem;       // slot 0 guest base
  uint64_t burst_mem_size;  // usable bytes at slot 0 (bounds slack excluded)
  uint64_t burst_stride;    // bytes from one slot base to the next
  uint64_t burst_count;     // slots to evaluate
  uint64_t burst_fuel;      // per-slot fuel budget (sandboxed runs re-arm it)
  uint64_t* burst_out;      // interleaved [result, fault] pairs, 2 per slot
  // Statically discharged subset of bounds_checks (kInsnProvenInBounds),
  // incremented in place by sandboxed generated code. Appended here —
  // layout is ABI, see above.
  uint64_t static_proofs;
};

// Fault codes the generated code returns (0 = clean return). The host maps
// them to the exact Status codes and messages the threaded loop produces.
enum class JitFault : uint64_t {
  kNone = 0,
  kOutOfFuel,
  kLoadOutOfBounds,
  kStoreOutOfBounds,
  kDivideByZero,
  kStackUnderflow,
  kStackOverflow,
  kCallDepth,
  kUnboundHostHelper,
  kPcOutOfCode,
  // Not a guest fault: the sandboxed entry stub raises it when ctx->mem_size
  // is below the program's elide_floor, before executing anything. The host
  // dispatchers intercept it and re-run on the checked interpreter (and
  // Vm::Burst::CallMany prechecks the layout so burst trampolines never see
  // it).
  kElideFloorMiss,
};

// An immutable compiled program: executable code in a W^X mmap buffer plus
// the per-entry-point native offsets. Compiled for exactly one ExecMode —
// sandboxed and trusted code differ instruction by instruction.
class JitProgram {
 public:
  ~JitProgram();
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  // Runs entry point `method` (caller guarantees it is in range) over `ctx`,
  // which the caller fully initialized. Returns the fault code; on kNone the
  // result value is in ctx->result. ctx->instructions is always written.
  // Inline: the body is one indirect call, and keeping it visible lets the
  // Vm's dispatch collapse to a single call frame (part of the amortized
  // entry-cost work — the smoke gate holds BM_SfiNullTrusted to this).
  JitFault Run(size_t method, JitContext* ctx) const {
    using Fn = uint64_t (*)(JitContext*);
    auto fn = reinterpret_cast<Fn>(static_cast<uint8_t*>(buffer_) + entry_offsets_[method]);
    return static_cast<JitFault>(fn(ctx));
  }

  // Enters `method`'s burst trampoline: evaluates ctx->burst_count slots as
  // the burst_* fields describe, leaving [result, fault] pairs in
  // ctx->burst_out and the burst's total retired-instruction count in
  // ctx->instructions. Per slot this is bit-identical to Run() over the
  // re-based window — Vm::Burst::CallMany is the only caller and owns the
  // layout preconditions (notably that every slot fits under the bounds
  // slack, so the trampoline's shrinking size cursor cannot wrap).
  void RunBurst(size_t method, JitContext* ctx) const {
    using Fn = uint64_t (*)(JitContext*);
    auto fn =
        reinterpret_cast<Fn>(static_cast<uint8_t*>(buffer_) + burst_entry_offsets_[method]);
    fn(ctx);
  }

  ExecMode mode() const { return mode_; }
  size_t code_bytes() const { return code_bytes_; }  // mapped executable bytes

 private:
  friend Result<std::unique_ptr<const JitProgram>> JitCompile(const VerifiedProgram& program,
                                                              ExecMode mode);
  JitProgram() = default;

  void* buffer_ = nullptr;   // mmap base, PROT_READ|PROT_EXEC once built
  size_t mapped_bytes_ = 0;  // mmap length (page-rounded)
  size_t code_bytes_ = 0;    // bytes actually emitted
  std::vector<uint32_t> entry_offsets_;        // per method slot, into buffer_
  std::vector<uint32_t> burst_entry_offsets_;  // per method slot: burst trampoline
  ExecMode mode_ = ExecMode::kSandboxed;
};

// Translates `program`'s decoded stream into native code for `mode`.
// Fails (kUnavailable) on non-x86-64 hosts or when the JIT is compiled
// out, and (kInternal) if the executable mapping cannot be created — the
// caller falls back to the threaded interpreter in both cases.
Result<std::unique_ptr<const JitProgram>> JitCompile(const VerifiedProgram& program,
                                                     ExecMode mode);

// True when this build and host can JIT at all (x86-64, mmap available, not
// compiled out) AND the PARA_SFI_NO_JIT environment variable is unset/empty.
// This is what VmBackend::kAuto consults; tests use it to decide whether a
// silent fallback to the threaded loop is a bug or the expected state.
bool JitAvailable();

// Compile-time/host capability alone, ignoring the environment override.
bool JitSupported();

// Per-VerifiedProgram cache of compiled code, one slot per ExecMode, shared
// by every Vm bound to the artifact: the filter's procedure instances of one
// program (one artifact per distinct program per load) compile it once per
// mode. In-flight VMs hold the JitProgram shared_ptr, so dropping the
// artifact never unmaps code under a running program.
struct JitCacheSlot {
  std::mutex mu;
  std::shared_ptr<const JitProgram> per_mode[2];  // [sandboxed, trusted]
};

// Returns the shared compiled form of `program` for `mode`, compiling on
// first use. When `program.jit_cache` is null (a hand-built VerifiedProgram
// that never went through Verify), compiles a private copy.
Result<std::shared_ptr<const JitProgram>> GetOrCompileJit(const VerifiedProgram& program,
                                                          ExecMode mode);

}  // namespace para::sfi

#endif  // PARAMECIUM_SRC_SFI_JIT_H_
