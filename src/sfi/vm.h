// The SFI execution engine. Two execution modes (see isa.h):
//  * kSandboxed — per-access bounds checks + instruction metering: the
//    run-time cost the Exo-kernel/SPIN-style approach pays forever;
//  * kTrusted  — no checks: what load-time certification buys (§4).
//
// Since the threaded-engine refactor the VM executes a VerifiedProgram's
// pre-decoded instruction stream (verified_program.h) by computed-goto
// threaded dispatch — there is no bytecode decode, no pc bounds branch, and
// no per-push stack check on the hot path. A Vm cannot be constructed from a
// raw Program at all: the only way to execute is to verify first, which is
// the paper's load-time-verification contract made unskippable by the type
// system.
#ifndef PARAMECIUM_SRC_SFI_VM_H_
#define PARAMECIUM_SRC_SFI_VM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/verified_program.h"

namespace para::sfi {

enum class ExecMode : uint8_t { kSandboxed, kTrusted };

// Execution backend. kAuto resolves at Vm construction to the native JIT
// where this build/host supports it (and PARA_SFI_NO_JIT is unset), else to
// the portable threaded interpreter. The two are metering-equivalent —
// bit-identical fuel boundaries, VmStats, results, and faults — which the
// differential tests enforce, so the choice is pure performance.
enum class VmBackend : uint8_t { kAuto, kThreaded, kJit };

struct VmStats {
  uint64_t instructions = 0;  // real instructions retired (synthetics excluded)
  uint64_t bounds_checks = 0;
  uint64_t calls = 0;
  uint64_t host_calls = 0;  // kHostCall helper invocations
  uint64_t jit_runs = 0;    // runs (Run, Call, CallMany slots) served by native code
  // Of the bounds_checks above, how many were discharged by the verifier's
  // static analyzer (kInsnProvenInBounds) rather than a run-time range test.
  // Always <= bounds_checks; 0 when the program was verified with
  // analyze=false, when the mode is kTrusted, or when the run's memory
  // window fell below VerifiedProgram::elide_floor (checked fallback).
  uint64_t static_proofs = 0;
};

// One bound host helper: called with its registration context and the value
// kHostCall popped; the return value is pushed. Helpers run in BOTH execution
// modes — they are the program's only window on host state (a clock, a
// random source), so keeping them identical across modes is what lets a
// certified program behave bit-for-bit like its sandboxed self.
using HostHelper = uint64_t (*)(void* ctx, uint64_t arg);

class JitProgram;   // jit.h
struct JitContext;  // jit.h

class Vm {
 public:
  static constexpr size_t kStackSlots = 1024;
  static constexpr size_t kCallDepth = 256;
  static constexpr uint64_t kDefaultFuel = 100'000'000;

  // The program must outlive the Vm. Callers typically hold it through a
  // shared_ptr next to the Vm (the filter shares one per distinct program)
  // or by value.
  // `backend` resolves immediately: kAuto picks the JIT where available;
  // an explicit kJit on a host without one falls back to the threaded loop
  // (observable through backend(), never silent in the tests).
  Vm(const VerifiedProgram* program, ExecMode mode, VmBackend backend = VmBackend::kAuto);
  ~Vm();

  // Runs entry point `method` with up to four arguments. Returns the value
  // produced by retv/halt. Sandboxed mode pays every dynamic check (fuel
  // metering, memory bounds) and returns kOutOfRange / kResourceExhausted on
  // violations; stack discipline is enforced in both modes, but hoisted to
  // one envelope check per basic block (the verifier computed the
  // envelopes). Trusted mode otherwise runs with NO run-time checks at all:
  // out-of-bounds access by a trusted program is undefined behaviour,
  // exactly as it is for certified native code in the paper's model — which
  // is why only *verified and certified* programs may be instantiated
  // trusted (SfiComponent enforces the verifier; the loader enforces the
  // certificate).
  Result<uint64_t> Run(size_t method, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                       uint64_t a3 = 0);

  // A burst is a handle on one entry point of this Vm that runs it over
  // re-based windows: each Call() puts guest address 0 at byte offset
  // `mem_off` of this Vm's memory — sandboxed bounds shrink by the same
  // offset — which lets a caller marshal N packet descriptors side by side
  // and evaluate each without re-copying. Every Call() is a complete run
  // through the same entry as Run(): results, faults, fuel boundaries,
  // VmStats and telemetry are those of a Run() over that window, and the
  // handle keeps no state between calls, so Run() and Call() interleave
  // freely.
  class Burst {
   public:
    // Runs the burst's entry point with guest address 0 at memory()[mem_off]
    // and a single argument. mem_off must not exceed memory().size().
    Result<uint64_t> Call(size_t mem_off, uint64_t a0 = 0);

    // Evaluates `count` descriptor slots in ONE native entry: slot i behaves
    // exactly like Call(base_off + i*stride, /*a0=*/0) — same re-based
    // window, same per-slot fuel budget, same metering — but the loop runs
    // inside the program's generated burst trampoline, so the per-packet
    // host round trip disappears. out[2i] receives slot i's result and
    // out[2i+1] its fault word (0 = clean; nonzero values are
    // backend-internal codes, treat as a boolean). A faulting slot does not
    // stop the burst — later slots still evaluate, as they would in a loop
    // of Call(). Returns false without touching `out` when this burst
    // cannot take the fast path (threaded backend, unknown entry point,
    // count 0, or a layout whose last slot would cross the memory bounds
    // slack) — callers fall back to a loop of Call().
    bool CallMany(size_t base_off, size_t stride, size_t count, uint64_t* out);

   private:
    friend class Vm;
    Burst(Vm& vm, size_t method) : vm_(&vm), method_(method) {}

    Vm* vm_;
    size_t method_;
  };

  // The burst must not outlive the Vm.
  Burst BeginBurst(size_t method) { return Burst(*this, method); }

  std::vector<uint8_t>& memory() { return memory_; }
  const VmStats& stats() const { return stats_; }
  ExecMode mode() const { return mode_; }
  // The resolved backend actually serving Run(): kThreaded or kJit, never
  // kAuto. Downgrades to kThreaded permanently if JIT compilation fails.
  VmBackend backend() const { return backend_; }
  const VerifiedProgram& program() const { return *program_; }
  void set_fuel(uint64_t fuel) { fuel_ = fuel; }

  // Binds host helper `index` (< kMaxHostHelpers). A kHostCall to an unbound
  // slot faults in both modes (kFailedPrecondition) — the verifier proves the
  // index range, the binding is a run-time contract with the embedder.
  void SetHostHelper(size_t index, HostHelper helper, void* ctx);

 private:
  // The one way into the program, behind Run() and Burst::Call(), with guest
  // address 0 at memory_[mem_off]. Every entry is a complete run — JIT
  // resolve, context write, native code (or the threaded loop), counter
  // fold and telemetry — so nothing outlives it. Forced inline: its only
  // callers are in vm.cc, and collapsing Run → native entry into one frame
  // is part of the entry-cost budget the BM_SfiNullTrusted smoke gate
  // enforces.
  [[gnu::always_inline]] inline Result<uint64_t> Enter(size_t method, size_t mem_off,
                                                       uint64_t a0, uint64_t a1, uint64_t a2,
                                                       uint64_t a3);

  // True when native code serves this Vm. Compiles it (or fetches it
  // through the program's JitCacheSlot) and allocates the JitContext on
  // first use; a compile failure flips backend() to kThreaded for good.
  [[gnu::always_inline]] inline bool UseJit();

  // The dispatch loop, specialized per mode at compile time so trusted
  // execution carries no residue of the sandbox checks. Computed-goto
  // threaded code (GNU labels-as-values).
  // `mem_off` re-bases guest address 0 to memory_[mem_off] (burst descriptor
  // slots); sandboxed bounds shrink by the same offset, so the check
  // semantics are those of a memory that starts at the slot.
  template <bool kSandboxed>
  Result<uint64_t> RunImpl(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
                           size_t mem_off);

  // Out-of-line body of kHostCall (slot lookup, null check, indirect call).
  // Keeping the indirect call outside RunImpl keeps the threaded dispatch
  // loop compact — an inline call site there perturbs register allocation
  // and code layout for every op, not just hostcall. Returns false when the
  // slot is unbound (the caller faults, mode-invariantly).
  [[gnu::noinline]] bool CallHostHelper(uint32_t slot, uint64_t* top);

  const VerifiedProgram* program_;
  ExecMode mode_;
  VmBackend backend_;
  std::vector<uint8_t> memory_;
  uint64_t fuel_ = kDefaultFuel;
  VmStats stats_;
  HostHelper host_helpers_[kMaxHostHelpers] = {};
  void* host_ctx_[kMaxHostHelpers] = {};
  std::shared_ptr<const JitProgram> jit_;  // pinned compiled code (jit backend)
  std::unique_ptr<JitContext> jit_ctx_;    // reused across runs (~10 KiB)
};

}  // namespace para::sfi

#endif  // PARAMECIUM_SRC_SFI_VM_H_
