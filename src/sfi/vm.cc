#include "src/sfi/vm.h"

#include <cstring>
#include <utility>

#include "src/base/log.h"
#include "src/base/telemetry.h"
#include "src/sfi/analysis.h"
#include "src/sfi/jit.h"

namespace para::sfi {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// The static analyzer works from mirrored copies of this engine's limits
// (analysis.h cannot include vm.h — the verifier sits below the VM in the
// layer DAG). An in-bounds or stack-envelope proof is only sound if the
// mirrors agree with the real constants, so pin them here.
static_assert(analysis::kStackSlots == Vm::kStackSlots,
              "analyzer stack-envelope proofs assume the VM stack size");
static_assert(analysis::UsableMemorySize(1) == 1 && analysis::UsableMemorySize(216) == 256 &&
                  analysis::UsableMemorySize(4096) == 4096 &&
                  analysis::UsableMemorySize(4097) == 8192,
              "analyzer bounds proofs assume the VM memory rounding");

// Codes and messages are byte-identical to RunImpl's: callers (and the
// differential tests) must not be able to tell the backends apart.
Status JitFaultToStatus(JitFault fault) {
  switch (fault) {
    case JitFault::kNone:
      break;  // callers handle the clean exit themselves
    case JitFault::kOutOfFuel:
      return Status(ErrorCode::kResourceExhausted, "out of fuel");
    case JitFault::kLoadOutOfBounds:
      return Status(ErrorCode::kOutOfRange, "load out of bounds");
    case JitFault::kStoreOutOfBounds:
      return Status(ErrorCode::kOutOfRange, "store out of bounds");
    case JitFault::kDivideByZero:
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    case JitFault::kStackUnderflow:
      return Status(ErrorCode::kFailedPrecondition, "stack underflow");
    case JitFault::kStackOverflow:
      return Status(ErrorCode::kResourceExhausted, "stack overflow");
    case JitFault::kCallDepth:
      return Status(ErrorCode::kResourceExhausted, "call depth exceeded");
    case JitFault::kUnboundHostHelper:
      return Status(ErrorCode::kFailedPrecondition, "unbound host helper");
    case JitFault::kPcOutOfCode:
      return Status(ErrorCode::kOutOfRange, "pc out of code");
    case JitFault::kElideFloorMiss:
      // Raised by the sandboxed entry stub when mem_size dropped below the
      // analyzer's elide_floor. Every caller intercepts it and re-runs on
      // the checked interpreter before mapping faults; reaching here is a
      // dispatcher bug, not a guest fault.
      return Status(ErrorCode::kInternal, "jit: elide floor miss escaped fallback");
  }
  return Status(ErrorCode::kInternal, "jit: bad fault code");
}

// Scope of one VM entry: counts it in sfi.vm.runs with one relaxed
// per-thread store. 1 run in 64 — the run counter is the sequence number —
// also gets an sfi.vm.run span whose args carry the serving backend, and an
// sfi.vm.run_ticks latency sample.
class RunSample {
 public:
  explicit RunSample(const Vm& vm) : vm_(vm) {
    if constexpr (telemetry::kEnabled) {
      if ((Telemetry().runs.IncAndCount() & 63) == 0) [[unlikely]] {
        telemetry::EmitTrace("sfi.vm.run", telemetry::TracePhase::kBegin,
                             static_cast<uint64_t>(vm.backend()));
        t0_ = telemetry::TraceClock();
      }
    }
  }
  ~RunSample() {
    if constexpr (telemetry::kEnabled) {
      if (t0_ != 0) [[unlikely]] {
        Telemetry().ticks.Record(telemetry::TraceClock() - t0_);
        telemetry::EmitTrace("sfi.vm.run", telemetry::TracePhase::kEnd,
                             static_cast<uint64_t>(vm_.backend()));
      }
    }
  }
  RunSample(const RunSample&) = delete;
  RunSample& operator=(const RunSample&) = delete;

  // Counts `runs` entries that take no sample: a CallMany trampoline's slots.
  static void Count(uint64_t runs) {
    if constexpr (telemetry::kEnabled) {
      Telemetry().runs.Add(runs);
    }
  }

 private:
  struct Metrics {
    telemetry::Counter runs = telemetry::Registry::Get().counter("sfi.vm.runs");
    telemetry::Histogram ticks = telemetry::Registry::Get().histogram("sfi.vm.run_ticks");
  };
  static Metrics& Telemetry() {
    static Metrics metrics;
    return metrics;
  }

  const Vm& vm_;
  uint64_t t0_ = 0;  // nonzero while sampled
};

// Zeroes the counters the generated code increments in place. Trusted code
// emits no checks, so it never touches bounds_checks or static_proofs.
void ResetJitCounters(JitContext& ctx, ExecMode mode) {
  if (mode == ExecMode::kSandboxed) {
    ctx.bounds_checks = 0;
    ctx.static_proofs = 0;
  }
  ctx.calls = 0;
  ctx.host_calls = 0;
}

// Folds one native entry's counter deltas — a single run, or a CallMany
// trampoline's `runs` slots — into `stats`: the JIT twin of RunImpl's
// CounterFlush. ctx.bounds_checks holds the dynamically tested accesses,
// ctx.static_proofs the proven ones; their sum is the coverage count
// VmStats::bounds_checks reports.
void FoldJitCounters(const JitContext& ctx, ExecMode mode, uint64_t runs, VmStats& stats) {
  stats.instructions += ctx.instructions;
  if (mode == ExecMode::kSandboxed) {
    stats.bounds_checks += ctx.bounds_checks + ctx.static_proofs;
    stats.static_proofs += ctx.static_proofs;
  }
  stats.calls += ctx.calls;
  stats.host_calls += ctx.host_calls;
  stats.jit_runs += runs;
}

}  // namespace

Vm::Vm(const VerifiedProgram* program, ExecMode mode, VmBackend backend)
    // Power-of-two size so trusted mode can mask addresses; +8 bytes of slack
    // so a masked address near the top can still take a full-width access
    // without a range branch on the hot path.
    : program_(program),
      mode_(mode),
      backend_(backend == VmBackend::kThreaded || !JitAvailable() ? VmBackend::kThreaded
                                                                  : VmBackend::kJit),
      memory_(RoundUpPow2(program->program.memory_bytes) + 8, 0) {
  PARA_CHECK(program != nullptr);
}

Vm::~Vm() = default;

void Vm::SetHostHelper(size_t index, HostHelper helper, void* ctx) {
  PARA_CHECK(index < kMaxHostHelpers);
  host_helpers_[index] = helper;
  host_ctx_[index] = ctx;
}

bool Vm::CallHostHelper(uint32_t slot, uint64_t* top) {
  // Both modes take the null-slot branch: helper behaviour must be mode-
  // invariant for certified code to match its sandboxed differential.
  HostHelper helper = host_helpers_[slot];
  if (helper == nullptr) {
    return false;
  }
  *top = helper(host_ctx_[slot], *top);
  return true;
}

bool Vm::UseJit() {
  if (backend_ == VmBackend::kJit && jit_ == nullptr) [[unlikely]] {
    auto compiled = GetOrCompileJit(*program_, mode_);
    if (compiled.ok()) {
      jit_ = std::move(compiled).value();
      jit_ctx_ = std::make_unique<JitContext>();
      // Invariant fields, written once. The helper table pointers target the
      // member arrays themselves, so SetHostHelper's in-place writes are
      // visible without re-publishing.
      jit_ctx_->helpers = host_helpers_;
      jit_ctx_->helper_ctx = host_ctx_;
    } else {
      // Fail open to the portable loop, but observably: backend() flips so
      // tests (and the filter's stats) can tell fallback from a JIT run.
      backend_ = VmBackend::kThreaded;
    }
  }
  return jit_ != nullptr;
}

Result<uint64_t> Vm::Enter(size_t method, size_t mem_off, uint64_t a0, uint64_t a1, uint64_t a2,
                           uint64_t a3) {
  if (method >= program_->entry_points.size()) {
    return Status(ErrorCode::kNotFound, "no such entry point");
  }
  PARA_CHECK(mem_off <= memory_.size());
  const bool jit = UseJit();
  RunSample sample(*this);
  // Compile-time specialization: the trusted loop contains no trace of the
  // run-time checks, exactly like certified native code.
  auto threaded = [&]() -> Result<uint64_t> {
    if (mode_ == ExecMode::kSandboxed) {
      return RunImpl<true>(method, a0, a1, a2, a3, mem_off);
    }
    return RunImpl<false>(method, a0, a1, a2, a3, mem_off);
  };
  if (!jit) {
    return threaded();
  }

  JitContext& ctx = *jit_ctx_;
  ctx.args[0] = a0;
  ctx.args[1] = a1;
  ctx.args[2] = a2;
  ctx.args[3] = a3;
  // Every run computes its own window: guest address 0 at memory_[mem_off],
  // with RunImpl's saturation — never let mem_size wrap (a wrapped size
  // would disable every sandbox bounds check).
  const size_t bytes = memory_.size();
  ctx.mem = memory_.data() + mem_off;
  ctx.mem_size = (bytes < 8 || bytes - 8 < mem_off) ? 0 : bytes - 8 - mem_off;
  // instructions and result need no reset: every exit path (fault stubs
  // included) funnels through the common epilogue, which overwrites
  // ctx.instructions from the retire counter, and ctx.result is written by
  // every clean exit and unread on faults. Trusted code never reads fuel.
  if (mode_ == ExecMode::kSandboxed) {
    ctx.fuel = fuel_;
  }
  ResetJitCounters(ctx, mode_);
  ctx.call_sp = 0;

  const JitFault fault = jit_->Run(method, &ctx);

  if (fault == JitFault::kElideFloorMiss) [[unlikely]] {
    // The sandboxed entry stub found mem_size below the analyzer's
    // elide_floor before executing anything (no counters moved, nothing
    // retired): this run cannot honour the proofs, so serve it with the
    // interpreter, whose per-run proof mask is then zero and checks every
    // access. Metering and stats are identical; only static_proofs stops
    // counting — and jit_runs, honestly, does not tick.
    return threaded();
  }
  // Counter deltas land in stats_ on every exit, fault or clean — the same
  // contract as the interpreter's CounterFlush destructor.
  FoldJitCounters(ctx, mode_, /*runs=*/1, stats_);
  if (fault == JitFault::kNone) {
    return ctx.result;
  }
  return JitFaultToStatus(fault);
}

Result<uint64_t> Vm::Run(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
  return Enter(method, /*mem_off=*/0, a0, a1, a2, a3);
}

Result<uint64_t> Vm::Burst::Call(size_t mem_off, uint64_t a0) {
  return vm_->Enter(method_, mem_off, a0, 0, 0, 0);
}

bool Vm::Burst::CallMany(size_t base_off, size_t stride, size_t count, uint64_t* out) {
  if (method_ >= vm_->program_->entry_points.size() || count == 0 || !vm_->UseJit()) {
    return false;
  }
  // The whole layout must sit under the bounds slack: every slot i then gets
  // the exact window Call(base_off + i*stride) would compute, and the
  // trampoline's monotonically shrinking size cursor can never wrap — which
  // is what keeps the sandboxed bounds checks sound across the burst.
  const size_t bytes = vm_->memory_.size();
  if (bytes < 8 || base_off > bytes - 8) {
    return false;
  }
  if (stride != 0 && count - 1 > (bytes - 8 - base_off) / stride) {
    return false;
  }
  // The analyzer's in-bounds proofs assume every window >= elide_floor, and
  // the trampoline (unlike the host dispatchers) has no per-slot checked
  // fallback — so if the burst's smallest window (the last slot's) dips
  // below the floor, decline the fast path and let the caller loop Call(),
  // which falls back per run.
  if (vm_->mode_ == ExecMode::kSandboxed && vm_->program_->elide_floor != 0 &&
      bytes - 8 - base_off - (count - 1) * stride < vm_->program_->elide_floor) {
    return false;
  }
  JitContext& ctx = *vm_->jit_ctx_;
  std::memset(ctx.args, 0, sizeof(ctx.args));
  ResetJitCounters(ctx, vm_->mode_);
  ctx.burst_mem = vm_->memory_.data() + base_off;
  ctx.burst_mem_size = bytes - 8 - base_off;
  ctx.burst_stride = stride;
  ctx.burst_count = count;
  ctx.burst_fuel = vm_->fuel_;
  ctx.burst_out = out;
  vm_->jit_->RunBurst(method_, &ctx);
  // The trampoline left the burst's total retire count in ctx.instructions,
  // and the in-place counters summed over every slot; jit_runs and
  // sfi.vm.runs count each slot, as a loop of Call() would.
  FoldJitCounters(ctx, vm_->mode_, /*runs=*/count, vm_->stats_);
  RunSample::Count(count);
  return true;
}

template <bool kSandboxed>
Result<uint64_t> Vm::RunImpl(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
                             size_t mem_off) {
  const DecodedInsn* const code = program_->code.data();
  constexpr bool sandboxed = kSandboxed;
  // Power of two with 8 bytes of slack beyond — but memory() is a mutable
  // accessor, so saturate rather than wrap if a caller shrank it below the
  // slack (a wrapped mem_size would disable every sandbox bounds check).
  // A burst re-bases guest address 0 to memory_[mem_off]; the usable size
  // shrinks by the same offset, saturating identically.
  const size_t mem_size =
      (memory_.size() < 8 || memory_.size() - 8 < mem_off) ? 0 : memory_.size() - 8 - mem_off;
  uint8_t* const mem = memory_.data() + (mem_off <= memory_.size() ? mem_off : 0);
  (void)mem_size;

  // One inequality per run decides whether the analyzer's in-bounds proofs
  // hold for THIS window: a shrunk memory() or a deep burst re-base can
  // drop mem_size below what the proofs assumed, in which case the mask is
  // zero and every kInsnProvenInBounds access takes its range test. Trusted
  // mode never checks bounds, so the flag is irrelevant there.
  const uint16_t proof_mask =
      mem_size >= program_->elide_floor ? kInsnProvenInBounds : uint16_t{0};
  (void)proof_mask;

  uint64_t stack[kStackSlots];
  size_t sp = 0;  // next free slot
  size_t call_stack[kCallDepth];
  size_t csp = 0;
  const uint64_t args[4] = {a0, a1, a2, a3};
  size_t pc = program_->entry_points[method];
  uint64_t fuel = fuel_;

  // Counters accumulate in locals and flush on scope exit so the hot loop
  // carries no extra stores.
  struct CounterFlush {
    uint64_t instructions = 0;
    uint64_t checks = 0;  // dynamically tested accesses only
    uint64_t proofs = 0;  // statically discharged accesses (proven in bounds)
    uint64_t calls = 0;
    uint64_t host_calls = 0;
    VmStats* stats;
    explicit CounterFlush(VmStats* s) : stats(s) {}
    ~CounterFlush() {
      stats->instructions += instructions;
      // bounds_checks is check *coverage*: dynamic tests plus statically
      // discharged accesses. Folding at flush time keeps proven accesses at
      // one counter bump each, same as checked ones.
      stats->bounds_checks += checks + proofs;
      stats->static_proofs += proofs;
      stats->calls += calls;
      stats->host_calls += host_calls;
    }
  } counters(&stats_);

  const DecodedInsn* insn;

// Per-instruction prologue for *real* instructions. Fuel is metered before
// the retire count, matching the byte-interpreter's order exactly, so
// VmStats.instructions and fuel exhaustion points are bit-identical to the
// pre-decoded engine's predecessor. Synthetic instructions (kCheckStack,
// kEndOfCode) are free: they exist only in the decoded stream.
#define VM_METER()                                                    \
  do {                                                                \
    if constexpr (sandboxed) {                                        \
      if (fuel-- == 0) {                                              \
        return Status(ErrorCode::kResourceExhausted, "out of fuel");  \
      }                                                               \
    }                                                                 \
    ++counters.instructions;                                          \
  } while (0)

  // Threaded-code dispatch through GNU labels-as-values, which every
  // supported toolchain (GCC 12+, Clang 16+) has. The table is indexed by
  // decoded opcode, so its order is the opcode order; VM_OP's second
  // argument names the opcode each label implements.
  static const void* const kLabels[kDecodedOpCount] = {
      &&lbl_halt,       &&lbl_push,       &&lbl_drop,       &&lbl_dup,        &&lbl_swap,
      &&lbl_add,        &&lbl_sub,        &&lbl_mul,        &&lbl_divu,       &&lbl_remu,
      &&lbl_and_,       &&lbl_or_,        &&lbl_xor_,       &&lbl_shl,        &&lbl_shr,
      &&lbl_eq,         &&lbl_ne,         &&lbl_ltu,        &&lbl_gtu,        &&lbl_not_,
      &&lbl_load8,      &&lbl_load16,     &&lbl_load32,     &&lbl_load64,     &&lbl_store8,
      &&lbl_store16,    &&lbl_store32,    &&lbl_store64,    &&lbl_jmp,        &&lbl_jz,
      &&lbl_jnz,        &&lbl_call,       &&lbl_ret,        &&lbl_ldarg,      &&lbl_retv,
      &&lbl_hostcall,   &&lbl_check,      &&lbl_end,        &&lbl_pushload8,  &&lbl_pushload16,
      &&lbl_pushload32, &&lbl_pushload64, &&lbl_eqjz,       &&lbl_eqjnz,      &&lbl_nejz,
      &&lbl_nejnz,      &&lbl_ltujz,      &&lbl_ltujnz,     &&lbl_gtujz,      &&lbl_gtujnz,
  };
#define VM_OP(name, value) lbl_##name:
#define VM_NEXT()                 \
  do {                            \
    insn = code + pc;             \
    goto* kLabels[insn->op];      \
  } while (0)

#define VM_BINOP(name, value, expr)  \
  VM_OP(name, value) {               \
    VM_METER();                      \
    uint64_t rhs = stack[--sp];      \
    uint64_t lhs = stack[sp - 1];    \
    stack[sp - 1] = (expr);          \
    ++pc;                            \
    VM_NEXT();                       \
  }

// Sandboxed access guard. An access the analyzer proved in bounds (its
// kInsnProvenInBounds flag survives this run's proof_mask) skips the range
// test but is still a guarded access: static_proofs records how it was
// discharged, and the flush folds it into bounds_checks, so counters match
// a run with analyze=false. Metering keeps its order (VM_METER's fuel fault
// precedes either counter). `fault` is the out-of-bounds message.
#define VM_GUARD(addr, width, fault)                                     \
  do {                                                                   \
    if constexpr (sandboxed) {                                           \
      if ((insn->flags & proof_mask) != 0) {                             \
        ++counters.proofs;                                               \
      } else {                                                           \
        ++counters.checks;                                               \
        /* overflow-proof: addr + width can wrap for addr near 2^64 */   \
        if ((addr) > mem_size || mem_size - (addr) < (width)) {          \
          return Status(ErrorCode::kOutOfRange, (fault));                \
        }                                                                \
      }                                                                  \
    }                                                                    \
  } while (0)

#define VM_LOAD(name, value, width)                                  \
  VM_OP(name, value) {                                               \
    VM_METER();                                                      \
    uint64_t addr = stack[sp - 1];                                   \
    VM_GUARD(addr, width, "load out of bounds");                     \
    /* trusted: raw access — certified code IS trusted with this memory */ \
    uint64_t loaded = 0;                                             \
    std::memcpy(&loaded, mem + addr, (width));                       \
    stack[sp - 1] = loaded;                                          \
    ++pc;                                                            \
    VM_NEXT();                                                       \
  }

// Superinstructions. Each one meters TWICE, in the same order the unfused
// pair would (fuel check precedes each retire), so instruction counts and
// fuel-exhaustion boundaries are bit-identical to the plain stream. The
// first half of every fused pair is pure stack traffic, so a fault on the
// second half leaves no externally visible partial effect.

// push imm; loadN — the address is an immediate, so no stack round trip.
#define VM_FUSED_PUSH_LOAD(name, value, width)                       \
  VM_OP(name, value) {                                               \
    VM_METER(); /* the push */                                       \
    VM_METER(); /* the load */                                       \
    uint64_t addr = insn->imm;                                       \
    VM_GUARD(addr, width, "load out of bounds");                     \
    uint64_t loaded = 0;                                             \
    std::memcpy(&loaded, mem + addr, (width));                       \
    stack[sp++] = loaded;                                            \
    ++pc;                                                            \
    VM_NEXT();                                                       \
  }

// cmp; jz/jnz — `taken` is the branch condition with the comparison folded
// in (e.g. eq+jz takes the branch when lhs != rhs).
#define VM_FUSED_CMP_JUMP(name, value, taken) \
  VM_OP(name, value) {                        \
    VM_METER(); /* the compare */             \
    VM_METER(); /* the branch */              \
    uint64_t rhs = stack[--sp];               \
    uint64_t lhs = stack[--sp];               \
    pc = (taken) ? insn->target : pc + 1;     \
    VM_NEXT();                                \
  }

#define VM_STORE(name, value, width)                                  \
  VM_OP(name, value) {                                                \
    VM_METER();                                                       \
    uint64_t stored = stack[--sp];                                    \
    uint64_t addr = stack[--sp];                                      \
    VM_GUARD(addr, width, "store out of bounds");                     \
    std::memcpy(mem + addr, &stored, (width));                        \
    ++pc;                                                             \
    VM_NEXT();                                                        \
  }

  VM_NEXT();

  VM_OP(halt, Op::kHalt) {
    VM_METER();
    return uint64_t{0};
  }
  VM_OP(push, Op::kPush) {
    VM_METER();
    stack[sp++] = insn->imm;
    ++pc;
    VM_NEXT();
  }
  VM_OP(drop, Op::kDrop) {
    VM_METER();
    --sp;
    ++pc;
    VM_NEXT();
  }
  VM_OP(dup, Op::kDup) {
    VM_METER();
    stack[sp] = stack[sp - 1];
    ++sp;
    ++pc;
    VM_NEXT();
  }
  VM_OP(swap, Op::kSwap) {
    VM_METER();
    std::swap(stack[sp - 1], stack[sp - 2]);
    ++pc;
    VM_NEXT();
  }

  VM_BINOP(add, Op::kAdd, lhs + rhs)
  VM_BINOP(sub, Op::kSub, lhs - rhs)
  VM_BINOP(mul, Op::kMul, lhs * rhs)
  VM_BINOP(and_, Op::kAnd, lhs & rhs)
  VM_BINOP(or_, Op::kOr, lhs | rhs)
  VM_BINOP(xor_, Op::kXor, lhs ^ rhs)
  VM_BINOP(shl, Op::kShl, rhs >= 64 ? 0 : lhs << rhs)
  VM_BINOP(shr, Op::kShr, rhs >= 64 ? 0 : lhs >> rhs)
  VM_BINOP(eq, Op::kEq, lhs == rhs ? 1 : 0)
  VM_BINOP(ne, Op::kNe, lhs != rhs ? 1 : 0)
  VM_BINOP(ltu, Op::kLtU, lhs < rhs ? 1 : 0)
  VM_BINOP(gtu, Op::kGtU, lhs > rhs ? 1 : 0)

  VM_OP(divu, Op::kDivU) {
    VM_METER();
    uint64_t rhs = stack[--sp];
    if (rhs == 0) {
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    }
    stack[sp - 1] /= rhs;
    ++pc;
    VM_NEXT();
  }
  VM_OP(remu, Op::kRemU) {
    VM_METER();
    uint64_t rhs = stack[--sp];
    if (rhs == 0) {
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    }
    stack[sp - 1] %= rhs;
    ++pc;
    VM_NEXT();
  }
  VM_OP(not_, Op::kNot) {
    VM_METER();
    stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
    ++pc;
    VM_NEXT();
  }

  VM_LOAD(load8, Op::kLoad8, 1)
  VM_LOAD(load16, Op::kLoad16, 2)
  VM_LOAD(load32, Op::kLoad32, 4)
  VM_LOAD(load64, Op::kLoad64, 8)
  VM_STORE(store8, Op::kStore8, 1)
  VM_STORE(store16, Op::kStore16, 2)
  VM_STORE(store32, Op::kStore32, 4)
  VM_STORE(store64, Op::kStore64, 8)

  VM_OP(jmp, Op::kJmp) {
    VM_METER();
    pc = insn->target;  // verified: always an instruction start, in bounds
    VM_NEXT();
  }
  VM_OP(jz, Op::kJz) {
    VM_METER();
    pc = (stack[--sp] == 0) ? insn->target : pc + 1;
    VM_NEXT();
  }
  VM_OP(jnz, Op::kJnz) {
    VM_METER();
    pc = (stack[--sp] != 0) ? insn->target : pc + 1;
    VM_NEXT();
  }
  VM_OP(call, Op::kCall) {
    VM_METER();
    if (csp >= kCallDepth) {
      return Status(ErrorCode::kResourceExhausted, "call depth exceeded");
    }
    ++counters.calls;
    call_stack[csp++] = pc + 1;  // fixed-width stream: return pc is one slot on
    pc = insn->target;
    VM_NEXT();
  }
  VM_OP(ret, Op::kRet) {
    VM_METER();
    if (csp == 0) {
      return uint64_t{0};  // return from outermost frame = halt
    }
    pc = call_stack[--csp];
    VM_NEXT();
  }
  VM_OP(ldarg, Op::kLdArg) {
    VM_METER();
    stack[sp++] = args[insn->arg];
    ++pc;
    VM_NEXT();
  }
  VM_OP(retv, Op::kRetV) {
    VM_METER();
    return stack[--sp];
  }
  VM_OP(hostcall, Op::kHostCall) {
    VM_METER();
    if (!CallHostHelper(insn->arg, &stack[sp - 1])) {
      return Status(ErrorCode::kFailedPrecondition, "unbound host helper");
    }
    ++counters.host_calls;
    ++pc;
    VM_NEXT();
  }

  // Synthetic: the per-block stack envelope the verifier hoisted out of the
  // block body. Runs in BOTH modes (it guards the host-side stack array),
  // but is not metered — instruction counts and fuel refer to the byte
  // program. One check here licenses every raw stack[sp] access until the
  // block's terminator.
  VM_OP(check, kOpCheckStack) {
    if (sp < StackCheckNeed(insn->imm)) {
      return Status(ErrorCode::kFailedPrecondition, "stack underflow");
    }
    if (sp + StackCheckGrow(insn->imm) > kStackSlots) {
      return Status(ErrorCode::kResourceExhausted, "stack overflow");
    }
    ++pc;
    VM_NEXT();
  }
  // Synthetic: execution fell off the end of the program.
  VM_OP(end, kOpEndOfCode) {
    return Status(ErrorCode::kOutOfRange, "pc out of code");
  }

  VM_FUSED_PUSH_LOAD(pushload8, kOpFusedPushLoad8, 1)
  VM_FUSED_PUSH_LOAD(pushload16, kOpFusedPushLoad16, 2)
  VM_FUSED_PUSH_LOAD(pushload32, kOpFusedPushLoad32, 4)
  VM_FUSED_PUSH_LOAD(pushload64, kOpFusedPushLoad64, 8)
  VM_FUSED_CMP_JUMP(eqjz, kOpFusedEqJz, lhs != rhs)
  VM_FUSED_CMP_JUMP(eqjnz, kOpFusedEqJnz, lhs == rhs)
  VM_FUSED_CMP_JUMP(nejz, kOpFusedNeJz, lhs == rhs)
  VM_FUSED_CMP_JUMP(nejnz, kOpFusedNeJnz, lhs != rhs)
  VM_FUSED_CMP_JUMP(ltujz, kOpFusedLtUJz, lhs >= rhs)
  VM_FUSED_CMP_JUMP(ltujnz, kOpFusedLtUJnz, lhs < rhs)
  VM_FUSED_CMP_JUMP(gtujz, kOpFusedGtUJz, lhs <= rhs)
  VM_FUSED_CMP_JUMP(gtujnz, kOpFusedGtUJnz, lhs > rhs)

#undef VM_METER
#undef VM_OP
#undef VM_NEXT
#undef VM_BINOP
#undef VM_GUARD
#undef VM_LOAD
#undef VM_STORE
#undef VM_FUSED_PUSH_LOAD
#undef VM_FUSED_CMP_JUMP
}

}  // namespace para::sfi
