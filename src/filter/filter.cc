#include "src/filter/filter.h"

#include <sys/random.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "src/base/log.h"
#include "src/sfi/verifier.h"

namespace para::filter {

using net::FilterDecision;
using net::FilterDirection;
using net::FilterVerdict;

namespace {

// Shard count when FilterConfig::shards is 0: the PARA_FILTER_SHARDS
// environment variable (the CI sharded leg sets it), defaulting to 1.
// Malformed or out-of-range values fall back to 1 rather than failing the
// filter into existence.
size_t DefaultShardCount() {
  const char* env = std::getenv("PARA_FILTER_SHARDS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || v == 0 || v > kMaxFilterShards) {
    return 1;
  }
  return static_cast<size_t>(v);
}

// Seed spreader for per-shard RNG streams (splitmix64 finalizer).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The verdict every fail-closed path returns: a default-rule drop.
constexpr uint64_t kFailClosed = EncodeVerdict(FilterVerdict::kDrop, 0, net::kDefaultRuleIndex);

// Marshals `view` into descriptor slot `slot` of `vm`'s memory. False when
// the slot does not fit in the memory the VM really has: vm() is mutable, and
// a shrunk memory must fail closed, never be written past.
inline bool WriteSlot(sfi::Vm& vm, size_t slot, const net::PacketView& view,
                      size_t payload_bytes) {
  const std::span<uint8_t> memory(vm.memory());
  const size_t off = slot * kFilterBatchSlot;
  if (off >= memory.size()) {
    return false;
  }
  return WritePacketDescriptor(
      view, memory.subspan(off, std::min(kFilterBatchSlot, memory.size() - off)), payload_bytes);
}

// The filter never executes an unverified program: verification produces the
// executable artifact, so there is nothing else TO install.
Result<std::shared_ptr<const sfi::VerifiedProgram>> VerifyProgram(sfi::Program program) {
  PARA_ASSIGN_OR_RETURN(sfi::VerifiedProgram verified, sfi::Verify(std::move(program)));
  return std::shared_ptr<const sfi::VerifiedProgram>(
      std::make_shared<sfi::VerifiedProgram>(std::move(verified)));
}

}  // namespace

const obj::TypeInfo* FilterType() {
  static const obj::TypeInfo type("paramecium.net.filter", 1,
                                  {"stats", "rule_count", "mode", "flow_count"});
  return &type;
}

PacketFilter::PacketFilter(FilterConfig config) : config_(std::move(config)) {
  const size_t n = config_.shards;
  // Total capacity splits evenly; the ceiling keeps a 1-shard filter exactly
  // at the configured capacity and never rounds a shard down to zero, and is
  // taken without an addition that could wrap.
  const size_t per_shard_capacity =
      config_.flow_capacity / n + (config_.flow_capacity % n != 0 ? 1 : 0);
  // xorshift64* needs a non-zero state; fold a fixed odd constant in for
  // callers that zero the seed. Shard 0 keeps the exact legacy stream (the
  // single-shard differential tests depend on it); further shards derive
  // statistically independent streams from the same seed.
  const uint64_t base = config_.proc_seed != 0 ? config_.proc_seed : 0x2545F4914F6CDD1Dull;
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    uint64_t seed = s == 0 ? base : SplitMix64(base + 0x9E3779B97F4A7C15ull * s);
    if (seed == 0) {
      seed = 0x2545F4914F6CDD1Dull;
    }
    // Each table keys its index with its own secret from the kernel's
    // entropy pool, so flow keys chosen to collide in one table's index
    // need that table's secret.
    uint64_t secret = 0;
    PARA_CHECK(getrandom(&secret, sizeof(secret), 0) == static_cast<ssize_t>(sizeof(secret)));
    shards_.push_back(std::make_unique<Shard>(this, s, per_shard_capacity, seed, secret));
  }
}

uint64_t PacketFilter::NowHelper(void* ctx, uint64_t) {
  auto* shard = static_cast<Shard*>(ctx);
  PacketFilter* self = shard->owner;
  if (self->config_.clock != nullptr) {
    return self->config_.clock->now();
  }
  // No clock configured: fall back to the calling shard's own evaluation
  // counter — never another shard's, which that shard's worker may be
  // writing. Procedure instances are per shard, so each still sees a
  // monotonic, deterministic clock (a ratelimit procedure then only ever
  // grants its initial burst; real rates need a real clock).
  return shard->stats.evaluated;
}

uint64_t PacketFilter::RandomHelper(void* ctx, uint64_t modulus) {
  auto* shard = static_cast<Shard*>(ctx);
  uint64_t x = shard->rng_state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  shard->rng_state = x;
  uint64_t value = x * 0x2545F4914F6CDD1Dull;
  return modulus == 0 ? 0 : value % modulus;
}

Result<std::unique_ptr<PacketFilter>> PacketFilter::Create(FilterConfig config) {
  if (config.flow_capacity == 0) {
    return Status(ErrorCode::kInvalidArgument, "flow table needs capacity");
  }
  if (config.flow_capacity > kMaxFlowCapacity) {
    return Status(ErrorCode::kInvalidArgument, "flow capacity exceeds kMaxFlowCapacity");
  }
  if (config.shards == 0) {
    config.shards = DefaultShardCount();
  }
  if (config.shards > kMaxFilterShards) {
    return Status(ErrorCode::kInvalidArgument, "too many filter shards");
  }
  auto f = std::unique_ptr<PacketFilter>(new PacketFilter(std::move(config)));
  PARA_RETURN_IF_ERROR(f->Load(RuleSet{}));  // empty set, default pass
  f->shards_[0]->stats.reloads = 0;          // the bootstrap load is not a reload
  f->epoch_.store(0, std::memory_order_relaxed);
  f->LiveGen()->install_epoch = 0;

  obj::Interface iface(FilterType(), f.get());
  iface.SetSlot(0, obj::Thunk<PacketFilter, &PacketFilter::StatsSlot>());
  iface.SetSlot(1, obj::Thunk<PacketFilter, &PacketFilter::RuleCountSlot>());
  iface.SetSlot(2, obj::Thunk<PacketFilter, &PacketFilter::ModeSlot>());
  iface.SetSlot(3, obj::Thunk<PacketFilter, &PacketFilter::FlowCountSlot>());
  f->ExportInterface(FilterType()->name(), std::move(iface));
  f->RegisterMetrics();
  return f;
}

void PacketFilter::RegisterMetrics() {
  if constexpr (!telemetry::kEnabled) return;
  const std::string prefix = "filter." + config_.name + ".";
  // Every slot goes through StatsSlot, which merges shard counters at
  // snapshot time — the numbered control interface and the registry can
  // never disagree. (Raw-pointer aliases would register one per shard under
  // suffixed names; a closure merges instead.)
  for (size_t i = 0; i < std::size(kFilterStatsSlots); ++i) {
    metrics_.Fn(prefix + std::string(kFilterStatsSlots[i].name),
                [this, i] { return StatsSlot(i, 0, 0, 0); },
                i == 14 ? telemetry::MetricKind::kGauge : telemetry::MetricKind::kCounter);
  }
  struct FlowField {
    const char* name;
    uint64_t FlowTableStats::*field;
  };
  static constexpr FlowField kFlowFields[] = {
      {"flow.hits", &FlowTableStats::hits},
      {"flow.reverse_hits", &FlowTableStats::reverse_hits},
      {"flow.misses", &FlowTableStats::misses},
      {"flow.inserts", &FlowTableStats::inserts},
      {"flow.evictions", &FlowTableStats::evictions},
      {"flow.expirations", &FlowTableStats::expirations},
      {"flow.reorientations", &FlowTableStats::reorientations},
      {"flow.probes", &FlowTableStats::probes},
  };
  for (const FlowField& ff : kFlowFields) {
    metrics_.Fn(prefix + ff.name,
                [this, field = ff.field] {
                  uint64_t sum = 0;
                  for (const std::unique_ptr<Shard>& s : shards_) {
                    sum += s->flows.stats().*field;
                  }
                  return sum;
                },
                telemetry::MetricKind::kCounter);
  }
  metrics_.Fn(prefix + "flow.live", [this] { return flow_count(); },
              telemetry::MetricKind::kGauge);
  metrics_.Fn(prefix + "rules", [this] { return static_cast<uint64_t>(rule_count()); },
              telemetry::MetricKind::kGauge);
  metrics_.Fn(prefix + "shards", [this] { return static_cast<uint64_t>(shards_.size()); },
              telemetry::MetricKind::kGauge);
}

Result<std::vector<std::vector<PacketFilter::ProcChain>>> PacketFilter::InstantiateChains(
    const CompiledFilter& compiled, sfi::ExecMode mode, nucleus::Certifier* certifier,
    const nucleus::CertificationService* service) {
  const RuleProcRegistry& registry = config_.procs != nullptr ? *config_.procs : BuiltIns();
  const size_t nshards = shards_.size();
  std::vector<std::vector<ProcChain>> per_shard(nshards);
  for (std::vector<ProcChain>& chains : per_shard) {
    chains.reserve(compiled.chains.size());
  }
  // The verified (and, for kTrusted, certified) artifact of each distinct
  // procedure program in this load: spec name, code, entry points and
  // memory size, compared exactly.
  using ProgramKey =
      std::tuple<std::string, std::vector<uint8_t>, std::vector<uint32_t>, size_t>;
  std::map<ProgramKey, std::shared_ptr<const sfi::VerifiedProgram>> distinct;
  uint16_t ordinal = 0;
  for (const std::vector<RuleProcSpec>& specs : compiled.chains) {
    std::vector<ProcChain> chain(nshards);
    for (const RuleProcSpec& spec : specs) {
      if (ordinal >= 0x7FF) {
        // The event encoding carries the procedure id in 11 bits.
        return Status(ErrorCode::kResourceExhausted, "too many procedure instances");
      }
      // Verify/certify ONCE per distinct program: every instance of it, on
      // every shard, shares the artifact and differs only in VM state.
      // Ordinals are identical across shards, so event details agree
      // wherever the packet steered.
      PARA_ASSIGN_OR_RETURN(sfi::Program program, registry.Generate(spec));
      std::shared_ptr<const sfi::VerifiedProgram>& verified = distinct[{
          spec.name, program.code, program.entry_points, program.memory_bytes}];
      if (verified == nullptr) {
        PARA_ASSIGN_OR_RETURN(verified, VerifyProgram(std::move(program)));
        if (mode == sfi::ExecMode::kTrusted) {
          // Every procedure is certified in its own right — a chain is only
          // as trusted as its least-trusted link, so there is no blanket
          // grant. Name, version and code fix the certificate, so the one
          // issued here is the one each instance would have got.
          PARA_ASSIGN_OR_RETURN(
              nucleus::Certificate cert,
              certifier->Certify(config_.name + "/" + spec.name, epoch() + 1,
                                 verified->identity(), nucleus::kCertKernelEligible,
                                 /*now=*/epoch() + 1));
          PARA_RETURN_IF_ERROR(service->ValidateForKernel(cert, verified->identity()));
        }
      }
      ++ordinal;
      for (size_t s = 0; s < nshards; ++s) {
        auto inst = std::make_unique<ProcInstance>(spec, ordinal, verified, mode);
        // One fuel budget per invocation: Run() works on a copy, so setting
        // it once here bounds every packet's procedure run.
        inst->vm.set_fuel(config_.proc_fuel);
        inst->vm.SetHostHelper(kProcHelperNow, &PacketFilter::NowHelper, shards_[s].get());
        inst->vm.SetHostHelper(kProcHelperRandom, &PacketFilter::RandomHelper,
                               shards_[s].get());
        chain[s].push_back(std::move(inst));
      }
    }
    for (size_t s = 0; s < nshards; ++s) {
      per_shard[s].push_back(std::move(chain[s]));
    }
  }
  return per_shard;
}

Status PacketFilter::Install(const CompiledFilter& compiled,
                             std::shared_ptr<const sfi::VerifiedProgram> program,
                             std::vector<std::vector<ProcChain>> chains, sfi::ExecMode mode) {
  auto gen = std::make_unique<LoadedProgram>();
  gen->program = std::move(program);
  gen->rule_count = compiled.rule_count;
  gen->payload_bytes_needed = compiled.payload_bytes_needed;
  gen->backend = compiled.backend;
  gen->shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto exec = std::make_unique<ShardExec>(gen->program.get(), mode);
    exec->chains = std::move(chains[s]);
    // Provision the descriptor-slot region BEFORE publication: batch chunks
    // re-base guest address 0 onto slots [0, kMaxFilterBatch *
    // kFilterBatchSlot). The size keeps the VM's power-of-two-plus-slack
    // memory invariant.
    if (exec->vm.memory().size() < kMaxFilterBatch * kFilterBatchSlot + 8) {
      exec->vm.memory().resize(kMaxFilterBatch * kFilterBatchSlot + 8, 0);
    }
    gen->shards.push_back(std::move(exec));
  }

  std::lock_guard<std::mutex> lock(reload_mu_);
  const uint32_t next = epoch_.load(std::memory_order_relaxed) + 1;
  gen->install_epoch = next;
  LoadedProgram* raw = gen.get();
  LoadedProgram* old = live_.load(std::memory_order_relaxed);
  generations_.push_back(std::move(gen));
  // Publish generation then epoch, both seq_cst: a reader whose announced
  // epoch is >= `next` is guaranteed (by the seq_cst total order against its
  // announce-then-load sequence) to observe the NEW generation, which is
  // what makes the reclamation condition in ReclaimRetiredLocked sound.
  live_.store(raw, std::memory_order_seq_cst);
  epoch_.store(next, std::memory_order_seq_cst);
  ++shards_[0]->stats.reloads;
  if (old != nullptr) {
    old->retired_at = next;
    reclaim_pending_.store(true, std::memory_order_relaxed);
    ReclaimRetiredLocked();
  }
  return OkStatus();
}

Status PacketFilter::Load(const RuleSet& rules) {
  PARA_ASSIGN_OR_RETURN(CompiledFilter compiled, CompileRules(rules));
  PARA_ASSIGN_OR_RETURN(std::shared_ptr<const sfi::VerifiedProgram> verified,
                        VerifyProgram(compiled.program));
  PARA_ASSIGN_OR_RETURN(
      std::vector<std::vector<ProcChain>> chains,
      InstantiateChains(compiled, sfi::ExecMode::kSandboxed, nullptr, nullptr));
  return Install(compiled, std::move(verified), std::move(chains), sfi::ExecMode::kSandboxed);
}

Status PacketFilter::LoadCertified(const RuleSet& rules, nucleus::Certifier& certifier,
                                   const nucleus::CertificationService& service) {
  PARA_ASSIGN_OR_RETURN(CompiledFilter compiled, CompileRules(rules));
  // Verify before certification: the certifier signs only structurally sane
  // programs, and nothing unverified is ever installed. The certificate
  // binds the byte-exact identity; the decoded stream is derived state.
  PARA_ASSIGN_OR_RETURN(std::shared_ptr<const sfi::VerifiedProgram> verified,
                        VerifyProgram(compiled.program));
  PARA_ASSIGN_OR_RETURN(
      nucleus::Certificate cert,
      certifier.Certify(config_.name, epoch() + 1, verified->identity(),
                        nucleus::kCertKernelEligible, /*now=*/epoch() + 1));
  // Load-time validation by the kernel: digest binding, delegation chain,
  // kernel-eligibility. Only a validated program may run without checks.
  PARA_RETURN_IF_ERROR(service.ValidateForKernel(cert, verified->identity()));
  PARA_ASSIGN_OR_RETURN(
      std::vector<std::vector<ProcChain>> chains,
      InstantiateChains(compiled, sfi::ExecMode::kTrusted, &certifier, &service));
  return Install(compiled, std::move(verified), std::move(chains), sfi::ExecMode::kTrusted);
}

// --- Epoch-based reclamation -----------------------------------------------

void PacketFilter::AnnounceShard(Shard& shard) {
  if (shards_.size() == 1) {
    // Single shard: no concurrent reader/reload contract (same as the
    // pre-sharding filter), so no fences on the packet path.
    shard.pinned.store(epoch_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return;
  }
  shard.pinned.store(epoch_.load(std::memory_order_seq_cst), std::memory_order_seq_cst);
}

PacketFilter::LoadedProgram* PacketFilter::LoadLivePinned() {
  if (shards_.size() == 1) {
    return live_.load(std::memory_order_relaxed);
  }
  // seq_cst: ordered after this shard's announce store. If a concurrent
  // reload's epoch store preceded our epoch read, its generation store did
  // too (writer order); if not, our announce precedes the writer's scan and
  // the old generation stays alive until we unpin.
  return live_.load(std::memory_order_seq_cst);
}

void PacketFilter::UnpinShard(Shard& shard) {
  shard.pinned.store(kShardIdle, std::memory_order_release);
  if (reclaim_pending_.load(std::memory_order_relaxed)) {
    ReclaimRetired();
  }
}

void PacketFilter::ReclaimRetired() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  ReclaimRetiredLocked();
}

void PacketFilter::ReclaimRetiredLocked() {
  // A retired generation is reclaimable once every shard's announced epoch
  // is >= the epoch that retired it: such a reader provably obtained a newer
  // generation, and kShardIdle (max) means the shard is at a quiescent
  // point and constrains nothing.
  uint64_t min_pinned = kShardIdle;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    min_pinned = std::min(min_pinned, shard->pinned.load(std::memory_order_seq_cst));
  }
  std::erase_if(generations_, [min_pinned](const std::unique_ptr<LoadedProgram>& gen) {
    return gen->retired_at != 0 && min_pinned >= gen->retired_at;
  });
  bool pending = false;
  for (const std::unique_ptr<LoadedProgram>& gen : generations_) {
    pending |= gen->retired_at != 0;
  }
  reclaim_pending_.store(pending, std::memory_order_relaxed);
}

size_t PacketFilter::retired_generations() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  size_t count = 0;
  for (const std::unique_ptr<LoadedProgram>& gen : generations_) {
    count += gen->retired_at != 0 ? 1 : 0;
  }
  return count;
}

// --- Evaluation -------------------------------------------------------------

void PacketFilter::RaiseEvent(Shard& shard, uint64_t detail) {
  if (config_.events != nullptr &&
      config_.events->registration_count(nucleus::kTrapFilterVerdict) > 0) {
    ++shard.stats.events_raised;
    config_.events->RaiseTrap(nucleus::kTrapFilterVerdict, detail);
  }
}

void PacketFilter::NotifyVerdict(Shard& shard, const FilterDecision& decision,
                                 FilterDirection dir) {
  RaiseEvent(shard, EncodeFilterEvent(decision.verdict, dir, /*proc=*/0, decision.rule));
}

uint64_t PacketFilter::RunClassifier(Shard& shard, Chunk& chunk, size_t slot,
                                     const net::PacketView& view) {
  if (chunk.verdicts != nullptr) {
    // The stateless pre-pass already classified this slot.
    if (chunk.verdicts[2 * slot + 1] != 0) [[unlikely]] {
      ++shard.stats.vm_faults;
      return kFailClosed;
    }
    return chunk.verdicts[2 * slot];
  }
  LoadedProgram& gen = chunk.gen;
  ShardExec& exec = *gen.shards[shard.index];
  // On sampled packets the pipeline stages mark their completion in the
  // trace ring, inside the enclosing "filter.classify" span.
  const bool traced = telemetry::kEnabled && shard.trace_sample_active;
  if (!WriteSlot(exec.vm, slot, view, gen.payload_bytes_needed)) {
    // Running anyway would classify whatever descriptor is still in the
    // slot — an earlier packet's. Fail closed instead.
    ++shard.stats.descriptor_faults;
    return kFailClosed;
  }
  if (traced) [[unlikely]] {
    PARA_TRACE_INSTANT("filter.descriptor_marshal", gen.payload_bytes_needed);
  }
  Result<uint64_t> run = exec.vm.BeginBurst(0).Call(slot * kFilterBatchSlot);
  if (traced) [[unlikely]] {
    PARA_TRACE_INSTANT("filter.tree_dispatch", run.ok() ? *run : ~uint64_t{0});
  }
  if (!run.ok()) {
    // A compiled program cannot fault, but an SFI violation in a sandboxed
    // one must fail closed: the packet is dropped, not let through.
    ++shard.stats.vm_faults;
    return kFailClosed;
  }
  return *run;
}

void PacketFilter::RecordClassifyLatency(net::FilterVerdict verdict, uint64_t ticks) {
  if constexpr (telemetry::kEnabled) {
    // Global (not per-instance) names: owned histograms are never reclaimed,
    // so per-filter names would exhaust the fixed histogram capacity in
    // long test runs. Per-instance telemetry stays in the aliases.
    static struct {
      telemetry::Histogram pass =
          telemetry::Registry::Get().histogram("filter.engine.classify_ticks.pass");
      telemetry::Histogram drop =
          telemetry::Registry::Get().histogram("filter.engine.classify_ticks.drop");
      telemetry::Histogram reject =
          telemetry::Registry::Get().histogram("filter.engine.classify_ticks.reject");
    } telem;
    switch (verdict) {
      case FilterVerdict::kPass: telem.pass.Record(ticks); break;
      case FilterVerdict::kDrop: telem.drop.Record(ticks); break;
      case FilterVerdict::kReject: telem.reject.Record(ticks); break;
    }
    telemetry::EmitTrace("filter.classify", telemetry::TracePhase::kEnd,
                         static_cast<uint64_t>(verdict));
  } else {
    (void)verdict, (void)ticks;
  }
}

void PacketFilter::CountVerdict(Shard& shard, const FilterDecision& decision,
                                FilterDirection dir) {
  switch (decision.verdict) {
    case FilterVerdict::kPass:
      ++shard.stats.pass;
      break;
    case FilterVerdict::kDrop:
      ++shard.stats.drop;
      break;
    case FilterVerdict::kReject:
      ++shard.stats.reject;
      NotifyVerdict(shard, decision, dir);
      break;
  }
}

void PacketFilter::RunChain(Shard& shard, LoadedProgram& gen, FilterDecision* decision,
                            const net::PacketView& view, FilterDirection dir) {
  ShardExec& exec = *gen.shards[shard.index];
  if (decision->chain == 0 || decision->chain > exec.chains.size()) {
    return;
  }
  if (telemetry::kEnabled && shard.trace_sample_active) [[unlikely]] {
    PARA_TRACE_INSTANT("filter.proc_chain", decision->chain);
  }
  for (const std::unique_ptr<ProcInstance>& proc : exec.chains[decision->chain - 1]) {
    // Re-marshal the descriptor each run (header fields only — procedures do
    // not see payload). Everything past kProcStateBase is the procedure's
    // persistent state and survives untouched.
    if (!WritePacketDescriptor(view, proc->vm.memory(), /*payload_bytes=*/0)) {
      ++shard.stats.proc_faults;
      ++proc->faults;
      decision->verdict = FilterVerdict::kDrop;
      return;
    }
    Result<uint64_t> run = proc->vm.Run(0, static_cast<uint64_t>(dir));
    if (!run.ok()) {
      // SFI violation or fuel exhaustion mid-chain: the packet is dropped,
      // the filter (and the rest of the rule set) lives on.
      ++shard.stats.proc_faults;
      ++proc->faults;
      decision->verdict = FilterVerdict::kDrop;
      return;
    }
    ++shard.stats.proc_invocations;
    ++proc->invocations;
    const uint64_t result = *run;
    if (result & kProcResultBlock) {
      ++shard.stats.proc_blocks;
      ++proc->blocks;
      if (VerdictPasses(decision->verdict)) {
        decision->verdict = FilterVerdict::kDrop;
      }
    }
    if (uint8_t ttl = ProcResultTtl(result); ttl != 0) {
      decision->ttl = ttl;
    }
    if (result & kProcResultEvent) {
      RaiseEvent(shard, EncodeFilterEvent(decision->verdict, dir, proc->ordinal, decision->rule));
    }
    if (result & kProcResultBlock) {
      return;  // a blocked packet sees no further procedures
    }
  }
}

FilterDecision PacketFilter::EvaluateOn(Shard& shard, Chunk& chunk, size_t slot,
                                        const net::PacketView& view, FilterDirection dir) {
  LoadedProgram& gen = chunk.gen;
  ++shard.stats.evaluated;

  FlowKey key{view.src_ip, view.dst_ip, view.src_port, view.dst_port, view.proto};
  if (config_.track_flows) {
    FlowTable::Direction flow_dir;
    if (FlowEntry* flow = shard.flows.Find(key, &flow_dir)) {
      // Entries compare against the PINNED generation's epoch, not the
      // global counter: mid-burst, a concurrent reload must not flip a
      // packet's verdict source halfway through.
      if (flow->epoch == gen.install_epoch || config_.flow_keepalive_across_reloads) {
        if (flow_dir == FlowTable::Direction::kForward) {
          ++flow->packets;
          flow->bytes += view.payload.size();
        } else {
          // Reply traffic: shares the established entry, counted per direction.
          ++flow->reverse_packets;
          flow->reverse_bytes += view.payload.size();
          ++shard.stats.flow_hits_reverse;
        }
        ++shard.stats.flow_hits;
        const uint64_t cached = flow->verdict;
        if (((cached >> 4) & 0xFFF) == 0) {
          // Chain-less fast path: only passing dispatch verdicts establish
          // flows, so the cached verdict is a plain pass — count it and go.
          // (Decoding into a fresh rvalue keeps the return value in
          // registers; the chain path below takes the decision's address.)
          ++shard.stats.pass;
          return DecodeVerdict(cached);
        }
        // Established flows still pay their rule's procedures: a rate
        // limiter keeps limiting, a logger keeps sampling. A block drops
        // this packet, not the flow.
        FilterDecision decision = DecodeVerdict(cached);
        RunChain(shard, gen, &decision, view, dir);
        CountVerdict(shard, decision, dir);
        return decision;
      }
      // The flow was admitted by a rule set that is no longer installed: its
      // cached verdict (and the rule index count events would report) belong
      // to a dead generation. Fail closed — drop the stale entry and
      // re-decide against the installed rules; a passing verdict
      // re-establishes.
      ++shard.stats.flow_reevaluations;
      FlowKey forward = flow->key;
      shard.flows.Erase(forward);
      if (flow_dir == FlowTable::Direction::kReverse) {
        // The rules describe the forward direction — that is what admitted
        // the flow, and what would re-admit it (the reply tuple never
        // matched them; judging it would wedge every server-speaks-next
        // conversation on any reload). Re-decide on a synthetic
        // forward-orientation view. It carries no payload, so rules with
        // payload predicates fail closed here.
        net::PacketView fwd;
        fwd.src_ip = forward.src_ip;
        fwd.dst_ip = forward.dst_ip;
        fwd.src_port = forward.src_port;
        fwd.dst_port = forward.dst_port;
        fwd.proto = forward.proto;
        uint64_t encoded = RunClassifier(shard, chunk, slot, fwd);
        FilterDecision decision = DecodeVerdict(encoded);
        // The dispatch verdict re-admits (or not) on the synthetic forward
        // view; the procedures judge the packet actually in hand.
        const bool admitted = VerdictPasses(decision.verdict);
        RunChain(shard, gen, &decision, view, dir);
        CountVerdict(shard, decision, dir);
        if (admitted) {
          // Re-established in its original orientation; this packet is its
          // first reply-direction traffic.
          FlowEntry* fresh = shard.flows.Insert(forward, encoded, gen.install_epoch);
          fresh->reverse_packets = 1;
          fresh->reverse_bytes = view.payload.size();
        }
        return decision;
      }
      // Forward-direction packet: it is its own re-admission case — fall
      // through to the ordinary classifier path.
    }
  }

  // Classifier path: sampled 1-in-32 for per-verdict latency histograms and
  // a "filter.classify" trace span (the stages inside mark themselves when
  // the sample is active). The flow-hit paths above stay uninstrumented —
  // their telemetry is all snapshot-time aliases. Sampling state is per
  // shard, and the stats the differential test compares never see it.
  uint64_t classify_t0 = 0;
  if constexpr (telemetry::kEnabled) {
    shard.trace_sample_active = (++shard.telemetry_sample & 31) == 0;
    if (shard.trace_sample_active) [[unlikely]] {
      telemetry::EmitTrace("filter.classify", telemetry::TracePhase::kBegin, 0);
      classify_t0 = telemetry::TraceClock();
    }
  }
  uint64_t encoded = RunClassifier(shard, chunk, slot, view);
  FilterDecision decision = DecodeVerdict(encoded);
  const bool admitted = VerdictPasses(decision.verdict);
  if (decision.chain != 0) {  // chain-less verdicts skip the call entirely
    RunChain(shard, gen, &decision, view, dir);
  }
  CountVerdict(shard, decision, dir);
  if constexpr (telemetry::kEnabled) {
    if (shard.trace_sample_active) [[unlikely]] {
      RecordClassifyLatency(decision.verdict, telemetry::TraceClock() - classify_t0);
      shard.trace_sample_active = false;
    }
  }

  // Only passing *dispatch* verdicts establish a flow: drops and rejects
  // re-evaluate every time, so tightening the rules takes effect for them
  // immediately. A procedure block drops this packet but still establishes —
  // the cached word carries the chain id, and every hit re-runs the chain.
  if (config_.track_flows && admitted) {
    FlowEntry* flow = shard.flows.Insert(key, encoded, gen.install_epoch);
    flow->packets = 1;
    flow->bytes = view.payload.size();
  }
  return decision;
}

FilterDecision PacketFilter::Evaluate(const net::PacketView& view, FilterDirection dir) {
  FilterDecision decision;
  EvaluateChunk(std::span<const net::PacketView>(&view, 1), dir, &decision);
  return decision;
}

void PacketFilter::EvaluateChunk(std::span<const net::PacketView> views, FilterDirection dir,
                                 FilterDecision* out) {
  const size_t n = views.size();
  uint8_t shard_of[kMaxFilterBatch];
  uint64_t touched = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t s = SteerShard(views[i]);
    shard_of[i] = static_cast<uint8_t>(s);
    touched |= uint64_t{1} << s;
  }
  // Visits every touched shard. Single-shard chunks — every chunk of one,
  // every steered per-RX-queue burst — skip the bit walk.
  auto for_each_touched = [&](auto&& fn) {
    if (touched == uint64_t{1} << shard_of[0]) {
      fn(*shards_[shard_of[0]]);
      return;
    }
    for (uint64_t bits = touched; bits != 0; bits &= bits - 1) {
      fn(*shards_[static_cast<size_t>(std::countr_zero(bits))]);
    }
  };
  // Pin every touched shard, then resolve the generation ONCE: the whole
  // chunk evaluates against one rule-set generation, and a concurrent
  // reload cannot reclaim it until every one of these shards unpins.
  for_each_touched([this](Shard& shard) { AnnounceShard(shard); });
  Chunk chunk{*LoadLivePinned()};

  // Stateless single-shard chunks on the JIT (the steered per-RX-queue shape
  // with flow tracking off) send every packet to the classifier, so the
  // VM's burst trampoline can classify all slots in ONE native entry up
  // front; the loop below then reads the verdicts instead of entering the
  // VM per packet. Flow tracking keeps classification lazy — a flow hit
  // never runs the VM, and an insert from packet i can turn packet j>i into
  // a hit — and a chunk of one has no entry cost to amortize. Classify order
  // and per-slot metering are CallMany's contract, so stats stay
  // differential-identical. If a slot does not fit or CallMany declines,
  // the loop classifies per packet as usual.
  uint64_t pairs[2 * kMaxFilterBatch];
  if (!config_.track_flows && n > 1 && (touched & (touched - 1)) == 0) {
    ShardExec& exec = *chunk.gen.shards[shard_of[0]];
    bool marshalled = exec.vm.backend() == sfi::VmBackend::kJit;
    for (size_t i = 0; marshalled && i < n; ++i) {
      marshalled = WriteSlot(exec.vm, i, views[i], chunk.gen.payload_bytes_needed);
    }
    if (marshalled && exec.vm.BeginBurst(0).CallMany(0, kFilterBatchSlot, n, pairs)) {
      chunk.verdicts = pairs;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    // One 8-byte store: a chunk of one's decision then stays one register
    // (or one spill) across the unpin below, instead of four fields whose
    // narrow spills the wide reload at return cannot forward from.
    const uint64_t word =
        std::bit_cast<uint64_t>(EvaluateOn(*shards_[shard_of[i]], chunk, i, views[i], dir));
    out[i] = std::bit_cast<FilterDecision>(word);
  }
  for_each_touched([this](Shard& shard) { UnpinShard(shard); });
}

void PacketFilter::EvaluateBatch(std::span<const net::PacketView> views, FilterDirection dir,
                                 std::span<FilterDecision> decisions) {
  PARA_CHECK(decisions.size() >= views.size());
  size_t off = 0;
  while (off < views.size()) {
    const size_t n = std::min(views.size() - off, kMaxFilterBatch);
    EvaluateChunk(views.subspan(off, n), dir, decisions.data() + off);
    off += n;
  }
}

net::FilterHook PacketFilter::Hook() {
  return [this](const net::PacketView& view, FilterDirection dir) {
    return Evaluate(view, dir);
  };
}

net::FilterBatchHook PacketFilter::BatchHook() {
  return [this](std::span<const net::PacketView> views, FilterDirection dir,
                std::span<FilterDecision> decisions) { EvaluateBatch(views, dir, decisions); };
}

// --- Merged views -----------------------------------------------------------

FilterStats PacketFilter::MergedStats() const {
  FilterStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const FilterStatsSlot& slot : kFilterStatsSlots) {
      if (slot.field != nullptr) {
        total.*slot.field += shard->stats.*slot.field;
      }
    }
  }
  return total;
}

FilterStats PacketFilter::stats() const { return MergedStats(); }

sfi::ExecMode PacketFilter::mode() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return LiveGen()->shards[0]->vm.mode();
}

size_t PacketFilter::rule_count() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return LiveGen()->rule_count;
}

CompileBackend PacketFilter::backend() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return LiveGen()->backend;
}

sfi::VmBackend PacketFilter::exec_backend() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return LiveGen()->shards[0]->vm.backend();
}

sfi::VmStats PacketFilter::vm_stats() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return VmStatsLocked();
}

sfi::VmStats PacketFilter::VmStatsLocked() const {
  sfi::VmStats total;
  for (const std::unique_ptr<ShardExec>& exec : LiveGen()->shards) {
    const sfi::VmStats& s = exec->vm.stats();
    total.instructions += s.instructions;
    total.bounds_checks += s.bounds_checks;
    total.calls += s.calls;
    total.host_calls += s.host_calls;
    total.jit_runs += s.jit_runs;
  }
  return total;
}

uint64_t PacketFilter::flow_count() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->flows.size();
  }
  return total;
}

uint64_t PacketFilter::StatsSlot(uint64_t index, uint64_t, uint64_t, uint64_t) {
  // Under reload_mu_: slots 14/15 read the installed generation, and a
  // reload bumps `reloads` under the same lock.
  std::lock_guard<std::mutex> lock(reload_mu_);
  // Execution-backend observability: silent fallback from the JIT to the
  // threaded loop must never masquerade as a JIT win in benchmarks or
  // integration assertions.
  if (index == 14) {
    return LiveGen()->shards[0]->vm.backend() == sfi::VmBackend::kJit ? 1 : 0;
  }
  if (index == 15) {
    return VmStatsLocked().jit_runs;
  }
  if (index >= std::size(kFilterStatsSlots)) {
    return 0;
  }
  uint64_t sum = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    sum += shard->stats.*kFilterStatsSlots[index].field;
  }
  return sum;
}

uint64_t PacketFilter::RuleCountSlot(uint64_t, uint64_t, uint64_t, uint64_t) {
  return rule_count();
}

uint64_t PacketFilter::ModeSlot(uint64_t, uint64_t, uint64_t, uint64_t) {
  return mode() == sfi::ExecMode::kTrusted ? 1 : 0;
}

uint64_t PacketFilter::FlowCountSlot(uint64_t, uint64_t, uint64_t, uint64_t) {
  return flow_count();
}

}  // namespace para::filter
