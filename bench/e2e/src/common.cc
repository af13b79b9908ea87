#include "bench/e2e/src/common.h"

#include "src/filter/compiler.h"
#include "src/sfi/verifier.h"

namespace para::e2e {

Keys GenerateKeys() {
  Random authority_rng(0xA07704177);
  Random delegate_rng(0x5EED);
  Keys keys{crypto::GenerateKeyPair(512, authority_rng),
            crypto::GenerateKeyPair(512, delegate_rng)};
  return keys;
}

Result<nucleus::Certifier> MakeCertifier(const Keys& keys,
                                         nucleus::CertificationService& service) {
  nucleus::CertificationAuthority authority(keys.authority);
  nucleus::DelegationGrant grant =
      authority.Grant("e2e-certifier", keys.delegate.public_key, nucleus::kCertKernelEligible);
  PARA_RETURN_IF_ERROR(service.RegisterGrant(grant));
  return nucleus::Certifier(
      "e2e-certifier", keys.delegate, grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
}

void ClassifyReplay::Bind(const filter::PacketFilter& filter) {
  vm_ = std::make_unique<sfi::Vm>(&filter.verified_program(), filter.mode());
  vm_->memory().resize(filter::kMaxFilterBatch * filter::kFilterBatchSlot + 8, 0);
}

void ClassifyReplay::Run(std::span<const net::PacketView> views, uint64_t* results) {
  const size_t n = views.size();
  uint8_t* slots = vm_->memory().data();
  for (size_t i = 0; i < n; ++i) {
    // The generated rule sets never inspect payload bytes, so — like the
    // filter — the replay marshals header fields only.
    filter::WritePacketDescriptor(
        views[i], std::span<uint8_t>(slots + i * filter::kFilterBatchSlot,
                                     filter::kFilterBatchSlot),
        /*payload_bytes=*/0);
  }
  uint64_t pairs[2 * filter::kMaxFilterBatch];
  sfi::Vm::Burst burst = vm_->BeginBurst(0);
  const uint64_t t0 = Ticks();
  bool many = burst.CallMany(0, filter::kFilterBatchSlot, n, pairs);
  if (!many) {
    // Threaded backend: the same slots one Call at a time.
    for (size_t i = 0; i < n; ++i) {
      Result<uint64_t> r = burst.Call(i * filter::kFilterBatchSlot);
      pairs[2 * i] = r.ok() ? *r : ~uint64_t{0};
      pairs[2 * i + 1] = r.ok() ? 0 : 1;
    }
  }
  ticks_ += Ticks() - t0;
  packets_ += n;
  for (size_t i = 0; i < n; ++i) {
    results[i] = pairs[2 * i + 1] == 0 ? pairs[2 * i] : ~uint64_t{0};
  }
}

void FilterCounters::Snapshot(filter::PacketFilter& filter) {
  stats_ = filter.stats();
  flows_ = filter.flows().stats();
  jit_runs_ = 0;
  Rebase(filter);
}

void FilterCounters::Fold(const filter::PacketFilter& filter) {
  jit_runs_ += filter.vm_stats().jit_runs - jit_base_;
  jit_base_ = filter.vm_stats().jit_runs;
}

void FilterCounters::Rebase(const filter::PacketFilter& filter) {
  jit_base_ = filter.vm_stats().jit_runs;
}

void FilterCounters::Report(filter::PacketFilter& filter, double packets, LayerValues& out) {
  Fold(filter);
  if (packets <= 0) {
    return;
  }
  const filter::FilterStats s = filter.stats();
  const filter::FlowTableStats& f = filter.flows().stats();
  const double evaluated = static_cast<double>(s.evaluated - stats_.evaluated);
  out[Layer::kFilterFlowHitRatio] =
      evaluated > 0 ? static_cast<double>(s.flow_hits - stats_.flow_hits) / evaluated : 0;
  out[Layer::kFilterFlowInsertsPerKpkt] =
      1000.0 * static_cast<double>(f.inserts - flows_.inserts) / packets;
  out[Layer::kFilterFlowEvictionsPerKpkt] =
      1000.0 * static_cast<double>(f.evictions - flows_.evictions) / packets;
  out[Layer::kFilterFlowReevaluationsPerKpkt] =
      1000.0 * static_cast<double>(s.flow_reevaluations - stats_.flow_reevaluations) / packets;
  out[Layer::kFilterProcInvocationsPerPkt] =
      static_cast<double>(s.proc_invocations - stats_.proc_invocations) / packets;
  out[Layer::kSfiJitRunsPerPkt] = static_cast<double>(jit_runs_) / packets;
  out[Layer::kSfiBackendJit] = filter.exec_backend() == sfi::VmBackend::kJit ? 1.0 : 0.0;
}

void ProxyCounters::Snapshot(nucleus::Nucleus& nucleus) {
  proxy_ = nucleus.proxies().stats();
  vmem_faults_ = nucleus.vmem().stats().faults;
}

void ProxyCounters::Report(nucleus::Nucleus& nucleus, LayerValues& out) const {
  const nucleus::ProxyStats& p = nucleus.proxies().stats();
  const auto calls = static_cast<double>(p.calls - proxy_.calls);
  if (calls == 0) {
    return;
  }
  out[Layer::kProxyFaultsPerCall] = static_cast<double>(p.faults - proxy_.faults) / calls;
  out[Layer::kProxyContextSwitchesPerCall] =
      static_cast<double>(p.context_switches - proxy_.context_switches) / calls;
  out[Layer::kProxyPayloadBytesPerCall] =
      static_cast<double>(p.payload_bytes - proxy_.payload_bytes) / calls;
  out[Layer::kVmemFaultsPerCall] =
      static_cast<double>(nucleus.vmem().stats().faults - vmem_faults_) / calls;
}

void TimeFilterControlPlane(const filter::RuleSet& rules, nucleus::Certifier& certifier,
                            LayerValues& out) {
  constexpr int kReps = 7;
  Result<filter::CompiledFilter> compiled = filter::CompileRules(rules);
  if (!compiled.ok()) {
    return;
  }
  out[Layer::kFilterCompileMs] = MedianMs(kReps, [&] { (void)filter::CompileRules(rules); });
  out[Layer::kSfiVerifyMs] = MedianMs(kReps, [&] { (void)sfi::Verify(compiled->program); });
  const std::vector<uint8_t>& identity = compiled->program.identity();
  uint32_t version = 1000;
  out[Layer::kCertCertifyMs] = MedianMs(kReps, [&] {
    ++version;
    (void)certifier.Certify("e2e/replay", version, identity, nucleus::kCertKernelEligible,
                            version);
  });
}

double TotalNsPer(const Tracer& tracer, SpanId id, double units) {
  return units > 0 ? TicksToNs(static_cast<double>(tracer.agg(id).total_ticks)) / units : 0;
}

double SelfNsPer(const Tracer& tracer, SpanId id, double units) {
  return units > 0 ? TicksToNs(static_cast<double>(tracer.agg(id).self_ticks)) / units : 0;
}

void ReportPacketSpans(const Tracer& tracer, double packets, LayerValues& out) {
  auto allocs = [&](int64_t n) { return static_cast<double>(n) / packets; };
  out[Layer::kFilterEvaluateNsPerPkt] = TotalNsPer(tracer, SpanId::kFilterEvaluate, packets);
  out[Layer::kFilterAllocsPerPkt] =
      allocs(static_cast<int64_t>(tracer.agg(SpanId::kFilterEvaluate).total_allocs));
  out[Layer::kNetStackNsPerPkt] = TotalNsPer(tracer, SpanId::kNetStack, packets);
  out[Layer::kNetStackSelfNsPerPkt] = SelfNsPer(tracer, SpanId::kNetStack, packets);
  out[Layer::kNetStackAllocsPerPkt] = allocs(tracer.agg(SpanId::kNetStack).self_allocs);
  out[Layer::kAppDeliverNsPerPkt] = TotalNsPer(tracer, SpanId::kAppDeliver, packets);
  out[Layer::kAppAllocsPerPkt] =
      allocs(static_cast<int64_t>(tracer.agg(SpanId::kAppDeliver).total_allocs));
  out[Layer::kBenchRootSelfNsPerItem] = SelfNsPer(tracer, SpanId::kRoot, packets);
}

}  // namespace para::e2e
