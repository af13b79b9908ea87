// Pieces more than one workload uses: signing keys and a certifier whose
// grant chains to the nucleus's authority, the outside-in classifier
// replay, the filter's and the proxy's counters as per-layer metrics, and
// the control-plane timings.
#ifndef PARAMECIUM_BENCH_E2E_SRC_COMMON_H_
#define PARAMECIUM_BENCH_E2E_SRC_COMMON_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bench/e2e/src/harness.h"
#include "src/crypto/rsa.h"
#include "src/filter/filter.h"
#include "src/nucleus/cert.h"
#include "src/nucleus/nucleus.h"
#include "src/sfi/vm.h"

namespace para::e2e {

// Authority and delegate key pairs. The seeds are fixed: key material is
// not a workload input, and a fixed prime search keeps keygen time
// comparable across runs.
struct Keys {
  crypto::RsaKeyPair authority;
  crypto::RsaKeyPair delegate;
};
Keys GenerateKeys();

// A delegate that certifies whatever it is shown, with its grant registered
// at `service` (the nucleus's certification service).
Result<nucleus::Certifier> MakeCertifier(const Keys& keys,
                                         nucleus::CertificationService& service);

// Outside-in classifier timing: the same descriptors the filter saw, run
// through Vm::Burst::CallMany on the filter's installed program, outside
// the filter. Only the VM entry is timed.
class ClassifyReplay {
 public:
  // Binds to `filter`'s live program; call again after every (re)load.
  void Bind(const filter::PacketFilter& filter);
  // Classifies `views` (at most kMaxFilterBatch); `results[i]` receives the
  // encoded verdict.
  void Run(std::span<const net::PacketView> views, uint64_t* results);

  // Mean replayed classification, in ns per descriptor.
  double NsPerPacket() const {
    return packets_ > 0 ? TicksToNs(static_cast<double>(ticks_)) / static_cast<double>(packets_)
                        : 0;
  }
  void ResetCounters() { ticks_ = packets_ = 0; }

 private:
  std::unique_ptr<sfi::Vm> vm_;
  uint64_t ticks_ = 0;
  uint64_t packets_ = 0;
};

// The filter's cumulative counters. The classifier VM's run counter lives
// in the installed generation and restarts at every reload, so it is
// folded in before each reload (Fold) and re-based after (Rebase).
class FilterCounters {
 public:
  void Snapshot(filter::PacketFilter& filter);
  void Fold(const filter::PacketFilter& filter);
  void Rebase(const filter::PacketFilter& filter);

  // Per-layer filter/sfi metrics for the packets since Snapshot.
  void Report(filter::PacketFilter& filter, double packets, LayerValues& out);

 private:
  filter::FilterStats stats_;
  filter::FlowTableStats flows_;
  uint64_t jit_runs_ = 0;
  uint64_t jit_base_ = 0;
};

// The nucleus's proxy and vmem counters, as per-proxied-call metrics.
class ProxyCounters {
 public:
  void Snapshot(nucleus::Nucleus& nucleus);
  void Report(nucleus::Nucleus& nucleus, LayerValues& out) const;

 private:
  nucleus::ProxyStats proxy_;
  uint64_t vmem_faults_ = 0;
};

// Median wall time, in ms, of `reps` calls of `fn`.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = Ticks();
    fn();
    ms.push_back(TicksToMs(static_cast<double>(Ticks() - t0)));
  }
  return Median(std::move(ms));
}

// Times CompileRules, Verify and Certifier::Certify on `rules`, the three
// public steps of a certified filter load.
void TimeFilterControlPlane(const filter::RuleSet& rules, nucleus::Certifier& certifier,
                            LayerValues& out);

// Per-item value of a span's total or self time, in ns.
double TotalNsPer(const Tracer& tracer, SpanId id, double units);
double SelfNsPer(const Tracer& tracer, SpanId id, double units);

// The packet-path span metrics both receive paths share: filter hook,
// stack, socket handler and the harness's own share, per packet.
void ReportPacketSpans(const Tracer& tracer, double packets, LayerValues& out);

}  // namespace para::e2e

#endif  // PARAMECIUM_BENCH_E2E_SRC_COMMON_H_
