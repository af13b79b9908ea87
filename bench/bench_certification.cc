// E7 — certification vs software fault isolation (§4, §5).
//
// Paper claim: "After a component's certificate is validated by the kernel
// it does not require any further software checks ... Verifying a
// certificate at load-time obviates the need for run time fault checks thus
// allowing components to be more efficient."
//
// Four measurements:
//   1. the one-time load cost: SHA-256 digest + RSA verify, by code size
//      (and, separately, the validation-cache hit a repeated load pays);
//   2. the recurring cost: the same bytecode workload executed trusted
//      (no checks) vs sandboxed (bounds checks + metering);
//   3. the crossover: how many invocations amortize one certification;
//   4. the key-generation cost every certifying set-up pays.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/hexdump.h"
#include "src/base/log.h"
#include "src/base/random.h"
#include "src/nucleus/cert.h"
#include "src/sfi/assembler.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace {

using namespace para;           // NOLINT
using namespace para::nucleus;  // NOLINT

// Shared crypto state (keygen excluded from timing).
struct CryptoFixture {
  CryptoFixture() {
    para::Random rng(0xC0DE);
    authority = std::make_unique<CertificationAuthority>(crypto::GenerateKeyPair(1024, rng));
    signer_keys = crypto::GenerateKeyPair(1024, rng);
    grant = authority->Grant("bench-signer", signer_keys.public_key, kCertKernelEligible);
    signer = std::make_unique<Certifier>(
        "bench-signer", signer_keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    service = std::make_unique<CertificationService>(authority->public_key());
    (void)service->RegisterGrant(grant);
  }

  static CryptoFixture& Get() {
    static CryptoFixture fixture;
    return fixture;
  }

  // More certificates for `code` than the service's validation cache holds
  // (256), differing only in issued_at. Cycling through them in order makes
  // every validation a cache miss: each comes back after 256 others, and
  // the cache is flushed whenever it fills.
  const std::vector<Certificate>& MissPool(const std::vector<uint8_t>& code) {
    constexpr uint64_t kPoolSize = 257;
    std::vector<Certificate>& pool = miss_pools[HexEncode(crypto::Sha256::Hash(code))];
    for (uint64_t i = pool.size(); i < kPoolSize; ++i) {
      auto cert = signer->Certify("bench", 1, code, kCertKernelEligible, /*now=*/i);
      PARA_CHECK(cert.ok());
      pool.push_back(std::move(*cert));
    }
    return pool;
  }

  std::unique_ptr<CertificationAuthority> authority;
  crypto::RsaKeyPair signer_keys;
  DelegationGrant grant;
  std::unique_ptr<Certifier> signer;
  std::unique_ptr<CertificationService> service;
  std::map<std::string, std::vector<Certificate>> miss_pools;  // by code digest
};

// The measured workload: a checksum loop over the component's memory —
// memory-access heavy, so the sandbox tax is visible.
sfi::Program ChecksumProgram() {
  auto program = sfi::Assembler::Assemble(R"(
    ; a0 = number of 8-byte words to checksum (looping over memory)
    push 0          ; mem[8..] holds data; mem[0] is the accumulator
    ldarg 0
  loop:
    dup
    jz done
    dup
    push 8
    mul             ; byte offset
    load64
    push 0
    load64
    add
    push 0
    swap
    store64
    push 1
    sub
    jmp loop
  done:
    drop
    push 0
    load64
    retv
  )");
  PARA_CHECK(program.ok());
  return std::move(*program);
}

void BM_CertifyComponent(benchmark::State& state) {
  // Off-line signing cost (the delegate's side), by component size.
  auto& fx = CryptoFixture::Get();
  std::vector<uint8_t> code(static_cast<size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    auto cert = fx.signer->Certify("bench", 1, code, kCertKernelEligible, 0);
    benchmark::DoNotOptimize(cert);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_ValidateCertificate(benchmark::State& state) {
  // The kernel's load-time check of a certificate it has not seen: digest +
  // signature verify (e = 65537, so verification is much cheaper than
  // signing).
  auto& fx = CryptoFixture::Get();
  std::vector<uint8_t> code(static_cast<size_t>(state.range(0)), 0x5A);
  const std::vector<Certificate>& pool = fx.MissPool(code);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.service->Validate(pool[next], code));
    next = next + 1 == pool.size() ? 0 : next + 1;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_ValidateCertificateCached(benchmark::State& state) {
  // A repeated load of the same certified image: the digest is recomputed
  // (the tamper check is never cached), the signature verify is a cache hit.
  auto& fx = CryptoFixture::Get();
  std::vector<uint8_t> code(static_cast<size_t>(state.range(0)), 0x5A);
  auto cert = fx.signer->Certify("bench", 1, code, kCertKernelEligible, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.service->Validate(*cert, code));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_GenerateKeyPair(benchmark::State& state) {
  // Key generation alternating between two fixed seeds (the end-to-end
  // bench's authority and delegate), so every run searches the same primes.
  constexpr uint64_t kSeeds[] = {0xA07704177, 0x5EED};
  size_t i = 0;
  for (auto _ : state) {
    para::Random rng(kSeeds[i++ % 2]);
    benchmark::DoNotOptimize(crypto::GenerateKeyPair(static_cast<size_t>(state.range(0)), rng));
  }
}

void BM_RunTrusted(benchmark::State& state) {
  auto program = sfi::Verify(ChecksumProgram());
  PARA_CHECK(program.ok());
  sfi::Vm vm(&*program, sfi::ExecMode::kTrusted);
  uint64_t words = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(0, words));
  }
  state.counters["instructions_per_call"] =
      static_cast<double>(vm.stats().instructions) / static_cast<double>(state.iterations());
}

void BM_RunSandboxed(benchmark::State& state) {
  auto program = sfi::Verify(ChecksumProgram());
  PARA_CHECK(program.ok());
  sfi::Vm vm(&*program, sfi::ExecMode::kSandboxed);
  uint64_t words = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(0, words));
  }
  state.counters["bounds_checks_per_call"] =
      static_cast<double>(vm.stats().bounds_checks) / static_cast<double>(state.iterations());
}

void BM_CertificationCrossover(benchmark::State& state) {
  // End-to-end: validation once + N trusted runs vs N sandboxed runs.
  // Reported counter: the N at which the two strategies cost the same
  // (estimated from per-run deltas measured inline).
  auto& fx = CryptoFixture::Get();
  auto verified = sfi::Verify(ChecksumProgram());
  PARA_CHECK(verified.ok());
  const std::vector<uint8_t>& code = verified->identity();
  const std::vector<Certificate>& pool = fx.MissPool(code);
  size_t next = 0;
  auto validate_once = [&] {
    benchmark::DoNotOptimize(fx.service->Validate(pool[next], code));
    next = next + 1 == pool.size() ? 0 : next + 1;
  };

  uint64_t words = 64;
  for (auto _ : state) {
    // One load-time validation (never a cache hit)...
    validate_once();
    // ...then the component runs checked-free.
    sfi::Vm vm(&*verified, sfi::ExecMode::kTrusted);
    for (int i = 0; i < 100; ++i) {
      benchmark::DoNotOptimize(vm.Run(0, words));
    }
  }

  // Estimate the crossover outside the timed loop.
  auto now = [] {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  sfi::Vm trusted(&*verified, sfi::ExecMode::kTrusted);
  sfi::Vm sandboxed(&*verified, sfi::ExecMode::kSandboxed);
  constexpr int kProbes = 2000;
  double t0 = now();
  for (int i = 0; i < kProbes; ++i) {
    benchmark::DoNotOptimize(trusted.Run(0, words));
  }
  double t1 = now();
  for (int i = 0; i < kProbes; ++i) {
    benchmark::DoNotOptimize(sandboxed.Run(0, words));
  }
  double t2 = now();
  double trusted_ns = (t1 - t0) / kProbes;
  double sandboxed_ns = (t2 - t1) / kProbes;

  double v0 = now();
  for (int i = 0; i < 20; ++i) {
    validate_once();
  }
  double validate_ns = (now() - v0) / 20;

  double per_call_saving = sandboxed_ns - trusted_ns;
  state.counters["trusted_ns_per_call"] = trusted_ns;
  state.counters["sandboxed_ns_per_call"] = sandboxed_ns;
  state.counters["validate_ns_once"] = validate_ns;
  state.counters["crossover_calls"] =
      per_call_saving > 0 ? validate_ns / per_call_saving : -1.0;
}

void WorkloadArgs(benchmark::internal::Benchmark* bench) {
  for (long words : {8L, 64L, 256L}) {
    bench->Arg(words);
  }
}

BENCHMARK(BM_CertifyComponent)->Arg(1024)->Arg(16384)->Arg(262144);
BENCHMARK(BM_ValidateCertificate)->Arg(1024)->Arg(16384)->Arg(262144);
BENCHMARK(BM_ValidateCertificateCached)->Arg(1024)->Arg(16384)->Arg(262144);
BENCHMARK(BM_GenerateKeyPair)->Arg(512);
BENCHMARK(BM_RunTrusted)->Apply(WorkloadArgs);
BENCHMARK(BM_RunSandboxed)->Apply(WorkloadArgs);
BENCHMARK(BM_CertificationCrossover);

}  // namespace

BENCHMARK_MAIN();
