// E6 — memory-management service (§3).
//
// Page allocation/free, software-MMU access (8 B and 4 KiB), shared-page
// setup across 2..16 protection domains, fault-handler dispatch, and
// I/O-space access (registers, and device-buffer copies span vs word).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/timer.h"
#include "src/nucleus/vmem.h"

namespace {

using namespace para;           // NOLINT
using namespace para::nucleus;  // NOLINT

void BM_AllocFreePage(benchmark::State& state) {
  VirtualMemoryService vmem(1024);
  Context* kernel = vmem.kernel_context();
  size_t pages = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto base = vmem.AllocatePages(kernel, pages, kProtReadWrite);
    (void)vmem.FreePages(kernel, *base, pages);
  }
  state.counters["pages"] = static_cast<double>(pages);
}

void BM_ReadU64ThroughMmu(benchmark::State& state) {
  VirtualMemoryService vmem(64);
  Context* kernel = vmem.kernel_context();
  auto base = vmem.AllocatePages(kernel, 1, kProtReadWrite);
  for (auto _ : state) {
    auto value = vmem.ReadU64(kernel, *base + 8);
    benchmark::DoNotOptimize(value);
  }
}

void BM_WriteBulkThroughMmu(benchmark::State& state) {
  VirtualMemoryService vmem(64);
  Context* kernel = vmem.kernel_context();
  size_t bytes = static_cast<size_t>(state.range(0));
  auto base = vmem.AllocatePages(kernel, (bytes / kPageSize) + 1, kProtReadWrite);
  std::vector<uint8_t> data(bytes, 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmem.Write(kernel, *base, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_KernelTranslateBypass(benchmark::State& state) {
  // What certified kernel code gets to do: translate once per page, raw
  // pointer afterwards.
  VirtualMemoryService vmem(64);
  Context* kernel = vmem.kernel_context();
  auto base = vmem.AllocatePages(kernel, 1, kProtReadWrite);
  for (auto _ : state) {
    auto ptr = vmem.TranslateForKernel(kernel, *base, 8, true);
    benchmark::DoNotOptimize(ptr);
  }
}

void BM_SharePagesAcrossContexts(benchmark::State& state) {
  VirtualMemoryService vmem(4096);
  Context* kernel = vmem.kernel_context();
  int sharers = static_cast<int>(state.range(0));
  auto base = vmem.AllocatePages(kernel, 4, kProtReadWrite);
  std::vector<Context*> contexts;
  for (int i = 0; i < sharers; ++i) {
    contexts.push_back(vmem.CreateContext("c" + std::to_string(i), kernel));
  }
  for (auto _ : state) {
    std::vector<VAddr> mapped;
    for (Context* c : contexts) {
      auto addr = vmem.SharePages(kernel, *base, 4, c, kProtReadWrite);
      mapped.push_back(*addr);
    }
    for (int i = 0; i < sharers; ++i) {
      (void)vmem.FreePages(contexts[static_cast<size_t>(i)], mapped[static_cast<size_t>(i)], 4);
    }
  }
  state.counters["sharers"] = sharers;
}

void BM_FaultHandlerDispatch(benchmark::State& state) {
  // Cost of one fault -> handler -> resume cycle (the proxy building block).
  VirtualMemoryService vmem(64);
  Context* kernel = vmem.kernel_context();
  VAddr addr = kernel->AllocateRegion(1);
  uint64_t runs = 0;
  (void)vmem.SetFaultHandler(kernel, addr, [&runs](const FaultInfo&) {
    ++runs;
    return Status(ErrorCode::kFault, "stay unmapped");
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmem.Fault(kernel, addr, FaultKind::kFaultHandler, false));
  }
  benchmark::DoNotOptimize(runs);
}

void BM_ProtectRange(benchmark::State& state) {
  VirtualMemoryService vmem(256);
  Context* kernel = vmem.kernel_context();
  size_t pages = static_cast<size_t>(state.range(0));
  auto base = vmem.AllocatePages(kernel, pages, kProtReadWrite);
  uint8_t prot = kProtRead;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmem.Protect(kernel, *base, pages, prot));
    prot = prot == kProtRead ? kProtReadWrite : kProtRead;
  }
  state.counters["pages"] = static_cast<double>(pages);
}

void BM_IoRegisterAccess(benchmark::State& state) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  VirtualMemoryService vmem(64);
  Context* kernel = vmem.kernel_context();
  auto io = vmem.MapDeviceRegisters(kernel, timer);
  for (auto _ : state) {
    auto value = vmem.ReadIo32(kernel, *io + hw::TimerDevice::kRegCountLo);
    benchmark::DoNotOptimize(value);
  }
}

// Device-buffer copies, span against word: one frame out of a network
// device's buffer window. BM_IoBufferCopy is one ReadIo (one page lookup,
// one memcpy); BM_IoBufferCopyWords is the per-word ReadIo32 loop the
// network driver used before, one page-table walk per 4 bytes.
struct IoBufferBed {
  IoBufferBed() {
    netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
    window = *vmem.MapDeviceBuffer(vmem.kernel_context(), netdev, kProtReadWrite);
  }
  hw::Machine machine;
  hw::NetworkDevice* netdev;
  VirtualMemoryService vmem{64};
  VAddr window = 0;
};

void BM_IoBufferCopy(benchmark::State& state) {
  IoBufferBed bed;
  Context* kernel = bed.vmem.kernel_context();
  std::vector<uint8_t> frame(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.vmem.ReadIo(kernel, bed.window, frame));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}

void BM_IoBufferCopyWords(benchmark::State& state) {
  IoBufferBed bed;
  Context* kernel = bed.vmem.kernel_context();
  std::vector<uint8_t> frame(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (size_t off = 0; off < frame.size(); off += 4) {
      auto word = bed.vmem.ReadIo32(kernel, bed.window + off);
      uint32_t v = *word;
      std::memcpy(frame.data() + off, &v, std::min<size_t>(4, frame.size() - off));
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}

BENCHMARK(BM_AllocFreePage)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_ReadU64ThroughMmu);
BENCHMARK(BM_WriteBulkThroughMmu)->Arg(64)->Arg(512)->Arg(4096)->Arg(16384);
BENCHMARK(BM_KernelTranslateBypass);
BENCHMARK(BM_SharePagesAcrossContexts)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_FaultHandlerDispatch);
BENCHMARK(BM_ProtectRange)->Arg(1)->Arg(16)->Arg(64);
BENCHMARK(BM_IoRegisterAccess);
BENCHMARK(BM_IoBufferCopy)->Arg(64)->Arg(361)->Arg(1326);
BENCHMARK(BM_IoBufferCopyWords)->Arg(64)->Arg(361)->Arg(1326);

}  // namespace

BENCHMARK_MAIN();
