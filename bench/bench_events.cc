// E5 — processor events, proto-threads, pop-up threads (§3).
//
// Paper mechanism: "for efficiency reasons, we delay the actual creation of
// the pop-up thread by creating a proto-thread. Only when the proto-thread
// is about to block or be rescheduled do we turn it into a real thread. This
// allows us to provide fast interrupt processing of user code with proper
// thread semantics."
//
// Rows to reproduce: raw call-back < proto-thread (non-blocking) << full
// thread creation ≈ proto-thread that blocks (promotion).
//
// Underneath them all is the fiber switch: BM_FiberSwitchRoundTrip times
// two Fiber::SwitchFrom calls, and BM_SwapcontextRoundTrip the same
// ping-pong through glibc swapcontext — a reference row only, since the
// x86-64 Fiber no longer calls it.
#include <benchmark/benchmark.h>
#include <ucontext.h>

#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/timer.h"
#include "src/nucleus/event.h"
#include "src/nucleus/vmem.h"
#include "src/threads/popup.h"

namespace {

using namespace para;           // NOLINT
using namespace para::nucleus;  // NOLINT

struct Fixture {
  Fixture() : sched(&machine.clock()), popups(&sched, 8), events(&machine, &popups),
              vmem(16) {}
  hw::Machine machine;
  threads::Scheduler sched;
  threads::PopupEngine popups;
  EventService events;
  VirtualMemoryService vmem;
};

void BM_DispatchRawCallback(benchmark::State& state) {
  Fixture fx;
  uint64_t sink = 0;
  (void)fx.events.Register(IrqEvent(0), fx.vmem.kernel_context(),
                           [&](EventNumber, uint64_t) { ++sink; },
                           threads::DispatchMode::kRawCallback);
  for (auto _ : state) {
    fx.machine.irq().Raise(0);
  }
  benchmark::DoNotOptimize(sink);
}

void BM_DispatchProtoThreadNonBlocking(benchmark::State& state) {
  // The paper's fast path: two context switches, no thread object.
  Fixture fx;
  uint64_t sink = 0;
  (void)fx.events.Register(IrqEvent(0), fx.vmem.kernel_context(),
                           [&](EventNumber, uint64_t) { ++sink; },
                           threads::DispatchMode::kProtoThread);
  for (auto _ : state) {
    fx.machine.irq().Raise(0);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["promotions"] = static_cast<double>(fx.sched.stats().proto_promotions);
}

void BM_DispatchFullThread(benchmark::State& state) {
  // Eager pop-up thread creation: thread object + stack + scheduling.
  Fixture fx;
  uint64_t sink = 0;
  (void)fx.events.Register(IrqEvent(0), fx.vmem.kernel_context(),
                           [&](EventNumber, uint64_t) { ++sink; },
                           threads::DispatchMode::kFullThread);
  for (auto _ : state) {
    fx.machine.irq().Raise(0);
    fx.sched.RunUntilIdle();  // run the spawned thread to completion
  }
  benchmark::DoNotOptimize(sink);
}

void BM_DispatchProtoThreadBlocking(benchmark::State& state) {
  // Worst case for the proto path: every handler blocks, so every dispatch
  // pays promotion + normal scheduling.
  Fixture fx;
  uint64_t sink = 0;
  (void)fx.events.Register(IrqEvent(0), fx.vmem.kernel_context(),
                           [&](EventNumber, uint64_t) {
                             fx.sched.Yield();  // promotes
                             ++sink;
                           },
                           threads::DispatchMode::kProtoThread);
  for (auto _ : state) {
    fx.machine.irq().Raise(0);
    fx.sched.RunUntilIdle();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["promotions"] = static_cast<double>(fx.sched.stats().proto_promotions);
}

void BM_InterruptRateSweep(benchmark::State& state) {
  // A periodic timer at increasing rates, handlers on the proto path; the
  // metric is handled events per wall second.
  Fixture fx;
  auto* timer = fx.machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  uint64_t handled = 0;
  (void)fx.events.Register(IrqEvent(0), fx.vmem.kernel_context(),
                           [&](EventNumber, uint64_t) { ++handled; },
                           threads::DispatchMode::kProtoThread);
  VTime period = static_cast<VTime>(state.range(0));
  timer->Program(period, /*periodic=*/true);
  for (auto _ : state) {
    fx.machine.Advance(period);
  }
  state.counters["events"] = static_cast<double>(handled);
}

void BM_ContextSwitchThroughput(benchmark::State& state) {
  // The primitive underneath everything: two threads ping-ponging with
  // Yield. Each benchmark iteration runs 2 threads x 100 yields; the
  // reported rate is per scheduling round.
  Fixture fx;
  constexpr int kYields = 100;
  for (auto _ : state) {
    state.PauseTiming();
    fx.sched.ReleaseFinished();  // two threads per iteration: don't accumulate shells
    for (int t = 0; t < 2; ++t) {
      fx.sched.Spawn("ping", [&]() {
        for (int i = 0; i < kYields; ++i) {
          fx.sched.Yield();
        }
      });
    }
    state.ResumeTiming();
    fx.sched.RunUntilIdle();
  }
  state.counters["switches_per_iter"] = 2.0 * kYields;
}

void BM_FiberSwitchRoundTrip(benchmark::State& state) {
  threads::Fiber main;
  std::unique_ptr<threads::Fiber> peer;
  peer = std::make_unique<threads::Fiber>([&] {
    for (;;) {
      main.SwitchFrom(peer.get());
    }
  });
  for (auto _ : state) {
    peer->SwitchFrom(&main);
  }
}

ucontext_t swap_main;
ucontext_t swap_peer;

void SwapcontextPeer() {
  for (;;) {
    swapcontext(&swap_peer, &swap_main);
  }
}

void BM_SwapcontextRoundTrip(benchmark::State& state) {
  std::vector<uint8_t> stack(threads::Fiber::kDefaultStackSize);
  getcontext(&swap_peer);
  swap_peer.uc_stack.ss_sp = stack.data();
  swap_peer.uc_stack.ss_size = stack.size();
  swap_peer.uc_link = nullptr;
  makecontext(&swap_peer, &SwapcontextPeer, 0);
  for (auto _ : state) {
    swapcontext(&swap_main, &swap_peer);
  }
}

BENCHMARK(BM_DispatchRawCallback);
BENCHMARK(BM_DispatchProtoThreadNonBlocking);
BENCHMARK(BM_DispatchFullThread);
BENCHMARK(BM_DispatchProtoThreadBlocking);
BENCHMARK(BM_InterruptRateSweep)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_ContextSwitchThroughput);
BENCHMARK(BM_FiberSwitchRoundTrip);
BENCHMARK(BM_SwapcontextRoundTrip);

}  // namespace

BENCHMARK_MAIN();
