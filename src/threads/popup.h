// Pop-up threads and proto-threads (§3, and van Doorn & Tanenbaum [10]).
//
// Processor events are turned into threads so interrupt handlers can block
// and be scheduled like ordinary threads. Creating a full thread per
// interrupt is expensive, so dispatch first runs the handler on a
// *proto-thread*: a pooled fiber with no scheduler identity. If the handler
// completes without blocking, the total cost is two context switches and a
// pool operation. If it blocks, sleeps, or yields, the scheduler *promotes*
// the proto-thread into a real thread on the spot and control returns to the
// dispatcher; the handler finishes later under normal scheduling.
//
// Experiment E5 measures the three dispatch modes this file provides:
// kRawCallback < kProtoThread (non-blocking case) < kFullThread. With the
// register-only switch of fiber.h neither switch nor the dispatcher's
// Fiber() enters the host kernel. bench_events (Release, median of 5
// repetitions, 4-CPU x86-64 VM; bench-baseline/BENCH_popup_after.json):
// BM_DispatchRawCallback 15.8 ns, BM_DispatchProtoThreadNonBlocking
// 55.9 ns, BM_DispatchFullThread 226.5 ns, BM_DispatchProtoThreadBlocking
// 322.7 ns, against 726.2 / 902.7 / 1740.0 ns for the last three through
// swapcontext (BENCH_popup_baseline.json).
#ifndef PARAMECIUM_SRC_THREADS_POPUP_H_
#define PARAMECIUM_SRC_THREADS_POPUP_H_

#include <memory>
#include <vector>

#include "src/base/inline_function.h"
#include "src/threads/scheduler.h"

namespace para::threads {

// Work item carried by a dispatch. The inline buffer is sized so an event
// call-back copy plus its (event, detail) arguments fit without touching
// the heap — interrupt dispatch allocates nothing.
using PopupWork = InlineFunction<void(), 96>;

// A pooled proto-thread execution slot.
struct ProtoSlot {
  explicit ProtoSlot(class PopupEngine* engine);

  PopupEngine* engine;
  std::unique_ptr<Fiber> fiber;
  PopupWork work;
  Fiber* return_to = nullptr;     // dispatcher context to resume on finish/promote
  bool promoted = false;
  bool finished = false;
  Thread* promoted_thread = nullptr;  // set by the scheduler at promotion
};

enum class DispatchMode : uint8_t {
  kRawCallback,  // plain function call, no thread semantics (baseline)
  kProtoThread,  // lazy pop-up thread (the paper's design)
  kFullThread,   // eager pop-up thread creation (comparison point)
};

struct PopupStats {
  uint64_t dispatches = 0;
  uint64_t completed_inline = 0;  // proto ran to completion without blocking
  uint64_t promotions = 0;
  uint64_t full_threads = 0;
};

class PopupEngine {
 public:
  PopupEngine(Scheduler* scheduler, size_t pool_size = 4);
  ~PopupEngine();

  // Dispatches `handler` according to `mode`. For kProtoThread the call
  // returns when the handler either finished or was promoted; for
  // kFullThread it returns after enqueueing the new thread; for kRawCallback
  // after the handler returns.
  void Dispatch(PopupWork handler, DispatchMode mode = DispatchMode::kProtoThread,
                int priority = kInterruptPriority);

  const PopupStats& stats() const { return stats_; }
  Scheduler* scheduler() const { return scheduler_; }

 private:
  friend class Scheduler;
  friend struct ProtoSlot;

  void ProtoLoop(ProtoSlot* slot);
  std::unique_ptr<ProtoSlot> TakeSlot();

  Scheduler* scheduler_;
  std::vector<std::unique_ptr<ProtoSlot>> pool_;
  PopupStats stats_;
  uint64_t popup_counter_ = 0;
};

}  // namespace para::threads

#endif  // PARAMECIUM_SRC_THREADS_POPUP_H_
