// Execution contexts for the thread package. A Fiber is a stack plus a saved
// processor context; SwitchFrom transfers control synchronously. The whole
// simulated machine stays inside one host thread — scheduling is cooperative
// and deterministic, matching a uniprocessor kernel.
//
// What a switch saves. On x86-64 a switch is register-only
// (fiber_switch_x86_64.S): it pushes the six callee-saved integer registers
// (%rbx, %rbp, %r12-%r15) and the MXCSR and x87 control words onto the
// outgoing stack, stores the stack pointer in the outgoing Fiber, loads the
// target's and pops the same frame there. That is exactly the state the
// SysV ABI makes callee-saved (the compiler already spills everything else
// around the call) and what swapcontext kept, so rounding modes and
// exception masks stay per fiber. A new fiber's stack is seeded with such a
// frame — carrying its creator's control words — whose return address is an
// entry stub that calls Trampoline on a 16-byte-aligned stack. Neither a
// switch nor constructing a Fiber enters the host kernel.
//
// No signal mask is saved. swapcontext swaps one and getcontext reads one,
// each with an rt_sigprocmask system call, but nothing in this code base
// changes the mask or installs a handler (no sigprocmask, no sigaction), so
// every fiber runs under the mask its host thread started with.
//
// Sanitizers. Under ASan each switch is announced with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber (fiber
// entry finishes a switch too), so stack bounds and the fake stacks of
// detect_stack_use_after_return follow the running fiber. A context captured
// by Fiber() owns no stack; its bounds are recorded from the finish call's
// out-parameters when something switches away from it. ASan frees a fake
// stack only as its fiber leaves for good, so destroying a suspended fiber
// that has one resumes it once, on a fresh frame, to do that. Under TSan
// every stack-owning fiber is a TSan fiber and each switch calls
// __tsan_switch_to_fiber. In other builds the annotations compile to nothing.
//
// Limits. The switch moves %rsp without telling a CET shadow stack, so the
// .S file carries no .note.gnu.property and no binary linking it claims
// SHSTK compatibility. Other ISAs keep the ucontext implementation
// (getcontext/makecontext/swapcontext, signal mask included).
#ifndef PARAMECIUM_SRC_THREADS_FIBER_H_
#define PARAMECIUM_SRC_THREADS_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#if defined(__x86_64__)
#if defined(__SANITIZE_ADDRESS__)
#define PARA_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARA_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PARA_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARA_FIBER_TSAN 1
#endif
#endif
#endif  // __x86_64__

namespace para::threads {

class Fiber {
 public:
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  // A fiber that will run `entry` when first switched to. When `entry`
  // returns, control passes to the context saved by the last SwitchTo into
  // this fiber (callers must arrange never to let entry return without a
  // place to go; the thread package wraps entries accordingly).
  explicit Fiber(std::function<void()> entry, size_t stack_size = kDefaultStackSize);

  // Wraps the currently-executing host context (the "main" fiber). Owns no
  // stack.
  Fiber();

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Saves the current context into `from` and resumes this fiber.
  void SwitchFrom(Fiber* from);

  bool started() const { return started_; }

 private:
#if defined(__x86_64__)
  [[noreturn]] static void Trampoline(Fiber* self);

  void* sp_ = nullptr;  // saved stack pointer while switched out
#else
  static void Trampoline(unsigned hi, unsigned lo);

  ucontext_t context_;
#endif
  std::unique_ptr<uint8_t[]> stack_;
  std::function<void()> entry_;
  bool started_ = false;
#if defined(PARA_FIBER_ASAN)
  [[noreturn]] static void Retire(Fiber* self);
  void FinishSwitch(void* fake_stack);

  const void* asan_stack_bottom_ = nullptr;
  size_t asan_stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;      // saved while switched out
  Fiber* asan_switched_from_ = nullptr;  // the fiber whose switch resumes this one
#endif
#if defined(PARA_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace para::threads

#endif  // PARAMECIUM_SRC_THREADS_FIBER_H_
