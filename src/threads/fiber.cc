#include "src/threads/fiber.h"

#include "src/base/log.h"

#if defined(__x86_64__)

#include <new>

#if defined(PARA_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PARA_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// Defined in fiber_switch_x86_64.S.
extern "C" void para_fiber_switch(void** save_sp, void* load_sp);
extern "C" void para_fiber_entry();

namespace para::threads {

namespace {

// The frame para_fiber_switch pushes and pops, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t x87_control;
  uint16_t padding;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*return_address)();
};
static_assert(sizeof(SwitchFrame) == 64);

// Seeds a switch frame at the top of a stack: switching to the returned
// stack pointer enters para_fiber_entry with %r12 = `arg` and %r13 = `fn`,
// the current control words and a zero %rbp (ending frame-pointer walks),
// and the stub calls fn(arg) on a 16-byte-aligned stack.
void* SeedFrame(uint8_t* stack_top, void (*fn)(Fiber*), Fiber* arg) {
  SwitchFrame frame{};
  asm volatile("stmxcsr %0" : "=m"(frame.mxcsr));
  asm volatile("fnstcw %0" : "=m"(frame.x87_control));
  frame.r12 = reinterpret_cast<uint64_t>(arg);
  frame.r13 = reinterpret_cast<uint64_t>(fn);
  frame.return_address = &para_fiber_entry;
  uint8_t* top = stack_top - reinterpret_cast<uintptr_t>(stack_top) % 16;
  return new (top - sizeof(SwitchFrame)) SwitchFrame(frame);
}

}  // namespace

Fiber::Fiber() : started_(true) {}

Fiber::Fiber(std::function<void()> entry, size_t stack_size)
    : stack_(new uint8_t[stack_size]), entry_(std::move(entry)) {
  sp_ = SeedFrame(stack_.get() + stack_size, &Fiber::Trampoline, this);
#if defined(PARA_FIBER_ASAN)
  asan_stack_bottom_ = stack_.get();
  asan_stack_size_ = stack_size;
#endif
#if defined(PARA_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(PARA_FIBER_ASAN)
  if (stack_ != nullptr && asan_fake_stack_ != nullptr) {
    // ASan frees a fiber's fake stack only when the fiber itself leaves for
    // good. Resume this suspended one once, on a fresh frame, to let it.
    Fiber here;
    sp_ = SeedFrame(stack_.get() + asan_stack_size_, &Fiber::Retire, this);
    SwitchFrom(&here);
  }
#endif
#if defined(PARA_FIBER_TSAN)
  if (stack_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
#endif
}

void Fiber::Trampoline(Fiber* self) {
#if defined(PARA_FIBER_ASAN)
  self->FinishSwitch(nullptr);
#endif
  self->started_ = true;
  self->entry_();
  PARA_PANIC("fiber entry returned without a successor context");
}

void Fiber::SwitchFrom(Fiber* from) {
  PARA_CHECK(from != this);
#if defined(PARA_FIBER_TSAN)
  if (from->stack_ == nullptr) {
    from->tsan_fiber_ = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(PARA_FIBER_ASAN)
  asan_switched_from_ = from;
  __sanitizer_start_switch_fiber(&from->asan_fake_stack_, asan_stack_bottom_, asan_stack_size_);
#endif
  para_fiber_switch(&from->sp_, sp_);
#if defined(PARA_FIBER_ASAN)
  from->FinishSwitch(from->asan_fake_stack_);
#endif
}

#if defined(PARA_FIBER_ASAN)
void Fiber::FinishSwitch(void* fake_stack) {
  const void* bottom = nullptr;
  size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  Fiber* from = asan_switched_from_;
  if (from->stack_ == nullptr) {
    from->asan_stack_bottom_ = bottom;
    from->asan_stack_size_ = size;
  }
}

void Fiber::Retire(Fiber* self) {
  self->FinishSwitch(self->asan_fake_stack_);
  Fiber* back = self->asan_switched_from_;
  back->asan_switched_from_ = self;
  // A null save slot tells ASan this fiber will not run again: it frees the
  // fake stack the finish call above adopted.
  __sanitizer_start_switch_fiber(nullptr, back->asan_stack_bottom_, back->asan_stack_size_);
  para_fiber_switch(&self->sp_, back->sp_);
  PARA_PANIC("retired fiber resumed");
}
#endif

}  // namespace para::threads

#else  // !__x86_64__

namespace para::threads {

Fiber::Fiber() {
  // Context will be filled in by the first SwitchFrom(this) performed by
  // another fiber; getcontext here just initializes the structure.
  getcontext(&context_);
  started_ = true;
}

Fiber::Fiber(std::function<void()> entry, size_t stack_size)
    : stack_(new uint8_t[stack_size]), entry_(std::move(entry)) {
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_size;
  context_.uc_link = nullptr;  // entry must never return unmanaged
  // makecontext only passes ints; split the pointer across two words.
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::Trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xFFFFFFFFu));
}

Fiber::~Fiber() = default;

void Fiber::Trampoline(unsigned hi, unsigned lo) {
  auto self = reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) |
                                       static_cast<uintptr_t>(lo));
  self->started_ = true;
  self->entry_();
  PARA_PANIC("fiber entry returned without a successor context");
}

void Fiber::SwitchFrom(Fiber* from) {
  PARA_CHECK(from != this);
  swapcontext(&from->context_, &context_);
}

}  // namespace para::threads

#endif  // __x86_64__
