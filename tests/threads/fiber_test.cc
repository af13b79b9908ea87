// Fiber contract tests: what a context switch must preserve (per-fiber
// floating-point control state, callee-saved registers), and what a fresh
// fiber's entry must provide (an ABI-aligned stack that C++ exceptions can
// unwind). These hold for any switch implementation, ucontext included.
#include "src/threads/fiber.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace para::threads {
namespace {

// 1/3 and -1/3 under the current rounding mode, computed at run time. Round
// to nearest takes both toward zero, FE_UPWARD moves 1/3 and FE_DOWNWARD
// moves -1/3, so the pair tells the three modes apart. The divisions run on
// the SSE unit on x86-64 (MXCSR), while fegetround() there reads the x87
// control word, so a check of both covers both control words.
[[gnu::noinline]] std::pair<double, double> Thirds() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return {one / three, -one / three};
}

std::pair<double, double> ThirdsUnder(int mode) {
  const int saved = std::fegetround();
  std::fesetround(mode);
  auto thirds = Thirds();
  std::fesetround(saved);
  return thirds;
}

struct Rounding {
  int mode = -1;
  std::pair<double, double> thirds;
};

Rounding Observe() { return {std::fegetround(), Thirds()}; }

TEST(FiberTest, RoundingModeIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const auto nearest = ThirdsUnder(FE_TONEAREST);
  const auto upward = ThirdsUnder(FE_UPWARD);
  const auto downward = ThirdsUnder(FE_DOWNWARD);
  ASSERT_NE(nearest, upward);
  ASSERT_NE(nearest, downward);
  ASSERT_NE(upward, downward);

  Fiber main;
  std::unique_ptr<Fiber> a;
  std::unique_ptr<Fiber> b;
  Rounding a_resumed;
  Rounding b_started;
  a = std::make_unique<Fiber>([&] {
    std::fesetround(FE_UPWARD);
    b->SwitchFrom(a.get());
    a_resumed = Observe();
    main.SwitchFrom(a.get());
  });
  // Created in main's FE_TONEAREST; started while A runs in FE_UPWARD.
  b = std::make_unique<Fiber>([&] {
    b_started = Observe();
    std::fesetround(FE_DOWNWARD);
    a->SwitchFrom(b.get());
  });
  a->SwitchFrom(&main);
  const Rounding main_ended = Observe();
  std::fesetround(FE_TONEAREST);  // never leak a mode into later tests

  EXPECT_EQ(b_started.mode, FE_TONEAREST);
  EXPECT_EQ(b_started.thirds, nearest);
  EXPECT_EQ(a_resumed.mode, FE_UPWARD);
  EXPECT_EQ(a_resumed.thirds, upward);
  EXPECT_EQ(main_ended.mode, FE_TONEAREST);
  EXPECT_EQ(main_ended.thirds, nearest);
}

// The compiler may address an alignas(16) local straight off %rsp, trusting
// the ABI's alignment at function entry; the opaque copy of its address
// keeps the remainder from being folded to zero at compile time.
[[gnu::noinline]] bool AlignedLocalIsAligned() {
  alignas(16) volatile unsigned char local[16] = {};
  auto address = reinterpret_cast<uintptr_t>(&local[0]);
  asm volatile("" : "+r"(address));
  return address % 16 == 0;
}

TEST(FiberTest, EntryStackIsAbiAligned) {
  Fiber main;
  std::unique_ptr<Fiber> fiber;
  bool aligned = false;
  char formatted[16] = {};
  fiber = std::make_unique<Fiber>([&] {
    aligned = AlignedLocalIsAligned();
    // glibc's printf keeps SSE values on the stack with aligned moves.
    std::snprintf(formatted, sizeof(formatted), "%.2f", 2.5);
    main.SwitchFrom(fiber.get());
  });
  fiber->SwitchFrom(&main);
  EXPECT_TRUE(aligned);
  EXPECT_STREQ(formatted, "2.50");
}

struct CountOnExit {
  int* count;
  ~CountOnExit() { ++*count; }
};

[[gnu::noinline]] void ThrowThroughFrames(int depth, int* unwound) {
  CountOnExit guard{unwound};
  if (depth == 0) {
    throw std::runtime_error("thrown on a fiber stack");
  }
  ThrowThroughFrames(depth - 1, unwound);
}

TEST(FiberTest, ExceptionUnwindsInsideFiber) {
  Fiber main;
  std::unique_ptr<Fiber> fiber;
  int unwound = 0;
  std::string caught;
  fiber = std::make_unique<Fiber>([&] {
    try {
      ThrowThroughFrames(3, &unwound);
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    main.SwitchFrom(fiber.get());
  });
  fiber->SwitchFrom(&main);
  EXPECT_EQ(caught, "thrown on a fiber stack");
  EXPECT_EQ(unwound, 4);  // every frame's destructor ran
}

struct Six {
  uint64_t a, b, c, d, e, f;
  bool operator==(const Six&) const = default;
};

// Six accumulators mixed each round and all live across `between`: x86-64
// has exactly six callee-saved integer registers, so they end up there (or
// spilled around the call, which the switch must preserve just the same).
template <typename Between>
[[gnu::noinline]] Six Mix(uint64_t seed, int rounds, Between between) {
  uint64_t a = seed;
  uint64_t b = seed * 3 + 1;
  uint64_t c = ~seed;
  uint64_t d = seed ^ 0x9E3779B97F4A7C15u;
  uint64_t e = seed << 7;
  uint64_t f = seed + 11;
  for (int i = 0; i < rounds; ++i) {
    a = a * 6364136223846793005u + b;
    b ^= a >> 13;
    c += b * 5 + static_cast<uint64_t>(i);
    d ^= c << 3;
    e += d ^ (a >> 7);
    f = f * 31 + e;
    between();
  }
  return {a, b, c, d, e, f};
}

TEST(FiberTest, CalleeSavedStateSurvivesPingPong) {
  constexpr int kRounds = 10000;
  // Different seeds on the two sides: a register the switch failed to
  // restore would carry the other side's value.
  constexpr uint64_t kMainSeed = 0x0123456789ABCDEFu;
  constexpr uint64_t kFiberSeed = 0xFEDCBA9876543210u;

  Fiber main;
  std::unique_ptr<Fiber> fiber;
  Six fiber_result{};
  fiber = std::make_unique<Fiber>([&] {
    fiber_result = Mix(kFiberSeed, kRounds, [&] { main.SwitchFrom(fiber.get()); });
    main.SwitchFrom(fiber.get());
  });
  const Six main_result = Mix(kMainSeed, kRounds, [&] { fiber->SwitchFrom(&main); });
  fiber->SwitchFrom(&main);  // let the fiber's last round finish

  EXPECT_EQ(main_result, Mix(kMainSeed, kRounds, [] {}));
  EXPECT_EQ(fiber_result, Mix(kFiberSeed, kRounds, [] {}));
}

}  // namespace
}  // namespace para::threads
