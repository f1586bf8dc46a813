// Stackful fiber switching: entry, suspend/resume cycles, nesting, locals
// surviving across switches, many fibers, deep stacks, pooled stacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"

namespace pm2::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, SuspendResumeRoundTrips) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::suspend();
    trace.push_back(3);
    Fiber::suspend();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalsSurviveSuspension) {
  std::string out;
  Fiber f([&] {
    std::string local = "hello";
    int counter = 7;
    Fiber::suspend();
    local += " world";
    counter *= 2;
    Fiber::suspend();
    out = local + std::to_string(counter);
  });
  f.resume();
  f.resume();
  f.resume();
  EXPECT_EQ(out, "hello world14");
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] {
    seen = Fiber::current();
    Fiber::suspend();
  });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
}

TEST(Fiber, NestedResume) {
  std::vector<int> trace;
  Fiber inner([&] {
    trace.push_back(2);
    Fiber::suspend();
    trace.push_back(4);
  });
  Fiber outer([&] {
    trace.push_back(1);
    inner.resume();  // fiber resuming another fiber
    trace.push_back(3);
    inner.resume();
    trace.push_back(5);
  });
  outer.resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 10;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[i];
        Fiber::suspend();
      }
    }));
  }
  for (int r = 0; r < kRounds; ++r) {
    for (auto& f : fibers) f->resume();
  }
  for (auto& f : fibers) f->resume();  // let bodies return
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_EQ(counters[i], kRounds);
    EXPECT_TRUE(fibers[i]->finished());
  }
}

TEST(Fiber, DeepStackUsage) {
  // Recursion touching ~128 KiB of stack must fit in the default stack.
  struct Recur {
    static int go(int depth) {
      char pad[1024];
      pad[0] = static_cast<char>(depth);
      if (depth == 0) return pad[0];
      return go(depth - 1) + (pad[0] != 0 ? 1 : 0);
    }
  };
  int result = -1;
  Fiber f([&] { result = Recur::go(100); });
  f.resume();
  EXPECT_EQ(result, 100);
}

TEST(Fiber, FloatingPointSurvivesSwitch) {
  double a = 0.0;
  Fiber f([&] {
    double x = 1.5;
    Fiber::suspend();
    x *= 2.0;
    a = x;
  });
  f.resume();
  const double noise = 3.14159 * 2.71828;  // clobber FP regs in between
  f.resume();
  EXPECT_DOUBLE_EQ(a, 3.0);
  EXPECT_GT(noise, 8.0);
}

// Address of a local in a fresh fiber's body: the same stack gives the
// same address, whatever the fiber before it did.
std::uintptr_t local_address(std::size_t stack_bytes) {
  std::uintptr_t addr = 0;
  Fiber f(
      [&] {
        volatile int local = 0;
        addr = reinterpret_cast<std::uintptr_t>(&local);
      },
      stack_bytes);
  f.resume();
  return addr;
}

// Whether two body-local addresses from different bodies lie on the same
// stack: near the top of one mapping, within a few frames of each other.
bool same_stack(std::uintptr_t a, std::uintptr_t b) {
  const std::uintptr_t distance = a > b ? a - b : b - a;
  return distance < Fiber::kDefaultStackBytes / 2;
}

struct StackProbe {
  std::uintptr_t local = 0;  // address of a body-local variable
  unsigned found = 0;        // byte a page below it, before marking it
};

// Runs a fiber that reads, then overwrites with `mark`, an unused stack
// byte a page below its frame.
StackProbe mark_stack(unsigned char mark) {
  StackProbe probe;
  Fiber f([&] {
    volatile int local = 0;
    probe.local = reinterpret_cast<std::uintptr_t>(&local);
    auto* below = reinterpret_cast<volatile unsigned char*>(probe.local - 4096);
    probe.found = *below;
    *below = mark;
  });
  f.resume();
  return probe;
}

TEST(Fiber, DestroyedStackIsReused) {
  const StackProbe first = mark_stack(0x5a);
  const StackProbe second = mark_stack(0xa5);
  EXPECT_EQ(first.local, second.local);
  // A fresh mapping, even at the same address, reads as zero.
  EXPECT_EQ(second.found, 0x5au);
}

TEST(Fiber, LiveStacksAreNotShared) {
  std::uintptr_t a = 0;
  std::uintptr_t b = 0;
  Fiber fa([&] {
    volatile int local = 0;
    a = reinterpret_cast<std::uintptr_t>(&local);
  });
  Fiber fb([&] {
    volatile int local = 0;
    b = reinterpret_cast<std::uintptr_t>(&local);
  });
  fa.resume();
  fb.resume();
  EXPECT_NE(a, b);
}

TEST(Fiber, NonDefaultSizeNeverGetsDefaultStack) {
  // Park a default-size stack, then ask for a larger one: it must not be
  // handed the parked stack, and it must hold more than the default size.
  const std::uintptr_t parked = local_address(Fiber::kDefaultStackBytes);
  constexpr std::size_t kBig = 4 * Fiber::kDefaultStackBytes;
  std::uintptr_t big = 0;
  int result = -1;
  Fiber f(
      [&] {
        volatile int local = 0;
        big = reinterpret_cast<std::uintptr_t>(&local);
        struct Recur {
          static int go(int depth) {
            volatile char pad[1024];
            pad[0] = static_cast<char>(depth & 1);
            if (depth == 0) return 0;
            return go(depth - 1) + 1 + pad[0] - pad[0];
          }
        };
        result = Recur::go(512);  // ~512 KiB: twice the default stack
      },
      kBig);
  f.resume();
  EXPECT_FALSE(same_stack(big, parked));
  EXPECT_EQ(result, 512);
  EXPECT_EQ(f.stack_bytes(), kBig);
  // And a default-size fiber still gets the parked default stack back.
  EXPECT_EQ(local_address(Fiber::kDefaultStackBytes), parked);
}

// Recurses until a frame lies below `limit`.
int dig_below(std::uintptr_t limit) {
  volatile char pad[512];
  pad[0] = 1;
  if (reinterpret_cast<std::uintptr_t>(&pad[0]) < limit) return pad[0];
  return dig_below(limit) + pad[0];
}

TEST(FiberDeathTest, RecycledStackKeepsGuardPage) {
  EXPECT_DEATH(
      {
        const std::uintptr_t parked =
            local_address(Fiber::kDefaultStackBytes);
        Fiber f([&] {
          volatile int local = 0;
          const auto here = reinterpret_cast<std::uintptr_t>(&local);
          // Only a recycled stack is under test: a fresh one exits cleanly,
          // which fails the death expectation.
          if (!same_stack(here, parked)) std::exit(0);
          // `local` sits within a page of the stack top, so this limit is
          // inside the guard page and only the guard stops the descent:
          // without it the frames land in the mapping and the body returns.
          dig_below(here - Fiber::kDefaultStackBytes);
        });
        f.resume();
      },
      "");
}

TEST(Fiber, ResumeFinishedAborts) {
  Fiber f([] {});
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_DEATH(f.resume(), "finished");
}

TEST(Fiber, SuspendOutsideFiberAborts) {
  EXPECT_DEATH(Fiber::suspend(), "outside");
}

}  // namespace
}  // namespace pm2::sim
