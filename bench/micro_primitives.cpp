// Ablation A7 — microbenchmarks of the building blocks: lock-free queues,
// fiber context switch, event-engine dispatch, tasklet round trip, and a
// node whose pollers wait with no traffic (quiescent polling).
// These are host-time benchmarks (google-benchmark), not simulated time.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/mpmc_ring.hpp"
#include "common/mpsc_queue.hpp"
#include "common/spinlock.hpp"
#include "core/cond.hpp"
#include "core/server.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"

namespace {

// ---------------------------------------------------------------- queues

struct QItem {
  pm2::MpscHook hook;
  int value = 0;
};

void BM_MpscPushPop(benchmark::State& state) {
  pm2::MpscQueue<QItem, &QItem::hook> queue;
  QItem item;
  for (auto _ : state) {
    queue.push(item);
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_MpscPushPop);

void BM_MpmcRingPushPop(benchmark::State& state) {
  pm2::MpmcRing<int> ring(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(42));
    benchmark::DoNotOptimize(ring.try_pop());
  }
}
BENCHMARK(BM_MpmcRingPushPop);

void BM_SpinlockUncontended(benchmark::State& state) {
  pm2::Spinlock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::ClobberMemory();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinlockUncontended);

// ---------------------------------------------------------------- fibers

void BM_FiberSwitchRoundTrip(benchmark::State& state) {
  // One suspend+resume pair per iteration: 2 context switches.
  pm2::sim::Fiber fiber([] {
    for (;;) pm2::sim::Fiber::suspend();
  });
  for (auto _ : state) {
    fiber.resume();
  }
}
BENCHMARK(BM_FiberSwitchRoundTrip);

void BM_FiberCreateDestroy(benchmark::State& state) {
  for (auto _ : state) {
    pm2::sim::Fiber fiber([] {});
    fiber.resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
}
BENCHMARK(BM_FiberCreateDestroy);

// ---------------------------------------------------------------- engine

void BM_EngineScheduleDispatch(benchmark::State& state) {
  pm2::sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(10, [] {});
    engine.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(engine.events_processed()));
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EngineThousandEvents(benchmark::State& state) {
  for (auto _ : state) {
    pm2::sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<pm2::SimTime>((i * 37) % 500), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
}
BENCHMARK(BM_EngineThousandEvents);

void BM_EngineHoldModel(benchmark::State& state) {
  // Classic hold model: N events stay pending; each iteration dispatches
  // the earliest and schedules one at a seeded random future offset.
  pm2::sim::Engine engine;
  pm2::sim::Rng rng(42);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    engine.schedule_after(rng.next_below(1000), [] {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_one());
    benchmark::DoNotOptimize(
        engine.schedule_after(rng.next_below(1000), [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineHoldModel)->Arg(64)->Arg(1024);

void BM_EngineKickCancel(benchmark::State& state) {
  // The Cpu::kick / request_resched pattern: a pending wake-up is cancelled
  // and rescheduled earlier, then dispatched.
  pm2::sim::Engine engine;
  for (auto _ : state) {
    const pm2::sim::EventId late = engine.schedule_after(1000, [] {});
    benchmark::DoNotOptimize(engine.cancel(late));
    benchmark::DoNotOptimize(engine.schedule_after(10, [] {}));
    benchmark::DoNotOptimize(engine.run_one());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineKickCancel);

// --------------------------------------------------------------- tasklets

void BM_TaskletScheduleRun(benchmark::State& state) {
  // Host cost of one tasklet round trip through the simulated machine.
  pm2::marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 1;
  for (auto _ : state) {
    state.PauseTiming();
    pm2::sim::Engine engine;
    pm2::marcel::Runtime runtime(engine, cfg);
    int runs = 0;
    pm2::marcel::Tasklet tasklet([&] { ++runs; });
    state.ResumeTiming();
    tasklet.schedule_on(runtime.node(0).cpu(0));
    engine.run();
    benchmark::DoNotOptimize(runs);
  }
}
BENCHMARK(BM_TaskletScheduleRun);

// ----------------------------------------------------------------- polling

void BM_QuiescentPoller(benchmark::State& state) {
  // Host cost per virtual µs of a node whose idle core and app thread both
  // poll an armed server that never sees traffic.  Arg 0: the pollers park
  // in closed form; Arg 1: the timeline is on, so they step every round.
  pm2::sim::Engine engine;
  pm2::marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 2;
  cfg.timeline = state.range(0) != 0;
  pm2::marcel::Runtime runtime(engine, cfg);
  pm2::piom::Server server(runtime.node(0), {});
  const auto source = server.attach(
      {.poll = [](pm2::marcel::Cpu&) { return false; }, .quiescent = true});
  pm2::piom::Cond never(server);
  runtime.node(0).spawn(
      [&] {
        server.arm();
        never.wait();
        server.disarm();
      },
      pm2::marcel::Priority::kNormal, "waiter", 0);
  constexpr pm2::SimDuration kSlice = 1000 * pm2::kUs;
  for (auto _ : state) engine.run_until(engine.now() + kSlice);
  state.counters["host_time_per_vus"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1000,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  engine.schedule_now([&] { never.signal(); });  // untimed teardown
  engine.run();
}
BENCHMARK(BM_QuiescentPoller)->Arg(0)->Arg(1)->Iterations(50);

}  // namespace

BENCHMARK_MAIN();
