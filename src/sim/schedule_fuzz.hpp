// Deterministic schedule explorer.
//
// The DES runs one canonical interleaving per workload: ties are broken
// FIFO, compute chunks are cut at fixed quanta, ticks fire on a rigid
// phase.  That determinism is what makes the simulation reproducible — and
// what lets concurrency bugs (lost wakeups, reentrancy, ordering
// assumptions) hide: the one schedule that triggers them is never run.
//
// A ScheduleFuzzer perturbs the schedule *deterministically from a seed*:
//  * preemption points   — compute chunks may be cut short,
//  * tick phase          — per-CPU timer ticks jitter within a bound,
//  * wakeup/IPI timing   — kick delays jitter (interrupt delivery order),
//  * event tie-breaking  — same-timestamp events may be nudged apart,
//  * idle-core churn     — a core may defer entering the idle-poll loop,
//  * poller parking      — a quiescent poller may be refused its park and
//    step its empty rounds event by event instead,
//  * interleave points   — annotated race windows (see fuzz::interleave_point)
//    may suspend the calling fiber so other events can land inside them.
//
// One seed = one schedule: replaying a seed reproduces the interleaving
// bit-for-bit.  Every decision is recorded in a bounded trace so a failing
// seed can be diagnosed (which sites fired, with what values) without
// single-stepping the engine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/simtime.hpp"
#include "sim/rng.hpp"

namespace pm2::sim {

class ScheduleFuzzer {
 public:
  /// Perturbation magnitudes and firing probabilities (percent, 0..100).
  /// The defaults are tuned to distort ordering aggressively while keeping
  /// injected delays small against the µs-scale costs of the engine.
  struct Options {
    std::uint32_t chunk_cut_pct = 30;       // cut a compute chunk short
    std::uint32_t tick_jitter_pct = 60;     // jitter a timer-tick period
    SimDuration max_tick_jitter = 30 * kUs;
    std::uint32_t delay_jitter_pct = 40;    // stretch a kick/IPI delay
    SimDuration max_delay_jitter = 2 * kUs;
    std::uint32_t event_jitter_pct = 25;    // nudge a scheduled event later
    SimDuration max_event_jitter = 64;      // ns — reorders close events
    std::uint32_t idle_churn_pct = 20;      // defer entering idle polling
    SimDuration max_churn_delay = 5 * kUs;
    std::uint32_t interleave_pct = 60;      // open an annotated race window
    SimDuration max_interleave = 2 * kUs;
  };

  explicit ScheduleFuzzer(std::uint64_t seed);
  ScheduleFuzzer(std::uint64_t seed, Options opt);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const Options& options() const noexcept { return opt_; }

  // ---- perturbation queries (each records one trace decision) ----

  /// Preemption points: returns a chunk in [1, chunk].
  SimDuration perturb_chunk(SimDuration chunk);

  /// Tick phase: returns a period in [period, period + max_tick_jitter].
  SimDuration perturb_tick(SimDuration period);

  /// Wakeup/IPI latency: returns a delay in [delay, delay + max_delay_jitter].
  SimDuration perturb_delay(SimDuration delay);

  /// Event tie-breaking: returns a time in [t, t + max_event_jitter].
  SimTime perturb_event_time(SimTime t);

  /// Idle-core churn: true if the core should defer entering its idle-poll
  /// loop; `*delay_out` then holds the deferral.
  bool churn_idle(SimDuration* delay_out);

  /// Poller parking: true if a poller whose round found nothing must
  /// step its next gap instead of parking (marcel::Cpu::quiesce).  Not an
  /// Options axis: it always runs, half the time, on a random stream of
  /// its own, so it leaves every other axis's decisions as they were.
  bool refuse_park();

  /// Interleave window at `site`: 0 = keep the window closed, otherwise the
  /// virtual-time width to hold it open.
  SimDuration interleave_delay(const char* site);

  // ---- fiber suspension (interleave points) ----

  /// Installed by the scheduler layer (marcel::Runtime::attach_fuzzer):
  /// suspends the calling fiber for the given duration so queued events can
  /// run.  interleave_point() is a no-op until a hook is installed.
  using SuspendFn = std::function<void(SimDuration)>;
  void set_suspend_hook(SuspendFn fn) { suspend_ = std::move(fn); }
  [[nodiscard]] const SuspendFn& suspend_hook() const noexcept {
    return suspend_;
  }

  // ---- decision trace ----

  struct Decision {
    const char* site;   // static string: which perturbation point
    std::uint64_t in;   // the canonical value
    std::uint64_t out;  // the perturbed value
  };

  [[nodiscard]] std::uint64_t decision_count() const noexcept {
    return decisions_;
  }
  [[nodiscard]] const std::deque<Decision>& trace() const noexcept {
    return trace_;
  }

  /// Human-readable tail of the decision trace, newest last — printed next
  /// to the seed when an invariant fails so the schedule can be understood
  /// before replaying it.
  [[nodiscard]] std::string format_trace(std::size_t max_entries = 48) const;

 private:
  [[nodiscard]] bool roll(std::uint32_t pct);
  void record(const char* site, std::uint64_t in, std::uint64_t out);

  std::uint64_t seed_;
  Options opt_;
  Rng rng_;
  Rng park_rng_;
  SuspendFn suspend_;
  std::deque<Decision> trace_;
  std::uint64_t decisions_ = 0;
};

/// The process-global active fuzzer consulted by fuzz::interleave_point().
/// The DES is single-host-threaded; one fuzzer is active at a time (the
/// last attached Cluster/Runtime wins, detach restores nullptr).
[[nodiscard]] ScheduleFuzzer* active_fuzzer() noexcept;
void set_active_fuzzer(ScheduleFuzzer* fuzzer) noexcept;

namespace fuzz {

/// Marks a modeled race window: a code point where, on real hardware,
/// another thread or an interrupt could interleave between a decision and
/// the action it guards (e.g. between "I will block" and the block).  The
/// fiber DES serialises such windows away; under an active fuzzer this may
/// suspend the calling fiber for a short jittered delay so pending events —
/// interrupt delivery, wire completions, wakeups — land *inside* the
/// window.  No-op when no fuzzer is active.
void interleave_point(const char* site);

}  // namespace fuzz

}  // namespace pm2::sim
