// One virtual core: per-priority runqueues, a tasklet queue, and a service
// fiber that executes tasklets and idle-time polling (PIOMan's hooks).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/intrusive_list.hpp"
#include "common/simtime.hpp"
#include "marcel/config.hpp"
#include "marcel/tasklet.hpp"
#include "marcel/thread.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::tracing {
class Recorder;
}

namespace pm2::marcel {

class Node;

/// Why the occupying fiber suspended — set by the fiber-side helpers and
/// consumed by the engine-side dispatcher.
enum class SuspendReason : std::uint8_t {
  kNone,
  kCompute,       // resume event already scheduled; CPU stays busy
  kYield,         // thread gives up the CPU, stays ready
  kPreempted,     // like kYield, but caused by need_resched
  kBlocked,       // waiting on a sync object / communication event
  kServiceDone,   // service fiber batch complete, re-decide
  kServicePark,   // service fiber found no work at all
};

/// Core-state timeline: every instant of a core's simulated time is
/// attributed to exactly one state, so the per-state counters sum to the
/// total elapsed sim-time once flush_core_state() folds the open interval.
enum class CoreState : std::uint8_t {
  kIdle = 0,     // halted, or dispatch/wakeup latency with no prior blocker
  kApp = 1,      // a thread running application compute
  kEngine = 2,   // engine progression: idle polling or a thread inside an
                 // EngineScope (app-driven progress, offload flush)
  kTasklet = 3,  // the service fiber draining tasklets
  kBlocked = 4,  // halted because the last occupant blocked on an event
};
inline constexpr std::size_t kNumCoreStates = 5;

/// Printable name of a core state ("idle", "app", ...).
[[nodiscard]] const char* core_state_name(CoreState s) noexcept;

/// The compute pattern a poller repeats while its rounds find nothing (see
/// Cpu::quiesce): a round starts, `burns` chunks of `burn` follow (one per
/// polled source, the source's poll running at the end of its chunk), then
/// the `gap`, after which the next round starts.
struct PollCycle {
  const void* owner = nullptr;      // whose poller (quiescent_in_round)
  const void* tag = nullptr;        // what it waits on (wake_poller)
  unsigned burns = 0;
  SimDuration burn = 0;
  SimDuration gap = 0;
  std::uint64_t* rounds = nullptr;  // bumped at every round start
  SimTime deadline = kSimTimeNever;  // wake the poller at this time
};

/// Where a quiesced poller resumes: inside chunk `phase` of its cycle (a
/// burn index, or `burns` for the gap), with `left` of it still to compute.
struct PollResume {
  unsigned phase = 0;
  SimDuration left = 0;
};

class Cpu {
 public:
  Cpu(Node& node, unsigned index, const Config& cfg, sim::Engine& engine);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  ~Cpu();

  [[nodiscard]] Node& node() noexcept { return node_; }
  /// Index of the CPU within its node.
  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  // ----- engine/fiber-context API (scheduler) -----

  /// Make a thread runnable on this CPU.  `front` puts it ahead of its
  /// priority class (used for realtime wakeups).
  void enqueue(Thread& t, bool front = false);

  /// Queue a tasklet (called via Tasklet::schedule_on).
  void tasklet_enqueue(Tasklet& t);

  /// Ensure a dispatch will happen; `delay` models IPI/wakeup latency.
  void kick(SimDuration delay = 0);

  /// Record that new pollable work exists: clears the idle-park latch so
  /// the next dispatch may re-enter the idle-polling loop.
  void note_new_work() noexcept;

  /// True while some fiber logically occupies the core.
  [[nodiscard]] bool busy() const noexcept { return occ_ != Occupant::kNone; }

  /// True when the core runs nothing and has nothing queued.
  [[nodiscard]] bool idle() const noexcept {
    return occ_ == Occupant::kNone && ready_count_ == 0 && tasklets_.empty();
  }

  /// True if the core is currently inside the idle-polling service loop
  /// (counts as "available" for PIOMan placement decisions).
  [[nodiscard]] bool idle_polling() const noexcept {
    return occ_ == Occupant::kService && service_idle_mode_;
  }

  [[nodiscard]] Thread* current_thread() noexcept {
    return occ_ == Occupant::kThread ? cur_thread_ : nullptr;
  }

  /// Request a reschedule at the occupant's next preemption point.  When
  /// `hard` is set and the occupant is mid-compute, the compute chunk is cut
  /// short immediately (used for realtime/interrupt wakeups).
  void request_resched(bool hard = false);

  /// Number of ready threads queued here.
  [[nodiscard]] std::size_t runnable() const noexcept { return ready_count_; }
  [[nodiscard]] bool has_tasklets() const noexcept {
    return !tasklets_.empty();
  }

  // ----- fiber-context API (called by the occupying fiber) -----

  /// Consume up to one chunk of CPU time; returns the amount still to
  /// compute.  Callers loop via this_thread::compute(), re-fetching the
  /// current CPU each iteration because a preemption may migrate the
  /// thread.  Also usable from the service fiber (tasklet/poll costs).
  [[nodiscard]] SimDuration compute_chunk(SimDuration d);

  /// Quiescent polling: called by a poller in place of computing
  /// `cycle.gap` after a round that found nothing.  Parks the poller — it
  /// stays the occupant, but its chunk boundaries run in closed form,
  /// crediting busy time, the thread's CPU time, the engine/gap core-state
  /// split and `*cycle.rounds` exactly as stepping would — until
  /// wake_poller().  Returns the chunk it resumes in; the caller computes
  /// what is left of it and carries on from there.  Computes the gap the
  /// plain way (resuming at its end) when the cycle cannot be parked: the
  /// timeline is on, the fuzzer refuses, a chunk exceeds the quantum,
  /// a preemption is due, or the deadline is within the gap.
  [[nodiscard]] PollResume quiesce(const PollCycle& cycle);

  /// A change a polling round on this core could observe: bumps
  /// poll_wakes() and puts a parked poller — any, or only one whose cycle
  /// carries `tag` — back on the event queue at the first chunk boundary
  /// stepping would run after the current event.
  void wake_poller(const void* tag = nullptr);
  /// Count of wake_poller() calls: a poller may park only if it is
  /// unchanged since its round started.
  [[nodiscard]] std::uint64_t poll_wakes() const noexcept {
    return poll_wakes_;
  }
  /// True while `owner`'s poller on this core is parked (or woken but not
  /// yet resumed) inside one of its rounds' burns rather than a gap.
  [[nodiscard]] bool quiescent_in_round(const void* owner) const noexcept;

  /// Yield from the current thread.
  void yield_current();

  /// Block the current thread; a waker must hold the Thread* and call
  /// Node::wake() later.
  void block_current();

  /// Keep the current thread on this core through its critical section:
  /// compute_chunk() will not honour need_resched while the count is
  /// non-zero.  Used by nm::EngineLock so a lock holder cannot be parked
  /// behind a fiber spinning on the very lock it holds.
  void preempt_disable() noexcept { ++preempt_off_; }
  void preempt_enable() noexcept;

  /// Mark the current thread occupant as doing engine progression (nested).
  /// No-op for service fibers — their time is already attributed to the
  /// engine/tasklet states — and the depth lives on the Thread, so the
  /// attribution survives preemption and migration.
  void engine_scope_enter() noexcept;
  void engine_scope_exit() noexcept;

  /// Sim-time spent in each CoreState (flush_core_state() first for an
  /// up-to-date view that sums to engine().now()).
  [[nodiscard]] const SimDuration* state_ns() const noexcept {
    return state_ns_;
  }

  /// Fold the open state interval into the counters without changing state.
  void flush_core_state();

  // ----- statistics -----
  struct Stats {
    SimDuration thread_busy_ns = 0;   // application thread compute
    SimDuration service_busy_ns = 0;  // tasklets + idle polling
    std::uint64_t tasklets_run = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t steals = 0;
    std::uint64_t dispatches = 0;

    void merge(const Stats& o) noexcept {
      thread_busy_ns += o.thread_busy_ns;
      service_busy_ns += o.service_busy_ns;
      tasklets_run += o.tasklets_run;
      ctx_switches += o.ctx_switches;
      steals += o.steals;
      dispatches += o.dispatches;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/cpu3").  SimDuration fields export as nanosecond counters.
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  friend class Node;

  enum class Occupant : std::uint8_t { kNone, kThread, kService };

  // Engine-context internals.
  void dispatch();
  void begin_run(Occupant what, Thread* t);
  void run_occupant();
  void handle_suspension();
  Thread* pick_thread();
  Thread* try_steal();
  void arm_tick();
  void on_tick();
  void finish_thread(Thread& t);
  /// The node's recorder while Config::timeline is on, else nullptr.
  [[nodiscard]] tracing::Recorder* timeline() const noexcept;
  /// Record the occupancy period ending now (timeline only).
  void record_occupancy();

  // Fiber-context internals.
  void service_body();
  void run_one_tasklet(Tasklet& t);
  void suspend_current(SuspendReason r);
  void charge(SimDuration d);
  void set_core_state(CoreState s);
  /// set_core_state() as of `at` (<= now), for chunk boundaries that ran
  /// in closed form.
  void set_core_state_at(CoreState s, SimTime at);

  /// The parked poller's chunk chain, as the engine sees it.
  class PollPark final : public sim::Sleeper {
   public:
    explicit PollPark(Cpu& cpu) noexcept : cpu_(cpu) {}
    [[nodiscard]] SimDuration chunk(unsigned index) const noexcept {
      return index < cycle.burns ? cycle.burn : cycle.gap;
    }
    enum class State : std::uint8_t { kNone, kParked, kWoken };

    PollCycle cycle;
    unsigned phase = 0;  // chunk ending at next()
    CoreState gap_state = CoreState::kEngine;
    State state = State::kNone;
    sim::EventId alarm = sim::kInvalidEventId;

   private:
    std::uint64_t skip(SimTime bound) override;
    Cpu& cpu_;
  };

  Node& node_;
  unsigned index_;
  const Config& cfg_;
  sim::Engine& engine_;

  IntrusiveList<Thread, &Thread::rq_hook> rq_[kNumPriorities];
  std::size_t ready_count_ = 0;
  IntrusiveList<Tasklet, &Tasklet::queue_hook> tasklets_;

  sim::Fiber service_fiber_;
  bool service_idle_mode_ = false;
  std::uint64_t work_seq_ = 0;          // bumped by note_new_work()
  std::uint64_t service_round_seq_ = 0; // work_seq_ at idle-round start
  bool idle_park_ = false;              // idle polling found nothing; wait for new work
  PollPark poll_park_{*this};
  std::uint64_t poll_wakes_ = 0;

  Occupant occ_ = Occupant::kNone;
  Thread* cur_thread_ = nullptr;
  SuspendReason last_suspend_ = SuspendReason::kNone;
  bool need_resched_ = false;
  unsigned preempt_off_ = 0;

  CoreState state_ = CoreState::kIdle;
  SimTime state_since_ = 0;
  SimDuration state_ns_[kNumCoreStates] = {};

  bool dispatch_pending_ = false;
  sim::EventId dispatch_event_ = sim::kInvalidEventId;
  SimTime dispatch_time_ = 0;

  sim::EventId resume_event_ = sim::kInvalidEventId;
  SimTime chunk_start_ = 0;
  SimTime slice_start_ = 0;

  sim::EventId tick_event_ = sim::kInvalidEventId;

  // Timeline: label id of the current occupancy (set in begin_run).
  std::uint32_t occ_label_ = 0;

  Stats stats_;
};

namespace detail {
/// The CPU occupied by the calling fiber (nullptr in engine context).
[[nodiscard]] Cpu* current_cpu() noexcept;
/// The thread owning the calling fiber (nullptr on service fibers).
[[nodiscard]] Thread* current_thread() noexcept;
}  // namespace detail

/// RAII marker for engine-progression sections (PIOMan polls, protocol
/// flushes, app-driven progress): while one is live, the occupying thread's
/// time is charged to CoreState::kEngine instead of kApp.  The CPU is
/// re-fetched on exit because a preemption may have migrated the thread
/// mid-scope.  Safe in any context; no-op outside a virtual core.
class EngineScope {
 public:
  EngineScope() noexcept {
    if (Cpu* c = detail::current_cpu()) c->engine_scope_enter();
  }
  ~EngineScope() {
    if (Cpu* c = detail::current_cpu()) c->engine_scope_exit();
  }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;
};

}  // namespace pm2::marcel
