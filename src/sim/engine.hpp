// Discrete-event simulation engine: a virtual clock plus a time-ordered
// event queue.  Deterministic: ties on the timestamp are broken by schedule
// order, and no real-time source is consulted anywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/simtime.hpp"

namespace pm2::sim {

class ScheduleFuzzer;

/// Identifier usable to cancel a scheduled event.  Never reused.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// A periodic chain of events held out of the queue (quiescent polling,
/// see docs/simulation-model.md).  The engine keeps the chain's pending
/// event as a key only and, wherever a real event or the end of a
/// run_until() comes next in (time, schedule order), asks the owner to
/// account for every chain event due before it; each such event consumes
/// its schedule sequence number exactly as a dispatched one would, so the
/// queue order of everything else is what stepping the chain gives.
class Sleeper {
 public:
  /// Time of the chain's pending event.
  [[nodiscard]] SimTime next() const noexcept { return next_; }

 protected:
  Sleeper() = default;
  Sleeper(const Sleeper&) = delete;
  Sleeper& operator=(const Sleeper&) = delete;
  virtual ~Sleeper() = default;

  /// Account for the pending event and every successor due strictly
  /// before `bound` as if each had run, advance next(), and return how
  /// many that was (>= 1).  Must not touch the engine.
  virtual std::uint64_t skip(SimTime bound) = 0;

  SimTime next_ = 0;

 private:
  friend class Engine;
  std::uint64_t seq_ = 0;  // schedule sequence of the pending event
  bool parked_ = false;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `d` nanoseconds of virtual time.
  EventId schedule_after(SimDuration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Schedule at the current time (runs after already-queued events at the
  /// same timestamp — FIFO within a timestamp).
  EventId schedule_now(Callback cb) { return schedule_at(now_, std::move(cb)); }

  /// Cancel a pending event.  Returns false if it already ran or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Dispatch exactly one event; false when the queue is drained.  Used by
  /// teardown paths (e.g. piom::Server joining its LWP) that must advance
  /// the simulation a bounded amount from host context.
  bool run_one() { return step(); }

  /// Hold the chain `s`, whose pending event falls at `first` (>= now),
  /// out of the queue.  The pending event takes the schedule sequence a
  /// schedule_at() made now would (no fuzzer perturbation) and counts in
  /// events_pending().
  void park(Sleeper& s, SimTime first);

  /// Put the chain's pending event back in the queue as `cb`, under the
  /// (time, sequence) it has held since its predecessor was accounted for.
  EventId unpark(Sleeper& s, Callback cb);

  /// Forget a parked chain (its owner is going away).
  void drop(Sleeper& s);

  /// Attach a schedule fuzzer (nullptr detaches): newly scheduled events
  /// may then be nudged a few ns later, perturbing the FIFO tie-breaking
  /// between nearby events.  Existing queue entries are untouched, so
  /// attaching mid-run is safe.
  void set_fuzzer(ScheduleFuzzer* fuzzer) noexcept { fuzzer_ = fuzzer; }
  [[nodiscard]] ScheduleFuzzer* fuzzer() const noexcept { return fuzzer_; }

  /// Run events with time <= `t`; afterwards now() == t unless stopped
  /// early.  Returns false if stop() interrupted the run.
  bool run_until(SimTime t);

  /// Stop the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of events dispatched so far (diagnostics).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  [[nodiscard]] std::size_t events_pending() const noexcept { return live_; }
  /// Chain events accounted for without being dispatched (parked
  /// sleepers); with events_processed() this is what a run that never
  /// parks would have dispatched.
  [[nodiscard]] std::uint64_t events_skipped() const noexcept {
    return skipped_;
  }

 private:
  // An EventId is (schedule sequence << kSlotBits) | slab slot.  The
  // sequence grows by one per schedule_at, so ordering keys by (time, id)
  // is ordering by (time, schedule order), and ids are never reused even
  // though slots are.
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  /// Key id ordered after every real event at the same time.
  static constexpr EventId kAfterAll = ~EventId{0};

  /// Heap entry.  Stale once its slot no longer holds `id` (the event was
  /// cancelled); stale keys are dropped when they reach the top.
  struct Key {
    SimTime time;
    EventId id;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }
  struct Slot {
    EventId id = kInvalidEventId;  // occupant; kInvalidEventId when free
    Callback cb;
  };

  /// Drops stale keys off the top of the heap; the first live key, or
  /// nullptr when no event is pending.
  const Key* top_live();
  /// Accounts for every parked chain event ordered before `limit`.
  void skip_sleepers(Key limit);
  /// Key of a parked chain's pending event.
  static Key key_of(const Sleeper& s) noexcept {
    return Key{s.next_, s.seq_ << kSlotBits};
  }
  void remove_sleeper(Sleeper& s);
  EventId push_event(SimTime t, std::uint64_t seq, Callback cb);
  /// Pops the next live event and runs it; false when drained.
  bool step();
  void free_slot(std::size_t slot);
  void heap_push(Key key);
  void heap_pop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  ScheduleFuzzer* fuzzer_ = nullptr;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet run nor cancelled
  bool stopped_ = false;
  std::vector<Key> heap_;  // 4-ary min-heap on (time, id)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Parked chains by pending key; a handful.  Kept apart from the heap: a
  // parked chain advances about once per skipped event, and here that is a
  // swap or two instead of a heap sift.
  std::vector<Sleeper*> sleepers_;

  std::uint64_t skipped_ = 0;
};

}  // namespace pm2::sim
