// Discrete-event engine: ordering, determinism, cancellation, run_until,
// and a seeded differential test against a reference queue model.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace pm2::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, RunsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, FifoWithinTimestamp) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_at(100, [&, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedScheduling) {
  Engine eng;
  std::vector<SimTime> times;
  eng.schedule_at(5, [&] {
    times.push_back(eng.now());
    eng.schedule_after(7, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 12}));
}

TEST(Engine, ScheduleNowRunsAfterQueuedSameTime) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] {
    order.push_back(1);
    eng.schedule_now([&] { order.push_back(3); });
  });
  eng.schedule_at(10, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, Cancel) {
  Engine eng;
  bool ran = false;
  const EventId id = eng.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id)) << "double cancel must fail";
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, CancelFromInsideEarlierEvent) {
  Engine eng;
  bool ran = false;
  const EventId later = eng.schedule_at(20, [&] { ran = true; });
  eng.schedule_at(10, [&] { EXPECT_TRUE(eng.cancel(later)); });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(eng.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_TRUE(eng.run_until(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 200u);
}

TEST(Engine, RunUntilStopsAtLimitBehindCancelledEntry) {
  // A cancelled entry at or before the limit must not let a later live
  // event through.
  Engine eng;
  bool a_ran = false;
  bool b_ran = false;
  const EventId a = eng.schedule_at(5, [&] { a_ran = true; });
  eng.schedule_at(20, [&] { b_ran = true; });
  EXPECT_TRUE(eng.cancel(a));
  EXPECT_TRUE(eng.run_until(10));
  EXPECT_FALSE(a_ran);
  EXPECT_FALSE(b_ran);
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.events_processed(), 0u);
  EXPECT_TRUE(eng.run_until(20));
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(eng.now(), 20u);
}

TEST(Engine, StaleIdCannotCancelReusedSlot) {
  Engine eng;
  const EventId a = eng.schedule_at(10, [] {});
  EXPECT_TRUE(eng.cancel(a));
  // B takes the slot A freed; A's id must not reach it.
  bool b_ran = false;
  const EventId b = eng.schedule_at(10, [&] { b_ran = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(eng.cancel(a));
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();
  EXPECT_TRUE(b_ran);
  // Once B ran, a stale id still names nothing.
  const EventId c = eng.schedule_at(30, [] {});
  EXPECT_FALSE(eng.cancel(a));
  EXPECT_FALSE(eng.cancel(b));
  EXPECT_TRUE(eng.cancel(c));
  EXPECT_FALSE(eng.cancel(kInvalidEventId));
}

TEST(Engine, PendingCountExactAcrossCancelAndReschedule) {
  Engine eng;
  const EventId a = eng.schedule_at(10, [] {});
  const EventId b = eng.schedule_at(20, [] {});
  EXPECT_EQ(eng.events_pending(), 2u);
  EXPECT_TRUE(eng.cancel(b));
  EXPECT_EQ(eng.events_pending(), 1u);
  EXPECT_FALSE(eng.empty());
  // Kick pattern: cancel and reschedule earlier.
  EXPECT_TRUE(eng.cancel(a));
  EXPECT_TRUE(eng.empty());
  EXPECT_EQ(eng.events_pending(), 0u);
  EventId victim = kInvalidEventId;
  eng.schedule_at(5, [&] {
    EXPECT_EQ(eng.events_pending(), 1u);  // the victim only
    EXPECT_TRUE(eng.cancel(victim));
    EXPECT_TRUE(eng.empty());
    eng.schedule_after(1, [] {});
    EXPECT_EQ(eng.events_pending(), 1u);
  });
  victim = eng.schedule_at(7, [] { ADD_FAILURE() << "cancelled event ran"; });
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.run();
  EXPECT_TRUE(eng.empty());
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_EQ(eng.events_processed(), 2u);
  EXPECT_EQ(eng.now(), 6u);
}

// Reference model: a std::map keyed by (time, schedule sequence) holding
// each event's label.  The engine must dispatch the same labels in the same
// order, reach the same now(), and answer every cancel alike.
class QueueModel {
 public:
  void schedule_at(SimTime t, int label) {
    by_key_.emplace(std::make_pair(t, seq_), label);
    key_of_.emplace(label, std::make_pair(t, seq_));
    ++seq_;
  }
  bool cancel(int label) {
    const auto it = key_of_.find(label);
    if (it == key_of_.end()) return false;
    by_key_.erase(it->second);
    key_of_.erase(it);
    return true;
  }
  /// Pops the earliest event at or before `limit`; -1 when there is none.
  int pop_until(SimTime limit) {
    if (by_key_.empty() || by_key_.begin()->first.first > limit) return -1;
    const auto it = by_key_.begin();
    now_ = it->first.first;
    const int label = it->second;
    key_of_.erase(label);
    by_key_.erase(it);
    return label;
  }
  [[nodiscard]] SimTime now() const { return now_; }
  void set_now(SimTime t) { now_ = t; }
  [[nodiscard]] std::size_t size() const { return by_key_.size(); }

 private:
  std::map<std::pair<SimTime, std::uint64_t>, int> by_key_;
  std::map<int, std::pair<SimTime, std::uint64_t>> key_of_;
  std::uint64_t seq_ = 0;
  SimTime now_ = 0;
};

TEST(Engine, MatchesReferenceModelUnderRandomOps) {
  constexpr int kOps = 20000;
  Engine eng;
  QueueModel model;
  Rng rng(0x5eed);
  std::vector<EventId> ids;  // label -> engine id
  std::vector<int> eng_log;
  std::vector<int> model_log;
  std::vector<bool> eng_cancels;
  std::vector<bool> model_cancels;

  // What an event does when dispatched is a pure function of its label, so
  // the engine callback and the model replay take the same actions.
  // Every 5th label schedules a child; every 7th cancels an earlier label.
  auto child_offset = [](int label) {
    return static_cast<SimDuration>((label * 7919) % 40);
  };
  auto victim_of = [](int label) { return label / 2; };

  std::function<void(int)> on_dispatch = [&](int label) {
    eng_log.push_back(label);
    if (label % 5 == 0) {
      const int child = static_cast<int>(ids.size());
      ids.push_back(eng.schedule_after(
          child_offset(label), [&on_dispatch, child] { on_dispatch(child); }));
    }
    if (label % 7 == 0) eng_cancels.push_back(eng.cancel(ids[victim_of(label)]));
  };
  int model_labels = 0;
  auto model_dispatch = [&](int label) {
    model_log.push_back(label);
    if (label % 5 == 0) {
      model.schedule_at(model.now() + child_offset(label), model_labels++);
    }
    if (label % 7 == 0) model_cancels.push_back(model.cancel(victim_of(label)));
  };
  auto model_drain = [&](SimTime t) {
    for (int label; (label = model.pop_until(t)) >= 0;) model_dispatch(label);
  };

  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 5) {  // schedule, often on a timestamp already in use
      const SimTime t = eng.now() + rng.next_below(rng.next_below(2) ? 8 : 200);
      const int label = static_cast<int>(ids.size());
      ids.push_back(eng.schedule_at(t, [&on_dispatch, label] { on_dispatch(label); }));
      model.schedule_at(t, model_labels++);
    } else if (kind < 8) {  // cancel any label ever issued, live or not
      if (ids.empty()) continue;
      const auto label = static_cast<int>(rng.next_below(ids.size()));
      eng_cancels.push_back(eng.cancel(ids[static_cast<std::size_t>(label)]));
      model_cancels.push_back(model.cancel(label));
    } else {
      const SimTime t = eng.now() + rng.next_below(60);
      EXPECT_TRUE(eng.run_until(t));
      model_drain(t);
      if (model.now() < t) model.set_now(t);
    }
    ASSERT_EQ(eng.now(), model.now()) << "op " << op;
    ASSERT_EQ(eng.events_pending(), model.size()) << "op " << op;
    ASSERT_EQ(eng.empty(), model.size() == 0) << "op " << op;
    ASSERT_EQ(static_cast<int>(ids.size()), model_labels) << "op " << op;
    ASSERT_EQ(eng_log.size(), model_log.size()) << "op " << op;
  }
  eng.run();
  model_drain(kSimTimeNever);
  EXPECT_EQ(eng_log, model_log);
  EXPECT_EQ(eng_cancels, model_cancels);
  EXPECT_EQ(eng.now(), model.now());
  EXPECT_TRUE(eng.empty());
  EXPECT_EQ(eng.events_processed(), eng_log.size());
  EXPECT_GT(eng_log.size(), 1000u);
}

TEST(Engine, StopInterruptsRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, SchedulingIntoThePastAborts) {
  Engine eng;
  eng.schedule_at(100, [&] {
    EXPECT_DEATH(eng.schedule_at(50, [] {}), "past");
  });
  eng.run();
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<SimTime>((i * 37) % 50),
                      [&order, i] { order.push_back(i); });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Two periodic chains (150, 150, 300 ns), in phase, held out of the queue
// must log the same (time, who) order as the same chains stepped event by
// event, against real events that tie with their boundaries and a
// cancelled one, and must leave the schedule sequence where stepping
// leaves it.  A wake at 2 400 ns puts chain 0's pending boundary back in
// the queue, where chain 0 carries on stepping; chain 1 stays parked through
// the end of run_until().
class TestChain final : public Sleeper {
 public:
  TestChain(std::vector<std::pair<SimTime, int>>& log, SimTime start,
            int who)
      : who_(who), log_(log) {
    next_ = start;
  }
  static SimDuration step_after(unsigned k) { return k % 3 == 2 ? 300 : 150; }
  std::uint64_t skip(SimTime bound) override {
    std::uint64_t n = 0;
    do {
      log_.emplace_back(next_, who_);
      next_ += step_after(k_++);
      ++n;
    } while (next_ < bound);
    return n;
  }
  unsigned k_ = 0;
  const int who_;

 private:
  std::vector<std::pair<SimTime, int>>& log_;
};

struct ChainRun {
  std::vector<std::pair<SimTime, int>> log;
  EventId last_seq = 0;
  std::uint64_t dispatched = 0;
  std::size_t pending = 0;
};

ChainRun run_chain(bool park) {
  ChainRun out;
  Engine eng;
  TestChain chain0(out.log, 100, -1);
  TestChain chain1(out.log, 100, -2);
  std::function<void()> boundary[2];
  for (int c = 0; c < 2; ++c) {
    TestChain& chain = c == 0 ? chain0 : chain1;
    boundary[c] = [&eng, &out, &chain, &next = boundary[c]] {
      out.log.emplace_back(eng.now(), chain.who_);
      eng.schedule_at(eng.now() + TestChain::step_after(chain.k_++), next);
    };
  }
  const auto real = [&](int who) {
    return [&out, &eng, who] { out.log.emplace_back(eng.now(), who); };
  };
  // Real events on chain boundaries (100, 250, 400, 700, ...), each
  // scheduled either before the boundary's own schedule or after it.
  eng.schedule_at(400, real(1));
  eng.schedule_at(250, [&] { eng.schedule_at(400, real(2)); });
  eng.schedule_at(700, [&] { eng.schedule_at(1300, real(3)); });
  eng.schedule_at(1150, [&] { eng.schedule_at(1300, real(4)); });
  eng.schedule_at(1200, [&] { eng.cancel(eng.schedule_at(1300, real(7))); });
  eng.schedule_at(2400, [&] {
    out.log.emplace_back(eng.now(), 5);
    if (park) eng.unpark(chain0, boundary[0]);
  });
  eng.schedule_at(3000, real(6));
  if (park) {
    eng.park(chain0, 100);
    eng.park(chain1, 100);
  } else {
    eng.schedule_at(100, boundary[0]);
    eng.schedule_at(100, boundary[1]);
  }
  eng.run_until(3100);
  out.pending = eng.events_pending();
  out.last_seq = eng.schedule_now([] {}) >> 24;
  out.dispatched = eng.events_processed() + eng.events_skipped();
  return out;
}

TEST(Engine, ParkedChainMatchesSteppedChain) {
  const ChainRun stepped = run_chain(/*park=*/false);
  const ChainRun parked = run_chain(/*park=*/true);
  EXPECT_EQ(parked.log, stepped.log);
  EXPECT_EQ(parked.last_seq, stepped.last_seq);
  EXPECT_EQ(parked.dispatched, stepped.dispatched);
  EXPECT_EQ(parked.pending, stepped.pending);
}

}  // namespace
}  // namespace pm2::sim
