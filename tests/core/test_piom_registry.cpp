// piom::Server source registry: attach() is the one registration entry
// point, and the handle it returns detaches on destruction.  A source
// detached mid-round — by itself or by another source — must never be
// polled or asked for pending work again (both callbacks capture the dead
// layer's state), and mid-round churn must not grow the registry.
#include <gtest/gtest.h>

#include <deque>

#include "core/server.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"

namespace pm2::piom {
namespace {

using marcel::this_thread::compute;

struct Machine {
  sim::Engine eng;
  marcel::Runtime rt;
  Server server;
  explicit Machine(unsigned cpus) : rt(eng, mk(cpus)), server(rt.node(0), {}) {}
  static marcel::Config mk(unsigned cpus) {
    marcel::Config c;
    c.nodes = 1;
    c.cpus_per_node = cpus;
    return c;
  }
  marcel::Node& node() { return rt.node(0); }
};

/// Counters of the source under test ("victim") and of a witness source
/// attached after it, whose pending check proves that other cores asked
/// the server for work while the detaching round was still open.
struct Probe {
  int victim_polls = 0;
  int victim_pending = 0;
  int victim_pending_at_detach = -1;
  bool window_open = false;
  int witness_calls_in_window = 0;
};

/// Runs one scenario on 3 cores: core 0 computes, the idle cores poll.
/// The detaching poll callback detaches the victim, kicks the parked
/// cores (so they re-evaluate has_work while the round is suspended) and
/// then computes, keeping the round open.  An armed request afterwards
/// drives further rounds that must skip the victim.
void run_detach_scenario(bool self_detach, Probe& p) {
  Machine m(3);
  Server::Attachment victim;
  Server::Attachment detacher;
  bool detached = false;
  const auto detach_now = [&] {
    detached = true;
    p.victim_pending_at_detach = p.victim_pending;
    victim.reset();
    p.window_open = true;
    m.server.notify_work();
    compute(10 * kUs);  // the round stays open across this suspension
    p.window_open = false;
  };
  victim = m.server.attach({
      .poll =
          [&](marcel::Cpu&) {
            ++p.victim_polls;
            if (self_detach && !detached) detach_now();
            return false;
          },
      .pending =
          [&] {
            ++p.victim_pending;
            return !detached;
          },
  });
  if (!self_detach) {
    detacher = m.server.attach({.poll = [&](marcel::Cpu&) {
      if (!detached) detach_now();
      return false;
    }});
  }
  const auto witness = m.server.attach({.pending = [&] {
    if (p.window_open) ++p.witness_calls_in_window;
    return false;
  }});
  m.node().spawn(
      [&] {
        compute(50 * kUs);
        m.server.arm();  // later rounds must skip the tombstone
        compute(20 * kUs);
        m.server.disarm();
      },
      marcel::Priority::kNormal, "app", 0);
  m.eng.run();
  EXPECT_TRUE(detached);
  EXPECT_EQ(m.server.source_slots(), self_detach ? 1u : 2u)
      << "the tombstone must be swept once the round closes";
}

TEST(PiomRegistry, SelfDetachedSourceIsNeverPolledOrProbedAgain) {
  Probe p;
  run_detach_scenario(/*self_detach=*/true, p);
  EXPECT_EQ(p.victim_polls, 1);
  EXPECT_EQ(p.victim_pending, p.victim_pending_at_detach);
  EXPECT_GT(p.witness_calls_in_window, 0)
      << "no core consulted the registry while the round was open";
}

TEST(PiomRegistry, PeerDetachedSourceIsNeverPolledOrProbedAgain) {
  Probe p;
  run_detach_scenario(/*self_detach=*/false, p);
  EXPECT_EQ(p.victim_polls, 1) << "polled once, before its peer detached it";
  EXPECT_EQ(p.victim_pending, p.victim_pending_at_detach);
  EXPECT_GT(p.witness_calls_in_window, 0)
      << "no core consulted the registry while the round was open";
}

TEST(PiomRegistry, MidRoundChurnIsSweptWhenTheRoundCloses) {
  // Outside a round a detach erases at once (HookChurn covers that bound);
  // inside one it leaves a tombstone until the outermost round closes.
  Machine m(1);
  std::deque<Server::Attachment> live;
  for (int i = 0; i < 4; ++i) {
    live.push_back(m.server.attach({.poll = [](marcel::Cpu&) {
      return false;
    }}));
  }
  std::size_t mid_round_slots = 0;
  const auto churner = m.server.attach({.poll = [&](marcel::Cpu&) {
    for (int i = 0; i < 100; ++i) {
      live.push_back(m.server.attach({.poll = [](marcel::Cpu&) {
        return false;
      }}));
      live.pop_front();
    }
    mid_round_slots = m.server.source_slots();
    return false;
  }});
  m.node().spawn([&] { m.server.poll_round(marcel::this_thread::cpu()); });
  m.eng.run();
  EXPECT_EQ(mid_round_slots, 4u + 1u + 100u);
  EXPECT_EQ(m.server.source_slots(), 5u);
  live.clear();
  EXPECT_EQ(m.server.source_slots(), 1u);
}

}  // namespace
}  // namespace pm2::piom
