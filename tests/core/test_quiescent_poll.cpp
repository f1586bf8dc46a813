// Quiescent polling parity.  A poller whose round found nothing parks in
// closed form instead of stepping round by round; a run with the timeline
// on never parks, so it is the stepping reference.  Every scenario
// below runs both ways and must agree bit for bit — pickup times, the whole
// metrics registry (core-state ns, poll rounds, busy time, ...), the nm
// request-span stamps — and the quiescent run must account for exactly the
// events the stepping one dispatched (processed + skipped).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/cond.hpp"
#include "core/server.hpp"
#include "marcel/runtime.hpp"
#include "marcel/tasklet.hpp"
#include "nmad/coll/coll.hpp"
#include "nmad/rma/rma.hpp"
#include "pm2/cluster.hpp"
#include "pm2/completion.hpp"
#include "pm2/rpc.hpp"
#include "sim/engine.hpp"

namespace pm2 {
namespace {

using marcel::this_thread::compute;

/// Everything a scenario observes, for a bit-exact comparison.
struct Outcome {
  std::vector<SimTime> times;  // scenario-specific observations
  std::map<std::string, double> numbers;      // counters and gauges
  std::map<std::string, std::string> histos;  // rendered histograms
  std::vector<std::tuple<unsigned, int, std::uint64_t, SimTime>> spans;
  std::uint64_t events = 0;  // dispatched + skipped
  std::uint64_t skipped = 0;
};

using Body = std::function<void(Cluster&, std::vector<SimTime>&)>;

Outcome run(ClusterConfig cfg, bool stepping, const Body& body) {
  cfg.marcel.timeline = stepping;
  Cluster cluster(cfg);
  Outcome out;
  body(cluster, out.times);
  cluster.run();
  cluster.flush_observability();
  cluster.metrics().visit([&](const MetricsRegistry::View& v) {
    if (v.hist != nullptr) {
      out.histos[std::string(v.name)] = v.hist->render();
    } else {
      out.numbers[std::string(v.name)] = v.number;
    }
  });
  for (const tracing::Recorder* rec : cluster.trace_recorders()) {
    for (const tracing::Event& e : rec->events()) {
      out.spans.emplace_back(e.node, static_cast<int>(e.kind), e.span_id,
                             e.at);
    }
  }
  out.skipped = cluster.engine().events_skipped();
  out.events = cluster.engine().events_processed() + out.skipped;
  return out;
}

/// Runs `body` stepping and quiescent; returns how many events the
/// quiescent run skipped.
std::uint64_t expect_parity(const ClusterConfig& cfg, const Body& body,
                            const std::string& what) {
  const Outcome step = run(cfg, /*stepping=*/true, body);
  const Outcome quiet = run(cfg, /*stepping=*/false, body);
  EXPECT_EQ(step.skipped, 0u) << what;
  EXPECT_EQ(quiet.times, step.times) << what;
  EXPECT_EQ(quiet.numbers, step.numbers) << what;
  EXPECT_EQ(quiet.histos, step.histos) << what;
  EXPECT_EQ(quiet.spans, step.spans) << what;
  EXPECT_EQ(quiet.events, step.events) << what;
  if (::testing::Test::HasFailure()) {
    for (const auto& [name, v] : step.numbers) {
      const auto it = quiet.numbers.find(name);
      if (it == quiet.numbers.end() || it->second != v) {
        ADD_FAILURE() << what << ": " << name << " stepping " << v
                      << " quiescent "
                      << (it == quiet.numbers.end() ? -1 : it->second);
      }
    }
  }
  return quiet.skipped;
}

ClusterConfig base_config(unsigned nodes, unsigned cpus) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = cpus;
  cfg.pioman = true;
  cfg.tracing = true;  // nm request spans
  return cfg;
}

/// One poll round of the nm source alone: an ltask burn plus the gap.
SimDuration round_period(const ClusterConfig& cfg) {
  return cfg.piom.ltask_poll_cost + cfg.piom.poll_gap;
}

// ---------------------------------------------------------------- sweeps

// One eager message whose delivery sweeps every ns offset of a poll round,
// picked up by node 1's idle core while its only thread computes.
TEST(QuiescentPoll, IdlePollerPickupSweepsARound) {
  const ClusterConfig cfg = base_config(2, 2);
  std::uint64_t parked_runs = 0;
  for (SimDuration offset = 0; offset < round_period(cfg); ++offset) {
    const Body body = [offset](Cluster& c, std::vector<SimTime>& times) {
      static std::vector<std::byte> tx(64, std::byte{7});
      static std::vector<std::byte> rx(64);
      c.run_on(
          1,
          [&c, &times] {
            nm::Request* r = c.comm(1).irecv(0, 7, rx);
            c.comm(1).set_continuation(r, [&c, &times] {
              times.push_back(c.now());
            });
            compute(40 * kUs);  // busy: the idle core takes the packet
          },
          "receiver", 0);
      c.run_on(0, [&c, offset] {
        compute(10 * kUs + offset);
        c.comm(0).wait(c.comm(0).isend(1, 7, tx));
      });
    };
    if (expect_parity(cfg, body, "offset " + std::to_string(offset)) > 0) {
      ++parked_runs;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(parked_runs, round_period(cfg));
}

// The same sweep against a thread spinning in piom::Cond::wait on a core of
// its own (no idle core): its gaps are app time, its burns engine time.
TEST(QuiescentPoll, CondSpinnerPickupSweepsARound) {
  const ClusterConfig cfg = base_config(2, 1);
  std::uint64_t parked_runs = 0;
  for (SimDuration offset = 0; offset < round_period(cfg); ++offset) {
    const Body body = [offset](Cluster& c, std::vector<SimTime>& times) {
      static std::vector<std::byte> tx(64, std::byte{7});
      static std::vector<std::byte> rx(64);
      c.run_on(1, [&c, &times] {
        piom::Cond arrived(*c.server(1));
        nm::Request* r = c.comm(1).irecv(0, 7, rx);
        c.comm(1).set_continuation(r, [&arrived] { arrived.signal(); });
        arrived.wait();
        times.push_back(c.now());
      });
      c.run_on(0, [&c, offset] {
        compute(10 * kUs + offset);
        c.comm(0).wait(c.comm(0).isend(1, 7, tx));
      });
    };
    if (expect_parity(cfg, body, "offset " + std::to_string(offset)) > 0) {
      ++parked_runs;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(parked_runs, round_period(cfg));
}

// A timed wait whose deadline sweeps a round: the spinner must time out at
// the first round start at or after the deadline, as stepping does.
TEST(QuiescentPoll, WaitForDeadlineSweepsARound) {
  const ClusterConfig cfg = base_config(1, 1);
  for (SimDuration offset = 0; offset < round_period(cfg); ++offset) {
    const Body body = [offset](Cluster& c, std::vector<SimTime>& times) {
      c.run_on(0, [&c, &times, offset] {
        piom::Cond never(*c.server(0));
        EXPECT_EQ(never.wait_for(20 * kUs + offset), Status::kTimedOut);
        times.push_back(c.now());
      });
    };
    const std::string what = "offset " + std::to_string(offset);
    const Outcome step = run(cfg, /*stepping=*/true, body);
    const Outcome quiet = run(cfg, /*stepping=*/false, body);
    EXPECT_EQ(quiet.times, step.times) << what;
    EXPECT_EQ(quiet.numbers, step.numbers) << what;
    EXPECT_GT(quiet.skipped, 0u) << what;
    // The deadline alarm is the one event stepping does not have.
    EXPECT_EQ(quiet.events, step.events + 1) << what;
    if (::testing::Test::HasFailure()) return;
  }
}

// A source detached while a Cond spinner sits parked inside a round's
// burns is tombstoned; the resumed spinner must finish that round from the
// source it was burning for, whichever of three sources goes and wherever
// in the round the detach lands.
TEST(QuiescentPoll, DetachInsideAParkedRoundResumesAtItsSource) {
  using Polls = std::vector<std::pair<int, SimTime>>;
  const piom::Config pcfg;
  const SimDuration period = 3 * pcfg.ltask_poll_cost + pcfg.poll_gap;
  std::uint64_t parked_runs = 0;
  const auto run_once = [&](bool stepping, int victim, SimDuration offset) {
    sim::Engine eng;
    Polls polls;
    marcel::Config mcfg;
    mcfg.nodes = 1;
    mcfg.cpus_per_node = 1;
    mcfg.timeline = stepping;
    marcel::Runtime rt(eng, mcfg);
    piom::Server server(rt.node(0), pcfg);
    std::vector<piom::Server::Attachment> sources;
    for (int i = 0; i < 3; ++i) {
      sources.push_back(server.attach({
          .poll =
              [&polls, &eng, i](marcel::Cpu&) {
                polls.emplace_back(i, eng.now());
                return false;
              },
          .quiescent = true,
      }));
    }
    piom::Cond cond(server);
    rt.node(0).spawn([&] { cond.wait(); });
    // A parked spinner runs no polls: compare from the detach on.
    const SimTime detach_at = 20 * kUs + offset;
    eng.schedule_at(detach_at, [&] {
      polls.clear();
      sources[victim].reset();
    });
    eng.schedule_at(30 * kUs, [&] { cond.signal(); });
    eng.run();
    EXPECT_FALSE(stepping && eng.events_skipped() > 0);
    if (eng.events_skipped() > 0) ++parked_runs;
    polls.emplace_back(-1, static_cast<SimTime>(server.stats().poll_rounds));
    polls.emplace_back(-2, eng.events_processed() + eng.events_skipped());
    // The resumed round and the stepped one after it (the wake changed
    // what the spinner observed), then the totals.
    Polls out;  // the teardown below may still poll
    for (const auto& [who, at] : polls) {
      if (who < 0 || at < detach_at + period) out.emplace_back(who, at);
    }
    return out;
  };
  for (int victim = 0; victim < 3; ++victim) {
    for (SimDuration offset = 0; offset < period; ++offset) {
      EXPECT_EQ(run_once(false, victim, offset), run_once(true, victim, offset))
          << "source " << victim << " detached at +" << offset << " ns";
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(parked_runs, 3 * period);
}

// --------------------------------------------------------------- scenarios

// The halo_allreduce shape: fenced RMA puts to both ring neighbours, then
// an iallreduce overlapped with compute and a coll.wait spin.
TEST(QuiescentPoll, CollAndRmaHaloMatchesStepping) {
  ClusterConfig cfg = base_config(4, 2);
  cfg.rma = true;
  const Body body = [](Cluster& c, std::vector<SimTime>& times) {
    for (unsigned r = 0; r < c.nodes(); ++r) {
      c.run_on(r, [&c, &times, r] {
        nm::rma::Engine& rma = c.rma(r);
        std::vector<std::byte> window(2 * 1024);
        const std::vector<std::byte> halo(1024, std::byte(r + 1));
        const nm::rma::WinId win = rma.win_create(window);
        std::vector<double> data(4096, 1.0 + r);
        for (int it = 0; it < 2; ++it) {
          rma.fence(win);
          EXPECT_EQ(rma.put(win, (r + 1) % c.nodes(), 0, halo), Status::kOk);
          EXPECT_EQ(rma.put(win, (r + c.nodes() - 1) % c.nodes(), 1024, halo),
                    Status::kOk);
          rma.fence(win);
          nm::coll::CollRequest* req = c.coll(r).iallreduce_sum(data);
          compute(30 * kUs + r * 700);
          c.coll(r).wait(req);
          times.push_back(c.now());
        }
      });
    }
  };
  EXPECT_GT(expect_parity(cfg, body, "halo"), 0u);
}

// A rendezvous whose receiver node has every core computing: the server
// switches to the blocking LWP, which preempts a computing thread.
TEST(QuiescentPoll, BlockingLwpRendezvousMatchesStepping) {
  const ClusterConfig cfg = base_config(2, 2);
  const Body body = [](Cluster& c, std::vector<SimTime>& times) {
    static std::vector<std::byte> tx(256 * 1024, std::byte{3});
    static std::vector<std::byte> rx(256 * 1024);
    c.run_on(
        1,
        [&c, &times] {
          nm::Request* r = c.comm(1).irecv(0, 9, rx);
          compute(300 * kUs);
          c.comm(1).wait(r);
          times.push_back(c.now());
        },
        "receiver", 0);
    c.run_on(1, [] { compute(300 * kUs); }, "busy", 1);
    c.run_on(0, [&c, &times] {
      compute(20 * kUs);
      c.comm(0).wait(c.comm(0).isend(1, 9, tx));
      times.push_back(c.now());
    });
  };
  expect_parity(cfg, body, "rendezvous");
  const Outcome step = run(cfg, /*stepping=*/true, body);
  EXPECT_GT(step.numbers.at("node1/piom/interrupts"), 0.0)
      << "the scenario must exercise the blocking LWP";
}

// RPC fan-out: node 0 calls a service on every other node and waits for
// all of them on one completion.
TEST(QuiescentPoll, RpcFanOutMatchesStepping) {
  ClusterConfig cfg = base_config(4, 2);
  cfg.rpc = true;
  constexpr std::uint32_t kWork = 1;
  const Body body = [](Cluster& c, std::vector<SimTime>& times) {
    for (unsigned n = 0; n < c.nodes(); ++n) {
      c.rpc(n).register_service(kWork, [](rpc::Context& ctx) {
        const rpc::CompletionRef done = ctx.args().completion();
        compute(5 * kUs);
        ctx.engine().signal(done);
      });
    }
    c.run_on(0, [&c, &times] {
      rpc::Completion all(c.rpc(0), c.nodes() - 1);
      for (unsigned n = 1; n < c.nodes(); ++n) {
        c.rpc(0).call(n, kWork, [&all](rpc::ArgWriter& w) {
          w.completion(all.ref());
        });
      }
      all.wait();
      times.push_back(c.now());
    });
  };
  expect_parity(cfg, body, "rpc");
}

// Two sender/receiver thread pairs over sharded matching with per-core
// endpoints (the msg_rate shape): every core polls its own rail first.
TEST(QuiescentPoll, ShardedMessageRateMatchesStepping) {
  ClusterConfig cfg = base_config(2, 8);
  cfg.nm.offload_min_bytes = 1 << 20;
  cfg.nm.match_shards = 16;
  cfg.nm.per_core_endpoints = true;
  const Body body = [](Cluster& c, std::vector<SimTime>& times) {
    static std::vector<std::vector<std::byte>> tx, rx;
    tx.assign(2, std::vector<std::byte>(64, std::byte{0x5a}));
    rx.assign(2, std::vector<std::byte>(64));
    for (unsigned p = 0; p < 2; ++p) {
      const nm::Tag tag = 1 + p * 1000;
      const int cpu = static_cast<int>(p);
      c.run_on(
          0,
          [&c, p, tag] {
            for (int i = 0; i < 20; ++i) {
              c.comm(0).wait(c.comm(0).isend(1, tag, tx[p]));
            }
          },
          "send", cpu);
      c.run_on(
          1,
          [&c, &times, p, tag] {
            for (int i = 0; i < 20; ++i) {
              c.comm(1).wait(c.comm(1).irecv(0, tag, rx[p]));
            }
            times.push_back(c.now());
          },
          "recv", cpu);
    }
  };
  expect_parity(cfg, body, "msg rate");
}

// Wake-ups that land on parked pollers: node 1's idle core (armed by a
// pending receive) and its thread spinning in Cond::wait get a tasklet
// each, then a realtime thread each (a hard resched), with timer ticks
// firing throughout, before the message finally arrives.
TEST(QuiescentPoll, TaskletAndRealtimeLandOnParkedPollers) {
  const ClusterConfig cfg = base_config(2, 2);
  const Body body = [](Cluster& c, std::vector<SimTime>& times) {
    static std::vector<std::byte> tx(64, std::byte{5});
    static std::vector<std::byte> rx(64);
    static std::vector<std::unique_ptr<marcel::Tasklet>> tasklets;
    tasklets.clear();
    for (unsigned i = 0; i < 2; ++i) {
      tasklets.push_back(std::make_unique<marcel::Tasklet>(
          [&c, &times] {
            compute(700);
            times.push_back(c.now());
          },
          "probe"));
    }
    marcel::Node& node = c.node(1);
    c.run_on(
        1,
        [&c, &times] {
          piom::Cond arrived(*c.server(1));
          nm::Request* r = c.comm(1).irecv(0, 4, rx);
          c.comm(1).set_continuation(r, [&arrived] { arrived.signal(); });
          arrived.wait();
          times.push_back(c.now());
        },
        "waiter", 0);
    for (unsigned cpu = 0; cpu < 2; ++cpu) {
      c.engine().schedule_at(150 * kUs + cpu * 20 * kUs, [&node, cpu] {
        tasklets[cpu]->schedule_on(node.cpu(cpu));
      });
      c.engine().schedule_at(250 * kUs + cpu * 20 * kUs,
                             [&node, &c, &times, cpu] {
                               node.spawn(
                                   [&c, &times] {
                                     compute(2 * kUs);
                                     times.push_back(c.now());
                                   },
                                   marcel::Priority::kRealtime, "rt",
                                   static_cast<int>(cpu));
                             });
    }
    c.run_on(0, [&c] {
      compute(350 * kUs);
      c.comm(0).wait(c.comm(0).isend(1, 4, tx));
    });
  };
  EXPECT_GT(expect_parity(cfg, body, "wakeups"), 0u);
}

}  // namespace
}  // namespace pm2
