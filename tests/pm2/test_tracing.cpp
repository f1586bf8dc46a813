// Causal-tracing subsystem (pm2/tracing): namespaced flow ids, the event
// kind tables, end-to-end trace assembly over real clusters — local calls,
// a 3-hop forwarded-completion chain, collective schedule DAGs — the
// critical path's exact e2e reconstruction, same-fuzz-seed determinism,
// and the zero-virtual-time guarantee (traced and untraced runs finish at
// the identical simulated instant).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "pm2/cluster.hpp"
#include "pm2/completion.hpp"
#include "pm2/rpc.hpp"
#include "pm2/tracing/assembly.hpp"
#include "pm2/tracing/requests.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
namespace {

using rpc::Completion;
using rpc::CompletionRef;

constexpr std::uint32_t kTouch = 1;  // signals the completion
constexpr std::uint32_t kHop = 2;    // forwards the completion N more hops

ClusterConfig traced_config(unsigned nodes, bool pioman,
                            std::uint64_t fuzz_seed = 0) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = pioman;
  cfg.rpc = true;
  cfg.tracing = true;
  cfg.fuzz_seed = fuzz_seed;
  return cfg;
}

/// Structural invariants every assembled trace must satisfy: unique span
/// ids, parents resolving within the trace, a single root, every span
/// closed when the trace claims completeness.
void check_tree(const tracing::TraceView& t) {
  std::vector<std::uint64_t> ids;
  unsigned roots = 0;
  for (const tracing::SpanView& s : t.spans) {
    for (const std::uint64_t id : ids) EXPECT_NE(id, s.id) << "dup span";
    ids.push_back(s.id);
    if (s.parent == 0) {
      ++roots;
    } else {
      bool found = false;
      for (const tracing::SpanView& p : t.spans) found |= p.id == s.parent;
      EXPECT_TRUE(found) << "span " << s.id << " parent " << s.parent
                         << " not in trace " << t.id;
    }
    if (t.complete) {
      EXPECT_TRUE(s.closed) << "span " << s.id;
    }
    EXPECT_LE(s.begin, s.end) << "span " << s.id;
  }
  EXPECT_EQ(roots, 1u) << "trace " << t.id;
}

/// The telescoping-chain property: contiguous segments covering exactly
/// [begin, end], so their durations sum to e2e with zero error.
void check_critical_path(const tracing::TraceView& t) {
  ASSERT_FALSE(t.critical_path.empty()) << "trace " << t.id;
  EXPECT_EQ(t.critical_path.front().from, t.begin);
  EXPECT_EQ(t.critical_path.back().to, t.end);
  SimDuration sum = 0;
  for (std::size_t i = 0; i < t.critical_path.size(); ++i) {
    const tracing::Segment& seg = t.critical_path[i];
    EXPECT_LE(seg.from, seg.to) << "segment " << seg.name;
    if (i + 1 < t.critical_path.size()) {
      EXPECT_EQ(seg.to, t.critical_path[i + 1].from) << "gap after "
                                                     << seg.name;
    }
    sum += seg.ns();
  }
  EXPECT_EQ(sum, t.e2e_ns()) << "trace " << t.id;
}

// ------------------------------------------------------ kind-table sanity

TEST(EventKinds, ClosingKindsMatchOpeningKinds) {
  using tracing::EventKind;
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kCallIssued),
            EventKind::kSendDone);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kWireRx),
            EventKind::kHandlerEnd);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kSignalSent),
            EventKind::kSignalDelivered);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kCollStart),
            EventKind::kCollDone);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kCollOpIssued),
            EventKind::kCollOpDone);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kRmaEpochStart),
            EventKind::kRmaEpochEnd);
  EXPECT_EQ(tracing::closing_kind_for(EventKind::kRmaOpIssued),
            EventKind::kRmaOpDone);
  for (std::size_t i = 0; i < tracing::kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    EXPECT_FALSE(tracing::opens_span(k) && tracing::closes_span(k));
    if (tracing::opens_span(k)) {
      EXPECT_TRUE(tracing::closes_span(tracing::closing_kind_for(k)));
      EXPECT_STRNE(tracing::span_kind_name(k), "");
    }
    EXPECT_STRNE(tracing::event_kind_name(k), "");
  }
}

// ------------------------------------------------------------ local call

using Param = bool;  // pioman

class TracedWorld : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] bool pioman() const { return GetParam(); }
};

TEST_P(TracedWorld, LocalCallAssemblesOneCompleteTrace) {
  Cluster cluster(traced_config(2, pioman()));
  cluster.rpc(0).register_service(kTouch, [&](rpc::Context& ctx) {
    ctx.engine().signal(ctx.args().completion());
  });
  cluster.run_on(0, [&] {
    rpc::Engine& eng = cluster.rpc(0);
    Completion c(eng);
    eng.call(0, kTouch, [&](rpc::ArgWriter& w) { w.completion(c.ref()); });
    c.wait();
  });
  cluster.run();

  const auto recs = cluster.trace_recorders();
  const tracing::Assembly a = tracing::assemble(recs);
  ASSERT_EQ(a.traces.size(), 1u);
  EXPECT_EQ(a.open_spans, 0u);
  const tracing::TraceView& t = a.traces[0];
  EXPECT_STREQ(t.kind, "rpc");
  EXPECT_TRUE(t.complete);
  ASSERT_EQ(t.spans.size(), 3u);  // rpc.call + rpc.server + rpc.signal
  check_tree(t);
  check_critical_path(t);
}

// --------------------------------------- 3-hop forwarded completion chain

TEST_P(TracedWorld, ThreeHopForwardedCompletionIsOneTraceTree) {
  // 0 calls 1, whose handler forwards the completion ref to 2, whose
  // handler forwards to 3, whose handler signals: one trace spanning all
  // four nodes, with each hop's spans parented into a single tree.
  Cluster cluster(traced_config(4, pioman()));
  for (unsigned n = 1; n < cluster.nodes(); ++n) {
    cluster.rpc(n).register_service(kHop, [&, n](rpc::Context& ctx) {
      const std::uint32_t hops = ctx.args().u32();
      const CompletionRef done = ctx.args().completion();
      rpc::Engine& eng = ctx.engine();
      if (hops == 0) {
        eng.signal(done);
        return;
      }
      eng.call(n + 1, kHop, [&](rpc::ArgWriter& w) {
        w.u32(hops - 1);
        w.completion(done);
      });
    });
  }
  cluster.run_on(0, [&] {
    rpc::Engine& eng = cluster.rpc(0);
    Completion c(eng);
    eng.call(1, kHop, [&](rpc::ArgWriter& w) {
      w.u32(2);
      w.completion(c.ref());
    });
    c.wait();
    EXPECT_TRUE(c.done());
  });
  if (!pioman()) {
    for (unsigned n = 1; n < cluster.nodes(); ++n) {
      cluster.run_on(n,
                     [&, n] { cluster.rpc(n).serve_until_handlers_done(1); },
                     "server");
    }
  }
  cluster.run();

  const auto recs = cluster.trace_recorders();
  const tracing::Assembly a = tracing::assemble(recs);
  ASSERT_EQ(a.traces.size(), 1u);
  EXPECT_EQ(a.open_spans, 0u);
  const tracing::TraceView& t = a.traces[0];
  EXPECT_TRUE(t.complete);
  EXPECT_EQ(t.root_node, 0u);
  // 3 x rpc.call + 3 x rpc.server + 1 x rpc.signal.
  ASSERT_EQ(t.spans.size(), 7u);
  unsigned calls = 0, servers = 0, signals = 0;
  std::vector<unsigned> nodes_seen;
  for (const tracing::SpanView& s : t.spans) {
    switch (s.open_kind) {
      case tracing::EventKind::kCallIssued: ++calls; break;
      case tracing::EventKind::kWireRx: ++servers; break;
      case tracing::EventKind::kSignalSent: ++signals; break;
      default: ADD_FAILURE() << "unexpected span kind"; break;
    }
    nodes_seen.push_back(s.node);
  }
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(servers, 3u);
  EXPECT_EQ(signals, 1u);
  for (unsigned n = 0; n < 4; ++n) {
    EXPECT_NE(std::count(nodes_seen.begin(), nodes_seen.end(), n), 0)
        << "no span opened on node " << n;
  }
  check_tree(t);
  check_critical_path(t);

  // The recorders' own accounting agrees: every opened span closed.
  std::uint64_t opened = 0, closed = 0;
  for (const tracing::Recorder* r : recs) {
    opened += r->counters().spans_opened;
    closed += r->counters().spans_closed;
  }
  EXPECT_EQ(opened, closed);
  EXPECT_EQ(opened, 7u);
}

// --------------------------------------------------- collective DAG trace

TEST_P(TracedWorld, CollectiveDagOpsParentToTheirRankRoot) {
  Cluster cluster(traced_config(4, pioman()));
  std::vector<std::vector<double>> data(4);
  for (unsigned r = 0; r < 4; ++r) {
    data[r].assign(64, static_cast<double>(r + 1));
    cluster.run_on(r, [&, r] {
      nm::coll::CollRequest* req = cluster.coll(r).iallreduce_sum(data[r]);
      cluster.coll(r).wait(req);
    });
  }
  cluster.run();
  for (unsigned r = 0; r < 4; ++r) EXPECT_EQ(data[r][0], 10.0);

  const auto recs = cluster.trace_recorders();
  const tracing::Assembly a = tracing::assemble(recs);
  EXPECT_EQ(a.open_spans, 0u);
  ASSERT_EQ(a.traces.size(), 4u);  // one schedule-DAG trace per rank
  for (const tracing::TraceView& t : a.traces) {
    EXPECT_STREQ(t.kind, "coll");
    EXPECT_TRUE(t.complete);
    check_tree(t);
    ASSERT_GE(t.spans.size(), 2u);
    const tracing::SpanView& root = t.spans[0];
    EXPECT_EQ(root.open_kind, tracing::EventKind::kCollStart);
    EXPECT_EQ(root.parent, 0u);
    for (std::size_t i = 1; i < t.spans.size(); ++i) {
      EXPECT_EQ(t.spans[i].open_kind, tracing::EventKind::kCollOpIssued);
      EXPECT_EQ(t.spans[i].parent, root.id) << "DAG op not parented to the "
                                               "rank's coll root";
      EXPECT_TRUE(t.spans[i].closed);
    }
  }
}

TEST_P(TracedWorld, CollectiveRequestSpansParentToTheirDagOps) {
  // The lineage the collective engine stages with Core::set_next_trace:
  // every nm request a DAG send/recv op posts records an nm.send / nm.recv
  // span in the collective's trace, parented to that op's coll.op span.
  Cluster cluster(traced_config(4, pioman()));
  std::vector<std::vector<double>> data(4);
  for (unsigned r = 0; r < 4; ++r) {
    data[r].assign(64, static_cast<double>(r + 1));
    cluster.run_on(r, [&, r] {
      nm::coll::CollRequest* req = cluster.coll(r).iallreduce_sum(data[r]);
      cluster.coll(r).wait(req);
    });
  }
  cluster.run();

  const auto recs = cluster.trace_recorders();
  const tracing::Assembly a = tracing::assemble(recs);
  const std::vector<tracing::RequestSpan> reqs = tracing::request_spans(recs);
  ASSERT_EQ(a.traces.size(), 4u);
  std::uint64_t children = 0;
  for (const tracing::TraceView& t : a.traces) {
    // coll.op span id -> its op kind (service) and request-span children.
    std::map<std::uint64_t, std::pair<std::uint32_t, unsigned>> ops;
    for (const tracing::SpanView& s : t.spans) {
      if (s.open_kind == tracing::EventKind::kCollOpIssued) {
        ops[s.id] = {s.service, 0};
      }
    }
    for (const tracing::RequestSpan& r : reqs) {
      if (r.life.trace != t.id) continue;
      const auto it = ops.find(r.life.parent);
      ASSERT_NE(it, ops.end())
          << "request span of trace " << t.id << " not under a coll.op";
      // A send op posts an isend, a recv op an irecv.
      const auto kind = static_cast<nm::coll::Op::Kind>(it->second.first);
      EXPECT_EQ(r.send(), kind == nm::coll::Op::Kind::kSend);
      EXPECT_EQ(r.node, t.root_node);
      ++it->second.second;
      ++children;
    }
    for (const auto& [id, op] : ops) {
      const auto kind = static_cast<nm::coll::Op::Kind>(op.first);
      const bool posts = kind == nm::coll::Op::Kind::kSend ||
                         kind == nm::coll::Op::Kind::kRecv;
      EXPECT_EQ(op.second, posts ? 1u : 0u) << "coll.op span " << id;
    }
  }
  EXPECT_GT(children, 0u);
  EXPECT_EQ(tracing::unparented_requests(reqs, a), 0u);
}

// -------------------------------------------- same-fuzz-seed determinism

TEST_P(TracedWorld, SameFuzzSeedYieldsIdenticalEventStreams) {
  using Tuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int,
                           std::uint32_t, unsigned, SimTime>;
  const auto run_once = [&]() {
    Cluster cluster(traced_config(3, pioman(), /*fuzz_seed=*/42));
    for (unsigned n = 0; n < 3; ++n) {
      cluster.rpc(n).register_service(kTouch, [](rpc::Context& ctx) {
        ctx.engine().signal(ctx.args().completion());
      });
    }
    for (unsigned n = 0; n < 3; ++n) {
      cluster.run_on(n, [&, n] {
        rpc::Engine& eng = cluster.rpc(n);
        for (int i = 0; i < 4; ++i) {
          Completion c(eng);
          eng.call((n + 1) % 3, kTouch,
                   [&](rpc::ArgWriter& w) { w.completion(c.ref()); });
          c.wait();
        }
        if (!pioman()) eng.serve_until_handlers_done(4);
      });
    }
    cluster.run();
    std::vector<Tuple> out;
    for (unsigned n = 0; n < 3; ++n) {
      for (const tracing::Event& e : cluster.trace_recorder(n)->events()) {
        out.emplace_back(e.trace_id, e.span_id, e.parent_span_id,
                         static_cast<int>(e.kind), e.service, e.node, e.at);
      }
    }
    return out;
  };
  const std::vector<Tuple> first = run_once();
  const std::vector<Tuple> second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- zero virtual-time cost

TEST_P(TracedWorld, TracingChargesNoVirtualTime) {
  const auto finish_time = [&](bool traced) {
    ClusterConfig cfg = traced_config(2, pioman());
    cfg.tracing = traced;
    Cluster cluster(cfg);
    cluster.rpc(1).register_service(kTouch, [](rpc::Context& ctx) {
      ctx.engine().signal(ctx.args().completion());
    });
    cluster.run_on(0, [&] {
      rpc::Engine& eng = cluster.rpc(0);
      for (int i = 0; i < 8; ++i) {
        Completion c(eng);
        eng.call(1, kTouch,
                 [&](rpc::ArgWriter& w) { w.completion(c.ref()); });
        c.wait();
      }
    });
    if (!pioman()) {
      cluster.run_on(1,
                     [&] { cluster.rpc(1).serve_until_handlers_done(8); },
                     "server");
    }
    cluster.run();
    return cluster.now();
  };
  const SimTime untraced = finish_time(false);
  const SimTime traced = finish_time(true);
  EXPECT_EQ(untraced, traced)
      << "tracing must not perturb the simulated schedule";
}

INSTANTIATE_TEST_SUITE_P(Modes, TracedWorld, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<Param>& pinfo) {
                           return pinfo.param ? "Pioman" : "AppDriven";
                         });

}  // namespace
}  // namespace pm2
