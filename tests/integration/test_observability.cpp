// Request spans + attribution + metrics.json, end to end: stage-ordering
// invariants over the recorded nm.send / nm.recv span events (also under
// fault-injected retransmits), retransmit attribution, the offload
// critical-path claim, and the exported artefacts' validity.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "nmad/reliable.hpp"
#include "pm2/cluster.hpp"
#include "pm2/report.hpp"

namespace pm2 {
namespace {

/// Symmetric ping-pong with overlap compute, the Fig. 4 kernel shape.
void run_pingpong(Cluster& cluster, std::size_t size, int iters,
                  SimDuration comp = 20 * kUs) {
  static std::vector<std::byte> data0, data1, rx0, rx1;
  data0.assign(size, std::byte{0xa5});
  data1.assign(size, std::byte{0x5a});
  rx0.assign(size, std::byte{0});
  rx1.assign(size, std::byte{0});
  cluster.run_on(0, [&cluster, iters, comp] {
    for (int i = 0; i < iters; ++i) {
      nm::Request* s = cluster.comm(0).isend(1, 1, data0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(s);
      nm::Request* r = cluster.comm(0).irecv(1, 2, rx0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(r);
    }
  });
  cluster.run_on(1, [&cluster, iters, comp] {
    for (int i = 0; i < iters; ++i) {
      nm::Request* r = cluster.comm(1).irecv(0, 1, rx1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(r);
      nm::Request* s = cluster.comm(1).isend(0, 2, data1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(s);
    }
  });
  cluster.run();
}

using tracing::EventKind;
using tracing::Stage;

/// The stage-ordering invariant, checked over each request span's events.
/// Three chains rather than one linear order, because unexpected messages
/// hit the wire before the matching irecv is posted, and wait() may begin
/// before or after completion:
///   posted ≤ enqueued ≤ offload-posted ≤ pickup ≤ injected ≤ completed
///   wire-rx ≤ matched ≤ completed ≤ woken
///   posted ≤ wait-enter ≤ woken
/// Every span opens with its posted event, closes with nm-released no
/// earlier than any of its stages, and carries its node's identity.
void expect_all_ordered(Cluster& cluster) {
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const tracing::Recorder* rec = cluster.trace_recorder(n);
    ASSERT_NE(rec, nullptr);
    // Rebuild each span's stage stamps from its own events.
    std::vector<std::array<SimTime, tracing::kStageCount>> spans;
    std::uint64_t open_span = 0;
    for (const tracing::Event& e : rec->events()) {
      if (!tracing::is_request_kind(e.kind) ||
          e.kind == EventKind::kNmRetransmit) {
        continue;
      }
      EXPECT_EQ(e.node, n);
      if (tracing::opens_span(e.kind)) {
        EXPECT_EQ(open_span, 0u) << "span opened inside another";
        open_span = e.span_id;
        spans.emplace_back();
        spans.back()[0] = e.at;
        continue;
      }
      ASSERT_EQ(e.span_id, open_span) << "event outside its span";
      const std::size_t i = spans.size() - 1;
      if (e.kind == EventKind::kNmReleased) {
        for (const SimTime t : spans.back()) {
          EXPECT_LE(t, e.at) << "node " << n << " span " << i
                             << " released before one of its stages";
        }
        open_span = 0;
        continue;
      }
      for (std::size_t s = 1; s < tracing::kStageCount; ++s) {
        if (tracing::stage_kind(static_cast<Stage>(s)) == e.kind) {
          EXPECT_EQ(spans.back()[s], 0u) << "stage recorded twice";
          spans.back()[s] = e.at;
        }
      }
    }
    EXPECT_EQ(open_span, 0u) << "span never closed";
    EXPECT_GT(spans.size(), 0u);
    EXPECT_EQ(spans.size(), rec->counters().requests);
    const auto chain_ok = [](const auto& t, std::initializer_list<Stage> c) {
      SimTime prev = 0;
      for (const Stage s : c) {
        const SimTime ts = t[static_cast<std::size_t>(s)];
        if (ts == 0) continue;  // stage not visited
        if (ts < prev) return false;
        prev = ts;
      }
      return true;
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& t = spans[i];
      EXPECT_NE(t[static_cast<std::size_t>(Stage::kPosted)], 0u)
          << "span " << i;
      EXPECT_NE(t[static_cast<std::size_t>(Stage::kCompleted)], 0u)
          << "span " << i;
      EXPECT_TRUE(
          chain_ok(t, {Stage::kPosted, Stage::kEnqueued, Stage::kOffloadPosted,
                       Stage::kPickup, Stage::kInjected, Stage::kCompleted}) &&
          chain_ok(t, {Stage::kWireRx, Stage::kMatched, Stage::kCompleted,
                       Stage::kWoken}) &&
          chain_ok(t, {Stage::kPosted, Stage::kWaitEnter, Stage::kWoken}))
          << "node " << n << " span " << i << " violates stage ordering";
    }
  }
}

TEST(Observability, FlightRecordsObeyStageOrdering) {
  ClusterConfig cfg;
  cfg.tracing = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 6);        // eager path
  EXPECT_EQ(cluster.trace_recorder(0)->node(), 0u);
  expect_all_ordered(cluster);
}

TEST(Observability, RendezvousFlightsAlsoOrdered) {
  ClusterConfig cfg;
  cfg.tracing = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 128 * 1024, 4, 100 * kUs);  // above rdv threshold
  expect_all_ordered(cluster);
  // Rendezvous spans are flagged as such.
  bool saw_rdv = false;
  for (const tracing::RequestSpan& r :
       tracing::request_spans(cluster.trace_recorders())) {
    saw_rdv = saw_rdv || (r.life.flags & tracing::kNmRdv) != 0;
  }
  EXPECT_TRUE(saw_rdv);
}

TEST(Observability, OrderingHoldsUnderFaultInjectedRetransmits) {
  ClusterConfig cfg;
  cfg.tracing = true;
  cfg.nm.reliable = true;
  cfg.faults.defaults.drop = 0.15;
  cfg.faults.defaults.duplicate = 0.10;
  cfg.faults.defaults.corrupt = 0.05;
  Cluster cluster(cfg);
  run_pingpong(cluster, 2048, 20);
  // The plan is aggressive enough that this seed certainly retransmits.
  std::uint64_t retransmits = 0;
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    retransmits += cluster.comm(n).reliability()->stats().retransmits;
  }
  EXPECT_GT(retransmits, 0u);
  // Duplicate arrivals and retransmissions must not move first-write
  // stamps: every recorded span still satisfies the stage chains.
  expect_all_ordered(cluster);
}

TEST(Observability, RetransmitsAreAttributedToTheirRequests) {
  ClusterConfig cfg;
  cfg.tracing = true;
  cfg.nm.reliable = true;
  cfg.faults.defaults.drop = 0.15;
  Cluster cluster(cfg);
  run_pingpong(cluster, 2048, 20);
  std::uint64_t retransmits = 0;
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    retransmits += cluster.comm(n).reliability()->stats().retransmits;
  }
  ASSERT_GT(retransmits, 0u);
  const tracing::Attribution a = cluster.attribution();
  EXPECT_GT(a.retransmitted, 0u);
  EXPECT_LE(a.retransmitted, a.sends + a.recvs);
  // Each retransmitted request was re-sent at least once.
  EXPECT_LE(a.retransmitted, retransmits);
  // The registry and the report carry the same count.
  EXPECT_NE(format_report(cluster).find(
                std::to_string(a.retransmitted) + " retransmitted"),
            std::string::npos);
  EXPECT_EQ(cluster.metrics().value("attribution/retransmitted"),
            static_cast<double>(a.retransmitted));
}

TEST(Observability, OffloadLowersCriticalPath) {
  const auto run_mode = [](bool pioman) {
    ClusterConfig cfg;
    cfg.pioman = pioman;
    cfg.tracing = true;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 8);
    return cluster.attribution();
  };
  const tracing::Attribution base = run_mode(false);
  const tracing::Attribution offl = run_mode(true);
  ASSERT_GT(base.sends, 0u);
  ASSERT_EQ(base.sends, offl.sends);  // identical workload
  EXPECT_EQ(base.offloaded, 0u);      // app-driven: nothing leaves the thread
  EXPECT_GT(offl.offloaded, 0u);
  EXPECT_LT(offl.crit_us.mean(), base.crit_us.mean());
  EXPECT_GT(offl.offl_us.mean(), 0.0);
  EXPECT_GT(base.pairs, 0u);
  EXPECT_GT(base.wire_us.mean(), 0.0);
}

TEST(Observability, EngineLockContentionIsProfiled) {
  ClusterConfig cfg;
  cfg.nm.engine_lock = true;  // the ablation lever: library lock in PIOMan
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 8);
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const std::string lock = "node" + std::to_string(n) + "/locks/engine";
    const double acq = m.value(lock + "/acq");
    const double contended = m.value(lock + "/contended");
    EXPECT_GT(acq, 0.0) << lock;
    EXPECT_GE(acq, contended) << lock;
    const Log2Histogram* wait = m.find_histogram(lock + "/wait_us");
    const Log2Histogram* hold = m.find_histogram(lock + "/hold_us");
    ASSERT_NE(wait, nullptr) << lock;
    ASSERT_NE(hold, nullptr) << lock;
    // Wait samples are recorded for contended acquisitions only; every
    // outermost release records a hold.
    EXPECT_EQ(static_cast<double>(wait->total()), contended) << lock;
    EXPECT_EQ(static_cast<double>(hold->total()), acq) << lock;
  }
  // The report surfaces the same numbers.
  EXPECT_NE(format_report(cluster).find("lock: engine"), std::string::npos);
}

// The lock model follows the progression mode: PIOMan runs per-event
// locks (one match shard by default, no library lock), app-driven runs
// behind the library-wide engine lock.  Either way the locks are profiled.
TEST(Observability, LockSitesFollowProgressionMode) {
  for (const bool pioman : {true, false}) {
    ClusterConfig cfg;
    cfg.pioman = pioman;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 8);
    cluster.flush_observability();
    const MetricsRegistry& m = cluster.metrics();
    for (unsigned n = 0; n < cluster.nodes(); ++n) {
      const std::string node = "node" + std::to_string(n);
      EXPECT_EQ(m.contains(node + "/locks/engine/acq"), !pioman) << node;
      EXPECT_EQ(m.contains(node + "/locks/shard0/acq"), pioman) << node;
      EXPECT_GT(m.value(node + (pioman ? "/locks/shard0/acq"
                                       : "/locks/engine/acq")),
                0.0)
          << node;
    }
    EXPECT_NE(format_report(cluster).find(pioman ? "lock: shard0"
                                                 : "lock: engine"),
              std::string::npos);
  }
}

TEST(Observability, LockProfileDeterministicUnderFuzzSeed) {
  // The library lock is taken on every progress round, so its counts
  // follow the fuzzed schedule; the PIOMan default's shard lock is
  // checked too.
  for (const bool engine_lock : {true, false}) {
    const std::string site = engine_lock ? "node0/locks/engine/"
                                         : "node0/locks/shard0/";
    const auto run_once = [&] {
      ClusterConfig cfg;
      cfg.fuzz_seed = 0xc0ffee;
      cfg.nm.engine_lock = engine_lock;
      Cluster cluster(cfg);
      run_pingpong(cluster, 4096, 8);
      cluster.flush_observability();
      return std::pair<double, double>{
          cluster.metrics().value(site + "acq"),
          cluster.metrics().value(site + "contended")};
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_GT(a.first, 0.0) << site;
    EXPECT_EQ(a.first, b.first) << site;
    EXPECT_EQ(a.second, b.second) << site;
  }
}

TEST(Observability, CoreStatesSumToSimTime) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 8);
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  static const char* kStates[] = {"idle", "app", "engine", "tasklet",
                                  "blocked"};
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    for (unsigned c = 0; c < cluster.node(n).cpu_count(); ++c) {
      const std::string p = "node" + std::to_string(n) + "/cpu" +
                            std::to_string(c) + "/state/";
      std::uint64_t sum = 0;
      for (const char* s : kStates) {
        sum += static_cast<std::uint64_t>(m.value(p + s + "_ns"));
      }
      EXPECT_EQ(sum, cluster.now()) << p;
    }
  }
  // The engine and tasklet buckets are exercised by a PIOMan run.
  EXPECT_GT(m.sum("node0/cpu", "/state/engine_ns"), 0u);
  EXPECT_GT(m.sum("node0/cpu", "/state/app_ns"), 0u);
}

TEST(Observability, MetricsJsonExportIsValid) {
  const std::string path = ::testing::TempDir() + "/pm2_metrics_test.json";
  {
    ClusterConfig cfg;
    cfg.tracing = true;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 4);
    ASSERT_TRUE(cluster.write_metrics_json(path));
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(json_valid(doc));
  EXPECT_NE(doc.find("\"schema\":\"pm2-metrics-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"attribution\""), std::string::npos);
  EXPECT_NE(doc.find("node0/nm/sends"), std::string::npos);
  EXPECT_NE(doc.find("attribution/critical_path_us_mean"),
            std::string::npos);
  // Every request span is counted in the tracing section: 4 iterations x
  // 2 nodes x (one send + one recv).
  EXPECT_NE(doc.find("\"requests\":{\"spans\":16,"), std::string::npos);
}

TEST(Observability, ReportReadsFromRegistry) {
  ClusterConfig cfg;
  cfg.tracing = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 4);
  const std::string report = format_report(cluster);
  EXPECT_NE(report.find("node 0:"), std::string::npos);
  EXPECT_NE(report.find("node 1:"), std::string::npos);
  EXPECT_NE(report.find("attribution:"), std::string::npos);
  EXPECT_NE(report.find("critical-path"), std::string::npos);
  // The report's numbers come from the registry; spot-check one against
  // the subsystem truth.
  EXPECT_EQ(cluster.metrics().value("node0/nm/sends"),
            static_cast<double>(cluster.comm(0).stats().sends));
}

TEST(Observability, ClusterTraceWithFlightIsValidJsonWithFlows) {
  ClusterConfig cfg;
  cfg.marcel.timeline = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 4);
  const std::string json = cluster.timeline().json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("nm:isend"), std::string::npos);
  EXPECT_NE(json.find("nm:inject"), std::string::npos);
}

}  // namespace
}  // namespace pm2
