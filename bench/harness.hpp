// Shared benchmark harness: the paper's Fig. 4 kernel, table printing, and
// the benchmark-trajectory JSON writer (pm2-bench-v1, consumed by
// tools/bench_compare.py and aggregated into BENCH_core.json).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "pm2/cluster.hpp"

namespace pm2::bench {

/// Cluster-wide observability capture for the trajectory records:
/// lock contention over every profiled site (the engine lock and each
/// matching shard's light lock) plus the per-core time-in-state totals.
struct ClusterObs {
  double sim_time_us = 0;
  double lock_acq = 0;          // acquisitions, summed over all lock sites
  double lock_contended = 0;    // ... of which hit the contended path
  double lock_wait_p99_us = 0;  // worst site's contended-wait p99
  double lock_hold_p99_us = 0;  // worst site's hold p99
  double app_us = 0;            // time-in-state totals, all cores all nodes
  double engine_us = 0;
  double tasklet_us = 0;
  double idle_us = 0;
  double blocked_us = 0;
};

inline ClusterObs observe(Cluster& cluster) {
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  ClusterObs o;
  o.sim_time_us = to_us(cluster.now());
  // Every nodeN/locks/<site> the profiler exported, engine and shard<s>
  // alike: a PIOMan run has no engine lock at all.
  m.visit([&o](const MetricsRegistry::View& v) {
    if (v.name.find("/locks/") == std::string_view::npos) return;
    if (v.name.ends_with("/acq")) o.lock_acq += v.number;
    if (v.name.ends_with("/contended")) o.lock_contended += v.number;
    if (v.hist == nullptr) return;
    if (v.name.ends_with("/wait_us")) {
      o.lock_wait_p99_us = std::max(o.lock_wait_p99_us, v.hist->percentile(99));
    }
    if (v.name.ends_with("/hold_us")) {
      o.lock_hold_p99_us = std::max(o.lock_hold_p99_us, v.hist->percentile(99));
    }
  });
  o.app_us = to_us(m.sum("node", "/state/app_ns"));
  o.engine_us = to_us(m.sum("node", "/state/engine_ns"));
  o.tasklet_us = to_us(m.sum("node", "/state/tasklet_ns"));
  o.idle_us = to_us(m.sum("node", "/state/idle_ns"));
  o.blocked_us = to_us(m.sum("node", "/state/blocked_ns"));
  return o;
}

/// Accumulates one benchmark's normalized records and writes them as a
/// pm2-bench-v1 document:
///   {"schema":"pm2-bench-v1","bench":<name>,
///    "records":[{"case":<c>,"metrics":{<key>:{"value":v,"gate":g}}}]}
/// gate is "lower" (regression when the value rises), "higher" (regression
/// when it falls), or "none" (informational only).
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void begin_case(std::string name) {
    records_.push_back({std::move(name), {}});
  }

  void metric(std::string key, double value, const char* gate = "none") {
    records_.back().metrics.push_back({std::move(key), value, gate});
  }

  /// The standard observability block every record carries: engine-lock
  /// contention and the per-core time-in-state breakdown (informational —
  /// the gated metrics are the bench's own latency/throughput numbers).
  void metrics_from(const ClusterObs& o) {
    metric("sim_time_us", o.sim_time_us);
    metric("lock_acq", o.lock_acq);
    metric("lock_contended", o.lock_contended);
    metric("lock_wait_p99_us", o.lock_wait_p99_us);
    metric("lock_hold_p99_us", o.lock_hold_p99_us);
    metric("core_app_us", o.app_us);
    metric("core_engine_us", o.engine_us);
    metric("core_tasklet_us", o.tasklet_us);
    metric("core_idle_us", o.idle_us);
    metric("core_blocked_us", o.blocked_us);
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"schema\":\"pm2-bench-v1\",\"bench\":\"%s\",",
                 bench_.c_str());
    std::fprintf(f, "\"records\":[");
    for (std::size_t r = 0; r < records_.size(); ++r) {
      const Record& rec = records_[r];
      std::fprintf(f, "%s{\"case\":\"%s\",\"metrics\":{", r ? "," : "",
                   rec.name.c_str());
      for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
        const Metric& mt = rec.metrics[i];
        std::fprintf(f, "%s\"%s\":{\"value\":%.6g,\"gate\":\"%s\"}",
                     i ? "," : "", mt.key.c_str(), mt.value,
                     mt.gate.c_str());
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
  }

 private:
  struct Metric {
    std::string key;
    double value;
    std::string gate;
  };
  struct Record {
    std::string name;
    std::vector<Metric> metrics;
  };
  std::string bench_;
  std::vector<Record> records_;
};

/// Result of running the Fig. 4 kernel.
struct Fig4Result {
  double send_us = 0;  // mean of sender's [isend; compute; swait]
  double recv_us = 0;  // mean of receiver's [irecv; compute; rwait]
  // Request-span attribution (see pm2/tracing/requests.hpp): mean
  // per-request microseconds serialized on the posting thread vs moved off
  // it (0 when the run did not record).
  double crit_us = 0;
  double offl_us = 0;
};

/// The benchmark of §4.1/§4.2 (Fig. 4): a symmetric ping-pong where each
/// side runs `isend(len); compute(comp); swait()` and the mirrored receive.
/// `pioman` selects the multithreaded engine vs the app-driven baseline.
/// When `metrics_path` is non-empty, the run's metrics.json (registry +
/// attribution) is written there.  When `obs` is non-null it receives the
/// run's lock/core-state observability capture.  The run records
/// (ClusterConfig::tracing) unless `record` is false — the untraced side
/// of the traced-overhead gate.
inline Fig4Result run_fig4(bool pioman, std::size_t size, SimDuration comp,
                           int iters = 16, ClusterConfig cfg = {},
                           const std::string& metrics_path = {},
                           ClusterObs* obs = nullptr, bool record = true) {
  cfg.pioman = pioman;
  cfg.tracing = record;
  Cluster cluster(cfg);
  std::vector<std::byte> data0(size, std::byte{0xa5});
  std::vector<std::byte> data1(size, std::byte{0x5a});
  std::vector<std::byte> rx0(size), rx1(size);
  constexpr int kWarmup = 3;
  Samples send_t, recv_t;

  cluster.run_on(0, [&] {
    for (int i = 0; i < iters + kWarmup; ++i) {
      const SimTime t1 = cluster.now();
      nm::Request* s = cluster.comm(0).isend(1, 1, data0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(s);
      const SimTime t2 = cluster.now();
      nm::Request* r = cluster.comm(0).irecv(1, 2, rx0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(r);
      const SimTime t3 = cluster.now();
      if (i >= kWarmup) {
        send_t.add(to_us(t2 - t1));
        recv_t.add(to_us(t3 - t2));
      }
    }
  });
  cluster.run_on(1, [&] {
    for (int i = 0; i < iters + kWarmup; ++i) {
      nm::Request* r = cluster.comm(1).irecv(0, 1, rx1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(r);
      nm::Request* s = cluster.comm(1).isend(0, 2, data1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(s);
    }
  });
  cluster.run();

  const tracing::Attribution attr = cluster.attribution();
  if (!metrics_path.empty()) cluster.write_metrics_json(metrics_path);
  if (obs != nullptr) *obs = observe(cluster);
  return Fig4Result{send_t.mean(), recv_t.mean(), attr.crit_us.mean(),
                    attr.offl_us.mean()};
}

/// Fixed-width table printing.
inline void print_header(const char* title,
                         const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title);
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%16s", "------");
  std::printf("\n");
}

inline void print_cell(const std::string& s) { std::printf("%16s", s.c_str()); }
inline void print_cell(double v) { std::printf("%16.2f", v); }
inline void end_row() { std::printf("\n"); }

inline std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    std::snprintf(buf, sizeof buf, "%zuM", bytes / (1024 * 1024));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes / 1024);
  } else {
    std::snprintf(buf, sizeof buf, "%zu", bytes);
  }
  return buf;
}

}  // namespace pm2::bench
