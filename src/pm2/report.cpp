#include "pm2/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <string>

#include "common/metrics.hpp"

namespace pm2 {
namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

// The report reads exclusively from the metrics registry: every number
// below is a registry lookup, so anything the report can show is also in
// metrics.json and the trace counter tracks (single source of truth).
std::string format_report(Cluster& cluster) {
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  const auto v = [&m](const std::string& name) {
    return static_cast<unsigned long long>(m.value(name));
  };

  std::string out;
  appendf(out, "-- simulation report -- t=%.2f us, %llu events\n",
          to_us(cluster.now()),
          static_cast<unsigned long long>(
              cluster.engine().events_processed()));

  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const std::string node = "node" + std::to_string(n);
    appendf(out, "node %u:\n", n);

    // Per-CPU counters aggregate to node totals with a prefix/suffix scan.
    const std::string cpus = node + "/cpu";
    appendf(out,
            "  cpu: thread %.1f us, service %.1f us, %llu tasklets, "
            "%llu switches, %llu steals\n",
            to_us(m.sum(cpus, "/thread_busy_ns")),
            to_us(m.sum(cpus, "/service_busy_ns")),
            static_cast<unsigned long long>(m.sum(cpus, "/tasklets_run")),
            static_cast<unsigned long long>(m.sum(cpus, "/ctx_switches")),
            static_cast<unsigned long long>(m.sum(cpus, "/steals")));

    // Core-state timeline: where each core's sim-time went.
    appendf(out,
            "  core: app %.1f us, engine %.1f us, tasklet %.1f us, "
            "idle %.1f us, blocked %.1f us\n",
            to_us(m.sum(cpus, "/state/app_ns")),
            to_us(m.sum(cpus, "/state/engine_ns")),
            to_us(m.sum(cpus, "/state/tasklet_ns")),
            to_us(m.sum(cpus, "/state/idle_ns")),
            to_us(m.sum(cpus, "/state/blocked_ns")));

    // One line per profiled lock site of the node: the library-wide
    // "engine" lock or the per-event "shard<s>" locks.
    const std::string locks = node + "/locks/";
    m.visit([&](const MetricsRegistry::View& view) {
      if (!view.name.starts_with(locks) || !view.name.ends_with("/acq")) {
        return;
      }
      const std::string pfx(view.name.substr(0, view.name.size() - 4));
      const Log2Histogram* wait = m.find_histogram(pfx + "/wait_us");
      const Log2Histogram* hold = m.find_histogram(pfx + "/hold_us");
      appendf(out,
              "  lock: %s %llu acq (%llu contended), "
              "wait p99 %llu us, hold p99 %llu us\n",
              pfx.c_str() + locks.size(), v(pfx + "/acq"),
              v(pfx + "/contended"),
              static_cast<unsigned long long>(
                  wait != nullptr ? wait->percentile(99) : 0),
              static_cast<unsigned long long>(
                  hold != nullptr ? hold->percentile(99) : 0));
    });

    appendf(out,
            "  nm : %llu sends (%llu eager / %llu rdv), %llu recvs, "
            "%llu wire packets, unexpected %llu+%llu\n",
            v(node + "/nm/sends"), v(node + "/nm/eager_sends"),
            v(node + "/nm/rdv_sends"), v(node + "/nm/recvs"),
            v(node + "/nm/wire_packets"), v(node + "/nm/unexpected_eager"),
            v(node + "/nm/unexpected_rts"));

    if (m.contains(node + "/piom/offload/posted")) {
      appendf(out,
              "  piom: %llu posted (%llu offloaded, %llu flushed in wait), "
              "%llu poll rounds, %llu interrupts, method=%s\n",
              v(node + "/piom/offload/posted"),
              v(node + "/piom/offload/offloaded"),
              v(node + "/piom/offload/flushed"),
              v(node + "/piom/poll/rounds"), v(node + "/piom/interrupts"),
              m.value(node + "/piom/method_blocking") != 0 ? "blocking"
                                                          : "polling");
    }

    if (m.contains(node + "/reliable/data_tx")) {
      appendf(out,
              "  arq : %llu data, %llu retransmits (%llu fast), "
              "%llu dup drops, %llu corrupt drops\n",
              v(node + "/reliable/data_tx"), v(node + "/reliable/retransmits"),
              v(node + "/reliable/fast_retransmits"),
              v(node + "/reliable/dup_drops"),
              v(node + "/reliable/corrupt_drops"));
    }

    const std::string nics = node + "/nic";
    appendf(out, "  nic : %llu B out, %llu B in, %llu B rdma\n",
            static_cast<unsigned long long>(m.sum(nics, "/bytes_tx")),
            static_cast<unsigned long long>(m.sum(nics, "/bytes_rx")),
            static_cast<unsigned long long>(m.sum(nics, "/rdma_bytes")));
  }

  if (m.value("fabric/faults/considered") != 0) {
    appendf(out,
            "faults: %llu dropped, %llu duplicated, %llu reordered, "
            "%llu corrupted (of %llu packets)\n",
            v("fabric/faults/dropped"), v("fabric/faults/duplicated"),
            v("fabric/faults/reordered"), v("fabric/faults/corrupted"),
            v("fabric/faults/considered"));
  }

  // Latency attribution, when recording was on.
  const tracing::Attribution attr = cluster.attribution();
  if (attr.sends + attr.recvs > 0) {
    tracing::export_attribution(cluster.metrics(), attr);
    out += tracing::format_attribution(attr);
  }
  return out;
}

void print_report(Cluster& cluster) {
  const std::string report = format_report(cluster);
  std::fwrite(report.data(), 1, report.size(), stdout);
}

}  // namespace pm2
