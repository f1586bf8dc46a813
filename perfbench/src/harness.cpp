#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace perfbench {

// ------------------------------------------------------------------ spans

std::uint32_t Spans::open(const char* name, std::uint64_t op, SimTime start,
                          std::uint32_t parent) {
  return add(name, op, start, start, parent);
}

void Spans::close(std::uint32_t id, SimTime end) {
  if (id != 0) spans_[id - 1].end = end;
}

std::uint32_t Spans::add(const char* name, std::uint64_t op, SimTime start,
                         SimTime end, std::uint32_t parent) {
  if (!on_) return 0;
  spans_.push_back(Span{name, start, end, parent, op});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<SimDuration> Spans::durations(std::string_view name) const {
  std::vector<SimDuration> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<SimDuration> Spans::self_times() const {
  // Children of each span, as intervals; a span's self time is its
  // duration minus the union of its children's intervals.
  std::vector<std::vector<std::pair<SimTime, SimTime>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::vector<SimDuration> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    SimDuration covered = 0;
    SimTime reach = spans_[i].start;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, spans_[i].end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = (spans_[i].end - spans_[i].start) - covered;
  }
  return out;
}

std::uint64_t Spans::untiled_roots(std::string_view root) const {
  // Compared as intervals, not as summed durations: SimTime is unsigned, so
  // a child whose end precedes its start would still sum to the right total
  // modulo 2^64.
  std::vector<std::vector<std::pair<SimTime, SimTime>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root != spans_[i].name) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    bool tiled = spans_[i].start <= spans_[i].end;
    SimTime reach = spans_[i].start;
    for (const auto& [a, b] : iv) {
      tiled = tiled && a == reach && a <= b;
      reach = b;
    }
    if (!tiled || reach != spans_[i].end) ++bad;
  }
  return bad;
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%u,%llu,%s,%llu,%llu\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------------- workloads

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Params& p) {
  if (name == "rpc_tail") return make_rpc_tail(p);
  if (name == "stencil_mt") return make_stencil_mt(p);
  if (name == "halo_allreduce") return make_halo_allreduce(p);
  return nullptr;
}

double percentile(std::vector<SimDuration>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

// -------------------------------------------------------------------- run

namespace {

using Clock = std::chrono::steady_clock;

constexpr SimDuration kSlice = 10 * pm2::kUs;  // run_until step

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer names filled from spans: metric name, span name, quantile,
/// scale (1 = ns, 1e-3 = us).
struct SpanMetric {
  const char* metric;
  const char* span;
  double q;
  double scale;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"nmad.isend_vns_p50", "nmad.isend", 0.50, 1.0},
    {"nmad.isend_vns_p99", "nmad.isend", 0.99, 1.0},
    {"nmad.irecv_vns_p50", "nmad.irecv", 0.50, 1.0},
    {"nmad.wait_us_p50", "nmad.wait", 0.50, 1e-3},
    {"nmad.wait_us_p99", "nmad.wait", 0.99, 1e-3},
    {"coll.iallreduce_vns_p50", "coll.iallreduce", 0.50, 1.0},
    {"coll.wait_us_p50", "coll.wait", 0.50, 1e-3},
    {"coll.wait_us_p99", "coll.wait", 0.99, 1e-3},
    {"rma.put_vns_p50", "rma.put", 0.50, 1.0},
    {"rma.fence_us_p50", "rma.fence", 0.50, 1e-3},
    {"rma.fence_us_p99", "rma.fence", 0.99, 1e-3},
    {"rpc.post_us_p50", "rpc.call", 0.50, 1e-3},
    {"rpc.post_us_p99", "rpc.call", 0.99, 1e-3},
    {"rpc.transit_us_p50", "rpc.transit", 0.50, 1e-3},
    {"rpc.transit_us_p99", "rpc.transit", 0.99, 1e-3},
    {"rpc.handler_us_p50", "rpc.handler", 0.50, 1e-3},
    {"rpc.handler_us_p99", "rpc.handler", 0.99, 1e-3},
    {"rpc.return_us_p50", "rpc.return", 0.50, 1e-3},
    {"rpc.return_us_p99", "rpc.return", 0.99, 1e-3},
};

/// Registry sums: metric name, counter-name suffix under "node".
struct SumMetric {
  const char* metric;
  const char* suffix;
};
constexpr SumMetric kSumMetrics[] = {
    {"marcel.ctx_switches", "/ctx_switches"},
    {"marcel.dispatches", "/dispatches"},
    {"marcel.steals", "/steals"},
    {"marcel.tasklets_run", "/tasklets_run"},
    {"piom.poll_rounds", "/piom/poll/rounds"},
    {"piom.offload_posted", "/piom/offload/posted"},
    {"piom.offloaded", "/piom/offload/offloaded"},
    {"piom.interrupts", "/piom/interrupts"},
    {"piom.cond_waits", "/piom/cond/waits"},
    {"piom.passive_blocks", "/piom/cond/passive_blocks"},
    {"netsim.packets_tx", "/packets_tx"},
    {"netsim.bytes_tx", "/bytes_tx"},
    {"netsim.rdma_bytes", "/rdma_bytes"},
    {"netsim.interrupts_fired", "/interrupts_fired"},
    {"nmad.sends", "/nm/sends"},
    {"nmad.eager_sends", "/nm/eager_sends"},
    {"nmad.rdv_sends", "/nm/rdv_sends"},
    {"nmad.unexpected_eager", "/nm/unexpected_eager"},
    {"nmad.unexpected_rts", "/nm/unexpected_rts"},
    {"nmad.aggregated_msgs", "/nm/aggregated_msgs"},
    {"nmad.wire_packets", "/nm/wire_packets"},
    {"coll.ops_executed", "/coll/ops_executed"},
    {"coll.completed", "/coll/completed"},
    {"rma.puts_applied", "/rma/puts_applied"},
    {"rma.api_calls", "/rma/api_calls"},
};

/// Core-state time counters; every core is in exactly one at any instant.
constexpr SumMetric kStateMetrics[] = {
    {"marcel.app_us", "/state/app_ns"},
    {"marcel.engine_us", "/state/engine_ns"},
    {"marcel.tasklet_us", "/state/tasklet_ns"},
    {"marcel.idle_us", "/state/idle_ns"},
    {"marcel.blocked_us", "/state/blocked_ns"},
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Per-layer virtual metrics read from the public registry after the run.
void read_registry(pm2::Cluster& cluster, Record& r, double ops) {
  cluster.flush_observability();
  const pm2::MetricsRegistry& m = cluster.metrics();
  auto& L = r.layer_virtual;
  for (const SumMetric& s : kSumMetrics) {
    L[s.metric] = static_cast<double>(m.sum("node", s.suffix));
  }
  std::uint64_t state_ns = 0;
  for (const SumMetric& s : kStateMetrics) {
    const std::uint64_t ns = m.sum("node", s.suffix);
    state_ns += ns;
    L[s.metric] = static_cast<double>(ns) / 1e3;
  }
  std::uint64_t cores = 0;
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    cores += cluster.node(n).cpu_count();
  }
  if (state_ns != cores * cluster.now()) {
    r.correct = false;
    r.errors.push_back("core-state sums != nodes x cores x makespan");
  }
  // Every lock site the profiler exported: engine and shard<s> alike.
  double acq = 0, contended = 0;
  m.visit([&](const pm2::MetricsRegistry::View& v) {
    if (v.name.find("/locks/") == std::string_view::npos) return;
    if (ends_with(v.name, "/acq")) acq += v.number;
    if (ends_with(v.name, "/contended")) contended += v.number;
  });
  L["nmad.lock_acq"] = acq;
  L["nmad.lock_contended"] = contended;
  L["nmad.lock_contended_ratio"] = acq > 0 ? contended / acq : 0;
  L["piom.offload_ratio"] =
      L["piom.offload_posted"] > 0
          ? L["piom.offloaded"] / L["piom.offload_posted"]
          : 0;
  L["piom.poll_rounds_per_op"] = L["piom.poll_rounds"] / ops;
  L["netsim.packets_per_op"] = L["netsim.packets_tx"] / ops;
  const auto events =
      static_cast<double>(cluster.engine().events_processed());
  L["sim.events"] = events;
  L["sim.events_per_op"] = events / ops;
}

/// End-to-end virtual metrics from the op table.
void summarize_ops(Outcome& out, Record& r) {
  std::vector<SimDuration> lat;
  lat.reserve(out.ops.size());
  SimTime first = ~SimTime{0}, last = 0;
  for (const Op& op : out.ops) {
    ++r.attempted;
    if (!op.done || !op.ok) {
      ++r.failed;
      continue;
    }
    lat.push_back(op.end - op.start);
    first = std::min(first, op.start);
    last = std::max(last, op.end);
  }
  auto& V = r.virt;
  const auto n = static_cast<double>(lat.size());
  V["ops"] = n;
  V["lat_p50_us"] = percentile(lat, 0.50) / 1e3;
  V["lat_p99_us"] = percentile(lat, 0.99) / 1e3;
  V["lat_p999_us"] = percentile(lat, 0.999) / 1e3;
  // The highest percentile with at least ten samples beyond it.
  const double tail_q = n >= 10000 ? 0.999 : 0.99;
  V["lat_tail_q"] = tail_q;
  V["lat_tail_us"] = percentile(lat, tail_q) / 1e3;
  V["ops_per_vms"] =
      last > first ? n / (static_cast<double>(last - first) / 1e6) : 0;
  V["gen_lag_p99_us"] = percentile(out.gen_lag, 0.99) / 1e3;
  V["gen_lag_samples"] = static_cast<double>(out.gen_lag.size());
  V["failed_frac"] = r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 1.0;
  r.layer_virtual["marcel.sleep_lag_p99_us"] =
      percentile(out.sleep_lag, 0.99) / 1e3;
  for (const auto& [k, v] : out.layer) r.layer_virtual[k] = v;
}

void span_metrics(const Spans& spans, Record& r) {
  if (!spans.on()) return;
  for (const SpanMetric& sm : kSpanMetrics) {
    std::vector<SimDuration> d = spans.durations(sm.span);
    r.layer_spans[sm.metric] = percentile(d, sm.q) * sm.scale;
  }
  r.spans = spans.all().size();
  const std::vector<SimDuration> self = spans.self_times();
  for (std::size_t i = 0; i < self.size(); ++i) {
    r.self_us[spans.all()[i].name] += static_cast<double>(self[i]) / 1e3;
  }
}

/// Peak resident memory of this process image.  VmHWM rather than
/// getrusage's ru_maxrss, which survives execve and so would report the
/// launching process's peak when that one was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

std::optional<Record> run_workload(std::string_view name, const Params& p,
                                   unsigned dry_setups,
                                   const std::string& spans_path) {
  if (make_workload(name, p) == nullptr) return std::nullopt;
  return run(
      [name, &p] { return make_workload(name, p); }, p, dry_setups,
      spans_path);
}

Record run(const WorkloadFactory& make, const Params& p, unsigned dry_setups,
           const std::string& spans_path) {
  double ctor_s = 0, register_s = 0;
  auto timed_setup = [&](Workload& w, Spans& spans) {
    const auto t0 = Clock::now();
    auto cluster = std::make_unique<pm2::Cluster>(w.config());
    ctor_s = seconds_since(t0);
    const auto t1 = Clock::now();
    w.install(*cluster, spans);
    register_s = seconds_since(t1);
    return cluster;
  };
  Record r;
  const auto workload = make();
  Spans spans(p.trace);
  // The measured set-up is the process's first: cold allocator and code.
  auto cluster = timed_setup(*workload, spans);
  r.host["ctor_s"] = ctor_s;
  r.host["register_s"] = register_s;
  r.host["setup_s"] = ctor_s + register_s;
  const auto t_run = Clock::now();
  // Step to the deadline in short slices, so that once the queue drains the
  // clock stops within one slice of the last event instead of jumping to
  // the deadline (which would pad every core's idle time).
  pm2::sim::Engine& engine = cluster->engine();
  for (SimTime t = kSlice;; t += kSlice) {
    const SimTime until = std::min(t, workload->deadline());
    engine.run_until(until);
    if (engine.empty() || until == workload->deadline()) break;
  }
  const double run_s = seconds_since(t_run);

  Outcome out;
  workload->finish(*cluster, spans, out);
  summarize_ops(out, r);
  read_registry(*cluster, r, std::max(1.0, r.virt["ops"]));
  span_metrics(spans, r);
  r.finished = std::all_of(out.ops.begin(), out.ops.end(),
                           [](const Op& op) { return op.done; });
  r.errors.insert(r.errors.end(), out.errors.begin(), out.errors.end());
  if (r.failed != 0) r.correct = false;
  if (spans.on() && !spans_path.empty() && !spans.write_csv(spans_path)) {
    r.correct = false;
    r.errors.push_back("cannot write spans to " + spans_path);
  }

  double teardown_s = 0;
  std::vector<double> warm_s;
  if (r.finished) {
    const auto t_down = Clock::now();
    cluster.reset();
    teardown_s = seconds_since(t_down);
    // Dry set-ups: built and torn down without running an event, after the
    // measured run so they cannot raise its peak memory.  They time the
    // warm rebuild, reported apart from the cold set-up above.
    for (unsigned i = 0; i < dry_setups; ++i) {
      const auto w = make();
      Spans none(false);
      (void)timed_setup(*w, none);
      warm_s.push_back(ctor_s + register_s);
    }
  } else {
    // A stalled run still has blocked fibers whose stacks reference the
    // workload; tearing down would wake them into freed state.  Leave the
    // cluster to process exit.
    (void)cluster.release();
  }
  if (!warm_s.empty()) r.host["setup_warm_s"] = median(warm_s);
  r.host["run_s"] = run_s;
  r.host["teardown_s"] = teardown_s;
  r.host["peak_rss_mb"] = peak_rss_mb();
  return r;
}

namespace {

void json_map(std::string& s, const char* key,
              const std::map<std::string, double>& m) {
  s += ",\"";
  s += key;
  s += "\":{";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    if (!first) s += ",";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s += "\"" + k + "\":" + buf;
  }
  s += "}";
}

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

}  // namespace

std::string to_json(const Record& r) {
  std::string s = "{\"correct\":";
  s += r.correct ? "true" : "false";
  s += ",\"finished\":";
  s += r.finished ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"spans\":" + std::to_string(r.spans);
  s += ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) s += ",";
    s += '"';
    s += json_escape(r.errors[i]);
    s += '"';
  }
  s += "]";
  json_map(s, "virtual", r.virt);
  json_map(s, "layer_virtual", r.layer_virtual);
  json_map(s, "layer_spans", r.layer_spans);
  json_map(s, "host", r.host);
  json_map(s, "self_us", r.self_us);
  s += "}";
  return s;
}

}  // namespace perfbench
