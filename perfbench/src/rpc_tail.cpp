// rpc_tail — open-loop RPC service on 64 nodes x 4 cores: 4 servers, 60
// Poisson clients at per-server utilisation 0.85, exponential 8 us service.
//
// Each request's latency runs from its *due* time (the generator's
// schedule) to the virtual time its completion was signalled, and splits
// into five segments that tile it exactly:
//   gen.lag      due            -> issue      (how late the generator ran)
//   rpc.call     issue          -> call() returns
//   rpc.transit  call() returns -> handler entry (stamped by our handler)
//   rpc.handler  handler entry  -> handler exit
//   rpc.return   handler exit   -> Completion::done_at()
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "marcel/thread.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kNodes = 64;
constexpr unsigned kCores = 4;
constexpr unsigned kServers = 4;  // nodes 0..3 serve, 4..63 are clients
constexpr unsigned kClients = kNodes - kServers;
constexpr unsigned kPerClient = 400;
constexpr double kRho = 0.85;
constexpr double kMeanServiceNs = 8000.0;
constexpr std::uint32_t kService = 1;
constexpr SimDuration kDrain = 50 * pm2::kMs;  // deadline past the last due

struct Request {
  SimTime due = 0;
  unsigned client = 0;  // client index (node kServers + client)
  unsigned server = 0;
  std::uint64_t service_ns = 0;
};

/// Per-request stamps, written by the client and by our handler.
struct Stamps {
  SimTime issue = 0, posted = 0, entry = 0, exit = 0, done_at = 0;
  unsigned served_by = ~0u, origin = ~0u, handled = 0;
  std::uint64_t service_ns = 0;
  bool done = false;
  std::uint32_t root = 0;  // span id of the request's root span
};

class RpcTail final : public Workload {
 public:
  explicit RpcTail(const Params& p) {
    const unsigned per_client = std::max(1u, kPerClient / p.shrink);
    const double mean_gap_ns = static_cast<double>(kClients) *
                               kMeanServiceNs /
                               (static_cast<double>(kServers) * kRho);
    // A Poisson process conditioned on `per_client` arrivals in a fixed
    // horizon is that many sorted uniform arrival times in it.  Fixing the
    // horizon keeps the offered load, and so ops_per_vms, from varying
    // with the seed as much as an unconditioned schedule's length does.
    const double horizon_ns = per_client * mean_gap_ns;
    std::vector<double> arrivals(per_client);
    for (unsigned c = 0; c < kClients; ++c) {
      pm2::sim::Rng rng(mix_seed(p.seed, c));
      for (double& t : arrivals) t = rng.next_double() * horizon_ns;
      std::sort(arrivals.begin(), arrivals.end());
      for (const double t : arrivals) {
        Request r;
        r.due = static_cast<SimTime>(t);
        r.client = c;
        r.server = static_cast<unsigned>(rng.next_below(kServers));
        r.service_ns =
            1 + static_cast<std::uint64_t>(rng.exponential(kMeanServiceNs));
        last_due_ = std::max(last_due_, r.due);
        reqs_.push_back(r);
      }
    }
    per_client_ = per_client;
  }

  pm2::ClusterConfig config() const override {
    pm2::ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.cpus_per_node = kCores;
    cfg.rpc = true;
    return cfg;
  }

  void install(pm2::Cluster& cluster, Spans& spans) override {
    stamps_.assign(reqs_.size(), Stamps{});
    for (unsigned s = 0; s < kServers; ++s) {
      cluster.rpc(s).register_service(
          kService, [this, &cluster, &spans](pm2::rpc::Context& ctx) {
            const SimTime entry = cluster.now();
            const std::uint64_t id = ctx.args().u64();
            const std::uint64_t work = ctx.args().u64();
            const pm2::rpc::CompletionRef done = ctx.args().completion();
            Stamps& st = stamps_.at(id);
            const std::uint32_t h =
                spans.open("rpc.handler", id, entry, st.root);
            {
              Scope sp(spans, cluster, "marcel.compute", id, h);
              pm2::marcel::this_thread::compute(work);
            }
            st.entry = entry;
            st.exit = cluster.now();
            spans.close(h, st.exit);
            st.served_by = ctx.engine().node_id();
            st.origin = ctx.origin();
            st.service_ns = work;
            ++st.handled;
            ctx.engine().signal(done);
          });
    }
    for (unsigned c = 0; c < kClients; ++c) {
      cluster.run_on(kServers + c, [this, &cluster, &spans, c] {
        client(cluster, spans, c);
      });
    }
  }

  SimTime deadline() const override { return last_due_ + kDrain; }

  void finish(pm2::Cluster& cluster, Spans& spans, Outcome& out) override {
    std::uint64_t qmax = 0;
    for (unsigned s = 0; s < kServers; ++s) {
      qmax = std::max(qmax, cluster.rpc(s).stats().queue_depth_max);
    }
    out.layer["rpc.queue_depth_max"] = static_cast<double>(qmax);
    out.gen_lag = gen_lag_;
    out.sleep_lag = sleep_lag_;
    out.ops.resize(reqs_.size());
    for (std::size_t id = 0; id < reqs_.size(); ++id) {
      const Request& r = reqs_[id];
      const Stamps& st = stamps_[id];
      Op& op = out.ops[id];
      op.start = r.due;
      op.end = st.done_at;
      op.done = st.done;
      if (!st.done) continue;
      const std::string tag = "request " + std::to_string(id) + ": ";
      if (st.done_at < r.due) out.fail(op, tag + "done_at before due time");
      // The segments below are differences of these stamps; only in this
      // order do they tile done_at - due without wrapping.
      const SimTime order[] = {r.due,   st.issue, st.posted,
                               st.entry, st.exit,  st.done_at};
      if (!std::is_sorted(std::begin(order), std::end(order))) {
        out.fail(op, tag + "stamps out of order");
      }
      if (st.handled != 1) out.fail(op, tag + "handled != once");
      if (st.served_by != r.server) out.fail(op, tag + "wrong server");
      if (st.origin != kServers + r.client) out.fail(op, tag + "wrong origin");
      if (st.service_ns != r.service_ns) out.fail(op, tag + "args corrupted");
      if (spans.on()) {
        // The two segments bounded by stamps on different nodes; with
        // gen.lag, rpc.call and rpc.handler they tile the root exactly.
        spans.add("rpc.transit", id, st.posted, st.entry, st.root);
        spans.add("rpc.return", id, st.exit, st.done_at, st.root);
        spans.close(st.root, st.done_at);
      }
    }
    if (spans.on()) {
      if (const std::uint64_t bad = spans.untiled_roots("rpc.request")) {
        out.errors.push_back(std::to_string(bad) +
                             " requests whose segments do not sum to latency");
        for (Op& op : out.ops) op.ok = false;
      }
    }
  }

 private:
  void client(pm2::Cluster& cluster, Spans& spans, unsigned c) {
    pm2::rpc::Engine& eng = cluster.rpc(kServers + c);
    std::vector<std::unique_ptr<pm2::rpc::Completion>> done;
    done.reserve(per_client_);
    const std::size_t first = static_cast<std::size_t>(c) * per_client_;
    for (std::size_t id = first; id < first + per_client_; ++id) {
      const Request& r = reqs_[id];
      Stamps& st = stamps_[id];
      if (r.due > cluster.now()) {
        Scope sp(spans, cluster, "marcel.sleep", id, 0);
        pm2::marcel::this_thread::sleep(r.due - cluster.now());
        sleep_lag_.push_back(cluster.now() - r.due);
      }
      auto comp = std::make_unique<pm2::rpc::Completion>(eng);
      st.issue = cluster.now();
      gen_lag_.push_back(st.issue - r.due);
      st.root = spans.open("rpc.request", id, r.due);
      spans.add("gen.lag", id, r.due, st.issue, st.root);
      {
        Scope sp(spans, cluster, "rpc.call", id, st.root);
        eng.call(r.server, kService, [&](pm2::rpc::ArgWriter& w) {
          w.u64(id);
          w.u64(r.service_ns);
          w.completion(comp->ref());
        });
      }
      st.posted = cluster.now();
      done.push_back(std::move(comp));
    }
    for (std::size_t k = 0; k < done.size(); ++k) {
      done[k]->wait();
      Stamps& st = stamps_[first + k];
      st.done_at = done[k]->done_at();
      st.done = true;
    }
  }

  std::vector<Request> reqs_;  // client-major: [c * per_client_ + k]
  unsigned per_client_ = 0;
  SimTime last_due_ = 0;
  std::vector<Stamps> stamps_;
  std::vector<SimDuration> gen_lag_;
  std::vector<SimDuration> sleep_lag_;
};

}  // namespace

std::unique_ptr<Workload> make_rpc_tail(const Params& p) {
  return std::make_unique<RpcTail>(p);
}

}  // namespace perfbench
