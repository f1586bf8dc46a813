// stencil_mt — the Table 1 16-thread case: 2 nodes x 8 cores, a 4x4 thread
// grid, 16 KiB eager frontiers, +-30% compute jitter, PIOMan offload with
// the default (library-wide lock on) configuration.  The kernel follows
// src/pm2/stencil.cpp, re-implemented here so every irecv/isend/wait can be
// timed.  One op is one thread's iteration.
//
// Threads start a seeded 0-300 us apart.  Started in lockstep, the grid
// stays synchronised for a seed-dependent 30-200 iterations before it
// settles into its steady desynchronised regime (p99 ~520 us before, ~700
// us after), so the tail would measure that transient instead.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "marcel/sync.hpp"
#include "marcel/thread.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kNodes = 2;
constexpr unsigned kCores = 8;
constexpr unsigned kRows = 4;
constexpr unsigned kCols = 4;
constexpr unsigned kThreads = kRows * kCols;
constexpr unsigned kIterations = 128;  // 16 x 128 = 2048 ops
constexpr std::size_t kFrontier = 16 * 1024;
constexpr SimDuration kFrontierCompute = 30 * pm2::kUs;
constexpr SimDuration kInteriorCompute = 150 * pm2::kUs;
constexpr double kJitter = 0.3;
constexpr SimDuration kStartSkew = 300 * pm2::kUs;
constexpr SimDuration kIterBudget = 2 * pm2::kMs;  // deadline per iteration
constexpr std::uint32_t kMagic = 0x57e9c11u;

/// The first bytes of every frontier; the rest is the sender's fill byte.
struct FrontierHeader {
  std::uint32_t magic;
  std::uint32_t sender;
  std::uint32_t receiver;
  std::uint32_t iteration;
};

unsigned node_of(unsigned tid) { return (tid % kCols) * kNodes / kCols; }

pm2::nm::Tag edge_tag(unsigned src, unsigned dst) {
  return static_cast<pm2::nm::Tag>((src << 10) | dst);
}

class StencilMt final : public Workload {
 public:
  explicit StencilMt(const Params& p)
      : seed_(p.seed), iterations_(std::max(1u, kIterations / p.shrink)) {}

  pm2::ClusterConfig config() const override {
    pm2::ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.cpus_per_node = kCores;
    return cfg;
  }

  void install(pm2::Cluster& cluster, Spans& spans) override {
    out_ = Outcome{};
    out_.ops.assign(static_cast<std::size_t>(kThreads) * iterations_, Op{});
    barrier_ = std::make_unique<pm2::marcel::Barrier>(kThreads);
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      cluster.run_on(
          node_of(tid),
          [this, &cluster, &spans, tid] { thread(cluster, spans, tid); },
          "stencil-" + std::to_string(tid));
    }
  }

  SimTime deadline() const override { return iterations_ * kIterBudget; }

  void finish(pm2::Cluster&, Spans&, Outcome& out) override {
    out = std::move(out_);
  }

 private:
  void thread(pm2::Cluster& cluster, Spans& spans, unsigned tid) {
    const unsigned node = node_of(tid);
    pm2::nm::Core& comm = cluster.comm(node);
    const unsigned r = tid / kCols, c = tid % kCols;
    std::vector<unsigned> nbs;
    if (r > 0) nbs.push_back(tid - kCols);
    if (r + 1 < kRows) nbs.push_back(tid + kCols);
    if (c > 0) nbs.push_back(tid - 1);
    if (c + 1 < kCols) nbs.push_back(tid + 1);
    const std::size_t degree = nbs.size();
    std::vector<std::vector<std::byte>> send(
        degree, std::vector<std::byte>(kFrontier, std::byte(tid)));
    std::vector<std::vector<std::byte>> recv(
        degree, std::vector<std::byte>(kFrontier));
    std::vector<pm2::nm::Request*> sreq(degree), rreq(degree);
    pm2::sim::Rng rng(mix_seed(seed_, tid));
    auto jittered = [&rng](SimDuration d) {
      const double f = 1.0 + kJitter * (2.0 * rng.next_double() - 1.0);
      return static_cast<SimDuration>(static_cast<double>(d) * f);
    };

    barrier_->arrive_and_wait();
    pm2::marcel::this_thread::sleep(
        static_cast<SimDuration>(rng.next_double() * kStartSkew));
    for (unsigned it = 0; it < iterations_; ++it) {
      const std::uint64_t id = static_cast<std::uint64_t>(tid) * iterations_ + it;
      Op& op = out_.ops[id];
      op.start = cluster.now();
      const std::uint32_t root = spans.open("stencil.iter", id, op.start);
      for (std::size_t i = 0; i < degree; ++i) {
        Scope sp(spans, cluster, "nmad.irecv", id, root);
        rreq[i] = comm.irecv(node_of(nbs[i]), edge_tag(nbs[i], tid), recv[i]);
      }
      {
        Scope sp(spans, cluster, "marcel.compute", id, root);
        pm2::marcel::this_thread::compute(jittered(kFrontierCompute));
      }
      for (std::size_t i = 0; i < degree; ++i) {
        const FrontierHeader h{kMagic, tid, nbs[i], it};
        std::memcpy(send[i].data(), &h, sizeof h);
        Scope sp(spans, cluster, "nmad.isend", id, root);
        sreq[i] = comm.isend(node_of(nbs[i]), edge_tag(tid, nbs[i]), send[i]);
      }
      {
        Scope sp(spans, cluster, "marcel.compute", id, root);
        pm2::marcel::this_thread::compute(jittered(kInteriorCompute));
      }
      for (std::size_t i = 0; i < degree; ++i) {
        Scope sp(spans, cluster, "nmad.wait", id, root);
        comm.wait(sreq[i]);
      }
      for (std::size_t i = 0; i < degree; ++i) {
        Scope sp(spans, cluster, "nmad.wait", id, root);
        comm.wait(rreq[i]);
      }
      op.end = cluster.now();
      spans.close(root, op.end);
      op.done = true;
      for (std::size_t i = 0; i < degree; ++i) check(op, recv[i], nbs[i], tid, it);
    }
  }

  void check(Op& op, const std::vector<std::byte>& buf, unsigned from,
             unsigned to, unsigned it) {
    FrontierHeader h{};
    std::memcpy(&h, buf.data(), sizeof h);
    if (h.magic == kMagic && h.sender == from && h.receiver == to &&
        h.iteration == it && buf.back() == std::byte(from)) {
      return;
    }
    out_.fail(op, "thread " + std::to_string(to) + " iter " +
                      std::to_string(it) + ": bad frontier from " +
                      std::to_string(from));
  }

  std::uint64_t seed_;
  unsigned iterations_;
  std::unique_ptr<pm2::marcel::Barrier> barrier_;
  Outcome out_;  // ops [tid * iterations_ + it]
};

}  // namespace

std::unique_ptr<Workload> make_stencil_mt(const Params& p) {
  return std::make_unique<StencilMt>(p);
}

}  // namespace perfbench
