// halo_allreduce — 8 nodes x 4 cores, one rank per node.  Each iteration a
// rank (1) fences an RMA epoch, puts an 8 KiB halo into both ring
// neighbours' windows and fences again, (2) launches a 256 KiB
// iallreduce_sum, (3) computes while it runs, and (4) waits for it.  One op
// is one rank's iteration.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "marcel/thread.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kRanks = 8;
constexpr unsigned kCores = 4;
constexpr unsigned kIterations = 125;  // 8 x 125 = 1000 ops
constexpr std::size_t kSlot = 8 * 1024;  // one halo; window = 2 slots
constexpr std::size_t kElems = 256 * 1024 / sizeof(double);
constexpr SimDuration kCompute = 150 * pm2::kUs;
constexpr double kJitter = 0.3;
constexpr SimDuration kIterBudget = 4 * pm2::kMs;  // deadline per iteration

/// Stamp at the head of every halo: who wrote it, in which iteration.
struct HaloStamp {
  std::uint32_t rank;
  std::uint32_t iteration;
};

/// All-reduce input; small integers, so the double sum is exact in any
/// reduction order.
double input(unsigned rank, unsigned it, std::size_t i) {
  return static_cast<double>((rank + 1) * (1 + i % 13) + it);
}

/// Closed form of sum over ranks of input(rank, it, i).
double expected_sum(unsigned it, std::size_t i) {
  return static_cast<double>((1 + i % 13) * kRanks * (kRanks + 1) / 2 +
                             kRanks * it);
}

class HaloAllreduce final : public Workload {
 public:
  explicit HaloAllreduce(const Params& p)
      : seed_(p.seed), iterations_(std::max(1u, kIterations / p.shrink)) {}

  pm2::ClusterConfig config() const override {
    pm2::ClusterConfig cfg;
    cfg.nodes = kRanks;
    cfg.cpus_per_node = kCores;
    cfg.rma = true;
    return cfg;
  }

  void install(pm2::Cluster& cluster, Spans& spans) override {
    out_ = Outcome{};
    out_.ops.assign(static_cast<std::size_t>(kRanks) * iterations_, Op{});
    windows_.assign(kRanks, std::vector<std::byte>(2 * kSlot));
    for (unsigned r = 0; r < kRanks; ++r) {
      cluster.run_on(r, [this, &cluster, &spans, r] {
        rank(cluster, spans, r);
      });
    }
  }

  SimTime deadline() const override { return iterations_ * kIterBudget; }

  void finish(pm2::Cluster&, Spans&, Outcome& out) override {
    out = std::move(out_);
  }

 private:
  void rank(pm2::Cluster& cluster, Spans& spans, unsigned r) {
    pm2::nm::rma::Engine& rma = cluster.rma(r);
    pm2::nm::coll::Engine& coll = cluster.coll(r);
    const pm2::nm::rma::WinId win = rma.win_create(windows_[r]);
    const unsigned right = (r + 1) % kRanks;
    const unsigned left = (r + kRanks - 1) % kRanks;
    std::vector<std::byte> halo(kSlot, std::byte(r + 1));
    std::vector<double> data(kElems);
    pm2::sim::Rng rng(mix_seed(seed_, r));

    for (unsigned it = 0; it < iterations_; ++it) {
      const std::uint64_t id = static_cast<std::uint64_t>(r) * iterations_ + it;
      Op& op = out_.ops[id];
      op.start = cluster.now();
      const std::uint32_t root = spans.open("halo.iter", id, op.start);
      const HaloStamp stamp{r, it};
      std::memcpy(halo.data(), &stamp, sizeof stamp);
      // (1) Slot 0 receives the halo from the left, slot 1 from the right.
      {
        Scope sp(spans, cluster, "rma.fence", id, root);
        rma.fence(win);
      }
      put(cluster, spans, rma, win, right, 0, halo, op, id, root);
      put(cluster, spans, rma, win, left, kSlot, halo, op, id, root);
      {
        Scope sp(spans, cluster, "rma.fence", id, root);
        rma.fence(win);
      }
      check_slot(op, r, 0, left, it);
      check_slot(op, r, kSlot, right, it);
      // (2)-(4) Overlap the all-reduce with compute.
      for (std::size_t i = 0; i < kElems; ++i) data[i] = input(r, it, i);
      pm2::nm::coll::CollRequest* req = nullptr;
      {
        Scope sp(spans, cluster, "coll.iallreduce", id, root);
        req = coll.iallreduce_sum(data);
      }
      {
        Scope sp(spans, cluster, "marcel.compute", id, root);
        const double f = 1.0 + kJitter * (2.0 * rng.next_double() - 1.0);
        pm2::marcel::this_thread::compute(
            static_cast<SimDuration>(static_cast<double>(kCompute) * f));
      }
      {
        Scope sp(spans, cluster, "coll.wait", id, root);
        coll.wait(req);
      }
      op.end = cluster.now();
      spans.close(root, op.end);
      op.done = true;
      for (std::size_t i = 0; i < kElems; ++i) {
        if (data[i] != expected_sum(it, i)) {
          out_.fail(op, "rank " + std::to_string(r) + " iter " +
                            std::to_string(it) + ": wrong all-reduce sum");
          break;
        }
      }
    }
  }

  void put(pm2::Cluster& cluster, Spans& spans, pm2::nm::rma::Engine& rma,
           pm2::nm::rma::WinId win, unsigned target, std::uint64_t offset,
           const std::vector<std::byte>& halo, Op& op, std::uint64_t id,
           std::uint32_t root) {
    Scope sp(spans, cluster, "rma.put", id, root);
    if (rma.put(win, target, offset, halo) != pm2::Status::kOk) {
      out_.fail(op, "put to rank " + std::to_string(target) + " failed");
    }
  }

  void check_slot(Op& op, unsigned r, std::size_t offset, unsigned from,
                  unsigned it) {
    const std::vector<std::byte>& w = windows_[r];
    HaloStamp s{};
    std::memcpy(&s, w.data() + offset, sizeof s);
    if (s.rank == from && s.iteration == it &&
        w[offset + kSlot - 1] == std::byte(from + 1)) {
      return;
    }
    out_.fail(op, "rank " + std::to_string(r) + " iter " + std::to_string(it) +
                      ": halo slot not stamped by rank " +
                      std::to_string(from));
  }

  std::uint64_t seed_;
  unsigned iterations_;
  std::vector<std::vector<std::byte>> windows_;  // per rank, 2 slots
  Outcome out_;  // ops [rank * iterations_ + it]
};

}  // namespace

std::unique_ptr<Workload> make_halo_allreduce(const Params& p) {
  return std::make_unique<HaloAllreduce>(p);
}

}  // namespace perfbench
