// Ablation A3 — aggregation strategy (Fig. 3's optimizer layer).
//
// A burst of small messages is issued back-to-back with PIOMan enabled:
// the submissions accumulate in the gate queue until the offload tasklet
// runs, giving the aggregation strategy material to coalesce.  Aggregation
// saves the per-packet injection base cost and wire latency.
//
// Shape floor (exit 1 when violated): aggregation beats fifo at 16 B and
// 64 B and loses at 256 B and 1K.  `ablation_strategy --json <path>`
// writes the table as a pm2-bench-v1 trajectory record.
#include <cstdio>
#include <cstring>
#include <iterator>

#include "harness.hpp"

namespace {

/// Time to deliver `count` messages of `size` bytes issued in one burst.
double run_burst(pm2::nm::StrategyKind strategy, int count,
                 std::size_t size) {
  using namespace pm2;
  ClusterConfig cfg;
  cfg.nm.strategy = strategy;
  cfg.nm.aggregate_max = 4 * 1024;
  Cluster cluster(cfg);
  std::vector<std::vector<std::byte>> tx(
      count, std::vector<std::byte>(size, std::byte{3}));
  std::vector<std::vector<std::byte>> rx(count,
                                         std::vector<std::byte>(size));
  SimTime done = 0;
  cluster.run_on(0, [&] {
    std::vector<nm::Request*> reqs;
    reqs.reserve(count);
    for (int i = 0; i < count; ++i) {
      reqs.push_back(cluster.comm(0).isend(1, 1, tx[i]));
    }
    for (nm::Request* r : reqs) cluster.comm(0).wait(r);
  });
  cluster.run_on(1, [&] {
    for (int i = 0; i < count; ++i) {
      nm::Request* r = cluster.comm(1).irecv(0, 1, rx[i]);
      cluster.comm(1).wait(r);
    }
    done = cluster.now();
  });
  cluster.run();
  return to_us(done);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pm2;
  using namespace pm2::bench;
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  const int count = 32;
  const std::size_t sizes[] = {16, 64, 256, 1024, 4096};
  double gain[std::size(sizes)] = {};

  std::printf("Ablation A3: aggregation strategy, burst of %d messages\n",
              count);
  print_header("Burst completion time (us)",
               {"msg size", "fifo", "aggregate", "gain(%)"});
  BenchJson json("ablation_strategy");
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const double fifo = run_burst(nm::StrategyKind::kFifo, count, sizes[i]);
    const double aggr =
        run_burst(nm::StrategyKind::kAggregate, count, sizes[i]);
    gain[i] = (fifo - aggr) / fifo * 100.0;
    print_cell(size_label(sizes[i]));
    print_cell(fifo);
    print_cell(aggr);
    print_cell(gain[i]);
    end_row();
    json.begin_case(size_label(sizes[i]));
    json.metric("fifo_us", fifo, "lower");
    json.metric("aggregate_us", aggr, "lower");
    json.metric("gain_pct", gain[i]);
  }
  std::printf(
      "\nAggregation coalesces queued small packs into one wire packet,\n"
      "amortizing the per-packet injection base cost and wire latency.\n"
      "It wins for tiny messages and *loses* once the per-byte cost\n"
      "dominates: batching then only delays the first bytes and removes\n"
      "receive-side pipelining — which is why NewMadeleine applies it\n"
      "selectively (its optimizer layer exists to make this call).\n");
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  int rc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const bool wins = i < 2;  // 16 B and 64 B win; 256 B and 1K lose
    if ((gain[i] > 0.0) != wins) {
      std::fprintf(stderr, "FAIL: aggregation %s fifo at %s (%+.2f%%)\n",
                   wins ? "does not beat" : "does not lose to",
                   size_label(sizes[i]).c_str(), gain[i]);
      rc = 1;
    }
  }
  return rc;
}
