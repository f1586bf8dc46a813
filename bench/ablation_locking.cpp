// Ablation A1 — thread-safety granularity (§2.1): the cost of a
// library-wide engine lock, measured in virtual time on the full stack.
//
// T sender threads on node 0 drive T receiver threads on node 1 (one tag
// per pair, 4 KiB eager messages) through the one nm::Core each node owns.
// With cfg.nm.engine_lock on (the ablation lever), every
// isend/irecv/progress round serializes on the big lock, and the lock
// profiler quantifies it: acquisitions, contended acquisitions,
// contended-wait p99.  With it off, PIOMan mode runs the paper's per-event
// locks (one modeled lock per match shard, held only around sequence
// allocation and the match decision) and the same schedule shows the
// concurrency the big lock forfeits.  Fully deterministic — the run is
// a discrete-event simulation, so the trajectory numbers are exact.
//
// `ablation_locking --json <path>` writes the sweep as a pm2-bench-v1
// trajectory record (see tools/bench_compare.py).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace pm2;
using namespace pm2::bench;

constexpr int kIters = 32;
constexpr std::size_t kSize = 4096;

struct LockCase {
  double total_us = 0;
  double msgs_per_ms = 0;
  ClusterObs obs;
};

LockCase run_case(unsigned pairs, bool locked) {
  ClusterConfig cfg;
  cfg.pioman = true;
  cfg.nm.engine_lock = locked;
  Cluster cluster(cfg);
  // Static so the buffers outlive the app fibers regardless of when the
  // engine retires them (same idiom as the integration tests).
  static std::vector<std::vector<std::byte>> tx, rx;
  tx.assign(pairs, std::vector<std::byte>(kSize, std::byte{0x5a}));
  rx.assign(pairs, std::vector<std::byte>(kSize));
  for (unsigned p = 0; p < pairs; ++p) {
    cluster.run_on(0, [&cluster, p] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(0).wait(cluster.comm(0).isend(1, p + 1, tx[p]));
      }
    });
    cluster.run_on(1, [&cluster, p] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(1).wait(cluster.comm(1).irecv(0, p + 1, rx[p]));
      }
    });
  }
  cluster.run();
  LockCase r;
  r.obs = observe(cluster);
  r.total_us = to_us(cluster.now());
  r.msgs_per_ms = (pairs * kIters) / (r.total_us / 1000.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  std::printf("Ablation A1: library-wide engine lock vs per-event locks\n"
              "(T sender/receiver pairs, 4K eager messages, 2 nodes x 8 "
              "cores)\n");
  print_header("Engine-lock contention",
               {"pairs", "locked(us)", "lk msg/ms", "nolock(us)",
                "nl msg/ms", "lock acq", "contended", "wait p99"});
  BenchJson json("ablation_locking");
  for (const unsigned pairs : {1u, 2u, 4u, 8u}) {
    const LockCase lk = run_case(pairs, /*locked=*/true);
    const LockCase nl = run_case(pairs, /*locked=*/false);
    print_cell("T" + std::to_string(pairs));
    print_cell(lk.total_us);
    print_cell(lk.msgs_per_ms);
    print_cell(nl.total_us);
    print_cell(nl.msgs_per_ms);
    print_cell(lk.obs.lock_acq);
    print_cell(lk.obs.lock_contended);
    print_cell(lk.obs.lock_wait_p99_us);
    end_row();
    json.begin_case("T" + std::to_string(pairs) + "/locked");
    json.metric("total_us", lk.total_us, "lower");
    json.metric("msgs_per_ms", lk.msgs_per_ms, "higher");
    json.metrics_from(lk.obs);
    json.begin_case("T" + std::to_string(pairs) + "/nolock");
    json.metric("total_us", nl.total_us, "lower");
    json.metric("msgs_per_ms", nl.msgs_per_ms, "higher");
    json.metrics_from(nl.obs);
  }
  std::printf(
      "\nExpected shape: lock acquisitions scale with T while the\n"
      "contended share and wait p99 grow superlinearly — the §2.1\n"
      "argument for per-event light locks over one big engine lock.\n");
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
