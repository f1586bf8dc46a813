// Multithreaded message rate — the tentpole measurement for the sharded
// matching path (src/nmad/matching).
//
// T sender threads on node 0 (one per core, pinned) stream 4 KiB eager
// messages to T receiver threads on node 1, each pair on its own tag,
// tags spaced one tag band apart so every flow lands on its own matching
// shard.  Two engines run the identical schedule:
//
//  * "single"  — the paper's §2.1 library-wide engine lock in front of
//    one matching path (forced with the engine_lock ablation lever): every
//    isend/irecv/flush serializes, so the rate stays ~flat as T grows;
//  * "sharded" — match_shards=16 per-peer×tag-band shards with lock-free
//    MPSC posting rings, plus per_core_endpoints so each core injects and
//    polls its own NIC rail.  Injection copies, matching, and wire
//    serialization all spread across cores/rails and the rate scales
//    near-linearly in T.
//
// Both engines submit inline (offload_min_bytes > message size): the
// measurement isolates the matching/injection path itself, not the
// offload machinery (fig5 covers that).  Deterministic discrete-event
// run; `msg_rate --json <path>` writes a pm2-bench-v1 trajectory record.
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
// One tag band apart (tag_band_shift = 3 → 8 tags per band) so distinct
// pairs hit distinct shards.
constexpr nm::Tag kTagStride = 8;

struct RateCase {
  double total_us = 0;
  double msgs_per_ms = 0;
  ClusterObs obs;
};

RateCase run_case(unsigned pairs, bool sharded) {
  ClusterConfig cfg;
  cfg.pioman = true;
  cfg.nm.offload_min_bytes = 1 << 20;  // inline injection on the poster
  if (sharded) {
    cfg.nm.match_shards = 16;
    cfg.nm.per_core_endpoints = true;  // Cluster sizes rails = cpus
  } else {
    cfg.nm.engine_lock = true;
  }
  Cluster cluster(cfg);
  // Static so the buffers outlive the app fibers regardless of when the
  // engine retires them (same idiom as ablation_locking).
  static std::vector<std::vector<std::byte>> tx, rx;
  tx.assign(pairs, std::vector<std::byte>(kSize, std::byte{0x5a}));
  rx.assign(pairs, std::vector<std::byte>(kSize));
  for (unsigned p = 0; p < pairs; ++p) {
    const nm::Tag tag = 1 + p * kTagStride;
    const int cpu = static_cast<int>(p % cfg.cpus_per_node);
    cluster.run_on(
        0,
        [&cluster, p, tag] {
          for (int i = 0; i < kIters; ++i) {
            cluster.comm(0).wait(cluster.comm(0).isend(1, tag, tx[p]));
          }
        },
        "send" + std::to_string(p), cpu);
    cluster.run_on(
        1,
        [&cluster, p, tag] {
          for (int i = 0; i < kIters; ++i) {
            cluster.comm(1).wait(cluster.comm(1).irecv(0, tag, rx[p]));
          }
        },
        "recv" + std::to_string(p), cpu);
  }
  cluster.run();
  RateCase r;
  r.obs = observe(cluster);
  r.total_us = to_us(cluster.now());
  r.msgs_per_ms = (pairs * kIters) / (r.total_us / 1000.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  std::printf(
      "Message rate: single matching path vs sharded matching with\n"
      "per-core endpoints (T pinned pairs, 4K eager, 2 nodes x 8 cores)\n");
  print_header("Multithreaded message rate",
               {"pairs", "single(us)", "sg msg/ms", "sharded(us)",
                "sh msg/ms", "speedup"});
  BenchJson json("msg_rate");
  double base_t1 = 0, sharded_t1 = 0, sharded_t8 = 0;
  for (const unsigned pairs : {1u, 2u, 4u, 8u}) {
    const RateCase sg = run_case(pairs, /*sharded=*/false);
    const RateCase sh = run_case(pairs, /*sharded=*/true);
    if (pairs == 1) {
      base_t1 = sg.msgs_per_ms;
      sharded_t1 = sh.msgs_per_ms;
    }
    if (pairs == 8) sharded_t8 = sh.msgs_per_ms;
    print_cell("T" + std::to_string(pairs));
    print_cell(sg.total_us);
    print_cell(sg.msgs_per_ms);
    print_cell(sh.total_us);
    print_cell(sh.msgs_per_ms);
    print_cell(sh.msgs_per_ms / sg.msgs_per_ms);
    end_row();
    json.begin_case("T" + std::to_string(pairs) + "/single");
    json.metric("total_us", sg.total_us, "lower");
    json.metric("msgs_per_ms", sg.msgs_per_ms, "higher");
    json.metrics_from(sg.obs);
    json.begin_case("T" + std::to_string(pairs) + "/sharded");
    json.metric("total_us", sh.total_us, "lower");
    json.metric("msgs_per_ms", sh.msgs_per_ms, "higher");
    json.metrics_from(sh.obs);
  }
  const double scaling = sharded_t8 / sharded_t1;
  json.begin_case("scaling");
  json.metric("sharded_T8_over_T1", scaling, "higher");
  json.metric("sharded_T1_over_single_T1", sharded_t1 / base_t1);
  std::printf(
      "\nsharded scaling T8/T1: %.2fx (single path stays ~flat — the\n"
      "engine lock serializes every injection and match)\n",
      scaling);
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  if (scaling < 3.0) {
    std::fprintf(stderr,
                 "FAIL: sharded T8/T1 scaling %.2fx below the 3x floor\n",
                 scaling);
    return 1;
  }
  return 0;
}
