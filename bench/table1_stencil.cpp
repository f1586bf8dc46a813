// Table 1 — "Impact of the number of threads on the communication
// offloading": the convolution meta-application (§4.3, Figs. 7–8).
//
// Two configurations on a 2-node × 8-core cluster:
//   * 4 threads total  (2 per node) — plenty of idle cores for offloading,
//   * 16 threads total (8 per node) — no statically idle core; PIOMan
//     fills the gaps left by threads waiting for their neighbours.
// Frontier messages stay below the rendezvous threshold, so the benchmark
// measures the copy-offload effect, as in the paper.
//
// Shape floors (exit 1 when violated): offloading gains >= 10% with 4
// threads and never loses with 16.  `table1_stencil --json <path>` writes
// the table as a pm2-bench-v1 trajectory record.
#include <cstdio>
#include <cstring>
#include <iterator>

#include "harness.hpp"
#include "pm2/stencil.hpp"

int main(int argc, char** argv) {
  using namespace pm2;
  using namespace pm2::bench;
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  struct Row {
    const char* label;
    const char* key;  // trajectory case name
    unsigned rows, cols;
  };
  // 4 threads = 2×2 grid; 16 threads = 4×4 grid (Fig. 8).
  const Row rows[] = {{"4 threads", "T4", 2, 2}, {"16 threads", "T16", 4, 4}};

  std::printf("Table 1: stencil meta-application "
              "(2 nodes x 8 cores, 16K frontier messages)\n");
  print_header("Iteration time",
               {"config", "no-offload(us)", "offload(us)", "speedup(%)",
                "offloaded"});
  BenchJson json("table1_stencil");
  double speedup[std::size(rows)] = {};
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    apps::StencilConfig scfg;
    scfg.grid_rows = row.rows;
    scfg.grid_cols = row.cols;
    scfg.frontier_bytes = 16 * 1024;  // below the 32K rdv threshold
    scfg.interior_compute = 150 * kUs;
    scfg.compute_jitter = 0.3;
    scfg.iterations = 20;
    ClusterConfig ccfg;
    ccfg.nodes = 2;
    ccfg.cpus_per_node = 8;

    ccfg.pioman = false;
    const apps::StencilResult base = apps::run_stencil(scfg, ccfg);
    ccfg.pioman = true;
    const apps::StencilResult offl = apps::run_stencil(scfg, ccfg);

    speedup[i] =
        (base.iteration_us - offl.iteration_us) / base.iteration_us * 100.0;
    print_cell(row.label);
    print_cell(base.iteration_us);
    print_cell(offl.iteration_us);
    print_cell(speedup[i]);
    print_cell(static_cast<double>(offl.offloaded_submissions));
    end_row();
    json.begin_case(row.key);
    json.metric("no_offload_us", base.iteration_us, "lower");
    json.metric("offload_us", offl.iteration_us, "lower");
    json.metric("speedup_pct", speedup[i]);
    json.metric("offloaded",
                static_cast<double>(offl.offloaded_submissions));
  }
  // The verdict follows the measured speedups, not the paper's.
  const auto outcome = [](double pct) {
    return pct >= 5.0 ? "a clear win" : pct > 0.0 ? "a small win" : "a loss";
  };
  std::printf(
      "\nExpected shape (paper): offloading wins in both configurations\n"
      "(441->382us = 14%% with 4 threads, 1183->1031us = 13%% with 16).\n"
      "Here: %s with %s (%+.1f%%), %s with %s (%+.1f%%).\n"
      "The paper's shape %s (see EXPERIMENTS.md).\n",
      outcome(speedup[0]), rows[0].label, speedup[0], outcome(speedup[1]),
      rows[1].label, speedup[1],
      speedup[0] > 0.0 && speedup[1] > 0.0 ? "holds" : "does not hold");
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  int rc = 0;
  if (speedup[0] < 10.0) {
    std::fprintf(stderr, "FAIL: 4-thread offload speedup %.1f%% below the "
                 "10%% floor\n", speedup[0]);
    rc = 1;
  }
  if (speedup[1] < 0.0) {
    std::fprintf(stderr, "FAIL: offloading loses at 16 threads (%.1f%%)\n",
                 speedup[1]);
    rc = 1;
  }
  return rc;
}
