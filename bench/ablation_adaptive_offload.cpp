// Ablation A6 — the paper's future-work question (§5): should submission
// offload be forced even when no core is idle?
//
// Config::offload_on_tick dispatches pending submissions from the timer
// tick, preempting a computing thread (softirq-style).  This bounds
// submission latency but puts the cost back on a busy core.  The stencil
// (all cores busy) and the Fig. 5 microbench (idle cores available) show
// the two sides of the trade-off.
//
// Shape floor (exit 1 when violated): with all cores busy, forcing the
// offload does not win at all (any drop in us/iter fails; the model is
// deterministic, so no noise band) — the paper's "don't force it" reading.
// `ablation_adaptive_offload --json <path>` writes both cases as a
// pm2-bench-v1 trajectory record.
#include <cstdio>
#include <cstring>

#include "harness.hpp"
#include "pm2/stencil.hpp"

int main(int argc, char** argv) {
  using namespace pm2;
  using namespace pm2::bench;
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  std::printf("Ablation A6: forced offload from the timer tick\n");

  // Case 1: oversubscribed stencil (16 threads on 16 cores).
  apps::StencilConfig scfg;
  scfg.grid_rows = 4;
  scfg.grid_cols = 4;
  scfg.frontier_bytes = 16 * 1024;
  scfg.interior_compute = 150 * kUs;
  scfg.iterations = 15;
  ClusterConfig ccfg;
  ccfg.cpus_per_node = 8;
  ccfg.marcel.timer_tick = 50 * kUs;

  ccfg.piom.offload_on_tick = false;
  const double lazy = apps::run_stencil(scfg, ccfg).iteration_us;
  ccfg.piom.offload_on_tick = true;
  const double eager_tick = apps::run_stencil(scfg, ccfg).iteration_us;

  print_header("Stencil, all cores busy (us/iter)",
               {"wait-flush only", "offload-on-tick"});
  print_cell(lazy);
  print_cell(eager_tick);
  end_row();

  // Case 2: Fig. 5 point (idle cores available) — the tick path should be
  // irrelevant because the idle core takes the work immediately.
  ClusterConfig f5;
  f5.piom.offload_on_tick = false;
  const double f5_lazy = run_fig4(true, 16 * 1024, 20 * kUs, 12, f5).send_us;
  f5.piom.offload_on_tick = true;
  const double f5_tick = run_fig4(true, 16 * 1024, 20 * kUs, 12, f5).send_us;

  print_header("Fig.5 point 16K/20us (us)",
               {"wait-flush only", "offload-on-tick"});
  print_cell(f5_lazy);
  print_cell(f5_tick);
  end_row();

  // The reading follows the measurements: a change within 1% is neutral.
  const auto verdict = [](double pct) {
    return pct <= -1.0 ? "wins" : pct >= 1.0 ? "loses" : "is neutral";
  };
  const double idle_pct = (f5_tick - f5_lazy) / f5_lazy * 100.0;
  const double busy_pct = (eager_tick - lazy) / lazy * 100.0;
  std::printf(
      "\nReading: tick-forced offload %s with idle cores (%+.1f%% send\n"
      "time) and %s with all cores busy (%+.1f%% us/iter), so the measured\n"
      "answer to the paper's open question is %s.\n",
      verdict(idle_pct), idle_pct, verdict(busy_pct), busy_pct,
      busy_pct <= -1.0  ? "\"force it\""
      : busy_pct >= 1.0 ? "\"don't force it\""
                        : "\"it does not matter\"");
  if (json_path != nullptr) {
    BenchJson json("ablation_adaptive_offload");
    json.begin_case("stencil_busy");
    json.metric("wait_flush_us", lazy, "lower");
    json.metric("offload_on_tick_us", eager_tick, "lower");
    json.metric("tick_vs_flush_pct", busy_pct);
    json.begin_case("fig5_idle");
    json.metric("wait_flush_us", f5_lazy, "lower");
    json.metric("offload_on_tick_us", f5_tick, "lower");
    json.metric("tick_vs_flush_pct", idle_pct);
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  if (busy_pct < 0.0) {
    std::fprintf(stderr, "FAIL: forced offload wins with all cores busy "
                 "(%+.1f%%)\n", busy_pct);
    return 1;
  }
  return 0;
}
