// Figure 5 — "Small messages offloading results".
//
// Paper setup (§4.1): both peers run the Fig. 4 kernel with 20 µs of
// computation; message sizes 1K–32K ride the eager (PIO/copy) path.
// Series:
//   * no computation (reference)  — pure communication time,
//   * no copy offloading          — original NewMadeleine ⇒ sum(comm, comp),
//   * copy offloading             — PIOMan ⇒ max(comm, comp) (+ ≈2 µs at
//                                   the crossover, reported in the last
//                                   column).
//
// The crit/offl columns come from the attribution query over the recorded
// nm request spans: mean per-request microseconds serialized on the
// posting thread versus moved to an idle core.  Without offloading the whole injection is
// critical-path; with PIOMan it shifts into the offl column.
//
// `fig5_small_offload --traced [size]` runs one size (default 4K) in both
// modes with recording on, writing fig5_baseline.metrics.json and
// fig5_offload.metrics.json; set PM2_TRACE to also capture a Chrome trace
// of the offload run (the baseline run's trace is overwritten).
//
// `fig5_small_offload --json <path>` additionally writes the sweep as a
// pm2-bench-v1 trajectory record (see tools/bench_compare.py).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.hpp"

namespace {

int run_traced(std::size_t size) {
  using namespace pm2;
  using namespace pm2::bench;

  const SimDuration comp = 20 * kUs;
  std::printf("Figure 5 traced run: size %zu, compute 20 us\n", size);
  // Offload mode runs last so a PM2_TRACE capture holds the offload
  // timeline (each Cluster writes the trace at destruction).
  const Fig4Result base = run_fig4(/*pioman=*/false, size, comp, 16, {},
                                   "fig5_baseline.metrics.json");
  const Fig4Result offl = run_fig4(/*pioman=*/true, size, comp, 16, {},
                                   "fig5_offload.metrics.json");
  std::printf("baseline: send %.2f us, crit %.2f us, offl %.2f us\n",
              base.send_us, base.crit_us, base.offl_us);
  std::printf("offload : send %.2f us, crit %.2f us, offl %.2f us\n",
              offl.send_us, offl.crit_us, offl.offl_us);
  std::printf("wrote fig5_baseline.metrics.json, fig5_offload.metrics.json\n");
  if (offl.crit_us >= base.crit_us) {
    std::printf("FAIL: offload critical path (%.2f us) not below baseline "
                "(%.2f us)\n", offl.crit_us, base.crit_us);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pm2;
  using namespace pm2::bench;

  if (argc > 1 && std::strcmp(argv[1], "--traced") == 0) {
    const std::size_t size =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 4096;
    return run_traced(size);
  }
  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  const SimDuration comp = 20 * kUs;
  const std::size_t sizes[] = {1024, 2048, 4096, 8192, 16384, 32768};

  std::printf("Figure 5: small messages offloading "
              "(compute = 20 us, 2 nodes x 8 cores, eager path)\n");
  print_header("Sending time (us)",
               {"size", "reference", "no-offload", "offload",
                "overhead(us)", "base-crit", "offl-crit", "offl-bg"});
  BenchJson json("fig5_small_offload");
  for (const std::size_t size : sizes) {
    ClusterObs obs;
    const Fig4Result ref = run_fig4(/*pioman=*/true, size, 0);
    const Fig4Result base = run_fig4(/*pioman=*/false, size, comp);
    const Fig4Result offl =
        run_fig4(/*pioman=*/true, size, comp, 16, {}, {}, &obs);
    const double ideal = std::max(ref.send_us, to_us(comp));
    print_cell(size_label(size));
    print_cell(ref.send_us);
    print_cell(base.send_us);
    print_cell(offl.send_us);
    print_cell(offl.send_us - ideal);
    print_cell(base.crit_us);
    print_cell(offl.crit_us);
    print_cell(offl.offl_us);
    end_row();
    json.begin_case(size_label(size));
    json.metric("ref_us", ref.send_us, "lower");
    json.metric("nooffl_us", base.send_us, "lower");
    json.metric("offl_us", offl.send_us, "lower");
    json.metric("offl_crit_us", offl.crit_us, "lower");
    json.metric("offl_bg_us", offl.offl_us);
    json.metrics_from(obs);  // lock + core-state numbers of the offload run
  }
  {
    // Tracing-overhead gate: records charge no virtual time, so the
    // recorded run must reproduce the unrecorded schedule (ratio 1.0).
    // Anything below 0.95 means recording leaked cost into the simulation.
    const std::size_t size = 4096;
    const Fig4Result plain = run_fig4(/*pioman=*/true, size, comp, 16, {}, {},
                                      nullptr, /*record=*/false);
    const Fig4Result traced = run_fig4(/*pioman=*/true, size, comp);
    const double ratio = traced.send_us > 0 ? plain.send_us / traced.send_us
                                            : 0.0;
    std::printf("\ntraced overhead (4K): untraced %.2f us, traced %.2f us, "
                "rate ratio %.4f\n", plain.send_us, traced.send_us, ratio);
    json.begin_case("traced_overhead_4K");
    json.metric("traced_rate_ratio", ratio, "higher");
    json.metric("untraced_send_us", plain.send_us, "lower");
    json.metric("traced_send_us", traced.send_us, "lower");
    if (ratio < 0.95) {
      std::printf("FAIL: tracing costs more than 5%% message rate "
                  "(ratio %.4f)\n", ratio);
      return 1;
    }
  }
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf(
      "\nExpected shape (paper): no-offload ~ reference + 20us (sum);\n"
      "offload ~ max(reference, 20us); overhead ~ 2us near the crossover.\n"
      "base-crit/offl-crit: mean per-request critical-path us from the\n"
      "recorded request spans — offloading moves the injection into offl-bg.\n"
      "(Receive-side behaviour is covered by bench/reactivity — in the\n"
      "ping-pong the rwait couples to the peer's send and is not a clean\n"
      "per-side metric.)\n");
  return 0;
}
