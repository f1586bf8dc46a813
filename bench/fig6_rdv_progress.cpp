// Figure 6 — "Offloading of rendezvous progression results".
//
// Paper setup (§4.2): the Fig. 4 kernel with 100 µs of computation and
// message sizes 8K–512K.  Above the 32K threshold the rendezvous protocol
// kicks in; its RTS/CTS handshake only progresses in the background with
// PIOMan.  Series:
//   * no RDV progression  — original NewMadeleine ⇒ sum(comm, comp),
//   * RDV progression     — PIOMan ⇒ max(comm, comp),
//   * no computation      — reference.
//
// The crit/bg columns come from the attribution query over the recorded
// nm request spans (see fig5_small_offload.cpp).
//
// `fig6_rdv_progress --json <path>` also writes the sweep as a
// pm2-bench-v1 trajectory record (see tools/bench_compare.py).
#include <cstdio>
#include <cstring>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace pm2;
  using namespace pm2::bench;

  const char* json_path =
      argc > 2 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;

  const SimDuration comp = 100 * kUs;
  const std::size_t sizes[] = {8 * 1024,   16 * 1024,  32 * 1024,
                               64 * 1024,  128 * 1024, 256 * 1024,
                               512 * 1024};

  std::printf("Figure 6: rendezvous handshake progression "
              "(compute = 100 us, 2 nodes x 8 cores, rdv threshold 32K)\n");
  print_header("Sending time (us)",
               {"size", "no-rdv-progress", "rdv-progress", "reference",
                "base-crit", "prog-crit", "prog-bg"});
  BenchJson json("fig6_rdv_progress");
  for (const std::size_t size : sizes) {
    ClusterObs obs;
    const Fig4Result ref = run_fig4(/*pioman=*/true, size, 0);
    const Fig4Result base = run_fig4(/*pioman=*/false, size, comp);
    const Fig4Result prog =
        run_fig4(/*pioman=*/true, size, comp, 16, {}, {}, &obs);
    print_cell(size_label(size));
    print_cell(base.send_us);
    print_cell(prog.send_us);
    print_cell(ref.send_us);
    print_cell(base.crit_us);
    print_cell(prog.crit_us);
    print_cell(prog.offl_us);
    end_row();
    json.begin_case(size_label(size));
    json.metric("norprog_us", base.send_us, "lower");
    json.metric("rdvprog_us", prog.send_us, "lower");
    json.metric("ref_us", ref.send_us, "lower");
    json.metric("prog_crit_us", prog.crit_us, "lower");
    json.metric("prog_bg_us", prog.offl_us);
    json.metrics_from(obs);  // lock + core-state numbers of the prog run
  }
  if (json_path != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf(
      "\nExpected shape (paper): below 32K the eager path behaves like\n"
      "Fig. 5; above it, no-rdv-progress ~ reference + 100us while\n"
      "rdv-progress ~ max(reference, 100us) — full overlap.\n"
      "base-crit/prog-crit: mean per-request critical-path us from the\n"
      "recorded request spans; background progression moves work into\n"
      "prog-bg.\n");
  return 0;
}
