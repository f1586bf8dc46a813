// Self-tests of the benchmark, on shrunken instances of every workload:
//   - same seed, same virtual metrics; another seed, another workload;
//   - traced and untraced runs give bit-identical virtual metrics;
//   - rpc_tail segments tile each request's latency exactly, and the
//     tiling check catches gaps and stamps that run backwards;
//   - core-state sums equal nodes x cores x virtual makespan (checked in
//     every run; a violation clears Record::correct);
//   - a stalled run ends at its virtual deadline with its op failed.
//
//   perfbench_tests            # exit 0 when every check passes
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::Record run(const char* name, std::uint64_t seed, bool trace) {
  perfbench::Params p;
  p.seed = seed;
  p.trace = trace;
  p.shrink = 16;
  return *perfbench::run_workload(name, p, /*dry_setups=*/1);
}

/// Node 1 waits for a message nobody sends.
class Stalled final : public perfbench::Workload {
 public:
  pm2::ClusterConfig config() const override { return {}; }
  void install(pm2::Cluster& cluster, perfbench::Spans&) override {
    cluster.run_on(1, [this, &cluster] {
      std::vector<std::byte> buf(64);
      op_.start = cluster.now();
      cluster.comm(1).wait(cluster.comm(1).irecv(0, 7, buf));
      op_.end = cluster.now();
      op_.done = true;
    });
  }
  pm2::SimTime deadline() const override { return pm2::kMs; }
  void finish(pm2::Cluster&, perfbench::Spans&,
              perfbench::Outcome& out) override {
    out.ops = {op_};
  }

 private:
  perfbench::Op op_;
};

}  // namespace

int main() {
  for (const char* name : {"rpc_tail", "stencil_mt", "halo_allreduce"}) {
    const std::string w = name;
    const perfbench::Record a = run(name, 7, false);
    const perfbench::Record b = run(name, 7, false);
    const perfbench::Record t = run(name, 7, true);
    const perfbench::Record c = run(name, 8, false);
    expect(a.correct && a.failed == 0 && a.attempted > 0,
           w + ": outputs correct, core-state law holds");
    expect(t.correct && t.spans > 0, w + ": traced run correct, spans kept");
    expect(a.virt == b.virt && a.layer_virtual == b.layer_virtual,
           w + ": same seed reproduces virtual metrics");
    expect(a.virt == t.virt && a.layer_virtual == t.layer_virtual,
           w + ": traced and untraced virtual metrics identical");
    expect(a.layer_spans.empty() && !t.layer_spans.empty(),
           w + ": span metrics only in the traced run");
    expect(c.virt != a.virt, w + ": another seed changes the workload");
  }
  // Tiling is enforced inside the run (untiled requests fail their op), so
  // a correct traced rpc_tail run has every request tiled; check that the
  // check itself bites on a broken tree.
  perfbench::Spans s(true);
  const auto root = s.open("rpc.request", 0, 100);
  s.add("gen.lag", 0, 100, 110, root);
  s.add("rpc.call", 0, 110, 120, root);
  s.close(root, 130);
  expect(s.untiled_roots("rpc.request") == 1,
         "untiled_roots flags a request whose segments leave a gap");
  // Out-of-order stamps: the unsigned durations still sum to 30 modulo
  // 2^64, but the children do not tile the root.
  perfbench::Spans w(true);
  const auto r2 = w.open("rpc.request", 0, 100);
  w.add("gen.lag", 0, 100, 110, r2);
  w.add("rpc.transit", 0, 110, 105, r2);
  w.add("rpc.return", 0, 105, 130, r2);
  w.close(r2, 130);
  expect(w.untiled_roots("rpc.request") == 1,
         "untiled_roots flags segments whose stamps run backwards");
  perfbench::Spans ok(true);
  const auto r3 = ok.open("rpc.request", 0, 100);
  ok.add("rpc.return", 0, 120, 130, r3);
  ok.add("gen.lag", 0, 100, 120, r3);
  ok.close(r3, 130);
  expect(ok.untiled_roots("rpc.request") == 0,
         "untiled_roots accepts contiguous segments in any record order");
  const auto self = s.self_times();
  expect(self.size() == 3 && self[0] == 10 && self[1] == 10,
         "self time = duration minus children's cover");
  // A stalled run leaks its cluster (tearing it down would resume the
  // blocked fiber into freed state), so it runs in a child that exits
  // without static teardown, as the benchmark binary does after a stall.
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    const perfbench::Record st = perfbench::run(
        [] { return std::make_unique<Stalled>(); }, perfbench::Params{}, 1);
    std::_Exit(!st.finished && !st.correct && st.attempted == 1 &&
                       st.failed == 1
                   ? 0
                   : 1);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  expect(pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
         "a stall ends at the deadline and counts its op as failed");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
