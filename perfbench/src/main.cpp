// One workload run in this process; prints one JSON line (see to_json).
//
//   perfbench --workload <rpc_tail|stencil_mt|halo_allreduce> --seed <n>
//             [--trace 0|1] [--spans <path.csv>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace {
// Warm set-ups after the measured run (see perfbench::run).
constexpr unsigned kDrySetups = 9;
}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  perfbench::Params p;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      p.seed = std::strtoull(val, nullptr, 0);
    } else if (std::strcmp(key, "--trace") == 0) {
      p.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(key, "--spans") == 0) {
      spans_path = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key);
      return 2;
    }
  }
  const auto record =
      perfbench::run_workload(workload, p, kDrySetups, spans_path);
  if (!record) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("%s\n", perfbench::to_json(*record).c_str());
  std::fflush(stdout);
  // A stalled run left its cluster untorn-down (see run_workload); skip
  // static destruction too.
  if (!record->finished) std::_Exit(0);
  return 0;
}
