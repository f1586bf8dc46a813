// Deterministic fault injection for the simulated fabric.
//
// A FaultPlan describes how links misbehave — probabilistic drop,
// duplication, reordering (extra delay that escapes the per-link FIFO
// clamp), payload bit-corruption, and time-windowed degradation (loss
// spikes, link flaps).  A FaultInjector executes the plan against a
// seeded sim::Rng, so a given (plan, seed, workload) triple replays the
// exact same fault schedule on every run.
//
// The injector only touches inter-node kPacket traffic (eager/control
// packets).  The RDMA data channel is modelled as reliable — real
// RDMA-capable NICs retry at the link level in firmware — so rendezvous
// *handshakes* can be lost but committed zero-copy transfers land.
//
// When no injector is installed, Fabric::transmit takes a single
// never-taken branch: the lossless fast path is byte-identical to a
// build without this subsystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/simtime.hpp"
#include "sim/rng.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::net {

/// Per-link fault probabilities (each drawn independently per packet).
struct LinkFaults {
  double drop = 0.0;       // packet vanishes after occupying the link
  double duplicate = 0.0;  // a second copy arrives shortly after the first
  double reorder = 0.0;    // extra delay in [1, reorder_delay_max]; the
                           // packet escapes the FIFO arrival clamp
  double corrupt = 0.0;    // one uniformly chosen bit is flipped
  SimDuration reorder_delay_max = 25 * 1000;  // ns

  [[nodiscard]] bool any() const noexcept {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0;
  }
};

/// Time-windowed degradation: during [from, until) the matching links use
/// the *maximum* of their base probabilities and these — a loss spike, a
/// flapping link, a congested period.
struct DegradeWindow {
  SimTime from = 0;
  SimTime until = 0;
  int src = -1;  // -1 = any source node
  int dst = -1;  // -1 = any destination node
  LinkFaults faults;
};

struct FaultPlan {
  /// Applied to every inter-node link without a per-link override.
  LinkFaults defaults;
  /// Per-(src,dst) overrides, replacing `defaults` for that directed link.
  std::map<std::pair<unsigned, unsigned>, LinkFaults> links;
  /// Scheduled degradation periods, stacked on top of the above.
  std::vector<DegradeWindow> windows;

  [[nodiscard]] bool empty() const noexcept {
    if (defaults.any()) return false;
    for (const auto& [link, lf] : links) {
      if (lf.any()) return false;
    }
    for (const auto& w : windows) {
      if (w.faults.any()) return false;
    }
    return true;
  }
};

/// What the injector decided for one packet.
struct FaultAction {
  bool drop = false;
  bool corrupt = false;
  unsigned extra_copies = 0;     // duplicates to deliver after the original
  SimDuration extra_delay = 0;   // >0: reordered (escapes the FIFO clamp)
  std::size_t corrupt_bit = 0;   // absolute bit index into the packet
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Decide the fate of one packet of `bytes` length on (src→dst, rail).
  /// Draws a fixed number of variates per call so the schedule stays
  /// reproducible across probability changes of unrelated links.
  FaultAction decide(unsigned src, unsigned dst, unsigned rail, SimTime now,
                     std::size_t bytes);

  struct Stats {
    std::uint64_t considered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "fabric/faults").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  [[nodiscard]] LinkFaults effective(unsigned src, unsigned dst,
                                     SimTime now) const;

  FaultPlan plan_;
  sim::Rng rng_;
  Stats stats_;
};

}  // namespace pm2::net
