// The Marcel runtime: owns the simulated machine (nodes × CPUs) on top of a
// discrete-event engine.
#pragma once

#include <memory>
#include <vector>

#include "marcel/config.hpp"
#include "marcel/node.hpp"
#include "sim/engine.hpp"

namespace pm2::marcel {

class Runtime {
 public:
  Runtime(sim::Engine& engine, Config cfg);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] unsigned node_count() const noexcept {
    return static_cast<unsigned>(nodes_.size());
  }
  [[nodiscard]] Node& node(unsigned i) noexcept { return *nodes_[i]; }

  /// Sum of per-CPU stats across the machine.
  [[nodiscard]] Cpu::Stats total_stats() const noexcept;

  /// Attach a schedule fuzzer (nullptr detaches): wires it into the engine
  /// (event-time jitter), publishes it as the process-wide active fuzzer for
  /// fuzz::interleave_point() sites, and installs a suspend hook that turns
  /// interleave windows into real compute-suspensions of the calling fiber.
  void attach_fuzzer(sim::ScheduleFuzzer* fuzzer);

 private:
  sim::Engine& engine_;
  Config cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace pm2::marcel
