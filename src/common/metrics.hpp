// Unified, hierarchical metrics registry — the single export surface for
// every counter the stack maintains.
//
// Subsystems keep their hot counters where they always lived (plain
// std::uint64_t fields in a Stats struct, incremented with zero overhead)
// and *bind* them into the registry under a slash-separated name such as
// "node0/piom/offload/posted".  The registry reads through the bound
// pointer at export time, so registration costs nothing on the hot path.
// Registry-owned metrics (counters the registry allocates itself, gauges
// computed through a callback, Log2Histograms) cover everything that has
// no natural home in a subsystem struct.
//
// Everything the registry holds exports uniformly:
//   * to_json()                   — the "metrics" section of metrics.json,
//   * tracing::render_timeline()  — the timeline's counter tracks,
//   * visit()                     — pm2::format_report's data source.
//
// Names must be unique across kinds; duplicate registration of the same
// name and kind returns the existing metric (so independent call sites can
// share a counter), while a kind clash aborts — it is always a bug.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace pm2 {

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t {
    kCounter,       // registry-owned monotonic uint64
    kBoundCounter,  // reads through a subsystem-owned uint64
    kGauge,         // registry-owned double
    kBoundGauge,    // computed through a callback at export time
    kHistogram,     // registry-owned Log2Histogram
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- registration ----

  /// Registry-owned counter; same name → same storage.
  std::uint64_t& counter(std::string_view name);

  /// Registry-owned gauge; same name → same storage.
  double& gauge(std::string_view name);

  /// Registry-owned histogram; same name → same storage.
  Log2Histogram& histogram(std::string_view name);

  /// Bind a subsystem-owned counter.  `source` must stay valid for the
  /// registry's lifetime (subsystem structs owned by the Cluster are).
  void bind_counter(std::string_view name, const std::uint64_t* source);

  /// Bind a computed gauge (e.g. "1 when the PIOMan method is blocking").
  void bind_gauge(std::string_view name, std::function<double()> source);

  // ---- lookup / export ----

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// Current numeric value of a counter/gauge by name; 0 when absent or a
  /// histogram.  The lenient default keeps report formatting total.
  [[nodiscard]] double value(std::string_view name) const noexcept;

  /// Histogram by name, or nullptr.
  [[nodiscard]] const Log2Histogram* find_histogram(
      std::string_view name) const noexcept;

  /// Read-only view of one metric during visit().
  struct View {
    std::string_view name;
    Kind kind;
    double number = 0;                     // counters and gauges
    const Log2Histogram* hist = nullptr;   // histograms only
  };

  /// Visit every metric in name order.
  void visit(const std::function<void(const View&)>& fn) const;

  /// Sum of all counter values whose name starts with `prefix` and ends
  /// with `suffix` (e.g. prefix "node0/cpu", suffix "/steals" aggregates
  /// per-CPU counters into a node total).
  [[nodiscard]] std::uint64_t sum(std::string_view prefix,
                                  std::string_view suffix) const noexcept;

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    Kind kind;
    std::uint64_t counter = 0;
    double gauge = 0;
    const std::uint64_t* bound_counter = nullptr;
    std::function<double()> bound_gauge;
    std::unique_ptr<Log2Histogram> hist;
  };

  Metric& emplace(std::string_view name, Kind kind);
  [[nodiscard]] static double numeric(const Metric& m) noexcept;

  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace pm2
