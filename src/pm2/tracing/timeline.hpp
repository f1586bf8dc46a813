// The Chrome / Perfetto timeline: a JSON writer, and the exporter that
// renders one run's timeline from the per-node recorders plus the metrics
// registry.  Nothing records for the timeline on its own: core tracks come
// from the recorders' CoreSlices, nm slivers and offload/wire arrows from
// the nm request spans, and counter tracks from the registry.  The table
// of which track, sliver, arrow and counter comes from where is in
// docs/observability.md ("Reading a trace").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "common/simtime.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::tracing {

/// Chrome trace JSON writer (array form).  Each call appends its events
/// at once; a track ("thread") gets its tid on first use, and the tid
/// stays fixed across json() calls.
class ChromeTrace {
 public:
  /// A complete slice [begin, end) on `track` ("X").
  void slice(std::string_view track, std::string_view name,
             std::string_view category, SimTime begin, SimTime end);

  /// A zero-duration marker ("i").
  void instant(std::string_view track, std::string_view name, SimTime at);

  /// One sample of a counter ("C").
  void counter(std::string_view track, std::string_view name, SimTime at,
               double value);

  /// A flow arrow from (`from_track`, `from`) to (`to_track`, `to`): an
  /// "s" and an "f" event sharing a fresh id.  Each endpoint should fall
  /// inside a slice of its track, which the viewer binds the arrow to.
  void arrow(std::string_view name, std::string_view from_track,
             SimTime from, std::string_view to_track, SimTime to);

  /// An async span ("b" + "e") of (`category`, `id`).  Async spans nest
  /// by id rather than by stack order, so overlapping spans stack on one
  /// track instead of corrupting its slice stack.
  void async_span(std::string_view track, std::string_view name,
                  std::string_view category, std::uint64_t id,
                  SimTime begin, SimTime end);

  /// The whole document: track metadata, then every event.
  [[nodiscard]] std::string json() const;

  /// Write json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

  [[nodiscard]] std::size_t event_count() const noexcept { return events_; }

 private:
  /// Start one event: `{"name":...,"ph":...,"ts":...,"pid":1,"tid":...`.
  void begin_event(std::string_view track, std::string_view name,
                   const char* ph, SimTime at);

  std::string body_;
  std::size_t events_ = 0;
  std::uint64_t next_arrow_ = 1;
  std::map<std::string, int, std::less<>> tracks_;
};

/// Render the timeline of one run into `out`: the core tracks, nm slivers
/// and arrows of every recorder (null entries are skipped), and the
/// counter tracks of `registry` sampled at `now`.
void render_timeline(ChromeTrace& out,
                     std::span<const Recorder* const> recorders,
                     const MetricsRegistry& registry, SimTime now);

}  // namespace pm2::tracing
