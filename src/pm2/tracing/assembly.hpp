// Cross-node trace assembly, critical-path extraction, and export.
//
// Assembly merges every node's flat event stream, groups events into
// spans (by span_id) and spans into traces (by trace_id), and validates
// each trace's tree: parents resolve, no cycles, every span closed by its
// matching closing kind.
//
// The critical path of a completed RPC trace is the causal event chain
// from the root call-issued event to the *last* signal-delivered event
// (which is exactly the instant Completion::done_at() reports — the
// latency every bench measures).  The chain is reconstructed by walking
// backwards: within a span, an event's predecessor is the previous event
// of that span; at a span's opening event, it is the latest event of the
// parent span not after it.  Consecutive chain events name a segment
// (marshal, client queue, wire, unexpected-store dwell, dispatch queue,
// handler, signal return), and because the segments telescope over the
// chain, their durations sum to the end-to-end latency *exactly* — the
// 1%-reconstruction acceptance check has zero slack to hide in.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pm2/tracing/tracing.hpp"

namespace pm2::tracing {

class ChromeTrace;

/// One span of an assembled trace: its events in time order, its position
/// in the trace tree, and whether its closing kind arrived.
struct SpanView {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = trace root
  EventKind open_kind = EventKind::kCallIssued;
  std::uint32_t service = 0;
  unsigned node = 0;  // where the span opened
  SimTime begin = 0;
  SimTime end = 0;  // last event (== closing event when closed)
  bool closed = false;
  std::vector<Event> events;  // sorted by (at, recording order)
};

/// One segment of a critical path: [from, to) attributed to `name`.
struct Segment {
  const char* name = "";
  SimTime from = 0;
  SimTime to = 0;

  [[nodiscard]] SimDuration ns() const noexcept { return to - from; }
};

/// One assembled trace.
struct TraceView {
  std::uint64_t id = 0;
  const char* kind = "rpc";   // "rpc" | "coll" (root span's flavour)
  std::uint32_t service = 0;  // root span's service id
  unsigned root_node = 0;
  SimTime begin = 0;  // root span opening
  SimTime end = 0;    // rpc: last signal delivery; coll: root close
  bool complete = false;  // tree valid, every span closed, terminal found
  std::vector<SpanView> spans;      // root first, then by (begin, id)
  std::vector<Segment> critical_path;  // rpc + complete only

  [[nodiscard]] SimDuration e2e_ns() const noexcept { return end - begin; }
};

struct Assembly {
  std::vector<TraceView> traces;
  std::uint64_t events = 0;
  std::uint64_t spans = 0;
  std::uint64_t open_spans = 0;  // spans whose closing kind never arrived
};

/// Merge the recorders' causal events into assembled traces (sorted by
/// trace id).  nm request events are skipped (see requests.hpp).
[[nodiscard]] Assembly assemble(
    std::span<const Recorder* const> recorders);

/// The segment a (predecessor, successor) chain-event pair is attributed
/// to; "other" for pairs outside the nominal RPC path.
[[nodiscard]] const char* segment_name(EventKind from, EventKind to) noexcept;

/// The canonical segment taxonomy, in nominal path order (for docs,
/// histograms, and checkers).
[[nodiscard]] std::span<const char* const> segment_taxonomy() noexcept;

/// Serialise one trace as a JSON object (spans, events, critical path) —
/// the exemplar payload of metrics.json's "tracing" section.
[[nodiscard]] std::string trace_to_json(const TraceView& trace);

/// Draw one trace into a Chrome/Perfetto timeline: one async ("b"/"e")
/// span per SpanView on its opening node's "nodeN/trace" track, plus
/// instant marks for the interior events.
void export_trace(ChromeTrace& out, const TraceView& trace);

}  // namespace pm2::tracing
