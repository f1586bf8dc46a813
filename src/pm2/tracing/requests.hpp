// nm request spans and the critical-path latency attribution over them.
//
// nm::Core records every request's lifecycle into its node's Recorder as
// one nm.send / nm.recv span (Recorder::record_request), and the RMA
// engine does the same for its one-sided operations.  This query rebuilds
// the spans from the recorders and splits each request's latency into the
// components the paper argues about:
//
//   * critical-path µs — time the *posting* thread could not overlap:
//       send:  post→enqueue, plus the injection (pickup→injected) when it
//              ran on the posting thread itself (no offload),
//       recv:  wire-rx→completed when delivery ran on the posting thread.
//   * offloaded µs    — the same injection/delivery work when PIOMan moved
//                       it to another context (idle core tasklet, LWP).
//   * wire µs         — injected(sender) → wire-rx(receiver) for eager
//                       pairs; injected(sender) → completed(receiver) for
//                       rendezvous (the RTS precedes the data put, so the
//                       recv's wire-rx stamp is the handshake, not data).
//   * wait µs         — wait-enter → woken.
//
// Send/recv pairs are joined across nodes on (src, dst, tag, seq) — the
// whole cluster is one process, so the join is a plain map lookup.  A
// request counts as retransmitted when the reliability layer recorded a
// kNmRetransmit event for its (node, peer, tag, seq) and side.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::tracing {

struct Assembly;

/// One request span rebuilt from its events.
struct RequestSpan {
  unsigned node = 0;
  RequestLife life;  // identity, lineage, flags, stage stamps
  bool retransmitted = false;

  [[nodiscard]] bool send() const noexcept {
    return (life.flags & kNmRecv) == 0;
  }
};

/// Every request span the recorders hold (null entries are skipped), per
/// recorder in release order.
[[nodiscard]] std::vector<RequestSpan> request_spans(
    std::span<const Recorder* const> recorders);

/// Traced request spans (trace != 0) whose parent is not a span of their
/// own assembled trace.  Zero when every staged lineage resolves.
[[nodiscard]] std::uint64_t unparented_requests(
    std::span<const RequestSpan> spans, const Assembly& assembly);

/// Aggregates across every node's requests.
struct Attribution {
  RunningStats crit_us;       // per-request critical path (sends + recvs)
  RunningStats offl_us;       // per-request offloaded time (all requests)
  RunningStats send_crit_us;  // send-only view of the above
  RunningStats recv_crit_us;
  RunningStats wire_us;  // matched send/recv pairs only
  RunningStats wait_us;  // requests that entered wait()

  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t pairs = 0;          // cross-node joins that resolved
  std::uint64_t offloaded = 0;      // requests whose work ran elsewhere
  std::uint64_t retransmitted = 0;  // requests with ≥1 ARQ retransmit
};

[[nodiscard]] Attribution attribute(std::span<const RequestSpan> spans);

/// Mirror the aggregates into `registry` under "attribution/..." so the
/// report and the JSON export read from one surface.
void export_attribution(MetricsRegistry& registry, const Attribution& a);

/// JSON object for the "attribution" section of metrics.json.
[[nodiscard]] std::string attribution_to_json(const Attribution& a);

/// Human-readable block appended to pm2::format_report.
[[nodiscard]] std::string format_attribution(const Attribution& a);

}  // namespace pm2::tracing
