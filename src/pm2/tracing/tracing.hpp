// Causal distributed tracing — the context primitive and the per-node
// event recorder.
//
// A TraceContext {trace_id, parent_span_id} is minted at the root of a
// causal chain (an RPC call() issued outside any handler, a collective
// start) and piggybacked on everything the chain touches: the RPC wire
// header, packed CompletionRefs, signal messages, the nm requests posted
// on the chain's behalf.  Each hop opens a *span* (client call, server
// handling, completion signal, collective DAG op) parented to the span it
// was caused by, so the spans of one trace form a tree that crosses nodes.
//
// The same recorder holds every nm request's lifecycle: one nm.send /
// nm.recv span per request, emitted whole when nm::Core releases it (see
// RequestLife), parented to the context staged by Core::set_next_trace
// (trace 0 when nothing was staged).  Request spans are not part of the
// causal trace trees assembly builds; the attribution query
// (requests.hpp) reads them straight from the recorders.
//
// The recorder also holds the node's core timeline when the marcel
// timeline switch is on (marcel::Config::timeline): one CoreSlice per
// occupancy period and per core-state period of every core.  The Chrome
// timeline (timeline.hpp) is rendered from these slices, the request
// spans and the metrics registry; nothing else records for it.
//
// The recorder stores flat *events*, not interval objects: a span is the
// set of events sharing a span_id, opened by its first (opening-kind)
// event and closed by the matching closing kind.  Events are plain
// push_backs with no simulated cost and no CPU charge, so recording is
// legal from any context — handler vthreads, poll fibers, tasklets, raw
// engine context — and tracing never perturbs the virtual clock (the
// traced-vs-untraced throughput delta is exactly zero by construction;
// the bench trajectory gates it anyway).
//
// All nodes share one virtual clock, so cross-node event times are
// directly comparable and assembly (see assembly.hpp) can reconstruct
// each trace's wall time exactly from the event chain.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::tracing {

/// The piggybacked lineage: which trace an action belongs to, and which
/// span new child spans should parent to.  trace_id 0 = untraced.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// Causal event kinds.  Opening kinds start a span; closing kinds end the
/// span they name; mark kinds annotate an open span.  The RPC request
/// path in nominal order:
///   call-issued > marshal-done > send-done        (client, rpc.call span)
///   wire-rx > enqueued > dispatched >             (server, rpc.server)
///   handler-begin > handler-end
///   signal-sent > signal-delivered                (rpc.signal span)
enum class EventKind : std::uint8_t {
  // -- opening kinds --
  kCallIssued,     // opens rpc.call (client side of one hop)
  kWireRx,         // opens rpc.server (request arrival, unexpected store)
  kSignalSent,     // opens rpc.signal
  kCollStart,      // opens coll (one rank's schedule-DAG root)
  kCollOpIssued,   // opens coll.op (one DAG primitive)
  // -- marks --
  kMarshalDone,    // client: args serialised, pack about to submit
  kSendDone,       // client: pack send completed (also closes rpc.call)
  kEnqueued,       // server: receive done, message in the engine inbox
  kDispatched,     // server: header parsed, handler vthread spawned
  kHandlerBegin,   // server: handler body starts on its vthread
  // -- closing kinds --
  kHandlerEnd,     // closes rpc.server
  kSignalDelivered,  // closes rpc.signal (on the completion's home node)
  kCollOpDone,     // closes coll.op
  kCollDone,       // closes coll
  // -- one-sided RMA (origin side; the passive target records nothing) --
  kRmaEpochStart,  // opens rma.epoch (lock..unlock / fence..fence)
  kRmaOpIssued,    // opens rma.op (one put/get/accumulate)
  kRmaOpDone,      // closes rma.op (remotely applied / reply landed)
  kRmaEpochEnd,    // closes rma.epoch
  // -- nm request lifecycle, one kind per Stage in Stage order --
  kNmSendPosted,     // opens nm.send (isend called)
  kNmEnqueued,       // send: accepted into the gate's strategy queue
  kNmOffloadPosted,  // send: injection handed to the PIOMan server
  kNmPickup,         // send: tasklet/fiber starts the injection work
  kNmInjected,       // send: last byte handed to the NIC
  kNmWireRx,         // recv: first wire packet of the message arrived
  kNmMatched,        // recv: matched (send: rendezvous CTS arrived)
  kNmCompleted,      // request completed
  kNmWaitEnter,      // application entered wait()
  kNmWoken,          // wait() returned
  kNmRecvPosted,     // opens nm.recv (irecv called)
  kNmReleased,       // closes nm.send / nm.recv (request recycled)
  kNmRetransmit,     // spanless: the ARQ re-sent a packet of (peer, tag, seq)
};

inline constexpr std::size_t kEventKindCount = 31;

[[nodiscard]] const char* event_kind_name(EventKind k) noexcept;
[[nodiscard]] bool opens_span(EventKind k) noexcept;
[[nodiscard]] bool closes_span(EventKind k) noexcept;
/// The closing kind that ends a span opened by `open` (kSendDone closes
/// kCallIssued, etc.).
[[nodiscard]] EventKind closing_kind_for(EventKind open) noexcept;
/// Human-readable span kind for an opening event ("rpc.call", "coll.op").
[[nodiscard]] const char* span_kind_name(EventKind open) noexcept;
/// True for the nm request-lifecycle kinds (the last ones of the enum).
[[nodiscard]] constexpr bool is_request_kind(EventKind k) noexcept {
  return k >= EventKind::kNmSendPosted;
}

/// Event::flags bits of nm request events.
inline constexpr std::uint8_t kNmRecv = 1;       // receive side (else send)
inline constexpr std::uint8_t kNmRdv = 2;        // rendezvous protocol
inline constexpr std::uint8_t kNmOffloaded = 4;  // work left the posting thread
inline constexpr std::uint8_t kNmNoRequest = 8;  // retransmit of no request

/// One recorded event.  parent_span_id is meaningful on opening events
/// only (it fixes the span's position in the trace tree).  nm request
/// events carry the request's identity on every event: peer, tag (in
/// `service`), seq and flags, plus the core the stage ran on.
struct Event {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  EventKind kind = EventKind::kCallIssued;
  std::uint8_t flags = 0;     // nm: kNmRecv | kNmRdv | kNmOffloaded
  std::uint8_t core = 0;      // nm: 1 + cpu index (0 = engine context)
  std::uint32_t service = 0;  // rpc service / coll op kind / rma win / nm tag
  unsigned node = 0;
  unsigned peer = 0;       // nm: the other side of the request
  SimTime at = 0;
  std::uint32_t seq = 0;   // nm: the flow's message sequence number
};

/// nm request lifecycle stages, in nominal order (see the kNm* kinds).
/// Not every request visits every stage: eager sends skip kMatched,
/// unexpected receives see kWireRx before kPosted, app-driven (non-PIOMan)
/// paths skip kOffloadPosted/kPickup.
enum class Stage : std::uint8_t {
  kPosted, kEnqueued, kOffloadPosted, kPickup, kInjected,
  kWireRx, kMatched, kCompleted, kWaitEnter, kWoken,
};

inline constexpr std::size_t kStageCount = 10;

/// The event kind a stage is recorded as (a receive opens with
/// kNmRecvPosted instead of kNmSendPosted).
[[nodiscard]] constexpr EventKind stage_kind(Stage s) noexcept {
  return static_cast<EventKind>(
      static_cast<unsigned>(EventKind::kNmSendPosted) +
      static_cast<unsigned>(s));
}

/// One nm request's lifecycle while it is live: its identity, the staged
/// causal lineage, and one timestamp per stage with the core it ran on.
/// The stamps live on the request (not in the recorder) because the first
/// write must win when a retransmitted packet arrives again;
/// Recorder::record_request turns the whole record into one span of
/// events when the request is released.
struct RequestLife {
  std::uint64_t trace = 0;   // staged trace (0 = untraced)
  std::uint64_t parent = 0;  // staged parent span
  std::uint64_t span = 0;    // this request's span (Recorder::new_request_span)
  unsigned peer = 0;
  std::uint32_t tag = 0;
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;  // kNmRecv | kNmRdv | kNmOffloaded
  // 1 + cpu index, 0 = none.  One byte each, in the padding after
  // `flags`: 16-bit entries grew nm::Request by 24 bytes, past its malloc
  // size class, and cost ~10 % host run time on message-heavy runs.
  std::uint8_t core[kStageCount] = {};
  SimTime t[kStageCount] = {};

  /// First write wins: retransmitted wire arrivals must not move kWireRx.
  /// `on_core` is 1 + the index of the cpu the stage ran on (0: engine
  /// context, or a stage the timeline does not draw).
  void stamp(Stage s, SimTime now, std::uint8_t on_core = 0) noexcept {
    const auto i = static_cast<std::size_t>(s);
    if (t[i] != 0) return;
    t[i] = now;
    core[i] = on_core;
  }
  [[nodiscard]] SimTime at(Stage s) const noexcept {
    return t[static_cast<std::size_t>(s)];
  }
  /// The cpu index stage `s` ran on, or -1 when unknown.
  [[nodiscard]] int cpu(Stage s) const noexcept {
    return core[static_cast<std::size_t>(s)] - 1;
  }
};

/// One period of a core's timeline: who occupied the core (a thread, or
/// the service fiber's tasklet batch / idle polling), or which core state
/// it was in.  Recorded whole when the period ends, and only when it is
/// non-empty.
struct CoreSlice {
  SimTime begin = 0;
  SimTime end = 0;
  std::uint32_t label = 0;  // Recorder::labels() index: occupant or state
  std::uint16_t cpu = 0;
  bool state = false;  // a core-state period (else an occupancy period)
};

/// Cluster-wide id source shared by every node's Recorder.  The
/// simulation is one process on one virtual clock, so plain increments
/// give globally unique trace and span ids (and deterministic ones:
/// allocation order is part of the fuzzed-but-seeded schedule).
class IdSource {
 public:
  [[nodiscard]] std::uint64_t new_trace() noexcept { return next_trace_++; }
  [[nodiscard]] std::uint64_t new_span() noexcept { return next_span_++; }
  /// Request spans draw from a disjoint range (top bit set), so recording
  /// requests never shifts the ids of the causal spans and traces.
  [[nodiscard]] std::uint64_t new_request_span() noexcept {
    return next_request_++;
  }

 private:
  std::uint64_t next_trace_ = 1;
  std::uint64_t next_span_ = 1;
  std::uint64_t next_request_ = (std::uint64_t{1} << 63) + 1;
};

/// Per-node trace recorder.  Owned by the Cluster; nm::Core and the RPC,
/// collective and RMA engines hold a raw pointer (nullptr = recording off,
/// every hook is one untaken branch).  Also keeps the node's *ambient*
/// contexts: the trace context adopted by each live handler vthread,
/// keyed by its marcel::Thread identity, so nested calls and signals
/// issued from a handler parent to the handler's span without any
/// explicit plumbing.
class Recorder {
 public:
  Recorder(unsigned node, IdSource& ids) noexcept : node_(node), ids_(ids) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] unsigned node() const noexcept { return node_; }

  [[nodiscard]] std::uint64_t new_trace() noexcept {
    ++counters_.traces_started;
    return ids_.new_trace();
  }
  [[nodiscard]] std::uint64_t new_span() noexcept { return ids_.new_span(); }
  [[nodiscard]] std::uint64_t new_request_span() noexcept {
    return ids_.new_request_span();
  }

  /// Append one event.  Engine-context safe: no blocking, no CPU charge.
  void record(std::uint64_t trace, std::uint64_t span, std::uint64_t parent,
              EventKind kind, std::uint32_t service, SimTime at);

  /// Emit one request's lifecycle as an nm.send / nm.recv span: the
  /// opening event at its posted stamp, one mark per other stamped stage,
  /// and kNmReleased at `released`.  Same context rules as record().
  void record_request(const RequestLife& life, SimTime released);

  /// The reliability layer re-sent a packet to `peer`.  `flags` is
  /// kNmRecv for a receive's CTS, 0 for a send's data or RTS, both of the
  /// request (peer, tag, seq); kNmNoRequest for a packet no single request
  /// owns (an aggregate, RMA traffic).
  void record_retransmit(unsigned peer, std::uint32_t tag, std::uint32_t seq,
                         std::uint8_t flags, SimTime at);

  // -- core timeline (marcel::Config::timeline) --

  /// The id of an occupant or core-state name; ids index labels().
  [[nodiscard]] std::uint32_t label(std::string_view name);
  void record_core(const CoreSlice& slice) { core_slices_.push_back(slice); }
  [[nodiscard]] const std::vector<CoreSlice>& core_slices() const noexcept {
    return core_slices_;
  }
  [[nodiscard]] const std::vector<std::string>& labels() const noexcept {
    return labels_;
  }

  // -- ambient per-vthread context --

  /// Adopt `ctx` as the ambient context of the fiber identified by `key`
  /// (marcel::this_thread::self()).  A null key is ignored.
  void adopt(const void* key, TraceContext ctx);
  void drop(const void* key);
  /// The ambient context of `key`, or an invalid context when none.
  [[nodiscard]] TraceContext current(const void* key) const;

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// events/spans_* count the causal events record() appends; request
  /// spans (and their events) are counted by `requests` alone.
  struct Counters {
    std::uint64_t events = 0;
    std::uint64_t spans_opened = 0;
    std::uint64_t spans_closed = 0;
    std::uint64_t traces_started = 0;  // minted here (roots on this node)
    std::uint64_t requests = 0;        // nm request spans recorded
  };
  [[nodiscard]] const Counters& counters() const noexcept {
    return counters_;
  }

  /// Bind the counters under `prefix` (e.g. "node0/rpc/trace").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  unsigned node_;
  IdSource& ids_;
  std::vector<Event> events_;
  std::vector<CoreSlice> core_slices_;
  std::vector<std::string> labels_;
  std::map<std::string, std::uint32_t, std::less<>> label_ids_;
  std::map<const void*, TraceContext> ambient_;
  Counters counters_;
};

}  // namespace pm2::tracing
