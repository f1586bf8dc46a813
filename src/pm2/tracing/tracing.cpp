#include "pm2/tracing/tracing.hpp"

#include "common/assert.hpp"
#include "common/metrics.hpp"

namespace pm2::tracing {

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kCallIssued: return "call-issued";
    case EventKind::kWireRx: return "wire-rx";
    case EventKind::kSignalSent: return "signal-sent";
    case EventKind::kCollStart: return "coll-start";
    case EventKind::kCollOpIssued: return "coll-op-issued";
    case EventKind::kMarshalDone: return "marshal-done";
    case EventKind::kSendDone: return "send-done";
    case EventKind::kEnqueued: return "enqueued";
    case EventKind::kDispatched: return "dispatched";
    case EventKind::kHandlerBegin: return "handler-begin";
    case EventKind::kHandlerEnd: return "handler-end";
    case EventKind::kSignalDelivered: return "signal-delivered";
    case EventKind::kCollOpDone: return "coll-op-done";
    case EventKind::kCollDone: return "coll-done";
    case EventKind::kRmaEpochStart: return "rma-epoch-start";
    case EventKind::kRmaOpIssued: return "rma-op-issued";
    case EventKind::kRmaOpDone: return "rma-op-done";
    case EventKind::kRmaEpochEnd: return "rma-epoch-end";
    case EventKind::kNmSendPosted: return "nm-send-posted";
    case EventKind::kNmRecvPosted: return "nm-recv-posted";
    case EventKind::kNmEnqueued: return "nm-enqueued";
    case EventKind::kNmOffloadPosted: return "nm-offload-posted";
    case EventKind::kNmPickup: return "nm-pickup";
    case EventKind::kNmInjected: return "nm-injected";
    case EventKind::kNmWireRx: return "nm-wire-rx";
    case EventKind::kNmMatched: return "nm-matched";
    case EventKind::kNmCompleted: return "nm-completed";
    case EventKind::kNmWaitEnter: return "nm-wait-enter";
    case EventKind::kNmWoken: return "nm-woken";
    case EventKind::kNmReleased: return "nm-released";
    case EventKind::kNmRetransmit: return "nm-retransmit";
  }
  return "?";
}

bool opens_span(EventKind k) noexcept {
  switch (k) {
    case EventKind::kCallIssued:
    case EventKind::kWireRx:
    case EventKind::kSignalSent:
    case EventKind::kCollStart:
    case EventKind::kCollOpIssued:
    case EventKind::kRmaEpochStart:
    case EventKind::kRmaOpIssued:
    case EventKind::kNmSendPosted:
    case EventKind::kNmRecvPosted:
      return true;
    default:
      return false;
  }
}

bool closes_span(EventKind k) noexcept {
  switch (k) {
    case EventKind::kSendDone:
    case EventKind::kHandlerEnd:
    case EventKind::kSignalDelivered:
    case EventKind::kCollOpDone:
    case EventKind::kCollDone:
    case EventKind::kRmaOpDone:
    case EventKind::kRmaEpochEnd:
    case EventKind::kNmReleased:
      return true;
    default:
      return false;
  }
}

EventKind closing_kind_for(EventKind open) noexcept {
  switch (open) {
    case EventKind::kCallIssued: return EventKind::kSendDone;
    case EventKind::kWireRx: return EventKind::kHandlerEnd;
    case EventKind::kSignalSent: return EventKind::kSignalDelivered;
    case EventKind::kCollStart: return EventKind::kCollDone;
    case EventKind::kCollOpIssued: return EventKind::kCollOpDone;
    case EventKind::kRmaEpochStart: return EventKind::kRmaEpochEnd;
    case EventKind::kRmaOpIssued: return EventKind::kRmaOpDone;
    case EventKind::kNmSendPosted:
    case EventKind::kNmRecvPosted: return EventKind::kNmReleased;
    default: return open;
  }
}

const char* span_kind_name(EventKind open) noexcept {
  switch (open) {
    case EventKind::kCallIssued: return "rpc.call";
    case EventKind::kWireRx: return "rpc.server";
    case EventKind::kSignalSent: return "rpc.signal";
    case EventKind::kCollStart: return "coll";
    case EventKind::kCollOpIssued: return "coll.op";
    case EventKind::kRmaEpochStart: return "rma.epoch";
    case EventKind::kRmaOpIssued: return "rma.op";
    case EventKind::kNmSendPosted: return "nm.send";
    case EventKind::kNmRecvPosted: return "nm.recv";
    default: return "?";
  }
}


void Recorder::record(std::uint64_t trace, std::uint64_t span,
                      std::uint64_t parent, EventKind kind,
                      std::uint32_t service, SimTime at) {
  PM2_ASSERT(trace != 0 && span != 0);
  events_.push_back(Event{.trace_id = trace,
                          .span_id = span,
                          .parent_span_id = parent,
                          .kind = kind,
                          .service = service,
                          .node = node_,
                          .at = at});
  ++counters_.events;
  if (opens_span(kind)) ++counters_.spans_opened;
  if (closes_span(kind)) ++counters_.spans_closed;
}

void Recorder::record_request(const RequestLife& life, SimTime released) {
  Event e{.trace_id = life.trace,
          .span_id = life.span,
          .parent_span_id = life.parent,
          .kind = (life.flags & kNmRecv) != 0 ? EventKind::kNmRecvPosted
                                              : EventKind::kNmSendPosted,
          .flags = life.flags,
          .service = life.tag,
          .node = node_,
          .peer = life.peer,
          .at = life.at(Stage::kPosted),
          .seq = life.seq};
  e.core = life.core[0];
  events_.push_back(e);
  e.parent_span_id = 0;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    if (life.t[i] == 0) continue;  // stage never reached
    e.kind = stage_kind(static_cast<Stage>(i));
    e.at = life.t[i];
    e.core = life.core[i];
    events_.push_back(e);
  }
  e.kind = EventKind::kNmReleased;
  e.at = released;
  e.core = 0;
  events_.push_back(e);
  ++counters_.requests;
}

void Recorder::record_retransmit(unsigned peer, std::uint32_t tag,
                                 std::uint32_t seq, std::uint8_t flags,
                                 SimTime at) {
  events_.push_back(Event{.kind = EventKind::kNmRetransmit,
                          .flags = flags,
                          .service = tag,
                          .node = node_,
                          .peer = peer,
                          .at = at,
                          .seq = seq});
}

std::uint32_t Recorder::label(std::string_view name) {
  const auto it = label_ids_.find(name);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(name);
  label_ids_.emplace(std::string(name), id);
  return id;
}

void Recorder::adopt(const void* key, TraceContext ctx) {
  if (key == nullptr) return;
  ambient_[key] = ctx;
}

void Recorder::drop(const void* key) {
  if (key == nullptr) return;
  ambient_.erase(key);
}

TraceContext Recorder::current(const void* key) const {
  if (key == nullptr) return {};
  const auto it = ambient_.find(key);
  return it == ambient_.end() ? TraceContext{} : it->second;
}

void Recorder::bind_metrics(MetricsRegistry& registry,
                            std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/events", &counters_.events);
  registry.bind_counter(p + "/spans_opened", &counters_.spans_opened);
  registry.bind_counter(p + "/spans_closed", &counters_.spans_closed);
  registry.bind_counter(p + "/traces_started", &counters_.traces_started);
  registry.bind_counter(p + "/requests", &counters_.requests);
}

}  // namespace pm2::tracing
