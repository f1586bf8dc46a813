#include "pm2/tracing/assembly.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/assert.hpp"
#include "pm2/tracing/timeline.hpp"

namespace pm2::tracing {
namespace {

/// Sort rank inside a span: the opening event first, closing last, marks
/// in between — makes same-timestamp events (zero-cost protocol steps)
/// assemble in causal order even across recorders.
int kind_rank(EventKind k) noexcept {
  if (opens_span(k)) return 0;
  if (closes_span(k)) return 2;
  return 1;
}

const char* const kSegments[] = {
    "marshal",         "client_queue",  "wire",    "unexpected_dwell",
    "dispatch_queue",  "handler",       "signal_return", "other",
};

/// Position of one chain event: its span and event index.
struct Pos {
  const SpanView* span = nullptr;
  std::size_t idx = 0;
};

/// Reconstruct the causal chain ending at `terminal` by walking
/// backwards: previous event in the same span, or — at the span's first
/// event — the latest event of the parent span not after it.
std::vector<const Event*> walk_chain(
    const std::map<std::uint64_t, const SpanView*>& by_id, Pos terminal) {
  std::vector<const Event*> chain;
  Pos cur = terminal;
  chain.push_back(&cur.span->events[cur.idx]);
  // Bounded by the trace's event count; the tree is validated acyclic
  // before this runs, but a belt-and-braces cap keeps a malformed trace
  // from looping.
  for (std::size_t steps = 0; steps < 1u << 20; ++steps) {
    if (cur.idx > 0) {
      --cur.idx;
    } else {
      const auto it = by_id.find(cur.span->parent);
      if (it == by_id.end()) break;  // reached the root's opening event
      const SpanView* parent = it->second;
      const SimTime t = chain.back()->at;
      // Latest parent event with at <= t (the handing-over point).
      std::size_t j = parent->events.size();
      while (j > 0 && parent->events[j - 1].at > t) --j;
      if (j == 0) break;  // causality gap — stop rather than fabricate
      cur = Pos{parent, j - 1};
    }
    chain.push_back(&cur.span->events[cur.idx]);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

void append_u64(std::string& out, std::uint64_t v) {
  char num[24];
  std::snprintf(num, sizeof num, "%llu", static_cast<unsigned long long>(v));
  out += num;
}

void append_time(std::string& out, SimTime t) {
  char num[24];
  std::snprintf(num, sizeof num, "%lld", static_cast<long long>(t));
  out += num;
}

}  // namespace

const char* segment_name(EventKind from, EventKind to) noexcept {
  using K = EventKind;
  if (from == K::kCallIssued && to == K::kMarshalDone) return "marshal";
  if (from == K::kMarshalDone && to == K::kSendDone) return "client_queue";
  // The send-done mark can trail the remote arrival (an app-driven sender
  // only observes completion on its next library call), in which case the
  // chain hands over at marshal-done and the merged stretch is wire time.
  if (from == K::kSendDone && to == K::kWireRx) return "wire";
  if (from == K::kMarshalDone && to == K::kWireRx) return "wire";
  if (from == K::kWireRx && to == K::kEnqueued) return "unexpected_dwell";
  if (from == K::kEnqueued && to == K::kDispatched) return "dispatch_queue";
  if (from == K::kDispatched && to == K::kHandlerBegin) {
    return "dispatch_queue";
  }
  if (from == K::kEnqueued && to == K::kHandlerBegin) return "dispatch_queue";
  // Handler time runs until the handler's own next causal action — the
  // terminal signal, or the nested call of a forwarding hop.
  if (from == K::kHandlerBegin && to == K::kSignalSent) return "handler";
  if (from == K::kHandlerBegin && to == K::kCallIssued) return "handler";
  if (from == K::kSignalSent && to == K::kSignalDelivered) {
    return "signal_return";
  }
  return "other";
}

std::span<const char* const> segment_taxonomy() noexcept {
  return kSegments;
}

Assembly assemble(std::span<const Recorder* const> recorders) {
  Assembly out;
  // trace id -> (span id -> events)
  std::map<std::uint64_t, std::map<std::uint64_t, std::vector<Event>>> all;
  for (const Recorder* rec : recorders) {
    if (rec == nullptr) continue;
    for (const Event& e : rec->events()) {
      // Request spans belong to the attribution query (requests.hpp), not
      // to the causal trees: they must not perturb trace assembly.
      if (is_request_kind(e.kind)) continue;
      all[e.trace_id][e.span_id].push_back(e);
      ++out.events;
    }
  }

  out.traces.reserve(all.size());
  for (auto& [trace_id, span_events] : all) {
    TraceView tv;
    tv.id = trace_id;
    tv.spans.reserve(span_events.size());
    for (auto& [span_id, events] : span_events) {
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) {
                  if (a.at != b.at) return a.at < b.at;
                  return kind_rank(a.kind) < kind_rank(b.kind);
                });
      SpanView sv;
      sv.id = span_id;
      sv.events = std::move(events);
      const Event& head = sv.events.front();
      sv.open_kind = head.kind;
      sv.parent = head.parent_span_id;
      sv.service = head.service;
      sv.node = head.node;
      sv.begin = head.at;
      sv.end = sv.events.back().at;
      const EventKind want = closing_kind_for(sv.open_kind);
      sv.closed = opens_span(sv.open_kind) &&
                  std::any_of(sv.events.begin(), sv.events.end(),
                              [want](const Event& e) {
                                return e.kind == want;
                              });
      tv.spans.push_back(std::move(sv));
      ++out.spans;
    }

    // Root: the parentless span that opened first.
    const SpanView* root = nullptr;
    for (const SpanView& sv : tv.spans) {
      if (sv.parent != 0) continue;
      if (root == nullptr || sv.begin < root->begin) root = &sv;
    }

    // Tree validation: every parent resolves inside the trace, the
    // parent walk terminates at the root, and every span closed.
    std::map<std::uint64_t, const SpanView*> by_id;
    for (const SpanView& sv : tv.spans) by_id.emplace(sv.id, &sv);
    bool tree_ok = root != nullptr;
    bool all_closed = true;
    for (const SpanView& sv : tv.spans) {
      if (!sv.closed) {
        all_closed = false;
        ++out.open_spans;
      }
      const SpanView* cur = &sv;
      std::size_t depth = 0;
      while (tree_ok && cur->parent != 0) {
        const auto it = by_id.find(cur->parent);
        if (it == by_id.end() || ++depth > tv.spans.size()) {
          tree_ok = false;  // dangling parent or a cycle
          break;
        }
        cur = it->second;
      }
    }

    if (root != nullptr) {
      tv.kind = root->open_kind == EventKind::kCollStart      ? "coll"
                : root->open_kind == EventKind::kRmaEpochStart ? "rma"
                                                               : "rpc";
      tv.service = root->service;
      tv.root_node = root->node;
      tv.begin = root->begin;
    }

    // Terminal: an RPC chain ends when the last required signal lands
    // home (== Completion::done_at()); a collective ends at root close.
    Pos terminal;
    for (const SpanView& sv : tv.spans) {
      for (std::size_t i = 0; i < sv.events.size(); ++i) {
        const Event& e = sv.events[i];
        if (e.kind != EventKind::kSignalDelivered) continue;
        if (terminal.span == nullptr || e.at > terminal.span->events[terminal.idx].at) {
          terminal = Pos{&sv, i};
        }
      }
    }
    if (std::string_view(tv.kind) == "coll" ||
        std::string_view(tv.kind) == "rma") {
      // Both end when the root span closes (coll root close, rma epoch
      // close); there is no completion-signal terminal to wait for.
      tv.end = root != nullptr ? root->end : 0;
      tv.complete = tree_ok && all_closed;
    } else {
      tv.end =
          terminal.span != nullptr ? terminal.span->events[terminal.idx].at : 0;
      tv.complete = tree_ok && all_closed && terminal.span != nullptr;
    }

    if (tv.complete && terminal.span != nullptr &&
        std::string_view(tv.kind) == "rpc") {
      const auto chain = walk_chain(by_id, terminal);
      // The chain must reach all the way back to the root's opening
      // event, or the telescoped segment sum would under-account.
      if (chain.size() >= 2 && chain.front()->span_id == root->id &&
          chain.front()->at == root->begin) {
        tv.critical_path.reserve(chain.size() - 1);
        for (std::size_t i = 1; i < chain.size(); ++i) {
          tv.critical_path.push_back(
              Segment{segment_name(chain[i - 1]->kind, chain[i]->kind),
                      chain[i - 1]->at, chain[i]->at});
        }
      }
    }
    out.traces.push_back(std::move(tv));
  }
  return out;
}

std::string trace_to_json(const TraceView& tv) {
  std::string out = "{\"trace_id\":";
  append_u64(out, tv.id);
  out += ",\"kind\":\"";
  out += tv.kind;
  out += "\",\"service\":";
  append_u64(out, tv.service);
  out += ",\"root_node\":";
  append_u64(out, tv.root_node);
  out += ",\"begin_ns\":";
  append_time(out, tv.begin);
  out += ",\"end_ns\":";
  append_time(out, tv.end);
  out += ",\"e2e_ns\":";
  append_time(out, tv.e2e_ns());
  out += ",\"complete\":";
  out += tv.complete ? "true" : "false";
  out += ",\"critical_path\":[";
  for (std::size_t i = 0; i < tv.critical_path.size(); ++i) {
    const Segment& s = tv.critical_path[i];
    if (i != 0) out += ",";
    out += "{\"segment\":\"";
    out += s.name;
    out += "\",\"from_ns\":";
    append_time(out, s.from);
    out += ",\"to_ns\":";
    append_time(out, s.to);
    out += "}";
  }
  out += "],\"spans\":[";
  for (std::size_t i = 0; i < tv.spans.size(); ++i) {
    const SpanView& sv = tv.spans[i];
    if (i != 0) out += ",";
    out += "{\"id\":";
    append_u64(out, sv.id);
    out += ",\"parent\":";
    append_u64(out, sv.parent);
    out += ",\"kind\":\"";
    out += span_kind_name(sv.open_kind);
    out += "\",\"service\":";
    append_u64(out, sv.service);
    out += ",\"node\":";
    append_u64(out, sv.node);
    out += ",\"begin_ns\":";
    append_time(out, sv.begin);
    out += ",\"end_ns\":";
    append_time(out, sv.end);
    out += ",\"closed\":";
    out += sv.closed ? "true" : "false";
    out += ",\"events\":[";
    for (std::size_t j = 0; j < sv.events.size(); ++j) {
      const Event& e = sv.events[j];
      if (j != 0) out += ",";
      out += "{\"kind\":\"";
      out += event_kind_name(e.kind);
      out += "\",\"node\":";
      append_u64(out, e.node);
      out += ",\"at_ns\":";
      append_time(out, e.at);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void export_trace(ChromeTrace& out, const TraceView& tv) {
  char track[32];
  char name[64];
  for (const SpanView& sv : tv.spans) {
    std::snprintf(track, sizeof track, "node%u/trace", sv.node);
    std::snprintf(name, sizeof name, "%s/svc%u/t%llu",
                  span_kind_name(sv.open_kind), sv.service,
                  static_cast<unsigned long long>(tv.id));
    out.async_span(track, name, "trace", sv.id, sv.begin, sv.end);
    for (const Event& e : sv.events) {
      if (opens_span(e.kind) || closes_span(e.kind)) continue;
      char mtrack[32];
      std::snprintf(mtrack, sizeof mtrack, "node%u/trace", e.node);
      out.instant(mtrack, event_kind_name(e.kind), e.at);
    }
  }
}

}  // namespace pm2::tracing
