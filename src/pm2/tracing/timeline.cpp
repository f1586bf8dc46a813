#include "pm2/tracing/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "pm2/tracing/requests.hpp"

namespace pm2::tracing {

// ------------------------------------------------------------ the writer

void ChromeTrace::begin_event(std::string_view track, std::string_view name,
                              const char* ph, SimTime at) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) {
    it = tracks_.emplace(std::string(track),
                         static_cast<int>(tracks_.size()) + 1).first;
  }
  // Appended piecewise, never through a fixed buffer: names are unbounded
  // and a truncated string literal would corrupt the whole document.
  if (events_++ != 0) body_ += ",\n";
  body_ += "{\"name\":\"";
  body_ += json_escape(name);
  char num[96];
  std::snprintf(num, sizeof num, "\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                "\"tid\":%d", ph, to_us(at), it->second);
  body_ += num;
}

void ChromeTrace::slice(std::string_view track, std::string_view name,
                        std::string_view category, SimTime begin,
                        SimTime end) {
  PM2_ASSERT(end >= begin);
  begin_event(track, name, "X", begin);
  body_ += ",\"cat\":\"";
  body_ += json_escape(category);
  char num[48];
  std::snprintf(num, sizeof num, "\",\"dur\":%.3f}", to_us(end - begin));
  body_ += num;
}

void ChromeTrace::instant(std::string_view track, std::string_view name,
                          SimTime at) {
  begin_event(track, name, "i", at);
  body_ += ",\"s\":\"t\"}";
}

void ChromeTrace::counter(std::string_view track, std::string_view name,
                          SimTime at, double value) {
  begin_event(track, name, "C", at);
  char num[64];
  std::snprintf(num, sizeof num, ",\"args\":{\"value\":%g}}", value);
  body_ += num;
}

void ChromeTrace::arrow(std::string_view name, std::string_view from_track,
                        SimTime from, std::string_view to_track, SimTime to) {
  const auto id = static_cast<unsigned long long>(next_arrow_++);
  char num[64];
  begin_event(from_track, name, "s", from);
  std::snprintf(num, sizeof num, ",\"cat\":\"flow\",\"id\":%llu}", id);
  body_ += num;
  // "bp":"e" binds the arrow's end to the *enclosing* slice, the
  // behaviour Perfetto renders most reliably.
  begin_event(to_track, name, "f", to);
  std::snprintf(num, sizeof num, ",\"cat\":\"flow\",\"id\":%llu,\"bp\":\"e\"}",
                id);
  body_ += num;
}

void ChromeTrace::async_span(std::string_view track, std::string_view name,
                             std::string_view category, std::uint64_t id,
                             SimTime begin, SimTime end) {
  const std::string cat = json_escape(category);
  char num[48];
  std::snprintf(num, sizeof num, "\",\"id\":%llu}",
                static_cast<unsigned long long>(id));
  for (const auto& [ph, at] : {std::pair{"b", begin}, std::pair{"e", end}}) {
    begin_event(track, name, ph, at);
    body_ += ",\"cat\":\"";
    body_ += cat;
    body_ += num;
  }
}

std::string ChromeTrace::json() const {
  std::string out = "[\n";
  out.reserve(body_.size() + tracks_.size() * 80 + 16);
  char num[32];
  // Track-name metadata so the viewer shows readable lane labels.
  for (const auto& [name, tid] : tracks_) {
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(num, sizeof num, "%d", tid);
    out += num;
    out += ",\"args\":{\"name\":\"";
    out += json_escape(name);
    out += "\"}},\n";
  }
  out += body_;
  out += "\n]\n";
  return out;
}

bool ChromeTrace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = json();
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && written;
}

// ---------------------------------------------------------- the exporter

namespace {

/// A drawn nm sliver: its track and the anchor for arrows (its midpoint).
/// An empty track means nothing was drawn.
struct Drawn {
  std::string track;
  SimTime mid = 0;
};

/// Draws the nm slivers of the request spans and the arrows between them.
class RequestPainter {
 public:
  explicit RequestPainter(ChromeTrace& out) : out_(out) {}

  /// One request's slivers and offload arrow; its wire end is kept for
  /// the (src, dst, tag, seq) join of link_pairs().
  void paint(const RequestSpan& r) {
    const RequestLife& f = r.life;
    const bool rdv = (f.flags & kNmRdv) != 0;
    if (!r.send()) {
      sliver(r, "nm:irecv", Stage::kPosted);
      if (rdv) sliver(r, "nm:rdv-match", Stage::kMatched);
      const Drawn end = rdv ? sliver(r, "nm:rdma-done", Stage::kCompleted)
                            : sliver(r, "nm:deliver", Stage::kWireRx);
      if (!end.track.empty()) recvs_[{f.peer, r.node, f.tag, f.seq}] = end;
      return;
    }
    const Drawn isend =
        sliver(r, "nm:isend", Stage::kPosted, Stage::kPosted,
               std::max(f.at(Stage::kEnqueued), f.at(Stage::kOffloadPosted)));
    if (rdv) sliver(r, "nm:rts", Stage::kEnqueued);
    const Drawn inject =
        sliver(r, rdv ? "nm:rdv-data" : "nm:inject", Stage::kInjected,
               Stage::kPickup, f.at(Stage::kInjected));
    if (f.at(Stage::kOffloadPosted) != 0) link("offload", isend, inject);
    if (!inject.track.empty()) sends_[{r.node, f.peer, f.tag, f.seq}] = inject;
  }

  /// One wire arrow per joined send/recv pair.
  void link_pairs() {
    for (const auto& [key, send] : sends_) {
      const auto it = recvs_.find(key);
      if (it != recvs_.end()) link("wire", send, it->second);
    }
  }

 private:
  /// The sliver `name` from stage `from` to `end`, on the core stage `on`
  /// ran on.  Zero-length steps still get 1 ns so arrows have a slice to
  /// bind to; an identical sliver (the requests of one aggregate) is
  /// drawn once.
  Drawn sliver(const RequestSpan& r, const char* name, Stage on,
               Stage from, SimTime end) {
    const SimTime begin = r.life.at(from);
    if (r.life.cpu(on) < 0 || begin == 0) return {};
    char track[48];
    std::snprintf(track, sizeof track, "node%u/cpu%d", r.node, r.life.cpu(on));
    end = std::max(end, begin + 1);
    if (drawn_.emplace(track, name, begin, end).second) {
      out_.slice(track, name, "nm", begin, end);
    }
    return {track, begin + (end - begin) / 2};
  }

  Drawn sliver(const RequestSpan& r, const char* name, Stage at) {
    return sliver(r, name, at, at, 0);
  }

  void link(const char* name, const Drawn& from, const Drawn& to) {
    if (from.track.empty() || to.track.empty()) return;
    out_.arrow(name, from.track, from.mid, to.track, to.mid);
  }

  using Key = std::tuple<unsigned, unsigned, std::uint32_t, std::uint32_t>;
  ChromeTrace& out_;
  std::map<Key, Drawn> sends_;  // keyed (src, dst, tag, seq)
  std::map<Key, Drawn> recvs_;  // keyed the same way
  std::set<std::tuple<std::string, std::string_view, SimTime, SimTime>>
      drawn_;
};

}  // namespace

void render_timeline(ChromeTrace& out,
                     std::span<const Recorder* const> recorders,
                     const MetricsRegistry& registry, SimTime now) {
  char track[48];
  for (const Recorder* rec : recorders) {
    if (rec == nullptr) continue;
    for (const CoreSlice& s : rec->core_slices()) {
      const std::string& label = rec->labels()[s.label];
      std::snprintf(track, sizeof track, "node%u/cpu%u%s", rec->node(),
                    static_cast<unsigned>(s.cpu), s.state ? "/state" : "");
      out.slice(track, label,
                s.state                       ? "core-state"
                : label.starts_with("service") ? "service"
                                               : "thread",
                s.begin, s.end);
    }
  }

  RequestPainter painter(out);
  for (const RequestSpan& r : request_spans(recorders)) painter.paint(r);
  painter.link_pairs();

  registry.visit([&](const MetricsRegistry::View& v) {
    if (v.kind == MetricsRegistry::Kind::kHistogram) return;
    out.counter("metrics", v.name, now, v.number);
  });
  char name[64];
  for (const char* c : {"dropped", "duplicated", "reordered", "corrupted"}) {
    std::snprintf(name, sizeof name, "fabric/faults/%s", c);
    if (registry.contains(name)) {
      out.counter("fabric/faults", c, now, registry.value(name));
    }
  }
  for (const Recorder* rec : recorders) {
    if (rec == nullptr) continue;
    std::snprintf(name, sizeof name, "node%u/reliable/retransmits",
                  rec->node());
    if (!registry.contains(name)) continue;
    std::snprintf(track, sizeof track, "node%u/reliability", rec->node());
    double resent = 0;
    for (const Event& e : rec->events()) {
      if (e.kind == EventKind::kNmRetransmit) {
        out.counter(track, "retransmits", e.at, ++resent);
      }
    }
    for (const char* c :
         {"retransmits", "dup_drops", "ooo_buffered", "corrupt_drops"}) {
      std::snprintf(name, sizeof name, "node%u/reliable/%s", rec->node(), c);
      out.counter(track, c, now, registry.value(name));
    }
  }
}

}  // namespace pm2::tracing
