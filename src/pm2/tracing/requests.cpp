#include "pm2/tracing/requests.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "pm2/tracing/assembly.hpp"

namespace pm2::tracing {
namespace {

/// Elapsed µs between two stamps; 0 when either is missing or reversed
/// (reversal cannot happen on well-formed spans, but attribution must stay
/// total even over malformed ones).
[[nodiscard]] double span_us(const RequestLife& life, Stage from,
                             Stage to) noexcept {
  const SimTime a = life.at(from);
  const SimTime b = life.at(to);
  if (a == 0 || b == 0 || b < a) return 0;
  return to_us(b - a);
}

/// One request's split, in microseconds of virtual time (wire time needs
/// both sides; see attribute() for the cross-node join).
struct RequestSplit {
  double crit_us = 0;  // serialized on the posting thread
  double offl_us = 0;  // moved off the posting thread by PIOMan
  double wait_us = 0;  // inside wait() (0 when the request was never waited)
  bool offloaded = false;
  bool valid = false;  // posted+completed stamps were present
};

RequestSplit split_request(const RequestSpan& req) {
  RequestSplit s;
  const RequestLife& life = req.life;
  if (life.at(Stage::kPosted) == 0 || life.at(Stage::kCompleted) == 0) {
    return s;
  }
  s.valid = true;
  s.offloaded = (life.flags & kNmOffloaded) != 0;
  if (req.send()) {
    // Submission (post→enqueue) always runs on the posting thread.  The
    // injection (pickup→injected) is the part PIOMan can move away.
    const double submit = span_us(life, Stage::kPosted, Stage::kEnqueued);
    const double inject = span_us(life, Stage::kPickup, Stage::kInjected);
    s.crit_us = submit + (s.offloaded ? 0 : inject);
    s.offl_us = s.offloaded ? inject : 0;
  } else {
    // Delivery (wire-rx→completed): matching, the payload copy (eager) or
    // the CTS + zero-copy landing (rendezvous).
    const double deliver = span_us(life, Stage::kWireRx, Stage::kCompleted);
    s.crit_us = s.offloaded ? 0 : deliver;
    s.offl_us = s.offloaded ? deliver : 0;
  }
  s.wait_us = span_us(life, Stage::kWaitEnter, Stage::kWoken);
  return s;
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void append_stat_json(std::string& out, const char* name,
                      const RunningStats& s) {
  appendf(out, "\"%s\":{\"count\":%llu,\"mean\":%.3f,\"min\":%.3f,"
               "\"max\":%.3f}",
          name, static_cast<unsigned long long>(s.count()), s.mean(), s.min(),
          s.max());
}

}  // namespace

std::vector<RequestSpan> request_spans(
    std::span<const Recorder* const> recorders) {
  // (node, peer, tag, seq, recv side) of every retransmitted packet.
  using Key = std::tuple<unsigned, unsigned, std::uint32_t, std::uint32_t,
                         bool>;
  std::set<Key> resent;
  std::vector<RequestSpan> out;
  for (const Recorder* rec : recorders) {
    if (rec == nullptr) continue;
    for (const Event& e : rec->events()) {
      if (!is_request_kind(e.kind)) continue;
      if (e.kind == EventKind::kNmRetransmit) {
        if ((e.flags & kNmNoRequest) == 0) {
          resent.emplace(e.node, e.peer, e.service, e.seq,
                         (e.flags & kNmRecv) != 0);
        }
        continue;
      }
      if (opens_span(e.kind)) {
        RequestSpan& r = out.emplace_back();
        r.node = e.node;
        r.life = RequestLife{.trace = e.trace_id,
                             .parent = e.parent_span_id,
                             .span = e.span_id,
                             .peer = e.peer,
                             .tag = e.service,
                             .seq = e.seq,
                             .flags = e.flags};
        r.life.t[static_cast<std::size_t>(Stage::kPosted)] = e.at;
        r.life.core[static_cast<std::size_t>(Stage::kPosted)] = e.core;
        continue;
      }
      // record_request appends a span's events back to back.
      PM2_ASSERT(!out.empty() && out.back().life.span == e.span_id);
      for (std::size_t i = 1; i < kStageCount; ++i) {
        if (stage_kind(static_cast<Stage>(i)) == e.kind) {
          out.back().life.t[i] = e.at;
          out.back().life.core[i] = e.core;
        }
      }
    }
  }
  for (RequestSpan& r : out) {
    r.retransmitted = resent.contains(
        Key{r.node, r.life.peer, r.life.tag, r.life.seq, !r.send()});
  }
  return out;
}

std::uint64_t unparented_requests(std::span<const RequestSpan> spans,
                                  const Assembly& assembly) {
  std::uint64_t n = 0;
  for (const RequestSpan& r : spans) {
    if (r.life.trace == 0) continue;
    const auto it = std::lower_bound(
        assembly.traces.begin(), assembly.traces.end(), r.life.trace,
        [](const TraceView& t, std::uint64_t id) { return t.id < id; });
    const bool found =
        it != assembly.traces.end() && it->id == r.life.trace &&
        std::any_of(it->spans.begin(), it->spans.end(),
                    [&r](const SpanView& s) { return s.id == r.life.parent; });
    if (!found) ++n;
  }
  return n;
}

Attribution attribute(std::span<const RequestSpan> spans) {
  Attribution a;

  // (src, dst, tag, seq) → stamps the other side needs for wire time.
  struct SendSide {
    SimTime injected = 0;
    bool rdv = false;
  };
  using Key = std::tuple<unsigned, unsigned, std::uint32_t, std::uint32_t>;
  std::map<Key, SendSide> sends;
  std::map<Key, SimTime> recv_rx;  // eager: wire-rx, rdv: completed

  for (const RequestSpan& r : spans) {
    const RequestSplit split = split_request(r);
    if (!split.valid) continue;
    const RequestLife& f = r.life;
    const bool rdv = (f.flags & kNmRdv) != 0;
    if (r.send()) {
      ++a.sends;
      a.send_crit_us.add(split.crit_us);
      sends[{r.node, f.peer, f.tag, f.seq}] = {f.at(Stage::kInjected), rdv};
    } else {
      ++a.recvs;
      a.recv_crit_us.add(split.crit_us);
      recv_rx[{f.peer, r.node, f.tag, f.seq}] =
          rdv ? f.at(Stage::kCompleted) : f.at(Stage::kWireRx);
    }
    a.crit_us.add(split.crit_us);
    a.offl_us.add(split.offl_us);
    if (split.offloaded) ++a.offloaded;
    if (r.retransmitted) ++a.retransmitted;
    if (split.wait_us > 0) a.wait_us.add(split.wait_us);
  }

  for (const auto& [key, send] : sends) {
    const auto it = recv_rx.find(key);
    if (it == recv_rx.end()) continue;
    if (send.injected == 0 || it->second == 0) continue;
    ++a.pairs;
    a.wire_us.add(it->second >= send.injected
                      ? to_us(it->second - send.injected)
                      : 0.0);
  }
  return a;
}

void export_attribution(MetricsRegistry& registry, const Attribution& a) {
  registry.counter("attribution/sends") = a.sends;
  registry.counter("attribution/recvs") = a.recvs;
  registry.counter("attribution/pairs") = a.pairs;
  registry.counter("attribution/offloaded") = a.offloaded;
  registry.counter("attribution/retransmitted") = a.retransmitted;
  registry.gauge("attribution/critical_path_us_mean") = a.crit_us.mean();
  registry.gauge("attribution/offloaded_us_mean") = a.offl_us.mean();
  registry.gauge("attribution/send_critical_us_mean") = a.send_crit_us.mean();
  registry.gauge("attribution/recv_critical_us_mean") = a.recv_crit_us.mean();
  registry.gauge("attribution/wire_us_mean") = a.wire_us.mean();
  registry.gauge("attribution/wait_us_mean") = a.wait_us.mean();
}

std::string attribution_to_json(const Attribution& a) {
  std::string out = "{";
  appendf(out,
          "\"sends\":%llu,\"recvs\":%llu,\"pairs\":%llu,\"offloaded\":%llu,"
          "\"retransmitted\":%llu,",
          static_cast<unsigned long long>(a.sends),
          static_cast<unsigned long long>(a.recvs),
          static_cast<unsigned long long>(a.pairs),
          static_cast<unsigned long long>(a.offloaded),
          static_cast<unsigned long long>(a.retransmitted));
  append_stat_json(out, "critical_path_us", a.crit_us);
  out += ',';
  append_stat_json(out, "offloaded_us", a.offl_us);
  out += ',';
  append_stat_json(out, "send_critical_us", a.send_crit_us);
  out += ',';
  append_stat_json(out, "recv_critical_us", a.recv_crit_us);
  out += ',';
  append_stat_json(out, "wire_us", a.wire_us);
  out += ',';
  append_stat_json(out, "wait_us", a.wait_us);
  out += '}';
  return out;
}

std::string format_attribution(const Attribution& a) {
  std::string out;
  appendf(out,
          "attribution: %llu sends, %llu recvs (%llu paired, %llu offloaded, "
          "%llu retransmitted)\n",
          static_cast<unsigned long long>(a.sends),
          static_cast<unsigned long long>(a.recvs),
          static_cast<unsigned long long>(a.pairs),
          static_cast<unsigned long long>(a.offloaded),
          static_cast<unsigned long long>(a.retransmitted));
  appendf(out,
          "  critical-path %.2f us mean (send %.2f, recv %.2f), "
          "offloaded %.2f us mean\n",
          a.crit_us.mean(), a.send_crit_us.mean(), a.recv_crit_us.mean(),
          a.offl_us.mean());
  appendf(out, "  wire %.2f us mean (%llu pairs), wait %.2f us mean\n",
          a.wire_us.mean(), static_cast<unsigned long long>(a.wire_us.count()),
          a.wait_us.mean());
  return out;
}

}  // namespace pm2::tracing
