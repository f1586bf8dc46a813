// The Chrome timeline: the JSON writer (structure, escaping, track
// metadata, I/O failure) and the exporter over the per-node recorders
// (core tracks, nm slivers, offload/wire arrows, counter tracks).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "pm2/cluster.hpp"
#include "pm2/tracing/timeline.hpp"

namespace pm2::tracing {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = 0; (pos = hay.find(needle, pos)) != std::string::npos;
       pos += needle.size()) {
    ++n;
  }
  return n;
}

TEST(Trace, EmptyTracerEmitsValidArray) {
  ChromeTrace trace;
  const std::string json = trace.json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(']'), std::string::npos);
  EXPECT_TRUE(json_valid(json));
  EXPECT_EQ(trace.event_count(), 0u);
}

TEST(Trace, SpanFields) {
  ChromeTrace trace;
  trace.slice("node0/cpu0", "worker", "thread", 1000, 3500);
  const std::string json = trace.json();
  EXPECT_NE(json.find("\"name\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"thread\""), std::string::npos);
}

TEST(Trace, TrackMetadataEmitted) {
  ChromeTrace trace;
  trace.slice("node1/cpu3", "x", "", 0, 10);
  const std::string json = trace.json();
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("node1/cpu3"), std::string::npos);
}

TEST(Trace, SameTrackSharesTid) {
  ChromeTrace trace;
  trace.slice("t", "a", "", 0, 1);
  trace.slice("t", "b", "", 1, 2);
  trace.slice("u", "c", "", 2, 3);
  // Two tracks → two metadata entries.
  EXPECT_EQ(count_occurrences(trace.json(), "thread_name"), 2u);
}

TEST(Trace, InstantAndCounter) {
  ChromeTrace trace;
  trace.instant("wire", "packet", 500);
  trace.counter("node0", "idle-cores", 600, 7);
  const std::string json = trace.json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
}

TEST(Trace, EscapesSpecialCharacters) {
  // Thread and track names are user input (marcel thread names).
  ChromeTrace trace;
  trace.slice("trk\"q\"\x01", "na\"me\\with\nstuff", "", 0, 1);
  const std::string json = trace.json();
  EXPECT_NE(json.find("na\\\"me\\\\with\\nstuff"), std::string::npos);
  EXPECT_NE(json.find("trk\\\"q\\\"\\u0001"), std::string::npos);
  EXPECT_TRUE(json_valid(json)) << json;
}

TEST(Trace, FullDocumentIsValidJson) {
  ChromeTrace trace;
  // Names with every escaping hazard: quotes, backslashes, control chars,
  // and lengths well past any fixed formatting buffer.
  const std::string long_name(2048, 'x');
  trace.slice("trk\"1\"", "quote\"back\\slash\ttab\nnewline", "", 0, 10);
  trace.slice("trk\"1\"", long_name, "cat\"egory", 10, 20);
  trace.instant("trk2", "tick\x01\x1f", 5);
  trace.counter("trk2", "count\"er", 6, -1.25);
  trace.arrow("flow", "trk\"1\"", 3, "trk2", 8);
  trace.async_span("trk2", "async\"span", "tr\"ace", 9, 1, 4);
  const std::string json = trace.json();
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find(long_name), std::string::npos);
}

TEST(Trace, FlowEventsPairAndShareId) {
  ChromeTrace trace;
  trace.slice("a", "send", "", 0, 10);
  trace.slice("b", "inject", "", 20, 30);
  trace.arrow("offload", "a", 5, "b", 25);
  std::string json = trace.json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"id\":1"), 2u);
  // Chrome's flow semantics: the terminating event binds to the enclosing
  // slice ("bp":"e"); exactly the "f" event carries it.
  EXPECT_EQ(count_occurrences(json, "\"bp\":\"e\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"flow\""), 2u);
  // Arrow ids are plain sequence numbers.
  trace.arrow("wire", "b", 26, "a", 9);
  json = trace.json();
  EXPECT_EQ(count_occurrences(json, "\"id\":2"), 2u);
}

TEST(Trace, TrackIdsAreStableAcrossExports) {
  ChromeTrace trace;
  trace.slice("alpha", "x", "", 0, 1);
  trace.slice("beta", "y", "", 1, 2);
  const std::string first = trace.json();
  trace.slice("beta", "z", "", 2, 3);
  const std::string second = trace.json();
  // The metadata line fixes each track's tid; adding events must not
  // renumber existing tracks.
  const auto tid_of = [](const std::string& json, const std::string& track) {
    const std::size_t name = json.find("\"name\":\"" + track + "\"");
    EXPECT_NE(name, std::string::npos) << track;
    const std::size_t tid = json.rfind("\"tid\":", name);
    EXPECT_NE(tid, std::string::npos);
    return json.substr(tid, json.find(',', tid) - tid);
  };
  EXPECT_EQ(tid_of(first, "alpha"), tid_of(second, "alpha"));
  EXPECT_EQ(tid_of(first, "beta"), tid_of(second, "beta"));
}

TEST(Trace, ExportRegistryEmitsCounterTracks) {
  ChromeTrace trace;
  MetricsRegistry reg;
  reg.counter("piom/offload/posted") = 12;
  reg.gauge("piom/load") = 0.5;
  reg.histogram("lat").add(100);  // histograms are skipped
  reg.counter("fabric/faults/dropped") = 3;
  render_timeline(trace, {}, reg, 5000);
  const std::string json = trace.json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("piom/offload/posted"), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
  EXPECT_EQ(json.find("lat"), std::string::npos);
  // Fault counters also get their own "fabric/faults" track.
  EXPECT_NE(json.find("\"name\":\"fabric/faults\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dropped\""), std::string::npos);
}

TEST(Trace, WriteJsonToFile) {
  ChromeTrace trace;
  trace.slice("t", "a", "", 0, 1000);
  const std::string path = ::testing::TempDir() + "/pm2_trace_test.json";
  ASSERT_TRUE(trace.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = 0;
  EXPECT_NE(std::string(buf).find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, WriteReportsIoFailure) {
  ChromeTrace trace;
  trace.slice("t", "a", "", 0, 1000);
  EXPECT_FALSE(
      trace.write(::testing::TempDir() + "/no-such-dir/pm2_trace.json"));
  // A device that accepts the open but fails every write-back.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(trace.write("/dev/full"));
  }
}

TEST(Trace, ClusterRecordsCpuSpans) {
  ClusterConfig cfg;
  cfg.cpus_per_node = 4;
  cfg.marcel.timeline = true;
  Cluster cluster(cfg);
  std::vector<std::byte> data(8192, std::byte{1});
  std::vector<std::byte> rx(8192);
  cluster.run_on(0, [&] {
    nm::Request* s = cluster.comm(0).isend(1, 1, data);
    marcel::this_thread::compute(40 * kUs);
    cluster.comm(0).wait(s);
  }, "sender");
  cluster.run_on(1, [&] {
    nm::Request* r = cluster.comm(1).irecv(0, 1, rx);
    cluster.comm(1).wait(r);
  }, "receiver");
  cluster.run();
  const ChromeTrace trace = cluster.timeline();
  EXPECT_GT(trace.event_count(), 4u);
  const std::string json = trace.json();
  EXPECT_NE(json.find("sender"), std::string::npos);
  EXPECT_NE(json.find("receiver"), std::string::npos);
  // The offloaded submission shows up as service work on some core.
  EXPECT_NE(json.find("service:"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"core-state\""), std::string::npos);
}

// ------------------------------------------- arrows against request spans

/// One event line of a ChromeTrace document (the writer puts one event
/// per line).
struct Line {
  std::string name;
  std::string ph;
  int tid = 0;
  SimTime ts = 0;
  SimTime dur = 0;
  unsigned long long id = 0;
};

std::string string_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":\"");
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size() + 4;
  return line.substr(from, line.find('"', from) - from);
}

double number_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

SimTime ns_field(const std::string& line, const std::string& key) {
  return static_cast<SimTime>(std::llround(number_field(line, key) * 1000));
}

/// Events and the track name of every tid.
std::pair<std::vector<Line>, std::map<int, std::string>> parse(
    const std::string& json) {
  std::vector<Line> events;
  std::map<int, std::string> tracks;
  std::size_t pos = 0;
  while ((pos = json.find('{', pos)) != std::string::npos) {
    const std::size_t end = json.find('\n', pos);
    const std::string line = json.substr(pos, end - pos);
    pos = end;
    const int tid = static_cast<int>(number_field(line, "tid"));
    if (string_field(line, "ph") == "M") {
      const std::size_t args = line.find("\"args\"");
      tracks[tid] = string_field(line.substr(args), "name");
      continue;
    }
    events.push_back({string_field(line, "name"), string_field(line, "ph"),
                      tid, ns_field(line, "ts"), ns_field(line, "dur"),
                      static_cast<unsigned long long>(
                          number_field(line, "id"))});
  }
  return {events, tracks};
}

std::string node_of(const std::string& track) {
  return track.substr(0, track.find('/'));
}

void ping_pong(Cluster& cluster, std::size_t bytes, int rounds) {
  std::vector<std::byte> tx(bytes, std::byte{7});
  std::vector<std::byte> rx0(bytes), rx1(bytes);
  cluster.run_on(0, [&] {
    for (int i = 0; i < rounds; ++i) {
      cluster.comm(0).wait(cluster.comm(0).isend(1, 5, tx));
      cluster.comm(0).wait(cluster.comm(0).irecv(1, 6, rx0));
    }
  });
  cluster.run_on(1, [&] {
    for (int i = 0; i < rounds; ++i) {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, 5, rx1));
      cluster.comm(1).wait(cluster.comm(1).isend(0, 6, tx));
    }
  });
  cluster.run();
}

TEST(Timeline, PingPongArrowsMatchTheRequestSpans) {
  constexpr int kRounds = 5;
  for (const bool pioman : {true, false}) {
    for (const std::size_t bytes : {std::size_t{4096}, std::size_t{65536}}) {
      SCOPED_TRACE(std::string(pioman ? "pioman " : "app-driven ") +
                   std::to_string(bytes) + " B");
      ClusterConfig cfg;
      cfg.cpus_per_node = 4;
      cfg.pioman = pioman;
      cfg.marcel.timeline = true;
      Cluster cluster(cfg);
      ping_pong(cluster, bytes, kRounds);

      // What the request spans say: offload-posted sends per node, and
      // the send/recv pairs the cross-node join resolves.
      std::map<unsigned, int> offloads;
      std::set<std::tuple<unsigned, unsigned, std::uint32_t, std::uint32_t>>
          sends, recvs;
      for (const RequestSpan& r : request_spans(cluster.trace_recorders())) {
        const RequestLife& f = r.life;
        if (r.send()) {
          if (f.at(Stage::kOffloadPosted) != 0) ++offloads[r.node];
          sends.emplace(r.node, f.peer, f.tag, f.seq);
        } else {
          recvs.emplace(f.peer, r.node, f.tag, f.seq);
        }
      }
      std::size_t pairs = 0;
      for (const auto& key : sends) pairs += recvs.count(key);
      EXPECT_EQ(pairs, 2u * kRounds);
      if (pioman && bytes == 4096) {
        EXPECT_EQ(offloads[0] + offloads[1], 2 * kRounds);
      }

      // What the timeline draws.
      const auto parsed = parse(cluster.timeline().json());
      const std::vector<Line>& events = parsed.first;
      const std::map<int, std::string>& tracks = parsed.second;
      std::map<unsigned long long, std::pair<const Line*, const Line*>> flows;
      std::map<std::string, std::vector<const Line*>> slices;
      for (const Line& e : events) {
        if (e.ph == "s") flows[e.id].first = &e;
        if (e.ph == "f") flows[e.id].second = &e;
        if (e.ph == "X") slices[tracks.at(e.tid)].push_back(&e);
      }
      const auto inside_a_slice = [&](const Line& end) {
        for (const Line* x : slices[tracks.at(end.tid)]) {
          if (x->ts <= end.ts && end.ts <= x->ts + x->dur) return true;
        }
        return false;
      };
      std::map<std::string, int> offload_arrows;
      std::size_t wire_arrows = 0;
      for (const auto& [id, ends] : flows) {
        ASSERT_NE(ends.first, nullptr) << "flow " << id;
        ASSERT_NE(ends.second, nullptr) << "flow " << id;
        const std::string from = tracks.at(ends.first->tid);
        const std::string to = tracks.at(ends.second->tid);
        EXPECT_TRUE(inside_a_slice(*ends.first)) << from << " " << id;
        EXPECT_TRUE(inside_a_slice(*ends.second)) << to << " " << id;
        if (ends.first->name == "offload") {
          EXPECT_EQ(node_of(from), node_of(to));
          ++offload_arrows[node_of(from)];
        } else {
          ASSERT_EQ(ends.first->name, "wire");
          EXPECT_NE(node_of(from), node_of(to));
          ++wire_arrows;
        }
      }
      for (unsigned n = 0; n < 2; ++n) {
        EXPECT_EQ(offload_arrows["node" + std::to_string(n)], offloads[n])
            << "node " << n;
      }
      EXPECT_EQ(wire_arrows, pairs);
    }
  }
}

}  // namespace
}  // namespace pm2::tracing
