// The repository benchmark's harness: workload interface, in-memory spans
// recorded around calls into each layer's public API, and the run loop
// that times one workload on both clocks.
//
// Two clocks.  Virtual time (Cluster::now()) is what the modelled engine
// costs; every virtual number must repeat exactly for a given seed, with
// spans on or off.  Host time (std::chrono::steady_clock) is what the
// simulator costs to run; it is read only around Cluster construction,
// service registration, run_until and teardown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "pm2/cluster.hpp"

namespace perfbench {

using pm2::SimDuration;
using pm2::SimTime;

struct Params {
  std::uint64_t seed = 1;
  bool trace = false;  // record spans (the traced run)
  /// Divides every workload's op count (tests run small instances).
  unsigned shrink = 1;
};

// ------------------------------------------------------------------ spans

/// One closed interval of virtual time at a layer boundary.  Spans of one
/// op share `op`; `parent` is the index + 1 of the span that caused it
/// (0 for an op's root).
struct Span {
  const char* name = "";
  SimTime start = 0;
  SimTime end = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
};

/// Spans held in memory for the whole run and written when it ends.  All
/// simulated threads run on one host thread, so no locking is needed.
/// When off, every call is one untaken branch and records nothing.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Open a span; returns its id (0 when spans are off).
  std::uint32_t open(const char* name, std::uint64_t op, SimTime start,
                     std::uint32_t parent = 0);
  void close(std::uint32_t id, SimTime end);
  /// Record an already-closed span; returns its id (0 when off).
  std::uint32_t add(const char* name, std::uint64_t op, SimTime start,
                    SimTime end, std::uint32_t parent);

  [[nodiscard]] const std::vector<Span>& all() const noexcept {
    return spans_;
  }
  /// Durations (ns) of every span called `name`.
  [[nodiscard]] std::vector<SimDuration> durations(
      std::string_view name) const;
  /// Per span: its duration minus the part of it its children cover.
  [[nodiscard]] std::vector<SimDuration> self_times() const;
  /// Root spans called `root` whose direct children do not tile them: in
  /// start order each child must begin where the previous one ended (the
  /// first at the root's start), end no earlier than it begins, and the
  /// last must end at the root's end.  Only meaningful for ops whose
  /// children are meant to tile the root (rpc_tail).
  [[nodiscard]] std::uint64_t untiled_roots(std::string_view root) const;
  /// CSV: id,parent,op,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer's public API.
class Scope {
 public:
  Scope(Spans& spans, pm2::Cluster& cluster, const char* name,
        std::uint64_t op, std::uint32_t parent)
      : spans_(spans),
        cluster_(cluster),
        id_(spans.on() ? spans.open(name, op, cluster.now(), parent) : 0) {}
  ~Scope() {
    if (id_ != 0) spans_.close(id_, cluster_.now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  pm2::Cluster& cluster_;
  std::uint32_t id_;
};

// ------------------------------------------------------------- workloads

/// One op: an RPC request, a thread's stencil iteration, or a rank's halo
/// iteration.  `ok` is cleared by any failed output check.
struct Op {
  SimTime start = 0;
  SimTime end = 0;
  bool done = false;
  bool ok = true;
};

/// What a workload hands back after its run.
struct Outcome {
  std::vector<Op> ops;
  std::vector<std::string> errors;          // first few check failures
  std::vector<SimDuration> gen_lag;         // rpc_tail: issue - due
  std::vector<SimDuration> sleep_lag;       // rpc_tail: wake - due
  std::map<std::string, double> layer;      // workload-specific counters

  void fail(Op& op, std::string what) {
    op.ok = false;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The default ClusterConfig apart from node/core counts and the
  /// rpc/rma opt-ins.
  [[nodiscard]] virtual pm2::ClusterConfig config() const = 0;
  /// Register services and spawn the application threads (part of set-up:
  /// no event runs before run_until).
  virtual void install(pm2::Cluster& cluster, Spans& spans) = 0;
  /// Virtual time by which every op must have finished.
  [[nodiscard]] virtual SimTime deadline() const = 0;
  /// After the run: check outputs and fill the op table.
  virtual void finish(pm2::Cluster& cluster, Spans& spans, Outcome& out) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_rpc_tail(const Params& p);
[[nodiscard]] std::unique_ptr<Workload> make_stencil_mt(const Params& p);
[[nodiscard]] std::unique_ptr<Workload> make_halo_allreduce(const Params& p);
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Params& p);

/// Deterministic per-(seed, stream) generator seed (splitmix64 finaliser).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// -------------------------------------------------------------------- run

/// Everything one process measures.  `virt`, `layer_virtual` and
/// `layer_spans` are on the virtual clock and repeat bit for bit for a seed
/// (the first two whether or not spans are on); `host` does not.
struct Record {
  bool correct = true;
  bool finished = true;  // every op completed before the deadline
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> virt;           // end-to-end, virtual
  std::map<std::string, double> layer_virtual;  // per-layer, virtual
  std::map<std::string, double> layer_spans;    // traced: from spans
  std::map<std::string, double> host;           // host clock and memory
  std::map<std::string, double> self_us;        // traced: self time by span
  std::uint64_t spans = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Build, run and tear down one workload.  host["setup_s"] times the
/// process's first (cold) set-up; `dry_setups` extra clusters are then
/// built and destroyed without running, and host["setup_warm_s"] is their
/// median.  When spans are on and `spans_path` is
/// non-empty, the spans are written there at the end.  A run with ops left
/// unfinished at the deadline is not torn down: its cluster is leaked.
[[nodiscard]] Record run(const WorkloadFactory& make, const Params& p,
                         unsigned dry_setups,
                         const std::string& spans_path = {});

/// run() on a workload by name; nullopt for an unknown name.
[[nodiscard]] std::optional<Record> run_workload(
    std::string_view name, const Params& p, unsigned dry_setups,
    const std::string& spans_path = {});

/// Nearest-rank percentile of `v` (sorted in place), in the same unit.
[[nodiscard]] double percentile(std::vector<SimDuration>& v, double q);

/// One-line JSON of a record (virtual values with all their digits).
[[nodiscard]] std::string to_json(const Record& r);

}  // namespace perfbench
