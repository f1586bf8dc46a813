// PIOMan — the event server at the heart of the paper.
//
// One Server runs per node.  Each communication layer (nm::Core, the RPC
// engine, a collective engine with schedules in flight) attach()es one
// progress *source* — a poll callback that advances its protocol state,
// plus an optional pending-work check and interrupt hooks — and holds the
// returned handle, which detaches on destruction.  Layers also *post*
// deferred work items (e.g. the expensive injection of a small message,
// §2.2).  The server then exploits Marcel's trigger points:
//
//  * idle cores run the sources' poll callbacks and the posted work
//    (offload),
//  * timer ticks re-evaluate the detection method,
//  * context switches hand the poller role to a newly idle core,
//  * when every core is busy, a realtime "LWP" thread blocks on the NIC
//    interrupt line (armed through the sources' interrupt hooks) and
//    preempts on arrival (§3.2).
//
// Threads wait for completions through piom::Cond (see cond.hpp), whose
// wait path flushes posted work and actively polls — so offloading never
// *delays* communication, it only moves work off the critical path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "core/config.hpp"
#include "marcel/node.hpp"
#include "marcel/tasklet.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::piom {

/// Detection method currently in force (§3.2 "Rendezvous management").
enum class Method : std::uint8_t {
  kPolling,   // idle cores actively poll
  kBlocking,  // interrupts armed; the LWP blocks on them
};

class Server {
  struct Entry;
  struct Detach {
    Server* server = nullptr;
    void operator()(Entry* entry) const noexcept { server->detach(entry); }
  };

 public:
  /// Deferred work item (e.g. submit-to-NIC); may consume CPU time.
  using WorkFn = std::function<void()>;

  /// One progress source: everything a layer registers with PIOMan.
  struct Source {
    /// Runs once per poll round, in attach order, on whatever core the
    /// server picked (service fiber, LWP, or a waiting thread); may consume
    /// CPU time; returns true if it made progress.  Each live source with
    /// a poll callback is charged Config::ltask_poll_cost per round; one
    /// without (pending check or interrupt hooks only) is skipped.
    std::function<bool(marcel::Cpu&)> poll{};
    /// Optional cheap check for externally visible work (packets in a NIC
    /// receive queue, unexpected RPC-band messages awaiting dispatch):
    /// idle cores keep polling while any attached source reports true.
    std::function<bool()> pending{};
    /// Optional driver hooks for interrupt-driven detection; without a
    /// source providing them the server never switches to blocking.
    std::function<void()> arm_interrupts{};
    std::function<void()> disarm_interrupts{};
    /// The source's contract for quiescent polling: an empty poll changes
    /// nothing, and every change that could alter what poll or pending
    /// sees goes through arm(), post(), notify_work() or wake_pollers().
    /// Pollers park between empty rounds only while every live source
    /// with a poll or pending callback has it.
    bool quiescent = false;
  };

  /// Move-only registration handle (a unique_ptr whose deleter detaches):
  /// destroying or reset()ting it detaches the source.  A detach inside a
  /// poll round — a source detaching itself or another — tombstones the
  /// entry: it is neither polled nor asked for pending work again, and is
  /// swept once the outermost round ends.  Must not outlive the Server.
  using Attachment = std::unique_ptr<Entry, Detach>;

  Server(marcel::Node& node, Config cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] marcel::Node& node() noexcept { return node_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // ---- registration (communication library side) ----

  /// The single registration entry point.  A source attached inside a
  /// poll round joins that round.
  [[nodiscard]] Attachment attach(Source source);

  /// Registry entries, live plus tombstones awaiting the sweep; bounded by
  /// regression tests across attach/detach churn.
  [[nodiscard]] std::size_t source_slots() const noexcept {
    return sources_.size();
  }

  // ---- event posting ----

  /// One more pollable request is outstanding: idle cores should poll.
  void arm();
  /// A pollable request completed.
  void disarm();
  [[nodiscard]] unsigned armed() const noexcept { return armed_; }

  /// Reactivity-critical request (a rendezvous handshake, §2.3): when no
  /// core is idle, these justify switching to the interrupt-driven
  /// blocking LWP.  Plain eager traffic does not — its processing happens
  /// in the wait path anyway, and an interrupt per packet would only
  /// preempt the computing threads.
  void arm_critical();
  void disarm_critical();
  [[nodiscard]] unsigned armed_critical() const noexcept {
    return critical_;
  }

  /// Defer a work item (offloadable submission).  If an idle core exists
  /// the item is dispatched to it through a tasklet; otherwise it stays
  /// queued until an idle core appears or a waiter flushes it (§2.2).
  void post(WorkFn work);

  /// Execute all queued posted work on the calling fiber's CPU (wait path:
  /// "the message is sent inside the wait function").
  void flush_posted();

  /// Number of posted items not yet executed.
  [[nodiscard]] std::size_t posted_pending() const noexcept {
    return posted_.size();
  }

  /// Run one round of every attached source's poll on `cpu`; true if any
  /// made progress.
  bool poll_round(marcel::Cpu& cpu);

  /// The non-blocking test path (Core::test, rpc::Engine::progress, ...):
  /// run any posted work here, then one poll round on `cpu`.
  bool flush_and_poll(marcel::Cpu& cpu);

  /// Driver-side notification: a NIC interrupt fired (blocking mode).
  void on_interrupt();

  /// Driver-side notification: pollable work appeared (e.g. a packet was
  /// delivered); wakes parked idle cores so they resume polling.
  void notify_work();

  /// Something a poll round on this node could observe changed (a queue a
  /// source polls was popped): pollers parked in closed form — all, or
  /// those waiting on `tag` (a Cond, or this server for the idle cores,
  /// which watch the armed count) — resume their rounds.  Unlike
  /// notify_work() this kicks no halted core.
  void wake_pollers(const void* tag = nullptr);

  [[nodiscard]] Method method() const noexcept { return method_; }

  /// Stop the LWP so the simulation can drain (call before destruction in
  /// long-lived setups; optional for tests).
  void shutdown();

  // ---- statistics ----
  struct Stats {
    std::uint64_t poll_rounds = 0;
    std::uint64_t posted_items = 0;
    std::uint64_t posted_offloaded = 0;  // executed by a non-posting core
    std::uint64_t posted_flushed = 0;    // executed inside a wait
    std::uint64_t interrupts = 0;
    std::uint64_t method_switches = 0;
    std::uint64_t cond_waits = 0;           // piom::Cond::wait[_for] entries
    std::uint64_t cond_passive_blocks = 0;  // waits that yielded the core
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/piom"), plus a computed "<prefix>/method_blocking" gauge.
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  friend class Cond;

  struct PostedItem {
    WorkFn fn;
    marcel::Cpu* poster;
  };

  /// What a round's caller checks before pacing: the core, its
  /// poll_wakes() and the lock acquisitions, as of the round's start.
  struct Mark {
    marcel::Cpu* cpu;
    std::uint64_t wakes;
    std::uint64_t locks;
  };
  [[nodiscard]] Mark mark(marcel::Cpu& cpu) const;
  /// After a round that found nothing: burn the poll gap, or — when
  /// nothing a round observes changed since `m` — quiesce the calling
  /// poller (marcel::Cpu::quiesce).  True if it resumed inside a later
  /// round and finished it; `*progress` is then that round's result.
  bool pace(const Mark& m, bool* progress, const void* tag,
            SimTime deadline = kSimTimeNever);
  /// The rest of a round, from entry `i`; `resume` names a poller resumed
  /// inside entry i's ltask burn, with `left` of the burn still due.
  bool poll_entries(marcel::Cpu& cpu, std::size_t i, bool resume,
                    SimDuration left);
  /// A quiesced poller of this server sits inside a round's burns.
  [[nodiscard]] bool quiescent_in_round() const;

  bool idle_hook(marcel::Cpu& cpu);
  void tick_hook(marcel::Cpu& cpu);
  void switch_hook(marcel::Cpu& cpu);
  void offload_tasklet_body();
  void lwp_body();
  void update_method();
  bool run_posted(marcel::Cpu& cpu);

  marcel::Node& node_;
  Config cfg_;

  struct Entry {
    Source src;
    /// Tombstoned by a detach mid-round: tombstones_ as of the detach.
    std::uint64_t tombstone = 0;
    [[nodiscard]] bool alive() const noexcept { return tombstone == 0; }
  };
  void detach(Entry* entry);

  // unique_ptr entries: addresses stay stable when a callback attaches a
  // new source (push_back may reallocate) while poll_round iterates.
  std::vector<std::unique_ptr<Entry>> sources_;
  int poll_round_depth_ = 0;    // poll_round can nest across fibers
  bool sources_dirty_ = false;  // tombstones awaiting the depth-0 sweep
  std::uint64_t tombstones_ = 0;  // detaches that tombstoned, ever

  unsigned armed_ = 0;
  unsigned critical_ = 0;  // subset of armed_ needing interrupt fallback
  std::deque<PostedItem> posted_;
  marcel::Tasklet offload_tasklet_;
  marcel::Cpu* poll_owner_ = nullptr;

  /// True when any request is armed, work is posted, or a live source
  /// reports externally pending events.
  [[nodiscard]] bool has_work() const;

  bool interrupts_enabled_ = false;
  Method method_ = Method::kPolling;

  marcel::Thread* lwp_ = nullptr;
  bool lwp_waiting_ = false;
  bool lwp_has_event_ = false;
  bool shutdown_ = false;

  int idle_hook_id_ = 0;
  int tick_hook_id_ = 0;
  int switch_hook_id_ = 0;

  Stats stats_;
};

}  // namespace pm2::piom
