#include "core/server.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/lockdep_hook.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"
#include "marcel/lockdep.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::piom {
namespace {

/// Consume `d` of CPU time on the calling fiber (tasklet/hook/thread
/// context).  Re-fetches the current CPU per chunk — a preemption may
/// migrate a thread fiber mid-charge.
void burn(marcel::Cpu&, SimDuration d) { marcel::this_thread::compute(d); }

}  // namespace

Server::Server(marcel::Node& node, Config cfg)
    : node_(node),
      cfg_(cfg),
      offload_tasklet_([this] { offload_tasklet_body(); }, "piom-offload") {
  idle_hook_id_ =
      node_.add_idle_hook([this](marcel::Cpu& cpu) { return idle_hook(cpu); });
  tick_hook_id_ =
      node_.add_tick_hook([this](marcel::Cpu& cpu) { tick_hook(cpu); });
  switch_hook_id_ =
      node_.add_switch_hook([this](marcel::Cpu& cpu) { switch_hook(cpu); });
  if (cfg_.enable_blocking_lwp) {
    lwp_ = &node_.spawn([this] { lwp_body(); }, marcel::Priority::kRealtime,
                        "piom-lwp");
  }
}

Server::~Server() {
  // Stop and join the LWP before tearing down.  Its fiber captures `this`;
  // merely removing the hooks used to leave it schedulable, so the next
  // engine step after destruction ran lwp_body() on a dead Server
  // (use-after-free).
  shutdown();
  if (lwp_ != nullptr && !lwp_->finished()) {
    PM2_ASSERT_MSG(sim::Fiber::current() == nullptr,
                   "~Server must run from engine/host context, not a fiber");
    sim::Engine& engine = node_.engine();
    while (!lwp_->finished() && engine.run_one()) {
    }
    PM2_ASSERT_MSG(lwp_->finished(), "piom-lwp failed to drain");
  }
  PM2_ASSERT_MSG(sources_.empty(), "a progress source outlived its Server");
  node_.remove_idle_hook(idle_hook_id_);
  node_.remove_tick_hook(tick_hook_id_);
  node_.remove_switch_hook(switch_hook_id_);
}

Server::Attachment Server::attach(Source source) {
  wake_pollers();  // the round grows by one source
  sources_.push_back(std::make_unique<Entry>(Entry{std::move(source)}));
  return Attachment(sources_.back().get(), Detach{this});
}

void Server::detach(Entry* entry) {
  wake_pollers();  // the round shrinks
  if (poll_round_depth_ > 0 || quiescent_in_round()) {
    // Mid-round (typically a callback detaching itself): destroying a
    // std::function while its body executes is UB, and erase would shift
    // the vector under the iterating loop.  Tombstone; swept at depth 0.
    entry->tombstone = ++tombstones_;
    sources_dirty_ = true;
    return;
  }
  std::erase_if(sources_, [entry](const auto& e) { return e.get() == entry; });
}

bool Server::has_work() const {
  if (armed_ > 0 || !posted_.empty()) return true;
  return std::ranges::any_of(sources_, [](const auto& e) {
    return e->alive() && e->src.pending && e->src.pending();
  });
}

void Server::arm() {
  ++armed_;
  update_method();
  // Parked idle cores must resume polling for the new request.
  node_.kick_idle_cpus();
}

void Server::disarm() {
  PM2_ASSERT(armed_ > 0);
  --armed_;
  if (armed_ == 0) {
    wake_pollers(this);  // idle cores' has_work() may have flipped
    update_method();
  }
}

void Server::arm_critical() {
  ++critical_;
  update_method();
}

void Server::disarm_critical() {
  PM2_ASSERT(critical_ > 0);
  --critical_;
  if (critical_ == 0) update_method();
}

void Server::post(WorkFn work) {
  ++stats_.posted_items;
  posted_.push_back({std::move(work), marcel::detail::current_cpu()});
  wake_pollers();
  // §2.2: if a CPU is idle, process the event there; otherwise the item
  // waits for a core to become idle or for the wait() flush.
  if (marcel::Cpu* idle = node_.find_idle_cpu()) {
    offload_tasklet_.schedule_on(*idle);
  }
}

void Server::flush_posted() {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT_MSG(cpu != nullptr, "flush_posted outside a fiber");
  marcel::EngineScope scope;  // app thread draining the engine's work
  while (!posted_.empty()) {
    PostedItem item = std::move(posted_.front());
    posted_.pop_front();
    ++stats_.posted_flushed;
    item.fn();
  }
}

bool Server::run_posted(marcel::Cpu& cpu) {
  marcel::EngineScope scope;
  bool any = false;
  while (!posted_.empty()) {
    PostedItem item = std::move(posted_.front());
    posted_.pop_front();
    if (item.poster != &cpu) {
      // Request metadata lives in the poster's cache: model the transfer.
      burn(cpu, cfg_.remote_exec_penalty);
      ++stats_.posted_offloaded;
    }
    item.fn();
    any = true;
  }
  return any;
}

bool Server::poll_round(marcel::Cpu& cpu) {
  ++stats_.poll_rounds;
  return poll_entries(cpu, 0, /*resume=*/false, 0);
}

bool Server::poll_entries(marcel::Cpu& cpu, std::size_t i, bool resume,
                          SimDuration left) {
  marcel::EngineScope scope;
  bool progress = false;
  ++poll_round_depth_;
  // Index loop, size re-read each pass: callbacks may attach new sources
  // (picked up this round) or detach existing ones (tombstoned, skipped)
  // while we iterate.
  for (; i < sources_.size(); ++i) {
    if (resume) {
      resume = false;  // this entry's burn was under way: finish it
      if (left > 0) burn(cpu, left);
    } else {
      if (!sources_[i]->alive() || !sources_[i]->src.poll) continue;
      if (cfg_.ltask_poll_cost > 0) burn(cpu, cfg_.ltask_poll_cost);
    }
    // The burn can preempt; another fiber may have detached this entry.
    if (!sources_[i]->alive()) continue;
    progress = sources_[i]->src.poll(cpu) || progress;
  }
  if (--poll_round_depth_ == 0 && sources_dirty_ && !quiescent_in_round()) {
    sources_dirty_ = false;
    std::erase_if(sources_, [](const auto& e) { return !e->alive(); });
  }
  return progress;
}

Server::Mark Server::mark(marcel::Cpu& cpu) const {
  return {&cpu, cpu.poll_wakes(), lockdep_hook::acquisitions()};
}

bool Server::pace(const Mark& m, bool* progress, const void* tag,
                  SimTime deadline) {
  if (cfg_.poll_gap == 0) return false;
  // The round may have migrated the caller: fetch the core afresh.
  marcel::Cpu& cpu = marcel::this_thread::cpu();
  // Park only if the next rounds would repeat this one exactly: same
  // core, nothing announced since the round started, no lock taken, every
  // source bound by the quiescent contract, and (for an idle core) no
  // idle hook besides ours.
  const bool quiet =
      &cpu == m.cpu && cpu.poll_wakes() == m.wakes &&
      lockdep_hook::acquisitions() == m.locks &&
      (marcel::this_thread::self() != nullptr ||
       node_.idle_hook_count() == 1) &&
      std::ranges::all_of(sources_, [](const auto& e) {
        return !e->alive() || e->src.quiescent ||
               (!e->src.poll && !e->src.pending);
      });
  if (!quiet) {
    burn(cpu, cfg_.poll_gap);
    return false;
  }
  // The round's layout: one ltask burn per live polled source.
  const unsigned burns =
      cfg_.ltask_poll_cost == 0
          ? 0
          : static_cast<unsigned>(std::ranges::count_if(
                sources_,
                [](const auto& e) { return e->alive() && e->src.poll; }));
  const std::uint64_t tombstones = tombstones_;
  const marcel::PollResume at =
      cpu.quiesce({.owner = this,
                   .tag = tag,
                   .burns = burns,
                   .burn = cfg_.ltask_poll_cost,
                   .gap = cfg_.poll_gap,
                   .rounds = &stats_.poll_rounds,
                   .deadline = deadline});
  if (at.phase == burns) {
    if (at.left > 0) burn(cpu, at.left);
    return false;
  }
  // Burn `at.phase` belongs to the at.phase-th source that was live and
  // polled at the park: entries stay put while a poller sits inside a
  // round, and one detached since is tombstoned after `tombstones`.
  std::size_t i = 0;
  for (unsigned seen = 0;; ++i) {
    PM2_ASSERT(i < sources_.size());
    const Entry& e = *sources_[i];
    if (e.src.poll && (e.alive() || e.tombstone > tombstones) &&
        seen++ == at.phase) {
      break;
    }
  }
  *progress = poll_entries(cpu, i, /*resume=*/true, at.left);
  return true;
}

bool Server::quiescent_in_round() const {
  for (unsigned c = 0; c < node_.cpu_count(); ++c) {
    if (node_.cpu(c).quiescent_in_round(this)) return true;
  }
  return false;
}

void Server::wake_pollers(const void* tag) {
  for (unsigned c = 0; c < node_.cpu_count(); ++c) {
    node_.cpu(c).wake_poller(tag);
  }
}

bool Server::flush_and_poll(marcel::Cpu& cpu) {
  if (!posted_.empty()) flush_posted();
  return poll_round(cpu);
}

// ------------------------------------------------------------------ hooks

bool Server::idle_hook(marcel::Cpu& cpu) {
  if (!has_work()) return false;
  // Tasklet-style exclusivity: a single core polls a given server at a
  // time (§2.1 — events are processed one at a time, under light locks).
  if (poll_owner_ != nullptr && poll_owner_ != &cpu &&
      poll_owner_->idle_polling()) {
    return false;  // someone else is on it; this core can halt
  }
  poll_owner_ = &cpu;
  const Mark m = mark(cpu);
  bool progress = run_posted(cpu);
  progress = poll_round(cpu) || progress;
  for (;;) {
    if (!has_work()) {
      poll_owner_ = nullptr;
      return false;  // everything completed: stop polling
    }
    // Busy-wait pacing between empty rounds (or a closed-form park).
    if (progress || !pace(m, &progress, this)) return has_work();
  }
}

void Server::tick_hook(marcel::Cpu& cpu) {
  // Timer interrupts are one of PIOMan's trigger points (§3.1).  When
  // configured, pending submissions that found no idle core are dispatched
  // here, bounding their latency by one tick period — at the price of
  // preempting the computing thread (see Config::offload_on_tick).
  if (cfg_.offload_on_tick && !posted_.empty()) {
    offload_tasklet_.schedule_on(cpu);
  }
  update_method();
}

void Server::switch_hook(marcel::Cpu& cpu) {
  // A core picked up new work; if it was the poller, hand the role to
  // another idle core (engine context — keep it cheap).
  if (armed_ == 0) return;
  if (poll_owner_ == &cpu) poll_owner_ = nullptr;
  update_method();
}

void Server::update_method() {
  const bool want_block =
      cfg_.enable_blocking_lwp && critical_ > 0 &&
      std::ranges::any_of(sources_,
                          [](const auto& e) {
                            return e->alive() && e->src.arm_interrupts;
                          }) &&
      node_.idle_cpu_count() == 0;
  const Method want = want_block ? Method::kBlocking : Method::kPolling;
  if (want == method_) return;
  method_ = want;
  ++stats_.method_switches;
  if (interrupts_enabled_ == (method_ == Method::kBlocking)) return;
  interrupts_enabled_ = !interrupts_enabled_;
  for (const auto& e : sources_) {
    if (!e->alive()) continue;
    const auto& hook =
        interrupts_enabled_ ? e->src.arm_interrupts : e->src.disarm_interrupts;
    if (hook) hook();
  }
}

// ---------------------------------------------------------------- offload

void Server::offload_tasklet_body() {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT(cpu != nullptr);
  run_posted(*cpu);
}

// -------------------------------------------------------------------- LWP

void Server::lwp_body() {
  for (;;) {
    lwp_waiting_ = true;
    // Historical race window: on real hardware an interrupt can land after
    // the LWP announces it is waiting but before it is actually asleep.
    // The fuzzer opens this window; on_interrupt() must then NOT wake us
    // (we are not blocked yet) — the re-check below picks the event up.
    sim::fuzz::interleave_point("piom-lwp/pre-block");
    if (!lwp_has_event_) {
      // The event-flag check and the block are atomic (no suspension in
      // between): an interrupt delivered in the window above set the flag
      // and is observed here instead of being stranded.
      lockdep::check_block(lwp_has_event_ || shutdown_, "piom-lwp event flag");
      // Block in the (modelled) kernel until an interrupt arrives.
      marcel::this_thread::cpu().block_current();
    }
    lwp_waiting_ = false;
    lwp_has_event_ = false;
    if (shutdown_) return;
    // Interrupt handling + kernel wakeup path.
    {
      marcel::EngineScope scope;
      marcel::this_thread::compute(cfg_.interrupt_cost);
    }
    marcel::Cpu& cpu = marcel::this_thread::cpu();
    run_posted(cpu);
    poll_round(cpu);
  }
}

void Server::on_interrupt() {
  ++stats_.interrupts;
  if (lwp_ == nullptr) return;
  lwp_has_event_ = true;
  // Only wake the LWP once it is really asleep.  In the pre-block window
  // (lwp_waiting_ set, fiber not yet blocked) waking would trip the
  // scheduler's "waking a thread that is not blocked" invariant and strand
  // the event; the LWP's pre-block re-check observes the flag instead.
  if (lwp_waiting_ && lwp_->state() == marcel::ThreadState::kBlocked) {
    lwp_waiting_ = false;
    node_.wake(*lwp_);  // realtime priority: preempts a busy core
  }
}

void Server::notify_work() {
  node_.kick_idle_cpus();
  wake_pollers();
}

void Server::bind_metrics(MetricsRegistry& registry,
                          std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/poll/rounds", &stats_.poll_rounds);
  registry.bind_counter(p + "/offload/posted", &stats_.posted_items);
  registry.bind_counter(p + "/offload/offloaded", &stats_.posted_offloaded);
  registry.bind_counter(p + "/offload/flushed", &stats_.posted_flushed);
  registry.bind_counter(p + "/interrupts", &stats_.interrupts);
  registry.bind_counter(p + "/method_switches", &stats_.method_switches);
  registry.bind_counter(p + "/cond/waits", &stats_.cond_waits);
  registry.bind_counter(p + "/cond/passive_blocks",
                        &stats_.cond_passive_blocks);
  registry.bind_gauge(p + "/method_blocking", [this] {
    return method_ == Method::kBlocking ? 1.0 : 0.0;
  });
}

void Server::shutdown() {
  shutdown_ = true;
  if (lwp_ == nullptr) return;
  lwp_has_event_ = true;  // pre-block re-check observes this if not asleep
  if (lwp_waiting_ && lwp_->state() == marcel::ThreadState::kBlocked) {
    lwp_waiting_ = false;
    node_.wake(*lwp_);
  }
}

}  // namespace pm2::piom
