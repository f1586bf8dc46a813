#include "marcel/cpu.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "marcel/lockdep.hpp"
#include "marcel/node.hpp"
#include "marcel/runtime.hpp"
#include "pm2/tracing/tracing.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::marcel {
namespace {

thread_local Cpu* t_cpu = nullptr;
thread_local Thread* t_thread = nullptr;

}  // namespace

namespace detail {
Cpu* current_cpu() noexcept { return t_cpu; }
Thread* current_thread() noexcept { return t_thread; }
}  // namespace detail

const char* core_state_name(CoreState s) noexcept {
  switch (s) {
    case CoreState::kIdle: return "idle";
    case CoreState::kApp: return "app";
    case CoreState::kEngine: return "engine";
    case CoreState::kTasklet: return "tasklet";
    case CoreState::kBlocked: return "blocked";
  }
  return "?";
}

Cpu::Cpu(Node& node, unsigned index, const Config& cfg, sim::Engine& engine)
    : node_(node),
      index_(index),
      cfg_(cfg),
      engine_(engine),
      service_fiber_([this] { service_body(); }, cfg.stack_bytes) {}

Cpu::~Cpu() { engine_.drop(poll_park_); }

// ---------------------------------------------------------------- enqueue

void Cpu::enqueue(Thread& t, bool front) {
  PM2_ASSERT(t.state_ != ThreadState::kFinished);
  PM2_ASSERT_MSG(!t.rq_hook.is_linked(), "thread already on a runqueue");
  const bool was_halted = !busy() && !dispatch_pending_;
  t.state_ = ThreadState::kReady;
  t.last_cpu_ = this;
  wake_poller();  // a spinning waiter checks runnable() every round
  auto& q = rq_[static_cast<unsigned>(t.prio_)];
  front ? q.push_front(t) : q.push_back(t);
  ++ready_count_;
  note_new_work();
  if (occ_ == Occupant::kThread && cur_thread_ != nullptr &&
      t.prio_ > cur_thread_->prio_) {
    request_resched(t.prio_ == Priority::kRealtime);
  } else if (occ_ == Occupant::kService) {
    // The service loop checks for ready threads between rounds; a realtime
    // arrival cuts the current poll-gap short.
    request_resched(t.prio_ == Priority::kRealtime);
  }
  kick(was_halted ? cfg_.wakeup_cost : 0);
  // Surplus work (the core is occupied or more than one thread queued):
  // nudge an idle sibling so it can steal.
  if (busy() || ready_count_ > 1) node_.offer_steal(*this);
}

void Cpu::tasklet_enqueue(Tasklet& t) {
  const bool was_halted = !busy() && !dispatch_pending_;
  wake_poller();
  tasklets_.push_back(t);
  note_new_work();
  if (occ_ == Occupant::kService) need_resched_ = true;
  kick(was_halted ? cfg_.wakeup_cost : 0);
}

void Cpu::note_new_work() noexcept {
  ++work_seq_;
  idle_park_ = false;
}

void Cpu::kick(SimDuration delay) {
  if (busy()) return;  // the dispatcher runs again when the occupant yields
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    delay = fz->perturb_delay(delay);  // fuzz wakeup/IPI delivery timing
  }
  const SimTime when = engine_.now() + delay;
  if (dispatch_pending_) {
    if (when >= dispatch_time_) return;
    engine_.cancel(dispatch_event_);
  }
  dispatch_pending_ = true;
  dispatch_time_ = when;
  dispatch_event_ = engine_.schedule_at(when, [this] {
    dispatch_pending_ = false;
    dispatch();
  });
}

void Cpu::request_resched(bool hard) {
  wake_poller();  // first, so a hard cut finds the resume event to cancel
  need_resched_ = true;
  if (hard && busy() && resume_event_ != sim::kInvalidEventId) {
    // Cut the in-flight compute chunk short: resume the occupant now so it
    // reaches its preemption point immediately.
    engine_.cancel(resume_event_);
    resume_event_ = sim::kInvalidEventId;
    engine_.schedule_now([this] { run_occupant(); });
  }
}

// ---------------------------------------------------------------- dispatch

void Cpu::dispatch() {
  if (busy()) return;
  ++stats_.dispatches;
  if (!tasklets_.empty()) {
    begin_run(Occupant::kService, nullptr);
    return;
  }
  if (Thread* t = pick_thread()) {
    begin_run(Occupant::kThread, t);
    return;
  }
  if (cfg_.work_stealing) {
    if (Thread* t = try_steal()) {
      begin_run(Occupant::kThread, t);
      return;
    }
  }
  if (node_.has_idle_hooks() && !idle_park_) {
    if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
      // Idle-core churn: defer entering the idle-poll loop so other cores'
      // events interleave differently with this core's polling rounds.
      SimDuration churn = 0;
      if (fz->churn_idle(&churn)) {
        kick(churn);
        return;
      }
    }
    service_idle_mode_ = true;
    begin_run(Occupant::kService, nullptr);
    return;
  }
  // Nothing to do: the core halts until kicked again.
}

Thread* Cpu::pick_thread() {
  for (int p = static_cast<int>(kNumPriorities) - 1; p >= 0; --p) {
    if (Thread* t = rq_[p].pop_front()) {
      --ready_count_;
      return t;
    }
  }
  return nullptr;
}

Thread* Cpu::try_steal() {
  const unsigned n = node_.cpu_count();
  for (unsigned i = 1; i < n; ++i) {
    Cpu& victim = node_.cpu((index_ + i) % n);
    if (victim.ready_count_ == 0) continue;
    // Steal from the back of the victim's highest non-empty class: those
    // threads have waited longest behind the victim's current occupant.
    for (int p = static_cast<int>(kNumPriorities) - 1; p >= 0; --p) {
      if (Thread* t = victim.rq_[p].pop_back()) {
        --victim.ready_count_;
        ++stats_.steals;
        t->last_cpu_ = this;
        return t;
      }
    }
  }
  return nullptr;
}

void Cpu::begin_run(Occupant what, Thread* t) {
  PM2_ASSERT(occ_ == Occupant::kNone);
  occ_ = what;
  cur_thread_ = t;
  if (t != nullptr) t->state_ = ThreadState::kRunning;
  if (what == Occupant::kThread) {
    set_core_state(t->engine_scope_ > 0 ? CoreState::kEngine
                                        : CoreState::kApp);
  } else {
    set_core_state(!tasklets_.empty() ? CoreState::kTasklet
                                      : CoreState::kEngine);
  }
  ++stats_.ctx_switches;
  need_resched_ = false;
  slice_start_ = engine_.now();
  if (tracing::Recorder* rec = timeline()) {
    occ_label_ = rec->label(t != nullptr ? std::string_view(t->name())
                            : !tasklets_.empty() ? "service:tasklets"
                                                 : "service:idle-poll");
  }
  node_.run_switch_hooks(*this);
  arm_tick();
  if (cfg_.ctx_switch_cost > 0) {
    charge(cfg_.ctx_switch_cost);
    engine_.schedule_after(cfg_.ctx_switch_cost, [this] { run_occupant(); });
  } else {
    engine_.schedule_now([this] { run_occupant(); });
  }
}

void Cpu::run_occupant() {
  PM2_ASSERT(occ_ != Occupant::kNone);
  resume_event_ = sim::kInvalidEventId;
  sim::Fiber& f =
      occ_ == Occupant::kThread ? cur_thread_->fiber_ : service_fiber_;
  Cpu* prev_cpu = t_cpu;
  Thread* prev_thread = t_thread;
  t_cpu = this;
  t_thread = occ_ == Occupant::kThread ? cur_thread_ : nullptr;
  f.resume();
  t_cpu = prev_cpu;
  t_thread = prev_thread;
  handle_suspension();
}

void Cpu::handle_suspension() {
  if (occ_ == Occupant::kThread && cur_thread_->fiber_.finished()) {
    record_occupancy();
    set_core_state(CoreState::kIdle);
    Thread* t = cur_thread_;
    occ_ = Occupant::kNone;
    cur_thread_ = nullptr;
    finish_thread(*t);
    kick();
    return;
  }
  switch (last_suspend_) {
    case SuspendReason::kCompute:
      // Resume event already queued; the core stays busy.
      return;
    case SuspendReason::kYield:
    case SuspendReason::kPreempted: {
      record_occupancy();
      set_core_state(CoreState::kIdle);
      Thread* t = cur_thread_;
      occ_ = Occupant::kNone;
      cur_thread_ = nullptr;
      enqueue(*t);  // back of its priority class
      kick();
      return;
    }
    case SuspendReason::kBlocked: {
      PM2_ASSERT(cur_thread_ != nullptr &&
                 cur_thread_->state_ == ThreadState::kBlocked);
      record_occupancy();
      set_core_state(CoreState::kBlocked);
      occ_ = Occupant::kNone;
      cur_thread_ = nullptr;
      kick();
      return;
    }
    case SuspendReason::kServiceDone: {
      record_occupancy();
      set_core_state(CoreState::kIdle);
      occ_ = Occupant::kNone;
      service_idle_mode_ = false;
      kick();
      return;
    }
    case SuspendReason::kServicePark: {
      record_occupancy();
      set_core_state(CoreState::kIdle);
      occ_ = Occupant::kNone;
      service_idle_mode_ = false;
      if (work_seq_ == service_round_seq_) {
        idle_park_ = true;  // nothing new arrived during the failed round
      }
      if (ready_count_ > 0 || !tasklets_.empty() || !idle_park_) kick();
      return;
    }
    case SuspendReason::kNone:
      PM2_UNREACHABLE("occupant suspended without a reason");
  }
}

void Cpu::finish_thread(Thread& t) {
  t.state_ = ThreadState::kFinished;
  while (Thread* j = t.joiners_.pop_front()) node_.wake(*j);
}

tracing::Recorder* Cpu::timeline() const noexcept {
  return cfg_.timeline ? node_.recorder() : nullptr;
}

void Cpu::record_occupancy() {
  tracing::Recorder* rec = timeline();
  const SimTime now = engine_.now();
  if (rec == nullptr || now == slice_start_) return;
  rec->record_core({.begin = slice_start_,
                    .end = now,
                    .label = occ_label_,
                    .cpu = static_cast<std::uint16_t>(index_)});
}

// ---------------------------------------------------------------- timing

void Cpu::arm_tick() {
  if (tick_event_ != sim::kInvalidEventId || cfg_.timer_tick == 0) return;
  SimDuration period = cfg_.timer_tick;
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    period = fz->perturb_tick(period);  // fuzz the tick phase
  }
  tick_event_ = engine_.schedule_after(period, [this] {
    tick_event_ = sim::kInvalidEventId;
    on_tick();
  });
}

void Cpu::on_tick() {
  if (occ_ == Occupant::kNone) return;  // halted: stop ticking
  node_.run_tick_hooks(*this);
  if (occ_ == Occupant::kThread &&
      engine_.now() - slice_start_ >= cfg_.quantum && ready_count_ > 0) {
    need_resched_ = true;
  }
  // Softirq semantics: pending tasklets run at the timer interrupt even on
  // a busy core — cut the current compute chunk so the service fiber gets
  // in (tasklets have "very high priority", §3.1).
  if (!tasklets_.empty()) request_resched(true);
  arm_tick();
}

// ---------------------------------------------------------------- fiber side

SimDuration Cpu::compute_chunk(SimDuration d) {
  PM2_ASSERT_MSG(t_cpu == this, "compute from a fiber not on this CPU");
  PM2_ASSERT(busy());
  if (d == 0) return 0;
  if (need_resched_ && occ_ == Occupant::kThread && preempt_off_ == 0) {
    suspend_current(SuspendReason::kPreempted);
    return d;  // caller refetches the (possibly new) CPU and continues
  }
  SimDuration chunk = std::min<SimDuration>(d, cfg_.quantum);
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    chunk = fz->perturb_chunk(chunk);  // extra preemption points
  }
  chunk_start_ = engine_.now();
  resume_event_ = engine_.schedule_after(chunk, [this] { run_occupant(); });
  suspend_current(SuspendReason::kCompute);
  // Resumed — possibly early if a hard preemption cut the chunk short.
  const SimDuration elapsed =
      std::min<SimDuration>(engine_.now() - chunk_start_, chunk);
  charge(elapsed);
  return d - std::min(d, elapsed);
}

PollResume Cpu::quiesce(const PollCycle& cycle) {
  PM2_ASSERT_MSG(t_cpu == this, "quiesce from a fiber not on this CPU");
  PM2_ASSERT(busy() && poll_park_.state == PollPark::State::kNone);
  PM2_ASSERT(cycle.rounds != nullptr && (cycle.burns == 0 || cycle.burn > 0));
  const SimTime now = engine_.now();
  sim::ScheduleFuzzer* fz = engine_.fuzzer();
  const bool preempt_due =
      need_resched_ && occ_ == Occupant::kThread && preempt_off_ == 0;
  if (cycle.gap == 0 || cycle.gap > cfg_.quantum ||
      cycle.burn > cfg_.quantum || preempt_due ||
      cycle.deadline <= now + cycle.gap ||
      cfg_.timeline ||
      (fz != nullptr && fz->refuse_park())) {
    this_thread::compute(cycle.gap);
    return {cycle.burns, 0};
  }
  PollPark& p = poll_park_;
  p.cycle = cycle;
  p.phase = cycle.burns;
  p.gap_state = state_;
  p.state = PollPark::State::kParked;
  // Scheduled before the park, the alarm orders ahead of any chunk
  // boundary at the deadline, as the deadline check at a round start
  // does against stepping's boundaries.
  if (cycle.deadline != kSimTimeNever) {
    p.alarm = engine_.schedule_at(cycle.deadline, [this] {
      poll_park_.alarm = sim::kInvalidEventId;
      wake_poller();
    });
  }
  chunk_start_ = now;
  engine_.park(p, now + cycle.gap);
  suspend_current(SuspendReason::kCompute);
  // Resumed at the pending boundary, or early by a hard resched.
  p.state = PollPark::State::kNone;
  const SimDuration len = p.chunk(p.phase);
  const SimDuration elapsed =
      std::min<SimDuration>(engine_.now() - chunk_start_, len);
  charge(elapsed);
  return {p.phase, len - elapsed};
}

void Cpu::wake_poller(const void* tag) {
  ++poll_wakes_;
  PollPark& p = poll_park_;
  if (p.state != PollPark::State::kParked) return;
  if (tag != nullptr && p.cycle.tag != tag) return;
  p.state = PollPark::State::kWoken;
  if (p.alarm != sim::kInvalidEventId) {
    engine_.cancel(p.alarm);
    p.alarm = sim::kInvalidEventId;
  }
  chunk_start_ = p.next() - p.chunk(p.phase);
  resume_event_ = engine_.unpark(p, [this] { run_occupant(); });
}

bool Cpu::quiescent_in_round(const void* owner) const noexcept {
  const PollPark& p = poll_park_;
  return p.state != PollPark::State::kNone && p.cycle.owner == owner &&
         p.phase < p.cycle.burns;
}

std::uint64_t Cpu::PollPark::skip(SimTime bound) {
  // One pass per chunk boundary, as stepping runs them, except that whole
  // rounds after a round start are credited at once.
  const bool split = gap_state != CoreState::kEngine;
  const SimDuration period = cycle.burns * cycle.burn + cycle.gap;
  std::uint64_t n = 0;
  do {
    const SimTime t = next_;  // the boundary closing chunk `phase`
    cpu_.charge(chunk(phase));
    ++n;
    const bool round_start = phase == cycle.burns;
    if (round_start) {
      ++*cycle.rounds;
      // What service_body does between rounds; skip() runs in the event
      // order stepping would, so work_seq_ is the value it would read.
      if (cpu_.occ_ == Occupant::kService) {
        cpu_.need_resched_ = false;
        cpu_.service_round_seq_ = cpu_.work_seq_;
      }
      if (split) cpu_.set_core_state_at(CoreState::kEngine, t);
      phase = 0;
    } else {
      ++phase;
    }
    if (split && phase == cycle.burns) cpu_.set_core_state_at(gap_state, t);
    if (round_start && bound > t + period) {
      // k more rounds start before `bound`; each adds one boundary per
      // chunk, a period of busy time and its engine/gap split, and leaves
      // the core in the state it is in now.
      const std::uint64_t k = (bound - 1 - t) / period;
      n += k * (cycle.burns + 1);
      cpu_.charge(k * period);
      *cycle.rounds += k;
      if (split) {
        cpu_.state_ns_[static_cast<std::size_t>(CoreState::kEngine)] +=
            k * cycle.burns * cycle.burn;
        cpu_.state_ns_[static_cast<std::size_t>(gap_state)] += k * cycle.gap;
        cpu_.state_since_ += k * period;
      }
      next_ = t + k * period;
    }
    next_ += chunk(phase);
  } while (next_ < bound);
  return n;
}

void Cpu::yield_current() {
  PM2_ASSERT(t_cpu == this && occ_ == Occupant::kThread);
  suspend_current(SuspendReason::kYield);
}

void Cpu::block_current() {
  PM2_ASSERT(t_cpu == this && occ_ == Occupant::kThread);
  cur_thread_->state_ = ThreadState::kBlocked;
  suspend_current(SuspendReason::kBlocked);
}

void Cpu::suspend_current(SuspendReason r) {
  if (lockdep::enabled()) {
    lockdep::note_suspension(r == SuspendReason::kBlocked);
  }
  last_suspend_ = r;
  sim::Fiber::suspend();
}

void Cpu::charge(SimDuration d) {
  if (occ_ == Occupant::kThread) {
    stats_.thread_busy_ns += d;
    cur_thread_->cpu_time_ += d;
  } else {
    stats_.service_busy_ns += d;
  }
}

void Cpu::preempt_enable() noexcept {
  PM2_ASSERT_MSG(preempt_off_ > 0, "unbalanced preempt_enable");
  --preempt_off_;
}

void Cpu::engine_scope_enter() noexcept {
  if (occ_ != Occupant::kThread) return;
  if (cur_thread_->engine_scope_++ == 0) set_core_state(CoreState::kEngine);
}

void Cpu::engine_scope_exit() noexcept {
  if (occ_ != Occupant::kThread) return;
  PM2_ASSERT_MSG(cur_thread_->engine_scope_ > 0, "unbalanced EngineScope");
  if (--cur_thread_->engine_scope_ == 0) set_core_state(CoreState::kApp);
}

// ------------------------------------------------------------- core states

void Cpu::set_core_state(CoreState s) {
  if (s == state_) return;
  const SimTime now = engine_.now();
  state_ns_[static_cast<std::size_t>(state_)] += now - state_since_;
  if (tracing::Recorder* rec = timeline();
      rec != nullptr && now > state_since_) {
    rec->record_core({.begin = state_since_,
                      .end = now,
                      .label = rec->label(core_state_name(state_)),
                      .cpu = static_cast<std::uint16_t>(index_),
                      .state = true});
  }
  state_ = s;
  state_since_ = now;
}

void Cpu::set_core_state_at(CoreState s, SimTime at) {
  state_ns_[static_cast<std::size_t>(state_)] += at - state_since_;
  state_ = s;
  state_since_ = at;
}

void Cpu::flush_core_state() {
  const SimTime now = engine_.now();
  state_ns_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
}

// ---------------------------------------------------------------- service

void Cpu::service_body() {
  // NB: the service fiber is pinned to this CPU forever.
  for (;;) {
    need_resched_ = false;
    // 1. Tasklets — highest priority work (§3.1 of the paper).
    if (!tasklets_.empty()) set_core_state(CoreState::kTasklet);
    while (Tasklet* t = tasklets_.pop_front()) {
      run_one_tasklet(*t);
      if (ready_count_ > 0) break;  // a thread woke: stop hogging the core
    }
    if (!tasklets_.empty() || ready_count_ > 0 || !service_idle_mode_) {
      suspend_current(SuspendReason::kServiceDone);
      continue;
    }
    // 2. Idle polling round (PIOMan hooks).
    set_core_state(CoreState::kEngine);
    service_round_seq_ = work_seq_;
    const bool progress = node_.run_idle_hooks(*this);
    if (progress) {
      // Hooks consumed virtual time; loop for another round unless real
      // work appeared meanwhile.
      if (ready_count_ > 0 || !tasklets_.empty()) {
        suspend_current(SuspendReason::kServiceDone);
      }
      continue;
    }
    suspend_current(SuspendReason::kServicePark);
  }
}

void Cpu::run_one_tasklet(Tasklet& t) {
  t.scheduled_ = false;
  t.running_ = true;
  ++t.runs_;
  ++stats_.tasklets_run;
  lockdep::tasklet_enter(&t, t.name().c_str());
  if (cfg_.tasklet_dispatch_cost > 0) {
    SimDuration left = cfg_.tasklet_dispatch_cost;
    while (left > 0) left = compute_chunk(left);
  }
  t.fn_();
  lockdep::tasklet_exit(&t);
  t.running_ = false;
  if (t.resched_target_ != nullptr) {
    Cpu* target = t.resched_target_;
    t.resched_target_ = nullptr;
    t.schedule_on(*target);
  }
}

void Cpu::bind_metrics(MetricsRegistry& registry,
                       std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/thread_busy_ns", &stats_.thread_busy_ns);
  registry.bind_counter(p + "/service_busy_ns", &stats_.service_busy_ns);
  registry.bind_counter(p + "/tasklets_run", &stats_.tasklets_run);
  registry.bind_counter(p + "/ctx_switches", &stats_.ctx_switches);
  registry.bind_counter(p + "/steals", &stats_.steals);
  registry.bind_counter(p + "/dispatches", &stats_.dispatches);
  for (std::size_t i = 0; i < kNumCoreStates; ++i) {
    registry.bind_counter(
        p + "/state/" + core_state_name(static_cast<CoreState>(i)) + "_ns",
        &state_ns_[i]);
  }
}

}  // namespace pm2::marcel
