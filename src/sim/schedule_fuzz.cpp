#include "sim/schedule_fuzz.hpp"

#include <cinttypes>
#include <cstdio>

namespace pm2::sim {
namespace {

ScheduleFuzzer* g_active = nullptr;

// Bound the retained decision trace: soak runs make millions of decisions
// and only the tail near the failure matters.
constexpr std::size_t kTraceCapacity = 4096;

// Share of quiescent-poller parks refused: half, so a soak runs the parked
// path, the stepping path and the wakes between them about equally.
constexpr std::uint32_t kParkRefusePct = 50;
// Offsets the park stream's seed from the perturbation stream's.
constexpr std::uint64_t kParkStream = 0x6a09e667f3bcc909ull;

}  // namespace

ScheduleFuzzer* active_fuzzer() noexcept { return g_active; }
void set_active_fuzzer(ScheduleFuzzer* fuzzer) noexcept { g_active = fuzzer; }

ScheduleFuzzer::ScheduleFuzzer(std::uint64_t seed)
    : ScheduleFuzzer(seed, Options{}) {}

ScheduleFuzzer::ScheduleFuzzer(std::uint64_t seed, Options opt)
    : seed_(seed), opt_(opt), rng_(seed), park_rng_(seed ^ kParkStream) {}

bool ScheduleFuzzer::roll(std::uint32_t pct) {
  if (pct == 0) return false;
  if (pct >= 100) return true;
  return rng_.next_below(100) < pct;
}

void ScheduleFuzzer::record(const char* site, std::uint64_t in,
                            std::uint64_t out) {
  ++decisions_;
  if (trace_.size() == kTraceCapacity) trace_.pop_front();
  trace_.push_back({site, in, out});
}

SimDuration ScheduleFuzzer::perturb_chunk(SimDuration chunk) {
  if (chunk <= 1 || !roll(opt_.chunk_cut_pct)) return chunk;
  // Cut anywhere in [1, chunk): a preemption point lands mid-chunk.
  const auto cut = static_cast<SimDuration>(
      1 + rng_.next_below(static_cast<std::uint64_t>(chunk - 1)));
  record("chunk", static_cast<std::uint64_t>(chunk),
         static_cast<std::uint64_t>(cut));
  return cut;
}

SimDuration ScheduleFuzzer::perturb_tick(SimDuration period) {
  if (opt_.max_tick_jitter == 0 || !roll(opt_.tick_jitter_pct)) return period;
  const auto out = period + static_cast<SimDuration>(rng_.next_below(
                       static_cast<std::uint64_t>(opt_.max_tick_jitter) + 1));
  record("tick", static_cast<std::uint64_t>(period),
         static_cast<std::uint64_t>(out));
  return out;
}

SimDuration ScheduleFuzzer::perturb_delay(SimDuration delay) {
  if (opt_.max_delay_jitter == 0 || !roll(opt_.delay_jitter_pct)) return delay;
  const auto out = delay + static_cast<SimDuration>(rng_.next_below(
                       static_cast<std::uint64_t>(opt_.max_delay_jitter) + 1));
  record("delay", static_cast<std::uint64_t>(delay),
         static_cast<std::uint64_t>(out));
  return out;
}

SimTime ScheduleFuzzer::perturb_event_time(SimTime t) {
  if (opt_.max_event_jitter == 0 || !roll(opt_.event_jitter_pct)) return t;
  const auto out = t + static_cast<SimTime>(rng_.next_below(
                       static_cast<std::uint64_t>(opt_.max_event_jitter) + 1));
  record("event", static_cast<std::uint64_t>(t),
         static_cast<std::uint64_t>(out));
  return out;
}

bool ScheduleFuzzer::churn_idle(SimDuration* delay_out) {
  if (opt_.max_churn_delay == 0 || !roll(opt_.idle_churn_pct)) return false;
  *delay_out = static_cast<SimDuration>(
      1 + rng_.next_below(static_cast<std::uint64_t>(opt_.max_churn_delay)));
  record("churn", 0, static_cast<std::uint64_t>(*delay_out));
  return true;
}

bool ScheduleFuzzer::refuse_park() {
  if (park_rng_.next_below(100) >= kParkRefusePct) return false;
  record("park", 0, 1);
  return true;
}

SimDuration ScheduleFuzzer::interleave_delay(const char* site) {
  if (opt_.max_interleave == 0 || !roll(opt_.interleave_pct)) return 0;
  const auto d = static_cast<SimDuration>(
      1 + rng_.next_below(static_cast<std::uint64_t>(opt_.max_interleave)));
  record(site, 0, static_cast<std::uint64_t>(d));
  return d;
}

std::string ScheduleFuzzer::format_trace(std::size_t max_entries) const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof line,
                "schedule-fuzz seed=%" PRIu64 " decisions=%" PRIu64
                " (replay: rerun with this seed)\n",
                seed_, decisions_);
  out += line;
  const std::size_t n = trace_.size();
  const std::size_t first = n > max_entries ? n - max_entries : 0;
  if (first > 0) {
    std::snprintf(line, sizeof line, "  ... %zu earlier decisions elided\n",
                  first);
    out += line;
  }
  for (std::size_t i = first; i < n; ++i) {
    const Decision& d = trace_[i];
    std::snprintf(line, sizeof line, "  [%zu] %s: %" PRIu64 " -> %" PRIu64 "\n",
                  i, d.site, d.in, d.out);
    out += line;
  }
  return out;
}

namespace fuzz {

void interleave_point(const char* site) {
  ScheduleFuzzer* f = g_active;
  if (f == nullptr) return;
  const SimDuration d = f->interleave_delay(site);
  if (d == 0) return;
  const ScheduleFuzzer::SuspendFn& hook = f->suspend_hook();
  if (hook) hook(d);
}

}  // namespace fuzz

}  // namespace pm2::sim
