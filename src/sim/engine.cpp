#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::sim {
namespace {

constexpr std::size_t kArity = 4;

}  // namespace

EventId Engine::schedule_at(SimTime t, Callback cb) {
  PM2_ASSERT_MSG(t >= now_, "scheduling into the past");
  PM2_ASSERT(cb != nullptr);
  if (fuzzer_ != nullptr) t = fuzzer_->perturb_event_time(t);
  PM2_ASSERT(next_seq_ < (EventId{1} << (64 - kSlotBits)));
  return push_event(t, next_seq_++, std::move(cb));
}

EventId Engine::push_event(SimTime t, std::uint64_t seq, Callback cb) {
  std::size_t slot = slots_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PM2_ASSERT_MSG(slot <= kSlotMask, "too many pending events");
    slots_.emplace_back();
  }
  const EventId id = (seq << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  heap_push(Key{t, id});
  ++live_;
  return id;
}

void Engine::park(Sleeper& s, SimTime first) {
  PM2_ASSERT_MSG(first >= now_, "parking into the past");
  PM2_ASSERT(!s.parked_);
  PM2_ASSERT(next_seq_ < (EventId{1} << (64 - kSlotBits)));
  s.next_ = first;
  s.seq_ = next_seq_++;
  s.parked_ = true;
  sleepers_.insert(std::ranges::upper_bound(sleepers_, key_of(s), before,
                                            [](const Sleeper* p) {
                                              return key_of(*p);
                                            }),
                   &s);
  ++live_;
}

void Engine::remove_sleeper(Sleeper& s) {
  PM2_ASSERT(s.parked_);
  s.parked_ = false;
  std::erase(sleepers_, &s);
  --live_;
}

EventId Engine::unpark(Sleeper& s, Callback cb) {
  PM2_ASSERT(cb != nullptr);
  remove_sleeper(s);
  return push_event(s.next_, s.seq_, std::move(cb));
}

void Engine::drop(Sleeper& s) {
  if (s.parked_) remove_sleeper(s);
}

void Engine::skip_sleepers(Key limit) {
  // sleepers_ is sorted by key: the front chain's pending event runs next
  // unless `limit` comes first, and the runner-up bounds how far it goes.
  while (!sleepers_.empty() && before(key_of(*sleepers_[0]), limit)) {
    Sleeper& first = *sleepers_[0];
    Key bound = limit;
    if (sleepers_.size() > 1 && before(key_of(*sleepers_[1]), bound)) {
      bound = key_of(*sleepers_[1]);
    }
    // Each successor takes a sequence number above every one already
    // handed out, so it runs before `bound` only at an earlier time (or,
    // for the run_until() bound that orders after everything at its time,
    // at that time too).
    const SimTime until = bound.id == kAfterAll ? bound.time + 1 : bound.time;
    const std::uint64_t n = first.skip(until);
    PM2_ASSERT(n >= 1);
    skipped_ += n;
    next_seq_ += n - 1;
    first.seq_ = next_seq_++;
    PM2_ASSERT(next_seq_ < (EventId{1} << (64 - kSlotBits)));
    // Back into key order: the front moves past every earlier key.
    for (std::size_t i = 1;
         i < sleepers_.size() && before(key_of(*sleepers_[i]), key_of(first));
         ++i) {
      std::swap(sleepers_[i - 1], sleepers_[i]);
    }
  }
}

bool Engine::cancel(EventId id) {
  // The slot check is the whole ownership test: a stale id names a slot
  // that is free or holds a later event.  The heap key is left in place
  // and skipped when it surfaces.
  const std::size_t slot = id & kSlotMask;
  if (id == kInvalidEventId || slot >= slots_.size() ||
      slots_[slot].id != id) {
    return false;
  }
  // Destroy the callback only once the slot is free again, in case its
  // captures re-enter the engine.
  const Callback dropped = std::move(slots_[slot].cb);
  free_slot(slot);
  return true;
}

void Engine::free_slot(std::size_t slot) {
  slots_[slot].id = kInvalidEventId;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

const Engine::Key* Engine::top_live() {
  while (!heap_.empty()) {
    const Key& top = heap_.front();
    if (slots_[top.id & kSlotMask].id == top.id) return &top;
    heap_pop();
  }
  return nullptr;
}

bool Engine::step() {
  const Key* top = top_live();
  if (top == nullptr) return false;
  if (!sleepers_.empty() && before(key_of(*sleepers_[0]), *top)) {
    skip_sleepers(*top);  // leaves the heap alone
  }
  PM2_ASSERT(top->time >= now_);
  now_ = top->time;
  const std::size_t slot = top->id & kSlotMask;
  heap_pop();
  const Callback cb = std::move(slots_[slot].cb);
  free_slot(slot);
  ++processed_;
  cb();
  return true;
}

void Engine::heap_push(Key key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    const Key& p = heap_[parent];
    if (!before(key, p)) break;
    heap_[i] = p;
    i = parent;
  }
  heap_[i] = key;
}

void Engine::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    // Stale keys are dropped before the time check: a cancelled entry at
    // or before `t` must not let a later live event through.
    const Key* top = top_live();
    if (top == nullptr || top->time > t) break;
    step();
  }
  if (!stopped_) {
    if (!sleepers_.empty()) skip_sleepers(Key{t, kAfterAll});
    if (now_ < t) now_ = t;
  }
  return !stopped_;
}

}  // namespace pm2::sim
