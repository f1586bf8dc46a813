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
  std::size_t slot = slots_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PM2_ASSERT_MSG(slot <= kSlotMask, "too many pending events");
    slots_.emplace_back();
  }
  PM2_ASSERT(next_seq_ < (EventId{1} << (64 - kSlotBits)));
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  heap_push(Key{t, id});
  ++live_;
  return id;
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
  if (!stopped_ && now_ < t) now_ = t;
  return !stopped_;
}

}  // namespace pm2::sim
