// Id-indexed slot registry with O(1) insert/erase and slot reuse.
//
// Registration-heavy subsystems (marcel::Node idle/tick/switch hooks) hand
// out integer ids and must support frequent unregistration: the old
// erase-by-linear-scan made a register/unregister churn of N hooks
// quadratic.  SlotMap stores entries in a dense vector of reusable slots;
// the public id encodes (slot, generation) so a stale erase of an already
// recycled id is detected and ignored instead of removing a stranger.
//
// Iteration visits live slots in slot order (deterministic — the simulator
// depends on stable hook ordering), skipping freed ones.  Freed slots at
// the tail are trimmed so long-lived registries do not accumulate an
// unbounded high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace pm2 {

template <typename T>
class SlotMap {
 public:
  /// Insert `value`; returns a positive id valid until erase(id).
  int insert(T value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      PM2_ASSERT_MSG(slot < kMaxSlots, "SlotMap slot space exhausted");
      slots_.emplace_back();
      // Fresh slots start at the highest generation ever trimmed away, so
      // a slot recreated after a tail trim cannot reissue an old id (a
      // stale erase of that id would then remove the new tenant).
      slots_.back().generation = fresh_gen_;
    }
    Slot& s = slots_[slot];
    s.value = std::move(value);
    s.live = true;
    ++size_;
    return make_id(slot, s.generation);
  }

  /// Erase by id.  O(1).  A stale id (already erased, or recycled into a
  /// newer registration) is ignored — matching the old erase_if behaviour
  /// where a missing id removed nothing.
  void erase(int id) {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (!s.live || make_id(slot, s.generation) != id) return;
    s.value = T{};
    s.live = false;
    s.generation = (s.generation + 1) & kGenMask;
    --size_;
    // Trim the freed tail so churny registries stay dense.  Slots freed in
    // the middle remain on the freelist for reuse.
    while (!slots_.empty() && !slots_.back().live) {
      const auto tail = static_cast<std::uint32_t>(slots_.size() - 1);
      if (slots_.back().generation > fresh_gen_) {
        fresh_gen_ = slots_.back().generation;
      }
      std::erase(free_, tail);
      slots_.pop_back();
    }
    if (slot < slots_.size()) free_.push_back(slot);
  }

  /// True when `id` still names a live entry.
  [[nodiscard]] bool contains(int id) const noexcept {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live &&
           make_id(slot, slots_[slot].generation) == id;
  }

  /// Live entries.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Occupied slot vector length (live + reusable holes) — the quantity a
  /// regression test bounds to prove slot reuse works.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

  /// Visit every live entry in slot order.  `fn` must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.live) fn(s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.live) fn(s.value);
    }
  }

  /// True if `pred` holds for any live entry; stops at the first hit.
  template <typename Pred>
  [[nodiscard]] bool any_of(Pred&& pred) const {
    for (const Slot& s : slots_) {
      if (s.live && pred(s.value)) return true;
    }
    return false;
  }

 private:
  // id layout: bit 30..16 generation, bit 15..0 slot+1 (ids stay > 0 and
  // fit a positive int, preserving the existing `int id` signatures).
  static constexpr std::uint32_t kMaxSlots = 0xFFFF;
  static constexpr std::uint32_t kGenMask = 0x7FFF;

  struct Slot {
    T value{};
    std::uint32_t generation = 0;
    bool live = false;
  };

  static int make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return static_cast<int>(((gen & kGenMask) << 16) | (slot + 1));
  }
  static std::uint32_t slot_of(int id) noexcept {
    const auto low = static_cast<std::uint32_t>(id) & 0xFFFFu;
    return low == 0 ? kMaxSlots : low - 1;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  std::uint32_t fresh_gen_ = 0;  // floor for slots recreated after a trim
};

}  // namespace pm2
