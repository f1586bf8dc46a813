// Indirection layer between the base locking primitives and their two
// observers: the lockdep runtime checker (src/marcel/lockdep.*) and the
// lock-contention profiler (src/marcel/lock_profile.*).
//
// pm2::Spinlock lives at the bottom of the dependency graph and is header
// only; both observers live higher up (they need fiber/thread context).  To
// wire them without inverting the layering, the primitives call through
// per-observer function-pointer tables installed into fixed slots.
// Disabled cost: one relaxed atomic pointer load per observer per event.
//
// Event protocol, from the primitive's point of view:
//   * contended(lock, cls) — the fast acquisition path failed; the caller
//     is about to spin or block.  At most once per acquisition.
//   * acquired(lock, cls, contended) — the lock is now held; `contended`
//     repeats whether a contended() event preceded it.
//   * released(lock) — the lock was released.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pm2::lockdep_hook {

struct Vtbl {
  void (*contended)(const void* lock, const char* lock_class);
  void (*acquired)(const void* lock, const char* lock_class, bool contended);
  void (*released)(const void* lock);
};

enum class Slot : std::size_t { kChecker = 0, kProfiler = 1 };
inline constexpr std::size_t kSlots = 2;

/// The active hook tables; a null entry means that observer is disabled.
extern std::atomic<const Vtbl*> g_slots[kSlots];

/// Install (or, with nullptr, remove) the observer in `slot`.
void set_hook(Slot slot, const Vtbl* vtbl) noexcept;

inline void contended(const void* lock, const char* lock_class) noexcept {
  for (auto& s : g_slots) {
    if (const Vtbl* v = s.load(std::memory_order_acquire); v != nullptr) {
      v->contended(lock, lock_class);
    }
  }
}

/// Lock acquisitions reported on this host thread.  A poller compares it
/// across a round to tell whether the round took a lock.
inline thread_local std::uint64_t t_acquisitions = 0;
[[nodiscard]] inline std::uint64_t acquisitions() noexcept {
  return t_acquisitions;
}

inline void acquired(const void* lock, const char* lock_class,
                     bool was_contended = false) noexcept {
  ++t_acquisitions;
  for (auto& s : g_slots) {
    if (const Vtbl* v = s.load(std::memory_order_acquire); v != nullptr) {
      v->acquired(lock, lock_class, was_contended);
    }
  }
}

inline void released(const void* lock) noexcept {
  for (auto& s : g_slots) {
    if (const Vtbl* v = s.load(std::memory_order_acquire); v != nullptr) {
      v->released(lock);
    }
  }
}

}  // namespace pm2::lockdep_hook
