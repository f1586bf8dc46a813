// Tunables of the simulated machine and of the Marcel scheduler.
#pragma once

#include <cstddef>

#include "common/simtime.hpp"

namespace pm2::marcel {

struct Config {
  /// Machine topology.
  unsigned nodes = 2;
  unsigned cpus_per_node = 8;

  /// Preemption quantum: a thread computing longer than this becomes
  /// preemptible at its next chunk boundary.
  SimDuration quantum = 100 * kUs;

  /// Period of the per-CPU timer tick (one of PIOMan's trigger points).
  SimDuration timer_tick = 100 * kUs;

  /// Cost charged on every context switch (thread <-> thread/service).
  SimDuration ctx_switch_cost = 250;  // ns

  /// Latency for waking a halted CPU (IPI + exit from idle).
  SimDuration wakeup_cost = 500;  // ns

  /// Fixed cost of dispatching one tasklet (queue manipulation etc.),
  /// charged before the tasklet body runs.
  SimDuration tasklet_dispatch_cost = 150;  // ns

  /// Host stack size for each simulated thread.
  std::size_t stack_bytes = 256 * 1024;

  /// Enable idle CPUs stealing ready threads from busy siblings.
  bool work_stealing = true;

  /// Record every core's timeline (one slice per occupancy period and per
  /// core-state period) into its node's recorder (Node::set_tracing): the
  /// core tracks of the Chrome timeline (pm2/tracing/timeline.hpp).
  /// Pollers then never park (Cpu::quiesce), so a timeline run steps
  /// every poll round and is the stepping reference for quiescent
  /// polling.  PM2_TRACE turns it on in pm2::Cluster.
  bool timeline = false;
};

}  // namespace pm2::marcel
