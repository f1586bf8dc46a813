#include "netsim/faults.hpp"

#include <algorithm>
#include <string>

#include "common/metrics.hpp"

namespace pm2::net {

LinkFaults FaultInjector::effective(unsigned src, unsigned dst,
                                    SimTime now) const {
  LinkFaults lf = plan_.defaults;
  if (const auto it = plan_.links.find({src, dst});
      it != plan_.links.end()) {
    lf = it->second;
  }
  for (const auto& w : plan_.windows) {
    if (now < w.from || now >= w.until) continue;
    if (w.src >= 0 && static_cast<unsigned>(w.src) != src) continue;
    if (w.dst >= 0 && static_cast<unsigned>(w.dst) != dst) continue;
    lf.drop = std::max(lf.drop, w.faults.drop);
    lf.duplicate = std::max(lf.duplicate, w.faults.duplicate);
    lf.reorder = std::max(lf.reorder, w.faults.reorder);
    lf.corrupt = std::max(lf.corrupt, w.faults.corrupt);
    lf.reorder_delay_max =
        std::max(lf.reorder_delay_max, w.faults.reorder_delay_max);
  }
  return lf;
}

FaultAction FaultInjector::decide(unsigned src, unsigned dst,
                                  unsigned /*rail*/, SimTime now,
                                  std::size_t bytes) {
  ++stats_.considered;
  const LinkFaults lf = effective(src, dst, now);
  // A fixed draw count per packet keeps schedules aligned: toggling one
  // fault kind does not shift the variates another kind consumes.
  const double r_drop = rng_.next_double();
  const double r_dup = rng_.next_double();
  const double r_reorder = rng_.next_double();
  const double r_corrupt = rng_.next_double();

  FaultAction act;
  if (r_drop < lf.drop) {
    act.drop = true;
    ++stats_.dropped;
    return act;
  }
  if (r_dup < lf.duplicate) {
    act.extra_copies = 1;
    ++stats_.duplicated;
  }
  if (r_reorder < lf.reorder && lf.reorder_delay_max > 0) {
    act.extra_delay =
        1 + static_cast<SimDuration>(rng_.next_below(
                static_cast<std::uint64_t>(lf.reorder_delay_max)));
    ++stats_.reordered;
  }
  if (r_corrupt < lf.corrupt && bytes > 0) {
    act.corrupt = true;
    act.corrupt_bit = rng_.next_below(bytes * 8);
    ++stats_.corrupted;
  }
  return act;
}

void FaultInjector::bind_metrics(MetricsRegistry& registry,
                                 std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/considered", &stats_.considered);
  registry.bind_counter(p + "/dropped", &stats_.dropped);
  registry.bind_counter(p + "/duplicated", &stats_.duplicated);
  registry.bind_counter(p + "/reordered", &stats_.reordered);
  registry.bind_counter(p + "/corrupted", &stats_.corrupted);
}

}  // namespace pm2::net
