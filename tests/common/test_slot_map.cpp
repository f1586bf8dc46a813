// SlotMap: id-indexed registry with O(1) insert/erase and slot reuse —
// the registry behind marcel::Node hooks.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/slot_map.hpp"

namespace pm2 {
namespace {

TEST(SlotMap, InsertAssignsDistinctPositiveIds) {
  SlotMap<int> m;
  const int a = m.insert(10);
  const int b = m.insert(20);
  const int c = m.insert(30);
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  EXPECT_GT(c, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(a));
  EXPECT_TRUE(m.contains(b));
  EXPECT_TRUE(m.contains(c));
}

TEST(SlotMap, EraseRemovesOnlyTheNamedEntry) {
  SlotMap<int> m;
  const int a = m.insert(1);
  const int b = m.insert(2);
  m.erase(a);
  EXPECT_FALSE(m.contains(a));
  EXPECT_TRUE(m.contains(b));
  EXPECT_EQ(m.size(), 1u);
}

TEST(SlotMap, StaleIdIsIgnored) {
  SlotMap<int> m;
  const int a = m.insert(1);
  m.erase(a);
  m.erase(a);  // double erase: no-op
  EXPECT_EQ(m.size(), 0u);
  const int b = m.insert(2);  // recycles a's slot with a new generation
  m.erase(a);                 // stale id must not remove the stranger
  EXPECT_TRUE(m.contains(b));
  EXPECT_FALSE(m.contains(a));
  EXPECT_EQ(m.size(), 1u);
  m.erase(0);   // never-issued ids are ignored too
  m.erase(-1);
  EXPECT_EQ(m.size(), 1u);
}

TEST(SlotMap, ForEachVisitsLiveEntriesInSlotOrder) {
  SlotMap<int> m;
  const int a = m.insert(1);
  m.insert(2);
  m.insert(3);
  m.erase(a);
  const int d = m.insert(4);  // reuses slot 0
  (void)d;
  std::vector<int> seen;
  m.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{4, 2, 3}));
  EXPECT_TRUE(m.any_of([](int v) { return v == 3; }));
  EXPECT_FALSE(m.any_of([](int v) { return v == 99; }));
}

TEST(SlotMap, ChurnReusesSlotsInsteadOfGrowing) {
  // The regression the SlotMap exists for: a register/unregister churn of
  // 1000 entries must neither scan (O(1) erase) nor grow the table — the
  // old erase-by-linear-scan registry made this quadratic, and a
  // monotonically growing id table would leak slots.
  SlotMap<int> m;
  std::set<int> issued;
  for (int i = 0; i < 1000; ++i) {
    const int id = m.insert(i);
    EXPECT_TRUE(issued.insert(id).second) << "live ids must be unique";
    if (i % 3 == 0) {
      m.erase(id);
      issued.erase(id);
    }
    EXPECT_LE(m.slot_count(), 1000u);
  }
  for (const int id : issued) m.erase(id);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.slot_count(), 0u) << "freed tail must be trimmed";

  // Steady-state churn at a small live population: the table stays at the
  // high-water mark of the *live* count, not of the ids ever issued.
  std::vector<int> live;
  for (int i = 0; i < 4; ++i) live.push_back(m.insert(i));
  for (int i = 0; i < 1000; ++i) {
    m.erase(live[static_cast<std::size_t>(i) % live.size()]);
    live[static_cast<std::size_t>(i) % live.size()] = m.insert(i);
    EXPECT_LE(m.slot_count(), 5u);
  }
}

TEST(SlotMap, TailTrimKeepsFreelistConsistent) {
  SlotMap<int> m;
  const int a = m.insert(1);
  const int b = m.insert(2);
  const int c = m.insert(3);
  m.erase(b);              // hole in the middle: stays on the freelist
  EXPECT_EQ(m.slot_count(), 3u);
  m.erase(c);              // trims c's slot AND the freed b slot
  EXPECT_EQ(m.slot_count(), 1u);
  EXPECT_TRUE(m.contains(a));
  const int d = m.insert(4);
  const int e = m.insert(5);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(d));
  EXPECT_TRUE(m.contains(e));
  EXPECT_LE(m.slot_count(), 3u);
}

}  // namespace
}  // namespace pm2
