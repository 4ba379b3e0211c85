#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include "mem/address_space.hpp"

namespace saisim::mem {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512 B.
  return CacheConfig{.capacity_bytes = 512, .line_bytes = 64, .ways = 2};
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  const LineAddr line = c.line_of(0x1000);
  EXPECT_FALSE(c.probe(line));
  EXPECT_FALSE(c.insert(line, false).has_value());
  EXPECT_TRUE(c.probe(line));
  EXPECT_EQ(c.resident_lines(), 1u);
}

TEST(Cache, LineOfStripsOffsetBits) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.line_of(0), c.line_of(63));
  EXPECT_NE(c.line_of(63), c.line_of(64));
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(tiny_cache());
  // Three lines mapping to the same set (4 sets => stride 4 lines).
  const LineAddr a = 0, b = 4, d = 8;
  c.insert(a, false);
  c.insert(b, false);
  EXPECT_TRUE(c.probe(a));  // a is now MRU; b is LRU
  const auto ev = c.insert(d, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, b);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
}

TEST(Cache, EvictionReportsDirtiness) {
  Cache c(tiny_cache());
  c.insert(0, true);
  c.insert(4, false);
  const auto ev = c.insert(8, false);  // evicts LRU == line 0 (dirty)
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0u);
  EXPECT_TRUE(ev->dirty);
}

TEST(Cache, MarkDirtySticks) {
  Cache c(tiny_cache());
  c.insert(3, false);
  EXPECT_FALSE(c.is_dirty(3));
  c.mark_dirty(3);
  EXPECT_TRUE(c.is_dirty(3));
}

TEST(Cache, InvalidateRemovesAndReportsDirty) {
  Cache c(tiny_cache());
  c.insert(5, true);
  const auto inv = c.invalidate(5);
  EXPECT_TRUE(inv.was_present);
  EXPECT_TRUE(inv.was_dirty);
  EXPECT_FALSE(c.contains(5));
  EXPECT_EQ(c.resident_lines(), 0u);
  const auto inv2 = c.invalidate(5);
  EXPECT_FALSE(inv2.was_present);
}

TEST(Cache, DoubleInsertAborts) {
  Cache c(tiny_cache());
  c.insert(1, false);
  EXPECT_DEATH(c.insert(1, false), "double insert");
}

TEST(Cache, CapacityIsRespected) {
  Cache c(tiny_cache());
  for (LineAddr l = 0; l < 100; ++l) (void)c.insert(l, false);
  EXPECT_EQ(c.resident_lines(), tiny_cache().num_lines());
}

TEST(Cache, ConfigDerivedQuantities) {
  const CacheConfig paper{.capacity_bytes = 512ull << 10, .line_bytes = 64,
                          .ways = 16};
  EXPECT_EQ(paper.num_lines(), 8192u);
  EXPECT_EQ(paper.num_sets(), 512u);
}

TEST(Cache, ProbeRunConsumesLeadingHitsOnly) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  c.insert(0, false);
  c.insert(1, false);
  c.insert(2, false);
  // Lines 0..2 resident, line 3 absent: the run stops there.
  EXPECT_EQ(c.probe_run(0, 8, false), 3u);
  // From an absent line, the run is empty.
  EXPECT_EQ(c.probe_run(3, 4, false), 0u);
}

TEST(Cache, ProbeRunWrapsAroundTheSetArray) {
  Cache c(tiny_cache());  // 4 sets: lines 2,3,4,5 span the set wrap at 4.
  for (LineAddr line = 2; line <= 5; ++line) c.insert(line, false);
  EXPECT_EQ(c.probe_run(2, 4, false), 4u);
}

TEST(Cache, ProbeRunMarksDirtyOnHits) {
  Cache c(tiny_cache());
  c.insert(0, false);
  c.insert(1, false);
  EXPECT_FALSE(c.is_dirty(0));
  EXPECT_EQ(c.probe_run(0, 2, true), 2u);
  EXPECT_TRUE(c.is_dirty(0));
  EXPECT_TRUE(c.is_dirty(1));
}

TEST(Cache, ProbeRunReportsMissVictim) {
  Cache c(tiny_cache());  // 2 ways per set
  c.insert(0, false);     // set 0
  c.insert(4, true);      // set 0, both ways now full
  c.probe(4);             // make line 4 the more recent way
  EXPECT_EQ(c.probe_run(8, 1, false), 0u);  // set 0, absent
  // The LRU way is the victim, known before the fill.
  EXPECT_EQ(c.line_at(c.set_of(8), c.victim_way(c.set_of(8))), 0u);
  // Filling behaves exactly like insert() of the missing line.
  const Cache::Fill pending = c.fill(8, false);
  ASSERT_TRUE(pending.evicted.has_value());
  EXPECT_EQ(pending.evicted->line, 0u);  // LRU victim
  EXPECT_FALSE(pending.evicted->dirty);
  EXPECT_TRUE(c.contains(8));
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
}

TEST(Cache, ProbeRunVictimPrefersInvalidWay) {
  Cache c(tiny_cache());
  c.insert(0, false);  // set 0, one way still invalid
  EXPECT_EQ(c.probe_run(4, 1, false), 0u);
  EXPECT_FALSE(c.valid(c.set_of(4), c.victim_way(c.set_of(4))));
  const Cache::Fill pending = c.fill(4, false);
  EXPECT_FALSE(pending.evicted.has_value());  // fills the empty way
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.resident_lines(), 2u);
}

TEST(Cache, ConstLookupsDoNotDisturbLru) {
  Cache c(tiny_cache());
  c.insert(0, false);
  c.insert(4, false);  // set 0 full; 0 is LRU
  const Cache& cc = c;
  // Read-only queries on the LRU line must not refresh it.
  EXPECT_TRUE(cc.contains(0));
  EXPECT_FALSE(cc.is_dirty(0));
  const auto evicted = c.insert(8, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, 0u);
}

TEST(AddressSpace, DisjointLineAlignedRanges) {
  AddressSpace as(64);
  const auto a = as.allocate(100);
  const auto b = as.allocate(10);
  EXPECT_EQ(a.base, 0u);
  EXPECT_EQ(b.base, 128u);  // 100 rounded up to two lines
  EXPECT_FALSE(a.contains(b.base));
  EXPECT_TRUE(a.contains(99));
  EXPECT_FALSE(a.contains(100));
}

}  // namespace
}  // namespace saisim::mem
