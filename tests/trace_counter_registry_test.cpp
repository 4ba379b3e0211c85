#include "trace/counter_registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace saisim::trace {
namespace {

TEST(CounterRegistry, FindOrCreateIsStable) {
  CounterRegistry reg;
  CounterRegistry::Counter& a = reg.counter("nic.rx");
  a.add(3);
  // Same name → same counter object (stable address).
  EXPECT_EQ(&reg.counter("nic.rx"), &a);
  reg.counter("nic.rx").add();
  EXPECT_EQ(reg.value("nic.rx"), 4u);
}

TEST(CounterRegistry, UnregisteredValueIsZero) {
  CounterRegistry reg;
  EXPECT_EQ(reg.value("never.seen"), 0u);
}

TEST(CounterRegistry, NamesAreSorted) {
  CounterRegistry reg;
  reg.counter("zeta");
  reg.counter("alpha");
  reg.counter("mid");
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[2], "zeta");
}

TEST(CounterRegistry, SnapshotExpandsLatencyRecorders) {
  CounterRegistry reg;
  reg.counter("plain").add(5);
  reg.latency("lat").add(100);
  reg.latency("lat").add(200);
  const auto snap = reg.snapshot();
  // name-sorted: lat.count, lat.p50, lat.p99, lat.total, plain
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap[0].first, "lat.count");
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[3].first, "lat.total");
  EXPECT_EQ(snap[3].second, 300u);
  EXPECT_EQ(snap[4].first, "plain");
  EXPECT_EQ(snap[4].second, 5u);
}

TEST(CounterRegistry, LatencyQuantileMatchesLog2Histogram) {
  // The exported .p50/.p99 rows are Log2Histogram::quantile of the merged
  // samples.
  CounterRegistry reg;
  stats::Log2Histogram h;
  for (u64 v : {1u, 2u, 3u, 100u, 1000u, 5000u, 5001u, 100000u}) h.add(v);
  reg.latency("l").merge(h);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0], (std::pair<std::string, u64>{"l.count", h.count()}));
  EXPECT_EQ(snap[1], (std::pair<std::string, u64>{"l.p50", h.quantile(0.5)}));
  EXPECT_EQ(snap[2],
            (std::pair<std::string, u64>{"l.p99", h.quantile(0.99)}));
  EXPECT_EQ(snap[3], (std::pair<std::string, u64>{"l.total", h.total()}));
}

TEST(CounterRegistry, ToTableHasOneRowPerSnapshotEntry) {
  CounterRegistry reg;
  reg.counter("a").add(1);
  reg.latency("b").add(10);
  const stats::Table t = reg.to_table();
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.rows(), 5u);  // a + b.{count,p50,p99,total}
}

struct ToyStats {
  u64 sent = 0;
  i64 busy_ps = 0;
  u64 depth_max = 0;
};

template <class V>
void describe(V& v, ToyStats& s) {
  v.field("sent", s.sent);
  v.field("busy_ps", s.busy_ps);
  v.peak("max_depth", s.depth_max);
}

TEST(CounterRegistry, PublishSumsFieldsAndFoldsPeaksByMax) {
  CounterRegistry reg;
  CounterHarvester<ToyStats> totals(reg, "toy.");
  totals.add(ToyStats{3, 700, 9});
  totals.add(ToyStats{4, 50, 2});
  publish(reg, "toy.", ToyStats{1, 1, 1});  // same counters, new harvester
  publish(reg, "toy1.", ToyStats{4, 50, 2});
  EXPECT_EQ(reg.value("toy.sent"), 8u);
  EXPECT_EQ(reg.value("toy.busy_ps"), 751u);
  EXPECT_EQ(reg.value("toy.max_depth"), 9u);  // max, not 12
  EXPECT_EQ(reg.value("toy1.max_depth"), 2u);
  // Field names come from describe(), not the member names.
  EXPECT_EQ(reg.value("toy.depth_max"), 0u);
  EXPECT_EQ(reg.names().size(), 6u);
}

}  // namespace
}  // namespace saisim::trace
