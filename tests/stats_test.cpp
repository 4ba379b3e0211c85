#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace saisim::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37;
    a.add(v);
    all.add(v);
  }
  for (int i = 50; i < 120; ++i) {
    const double v = i * 0.37;
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Log2Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(Log2Histogram, MeanIsExact) {
  Log2Histogram h;
  h.add(10);
  h.add(20);
  h.add(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Log2Histogram, QuantileFindsBucketEdge) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.add(4);  // bucket 2, edge 7
  h.add(1u << 20);
  EXPECT_EQ(h.quantile(0.5), 7u);
  EXPECT_GE(h.quantile(0.999), (1u << 20) - 1);
}

TEST(Log2Histogram, QuantileEdgeCases) {
  // Empty histogram: every quantile is 0, not a garbage sentinel.
  const Log2Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(0.99), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);

  // Single populated bucket: report the bucket midpoint, not the upper
  // edge (add(10) lands in [8,15] → 11, where the edge would say 15).
  Log2Histogram one;
  one.add(10);
  EXPECT_EQ(one.quantile(0.5), 11u);
  EXPECT_EQ(one.quantile(0.99), 11u);
  Log2Histogram zero;
  zero.add(0);  // bucket 0 spans [0,1] → midpoint 0
  EXPECT_EQ(zero.quantile(0.99), 0u);

  // q >= 1.0 must clamp to the max populated bucket instead of falling
  // off the end of the bucket array and returning ~0ull.
  Log2Histogram multi;
  for (u64 v : {1u, 100u, 5000u}) multi.add(v);
  EXPECT_EQ(multi.quantile(1.0), multi.quantile(0.99));
  EXPECT_NE(multi.quantile(1.0), ~0ull);
}

TEST(Log2Histogram, MergeFoldsAHistogramIn) {
  Log2Histogram h;
  for (u64 v = 1; v <= 64; ++v) h.add(v);
  Log2Histogram l;
  l.add(7);
  l.merge(h);
  EXPECT_EQ(l.count(), 65u);
  EXPECT_EQ(l.total(), 7u + 64u * 65u / 2u);
}

TEST(Log2Histogram, SubtractLeavesTheSamplesSinceASnapshot) {
  Log2Histogram h;
  for (u64 v : {1u, 2u, 1000u}) h.add(v);
  const Log2Histogram snapshot = h;
  h.add(5000);
  h.add(6000);
  Log2Histogram window = h;
  window.subtract(snapshot);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_EQ(window.total(), 11000u);
  EXPECT_EQ(window.bucket(0), 0u);
  EXPECT_EQ(window.bucket(12), 2u);  // 5000 and 6000 in [4096, 8191]
  EXPECT_EQ(window.quantile(0.99), 6143u);  // one bucket → its midpoint
}

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), i64{42}});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a,b", "c"});
  t.add_row({std::string("x\"y"), std::string("plain")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
  EXPECT_NE(csv.find("plain"), std::string::npos);
}

TEST(Table, RowWidthMismatchAborts) {
  Table t({"one", "two"});
  EXPECT_DEATH(t.add_row({std::string("only")}), "row width");
}

}  // namespace
}  // namespace saisim::stats
