// Power-of-two bucketed histogram for latency distributions — the one log2
// bucketing in the tree: per-run latency recording, the counter registry's
// exported quantiles and the telemetry sampler's windowed p99 all use it.
#pragma once

#include <array>
#include <bit>

#include "util/types.hpp"

namespace saisim::stats {

/// Buckets value v into bucket floor(log2(v)) (v==0 goes to bucket 0).
/// Cheap enough for per-event recording; resolution is adequate for the
/// order-of-magnitude latency questions the benches ask.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(u64 v) {
    const int b = v == 0 ? 0 : static_cast<int>(std::bit_width(v)) - 1;
    ++buckets_[static_cast<u64>(b)];
    ++count_;
    total_ += v;
  }

  /// Folds another histogram (same bucketing) into this one.
  void merge(const Log2Histogram& other) {
    for (u64 i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    total_ += other.total_;
  }

  /// Removes the samples of `earlier`, an earlier snapshot of this same
  /// histogram: what remains is the samples added since that snapshot.
  void subtract(const Log2Histogram& earlier) {
    for (u64 i = 0; i < kBuckets; ++i) buckets_[i] -= earlier.buckets_[i];
    count_ -= earlier.count_;
    total_ -= earlier.total_;
  }

  u64 count() const { return count_; }
  u64 total() const { return total_; }
  double mean() const {
    return count_ ? static_cast<double>(total_) / static_cast<double>(count_)
                  : 0.0;
  }

  u64 bucket(int i) const { return buckets_[static_cast<u64>(i)]; }

  /// Approximate quantile: the upper edge of the bucket holding the
  /// q-th sample. Edge cases: empty → 0; all samples in one bucket → that
  /// bucket's midpoint (the upper edge would overstate a single record(10)
  /// as 15); q >= 1.0 clamps to the last sample's bucket.
  u64 quantile(double q) const {
    if (count_ == 0) return 0;
    int populated = -1;
    for (int i = 0; i < kBuckets; ++i) {
      if (bucket(i) == 0) continue;
      if (populated >= 0) {
        populated = -2;
        break;
      }
      populated = i;
    }
    if (populated >= 0) {
      const u64 lower = populated == 0 ? 0 : 1ull << populated;
      return lower + (upper_edge(populated) - lower) / 2;
    }
    u64 target = static_cast<u64>(q * static_cast<double>(count_));
    if (target >= count_) target = count_ - 1;
    u64 seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += bucket(i);
      if (seen > target) return upper_edge(i);
    }
    return ~0ull;  // unreachable: the buckets sum to count_ > target
  }

 private:
  static u64 upper_edge(int i) { return i >= 63 ? ~0ull : (2ull << i) - 1; }

  std::array<u64, kBuckets> buckets_ = {};
  u64 count_ = 0;
  u64 total_ = 0;
};

}  // namespace saisim::stats
