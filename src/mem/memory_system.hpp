// The client node's memory hierarchy: per-core private caches, a
// single-owner coherence directory, and a shared DRAM controller with
// finite bandwidth.
//
// Coherence is MESI-lite with the migratory-sharing optimisation: a line
// lives in at most one private cache at a time, and an access from another
// core performs a cache-to-cache transfer that moves ownership. This is
// exactly the "data movement among caches" cost the paper's model charges
// as M per strip (and it makes M vs P explicit and sweepable).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/owner_directory.hpp"
#include "util/reflect.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace saisim::mem {

/// Per-line-operation cycle costs, converted to time via the core frequency.
struct MemoryTimings {
  Cycles l2_hit{15};
  /// DRAM access latency (fill from memory on a miss).
  Cycles dram_access{250};
  /// Cache-to-cache transfer between two cores' private caches: probe
  /// broadcast + cross-die HyperTransport hop on the paper's dual-socket
  /// Opterons, ~260 ns under load. The paper's premise is that this
  /// dominates per-strip protocol processing (M >> P); the migration-cost
  /// ablation bench sweeps it.
  Cycles c2c_transfer{700};
  /// Backlog the DRAM controller absorbs before queueing delays kick in.
  /// Work items evaluate their memory cost up front, so traffic that in
  /// reality spreads over the item's execution is booked in a burst; the
  /// allowance keeps that artifact from charging phantom queueing while
  /// still exposing genuine aggregate oversubscription (the §VI RAM-disk
  /// ceiling).
  u64 dram_burst_allowance = 256ull << 10;
};

template <class V>
void describe(V& v, MemoryTimings& t) {
  namespace r = util::reflect;
  v.field("l2_hit", t.l2_hit, r::non_negative());
  v.field("dram_access", t.dram_access, r::non_negative());
  v.field("c2c_transfer", t.c2c_transfer, r::non_negative());
  v.field("dram_burst_allowance", t.dram_burst_allowance, r::non_negative(),
          "B");
}

struct CoreCacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses_dram = 0;  // filled from memory
  u64 misses_c2c = 0;   // filled from another core's cache
  u64 evictions = 0;
  u64 writebacks = 0;

  u64 misses() const { return misses_dram + misses_c2c; }
  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses()) / static_cast<double>(accesses);
  }

  CoreCacheStats& operator+=(const CoreCacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses_dram += o.misses_dram;
    misses_c2c += o.misses_c2c;
    evictions += o.evictions;
    writebacks += o.writebacks;
    return *this;
  }
};

/// floor(x * mul / div) and the remainder, memoised for recurring x. The
/// per-line booking step converts the same few increments (ps between
/// bookings, bytes drained) over and over; a hit costs a compare instead of a
/// 64-bit division. Direct-mapped on the low bits of x; an entry for x = 0
/// is correct from the start, so no validity flag is needed.
class ScaledDivMemo {
 public:
  ScaledDivMemo(u64 mul, u64 div) : mul_(mul), div_(div) {}

  struct QuotRem {
    u64 q = 0;
    u64 r = 0;
  };
  QuotRem operator()(u64 x) {
    Entry& e = memo_[x & (kEntries - 1)];
    if (e.x != x) {
      const u128 p = static_cast<u128>(x) * mul_;
      e.x = x;
      if (p <= UINT64_MAX) {  // one hardware division, as in muldiv
        e.qr = {static_cast<u64>(p) / div_, static_cast<u64>(p) % div_};
      } else {
        e.qr = {static_cast<u64>(p / div_), static_cast<u64>(p % div_)};
      }
    }
    return e.qr;
  }

 private:
  static constexpr u64 kEntries = 4;
  struct Entry {
    u64 x = 0;
    QuotRem qr;
  };
  u64 mul_;
  u64 div_;
  Entry memo_[kEntries];
};

/// The DRAM booking points of one stretch of an access walk, in walk
/// order. A point is the access's cycle count at a miss that books one
/// line (a fill from DRAM, or the dirty victim of a cache-to-cache fill)
/// or two (a DRAM fill whose dirty victim is written back at the same
/// arrival). The walk books once per directory page, so a fixed buffer of
/// one point per line of a page holds any stretch.
class DramRun {
 public:
  static constexpr u64 kCapacity = OwnerDirectory::kPageLines;

  struct Point {
    i64 cycles;
    u32 lines;
    u32 lines_before;  // lines booked by the points before this one
  };

  /// Appends a point; `cycles` must not precede the previous point's.
  void add(i64 cycles, u32 lines) {
    if (size_ > 0) {
      min_gap_ = std::min(min_gap_, cycles - points_[size_ - 1].cycles);
    }
    points_[size_++] = Point{cycles, lines, lines_};
    lines_ += lines;
    max_lines_ = std::max(max_lines_, lines);
  }
  void clear() {
    size_ = 0;
    lines_ = 0;
    max_lines_ = 0;
    min_gap_ = INT64_MAX;
  }

  bool empty() const { return size_ == 0; }
  u64 size() const { return size_; }
  const Point& operator[](u64 i) const { return points_[i]; }
  /// Lines booked by the points before point `i` (all of them at size()).
  u32 lines_before(u64 i) const {
    return i == size_ ? lines_ : points_[i].lines_before;
  }
  u32 lines() const { return lines_; }
  u32 max_lines() const { return max_lines_; }
  /// Smallest cycle gap between consecutive points (INT64_MAX below two).
  i64 min_gap() const { return min_gap_; }

 private:
  std::array<Point, kCapacity> points_;  // only [0, size_) is meaningful
  u64 size_ = 0;
  u32 lines_ = 0;
  u32 max_lines_ = 0;
  i64 min_gap_ = INT64_MAX;
};

/// The shared DRAM controller: a leaky bucket whose backlog drains at the
/// DRAM rate. A booking first drains the backlog for the time elapsed since
/// the last booking, then adds its bytes and pays the increment of the
/// queueing penalty it causes, where the penalty of a backlog is the
/// serialization time of whatever exceeds the burst allowance.
///
/// The access path books line by line, and its integer rounding is the
/// model. book_line() is that per-line step, without a division per line:
/// the drain of each interval comes from a memo keyed by the interval, and
/// above the allowance the penalty increment of one line is its
/// precomputed quotient plus a carry out of the remainder
/// (backlog - allowance) * 1e12 mod rate, which is stepped instead of
/// recomputed. book_run() applies a whole stretch of an access at once
/// and reaches the same state as book_line() on every line of it.
class DramController {
 public:
  /// `core_freq` is the clock a DramRun's cycle counts tick at.
  DramController(Bandwidth bandwidth, u64 line_bytes, u64 burst_allowance,
                 Frequency core_freq);

  bool unlimited() const { return bw_.is_unlimited(); }

  /// Book `bytes` arriving at `now`; returns the queueing delay it adds.
  Time book(u64 bytes, Time now);
  /// book(line_bytes, now) on a bandwidth-limited controller, without the
  /// divisions.
  Time book_line(Time now);
  /// Books the points of `run` in order, each line as book_line() would,
  /// on a bandwidth-limited controller. Point k arrives at
  /// now + duration(cycles_k) + the delay booked before it, which starts
  /// at `queue` and grows by each earlier point's delay. Returns the delay
  /// the run adds.
  Time book_run(const DramRun& run, Time now, Time queue);

  /// Cumulative serialization time booked.
  Time busy() const { return busy_; }

 private:
  void drain(Time now);
  Time penalty(u64 backlog) const;
  /// book_line() without the busy-time charge.
  Time queue_line(Time now);
  /// Books the points from `i` on that arrive no later than last_update_,
  /// so drain nothing; returns the first point that drains (or the run's
  /// size).
  u64 book_undrained(const DramRun& run, u64 i, Time now, Time& queue);

  Bandwidth bw_;
  u64 bps_ = 0;
  u64 line_bytes_;
  u64 allowance_;
  Frequency core_freq_;
  /// Serialization time of one line and its remainder, line * 1e12 / bps.
  Time line_xfer_ = Time::zero();
  u64 line_rem_ = 0;
  /// clear_gap_[k]: the fewest cycles between two points whose interval
  /// drains k lines.
  i64 clear_gap_[3] = {};

  Time last_update_ = Time::zero();
  u64 backlog_ = 0;
  Time busy_ = Time::zero();
  /// (backlog - allowance) * 1e12 mod bps while backlog > allowance and
  /// phase_valid_; a general booking invalidates it.
  u64 phase_ = 0;
  bool phase_valid_ = false;
  /// elapsed ps -> bytes drained; drained bytes -> remainder of their
  /// serialization time.
  ScaledDivMemo drain_memo_;
  ScaledDivMemo phase_memo_;
};

class MemorySystem {
 public:
  MemorySystem(int num_cores, const CacheConfig& cache_cfg,
               const MemoryTimings& timings, Frequency core_freq,
               Bandwidth dram_bandwidth);

  int num_cores() const { return static_cast<int>(caches_.size()); }
  const CacheConfig& cache_config() const { return cache_cfg_; }
  const MemoryTimings& timings() const { return timings_; }

  enum class AccessType { kRead, kWrite };

  /// Access `bytes` at `addr` from `core` at simulated time `now`.
  /// Returns the total stall time for the access (per-line costs plus any
  /// DRAM-controller queueing). Updates cache state and statistics.
  ///
  /// `reuse_per_line` models block-local processing (checksum, cipher
  /// rounds): each line is re-accessed that many times while still hot, so
  /// every reuse is a guaranteed hit. This is how real per-block compute
  /// behaves, as opposed to a second full-buffer pass (which would LRU-
  /// thrash any buffer larger than the cache).
  Time access(CoreId core, Address addr, u64 bytes, AccessType type, Time now,
              int reuse_per_line = 0);

  /// Device DMA into memory (NIC RX payload landing, no direct cache
  /// access — the testbed NIC has no DCA). Invalidates stale cached copies
  /// and occupies DRAM bandwidth. Returns the DMA completion delay.
  Time dma_write(Address addr, u64 bytes, Time now);

  /// True if every line of [addr, addr+bytes) currently resides in `core`'s
  /// private cache (used by tests to verify the locality mechanism).
  bool resident(CoreId core, Address addr, u64 bytes) const;

  /// Audit the owner directory against the per-core caches: every valid
  /// cache line is in the directory under that core and way, and the
  /// directory holds exactly as many lines as the caches. Returns a
  /// description of the first violation, or an empty string.
  std::string check_coherence() const;

  const CoreCacheStats& core_stats(CoreId core) const {
    return stats_[static_cast<u64>(core)];
  }
  CoreCacheStats total_stats() const;

  u64 c2c_transfers() const { return c2c_transfers_; }
  u64 dram_line_reads() const { return dram_line_reads_; }
  u64 dram_line_writes() const { return dram_line_writes_; }
  /// Cumulative time the DRAM controller spent busy (for saturation checks).
  Time dram_busy_time() const { return dram_.busy(); }

 private:
  CacheConfig cache_cfg_;
  MemoryTimings timings_;
  Frequency core_freq_;

  std::vector<Cache> caches_;
  std::vector<CoreCacheStats> stats_;
  /// line -> (owning core, way), for lines resident in some private cache.
  OwnerDirectory owner_;
  DramController dram_;

  u64 c2c_transfers_ = 0;
  u64 dram_line_reads_ = 0;
  u64 dram_line_writes_ = 0;
};

}  // namespace saisim::mem
