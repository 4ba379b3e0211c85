// Set-associative private cache tag store.
//
// Models the per-core private L2 of the paper's AMD Opteron testbed
// (512 KiB, 64 B lines). Only tags and LRU state are kept — the simulator
// never stores payload bytes, it tracks *where* each line currently lives.
//
// Hot-path notes: a tag entry is one 64-bit word (line/valid/dirty fused),
// and LRU state is an exact per-set recency order rather than per-entry
// clocks: for up to 16 ways, 16 four-bit way indices packed in one u64
// (position 0 = MRU, position ways-1 = LRU); wider sets keep one byte per
// position. Invalidated ways move to the LRU end, so the invalid ways
// always form the LRU-end suffix and the victim of an insert is the way in
// the LRU position — O(1), no set scan. MemorySystem's owner directory
// records the way each resident line occupies, so its hot path drives the
// way-indexed operations (touch/fill/invalidate_way) and never scans a
// set; the line-addressed operations below (probe/insert/invalidate) scan
// and are for standalone use.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/reflect.hpp"
#include "util/types.hpp"

namespace saisim::mem {

struct CacheConfig {
  u64 capacity_bytes = 512ull << 10;
  u64 line_bytes = 64;
  u32 ways = 16;

  u64 num_lines() const { return capacity_bytes / line_bytes; }
  u64 num_sets() const { return num_lines() / ways; }
};

template <class V>
void describe(V& v, CacheConfig& c) {
  namespace r = util::reflect;
  v.field("capacity_bytes", c.capacity_bytes, r::pow2_at_least(1024), "B");
  v.field("line_bytes", c.line_bytes, r::pow2_at_least(8), "B");
  v.field("ways", c.ways, r::in_range(1, 64));
  // The Cache constructor's geometry requirements (see below).
  v.invariant(c.line_bytes > 0 && c.ways > 0 &&
                  c.capacity_bytes % (c.line_bytes * c.ways) == 0,
              "capacity_bytes must be a multiple of line_bytes * ways");
  v.invariant(c.line_bytes == 0 || c.ways == 0 ||
                  c.capacity_bytes % (c.line_bytes * c.ways) != 0 ||
                  std::has_single_bit(c.num_sets()),
              "capacity_bytes / (line_bytes * ways) must be a power of two");
}

/// A line address: byte address with the offset bits stripped.
using LineAddr = u64;

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg) : cfg_(cfg) {
    SAISIM_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
    SAISIM_CHECK(cfg.ways > 0 && cfg.ways <= 256);
    SAISIM_CHECK(cfg.capacity_bytes % (cfg.line_bytes * cfg.ways) == 0);
    const u64 sets = cfg.num_sets();
    SAISIM_CHECK(std::has_single_bit(sets));
    set_mask_ = sets - 1;
    tags_.resize(sets * cfg.ways);
    if (packed()) {
      lru_shift_ = 4 * (cfg.ways - 1);
      lru_mask_ = cfg.ways == 16 ? ~u64{0} : (u64{1} << (4 * cfg.ways)) - 1;
      // Position k holds way k.
      u64 identity = 0;
      for (u32 w = 0; w < cfg.ways; ++w) identity |= u64{w} << (4 * w);
      order_.assign(sets, identity);
    } else {
      wide_order_.resize(sets * cfg.ways);
      for (u64 s = 0; s < sets; ++s) {
        for (u32 w = 0; w < cfg.ways; ++w) {
          wide_order_[s * cfg.ways + w] = static_cast<u8>(w);
        }
      }
    }
  }

  const CacheConfig& config() const { return cfg_; }

  LineAddr line_of(Address addr) const { return addr / cfg_.line_bytes; }
  u64 set_of(LineAddr line) const { return line & set_mask_; }

  struct Eviction {
    LineAddr line;
    bool dirty;
  };

  // --- Way-indexed operations (the caller knows where the line lives) ---

  /// Hit on `way`: move it to the MRU position; a store also marks it dirty.
  void touch(u64 set, u32 way, bool dirty) {
    if (dirty) tags_[set * cfg_.ways + way] |= kDirty;
    to_mru(set, way);
  }

  /// The way the next insert into `set` takes: the LRU position, which is
  /// an invalid way whenever the set has one.
  u32 victim_way(u64 set) const {
    return packed() ? static_cast<u32>(order_[set] >> lru_shift_) & 0xF
                    : wide_order_[set * cfg_.ways + cfg_.ways - 1];
  }

  /// State of one way: valid, the line it holds, dirty.
  bool valid(u64 set, u32 way) const {
    return (tags_[set * cfg_.ways + way] & kValid) != 0;
  }
  LineAddr line_at(u64 set, u32 way) const {
    return tags_[set * cfg_.ways + way] >> 2;
  }
  bool dirty_at(u64 set, u32 way) const {
    return (tags_[set * cfg_.ways + way] & kDirty) != 0;
  }

  /// Install `line` (which must be absent) in the victim way of its set and
  /// make it MRU. Returns the way taken and the line it displaced, if any.
  struct Fill {
    u32 way;
    std::optional<Eviction> evicted;
  };
  Fill fill(LineAddr line, bool dirty) {
    const u64 set = set_of(line);
    const u32 way = victim_way(set);
    u64& tag = tags_[set * cfg_.ways + way];
    Fill f{way, std::nullopt};
    if ((tag & kValid) != 0) {
      f.evicted = Eviction{tag >> 2, (tag & kDirty) != 0};
    } else {
      ++resident_;
    }
    tag = (line << 2) | kValid | (dirty ? kDirty : 0);
    lru_to_mru(set);
    return f;
  }

  /// Drop the valid line in `way` and move the way to the LRU end.
  /// Returns whether it was dirty.
  bool invalidate_way(u64 set, u32 way) {
    u64& tag = tags_[set * cfg_.ways + way];
    SAISIM_CHECK(tag & kValid);
    const bool dirty = (tag & kDirty) != 0;
    tag = 0;
    --resident_;
    to_lru(set, way);
    return dirty;
  }

  // --- Line-addressed operations (scan the set) ---

  /// True if the line is present; refreshes LRU on hit and, for a store,
  /// marks the line dirty.
  bool probe(LineAddr line, bool mark_dirty_on_hit = false) {
    const int way = find_way(line);
    if (way < 0) return false;
    touch(set_of(line), static_cast<u32>(way), mark_dirty_on_hit);
    return true;
  }

  /// Probe the contiguous lines [first, first + count) in ascending order;
  /// stops at the first absent line. Returns the number of leading hits.
  u64 probe_run(LineAddr first, u64 count, bool dirty) {
    u64 done = 0;
    while (done < count && probe(first + done, dirty)) ++done;
    return done;
  }

  /// Presence check without touching LRU state.
  bool contains(LineAddr line) const { return find_way(line) >= 0; }

  bool is_dirty(LineAddr line) const {
    const int way = find_way(line);
    return way >= 0 && dirty_at(set_of(line), static_cast<u32>(way));
  }

  /// Insert a line (must not be present). Returns the victim, if any.
  std::optional<Eviction> insert(LineAddr line, bool dirty) {
    SAISIM_CHECK_MSG(!contains(line), "double insert of cache line");
    return fill(line, dirty).evicted;
  }

  /// Mark a present line dirty (store hit).
  void mark_dirty(LineAddr line) {
    const int way = find_way(line);
    SAISIM_CHECK(way >= 0);
    tags_[set_of(line) * cfg_.ways + static_cast<u32>(way)] |= kDirty;
  }

  /// Drop a line if present; returns whether it was dirty.
  struct Invalidation {
    bool was_present;
    bool was_dirty;
  };
  Invalidation invalidate(LineAddr line) {
    const int way = find_way(line);
    if (way < 0) return {false, false};
    return {true, invalidate_way(set_of(line), static_cast<u32>(way))};
  }

  u64 resident_lines() const { return resident_; }

  /// Ways of `set` from MRU to LRU (for audits and tests).
  std::vector<u32> recency(u64 set) const {
    std::vector<u32> out(cfg_.ways);
    for (u32 p = 0; p < cfg_.ways; ++p) {
      out[p] = packed() ? static_cast<u32>(order_[set] >> (4 * p)) & 0xF
                        : wide_order_[set * cfg_.ways + p];
    }
    return out;
  }

 private:
  static constexpr u64 kValid = 1;
  static constexpr u64 kDirty = 2;
  static constexpr u64 kNibbles = 0x1111111111111111ull;

  bool packed() const { return cfg_.ways <= 16; }

  /// Way holding `line`, or -1.
  int find_way(LineAddr line) const {
    const u64* base = tags_.data() + set_of(line) * cfg_.ways;
    const u64 want = (line << 2) | kValid;
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if ((base[w] & ~kDirty) == want) return static_cast<int>(w);
    }
    return -1;
  }

  /// Position of `way` in a packed order word: the lowest nibble equal to
  /// `way` (unused high nibbles are zero and sit above every real position,
  /// so the lowest match is exact).
  static u32 position(u64 order, u32 way) {
    const u64 x = order ^ (kNibbles * way);
    const u64 zero = (x - kNibbles) & ~x & (kNibbles << 3);
    return static_cast<u32>(std::countr_zero(zero)) / 4;
  }

  void to_mru(u64 set, u32 way) {
    if (packed()) {
      const u64 o = order_[set];
      if ((o & 0xF) == way) return;
      const u32 p = position(o, way);
      const u64 below = o & ((u64{1} << (4 * p)) - 1);
      const u64 above = o & ((~u64{0} << (4 * p)) << 4);
      order_[set] = above | (below << 4) | way;
    } else {
      u8* o = wide_order_.data() + set * cfg_.ways;
      const u32 p = static_cast<u32>(
          std::find(o, o + cfg_.ways, static_cast<u8>(way)) - o);
      std::memmove(o + 1, o, p);
      o[0] = static_cast<u8>(way);
    }
  }

  /// The LRU way becomes MRU (the way fill() just wrote).
  void lru_to_mru(u64 set) {
    if (packed()) {
      const u64 o = order_[set];
      order_[set] = ((o << 4) & lru_mask_) | (o >> lru_shift_);
    } else {
      u8* o = wide_order_.data() + set * cfg_.ways;
      const u8 way = o[cfg_.ways - 1];
      std::memmove(o + 1, o, cfg_.ways - 1);
      o[0] = way;
    }
  }

  void to_lru(u64 set, u32 way) {
    if (packed()) {
      const u64 o = order_[set];
      const u32 p = position(o, way);
      const u64 low = (u64{1} << (4 * p)) - 1;
      order_[set] = (o & low) | ((o >> 4) & ~low & (lru_mask_ >> 4)) |
                    (u64{way} << lru_shift_);
    } else {
      u8* o = wide_order_.data() + set * cfg_.ways;
      const u32 p = static_cast<u32>(
          std::find(o, o + cfg_.ways, static_cast<u8>(way)) - o);
      std::memmove(o + p, o + p + 1, cfg_.ways - 1 - p);
      o[cfg_.ways - 1] = static_cast<u8>(way);
    }
  }

  CacheConfig cfg_;
  u64 set_mask_ = 0;
  u64 resident_ = 0;
  /// Packed tag entry: bits [63:2] line address, bit 1 dirty, bit 0 valid
  /// (0 == invalid), set-major.
  std::vector<u64> tags_;
  /// Per-set recency order, nibble k = way at position k (ways <= 16).
  std::vector<u64> order_;
  /// Per-set recency order, one byte per position (ways > 16).
  std::vector<u8> wide_order_;
  /// Packed order: bit offset of the LRU nibble, and the mask of all
  /// `ways` nibbles.
  u32 lru_shift_ = 0;
  u64 lru_mask_ = 0;
};

}  // namespace saisim::mem
