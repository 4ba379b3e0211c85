// The I/O server's block buffer cache: a set-associative LRU over
// fixed-size blocks keyed by absolute file-block number, so residency is a
// deterministic property of the *data* each workload touches — identical
// request streams hit identically regardless of the client's interrupt
// policy, and policy comparisons stay noise-free (the same contract the
// legacy cache_hit_ratio coin flip provided, now with real state).
//
// The cache only tracks residency and dirtiness; all timing (disk fills,
// write-back bursts, lookup latency) is charged by the IoServer that owns
// it. Disabled (the default) when capacity_bytes == 0.
#pragma once

#include <vector>

#include "util/reflect.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim::pfs {

struct BufferCacheConfig {
  /// Total cache size. 0 (the default) disables the cache entirely and the
  /// server falls back to the legacy probabilistic cache_hit_ratio model.
  u64 capacity_bytes = 0;
  /// Cache block (page) size; requests are resolved block-by-block.
  u64 block_bytes = 4096;
  /// Set associativity. capacity / (block * ways) sets, LRU within a set.
  int ways = 8;
  /// Write-back mode: dirty blocks are buffered and acks return at cache
  /// speed; a background flush daemon writes them out. When false the
  /// server stays write-through (disk before ack) but written blocks still
  /// land clean in the cache.
  bool write_back = true;
  /// Flush eagerly once this fraction of all blocks is dirty.
  double dirty_flush_threshold = 0.5;
  /// Period of the background flush daemon while dirty blocks exist.
  Time flush_period = Time::ms(10);
  /// Dirty blocks written back per flush burst.
  int flush_batch = 16;
  /// Sequential read-ahead depth (blocks prefetched past a detected
  /// stream's last read). 0 disables read-ahead.
  int readahead_blocks = 8;
  /// CPU-side cost of resolving a request against the cache index.
  Time lookup_time = Time::us(2);
};

template <class V>
void describe(V& v, BufferCacheConfig& c) {
  namespace r = util::reflect;
  v.field("capacity_bytes", c.capacity_bytes, r::non_negative(), "B");
  v.field("block_bytes", c.block_bytes, r::pow2_at_least(512), "B");
  v.field("ways", c.ways, r::in_range(1, 128));
  v.field("write_back", c.write_back);
  v.field("dirty_flush_threshold", c.dirty_flush_threshold,
          r::unit_interval());
  v.field("flush_period", c.flush_period, r::positive());
  v.field("flush_batch", c.flush_batch, r::in_range(1, 65536));
  v.field("readahead_blocks", c.readahead_blocks, r::in_range(0, 1024));
  v.field("lookup_time", c.lookup_time, r::non_negative());
  v.invariant(c.capacity_bytes == 0 ||
                  c.capacity_bytes >=
                      c.block_bytes * static_cast<u64>(c.ways),
              "server.cache.capacity_bytes must fit at least one full set "
              "(block_bytes * ways) when enabled");
}

class BufferCache {
 public:
  struct Stats {
    u64 hits = 0;    // block-level lookup hits
    u64 misses = 0;  // block-level lookup misses
    u64 evictions = 0;
    /// Dirty victims forcibly written back to make room (not flush-daemon
    /// write-backs — those are `flushed_blocks`).
    u64 dirty_writebacks = 0;
    u64 flushed_blocks = 0;
    u64 readahead_issued = 0;
    u64 readahead_useful = 0;
  };

  explicit BufferCache(const BufferCacheConfig& config);

  bool enabled() const { return num_sets_ > 0; }
  u64 block_bytes() const { return cfg_.block_bytes; }
  u64 num_blocks() const { return num_sets_ * static_cast<u64>(ways_); }
  u64 dirty_blocks() const { return dirty_; }
  const Stats& stats() const { return stats_; }

  /// Block-level probe. A hit refreshes LRU; the first demand hit on a
  /// prefetched block credits readahead_useful.
  bool lookup(u64 block);

  /// Residency check with no LRU or stats side effects.
  bool contains(u64 block) const;

  /// True if `block` is resident and dirty.
  bool is_dirty(u64 block) const;

  /// Install a block (demand fill, write, or prefetch). Returns the number
  /// of dirty victims evicted to make room — forced write-backs the caller
  /// must charge to the disk. Re-inserting a resident block refreshes LRU
  /// and ors in the dirty bit.
  u64 insert(u64 block, bool dirty, bool prefetched);

  /// Collect up to `max` dirty blocks, oldest first (least recently
  /// touched), and mark them clean (their write-back has been issued).
  /// Returns how many were taken.
  u64 take_dirty(u64 max);

  /// Bookkeeping hook for the owner: a prefetch batch was issued.
  void note_readahead_issued(u64 blocks) { stats_.readahead_issued += blocks; }

 private:
  /// Null link of the dirty list; entry indices stay below it.
  static constexpr u32 kNil = (u32{1} << 29) - 1;

  struct Entry {
    u64 block = 0;
    u64 stamp = 0;  // LRU: monotone touch counter
    // Links of the dirty list (entry indices), valid while dirty. The flags
    // share the forward link's word, which keeps an entry at 24 bytes.
    u32 dirty_prev = kNil;
    u32 dirty_next : 29 = kNil;
    u32 valid : 1 = 0;
    u32 dirty : 1 = 0;
    u32 prefetched : 1 = 0;
  };
  static_assert(sizeof(Entry) == 24);

  Entry* find(u64 block);
  const Entry* find(u64 block) const;

  /// Stamp `e` as the most recent touch; a dirty entry moves to the tail
  /// of the dirty list, which therefore stays in stamp order.
  void refresh(Entry& e);
  void link_dirty_tail(Entry& e);
  void unlink_dirty(Entry& e);
  u32 index_of(const Entry& e) const {
    return static_cast<u32>(&e - entries_.data());
  }

  BufferCacheConfig cfg_;
  u64 num_sets_ = 0;
  int ways_ = 0;
  std::vector<Entry> entries_;  // num_sets_ * ways_, set-major
  u64 tick_ = 0;
  u64 dirty_ = 0;
  /// Dirty entries, oldest stamp at the head: take_dirty pops from the head
  /// instead of sorting every entry.
  u32 dirty_head_ = kNil;
  u32 dirty_tail_ = kNil;
  Stats stats_;
};

template <class V>
void describe(V& v, BufferCache::Stats& s) {
  v.field("block_hits", s.hits);
  v.field("block_misses", s.misses);
  v.field("evictions", s.evictions);
  v.field("dirty_writebacks", s.dirty_writebacks);
  v.field("flushed_blocks", s.flushed_blocks);
  v.field("readahead_issued", s.readahead_issued);
  v.field("readahead_useful", s.readahead_useful);
}

}  // namespace saisim::pfs
