// The memory model's per-line walk as it stood before the extent-granular
// rewrite, kept verbatim as a differential oracle for tests: the old tag
// store (per-entry LRU clocks, victim found by scanning the set), the old
// hashed owner directory, and the old access/dma_write/dram_occupy bodies,
// which book every 64 B line through the directory and DRAM clock with
// divisions. mem_fuzz_test drives it and mem::MemorySystem with the same
// random operations and requires identical results after every one.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "mem/memory_system.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace saisim::mem::reference {

class LineCache {
 public:
  explicit LineCache(const CacheConfig& cfg) : cfg_(cfg) {
    SAISIM_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
    SAISIM_CHECK(cfg.ways > 0);
    SAISIM_CHECK(cfg.capacity_bytes % (cfg.line_bytes * cfg.ways) == 0);
    const u64 sets = cfg.num_sets();
    SAISIM_CHECK(std::has_single_bit(sets));
    set_mask_ = sets - 1;
    lines_.resize(sets * cfg.ways);
    mru_way_.assign(sets, 0);
  }

  struct Eviction {
    LineAddr line;
    bool dirty;
  };

  /// Result of a victim lookup: where the next insert of that line will
  /// land, and what it displaces. See commit_insert.
  struct PendingInsert {
    std::optional<Eviction> evicted;
    u64 set = 0;
    u32 way = 0;
  };

  /// Probe the contiguous lines [first, first + count) in ascending order,
  /// refreshing LRU (and marking dirty if `dirty`) on each hit; stops at
  /// the first absent line. Returns the number of leading hits consumed.
  /// Equivalent to `count` probe() calls, but the set cursor, way hints and
  /// LRU clock stay in registers across the whole run.
  ///
  /// If `miss_victim` is non-null and the run stops short, it receives the
  /// victim slot for the missing line — the same scan that proves the line
  /// absent selects where its insert will land, so the miss path pays one
  /// set walk, not two. Pass it to commit_insert with no intervening
  /// operations on this cache.
  u64 probe_run(LineAddr first, u64 count, bool dirty,
                PendingInsert* miss_victim = nullptr) {
    return dirty ? probe_run_impl<true>(first, count, miss_victim)
                 : probe_run_impl<false>(first, count, miss_victim);
  }

  /// Presence check without touching LRU state.
  bool contains(LineAddr line) const { return find(line) != nullptr; }

  void commit_insert(const PendingInsert& p, LineAddr line, bool dirty) {
    Entry* const e = lines_.data() + p.set * cfg_.ways + p.way;
    if (!p.evicted) ++resident_;
    e->tag = (line << 2) | kValid | (dirty ? kDirty : 0);
    e->lru = ++lru_clock_;
    mru_way_[p.set] = p.way;
  }

  /// Drop a line if present; returns whether it was dirty.
  struct Invalidation {
    bool was_present;
    bool was_dirty;
  };
  Invalidation invalidate(LineAddr line) {
    Entry* e = find(line);
    if (e == nullptr) return {false, false};
    const bool dirty = (e->tag & kDirty) != 0;
    e->tag = 0;
    --resident_;
    return {true, dirty};
  }

 private:
  static constexpr u64 kValid = 1;
  static constexpr u64 kDirty = 2;

  /// Packed tag entry: bits [63:2] line address, bit 1 dirty, bit 0 valid.
  /// A validity-and-line match is a single masked compare.
  struct Entry {
    u64 tag = 0;  // 0 == invalid
    u64 lru = 0;
  };

  u64 set_index(LineAddr line) const { return line & set_mask_; }

  /// probe_run body, specialised on the dirty flag so the inner loop is
  /// pure loads, one compare and one LRU store per line. Consecutive lines
  /// fill consecutive sets, so the walk is chunked at set-array wrap
  /// boundaries and the inner loop advances raw pointers. The fallback
  /// scan (MRU hint wrong) doubles as the victim scan: when it ends with
  /// the line absent, it has also found the slot an insert would take.
  template <bool Dirty>
  u64 probe_run_impl(LineAddr first, u64 count, PendingInsert* miss_victim) {
    const u64 sets = set_mask_ + 1;
    const u32 ways = cfg_.ways;
    u64 clock = lru_clock_;
    u64 done = 0;
    u64 want = (first << 2) | kValid;
    u64 set = first & set_mask_;
    while (done < count) {
      const u64 chunk = std::min(count - done, sets - set);
      Entry* base = lines_.data() + set * ways;
      u32* mp = mru_way_.data() + set;
      u64 stop = done + chunk;
      while (done < stop) {
        // Tight hint-hit loop: no call is reachable from inside it, so its
        // state lives in scratch registers (a function call in the body
        // would force everything into callee-saved slots).
        for (; done < stop; ++done, want += 4, base += ways, ++mp) {
          Entry* const e = base + *mp;
          if ((e->tag & ~kDirty) != want) break;
          e->lru = ++clock;
          if constexpr (Dirty) e->tag |= kDirty;
        }
        if (done == stop) break;
        // Hint missed: scan the whole set out of line.
        Entry* const e = scan_set(base, mp, want, miss_victim);
        if (e == nullptr) {
          lru_clock_ = clock;
          return done;
        }
        e->lru = ++clock;
        if constexpr (Dirty) e->tag |= kDirty;
        ++done;
        want += 4;
        base += ways;
        ++mp;
      }
      set = 0;
    }
    lru_clock_ = clock;
    return done;
  }

  /// Fallback scan when the MRU hint is wrong: look for `want` across the
  /// set, refreshing the hint on a hit. This path is itself hot — any
  /// buffer spanning a set more than once defeats the hint on re-walks —
  /// so the match loop stays lean; only a genuine miss (line absent) pays
  /// the second, victim-selection pass over the now L1-resident set.
  Entry* scan_set(Entry* base, u32* mp, u64 want, PendingInsert* miss_victim) {
    const u32 ways = cfg_.ways;
    for (u32 w = 0; w < ways; ++w) {
      if ((base[w].tag & ~kDirty) == want) {
        *mp = w;
        return base + w;
      }
    }
    // Absent. The scan above proves the no-double-insert invariant, so the
    // victim pass needs only the occupancy and LRU ordering.
    if (miss_victim != nullptr) {
      const Entry* victim = nullptr;
      bool victim_invalid = false;
      for (u32 w = 0; w < ways; ++w) {
        const Entry& c = base[w];
        if ((c.tag & kValid) == 0) {
          if (!victim_invalid) {  // first invalid way wins, as before
            victim = &c;
            victim_invalid = true;
          }
        } else if (!victim_invalid &&
                   (victim == nullptr || c.lru < victim->lru)) {
          victim = &c;
        }
      }
      miss_victim->set = static_cast<u64>(mp - mru_way_.data());
      miss_victim->way = static_cast<u32>(victim - base);
      miss_victim->evicted.reset();
      if ((victim->tag & kValid) != 0) {
        miss_victim->evicted =
            Eviction{victim->tag >> 2, (victim->tag & kDirty) != 0};
      }
    }
    return nullptr;
  }

  /// Lookup: try the set's MRU way first (one compare on a streaming
  /// re-walk), fall back to scanning the remaining ways.
  const Entry* find(LineAddr line) const {
    const u64 set = set_index(line);
    const Entry* const base = lines_.data() + set * cfg_.ways;
    const u64 want = (line << 2) | kValid;
    const u32 hint = mru_way_[set];
    if ((base[hint].tag & ~kDirty) == want) return base + hint;
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if ((base[w].tag & ~kDirty) == want) {
        mru_way_[set] = w;
        return base + w;
      }
    }
    return nullptr;
  }
  Entry* find(LineAddr line) {
    return const_cast<Entry*>(static_cast<const LineCache*>(this)->find(line));
  }

  CacheConfig cfg_;
  u64 set_mask_ = 0;
  u64 lru_clock_ = 0;
  u64 resident_ = 0;
  std::vector<Entry> lines_;
  /// Per-set MRU way hint — a lookup accelerator, not cache state: stale
  /// hints only cost the fallback scan, so const lookups may refresh it.
  mutable std::vector<u32> mru_way_;
};

class HashOwnerDirectory {
 public:
  /// `expected_lines` bounds the live population (e.g. the machine's total
  /// cache lines); capacity is the next power of two giving load <= 0.5.
  explicit HashOwnerDirectory(u64 expected_lines = 256) {
    u64 cap = std::bit_ceil(expected_lines < 8 ? u64{16} : expected_lines * 2);
    table_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// Hint that `line`'s slot is about to be probed. The table is a random
  /// touch into megabytes; the access path issues this for line N+1 while
  /// the miss handling of line N covers the latency.
  void prefetch(LineAddr line) const {
    __builtin_prefetch(&table_[home(line)]);
  }

  /// Set the owner of `line`, inserting it if absent. Returns the previous
  /// owner (kNoCore if the line was not present) — the access path uses
  /// this to fold its find/erase/insert triple into one probe.
  CoreId assign(LineAddr line, CoreId owner) {
    const u64 packed = pack(line, owner);
    if (size_ * 2 >= table_.size()) grow();
    for (u64 i = home(line);; i = (i + 1) & mask_) {
      const u64 w = table_[i];
      if (w == 0) {
        table_[i] = packed;
        ++size_;
        return kNoCore;
      }
      if ((w >> kOwnerBits) == line) {
        table_[i] = packed;
        return owner_of(w);
      }
    }
  }

  /// Remove `line`. Returns its owner, or kNoCore if it was absent.
  /// Deletion backshifts the tail of the probe chain (no tombstones).
  CoreId erase(LineAddr line) {
    u64 i = home(line);
    for (;; i = (i + 1) & mask_) {
      const u64 w = table_[i];
      if (w == 0) return kNoCore;
      if ((w >> kOwnerBits) == line) break;
    }
    const CoreId owner = owner_of(table_[i]);
    // Backward-shift: pull every displaced entry after the hole one step
    // back unless that would move it before its home slot.
    u64 hole = i;
    for (u64 j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      const u64 w = table_[j];
      if (w == 0) break;
      const u64 h = home(w >> kOwnerBits);
      // w may fill the hole iff its home precedes-or-equals the hole in
      // cyclic probe order, i.e. the hole lies within w's probe chain.
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = w;
        hole = j;
      }
    }
    table_[hole] = 0;
    --size_;
    return owner;
  }

 private:
  /// Slot word: bits [63:8] line address, bits [7:0] owner + 1 (0 == empty).
  static constexpr u64 kOwnerBits = 8;

  static u64 pack(LineAddr line, CoreId owner) {
    SAISIM_CHECK(owner != kNoCore);
    SAISIM_CHECK(owner >= 0 && owner < (1 << kOwnerBits) - 1);
    SAISIM_CHECK(line < (u64{1} << (64 - kOwnerBits)));
    return (line << kOwnerBits) | (static_cast<u64>(owner) + 1);
  }

  static CoreId owner_of(u64 w) {
    return static_cast<CoreId>(w & ((u64{1} << kOwnerBits) - 1)) - 1;
  }

  u64 home(LineAddr line) const {
    // Fibonacci hashing: one multiply spreads the low-entropy, mostly
    // sequential line addresses across the table.
    return (line * 0x9E3779B97F4A7C15ull >> 17) & mask_;
  }

  void grow() {
    std::vector<u64> old = std::move(table_);
    table_.assign(old.size() * 2, 0);
    mask_ = table_.size() - 1;
    size_ = 0;
    for (const u64 w : old) {
      if (w != 0) assign(w >> kOwnerBits, owner_of(w));
    }
  }

  std::vector<u64> table_;
  u64 mask_ = 0;
  u64 size_ = 0;
};

class LineWalkMemory {
 public:
  using AccessType = MemorySystem::AccessType;

  LineWalkMemory(int num_cores, const CacheConfig& cache_cfg,
                 const MemoryTimings& timings, Frequency core_freq,
                 Bandwidth dram_bandwidth)
      : cache_cfg_(cache_cfg),
        timings_(timings),
        core_freq_(core_freq),
        dram_bw_(dram_bandwidth),
        owner_(static_cast<u64>(num_cores) * cache_cfg.num_lines()) {
    SAISIM_CHECK(num_cores > 0);
    if (!dram_bw_.is_unlimited()) {
      line_xfer_ = dram_bw_.transfer_time(cache_cfg_.line_bytes);
    }
    caches_.reserve(static_cast<u64>(num_cores));
    for (int i = 0; i < num_cores; ++i) caches_.emplace_back(cache_cfg);
    stats_.resize(static_cast<u64>(num_cores));
  }

  int num_cores() const { return static_cast<int>(caches_.size()); }

  Time access(CoreId core, Address addr, u64 bytes, AccessType type, Time now,
              int reuse_per_line = 0);
  Time dma_write(Address addr, u64 bytes, Time now);
  bool resident(CoreId core, Address addr, u64 bytes) const;

  const CoreCacheStats& core_stats(CoreId core) const {
    return stats_[static_cast<u64>(core)];
  }
  u64 c2c_transfers() const { return c2c_transfers_; }
  u64 dram_line_reads() const { return dram_line_reads_; }
  u64 dram_line_writes() const { return dram_line_writes_; }
  Time dram_busy_time() const { return dram_busy_; }

 private:
  Time dram_occupy(u64 bytes, Time now);

  CacheConfig cache_cfg_;
  MemoryTimings timings_;
  Frequency core_freq_;
  Bandwidth dram_bw_;

  std::vector<LineCache> caches_;
  std::vector<CoreCacheStats> stats_;
  HashOwnerDirectory owner_;

  Time line_xfer_ = Time::zero();
  Time dram_last_update_ = Time::zero();
  u64 dram_backlog_bytes_ = 0;
  Time dram_busy_ = Time::zero();
  u64 c2c_transfers_ = 0;
  u64 dram_line_reads_ = 0;
  u64 dram_line_writes_ = 0;
};

inline Time LineWalkMemory::dram_occupy(u64 bytes, Time now) {
  if (dram_bw_.is_unlimited()) return Time::zero();
  auto queue_penalty = [this](u64 backlog) {
    return backlog <= timings_.dram_burst_allowance
               ? Time::zero()
               : dram_bw_.transfer_time(backlog -
                                        timings_.dram_burst_allowance);
  };
  // Drain the backlog for the wall time elapsed since the last booking.
  if (now > dram_last_update_) {
    const Time elapsed = now - dram_last_update_;
    // elapsed_ps * bps / 1e12, with the same 64-bit fast path as muldiv:
    // inter-booking gaps are short, so the product virtually always fits
    // and the division by a constant becomes a multiply.
    const u128 prod =
        static_cast<u128>(static_cast<u64>(elapsed.picoseconds())) *
        static_cast<u64>(dram_bw_.bytes_per_second());
    const u64 drained =
        prod <= static_cast<u128>(UINT64_MAX)
            ? static_cast<u64>(prod) / 1'000'000'000'000ull
            : static_cast<u64>(prod / 1'000'000'000'000ull);
    dram_backlog_bytes_ = drained >= dram_backlog_bytes_
                              ? 0
                              : dram_backlog_bytes_ - drained;
    dram_last_update_ = now;
  }
  // Queueing appears only when the controller is genuinely oversubscribed
  // beyond the burst allowance, and each booking pays only the *increment*
  // of the penalty it causes.
  const Time before = queue_penalty(dram_backlog_bytes_);
  dram_backlog_bytes_ += bytes;
  // The access path books one cache line per call; its serialization time
  // is precomputed so the hot path pays no division here.
  dram_busy_ += bytes == cache_cfg_.line_bytes ? line_xfer_
                                               : dram_bw_.transfer_time(bytes);
  return queue_penalty(dram_backlog_bytes_) - before;
}

inline Time LineWalkMemory::access(CoreId core, Address addr, u64 bytes,
                                   AccessType type, Time now,
                                   int reuse_per_line) {
  SAISIM_CHECK(core >= 0 && core < num_cores());
  SAISIM_CHECK(bytes > 0);
  SAISIM_CHECK(reuse_per_line >= 0);
  LineCache& cache = caches_[static_cast<u64>(core)];

  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;
  const u64 n_lines = last - first + 1;

  const bool is_write = type == AccessType::kWrite;
  // Block-local reuse: guaranteed hits while a line is hot, charged per
  // line *in walk order* (the cycle total at each miss feeds the DRAM
  // drain clock below, so the order of accrual is part of the model).
  const i64 hit_cycles = timings_.l2_hit.count();
  const i64 reuse_cycles = hit_cycles * reuse_per_line;

  i64 cycles = 0;
  Time dram_queue = Time::zero();
  u64 hits = 0, misses_c2c = 0, misses_dram = 0;
  u64 evictions = 0, writebacks = 0;
  const bool dram_limited = !dram_bw_.is_unlimited();

  LineAddr line = first;
  while (line <= last) {
    // Batched walk: consume a run of consecutive hits in one cache scan
    // with the set cursor carried along (streaming re-reads take this
    // path for the whole range). When the run stops at a miss, the same
    // scan has already selected the victim slot for that line.
    LineCache::PendingInsert pending;
    const u64 run = cache.probe_run(line, last - line + 1, is_write, &pending);
    hits += run;
    cycles += static_cast<i64>(run) * (reuse_cycles + hit_cycles);
    line += run;
    if (line > last) break;

    // Miss: find the line. Either another core's cache owns it (c2c
    // transfer, moving ownership) or it comes from DRAM. The controller's
    // drain clock advances with the access's own progression (latency
    // cycles spent so far plus accrued queueing).
    cycles += reuse_cycles;
    // Both directory slots this miss will touch are random probes into a
    // multi-megabyte table; start their loads now so the cost
    // classification below covers the latency.
    owner_.prefetch(line);
    if (pending.evicted) owner_.prefetch(pending.evicted->line);
    // The drain clock sees the access's own progression — latency cycles
    // and queueing accrued up to this miss. Materialising that Time costs
    // a 128-bit division, so it is computed at most once per miss, and
    // only if a bandwidth-limited controller will actually consume it.
    Time progressed = Time::zero();
    bool progressed_set = false;
    const i64 miss_cycles = cycles;
    const Time miss_queue = dram_queue;
    const auto progress_now = [&] {
      if (!progressed_set) {
        progressed =
            now + core_freq_.duration(Cycles{miss_cycles}) + miss_queue;
        progressed_set = true;
      }
      return progressed;
    };
    // One directory probe settles both the lookup and the ownership move.
    const CoreId prev = owner_.assign(line, core);
    if (prev != kNoCore) {
      SAISIM_CHECK_MSG(prev != core, "owner map out of sync with cache");
      const auto inv = caches_[static_cast<u64>(prev)].invalidate(line);
      SAISIM_CHECK(inv.was_present);
      ++misses_c2c;
      ++c2c_transfers_;
      cycles += timings_.c2c_transfer.count();
      // Dirty data moves cache-to-cache; ownership transfers with it, so
      // no writeback to DRAM happens here.
    } else {
      ++misses_dram;
      ++dram_line_reads_;
      cycles += timings_.dram_access.count();
      if (dram_limited) dram_queue += dram_occupy(line_bytes, progress_now());
    }

    cache.commit_insert(pending, line, is_write);
    if (pending.evicted) {
      ++evictions;
      owner_.erase(pending.evicted->line);
      if (pending.evicted->dirty) {
        ++writebacks;
        ++dram_line_writes_;
        if (dram_limited)
          dram_queue += dram_occupy(line_bytes, progress_now());
      }
    }
    ++line;
  }

  // One trace event per access call (not per line), so the tracer's cost
  // stays off the per-line walk even when enabled.
  if (misses_c2c + misses_dram > 0) {
    SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kCacheMiss,
                       now, -1, core, -1, static_cast<i64>(n_lines),
                       static_cast<i64>(misses_c2c),
                       static_cast<i64>(misses_dram));
  }
  if (misses_c2c > 0) {
    SAISIM_TRACE_EVENT(util::Subsystem::kMem,
                       trace::EventType::kOwnerTransfer, now, -1, core, -1,
                       static_cast<i64>(misses_c2c));
  }

  // Stats are accumulated in locals above and booked once per call.
  CoreCacheStats& st = stats_[static_cast<u64>(core)];
  const u64 reuse = static_cast<u64>(reuse_per_line);
  st.accesses += n_lines * (1 + reuse);
  st.hits += n_lines * reuse + hits;
  st.misses_c2c += misses_c2c;
  st.misses_dram += misses_dram;
  st.evictions += evictions;
  st.writebacks += writebacks;

  return core_freq_.duration(Cycles{cycles}) + dram_queue;
}

inline Time LineWalkMemory::dma_write(Address addr, u64 bytes, Time now) {
  SAISIM_CHECK(bytes > 0);
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;

  // Invalidate any stale cached copies (coherent DMA). erase() reports the
  // previous owner, so one directory probe per line settles both the
  // lookup and the removal.
  i64 invalidated = 0;
  for (LineAddr line = first; line <= last; ++line) {
    const CoreId prev = owner_.erase(line);
    if (prev == kNoCore) continue;
    caches_[static_cast<u64>(prev)].invalidate(line);
    ++invalidated;
  }
  SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kDmaWrite, now,
                     -1, -1, -1, static_cast<i64>(bytes), invalidated);
  return dram_occupy(bytes, now);
}

inline bool LineWalkMemory::resident(CoreId core, Address addr,
                                     u64 bytes) const {
  SAISIM_CHECK(core >= 0 && core < num_cores());
  const LineCache& cache = caches_[static_cast<u64>(core)];
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;
  for (LineAddr line = first; line <= last; ++line) {
    if (!cache.contains(line)) return false;
  }
  return true;
}

}  // namespace saisim::mem::reference
