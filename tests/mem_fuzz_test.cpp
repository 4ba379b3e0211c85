// Reference-model fuzzing of the memory system. Random accesses from
// random cores are mirrored against a naive oracle that tracks only
// ownership (address -> owning core), and random accesses and DMA writes
// are mirrored against the old per-line walk (mem_line_walk_reference.hpp):
// the cache bookkeeping (directory consistency, hit/miss classification,
// eviction accounting, DRAM queueing) must agree at every step.
#include <gtest/gtest.h>

#include <unordered_map>
#include <string>
#include <unordered_set>
#include <vector>

#include "mem/memory_system.hpp"
#include "mem_line_walk_reference.hpp"
#include "util/rng.hpp"

namespace saisim::mem {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);

struct Oracle {
  // line -> owner core; absent = only in memory.
  std::unordered_map<u64, int> owner;
  u64 capacity_lines;

  explicit Oracle(u64 cap) : capacity_lines(cap) {}

  enum class Kind { kHit, kC2c, kDram };

  Kind classify(int core, u64 line) const {
    auto it = owner.find(line);
    if (it == owner.end()) return Kind::kDram;
    return it->second == core ? Kind::kHit : Kind::kC2c;
  }
};

TEST(MemFuzz, ClassificationMatchesOwnershipOracle) {
  const CacheConfig cfg{.capacity_bytes = 4096, .line_bytes = 64, .ways = 4};
  MemorySystem ms(4, cfg, MemoryTimings{}, kFreq, Bandwidth::unlimited());
  Oracle oracle(cfg.num_lines());
  Rng rng(2024);

  // Use a footprint 4x one cache so evictions happen constantly. The
  // oracle cannot predict LRU victims, so it re-checks ownership through
  // the authoritative `resident()` probe after every access instead.
  const u64 lines_in_play = cfg.num_lines() * 4;
  u64 expected_hits = 0, expected_c2c = 0, expected_dram = 0;
  u64 oracle_confirms = 0;

  for (int step = 0; step < 20'000; ++step) {
    const int core = static_cast<int>(rng.below(4));
    const u64 line = rng.below(lines_in_play);
    const Address addr = line * cfg.line_bytes;
    const bool write = rng.chance(0.5);

    // Predict with the oracle *if* its ownership info is fresh: it tracks
    // who owned a line last, but eviction may have dropped it. Resolve by
    // probing residency first.
    const bool resident_somewhere = [&] {
      for (int c = 0; c < 4; ++c)
        if (ms.resident(c, addr, 1)) return true;
      return false;
    }();

    const auto before = ms.total_stats();
    ms.access(core, addr, 1,
              write ? MemorySystem::AccessType::kWrite
                    : MemorySystem::AccessType::kRead,
              Time::zero());
    const auto after = ms.total_stats();

    const u64 d_hit = after.hits - before.hits;
    const u64 d_c2c = after.misses_c2c - before.misses_c2c;
    const u64 d_dram = after.misses_dram - before.misses_dram;
    ASSERT_EQ(d_hit + d_c2c + d_dram, 1u) << "exactly one line accessed";

    if (resident_somewhere) {
      const auto kind = oracle.classify(core, line);
      if (kind == Oracle::Kind::kHit) {
        EXPECT_EQ(d_hit, 1u) << "step " << step;
        ++expected_hits;
      } else {
        // Owned by another core: must be a c2c transfer, never DRAM.
        EXPECT_EQ(d_c2c, 1u) << "step " << step;
        ++expected_c2c;
      }
      ++oracle_confirms;
    } else {
      EXPECT_EQ(d_dram, 1u) << "step " << step;
      ++expected_dram;
    }

    // After the access, the line must be resident exactly on `core`.
    EXPECT_TRUE(ms.resident(core, addr, 1));
    for (int c = 0; c < 4; ++c) {
      if (c != core) {
        EXPECT_FALSE(ms.resident(c, addr, 1));
      }
    }
    oracle.owner[line] = core;
  }

  // The fuzz actually exercised all three classes.
  EXPECT_GT(expected_hits, 100u);
  EXPECT_GT(expected_c2c, 100u);
  EXPECT_GT(expected_dram, 1000u);
  EXPECT_GT(oracle_confirms, 1000u);
}

TEST(MemFuzz, ResidencyNeverExceedsCapacity) {
  const CacheConfig cfg{.capacity_bytes = 2048, .line_bytes = 64, .ways = 2};
  MemorySystem ms(2, cfg, MemoryTimings{}, kFreq, Bandwidth::unlimited());
  Rng rng(7);
  for (int step = 0; step < 5'000; ++step) {
    const int core = static_cast<int>(rng.below(2));
    const Address addr = rng.below(1u << 16) * cfg.line_bytes;
    ms.access(core, addr, 1, MemorySystem::AccessType::kWrite, Time::zero());
  }
  // Count resident lines per core by probing the whole address range.
  for (int core = 0; core < 2; ++core) {
    u64 resident = 0;
    for (u64 line = 0; line < (1u << 16); ++line) {
      if (ms.resident(core, line * cfg.line_bytes, 1)) ++resident;
    }
    EXPECT_LE(resident, cfg.num_lines());
  }
}

TEST(MemFuzz, StatsBalanceExactly) {
  const CacheConfig cfg{.capacity_bytes = 4096, .line_bytes = 64, .ways = 4};
  MemorySystem ms(3, cfg, MemoryTimings{}, kFreq, Bandwidth::unlimited());
  Rng rng(99);
  u64 issued = 0;
  for (int step = 0; step < 10'000; ++step) {
    const int core = static_cast<int>(rng.below(3));
    const u64 lines = 1 + rng.below(8);
    const Address addr = rng.below(1u << 12) * cfg.line_bytes;
    ms.access(core, addr, lines * cfg.line_bytes,
              rng.chance(0.3) ? MemorySystem::AccessType::kWrite
                              : MemorySystem::AccessType::kRead,
              Time::zero());
    issued += lines;
  }
  const auto total = ms.total_stats();
  EXPECT_EQ(total.accesses, total.hits + total.misses());
  // Reuse is zero here, so accesses == lines issued.
  EXPECT_EQ(total.accesses, issued);
}

// The extent-granular model against the per-line walk it replaced: same
// random operations, identical results after every one. The mix covers
// 1 to 8 cores; 1-, 4-, 16- and 32-way caches (32 takes the wide recency
// order); aligned and unaligned ranges, some larger than a cache and some
// crossing directory pages; reuse 0-3; reads, writes and DMA; and DRAM
// unlimited or limited with a burst allowance of 0 or 4 KiB, at a rate
// low enough that queueing engages. Arrival times mostly advance but
// sometimes step back, as bookings from different cores do.
TEST(MemFuzz, ExtentModelMatchesLineWalk) {
  struct Dram {
    Bandwidth bandwidth;
    u64 allowance;
  };
  const Dram drams[] = {{Bandwidth::unlimited(), 256ull << 10},
                        {Bandwidth::mb_per_sec(1333), 0},
                        {Bandwidth::mb_per_sec(5333), 4096}};
  const u32 way_options[] = {1, 4, 16, 32};
  constexpr int kStepsPerConfig = 4'500;
  Rng rng(0xE47E);
  u64 ops = 0, queued = 0;
  for (const u32 ways : way_options) {
    for (const Dram& dram : drams) {
      const int cores = 1 + static_cast<int>(rng.below(8));
      const CacheConfig cfg{.capacity_bytes = 64ull * ways * 16,
                            .line_bytes = 64,
                            .ways = ways};
      MemoryTimings timings;
      timings.dram_burst_allowance = dram.allowance;
      const Frequency freq = rng.chance(0.5) ? Frequency::ghz(2.7)
                                              : Frequency::mhz(2'100);
      MemorySystem ms(cores, cfg, timings, freq, dram.bandwidth);
      reference::LineWalkMemory ref(cores, cfg, timings, freq,
                                    dram.bandwidth);
      // A window of a few cache-fulls that spans several directory pages,
      // plus fresh never-touched buffers as the bump allocator hands out.
      const u64 window = cfg.capacity_bytes * static_cast<u64>(cores) * 3;
      Address fresh = u64{1} << 30;
      Time clock = Time::zero();
      for (int step = 0; step < kStepsPerConfig; ++step, ++ops) {
        const CoreId core =
            static_cast<CoreId>(rng.below(static_cast<u64>(cores)));
        Address addr = rng.chance(0.1) ? fresh : rng.below(window);
        if (rng.chance(0.5)) addr &= ~u64{63};
        u64 bytes = 1 + rng.below(rng.chance(0.05) ? cfg.capacity_bytes * 2
                                                    : 48 * 64);
        if (addr == fresh) fresh += (bytes + 4095) & ~u64{4095};
        clock += Time::ps(static_cast<i64>(rng.below(400'000)));
        const Time now =
            rng.chance(0.2)
                ? clock - Time::ps(static_cast<i64>(rng.below(2'000'000)))
                : clock;
        Time got, want;
        const u64 roll = rng.below(10);
        if (roll < 2) {
          got = ms.dma_write(addr, bytes, now);
          want = ref.dma_write(addr, bytes, now);
        } else {
          const auto type = roll < 6 ? MemorySystem::AccessType::kRead
                                     : MemorySystem::AccessType::kWrite;
          const int reuse = static_cast<int>(rng.below(4));
          got = ms.access(core, addr, bytes, type, now, reuse);
          want = ref.access(core, addr, bytes, type, now, reuse);
        }
        const auto where = [&] {
          return "ways " + std::to_string(ways) + " dram " +
                 std::to_string(dram.bandwidth.bytes_per_second()) + "/" +
                 std::to_string(dram.allowance) + " step " +
                 std::to_string(step);
        };
        ASSERT_EQ(got, want) << where();
        if (got > Time::zero() && roll < 2) ++queued;
        for (CoreId c = 0; c < cores; ++c) {
          const CoreCacheStats& a = ms.core_stats(c);
          const CoreCacheStats& b = ref.core_stats(c);
          ASSERT_EQ(a.accesses, b.accesses) << where();
          ASSERT_EQ(a.hits, b.hits) << where();
          ASSERT_EQ(a.misses_dram, b.misses_dram) << where();
          ASSERT_EQ(a.misses_c2c, b.misses_c2c) << where();
          ASSERT_EQ(a.evictions, b.evictions) << where();
          ASSERT_EQ(a.writebacks, b.writebacks) << where();
          ASSERT_EQ(ms.resident(c, addr, bytes), ref.resident(c, addr, bytes))
              << where();
        }
        ASSERT_EQ(ms.c2c_transfers(), ref.c2c_transfers()) << where();
        ASSERT_EQ(ms.dram_line_reads(), ref.dram_line_reads()) << where();
        ASSERT_EQ(ms.dram_line_writes(), ref.dram_line_writes()) << where();
        ASSERT_EQ(ms.dram_busy_time(), ref.dram_busy_time()) << where();
        ASSERT_EQ(ms.check_coherence(), "") << where();
      }
    }
  }
  EXPECT_GE(ops, 50'000u);
  EXPECT_GT(queued, 100u);  // the limited controllers really queued
}

// The paper's client geometry (8 cores, 512 KiB 16-way caches, 256 KiB
// burst allowance, 5333 MB/s DRAM) driven through 64 KiB strip lifecycles:
// the NIC DMAs a strip in, one core touches it for writing with reuse 1,
// then that core or another reads it with reuse 3. Lifecycles from all
// cores overlap in time, so later bookings step back behind earlier ones
// and the backlog crosses the allowance in the middle of miss runs, and
// full caches write dirty victims back beside their fills. A twin with
// unlimited DRAM shows that queueing really engaged.
TEST(MemFuzz, StripLifecyclesMatchLineWalkAtPaperGeometry) {
  constexpr int kCores = 8;
  constexpr u64 kStrip = 64ull << 10;
  const CacheConfig cfg{.capacity_bytes = 512ull << 10, .line_bytes = 64,
                        .ways = 16};
  MemoryTimings timings;
  timings.dram_burst_allowance = 256ull << 10;
  const Bandwidth dram = Bandwidth::mb_per_sec(5333);
  const Frequency freq = Frequency::ghz(2.7);
  MemorySystem ms(kCores, cfg, timings, freq, dram);
  reference::LineWalkMemory ref(kCores, cfg, timings, freq, dram);
  MemorySystem free_dram(kCores, cfg, timings, freq, Bandwidth::unlimited());
  Rng rng(0x57219);
  Address fresh = u64{1} << 32;
  std::vector<Address> recent;  // strips still likely cached somewhere
  Time clock = Time::ms(1);
  u64 queued = 0;
  constexpr int kLifecycles = 600;
  for (int step = 0; step < kLifecycles; ++step) {
    Address strip;
    if (recent.size() >= 4 && rng.chance(0.2)) {
      strip = recent[rng.below(recent.size())];
    } else {
      strip = fresh;
      fresh += kStrip;
      recent.push_back(strip);
      if (recent.size() > 64) recent.erase(recent.begin());
    }
    const CoreId writer = static_cast<CoreId>(rng.below(kCores));
    const CoreId reader = rng.chance(0.5)
                              ? writer
                              : static_cast<CoreId>(rng.below(kCores));
    // Lifecycles start up to 120 us apart and each lasts about 100-400 us,
    // so several overlap and DRAM demand hovers around the DRAM rate.
    clock += Time::ps(static_cast<i64>(rng.below(120'000'000)));
    Time now = clock;
    const auto where = [&] { return "lifecycle " + std::to_string(step); };
    const Time dma = ms.dma_write(strip, kStrip, now);
    ASSERT_EQ(dma, ref.dma_write(strip, kStrip, now)) << where();
    free_dram.dma_write(strip, kStrip, now);
    now += dma;
    const struct {
      CoreId core;
      MemorySystem::AccessType type;
      int reuse;
    } touches[] = {{writer, MemorySystem::AccessType::kWrite, 1},
                   {reader, MemorySystem::AccessType::kRead, 3}};
    for (const auto& t : touches) {
      const Time got = ms.access(t.core, strip, kStrip, t.type, now, t.reuse);
      ASSERT_EQ(got, ref.access(t.core, strip, kStrip, t.type, now, t.reuse))
          << where();
      if (got > free_dram.access(t.core, strip, kStrip, t.type, now,
                                 t.reuse)) {
        ++queued;
      }
      now += got;
    }
    ASSERT_EQ(ms.dram_busy_time(), ref.dram_busy_time()) << where();
    ASSERT_EQ(ms.dram_line_writes(), ref.dram_line_writes()) << where();
    for (CoreId c = 0; c < kCores; ++c) {
      ASSERT_EQ(ms.core_stats(c).misses_dram, ref.core_stats(c).misses_dram)
          << where();
      ASSERT_EQ(ms.core_stats(c).writebacks, ref.core_stats(c).writebacks)
          << where();
    }
    if (step % 100 == 0) {
      ASSERT_EQ(ms.check_coherence(), "") << where();
    }
  }
  EXPECT_GT(ms.dram_line_writes(), 10'000u);  // dirty victims were booked
  EXPECT_GT(queued, kLifecycles / 4u);        // the allowance was crossed
}

}  // namespace
}  // namespace saisim::mem
