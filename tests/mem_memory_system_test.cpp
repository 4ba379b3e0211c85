#include "mem/memory_system.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace saisim::mem {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);  // 1 cycle == 1 ns

MemorySystem make_ms(int cores = 2, Bandwidth dram = Bandwidth::unlimited()) {
  const CacheConfig cfg{.capacity_bytes = 8192, .line_bytes = 64, .ways = 2};
  const MemoryTimings t{.l2_hit = Cycles{10},
                        .dram_access = Cycles{100},
                        .c2c_transfer = Cycles{400}};
  return MemorySystem(cores, cfg, t, kFreq, dram);
}

TEST(MemorySystem, ColdReadMissesToDram) {
  auto ms = make_ms();
  const Time cost = ms.access(0, 0, 64, MemorySystem::AccessType::kRead,
                              Time::zero());
  EXPECT_EQ(cost, Time::ns(100));
  EXPECT_EQ(ms.core_stats(0).misses_dram, 1u);
  EXPECT_EQ(ms.core_stats(0).accesses, 1u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, SecondReadHits) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  const Time cost =
      ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(cost, Time::ns(10));
  EXPECT_EQ(ms.core_stats(0).hits, 1u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, CrossCoreAccessPaysCacheToCacheTransfer) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kWrite, Time::zero());
  const Time cost =
      ms.access(1, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(cost, Time::ns(400));
  EXPECT_EQ(ms.core_stats(1).misses_c2c, 1u);
  EXPECT_EQ(ms.c2c_transfers(), 1u);
  // Ownership migrated: core 1 now hits, core 0 misses.
  EXPECT_TRUE(ms.resident(1, 0, 64));
  EXPECT_FALSE(ms.resident(0, 0, 64));
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, MigrationIsMoreExpensiveThanProcessingPremise) {
  // The paper's M >> P premise must hold under default timings.
  const MemoryTimings def{};
  EXPECT_GT(def.c2c_transfer.count(), 2 * def.dram_access.count() / 2);
  EXPECT_GT(def.c2c_transfer.count(), 10 * def.l2_hit.count());
}

TEST(MemorySystem, MultiLineAccessCountsEachLine) {
  auto ms = make_ms();
  const Time cost = ms.access(0, 0, 64 * 8, MemorySystem::AccessType::kRead,
                              Time::zero());
  EXPECT_EQ(ms.core_stats(0).accesses, 8u);
  EXPECT_EQ(ms.core_stats(0).misses_dram, 8u);
  EXPECT_EQ(cost, Time::ns(800));
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, UnalignedRangeTouchesStraddledLines) {
  auto ms = make_ms();
  ms.access(0, 60, 8, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(ms.core_stats(0).accesses, 2u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, DmaInvalidatesCachedCopies) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kWrite, Time::zero());
  EXPECT_TRUE(ms.resident(0, 0, 64));
  ms.dma_write(0, 64, Time::zero());
  EXPECT_FALSE(ms.resident(0, 0, 64));
  // Next access misses to DRAM, not c2c.
  ms.access(1, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(ms.core_stats(1).misses_c2c, 0u);
  EXPECT_EQ(ms.core_stats(1).misses_dram, 1u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, DirtyEvictionWritesBack) {
  auto ms = make_ms();
  // Cache: 64 sets... tiny config here: 8192/64/2 = 64 sets, 2 ways.
  // Fill one set (stride = 64 lines) with dirty lines, then overflow it.
  const u64 stride = 64 * 64;  // set count * line size
  ms.access(0, 0 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  ms.access(0, 1 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  ms.access(0, 2 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  EXPECT_EQ(ms.core_stats(0).evictions, 1u);
  EXPECT_EQ(ms.core_stats(0).writebacks, 1u);
  EXPECT_EQ(ms.dram_line_writes(), 1u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, EvictedLineCanBeReloaded) {
  auto ms = make_ms();
  const u64 stride = 64 * 64;
  ms.access(0, 0 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  ms.access(0, 1 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  ms.access(0, 2 * stride, 64, MemorySystem::AccessType::kWrite, Time::zero());
  // Line 0 was evicted; reloading it must be a DRAM miss, not a c2c hit on a
  // stale owner entry.
  ms.access(0, 0 * stride, 64, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(ms.core_stats(0).misses_c2c, 0u);
  EXPECT_EQ(ms.core_stats(0).misses_dram, 4u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, DramBandwidthWithinBurstAllowanceIsFree) {
  auto ms = make_ms(2, Bandwidth::mb_per_sec(64));
  // A single line is far below the burst allowance: latency only.
  const Time c1 =
      ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  EXPECT_EQ(c1, Time::ns(100));
  // Busy accounting still records the serialization.
  EXPECT_EQ(ms.dram_busy_time(), Time::us(1));
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, DramOversubscriptionQueues) {
  // 64 B/us controller, 256 KiB allowance: a 512 KiB DMA burst must pay
  // queueing for the half beyond the allowance.
  auto ms = make_ms(2, Bandwidth::mb_per_sec(64));
  const Time d = ms.dma_write(1ull << 30, 512ull << 10, Time::zero());
  const Time expected = Bandwidth::mb_per_sec(64).transfer_time(256ull << 10);
  EXPECT_EQ(d, expected);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, DramBacklogDrainsOverTime) {
  auto ms = make_ms(2, Bandwidth::mb_per_sec(64));
  (void)ms.dma_write(1ull << 30, 512ull << 10, Time::zero());
  // After enough wall time the backlog has fully drained; a new small
  // access pays no queueing.
  const Time later = Time::sec(1);
  const Time c =
      ms.access(0, 0, 64, MemorySystem::AccessType::kRead, later);
  EXPECT_EQ(c, Time::ns(100));
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, WriteMarksLineDirtyForLaterWriteback) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  ms.access(0, 0, 64, MemorySystem::AccessType::kWrite, Time::zero());  // hit
  const u64 stride = 64 * 64;
  ms.access(0, stride, 64, MemorySystem::AccessType::kRead, Time::zero());
  ms.access(0, 2 * stride, 64, MemorySystem::AccessType::kRead, Time::zero());
  // Eviction of line 0 (dirty via the write hit) must write back.
  EXPECT_EQ(ms.core_stats(0).writebacks, 1u);
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, TotalStatsAggregateAcrossCores) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  ms.access(1, 4096, 64, MemorySystem::AccessType::kRead, Time::zero());
  const auto total = ms.total_stats();
  EXPECT_EQ(total.accesses, 2u);
  EXPECT_EQ(total.misses_dram, 2u);
  EXPECT_DOUBLE_EQ(total.miss_rate(), 1.0);
  EXPECT_EQ(ms.check_coherence(), "");
}

// An empty range has no lines. resident() used to compute its last line
// as (addr + 0 - 1) / line: from address 0 that wraps to ~2^58 lines and
// walks them; from a line-aligned address it returned true.
TEST(MemorySystemDeathTest, ResidentRejectsEmptyRange) {
  auto ms = make_ms();
  ms.access(0, 0, 64, MemorySystem::AccessType::kRead, Time::zero());
  ASSERT_DEATH((void)ms.resident(0, 64, 0), "");
  EXPECT_DEATH((void)ms.resident(0, 0, 0), "");
  EXPECT_EQ(ms.check_coherence(), "");
}

// The directory and the caches stay in step while 200-line buffers move
// between cores (each move evicts and transfers) and while a DMA write
// drops lines from the current owner.
TEST(MemorySystem, CoherenceAuditHoldsAcrossMigrationAndDma) {
  auto ms = make_ms(4);
  for (CoreId c = 0; c < 4; ++c) {
    ms.access(c, 0, 64 * 200, MemorySystem::AccessType::kWrite,
              Time::zero());
    EXPECT_EQ(ms.check_coherence(), "");
  }
  ms.dma_write(64 * 50, 64 * 100, Time::zero());
  EXPECT_FALSE(ms.resident(3, 64 * 50, 64));
  EXPECT_EQ(ms.check_coherence(), "");
}

TEST(MemorySystem, MissRateDefinitionMatchesPaper) {
  // miss rate = #misses / #accesses.
  CoreCacheStats s;
  s.accesses = 100;
  s.misses_dram = 10;
  s.misses_c2c = 15;
  s.hits = 75;
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.25);
}

// book_run() against book_line() on every line of the same points: equal
// delay per run, equal busy time, and equal results for the next 100
// single bookings (so the state it leaves behaves the same). Runs mix
// dense, miss-paced and sparse gaps, 1- and 2-line points, arrivals that
// step back behind earlier runs, and general bookings in between, so
// backlogs cross the allowance both ways.
TEST(DramController, RunBookingMatchesPerLineBooking) {
  struct Pt {
    i64 cycles;
    u32 lines;
  };
  const i64 mbps_options[] = {1333, 5333};
  const Frequency freq_options[] = {Frequency::mhz(2'100),
                                    Frequency::mhz(2'700)};
  const u64 allowance_options[] = {0, 1024, 4096, 16384};
  Rng rng(0xB00C);
  u64 runs = 0, queued_runs = 0;
  for (const i64 mbps : mbps_options) {
    for (const Frequency freq : freq_options) {
      for (const u64 allowance : allowance_options) {
        const Bandwidth bw = Bandwidth::mb_per_sec(mbps);
        // drains[k]: the fewest cycles whose interval drains k lines.
        i64 drains[3] = {};
        for (u64 k = 1; k <= 2; ++k) {
          while (static_cast<u64>(bw.bytes_per_second()) *
                     static_cast<u64>(
                         freq.duration(Cycles{drains[k]}).picoseconds()) /
                     1'000'000'000'000ull <
                 64 * k) {
            ++drains[k];
          }
        }
        for (int trial = 0; trial < 24; ++trial) {
          DramController by_run(bw, 64, allowance, freq);
          DramController by_line(bw, 64, allowance, freq);
          Time clock = Time::ms(10);
          for (int r = 0; r < 40; ++r, ++runs) {
            const auto where = [&] {
              return std::to_string(mbps) + " MB/s " +
                     std::to_string(freq.hertz()) + " Hz allowance " +
                     std::to_string(allowance) + " trial " +
                     std::to_string(trial) + " run " + std::to_string(r);
            };
            if (rng.chance(0.05)) {
              const u64 bytes = 1 + rng.below(8192);
              ASSERT_EQ(by_run.book(bytes, clock), by_line.book(bytes, clock))
                  << where();
            }
            std::vector<Pt> pts;
            const u64 n = rng.chance(0.1) ? 1 : 1 + rng.below(256);
            // Dense, miss-paced, sparse, or gaps at and just below the
            // bound where an interval drains a point's lines.
            const u64 mode = rng.below(4);
            const i64 near = drains[1 + rng.below(2)] - 2 +
                             static_cast<i64>(rng.below(3));
            i64 cycles = static_cast<i64>(rng.below(2'000));
            for (u64 k = 0; k < n; ++k) {
              const i64 roll = static_cast<i64>(rng.below(5'000));
              cycles += mode == 0   ? roll % 40
                        : mode == 1 ? 250 + roll % 60
                        : mode == 2 ? 250 + roll
                                    : near + roll % 2;
              pts.push_back({cycles, rng.chance(0.3) ? 2u : 1u});
            }
            const Time now =
                rng.chance(0.3)
                    ? clock - Time::ps(static_cast<i64>(rng.below(3'000'000)))
                    : clock;
            const Time queue = Time::ps(static_cast<i64>(rng.below(1'000)));
            DramRun run;
            for (const Pt& p : pts) run.add(p.cycles, p.lines);
            const Time got = by_run.book_run(run, now, queue);
            Time q = queue;
            for (const Pt& p : pts) {
              const Time arrival = now + freq.duration(Cycles{p.cycles}) + q;
              for (u32 l = 0; l < p.lines; ++l) q += by_line.book_line(arrival);
            }
            ASSERT_EQ(got, q - queue) << where();
            ASSERT_EQ(by_run.busy(), by_line.busy()) << where();
            if (got > Time::zero()) ++queued_runs;
            clock += Time::ps(static_cast<i64>(rng.below(
                mode == 0 ? 200'000 : 4'000'000)));
          }
          for (int k = 0; k < 100; ++k) {
            clock += Time::ps(static_cast<i64>(rng.below(60'000)));
            ASSERT_EQ(by_run.book_line(clock), by_line.book_line(clock))
                << "trial " << trial << " single booking " << k;
          }
          ASSERT_EQ(by_run.busy(), by_line.busy());
        }
      }
    }
  }
  EXPECT_EQ(runs, 2u * 2 * 4 * 24 * 40);
  EXPECT_GT(queued_runs, runs / 10);  // the allowance was really crossed
}

}  // namespace
}  // namespace saisim::mem
