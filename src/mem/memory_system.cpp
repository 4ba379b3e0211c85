#include "mem/memory_system.hpp"

#include <algorithm>
#include <string>

#include "trace/tracer.hpp"

namespace saisim::mem {

namespace {
constexpr u64 kPsPerSecond = 1'000'000'000'000ull;
}  // namespace

DramController::DramController(Bandwidth bandwidth, u64 line_bytes,
                               u64 burst_allowance, Frequency core_freq)
    : bw_(bandwidth),
      bps_(bandwidth.is_unlimited()
               ? 1
               : static_cast<u64>(bandwidth.bytes_per_second())),
      line_bytes_(line_bytes),
      allowance_(burst_allowance),
      core_freq_(core_freq),
      drain_memo_(bps_, kPsPerSecond),
      phase_memo_(kPsPerSecond, bps_) {
  if (!unlimited()) {
    line_xfer_ = bw_.transfer_time(line_bytes);
    line_rem_ = static_cast<u64>(static_cast<u128>(line_bytes) *
                                 kPsPerSecond % bps_);
    // An interval of ps drains floor(ps * bps / 1e12) bytes, so k lines
    // need ceil(k * line * 1e12 / bps) ps, and a gap of g cycles lasts at
    // least floor(g * 1e12 / hz) ps.
    const u128 hz = static_cast<u128>(core_freq.hertz());
    for (u64 k = 1; k <= 2; ++k) {
      const u128 ps = (static_cast<u128>(k * line_bytes) * kPsPerSecond +
                       bps_ - 1) / bps_;
      clear_gap_[k] =
          static_cast<i64>((ps * hz + kPsPerSecond - 1) / kPsPerSecond);
    }
  }
}

Time DramController::penalty(u64 backlog) const {
  return backlog <= allowance_ ? Time::zero()
                               : bw_.transfer_time(backlog - allowance_);
}

void DramController::drain(Time now) {
  if (now <= last_update_) return;
  const u64 elapsed = static_cast<u64>((now - last_update_).picoseconds());
  last_update_ = now;
  const u64 drained = drain_memo_(elapsed).q;
  if (drained >= backlog_) {
    backlog_ = 0;
    return;
  }
  backlog_ -= drained;
  if (phase_valid_ && backlog_ > allowance_) {
    const u64 r = phase_memo_(drained).r;
    phase_ = phase_ >= r ? phase_ - r : phase_ + (bps_ - r);
  } else {
    phase_valid_ = false;
  }
}

Time DramController::book(u64 bytes, Time now) {
  if (unlimited()) return Time::zero();
  drain(now);
  const Time before = penalty(backlog_);
  backlog_ += bytes;
  busy_ += bw_.transfer_time(bytes);
  phase_valid_ = false;
  return penalty(backlog_) - before;
}

Time DramController::book_line(Time now) {
  busy_ += line_xfer_;
  return queue_line(now);
}

Time DramController::queue_line(Time now) {
  drain(now);
  const u64 before = backlog_;
  backlog_ += line_bytes_;
  if (backlog_ <= allowance_) return Time::zero();
  if (before <= allowance_ || !phase_valid_) {
    // Entering the queueing regime: one division sets the phase up.
    phase_ = static_cast<u64>(static_cast<u128>(backlog_ - allowance_) *
                              kPsPerSecond % bps_);
    phase_valid_ = true;
    return penalty(backlog_) - penalty(before);
  }
  Time inc = line_xfer_;
  phase_ += line_rem_;
  if (phase_ >= bps_) {
    phase_ -= bps_;
    inc += Time::ps(1);
  }
  return inc;
}

// A run is booked in three kinds of stretch, each reaching the state the
// per-line steps would:
//  * points arriving no later than last_update_ drain nothing, so their
//    delays telescope to penalty(end) - penalty(start) (book_undrained);
//  * once the backlog left before a point is no more than the drain of
//    the run's smallest gap, every later point drains it to zero and books
//    below the allowance: each adds no delay, and the end state is the
//    last point's lines at the last arrival;
//  * anything else (partial drains) goes through queue_line per line.
// Arrivals are one multiply-divide each: stepping duration() by quotient
// and remainder sums to floor(cycles * 1e12 / hz).
Time DramController::book_run(const DramRun& run, Time now, Time queue) {
  const u64 n = run.size();
  busy_ += line_xfer_ * static_cast<i64>(run.lines());
  const u64 max_bytes = run.max_lines() * line_bytes_;
  const bool can_clear =
      max_bytes <= allowance_ && run.min_gap() >= clear_gap_[run.max_lines()];
  Time q = queue;
  bool drained_prev = false;  // the previous point drained at its arrival
  for (u64 i = 0; i < n;) {
    const Time arrival =
        now + core_freq_.duration(Cycles{run[i].cycles}) + q;
    if (arrival <= last_update_) {
      i = book_undrained(run, i, now, q);
      drained_prev = false;
      continue;
    }
    if (can_clear) {
      // After a drained point the next interval spans at least the
      // smallest gap; otherwise measure this one.
      const bool clears =
          drained_prev
              ? backlog_ <= max_bytes
              : static_cast<u64>(detail::muldiv(
                    (arrival - last_update_).picoseconds(),
                    static_cast<i64>(bps_),
                    static_cast<i64>(kPsPerSecond))) >= backlog_;
      if (clears) {
        const DramRun::Point& last = run[n - 1];
        backlog_ = last.lines * line_bytes_;
        last_update_ = now + core_freq_.duration(Cycles{last.cycles}) + q;
        return q - queue;
      }
    }
    for (u32 l = 0; l < run[i].lines; ++l) q += queue_line(arrival);
    drained_prev = true;
    ++i;
  }
  return q - queue;
}

u64 DramController::book_undrained(const DramRun& run, u64 i, Time now,
                                   Time& queue) {
  const u64 n = run.size();
  if (backlog_ <= allowance_) {
    // Below the allowance a booking adds no delay, so later arrivals stay
    // put: the stretch is every point up to the last cycle count whose
    // duration fits before last_update_, until a booking crosses the
    // allowance. duration(c) <= slack iff c * 1e12 < (slack + 1) * hz.
    const u128 slack =
        static_cast<u128>((last_update_ - now - queue).picoseconds());
    const u128 bound =
        ((slack + 1) * static_cast<u64>(core_freq_.hertz()) - 1) /
        kPsPerSecond;
    const i64 last_cycles =
        bound > static_cast<u128>(INT64_MAX) ? INT64_MAX
                                             : static_cast<i64>(bound);
    for (; i < n && run[i].cycles <= last_cycles; ++i) {
      backlog_ += run[i].lines * line_bytes_;
      if (backlog_ > allowance_) {
        // This point crosses into the queueing regime: its delay is the
        // whole penalty of the new backlog, and one division sets the
        // phase up.
        const u128 ps =
            static_cast<u128>(backlog_ - allowance_) * kPsPerSecond;
        queue += Time::ps(static_cast<i64>(ps / bps_));
        phase_ = static_cast<u64>(ps % bps_);
        phase_valid_ = true;
        ++i;
        break;
      }
    }
    if (backlog_ <= allowance_) return i;
  } else if (!phase_valid_) {
    phase_ = static_cast<u64>(static_cast<u128>(backlog_ - allowance_) *
                              kPsPerSecond % bps_);
    phase_valid_ = true;
  }
  // Above the allowance m more lines add m * line_xfer_ plus the carries
  // out of phase_ + m * line_rem_, and that delay moves every later
  // arrival. Arrivals still rise with the point, so one binary search
  // finds the first that drains.
  const u32 base = run.lines_before(i);
  const auto delay = [&](u64 j) {
    const u64 m = run.lines_before(j) - base;
    return line_xfer_ * static_cast<i64>(m) +
           Time::ps(static_cast<i64>((phase_ + m * line_rem_) / bps_));
  };
  u64 lo = i, hi = n;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    const Time arrival = now + core_freq_.duration(Cycles{run[mid].cycles}) +
                         queue + delay(mid);
    if (arrival <= last_update_) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const u64 m = run.lines_before(lo) - base;
  queue += delay(lo);
  phase_ = (phase_ + m * line_rem_) % bps_;
  backlog_ += m * line_bytes_;
  return lo;
}

MemorySystem::MemorySystem(int num_cores, const CacheConfig& cache_cfg,
                           const MemoryTimings& timings, Frequency core_freq,
                           Bandwidth dram_bandwidth)
    : cache_cfg_(cache_cfg),
      timings_(timings),
      core_freq_(core_freq),
      dram_(dram_bandwidth, cache_cfg.line_bytes,
            timings.dram_burst_allowance, core_freq) {
  SAISIM_CHECK(num_cores > 0 && num_cores <= OwnerDirectory::kMaxCores);
  SAISIM_CHECK(cache_cfg.ways <= OwnerDirectory::kMaxWays);
  caches_.reserve(static_cast<u64>(num_cores));
  for (int i = 0; i < num_cores; ++i) caches_.emplace_back(cache_cfg);
  stats_.resize(static_cast<u64>(num_cores));
}

Time MemorySystem::access(CoreId core, Address addr, u64 bytes,
                          AccessType type, Time now, int reuse_per_line) {
  using Dir = OwnerDirectory;
  SAISIM_CHECK(core >= 0 && core < num_cores());
  SAISIM_CHECK(bytes > 0);
  SAISIM_CHECK(reuse_per_line >= 0);
  Cache& cache = caches_[static_cast<u64>(core)];

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
  const i64 hit_step = reuse_cycles + hit_cycles;
  const bool dram_limited = !dram_.unlimited();

  i64 cycles = 0;
  Time dram_queue = Time::zero();
  DramRun run;
  u64 hits = 0, misses_c2c = 0, misses_dram = 0;
  u64 evictions = 0, writebacks = 0;

  LineAddr line = first;
  while (line <= last) {
    // One directory page per chunk. Its slots say where each line lives,
    // so hits and transfers address the right way directly, and an empty
    // slot is a DRAM fill with no tag scan. Every line walked ends up in
    // this core's cache, so the page is needed either way.
    const LineAddr chunk_last = std::min(last, line | (Dir::kPageLines - 1));
    Dir::Page& page = owner_.page_for(line);
    run.clear();
    while (line <= chunk_last) {
      Dir::Slot s = page.slots[Dir::page_offset(line)];
      if (Dir::owner_of(s) == core) {
        // Hit run: consumed in one tight loop, booked once.
        const LineAddr run_start = line;
        do {
          cache.touch(cache.set_of(line), Dir::way_of(s), is_write);
          ++line;
        } while (line <= chunk_last &&
                 Dir::owner_of(s = page.slots[Dir::page_offset(line)]) ==
                     core);
        const u64 run_lines = line - run_start;
        hits += run_lines;
        cycles += static_cast<i64>(run_lines) * hit_step;
        continue;
      }

      // Miss: another core's cache owns the line (c2c transfer, moving
      // ownership) or it comes from DRAM. The controller's drain clock
      // sees the access's own progression: the DRAM lines this miss books
      // arrive after the latency cycles accrued up to it, plus the
      // queueing booked before it.
      cycles += reuse_cycles;
      const i64 miss_cycles = cycles;
      u32 dram_lines = 0;
      if (s != 0) {
        const CoreId prev = Dir::owner_of(s);
        Cache& prev_cache = caches_[static_cast<u64>(prev)];
        const u64 set = cache.set_of(line);
        SAISIM_CHECK_MSG(prev_cache.valid(set, Dir::way_of(s)) &&
                             prev_cache.line_at(set, Dir::way_of(s)) == line,
                         "owner map out of sync with cache");
        prev_cache.invalidate_way(set, Dir::way_of(s));
        ++misses_c2c;
        ++c2c_transfers_;
        cycles += timings_.c2c_transfer.count();
        // Dirty data moves cache-to-cache; ownership transfers with it, so
        // no writeback to DRAM happens here.
      } else {
        ++misses_dram;
        ++dram_line_reads_;
        cycles += timings_.dram_access.count();
        dram_lines = 1;
      }

      // The victim is the LRU way: O(1). The new line's slot is written
      // before the victim's is cleared, so the page in hand never empties.
      const Cache::Fill fill = cache.fill(line, is_write);
      owner_.set(page, line, Dir::slot(core, fill.way));
      if (fill.evicted) {
        ++evictions;
        const LineAddr victim = fill.evicted->line;
        Dir::Page* victim_page = owner_.find_page(victim);
        SAISIM_CHECK_MSG(victim_page != nullptr,
                         "owner map out of sync with cache");
        owner_.clear(*victim_page, victim);
        if (fill.evicted->dirty) {
          ++writebacks;
          ++dram_line_writes_;
          ++dram_lines;
        }
      }
      if (dram_limited && dram_lines != 0) run.add(miss_cycles, dram_lines);
      ++line;
    }
    // The page's bookings go to the controller together; the walk above
    // never reads the clock, so deferring them changes nothing.
    if (!run.empty()) dram_queue += dram_.book_run(run, now, dram_queue);
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

Time MemorySystem::dma_write(Address addr, u64 bytes, Time now) {
  using Dir = OwnerDirectory;
  SAISIM_CHECK(bytes > 0);
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;

  // Invalidate any stale cached copies (coherent DMA) as a range clear: a
  // directory page with no resident line (a freshly allocated buffer) is
  // skipped whole, and each resident line's slot names the way to drop.
  i64 invalidated = 0;
  for (LineAddr line = first; line <= last;) {
    const LineAddr chunk_last = std::min(last, line | (Dir::kPageLines - 1));
    Dir::Page* page = owner_.find_page(line);
    for (; page != nullptr && line <= chunk_last; ++line) {
      const Dir::Slot s = page->slots[Dir::page_offset(line)];
      if (s == 0) continue;
      caches_[static_cast<u64>(Dir::owner_of(s))].invalidate_way(
          caches_.front().set_of(line), Dir::way_of(s));
      ++invalidated;
      if (owner_.clear(*page, line)) page = nullptr;
    }
    line = chunk_last + 1;
  }
  SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kDmaWrite, now,
                     -1, -1, -1, static_cast<i64>(bytes), invalidated);
  return dram_.book(bytes, now);
}

bool MemorySystem::resident(CoreId core, Address addr, u64 bytes) const {
  SAISIM_CHECK(core >= 0 && core < num_cores());
  SAISIM_CHECK(bytes > 0);
  const Cache& cache = caches_[static_cast<u64>(core)];
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;
  for (LineAddr line = first; line <= last; ++line) {
    if (!cache.contains(line)) return false;
  }
  return true;
}

std::string MemorySystem::check_coherence() const {
  using Dir = OwnerDirectory;
  const u32 ways = cache_cfg_.ways;
  u64 cached = 0;
  for (int c = 0; c < num_cores(); ++c) {
    const Cache& cache = caches_[static_cast<u64>(c)];
    const std::string where = "core " + std::to_string(c);
    u64 valid = 0;
    for (u64 set = 0; set < cache_cfg_.num_sets(); ++set) {
      std::vector<bool> seen(ways, false);
      bool invalid_above = false;
      for (const u32 way : cache.recency(set)) {
        if (way >= ways || seen[way]) {
          return where + " set " + std::to_string(set) +
                 ": recency order is not a permutation of the ways";
        }
        seen[way] = true;
        if (!cache.valid(set, way)) {
          invalid_above = true;
          continue;
        }
        if (invalid_above) {
          return where + " set " + std::to_string(set) +
                 ": a valid way sits below an invalid one in LRU order";
        }
        ++valid;
        const LineAddr line = cache.line_at(set, way);
        if (cache.set_of(line) != set ||
            owner_.lookup(line) != Dir::slot(c, way)) {
          return where + ": line " + std::to_string(line) +
                 " is cached but the directory does not record it there";
        }
      }
    }
    if (valid != cache.resident_lines()) {
      return where + ": " + std::to_string(valid) + " valid lines but " +
             std::to_string(cache.resident_lines()) + " counted resident";
    }
    cached += valid;
  }
  if (cached != owner_.size()) {
    return "directory holds " + std::to_string(owner_.size()) +
           " lines, caches hold " + std::to_string(cached);
  }
  return {};
}

CoreCacheStats MemorySystem::total_stats() const {
  CoreCacheStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

}  // namespace saisim::mem
