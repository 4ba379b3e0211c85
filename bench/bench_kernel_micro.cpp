// Microbenchmarks for the DES kernel hot paths: the per-64B-line memory
// walk, owner-directory churn, the event queue, and one small end-to-end
// experiment. These are the structures the figure sweeps spend their time
// in, so `tools/perf_baseline.py` runs this binary (plus a timed figure
// bench) and records the results in BENCH_kernel.json — the repo's perf
// trajectory. CI runs it with --benchmark_min_time=1x as a smoke test.
//
// All benchmarks are deterministic (fixed seeds, fixed walk orders); they
// measure the kernel's data structures, not the model, so DRAM bandwidth is
// left unlimited except in the end-to-end case.
#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "mem/memory_system.hpp"
#include "sim/event_queue.hpp"
#include "sweep/cli.hpp"
#include "sweep/cli_config.hpp"
#include "util/rng.hpp"

namespace saisim {
namespace {

sweep::CliOptions& cli() {
  static sweep::CliOptions opts;
  return opts;
}

/// The end-to-end case's config, with the shared --config/--set/
/// --dump-config flags applied on top (the data-structure microbenches
/// take no config).
const ExperimentConfig& small_config() {
  static const ExperimentConfig resolved = [] {
    ExperimentConfig cfg;
    cfg.num_servers = 8;
    cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
    cfg.client.nic.queues = 1;
    cfg.ior.transfer_size = 128ull << 10;
    cfg.ior.total_bytes = 2ull << 20;
    sweep::resolve_config(cli(), cfg);
    return cfg;
  }();
  return resolved;
}

constexpr Frequency kFreq = Frequency::ghz(2.7);
constexpr u64 kLine = 64;
constexpr u64 kStrip = 64ull << 10;  // one PFS strip

mem::MemorySystem make_mem(int cores = 8) {
  return mem::MemorySystem(cores, mem::CacheConfig{}, mem::MemoryTimings{},
                           kFreq, Bandwidth::unlimited());
}

/// Streaming cold walk: every line misses to DRAM; exercises insert,
/// eviction, and the owner-directory insert/erase pair per line.
void BM_MemWalkColdStream(benchmark::State& state) {
  auto ms = make_mem();
  const u64 region = 64ull << 20;  // far beyond the 512 KiB L2
  Address cursor = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall = ms.access(0, cursor, kStrip,
                                 mem::MemorySystem::AccessType::kRead, now,
                                 /*reuse_per_line=*/1);
    benchmark::DoNotOptimize(stall);
    now += stall;
    cursor = (cursor + kStrip) % region;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_MemWalkColdStream);

/// Hot walk: a buffer that fits the private cache, re-read in full each
/// iteration — the pure hit path (find + LRU refresh per line).
void BM_MemWalkHotReread(benchmark::State& state) {
  auto ms = make_mem();
  const u64 buf = 256ull << 10;  // half the 512 KiB L2
  ms.access(0, 0, buf, mem::MemorySystem::AccessType::kRead, Time::zero());
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall =
        ms.access(0, 0, buf, mem::MemorySystem::AccessType::kRead, now);
    benchmark::DoNotOptimize(stall);
    now += stall;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf));
}
BENCHMARK(BM_MemWalkHotReread);

/// Cache-to-cache ping-pong: two cores alternately read the same buffer, so
/// every line is a c2c transfer and an in-place ownership move.
void BM_MemWalkC2cPingPong(benchmark::State& state) {
  auto ms = make_mem();
  const u64 buf = 256ull << 10;
  ms.access(0, 0, buf, mem::MemorySystem::AccessType::kWrite, Time::zero());
  CoreId core = 1;
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall =
        ms.access(core, 0, buf, mem::MemorySystem::AccessType::kRead, now);
    benchmark::DoNotOptimize(stall);
    now += stall;
    core = core == 0 ? 1 : 0;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf));
}
BENCHMARK(BM_MemWalkC2cPingPong);

/// Owner-directory churn: fill a strip's worth of owner entries, then DMA
/// over the same range to invalidate them (insert + erase per line, the
/// NIC RX landing pattern).
void BM_OwnerDirectoryChurn(benchmark::State& state) {
  auto ms = make_mem();
  Time now = Time::zero();
  for (auto _ : state) {
    now += ms.access(0, 0, kStrip, mem::MemorySystem::AccessType::kRead, now);
    now += ms.dma_write(0, kStrip, now);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 2 *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_OwnerDirectoryChurn);

/// Schedule a burst of events with a deliberately chunky capture (larger
/// than std::function's inline buffer), then pop them all.
void BM_EventSchedulePop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1234);
  u64 sink[4] = {0, 1, 2, 3};
  constexpr int kBurst = 1024;
  for (auto _ : state) {
    const Time base = q.last_popped();
    for (int i = 0; i < kBurst; ++i) {
      q.schedule(base + Time::ns(static_cast<i64>(rng.below(10'000))),
                 [sink, &q]() mutable {
                   sink[0] += q.last_popped().picoseconds() != 0 ? 1u : 0u;
                   benchmark::DoNotOptimize(sink);
                 });
    }
    while (!q.empty()) q.pop().fn();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBurst);
}
BENCHMARK(BM_EventSchedulePop);

/// Schedule a burst, cancel most of it, pop the rest — the CPU-preemption
/// pattern. The old CancelSet made each pop scan every outstanding cancel;
/// this is the structure the ≥3× event-path target is about.
void BM_EventScheduleCancelPop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(987);
  constexpr int kBurst = 1024;
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBurst);
  u64 fired = 0;
  for (auto _ : state) {
    handles.clear();
    const Time base = q.last_popped();
    for (int i = 0; i < kBurst; ++i) {
      handles.push_back(
          q.schedule(base + Time::ns(static_cast<i64>(rng.below(10'000))),
                     [&fired] { ++fired; }));
    }
    for (u64 i = 0; i < handles.size(); ++i) {
      if (i % 8 != 0) q.cancel(handles[i]);  // cancel 7/8ths
    }
    while (!q.empty()) q.pop().fn();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBurst);
}
BENCHMARK(BM_EventScheduleCancelPop);

/// End-to-end: one small full-stack experiment (8 servers, 128 KiB
/// transfers, 2 MiB per process) — the unit of work every figure sweep
/// point pays.
void BM_ExperimentSmall(benchmark::State& state) {
  for (auto _ : state) {
    const RunMetrics m = run_experiment(small_config());
    benchmark::DoNotOptimize(m.bandwidth_mbps);
  }
}
BENCHMARK(BM_ExperimentSmall)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saisim

int main(int argc, char** argv) {
  saisim::cli() = saisim::sweep::parse_cli(&argc, argv);
  saisim::small_config();  // resolve --config/--set/--dump-config up front
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
