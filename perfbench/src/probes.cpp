#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "apic/io_apic.hpp"
#include "core/policy.hpp"
#include "cpu/cpu_system.hpp"
#include "mem/address_space.hpp"
#include "mem/memory_system.hpp"
#include "net/network.hpp"
#include "pfs/buffer_cache.hpp"
#include "pfs/straggler_sched.hpp"
#include "pfs/stripe_layout.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace saisim;

namespace {

using Clock = std::chrono::steady_clock;

// Keeps results the timed loops compute from being optimised away.
volatile u64 g_sink = 0;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Deterministic probe-side randomness; never touches simulator RNG state.
struct XorShift {
  u64 s;
  u64 next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

mem::MemorySystem make_memory(const ExperimentConfig& cfg) {
  return mem::MemorySystem(cfg.client.cores, cfg.client.cache,
                           cfg.client.timings, cfg.client.core_freq,
                           cfg.client.dram_bandwidth);
}

}  // namespace

Batch probe_mem_strips(const ExperimentConfig& cfg, bool migrated,
                       u64 strips) {
  mem::MemorySystem memory = make_memory(cfg);
  mem::AddressSpace space(cfg.client.cache.line_bytes);
  const u64 strip = cfg.strip_size;
  // Strips arrive at the client NIC's line rate.
  const Time gap = cfg.client.nic_bandwidth.transfer_time(strip);
  const int cores = cfg.client.cores;
  Time now = Time::zero();
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < strips; ++i) {
    const mem::AddressRange r = space.allocate(strip);
    const CoreId handler = static_cast<CoreId>(i % static_cast<u64>(cores));
    const CoreId consumer = migrated ? (handler + 1) % cores : handler;
    const Time landed = now + memory.dma_write(r.base, strip, now);
    const Time copied =
        landed + memory.access(handler, r.base, strip,
                               mem::MemorySystem::AccessType::kWrite, landed,
                               cfg.client.nic.touch_reuse);
    memory.access(consumer, r.base, strip,
                  mem::MemorySystem::AccessType::kRead, copied,
                  cfg.ior.compute_reuse_per_line);
    now += gap;
  }
  return Batch{strips, 0, ns_since(t0)};
}

Batch probe_mem_construct(const ExperimentConfig& cfg, u64 count) {
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < count; ++i) {
    g_sink = static_cast<u64>(make_memory(cfg).num_cores());
  }
  return Batch{count, 0, ns_since(t0)};
}

Batch probe_sim(u64 depth, double cancel_share, u64 events) {
  struct Kernel {
    sim::Simulation sim{0x5A15u};
    XorShift rng{0x9E3779B97F4A7C15ull};
    double cancel_share = 0.0;
    sim::EventHandle timer;

    void arm() {
      // Delays spread over ~1 µs keep the heap ordering non-trivial.
      sim.after(Time::ps(static_cast<i64>(1000 + rng.next() % 1'000'000)),
                [this] { fire(); });
    }
    void fire() {
      arm();
      if (rng.unit() < cancel_share) {
        sim.cancel_if_armed(timer);
        timer = sim.after(Time::ms(10), [] {});
      }
    }
  };
  Kernel d;
  d.cancel_share = cancel_share;
  for (u64 i = 0; i < (depth == 0 ? 1 : depth); ++i) d.arm();
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < events; ++i) d.sim.step();
  const double ns = ns_since(t0);
  return Batch{events, events, ns};
}

Batch probe_net(const ExperimentConfig& cfg, u64 packets) {
  sim::Simulation simulation(cfg.seed);
  net::Network network(simulation, cfg.switch_latency);
  const NodeId server = network.add_node(
      cfg.server.nic_bandwidth, cfg.server.nic_bandwidth, cfg.link_latency);
  const NodeId client = network.add_node(
      cfg.client.nic_bandwidth, cfg.client.nic_bandwidth, cfg.link_latency);
  network.set_receiver(client, [](net::Packet) {});
  std::optional<net::FaultInjector> faults;
  if (net::fault_enabled(cfg.fault)) {
    net::FaultConfig fc = cfg.fault;
    fc.straggler_node = -1;  // the probe's server is not the straggler
    faults.emplace(fc);
    network.set_fault_injector(&*faults);
  }
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < packets; ++i) {
    net::Packet p;
    p.id = i;
    p.kind = net::PacketKind::kPfsData;
    p.src = server;
    p.dst = client;
    p.request = static_cast<RequestId>(i);
    p.payload_bytes = cfg.strip_size;
    p.span_bytes = cfg.strip_size;
    network.send(std::move(p));
  }
  simulation.run();
  const double ns = ns_since(t0);
  return Batch{packets, simulation.events_executed(), ns};
}

Batch probe_apic(const ExperimentConfig& cfg, PolicyKind policy, u64 irqs) {
  sim::Simulation simulation(cfg.seed);
  cpu::CpuSystem cpus(simulation, cfg.client.cores, cfg.client.core_freq,
                      cfg.client.user_quantum);
  apic::IoApic io_apic(simulation, cpus, make_policy(policy));
  const bool hints = policy_uses_hints(policy);
  const Cycles softirq = cfg.client.nic.per_packet_cycles;
  const u64 queues = static_cast<u64>(cfg.client.nic.queues);
  const u64 procs = static_cast<u64>(cfg.procs_per_client);
  // One interrupt per strip at the client NIC's line rate.
  const Time gap = cfg.client.nic_bandwidth.transfer_time(cfg.strip_size);
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < irqs; ++i) {
    apic::InterruptMessage msg;
    msg.vector = cfg.client.nic.vector_base + static_cast<int>(i % queues);
    msg.aff_core_id = hints ? static_cast<CoreId>(i % procs) : kNoCore;
    msg.request = static_cast<RequestId>(i);
    msg.softirq_cost = [softirq](CoreId, Time) { return softirq; };
    io_apic.raise(std::move(msg));
    simulation.run_until(simulation.now() + gap);
  }
  simulation.run();
  const double ns = ns_since(t0);
  return Batch{irqs, simulation.events_executed(), ns};
}

Batch probe_cpu(const ExperimentConfig& cfg, u64 items) {
  sim::Simulation simulation(cfg.seed);
  cpu::Core core(simulation, 0, cfg.client.core_freq,
                 cfg.client.user_quantum);
  const Cycles user = cfg.ior.syscall_cycles;
  const Cycles irq = cfg.client.nic.per_packet_cycles;
  const Time gap = cfg.client.core_freq.duration(user);
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < items; ++i) {
    const bool interrupt = i % 2 == 1;
    core.submit(cpu::WorkItem{
        .prio = interrupt ? cpu::Priority::kInterrupt : cpu::Priority::kUser,
        .cost = [c = interrupt ? irq : user](Time) { return c; },
        .on_complete = [](Time) {},
        .tag = "perfbench",
    });
    // Interrupts land mid-way through the user item they preempt.
    simulation.run_until(simulation.now() + (interrupt ? gap : gap / 2));
  }
  simulation.run();
  const double ns = ns_since(t0);
  return Batch{items, simulation.events_executed(), ns};
}

Batch probe_pfs(const ExperimentConfig& cfg, u64 requests) {
  const pfs::StripeLayout layout(cfg.strip_size, cfg.num_servers);
  const u64 servers = static_cast<u64>(cfg.num_servers);
  std::optional<pfs::StragglerScheduler> sched;
  if (pfs::client_sched_enabled(cfg.client.sched)) {
    sched.emplace(cfg.client.sched, servers);
  }
  const u64 transfer = cfg.ior.transfer_size;
  const bool random = cfg.ior.pattern == workload::AccessPattern::kRandom;
  const u64 slots = cfg.ior.file_region_bytes / transfer;
  std::vector<pfs::StripSpan> spans(layout.count_spans(0, transfer) + 1);
  XorShift rng{cfg.seed | 1};
  u64 sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (u64 i = 0; i < requests; ++i) {
    const u64 offset = (random ? rng.next() % slots : i) * transfer;
    const u32 n = layout.count_spans(offset, transfer);
    layout.decompose_into(offset, transfer, spans.data());
    if (sched) {
      sched->begin_read();
      for (u32 s = 0; s < n; ++s) {
        const u64 primary = static_cast<u64>(spans[s].server);
        const u64 target = sched->choose_target(primary);
        sched->note_peer(target);
        sink += static_cast<u64>(sched->hedge_delay(target).picoseconds());
        // Server 0 straggles, as in the workload's fault config.
        sched->record_rtt(target, target == 0 ? Time::ms(2) : Time::us(200));
      }
    }
    sink += spans[n - 1].file_offset;
  }
  const double ns = ns_since(t0);
  g_sink = sink;
  return Batch{requests, 0, ns};
}

Batch probe_server_cache(const ExperimentConfig& cfg, u64 blocks) {
  if (cfg.server.cache.capacity_bytes == 0) return Batch{};
  const u64 block_bytes = cfg.server.cache.block_bytes;
  const u64 servers = static_cast<u64>(cfg.num_servers);
  const u64 procs = static_cast<u64>(cfg.num_clients) *
                    static_cast<u64>(cfg.procs_per_client);
  const u64 per_strip = std::max<u64>(1, cfg.strip_size / block_bytes);
  // One server's share of one run, against a cache that starts cold as it
  // does in every run: strips of that server, across every process's
  // region.
  const u64 per_run =
      std::max<u64>(per_strip, procs * cfg.ior.total_bytes / block_bytes /
                                   servers);
  const u64 server_strips = std::max<u64>(
      1, procs * cfg.ior.file_region_bytes / cfg.strip_size / servers);
  const bool write = cfg.ior.mode == workload::IorMode::kWrite;
  const u64 readahead = static_cast<u64>(cfg.server.cache.readahead_blocks);
  XorShift rng{cfg.seed | 1};
  u64 done = 0;
  double ns = 0.0;
  while (done < blocks) {
    pfs::BufferCache cache(cfg.server.cache);
    const u64 flush_at = static_cast<u64>(
        cfg.server.cache.dirty_flush_threshold *
        static_cast<double>(cache.num_blocks()));
    const Clock::time_point t0 = Clock::now();
    for (u64 n = 0; n < per_run; n += per_strip, done += per_strip) {
      const u64 first = rng.next() % server_strips * servers * per_strip;
      bool missed = false;
      for (u64 b = first; b < first + per_strip; ++b) {
        if (!cache.lookup(b)) {
          missed = true;
          cache.insert(b, write, false);
        }
      }
      if (missed && !write) {
        for (u64 b = first + per_strip; b < first + per_strip + readahead;
             ++b) {
          cache.insert(b, false, true);
        }
      }
      if (cache.dirty_blocks() > flush_at) {
        cache.take_dirty(static_cast<u64>(cfg.server.cache.flush_batch));
      }
    }
    ns += ns_since(t0);
  }
  return Batch{done, 0, ns};
}

}  // namespace perfbench
