#include "workloads.hpp"

#include <bit>
#include <cstring>

namespace perfbench {

using namespace saisim;

namespace {

constexpr u64 kRunsPerPass = 16;

u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The paper's client (8 cores, 4 IOR procs) on a 3 Gb/s bonded NIC with
// three RX queues, as the figure benches build it.
ExperimentConfig figure_base(int servers, u64 transfer, u64 bytes_per_proc) {
  ExperimentConfig cfg;
  cfg.num_servers = servers;
  cfg.client.nic_bandwidth = Bandwidth::gbit(3.0);
  cfg.client.nic.queues = 3;
  cfg.ior.transfer_size = transfer;
  cfg.ior.total_bytes = bytes_per_proc;
  return cfg;
}

// Fig. 5's headline point: 48 servers, 64 KiB strips, 1 MiB reads.
ExperimentConfig strip_read() { return figure_base(48, 1ull << 20, 8ull << 20); }

// Fig. 12's 16-client point.
ExperimentConfig fanin() {
  ExperimentConfig cfg = figure_base(8, 1ull << 20, 4ull << 20);
  cfg.num_clients = 16;
  cfg.server.nic_bandwidth = Bandwidth::gbit(3.0);
  cfg.server.io.cache_hit_ratio = 0.9;
  return cfg;
}

// Small random I/O against deep servers on a lossy fabric with one
// straggling server, read through the straggler-aware client scheduler.
ExperimentConfig small_io(bool write) {
  ExperimentConfig cfg = figure_base(16, 64ull << 10, 4ull << 20);
  cfg.strip_size = 4ull << 10;
  cfg.ior.pattern = workload::AccessPattern::kRandom;
  cfg.ior.mode = write ? workload::IorMode::kWrite : workload::IorMode::kRead;
  // A region a few times the data moved, so random offsets revisit blocks
  // and the server caches see hits.
  cfg.ior.file_region_bytes = 16ull << 20;
  cfg.server.cache.capacity_bytes = 64ull << 20;
  cfg.server.cache.write_back = true;
  cfg.server.cache.readahead_blocks = 8;
  cfg.server.sched.enabled = true;
  cfg.server.sched.discipline = pfs::SchedDiscipline::kPriority;
  cfg.fault.loss_rate = 0.001;
  cfg.fault.straggler_node = 0;
  cfg.fault.straggler_delay = Time::ms(2);
  cfg.client.pfs.retransmit_timeout = Time::ms(50);
  cfg.client.sched.policy = pfs::ClientSchedPolicy::kStragglerAware;
  cfg.client.sched.min_samples = 1;
  cfg.client.sched.slow_threshold = 1.5;
  cfg.client.sched.probe_interval = 512;
  cfg.client.sched.hedge_quantile = 3.0;
  return cfg;
}

ExperimentConfig base_config(Workload w, u64 pair) {
  switch (w) {
    case Workload::kStripRead:
      return strip_read();
    case Workload::kFanin:
      return fanin();
    case Workload::kSmallIo:
      return small_io(pair % 2 == 1);
  }
  return {};
}

u64 bits_of(double d) { return std::bit_cast<u64>(d); }

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "strip_read") return Workload::kStripRead;
  if (name == "fanin") return Workload::kFanin;
  if (name == "small_io") return Workload::kSmallIo;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kStripRead:
      return "strip_read";
    case Workload::kFanin:
      return "fanin";
    case Workload::kSmallIo:
      return "small_io";
  }
  return "?";
}

std::vector<ExperimentConfig> make_pass(Workload w, u64 seed, u64 pass) {
  std::vector<ExperimentConfig> out;
  for (u64 i = 0; i < kRunsPerPass; ++i) {
    const u64 pair = i / 2;
    ExperimentConfig cfg = base_config(w, pair);
    cfg.policy = i % 2 == 0 ? PolicyKind::kIrqbalance : PolicyKind::kSourceAware;
    const u64 key = splitmix64(splitmix64(seed) ^ (pass * kRunsPerPass + pair));
    // Reflected seeds are range-checked as non-negative i64.
    cfg.seed = key >> 1;
    cfg.fault.seed = splitmix64(key) >> 1;
    out.push_back(cfg);
  }
  return out;
}

u64 run_kind(Workload w, u64 slot) {
  const u64 policy = slot % 2;
  return w == Workload::kSmallIo ? (slot / 2 % 2) * 2 + policy : policy;
}

std::vector<std::string> check_run(const ExperimentConfig& cfg,
                                   const RunMetrics& m) {
  std::vector<std::string> failed;
  if (m.elapsed >= cfg.max_sim_time) failed.push_back("drain");
  const u64 procs = static_cast<u64>(cfg.num_clients) *
                    static_cast<u64>(cfg.procs_per_client);
  const u64 expected = procs * cfg.ior.total_bytes -
                       m.failed_requests * cfg.ior.transfer_size;
  if (m.total_bytes != expected) failed.push_back("bytes");
  return failed;
}

u64 fnv_mix(u64 h, u64 value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}

u64 metrics_digest(const RunMetrics& m) {
  u64 h = kFnvOffset;
  for (double d : {m.bandwidth_mbps, m.l2_miss_rate, m.cpu_utilization,
                   m.unhalted_cycles, m.softirq_cycles,
                   m.mean_read_latency_us}) {
    h = fnv_mix(h, bits_of(d));
  }
  for (u64 v : {m.total_bytes, static_cast<u64>(m.elapsed.picoseconds()),
                m.c2c_transfers, m.interrupts, m.retransmits, m.rx_drops,
                m.duplicate_strips, m.failed_requests, m.p99_read_latency_us,
                m.hinted_interrupt_share_x1e4, m.slo_breaches,
                m.first_slo_breach_us, m.hedges_issued, m.hedges_won,
                m.hedges_wasted}) {
    h = fnv_mix(h, v);
  }
  for (double d : m.per_client_bandwidth_mbps) h = fnv_mix(h, bits_of(d));
  return h;
}

}  // namespace perfbench
