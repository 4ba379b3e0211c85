#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "pfs/meta_server.hpp"
#include "sim/simulation.hpp"
#include "trace/counter_registry.hpp"
#include "trace/runtime.hpp"
#include "trace/tracer.hpp"

namespace saisim {

#if defined(SAISIM_TELEMETRY_ENABLED)
namespace {

// Drives the run's TimelineSampler: a self-rescheduling event, so ticks
// land at exactly k * period in simulated time. Ticks read model state but
// never mutate it and never draw RNG, so the model event sequence — and
// with it every golden fingerprint — is unchanged whether sampling is on or
// off.
struct SamplerDriver {
  sim::Simulation* sim = nullptr;
  trace::TimelineSampler* sampler = nullptr;
  Time period = Time::zero();

  void arm() {
    sim->after(period, [this] {
      sampler->sample(sim->now());
      arm();
    });
  }
};

}  // namespace
#endif  // SAISIM_TELEMETRY_ENABLED

ClientNode::ClientNode(sim::Simulation& simulation, net::Network& network,
                       const ExperimentConfig& cfg, NodeId node,
                       std::vector<NodeId> server_nodes, NodeId meta_node)
    : address_space_(cfg.client.cache.line_bytes) {
  cpus_ = std::make_unique<cpu::CpuSystem>(simulation, cfg.client.cores,
                                           cfg.client.core_freq,
                                           cfg.client.user_quantum);
  memory_ = std::make_unique<mem::MemorySystem>(
      cfg.client.cores, cfg.client.cache, cfg.client.timings,
      cfg.client.core_freq, cfg.client.dram_bandwidth);
  io_apic_ = std::make_unique<apic::IoApic>(simulation, *cpus_,
                                            make_policy(cfg.policy));
  nic_ = std::make_unique<net::ClientNic>(simulation, network, node, *io_apic_,
                                          *memory_, cfg.client.core_freq,
                                          cfg.client.nic);
  pfs_ = std::make_unique<pfs::PfsClient>(
      simulation, network, *nic_, node,
      pfs::StripeLayout(cfg.strip_size, cfg.num_servers),
      std::move(server_nodes), meta_node, address_space_, cfg.client.pfs,
      cfg.client.sched);
  if (policy_uses_hints(cfg.policy)) {
    sais_ = std::make_unique<sais::SaisClient>(*pfs_, *nic_);
  }
  if (cfg.enable_background) {
    background_ = std::make_unique<workload::BackgroundLoad>(
        simulation, *cpus_, *memory_, address_space_, cfg.background);
  }
}

RunMetrics run_experiment(const ExperimentConfig& cfg) {
  return run_experiment(cfg, nullptr);
}

RunMetrics run_experiment(const ExperimentConfig& cfg,
                          trace::RunTrace* capture) {
  SAISIM_CHECK(cfg.num_clients > 0);
  SAISIM_CHECK(cfg.num_servers > 0);
  SAISIM_CHECK(cfg.procs_per_client > 0);

  // Observability: when the shared CLI asked for a trace, install a tracer
  // on this thread for the duration of the run. Sweep workers each install
  // their own, so concurrent runs never interleave events. The tracer is
  // purely observational — it must not (and cannot) perturb the model, so
  // golden metrics are identical with it on or off.
  const trace::RuntimeOptions& topts = trace::options();
  std::unique_ptr<trace::Tracer> tracer;
  std::optional<trace::TraceScope> trace_scope;
  if (topts.collect && topts.events) {
    tracer = std::make_unique<trace::Tracer>(topts.mask, topts.capacity);
    trace_scope.emplace(tracer.get());
  }
  // Without an own tracer the ambient one (if any) stays installed — tests
  // wrap run_experiment in a TraceScope to capture its event stream.

  sim::Simulation simulation(cfg.seed);
  net::Network network(simulation, cfg.switch_latency);

  // Fault injection: only instantiated when a knob is armed, so the
  // default (lossless) fabric pays nothing beyond one null check per send
  // and its metrics/counters are byte-identical to pre-injector builds.
  std::optional<net::FaultInjector> faults;
  if (net::fault_enabled(cfg.fault)) {
    faults.emplace(cfg.fault);
    network.set_fault_injector(&*faults);
  }

  // Topology: I/O servers, the metadata server, then the client machines.
  std::vector<NodeId> server_nodes;
  server_nodes.reserve(static_cast<u64>(cfg.num_servers));
  for (int s = 0; s < cfg.num_servers; ++s) {
    server_nodes.push_back(network.add_node(cfg.server.nic_bandwidth,
                                            cfg.server.nic_bandwidth,
                                            cfg.link_latency));
  }
  const NodeId meta_node = network.add_node(
      Bandwidth::gbit(1.0), Bandwidth::gbit(1.0), cfg.link_latency);

  std::vector<std::unique_ptr<pfs::IoServer>> servers;
  servers.reserve(server_nodes.size());
  for (const NodeId node : server_nodes) {
    servers.push_back(std::make_unique<pfs::IoServer>(
        simulation, network, node, cfg.server.io, cfg.server.cache,
        cfg.server.sched));
  }
  pfs::MetaServer meta(simulation, network, meta_node, cfg.meta);

  std::vector<std::unique_ptr<ClientNode>> clients;
  clients.reserve(static_cast<u64>(cfg.num_clients));
  for (int c = 0; c < cfg.num_clients; ++c) {
    const NodeId node = network.add_node(cfg.client.nic_bandwidth,
                                         cfg.client.nic_bandwidth,
                                         cfg.link_latency);
    clients.push_back(std::make_unique<ClientNode>(
        simulation, network, cfg, node, server_nodes, meta_node));
  }

#if defined(SAISIM_TELEMETRY_ENABLED)
  // Time-resolved telemetry: one sampler, its probes driven by a
  // self-rescheduling tick event. Metric names carry client/server
  // indices.
  std::optional<trace::TimelineSampler> sampler;
  std::optional<SamplerDriver> sampler_driver;
  std::optional<trace::Tracer> flight_ring;
  std::optional<trace::TraceScope> flight_scope;
  const bool telemetry_on = trace::telemetry_enabled(cfg.telemetry);
  const trace::TelemetrySloConfig& slo = cfg.telemetry.slo;
  if (telemetry_on) {
    sampler.emplace(cfg.telemetry.sample_period, slo.window,
                    cfg.telemetry.flight_recorder_events);
    trace::TimelineSampler& ts = *sampler;
    for (int c = 0; c < cfg.num_clients; ++c) {
      ClientNode* cl = clients[static_cast<u64>(c)].get();
      const std::string p = "client" + std::to_string(c);
      ts.add_gauge(p + ".pfs.inflight", [cl] {
        return static_cast<i64>(cl->pfs().inflight_requests());
      });
      ts.add_gauge(p + ".nic.rx_backlog", [cl] {
        return static_cast<i64>(cl->nic().rx_backlog());
      });
      ts.add_counter(p + ".pfs.reads_completed", [cl] {
        return static_cast<i64>(cl->pfs().stats().reads_completed);
      });
      ts.add_counter(p + ".pfs.strips_received", [cl] {
        return static_cast<i64>(cl->pfs().stats().strips_received);
      });
      ts.add_counter(p + ".pfs.retransmits", [cl] {
        return static_cast<i64>(cl->pfs().stats().retransmits);
      });
      ts.add_counter(p + ".nic.interrupts", [cl] {
        return static_cast<i64>(cl->nic().stats().interrupts);
      });
      const u64 p99 = ts.add_window_p99(
          p + ".pfs.read_p99_us", &cl->pfs().stats().read_latency_us_hist);
      if (slo.p99_read_latency_us > 0) {
        ts.watch(p99, static_cast<i64>(slo.p99_read_latency_us));
      }
      const u64 rate = ts.add_window_rate_ppm(
          p + ".pfs.retransmit_rate_ppm",
          [cl] { return static_cast<i64>(cl->pfs().stats().retransmits); },
          [cl] {
            return static_cast<i64>(cl->pfs().stats().strips_received);
          });
      if (slo.retransmit_rate_ppm > 0) {
        ts.watch(rate, static_cast<i64>(slo.retransmit_rate_ppm));
      }
    }
    for (u64 s = 0; s < servers.size(); ++s) {
      pfs::IoServer* srv = servers[s].get();
      const std::string p = "server" + std::to_string(s);
      const u64 depth = ts.add_gauge(p + ".cpu_qdepth", [srv] {
        return static_cast<i64>(srv->cpu_queue_depth());
      });
      if (slo.max_queue_depth > 0) {
        ts.watch(depth, static_cast<i64>(slo.max_queue_depth));
      }
      ts.add_gauge(p + ".dirty_blocks", [srv] {
        return static_cast<i64>(srv->cache().dirty_blocks());
      });
      ts.add_counter(p + ".requests", [srv] {
        return static_cast<i64>(srv->stats().requests);
      });
      ts.add_counter(p + ".bytes_served", [srv] {
        return static_cast<i64>(srv->stats().bytes_served);
      });
    }
    ts.add_counter("meta.lookups",
                   [&meta] { return static_cast<i64>(meta.lookups()); });
    if (cfg.telemetry.kernel_gauges) {
      // Kernel queue occupancy (opt-in diagnostics; see TelemetryConfig).
      ts.add_gauge(trace::kPendingEventsGauge, [&simulation] {
        return static_cast<i64>(simulation.pending_events());
      });
    }
    // Flight recorder: when the watchdog is armed and no trace is being
    // recorded, install a small ring tracer so a breach can dump the
    // events leading up to it. Ambient tracers (tests wrapping the run in
    // a TraceScope) are left installed — the ring must never steal events
    // from a requested capture.
    if (trace::slo_armed(cfg.telemetry) &&
        trace::Tracer::current() == nullptr) {
      flight_ring.emplace(trace::kAllSubsystems,
                          cfg.telemetry.flight_recorder_events,
                          /*ring=*/true);
      flight_scope.emplace(&*flight_ring);
    }
    sampler_driver.emplace(
        SamplerDriver{&simulation, &ts, cfg.telemetry.sample_period});
    sampler_driver->arm();
  }
#endif  // SAISIM_TELEMETRY_ENABLED

  // Workload: procs_per_client IOR processes per client, placed round-robin
  // over the cores; each reads its own disjoint region of the shared file
  // space (distinct server strip phases emerge naturally from the offsets).
  const bool hints = policy_uses_hints(cfg.policy);
  std::vector<std::unique_ptr<workload::IorProcess>> procs;
  int remaining = cfg.num_clients * cfg.procs_per_client;
  ProcessId next_pid = 1;
  for (int c = 0; c < cfg.num_clients; ++c) {
    ClientNode& node = *clients[static_cast<u64>(c)];
    if (node.background() != nullptr) node.background()->start(cfg.max_sim_time);
    for (int p = 0; p < cfg.procs_per_client; ++p) {
      workload::IorConfig ior = cfg.ior;
      // Disjoint, strip-aligned file regions per process, phase-shifted by
      // a sub-stripe offset so concurrent processes do not march over the
      // same server subset in lockstep.
      ior.file_offset_start =
          static_cast<u64>(next_pid) *
              (cfg.ior.total_bytes * 4 + (64ull << 20)) +
          static_cast<u64>(next_pid) * 13 * cfg.strip_size;
      const CoreId home = p % cfg.client.cores;
      procs.push_back(std::make_unique<workload::IorProcess>(
          simulation, node.cpus(), node.memory(), node.pfs(), next_pid, home,
          hints, ior));
      ++next_pid;
    }
  }
  for (auto& p : procs) {
    p->start([&remaining](const workload::IorProcessStats&) { --remaining; });
  }

  // Advance to completion: stop at exactly the event that finishes the
  // workload.
  while (remaining > 0) {
    SAISIM_CHECK_MSG(simulation.step(),
                     "workload did not complete: event queue drained");
    SAISIM_CHECK_MSG(simulation.now() <= cfg.max_sim_time,
                     "workload did not complete within max_sim_time");
  }

  // ---- Metric aggregation --------------------------------------------
  // The end-of-run barrier: subsystem stats are published into a named
  // CounterRegistry, and RunMetrics' integer fields are re-derived from it
  // — one counter namespace serves the metrics struct, the --metrics CSV,
  // and any future consumer, and a divergence between the two would be a
  // bug the golden tests catch.
  trace::CounterRegistry registry;
  RunMetrics m;
  m.elapsed = simulation.now();
  const Time elapsed = m.elapsed;

  mem::CoreCacheStats cache_total;
  Time busy_total = Time::zero();
  Time softirq_total = Time::zero();
  double unhalted = 0.0;
  for (auto& client : clients) {
    cache_total += client->memory().total_stats();
    busy_total += client->cpus().total_busy();
    softirq_total +=
        client->cpus().total_busy_by_prio(cpu::Priority::kInterrupt);
    unhalted += static_cast<double>(client->cpus().total_unhalted().count());
    registry.counter("mem.c2c_transfers")
        .add(client->memory().c2c_transfers());
    registry.counter("mem.dram_line_reads")
        .add(client->memory().dram_line_reads());
    const net::NicStats& nic = client->nic().stats();
    registry.counter("nic.interrupts").add(nic.interrupts);
    registry.counter("nic.rx_messages").add(nic.rx_messages);
    registry.counter("nic.rx_bytes").add(nic.rx_bytes);
    registry.counter("nic.rx_dropped").add(nic.dropped);
    const pfs::PfsClientStats& pc = client->pfs().stats();
    registry.counter("pfs.reads_issued").add(pc.reads_issued);
    registry.counter("pfs.reads_completed").add(pc.reads_completed);
    registry.counter("pfs.reads_failed").add(pc.reads_failed);
    registry.counter("pfs.writes_failed").add(pc.writes_failed);
    registry.counter("pfs.strips_received").add(pc.strips_received);
    registry.counter("pfs.retransmits").add(pc.retransmits);
    registry.counter("pfs.duplicate_strips").add(pc.duplicate_strips);
    registry.counter("pfs.hedges_issued").add(pc.hedges_issued);
    registry.counter("pfs.hedges_won").add(pc.hedges_won);
    registry.counter("pfs.hedges_wasted").add(pc.hedges_wasted);
    if (const pfs::StragglerScheduler* sched = client->pfs().scheduler()) {
      registry.counter("pfs.sched_redirects")
          .add(sched->stats().redirected_strips);
      registry.counter("pfs.sched_probes").add(sched->stats().probe_strips);
    }
    registry.latency("pfs.read_latency_us").merge(pc.read_latency_us_hist);
    for (int i = 0; i < client->cpus().num_cores(); ++i) {
      const cpu::CoreAccounting& acct =
          client->cpus().core(i).accounting();
      registry.counter("cpu.items_completed").add(acct.items_completed);
      registry.counter("cpu.preemptions").add(acct.preemptions);
      registry.counter("cpu.timeslice_rotations")
          .add(acct.timeslice_rotations);
    }
  }
  // Deep-server model: aggregate counters are always registered (all zero
  // at the default thin config — the CSV is not golden-pinned); per-server
  // rows (for tools/trace_summary's per-server table) only when the depth
  // is actually enabled, so default CSVs stay small.
  const bool deep_servers =
      cfg.server.cache.capacity_bytes > 0 || cfg.server.sched.enabled;
  for (u64 s = 0; s < servers.size(); ++s) {
    const pfs::IoServerStats& st = servers[s]->stats();
    const pfs::BufferCache::Stats& cs = servers[s]->cache().stats();
    const pfs::ServerCpu::Stats& ss = servers[s]->cpu_stats();
    registry.counter("server.requests").add(st.requests);
    registry.counter("server.bytes_served").add(st.bytes_served);
    registry.counter("server.cache_hits").add(st.cache_hits);
    registry.counter("server.write_requests").add(st.write_requests);
    registry.counter("server.bytes_written").add(st.bytes_written);
    registry.counter("server.cache.block_hits").add(cs.hits);
    registry.counter("server.cache.block_misses").add(cs.misses);
    registry.counter("server.cache.evictions").add(cs.evictions);
    registry.counter("server.cache.dirty_writebacks").add(cs.dirty_writebacks);
    registry.counter("server.cache.flushed_blocks").add(cs.flushed_blocks);
    registry.counter("server.cache.readahead_issued").add(cs.readahead_issued);
    registry.counter("server.cache.readahead_useful").add(cs.readahead_useful);
    registry.counter("server.flush_bursts").add(st.flush_bursts);
    registry.counter("server.sched_tasks").add(ss.tasks);
    if (deep_servers) {
      const std::string p = "server" + std::to_string(s);
      registry.counter(p + ".block_hits").add(cs.hits);
      registry.counter(p + ".block_misses").add(cs.misses);
      registry.counter(p + ".evictions").add(cs.evictions);
      registry.counter(p + ".dirty_writebacks").add(cs.dirty_writebacks);
      registry.counter(p + ".flushed_blocks").add(cs.flushed_blocks);
      registry.counter(p + ".readahead_issued").add(cs.readahead_issued);
      registry.counter(p + ".readahead_useful").add(cs.readahead_useful);
      registry.counter(p + ".tasks").add(ss.tasks);
      registry.counter(p + ".queue_depth_sum").add(ss.queue_depth_sum);
      registry.counter(p + ".max_queue_depth").add(ss.max_queue_depth);
      registry.counter(p + ".queue_wait_ps")
          .add(static_cast<u64>(ss.queue_wait_ps));
      registry.counter(p + ".disk_busy_ps")
          .add(static_cast<u64>(st.disk_busy_ps));
      registry.counter(p + ".flush_disk_ps")
          .add(static_cast<u64>(st.flush_disk_ps));
    }
  }
  registry.counter("meta.lookups").add(meta.lookups());
  registry.counter("meta.queue_wait_ps")
      .add(static_cast<u64>(meta.queue_wait_ps()));
  registry.counter("meta.max_queue_depth").add(meta.max_queue_depth());
  if (faults) {
    const net::FaultStats& fs = faults->stats();
    registry.counter("fault.packets_dropped").add(fs.packets_dropped);
    registry.counter("fault.packets_duplicated").add(fs.packets_duplicated);
    registry.counter("fault.packets_jittered").add(fs.packets_jittered);
    registry.counter("fault.straggler_delays").add(fs.straggler_delays);
    registry.counter("fault.straggler_tx_delays").add(fs.straggler_tx_delays);
    registry.counter("fault.straggler_rx_delays").add(fs.straggler_rx_delays);
    registry.counter("fault.degraded_packets").add(fs.degraded_packets);
  }

  registry.counter("sim.events_executed").add(simulation.events_executed());
  registry.counter("sim.pending_events").add(simulation.pending_events());
  m.c2c_transfers = registry.value("mem.c2c_transfers");
  m.interrupts = registry.value("nic.interrupts");
  m.rx_drops = registry.value("nic.rx_dropped");
  m.retransmits = registry.value("pfs.retransmits");
  m.duplicate_strips = registry.value("pfs.duplicate_strips");
  m.failed_requests =
      registry.value("pfs.reads_failed") + registry.value("pfs.writes_failed");
  m.hedges_issued = registry.value("pfs.hedges_issued");
  m.hedges_won = registry.value("pfs.hedges_won");
  m.hedges_wasted = registry.value("pfs.hedges_wasted");
  m.p99_read_latency_us = registry.latency("pfs.read_latency_us").quantile(0.99);
  m.l2_miss_rate = cache_total.miss_rate();
  const i64 total_cores =
      static_cast<i64>(cfg.num_clients) * cfg.client.cores;
  m.cpu_utilization = busy_total.ratio(elapsed * total_cores);
  m.unhalted_cycles = unhalted;
  m.softirq_cycles = static_cast<double>(
      cfg.client.core_freq.cycles_in(softirq_total).count());

  m.per_client_bandwidth_mbps.assign(static_cast<u64>(cfg.num_clients), 0.0);
  for (u64 i = 0; i < procs.size(); ++i) {
    const u64 bytes = procs[i]->stats().bytes_read;
    registry.counter("ior.bytes_read").add(bytes);
    const u64 client_idx = i / static_cast<u64>(cfg.procs_per_client);
    m.per_client_bandwidth_mbps[client_idx] +=
        throughput_mbps(bytes, elapsed);
  }
  m.total_bytes = registry.value("ior.bytes_read");
  m.bandwidth_mbps = throughput_mbps(m.total_bytes, elapsed);

  double latency_sum = 0.0;
  u64 latency_n = 0;
  for (auto& client : clients) {
    const auto& lat = client->pfs().stats().read_latency_us;
    latency_sum += lat.sum();
    latency_n += lat.count();
  }
  m.mean_read_latency_us =
      latency_n ? latency_sum / static_cast<double>(latency_n) : 0.0;

  for (auto& client : clients) {
    registry.counter("apic.raised").add(client->io_apic().stats().raised);
    if (const auto* sa = dynamic_cast<const apic::SourceAwarePolicy*>(
            &client->io_apic().policy())) {
      registry.counter("apic.hinted_routes").add(sa->hinted_routes());
    }
  }
  const u64 raised = registry.value("apic.raised");
  m.hinted_interrupt_share_x1e4 =
      raised ? registry.value("apic.hinted_routes") * 10'000 / raised : 0;

  // Turn the sampled series into the export-ready timeline and derive the
  // SLO verdict. All counters below are registered only when telemetry is
  // on, so telemetry-off metrics CSVs stay bit-identical to pre-telemetry
  // builds.
  trace::TimelineSeries timeline;
#if defined(SAISIM_TELEMETRY_ENABLED)
  if (telemetry_on) {
    timeline = sampler->series();
    m.slo_breaches = timeline.breaches.size();
    if (!timeline.breaches.empty()) {
      m.first_slo_breach_us = static_cast<u64>(
          timeline.breaches.front().when.picoseconds() / 1'000'000);
    }
    registry.counter("telemetry.samples").add(timeline.ticks);
    registry.counter("telemetry.slo_breaches").add(m.slo_breaches);
  }
#endif  // SAISIM_TELEMETRY_ENABLED

  // Hand the run to the process-wide collector when --trace/--metrics was
  // given. The sort key is the config fingerprint (policy is a reflected
  // field, so it participates): export order is deterministic and reruns
  // of an identical config dedupe away.
  if (topts.collect || capture != nullptr) {
    trace::RunTrace run;
    run.label = std::string(policy_name(cfg.policy));
    run.sort_key = util::reflect::fingerprint_of(cfg);
    if (tracer) {
      run.events = tracer->take();
      trace::sort_by_time(run.events);
      run.spans = trace::build_spans(run.events);
    }
    run.counters = registry.snapshot();
    run.timeline = std::move(timeline);
    if (capture != nullptr) {
      *capture = run;
      if (topts.collect) {
        trace::RunCollector::instance().add_run(std::move(run));
      }
    } else {
      trace::RunCollector::instance().add_run(std::move(run));
    }
  }

  return m;
}

Comparison make_comparison(const RunMetrics& baseline, const RunMetrics& sais) {
  Comparison out;
  out.baseline = baseline;
  out.sais = sais;
  if (out.baseline.bandwidth_mbps > 0) {
    out.bandwidth_speedup_pct =
        (out.sais.bandwidth_mbps - out.baseline.bandwidth_mbps) /
        out.baseline.bandwidth_mbps * 100.0;
  }
  if (out.baseline.l2_miss_rate > 0) {
    out.miss_rate_reduction_pct =
        (out.baseline.l2_miss_rate - out.sais.l2_miss_rate) /
        out.baseline.l2_miss_rate * 100.0;
  }
  if (out.baseline.unhalted_cycles > 0) {
    out.unhalted_reduction_pct =
        (out.baseline.unhalted_cycles - out.sais.unhalted_cycles) /
        out.baseline.unhalted_cycles * 100.0;
  }
  return out;
}

}  // namespace saisim
