// Layer probes: host-time measurements that call one simulator layer's public
// functions in the shape that layer sees in a workload, outside any full
// run. Each call executes one batch and returns its wall time; the caller
// repeats batches, records one span per batch, and takes medians.
#pragma once

#include "apic/interrupt_message.hpp"
#include "core/experiment.hpp"

namespace perfbench {

using saisim::ExperimentConfig;
using saisim::PolicyKind;
using saisim::u64;

struct Batch {
  /// Units of the layer's work performed (strips, events, packets, ...).
  u64 units = 0;
  /// DES events the batch executed (0 for layers that schedule none);
  /// lets the caller subtract kernel time and keep a layer's self time.
  u64 sim_events = 0;
  double wall_ns = 0.0;

  double ns_per_unit() const {
    return units == 0 ? 0.0 : wall_ns / static_cast<double>(units);
  }
};

/// `MemorySystem::dma_write` of one strip, the handler core's softirq copy
/// (`access`, kWrite) and the consumer's read (`access`, kRead) on fresh
/// addresses, as the client NIC and IOR process issue them. `migrated`
/// puts the consumer on another core than the handler.
Batch probe_mem_strips(const ExperimentConfig& cfg, bool migrated, u64 strips);

/// `MemorySystem` constructions with the client machine's config.
Batch probe_mem_construct(const ExperimentConfig& cfg, u64 count);

/// `Simulation::after`/`step` at a steady queue depth of `depth` events,
/// with `cancel_share` of the fired events also arming a timer that a later
/// event disarms through `cancel_if_armed`.
Batch probe_sim(u64 depth, double cancel_share, u64 events);

/// `Network::send` of strip-sized data packets from a server node to a
/// client node, through the workload's fault injector, until delivery.
Batch probe_net(const ExperimentConfig& cfg, u64 packets);

/// `IoApic::raise` under `policy` on the client's cores, each interrupt
/// carrying a fixed softirq cost, run until every one is handled.
Batch probe_apic(const ExperimentConfig& cfg, PolicyKind policy, u64 irqs);

/// `Core::submit` of user work items interleaved with interrupt-priority
/// items (which preempt them) on one client core, run to completion.
Batch probe_cpu(const ExperimentConfig& cfg, u64 items);

/// Per transfer: `StripeLayout::decompose_into`, then, when the workload
/// runs the straggler-aware client scheduler, its per-read dispatch
/// (`begin_read`, `note_peer`, `choose_target`, `hedge_delay`,
/// `record_rtt`).
Batch probe_pfs(const ExperimentConfig& cfg, u64 requests);

/// Server `BufferCache::lookup`, with `insert` on a miss (dirty for write
/// workloads) plus read-ahead inserts, over strip-sized block runs: one
/// server's share of a run at a time, each on a fresh (cold) cache whose
/// construction is not timed. Empty when `cfg`'s servers have no block
/// cache.
Batch probe_server_cache(const ExperimentConfig& cfg, u64 blocks);

}  // namespace perfbench
