// The cluster fabric: every node hangs off one switch with a full-duplex
// link (uplink to the switch, downlink from it). A message serializes on the
// sender's uplink, crosses the switch (store-and-forward, fixed forwarding
// latency), then serializes on the receiver's downlink — which is where the
// paper's "client NIC bottleneck" forms when many I/O servers reply at once.
#pragma once

#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/small_function.hpp"

namespace saisim::net {

class Network {
 public:
  /// Per-node delivery sink. SmallFunction: receivers are registered once
  /// per node and invoked once per packet — neither the registration nor
  /// the call should ever touch the heap.
  using Receiver = SmallFunction<void(Packet)>;

  explicit Network(sim::Simulation& simulation,
                   Time switch_latency = Time::us(5))
      : sim_(simulation), switch_latency_(switch_latency) {}

  /// Attach a node; `up`/`down` are the node's NIC rates towards/from the
  /// switch (a bonded 3x1-Gigabit client is modelled as a 3 Gb/s link).
  NodeId add_node(Bandwidth up, Bandwidth down,
                  Time link_latency = Time::us(2)) {
    nodes_.push_back(std::make_unique<Node>(sim_, up, down, link_latency));
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  void set_receiver(NodeId node, Receiver r) {
    at(node).receiver = std::move(r);
  }

  /// Attach a fault injector that judges every subsequent send. Pass
  /// nullptr (the default state) for the lossless fabric: the send path
  /// then costs exactly one null check over the pre-injector code.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }
  FaultInjector* fault_injector() const { return faults_; }

  /// Send a packet from `p.src` to `p.dst`. Delivery invokes the
  /// destination's receiver after both serializations and latencies (plus
  /// whatever extra fate the fault injector decides, when one is attached).
  void send(Packet p) {
    SAISIM_CHECK(p.src >= 0 && p.src < num_nodes());
    SAISIM_CHECK(p.dst >= 0 && p.dst < num_nodes());
    if (FaultInjector* faults = faults_) {
      const Time now = sim_.now();
      const Bandwidth down = at(p.dst).downlink.bandwidth();
      const Time ser = down.is_unlimited()
                           ? Time::zero()
                           : down.transfer_time(p.wire_bytes());
      const FaultInjector::Verdict v = faults->judge(p, now, ser);
      if (v.drop) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDrop, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst));
        return;  // lost before it ever reaches the sender's uplink
      }
      if (v.duplicate) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDup, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst),
                           v.dup_delay.picoseconds());
        deliver(p, v.dup_delay);  // a second, independently delayed copy
      }
      if (v.delay > Time::zero()) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDelay, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst), v.delay.picoseconds());
        deliver(std::move(p), v.delay);
        return;
      }
    }
    start_uplink(std::move(p));
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Packets launched but not yet delivered (tests and end-of-run
  /// assertions read it once the fabric is quiesced).
  u64 packets_in_flight() const {
    u64 launched = 0;
    u64 delivered = 0;
    for (const auto& n : nodes_) {
      launched += n->launched;
      delivered += n->delivered;
    }
    return launched - delivered;
  }

  Link& uplink(NodeId n) { return at(n).uplink; }
  Link& downlink(NodeId n) { return at(n).downlink; }
  const Link& downlink(NodeId n) const {
    return const_cast<Network*>(this)->at(n).downlink;
  }

 private:
  struct Node {
    Node(sim::Simulation& s, Bandwidth up, Bandwidth down, Time latency)
        : uplink(s, up, latency), downlink(s, down, latency) {}
    Link uplink;
    Link downlink;
    Receiver receiver;
    u64 launched = 0;
    u64 delivered = 0;
  };

  Node& at(NodeId n) {
    SAISIM_CHECK(n >= 0 && n < num_nodes());
    return *nodes_[static_cast<u64>(n)];
  }

  /// Hand the packet to its source uplink — the lossless path, byte-for-byte
  /// the pre-injector `send` body.
  void start_uplink(Packet p) {
    const u64 wire = p.wire_bytes();
    Node& src = at(p.src);
    ++src.launched;
    src.uplink.send(wire, [this, p = std::move(p), wire]() mutable {
      forward_through_switch(std::move(p), wire);
    });
  }

  /// Arrived at the switch; forward to the destination downlink after the
  /// store-and-forward latency.
  void forward_through_switch(Packet p, u64 wire) {
    sim_.after(switch_latency_, [this, p = std::move(p), wire]() mutable {
      Node& d = at(p.dst);
      d.downlink.send(wire, [this, p = std::move(p)]() mutable {
        Node& dd = at(p.dst);
        ++dd.delivered;
        SAISIM_CHECK_MSG(static_cast<bool>(dd.receiver),
                         "packet delivered to node with no receiver");
        dd.receiver(std::move(p));
      });
    });
  }

  /// Enter the lossless path after an injector-imposed hold-off.
  void deliver(Packet p, Time extra_delay) {
    if (extra_delay <= Time::zero()) {
      start_uplink(std::move(p));
      return;
    }
    sim_.after(extra_delay, [this, p = std::move(p)]() mutable {
      start_uplink(std::move(p));
    });
  }

  sim::Simulation& sim_;
  Time switch_latency_;
  std::vector<std::unique_ptr<Node>> nodes_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace saisim::net
