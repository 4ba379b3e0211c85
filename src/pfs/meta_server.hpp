// The PVFS metadata server: answers open/layout lookups. One instance per
// file system (the paper's setup used one metadata node beside 8-48 I/O
// nodes).
//
// Two service models, both with a fixed per-lookup service_time:
//   * serialize = false (default): every lookup completes service_time
//     after arrival, concurrent lookups overlap freely — the legacy
//     unqueued model, kept bit-exact for the goldens;
//   * serialize = true: one service queue — concurrent opens line up and
//     metadata saturation produces natural stragglers (each queued lookup
//     is traced with its queue depth and wait).
#pragma once

#include <algorithm>

#include "net/network.hpp"
#include "pfs/protocol.hpp"
#include "sim/actor.hpp"
#include "trace/tracer.hpp"
#include "util/reflect.hpp"

namespace saisim::pfs {

struct MetaServerConfig {
  /// CPU + storage time to resolve one open/layout lookup.
  Time service_time = Time::us(50);
  /// Single-queue model: lookups serialize through one service slot.
  bool serialize = false;
};

template <class V>
void describe(V& v, MetaServerConfig& c) {
  namespace r = util::reflect;
  v.field("service_time", c.service_time, r::non_negative());
  v.field("serialize", c.serialize);
}

class MetaServer : public sim::Actor {
 public:
  MetaServer(sim::Simulation& simulation, net::Network& network, NodeId self,
             MetaServerConfig config = {})
      : Actor(simulation), network_(network), self_(self), cfg_(config) {
    network_.set_receiver(self_, [this](net::Packet p) {
      SAISIM_CHECK(p.kind == net::PacketKind::kMetaRequest);
      on_lookup(std::move(p));
    });
  }

  NodeId node() const { return self_; }
  u64 lookups() const { return lookups_; }
  u64 max_queue_depth() const { return max_queue_depth_; }
  i64 queue_wait_ps() const { return queue_wait_ps_; }

 private:
  void on_lookup(net::Packet p) {
    ++lookups_;
    Time done;
    if (cfg_.serialize) {
      const Time start = std::max(now(), busy_until_);
      queue_wait_ps_ += (start - now()).picoseconds();
      ++pending_;
      max_queue_depth_ = std::max(max_queue_depth_, pending_);
      done = start + cfg_.service_time;
      busy_until_ = done;
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kMetaLookup,
                         now(), self_, -1, p.request,
                         static_cast<i64>(pending_),
                         (start - now()).picoseconds());
    } else {
      done = now() + cfg_.service_time;
    }
    sim().at(done, [this, p = std::move(p)]() mutable {
      if (cfg_.serialize && pending_ > 0) --pending_;
      net::Packet reply;
      reply.id = next_id_++;
      reply.kind = net::PacketKind::kMetaReply;
      reply.src = self_;
      reply.dst = p.src;
      reply.request = p.request;
      reply.owner_process = p.owner_process;
      reply.payload_bytes = kMetaReplyBytes;  // layout descriptor
      reply.dma_addr = p.dma_addr;
      network_.send(std::move(reply));
    });
  }

  net::Network& network_;
  NodeId self_;
  MetaServerConfig cfg_;
  Time busy_until_ = Time::zero();
  u64 lookups_ = 0;
  u64 pending_ = 0;
  u64 max_queue_depth_ = 0;
  i64 queue_wait_ps_ = 0;
  u64 next_id_ = 1;
};

}  // namespace saisim::pfs
