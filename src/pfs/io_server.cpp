#include "pfs/io_server.hpp"

#include <algorithm>

#include "pfs/protocol.hpp"
#include "trace/tracer.hpp"

namespace saisim::pfs {

IoServer::IoServer(sim::Simulation& simulation, net::Network& network,
                   NodeId self, IoServerConfig config,
                   BufferCacheConfig cache_config,
                   ServerSchedConfig sched_config)
    : Actor(simulation),
      network_(network),
      self_(self),
      cfg_(config),
      cache_cfg_(cache_config),
      sched_cfg_(sched_config),
      cache_(cache_config),
      cpu_(simulation, sched_config.discipline) {
  network_.set_receiver(self_,
                        [this](net::Packet p) { on_request(std::move(p)); });
}

void IoServer::on_request(net::Packet req) {
  switch (req.kind) {
    case net::PacketKind::kPfsRequest:
      on_read_request(std::move(req));
      return;
    case net::PacketKind::kPfsWriteData:
      on_write_data(std::move(req));
      return;
    default:
      SAISIM_CHECK_MSG(false, "unexpected packet kind at I/O server");
  }
}

namespace {

/// Legacy probabilistic residency: hashed from the file offset, so whether
/// a strip "is cached" is a property of the data, not the policy.
bool legacy_cache_hit(double ratio, u64 file_offset) {
  if (ratio <= 0.0) return false;
  u64 h = file_offset / 4096 + 0x9E3779B97F4A7C15ull;
  const u64 draw = splitmix64(h) % 10'000;
  return static_cast<double>(draw) < ratio * 10'000.0;
}

}  // namespace

Time IoServer::disk_busy(u64 bytes, Time ready_at, bool charge_seek,
                         bool is_flush) {
  // The single spindle serializes all transfers — demand fills, forced
  // write-backs, flush bursts, and read-ahead all contend here.
  const Time io_time =
      (charge_seek ? cfg_.disk_seek : Time::zero()) +
      (cfg_.disk_bandwidth.is_unlimited()
           ? Time::zero()
           : cfg_.disk_bandwidth.transfer_time(bytes));
  const Time start = std::max(ready_at, disk_free_at_);
  disk_free_at_ = start + io_time;
  stats_.disk_busy_ps += io_time.picoseconds();
  if (is_flush) stats_.flush_disk_ps += io_time.picoseconds();
  return disk_free_at_;
}

Time IoServer::disk_occupy(u64 bytes, Time ready_at, bool may_cache,
                           u64 file_offset) {
  if (may_cache && legacy_cache_hit(cfg_.cache_hit_ratio, file_offset)) {
    ++stats_.cache_hits;
    return ready_at;
  }
  return disk_busy(bytes, ready_at, /*charge_seek=*/true, /*is_flush=*/false);
}

void IoServer::on_read_request(net::Packet req) {
  ++stats_.requests;
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerRecv,
                     now(), self_, -1, req.request, req.strip_index,
                     static_cast<i64>(req.span_bytes));
  if (deep()) {
    deep_read(std::move(req));
    return;
  }
  // Thin legacy model: fixed CPU service charged inline, probabilistic
  // cache, one serialized disk access per miss.
  const Time ready_at = disk_occupy(
      req.span_bytes, now() + cfg_.request_service + slowdown_,
      /*may_cache=*/true, req.file_offset);

  sim().at(ready_at, [this, req = std::move(req)]() mutable {
    send_read_reply(req, now());
  });
}

void IoServer::on_write_data(net::Packet data) {
  ++stats_.write_requests;
  if (deep()) {
    deep_write(std::move(data));
    return;
  }
  // Thin legacy model: synchronous write-through — the strip is written to
  // the (serialized) disk before the ack goes out. PVFS's default sync
  // semantics; write-back buffering is the server.cache.* deep model.
  const Time ready_at =
      disk_occupy(data.payload_bytes, now() + cfg_.request_service + slowdown_,
                  /*may_cache=*/false, data.file_offset);
  sim().at(ready_at, [this, data = std::move(data)]() mutable {
    send_write_ack(data, now());
  });
}

// ---- Layered pipeline ----------------------------------------------------

void IoServer::submit_cpu(Time cost, std::function<void(Time)> k) {
  if (sched_cfg_.enabled) {
    cpu_.submit(ServerCpu::Prio::kForeground, cost, std::move(k));
    return;
  }
  // No CPU model: the work completes after `cost` with no queueing. The
  // continuation computes future timestamps from done_at and schedules
  // absolute events, so running it inline is exact.
  k(now() + cost);
}

void IoServer::deep_read(net::Packet req) {
  const Time submitted = now();
  const Time cost = (sched_cfg_.enabled ? sched_cfg_.irq_cost : Time::zero()) +
                    cfg_.request_service + slowdown_;
  submit_cpu(cost, [this, submitted, cost,
                    req = std::move(req)](Time done_at) mutable {
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerTaskRun,
                       done_at, self_, -1, req.request, req.strip_index,
                       (done_at - submitted - cost).picoseconds());
    if (!cache_.enabled()) {
      // Scheduler-only depth: the legacy probabilistic cache + disk.
      Time ready = done_at;
      if (legacy_cache_hit(cfg_.cache_hit_ratio, req.file_offset)) {
        ++stats_.cache_hits;
      } else {
        ready = disk_busy(req.span_bytes, done_at, /*charge_seek=*/true,
                          /*is_flush=*/false);
        SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                           trace::EventType::kServerDiskDone, ready, self_, -1,
                           req.request, static_cast<i64>(req.span_bytes), 0);
      }
      finish(std::move(req), ready, /*is_read=*/true);
      return;
    }
    const u64 bs = cache_.block_bytes();
    const u64 b0 = req.file_offset / bs;
    const u64 b1 = (req.file_offset + req.span_bytes - 1) / bs;
    const Time cache_done = done_at + cache_cfg_.lookup_time;
    u64 missing = 0;
    u64 forced = 0;
    for (u64 blk = b0; blk <= b1; ++blk) {
      if (!cache_.lookup(blk)) {
        ++missing;
        forced += cache_.insert(blk, /*dirty=*/false, /*prefetched=*/false);
      }
    }
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerCacheDone,
                       cache_done, self_, -1, req.request,
                       static_cast<i64>(missing),
                       static_cast<i64>(b1 - b0 + 1));
    Time ready = cache_done;
    if (missing == 0) {
      ++stats_.cache_hits;  // full request served from the cache
    } else {
      if (forced > 0) {
        // Dirty victims must hit the platter before their frames are
        // reused; nobody waits on them, but the fill queues behind them.
        disk_busy(forced * bs, cache_done, /*charge_seek=*/true,
                  /*is_flush=*/true);
      }
      ready = disk_busy(missing * bs, cache_done, /*charge_seek=*/true,
                        /*is_flush=*/false);
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                         trace::EventType::kServerDiskDone, ready, self_, -1,
                         req.request, static_cast<i64>(missing * bs),
                         static_cast<i64>(forced));
    }
    maybe_readahead(req, b1, ready);
    finish(std::move(req), ready, /*is_read=*/true);
  });
}

void IoServer::maybe_readahead(const net::Packet& req, u64 last_block,
                               Time ready) {
  if (cache_cfg_.readahead_blocks <= 0) return;
  const u64 bs = cache_.block_bytes();
  const u64 b0 = req.file_offset / bs;
  const u64 span_blocks = last_block - b0 + 1;
  Stream& st = streams_[req.owner_process];
  // A stream advances by a fixed positive stride (strip striping makes it
  // num_servers strips wide from any one server's point of view). The
  // first advancing request establishes the stride; repeats confirm it.
  const bool advancing = st.streak > 0 && b0 > st.last_block;
  const u64 stride = advancing ? b0 - st.last_block : 0;
  const bool sequential = advancing && (st.stride == 0 || stride == st.stride);
  st.last_block = b0;
  st.stride = sequential ? stride : 0;
  st.streak = sequential ? st.streak + 1 : 1;
  if (!sequential) return;
  // Prefetch the next expected requests of the stream: whole strides
  // ahead, up to readahead_blocks blocks in total.
  const u64 max_pf = static_cast<u64>(cache_cfg_.readahead_blocks);
  const u64 strides = (max_pf + span_blocks - 1) / span_blocks;
  u64 prefetched = 0;
  u64 forced = 0;
  for (u64 k = 1; k <= strides && prefetched < max_pf; ++k) {
    for (u64 j = 0; j < span_blocks && prefetched < max_pf; ++j) {
      const u64 blk = b0 + k * stride + j;
      if (cache_.contains(blk)) continue;
      forced += cache_.insert(blk, /*dirty=*/false, /*prefetched=*/true);
      ++prefetched;
    }
  }
  if (prefetched == 0) return;
  cache_.note_readahead_issued(prefetched);
  if (forced > 0) {
    disk_busy(forced * bs, ready, /*charge_seek=*/true, /*is_flush=*/true);
  }
  // The prefetch continues the stream right after the demand fill — no
  // extra seek — and occupies otherwise-idle disk time.
  disk_busy(prefetched * bs, ready, /*charge_seek=*/false, /*is_flush=*/false);
}

void IoServer::deep_write(net::Packet data) {
  const Time submitted = now();
  const Time cost = (sched_cfg_.enabled ? sched_cfg_.irq_cost : Time::zero()) +
                    cfg_.request_service + slowdown_;
  submit_cpu(cost, [this, submitted, cost,
                    data = std::move(data)](Time done_at) mutable {
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerTaskRun,
                       done_at, self_, -1, data.request, data.strip_index,
                       (done_at - submitted - cost).picoseconds());
    if (!cache_.enabled()) {
      const Time ready = disk_busy(data.payload_bytes, done_at,
                                   /*charge_seek=*/true, /*is_flush=*/false);
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                         trace::EventType::kServerDiskDone, ready, self_, -1,
                         data.request,
                         static_cast<i64>(data.payload_bytes), 0);
      finish(std::move(data), ready, /*is_read=*/false);
      return;
    }
    const u64 bs = cache_.block_bytes();
    const u64 b0 = data.file_offset / bs;
    const u64 b1 = (data.file_offset + data.payload_bytes - 1) / bs;
    const Time cache_done = done_at + cache_cfg_.lookup_time;
    Time ready = cache_done;
    if (cache_cfg_.write_back) {
      // The strip lands dirty in the cache and the ack goes out at cache
      // speed; the flush daemon owns getting it to the platter.
      u64 forced = 0;
      for (u64 blk = b0; blk <= b1; ++blk) {
        forced += cache_.insert(blk, /*dirty=*/true, /*prefetched=*/false);
      }
      if (forced > 0) {
        disk_busy(forced * bs, cache_done, /*charge_seek=*/true,
                  /*is_flush=*/true);
      }
      maybe_arm_flush();
    } else {
      // Write-through with a cache: disk before ack, but the written
      // blocks stay resident (clean) for subsequent reads.
      u64 forced = 0;
      for (u64 blk = b0; blk <= b1; ++blk) {
        forced += cache_.insert(blk, /*dirty=*/false, /*prefetched=*/false);
      }
      if (forced > 0) {
        disk_busy(forced * bs, cache_done, /*charge_seek=*/true,
                  /*is_flush=*/true);
      }
      ready = disk_busy(data.payload_bytes, cache_done, /*charge_seek=*/true,
                        /*is_flush=*/false);
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                         trace::EventType::kServerDiskDone, ready, self_, -1,
                         data.request,
                         static_cast<i64>(data.payload_bytes), 0);
    }
    finish(std::move(data), ready, /*is_read=*/false);
  });
}

void IoServer::finish(net::Packet msg, Time ready, bool is_read) {
  if (sched_cfg_.enabled) {
    // Reply build is CPU work too: it queues on the core once the data is
    // ready, behind whatever else is running (including flush work under
    // FIFO — the convoy the priority discipline exists to avoid).
    sim().at(ready, [this, msg = std::move(msg), is_read]() mutable {
      cpu_.submit(ServerCpu::Prio::kForeground, sched_cfg_.reply_cost,
                  [this, msg = std::move(msg), is_read](Time at) mutable {
                    if (is_read) {
                      send_read_reply(msg, at);
                    } else {
                      send_write_ack(msg, at);
                    }
                  });
    });
  } else {
    sim().at(ready, [this, msg = std::move(msg), is_read]() mutable {
      if (is_read) {
        send_read_reply(msg, now());
      } else {
        send_write_ack(msg, now());
      }
    });
  }
}

void IoServer::send_read_reply(const net::Packet& req, Time at) {
  stats_.bytes_served += req.span_bytes;
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerSend, at,
                     self_, -1, req.request, req.strip_index,
                     static_cast<i64>(req.span_bytes));
  net::Packet reply;
  reply.id = next_packet_id_++;
  reply.kind = net::PacketKind::kPfsData;
  reply.src = self_;
  reply.dst = req.src;
  reply.request = req.request;
  reply.owner_process = req.owner_process;
  reply.strip_index = req.strip_index;
  reply.payload_bytes = req.span_bytes;
  reply.dma_addr = req.dma_addr;
  reply.file_offset = req.file_offset;
  reply.span_bytes = req.span_bytes;
  // HintCapsuler: echo the client's aff_core_id options word into every
  // data packet of the reply.
  reply.ip_options = req.ip_options;
  network_.send(std::move(reply));
}

void IoServer::send_write_ack(const net::Packet& data, Time at) {
  (void)at;
  stats_.bytes_written += data.payload_bytes;
  net::Packet ack;
  ack.id = next_packet_id_++;
  ack.kind = net::PacketKind::kPfsWriteAck;
  ack.src = self_;
  ack.dst = data.src;
  ack.request = data.request;
  ack.owner_process = data.owner_process;
  ack.strip_index = data.strip_index;
  ack.payload_bytes = kWriteAckBytes;
  ack.dma_addr = data.dma_addr;  // client control scratch
  ack.ip_options = data.ip_options;
  network_.send(std::move(ack));
}

// ---- Flush daemon --------------------------------------------------------

void IoServer::maybe_arm_flush() {
  if (!cache_.enabled() || !cache_cfg_.write_back) return;
  if (cache_.dirty_blocks() == 0) return;
  if (!flush_armed_) {
    flush_armed_ = true;
    sim().after(cache_cfg_.flush_period, [this] { flush_tick(); });
  }
  const u64 threshold = static_cast<u64>(
      cache_cfg_.dirty_flush_threshold *
      static_cast<double>(cache_.num_blocks()));
  if (cache_.dirty_blocks() >= threshold && !flush_urgent_) {
    // Dirty high-water mark: burst immediately instead of waiting for the
    // periodic tick. Scheduled (not inline) so the burst is its own event
    // and never reorders the current one.
    flush_urgent_ = true;
    sim().after(Time::zero(), [this] {
      flush_urgent_ = false;
      do_flush_burst();
      maybe_arm_flush();
    });
  }
}

void IoServer::flush_tick() {
  flush_armed_ = false;
  do_flush_burst();
  // Re-arm only while dirty blocks remain — the daemon goes quiescent on a
  // clean cache, so an idle server's event queue drains.
  maybe_arm_flush();
}

void IoServer::do_flush_burst() {
  const u64 n = cache_.take_dirty(static_cast<u64>(cache_cfg_.flush_batch));
  if (n == 0) return;
  ++stats_.flush_bursts;
  const Time end = disk_busy(n * cache_.block_bytes(), now(),
                             /*charge_seek=*/true, /*is_flush=*/true);
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerFlush,
                     now(), self_, -1, -1, static_cast<i64>(n),
                     (end - now()).picoseconds());
  if (sched_cfg_.enabled) {
    cpu_.submit(ServerCpu::Prio::kBackground, sched_cfg_.flush_cpu_cost,
                nullptr);
  }
}

}  // namespace saisim::pfs
