#include "pfs/pfs_client.hpp"

#include <algorithm>
#include <utility>

#include "trace/tracer.hpp"
#include "util/log.hpp"

namespace saisim::pfs {

PfsClient::PfsClient(sim::Simulation& simulation, net::Network& network,
                     net::ClientNic& nic, NodeId self, StripeLayout layout,
                     std::vector<NodeId> server_nodes, NodeId meta_node,
                     mem::AddressSpace& address_space, PfsClientConfig config,
                     ClientSchedConfig sched_config)
    : Actor(simulation),
      network_(network),
      nic_(nic),
      self_(self),
      layout_(std::move(layout)),
      servers_(std::move(server_nodes)),
      meta_node_(meta_node),
      address_space_(address_space),
      cfg_(config),
      sched_cfg_(sched_config) {
  SAISIM_CHECK(static_cast<int>(servers_.size()) == layout_.num_servers());
  if (client_sched_enabled(sched_cfg_)) {
    sched_ = std::make_unique<StragglerScheduler>(sched_cfg_, servers_.size());
  }
  control_scratch_ = address_space_.allocate(4096);
  nic_.set_rx_handler([this](const net::Packet& p, CoreId handler, Time at) {
    on_rx(p, handler, at);
  });
}

StripSpan* PfsClient::alloc_span_block(u32 nspans) {
  auto* spans =
      static_cast<StripSpan*>(arena_.allocate(span_block_bytes(nspans)));
  u64* bits = bits_of(spans, nspans);
  for (u64 w = 0; w < bitmap_words(nspans); ++w) bits[w] = 0;
  return spans;
}

void PfsClient::release_span_block(StripSpan* spans, u32 nspans) {
  arena_.release(spans, span_block_bytes(nspans));
}

PfsClient::StripCtl* PfsClient::alloc_ctl_block(u32 nspans) {
  auto* ctl =
      static_cast<StripCtl*>(arena_.allocate(u64{nspans} * sizeof(StripCtl)));
  for (u32 i = 0; i < nspans; ++i) ctl[i] = StripCtl{};
  return ctl;
}

void PfsClient::release_ctl_block(StripCtl* ctl, u32 nspans) {
  arena_.release(ctl, u64{nspans} * sizeof(StripCtl));
}

u64 PfsClient::server_index_of(NodeId node) const {
  // Linear scan: the server list is small (the paper's testbed tops out at
  // 8; sweeps at a few dozen) and this runs only with the scheduler active.
  for (u64 i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == node) return i;
  }
  SAISIM_CHECK_MSG(false, "pfs strip reply from a node that is not a server");
  return 0;
}

void PfsClient::open(ProcessId proc, OpenCallback on_open) {
  const RequestId id = next_request_++;
  PendingOpen po;
  po.proc = proc;
  po.on_open = std::move(on_open);
  po.current_timeout = cfg_.retransmit_timeout;
  PendingOpen& stored =
      pending_opens_.emplace(static_cast<u64>(id), std::move(po));
  send_open_request(id, stored);
  arm_open_timeout(id);
}

void PfsClient::send_open_request(RequestId id, const PendingOpen& po) {
  net::Packet req;
  req.id = next_packet_id_++;
  req.kind = net::PacketKind::kMetaRequest;
  req.src = self_;
  req.dst = meta_node_;
  req.request = id;
  req.owner_process = po.proc;
  req.payload_bytes = cfg_.request_msg_bytes;
  req.dma_addr = control_scratch_.base;
  network_.send(std::move(req));
}

RequestId PfsClient::read(ProcessId proc, std::optional<CoreId> hint,
                          u64 file_offset, u64 bytes, ReadCallback on_complete,
                          StripConsumer strip_consumer) {
  const RequestId id = next_request_++;
  const u32 nspans = layout_.count_spans(file_offset, bytes);
  PendingRead pr;
  pr.proc = proc;
  pr.hint = hint;
  pr.spans = alloc_span_block(nspans);
  pr.nspans = nspans;
  layout_.decompose_into(file_offset, bytes, pr.spans);
  pr.outstanding = nspans;
  pr.retries_left = cfg_.max_retransmits;
  pr.current_timeout = cfg_.retransmit_timeout;
  pr.buffer = address_space_.allocate(bytes);
  pr.issued_at = now();
  pr.on_complete = std::move(on_complete);
  pr.strip_consumer = std::move(strip_consumer);

  ++stats_.reads_issued;
  PendingRead& stored = pending_.emplace(static_cast<u64>(id), std::move(pr));
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsIssue,
                     now(), self_, hint.value_or(kNoCore), id,
                     static_cast<i64>(bytes), static_cast<i64>(nspans));
  if (sched_ == nullptr) {
    for (u32 s = 0; s < stored.nspans; ++s) {
      send_strip_request(id, stored, s);
    }
  } else {
    // Dispatch stage: pick each strip's target (redirecting away from slow
    // primaries), then issue slowest-expected-target first so the laggard's
    // round trip overlaps everyone else's instead of extending the tail.
    // The sort is stable and all warmup estimates tie at zero, so a healthy
    // fleet issues in exactly the fifo order.
    stored.ctl = alloc_ctl_block(nspans);
    issue_order_.resize(nspans);
    // Mark this read's own servers so a redirect never lands a strip on a
    // peer that is already serving another strip of the same read.
    sched_->begin_read();
    for (u32 s = 0; s < nspans; ++s)
      sched_->note_peer(static_cast<u64>(stored.spans[s].server));
    for (u32 s = 0; s < nspans; ++s) {
      stored.ctl[s].target = static_cast<u32>(
          sched_->choose_target(static_cast<u64>(stored.spans[s].server)));
      issue_order_[s] = s;
    }
    std::stable_sort(issue_order_.begin(), issue_order_.end(),
                     [&](u32 a, u32 b) {
                       return sched_->expected_latency(stored.ctl[a].target) >
                              sched_->expected_latency(stored.ctl[b].target);
                     });
    for (u32 k = 0; k < nspans; ++k) {
      const u32 s = issue_order_[k];
      send_strip_request(id, stored, s);
      arm_hedge(id, stored, s);
    }
  }
  arm_timeout(id);
  return id;
}

void PfsClient::send_strip_request(RequestId id, PendingRead& pr,
                                   u64 span_idx) {
  // The scheduler's dispatch decision (redirect away from a slow primary)
  // lives in the ctl block; without it the strip goes where the layout put
  // it, exactly the pre-scheduler path.
  u64 target = static_cast<u64>(pr.spans[span_idx].server);
  if (pr.ctl != nullptr) {
    target = pr.ctl[span_idx].target;
    pr.ctl[span_idx].sent_at = now();
  }
  ++stats_.strips_requested;
  send_strip_copy(id, pr, span_idx, target);
}

void PfsClient::send_strip_copy(RequestId id, const PendingRead& pr,
                                u64 span_idx, u64 server_idx) {
  const StripSpan& span = pr.spans[span_idx];
  net::Packet req;
  req.id = next_packet_id_++;
  req.kind = net::PacketKind::kPfsRequest;
  req.src = self_;
  req.dst = servers_[server_idx];
  req.request = id;
  req.owner_process = pr.proc;
  req.strip_index = static_cast<u32>(span_idx);
  req.payload_bytes = cfg_.request_msg_bytes;
  // The reply strip lands at its offset within the read buffer.
  req.dma_addr = pr.buffer.base + (span.file_offset - pr.spans[0].file_offset);
  req.file_offset = span.file_offset;
  req.span_bytes = span.bytes;
  // HintMessager hook: the SAIs stack stamps aff_core_id into the request's
  // options here; baseline kernels leave it empty.
  if (decorator_) decorator_(req, pr.hint);
  network_.send(std::move(req));
}

void PfsClient::arm_hedge(RequestId id, PendingRead& pr, u32 span_idx) {
  if (servers_.size() < 2) return;
  const Time delay = sched_->hedge_delay(pr.ctl[span_idx].target);
  if (delay <= Time::zero()) return;
  pr.ctl[span_idx].hedge_timer =
      sim().after(delay, [this, id, span_idx] { on_hedge_timer(id, span_idx); });
}

void PfsClient::on_hedge_timer(RequestId id, u32 span_idx) {
  PendingRead* pr = pending_.find(static_cast<u64>(id));
  if (pr == nullptr) return;  // completed in the same tick
  StripCtl& ctl = pr->ctl[span_idx];
  ctl.hedge_timer.reset();  // fired — the handle must not be cancelled again
  if (bit_test(bits_of(pr->spans, pr->nspans), span_idx)) return;
  // No reply within hedge_quantile x the expected latency: issue a
  // duplicate on the other path and let the first arrival win (the loser's
  // reply hits the dedup bitmap like any stale retransmit).
  ctl.hedge_target = static_cast<u32>(sched_->hedge_target(
      static_cast<u64>(pr->spans[span_idx].server), ctl.target));
  ctl.hedged = true;
  ctl.hedge_sent_at = now();
  ++stats_.hedges_issued;
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsHedge,
                     now(), self_, kNoCore, id, static_cast<i64>(span_idx),
                     static_cast<i64>(ctl.hedge_target),
                     (now() - ctl.sent_at).picoseconds());
  send_strip_copy(id, *pr, span_idx, ctl.hedge_target);
}

void PfsClient::note_read_strip(PendingRead& pr, u64 span_idx,
                                const net::Packet& p, Time at) {
  StripCtl& ctl = pr.ctl[span_idx];
  sim().cancel_if_armed(ctl.hedge_timer);
  const u64 src = server_index_of(p.src);
  if (ctl.hedged && src == ctl.hedge_target && ctl.hedge_target != ctl.target) {
    // The duplicate beat the primary: the hedge paid for itself.
    ++stats_.hedges_won;
    sched_->record_rtt(src, at - ctl.hedge_sent_at);
    return;
  }
  if (ctl.hedged) ++stats_.hedges_wasted;
  sched_->record_rtt(ctl.target, at - ctl.sent_at);
}

RequestId PfsClient::write(ProcessId proc, std::optional<CoreId> hint,
                           u64 file_offset, mem::AddressRange buffer,
                           ReadCallback on_complete) {
  const RequestId id = next_request_++;
  const u32 nspans = layout_.count_spans(file_offset, buffer.bytes);
  PendingWrite pw;
  pw.proc = proc;
  pw.hint = hint;
  pw.spans = alloc_span_block(nspans);
  pw.nspans = nspans;
  layout_.decompose_into(file_offset, buffer.bytes, pw.spans);
  pw.outstanding = nspans;
  pw.retries_left = cfg_.max_retransmits;
  pw.current_timeout = cfg_.retransmit_timeout;
  pw.buffer = buffer;
  pw.issued_at = now();
  pw.on_complete = std::move(on_complete);

  ++stats_.writes_issued;
  PendingWrite& stored =
      pending_writes_.emplace(static_cast<u64>(id), std::move(pw));
  // Write data must land on the owning server (no redirect, no hedging),
  // but acks still feed the per-server estimator — a slow server's write
  // path is just as slow, and samples from writes warm the read dispatch.
  if (sched_ != nullptr) stored.ctl = alloc_ctl_block(nspans);
  for (u32 s = 0; s < stored.nspans; ++s) {
    send_strip_write(id, stored, s);
  }
  arm_write_timeout(id);
  return id;
}

void PfsClient::send_strip_write(RequestId id, PendingWrite& pw,
                                 u64 span_idx) {
  const StripSpan& span = pw.spans[span_idx];
  if (pw.ctl != nullptr) {
    pw.ctl[span_idx].target = static_cast<u32>(span.server);
    pw.ctl[span_idx].sent_at = now();
  }
  net::Packet data;
  data.id = next_packet_id_++;
  data.kind = net::PacketKind::kPfsWriteData;
  data.src = self_;
  data.dst = servers_[static_cast<u64>(span.server)];
  data.request = id;
  data.owner_process = pw.proc;
  data.strip_index = static_cast<u32>(span_idx);
  data.payload_bytes = span.bytes;
  // Acks land in the client's control scratch region.
  data.dma_addr = control_scratch_.base;
  data.file_offset = span.file_offset;
  data.span_bytes = span.bytes;
  if (decorator_) decorator_(data, pw.hint);
  ++stats_.strips_written;
  network_.send(std::move(data));
}

void PfsClient::on_write_ack(const net::Packet& p, CoreId handler, Time at) {
  PendingWrite* pw = pending_writes_.find(static_cast<u64>(p.request));
  if (pw == nullptr) {
    ++stats_.duplicate_strips;
    return;
  }
  const u64 s = p.strip_index;
  SAISIM_CHECK(s < pw->nspans);
  u64* acked = bits_of(pw->spans, pw->nspans);
  if (bit_test(acked, s)) {
    ++stats_.duplicate_strips;
    return;
  }
  bit_set(acked, s);
  // Same reset-on-progress as the read path: an ack proves the path is
  // alive, so later timeouts of this request restart from base.
  pw->current_timeout = cfg_.retransmit_timeout;
  if (pw->ctl != nullptr) {
    sched_->record_rtt(pw->ctl[s].target, at - pw->ctl[s].sent_at);
  }
  SAISIM_CHECK(pw->outstanding > 0);
  if (--pw->outstanding > 0) return;

  sim().cancel(pw->timeout);
  ReadResult result;
  result.request = p.request;
  result.buffer = pw->buffer;
  result.issued_at = pw->issued_at;
  result.completed_at = at;
  result.strips = pw->nspans;
  result.retransmitted_strips = pw->retransmitted;
  result.final_handler = handler;
  auto cb = std::move(pw->on_complete);
  if (pw->ctl != nullptr) release_ctl_block(pw->ctl, pw->nspans);
  release_span_block(pw->spans, pw->nspans);
  pending_writes_.erase(static_cast<u64>(p.request));
  ++stats_.writes_completed;
  stats_.write_latency_us.add(
      (result.completed_at - result.issued_at).microseconds());
  if (cb) cb(result);
}

Time PfsClient::backoff(Time current) const {
  // RTO backoff: congestion (as opposed to loss) must not be amplified by
  // ever-faster retries — but doubling is clamped so a long-lived request
  // keeps probing instead of going silent for the rest of the run.
  return std::min(current * 2, cfg_.max_retransmit_timeout);
}

void PfsClient::arm_timeout(RequestId id) {
  PendingRead* pr = pending_.find(static_cast<u64>(id));
  SAISIM_CHECK(pr != nullptr);
  pr->timeout =
      sim().after(pr->current_timeout, [this, id] { on_timeout(id); });
}

void PfsClient::on_timeout(RequestId id) {
  PendingRead* pr = pending_.find(static_cast<u64>(id));
  if (pr == nullptr) return;  // completed in the same tick
  pr->timeout.reset();
  if (pr->retries_left <= 0) {
    fail_read(id);
    return;
  }
  --pr->retries_left;
  const u64* received = bits_of(pr->spans, pr->nspans);
  for (u64 s = 0; s < pr->nspans; ++s) {
    if (bit_test(received, s)) continue;
    ++stats_.retransmits;
    ++pr->retransmitted;
    SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kDebug,
                  "retransmitting strip " << s << " of request " << id
                                          << " (retries left "
                                          << pr->retries_left << ")");
    // Retransmits supersede hedging: both copies are now being re-sent by
    // the RTO machinery, so a still-armed hedge timer for this strip is
    // disarmed rather than left to fire a third copy.
    if (pr->ctl != nullptr) sim().cancel_if_armed(pr->ctl[s].hedge_timer);
    send_strip_request(id, *pr, s);
  }
  pr->current_timeout = backoff(pr->current_timeout);
  arm_timeout(id);
}

void PfsClient::fail_read(RequestId id) {
  PendingRead* pr = pending_.find(static_cast<u64>(id));
  SAISIM_CHECK(pr != nullptr);
  ReadResult result;
  result.request = id;
  result.buffer = pr->buffer;
  result.issued_at = pr->issued_at;
  result.completed_at = now();
  result.strips = pr->nspans;
  result.retransmitted_strips = pr->retransmitted;
  result.failed = true;
  result.lost_strips = pr->outstanding;
  SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kWarn,
                "read " << id << " failed: " << result.lost_strips
                        << " strips still missing after "
                        << result.retransmitted_strips << " retransmits");
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsComplete,
                     now(), self_, kNoCore, id,
                     static_cast<i64>(result.buffer.bytes),
                     static_cast<i64>(result.retransmitted_strips));
  auto cb = std::move(pr->on_complete);
  address_space_.release(pr->buffer);
  if (pr->ctl != nullptr) {
    // Lost strips may still carry an armed hedge timer; disarm before the
    // entry (and with it the handles) goes away.
    for (u32 i = 0; i < pr->nspans; ++i) {
      sim().cancel_if_armed(pr->ctl[i].hedge_timer);
    }
    release_ctl_block(pr->ctl, pr->nspans);
  }
  release_span_block(pr->spans, pr->nspans);
  pending_.erase(static_cast<u64>(id));
  ++stats_.reads_failed;
  if (cb) cb(result);
}

void PfsClient::arm_write_timeout(RequestId id) {
  PendingWrite* pw = pending_writes_.find(static_cast<u64>(id));
  SAISIM_CHECK(pw != nullptr);
  pw->timeout =
      sim().after(pw->current_timeout, [this, id] { on_write_timeout(id); });
}

void PfsClient::on_write_timeout(RequestId id) {
  PendingWrite* pw = pending_writes_.find(static_cast<u64>(id));
  if (pw == nullptr) return;  // completed in the same tick
  pw->timeout.reset();
  if (pw->retries_left <= 0) {
    fail_write(id);
    return;
  }
  --pw->retries_left;
  const u64* acked = bits_of(pw->spans, pw->nspans);
  for (u64 s = 0; s < pw->nspans; ++s) {
    if (bit_test(acked, s)) continue;
    ++stats_.retransmits;
    ++pw->retransmitted;
    SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kDebug,
                  "retransmitting write strip " << s << " of request " << id
                                                << " (retries left "
                                                << pw->retries_left << ")");
    send_strip_write(id, *pw, s);
  }
  pw->current_timeout = backoff(pw->current_timeout);
  arm_write_timeout(id);
}

void PfsClient::fail_write(RequestId id) {
  PendingWrite* pw = pending_writes_.find(static_cast<u64>(id));
  SAISIM_CHECK(pw != nullptr);
  ReadResult result;
  result.request = id;
  result.buffer = pw->buffer;
  result.issued_at = pw->issued_at;
  result.completed_at = now();
  result.strips = pw->nspans;
  result.retransmitted_strips = pw->retransmitted;
  result.failed = true;
  result.lost_strips = pw->outstanding;
  SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kWarn,
                "write " << id << " failed: " << result.lost_strips
                         << " strips unacked after "
                         << result.retransmitted_strips << " retransmits");
  auto cb = std::move(pw->on_complete);
  if (pw->ctl != nullptr) release_ctl_block(pw->ctl, pw->nspans);
  release_span_block(pw->spans, pw->nspans);
  pending_writes_.erase(static_cast<u64>(id));
  ++stats_.writes_failed;
  if (cb) cb(result);
}

void PfsClient::arm_open_timeout(RequestId id) {
  PendingOpen* po = pending_opens_.find(static_cast<u64>(id));
  SAISIM_CHECK(po != nullptr);
  po->timeout =
      sim().after(po->current_timeout, [this, id] { on_open_timeout(id); });
}

void PfsClient::on_open_timeout(RequestId id) {
  PendingOpen* po = pending_opens_.find(static_cast<u64>(id));
  if (po == nullptr) return;  // completed in the same tick
  po->timeout.reset();
  ++stats_.retransmits;
  SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kDebug,
                "retransmitting metadata open " << id);
  send_open_request(id, *po);
  po->current_timeout = backoff(po->current_timeout);
  arm_open_timeout(id);
}

void PfsClient::on_rx(const net::Packet& p, CoreId handler, Time at) {
  if (p.kind == net::PacketKind::kMetaReply) {
    PendingOpen* po = pending_opens_.find(static_cast<u64>(p.request));
    if (po == nullptr) {
      // Reply to a retransmitted open that already completed — same dedup
      // treatment as a late data strip.
      ++stats_.duplicate_strips;
      return;
    }
    sim().cancel(po->timeout);
    auto cb = std::move(po->on_open);
    pending_opens_.erase(static_cast<u64>(p.request));
    if (cb) cb(at);
    return;
  }
  if (p.kind == net::PacketKind::kPfsWriteAck) {
    on_write_ack(p, handler, at);
    return;
  }
  SAISIM_CHECK(p.kind == net::PacketKind::kPfsData);

  PendingRead* pr = pending_.find(static_cast<u64>(p.request));
  if (pr == nullptr) {
    ++stats_.duplicate_strips;  // reply to an already-satisfied retransmit
    return;
  }
  const u64 s = p.strip_index;
  SAISIM_CHECK(s < pr->nspans);
  u64* received = bits_of(pr->spans, pr->nspans);
  if (bit_test(received, s)) {
    ++stats_.duplicate_strips;
    return;
  }
  bit_set(received, s);
  ++stats_.strips_received;
  // Progress resets the RTO to base: backoff doubles to absorb congestion,
  // but once any strip of this request lands the path is demonstrably
  // alive, and letting one early loss inflate every later timeout of the
  // same request just stretches its recovery (pre-fix behaviour). A no-op
  // on the lossless path, where current_timeout never left base.
  pr->current_timeout = cfg_.retransmit_timeout;
  if (pr->ctl != nullptr) note_read_strip(*pr, s, p, at);
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsStrip, at,
                     self_, handler, p.request, static_cast<i64>(s),
                     static_cast<i64>(p.payload_bytes));
  if (pr->strip_consumer) pr->strip_consumer(p, handler, at);
  SAISIM_CHECK(pr->outstanding > 0);
  if (--pr->outstanding > 0) return;

  // All peer strips arrived and were protocol-processed; wake the reader.
  sim().cancel(pr->timeout);
  ReadResult result;
  result.request = p.request;
  result.buffer = pr->buffer;
  result.issued_at = pr->issued_at;
  result.completed_at = at;
  result.strips = pr->nspans;
  result.retransmitted_strips = pr->retransmitted;
  result.final_handler = handler;
  auto cb = std::move(pr->on_complete);
  if (pr->ctl != nullptr) {
    // Every strip arrived, so per-strip arrival already disarmed each hedge
    // timer; the sweep is belt-and-braces against future early-complete
    // paths (cancel_if_armed no-ops on reset handles).
    for (u32 i = 0; i < pr->nspans; ++i) {
      sim().cancel_if_armed(pr->ctl[i].hedge_timer);
    }
    release_ctl_block(pr->ctl, pr->nspans);
  }
  release_span_block(pr->spans, pr->nspans);
  pending_.erase(static_cast<u64>(p.request));
  ++stats_.reads_completed;
  const Time latency = result.completed_at - result.issued_at;
  stats_.read_latency_us.add(latency.microseconds());
  // Integer-microsecond histogram, merged into the run's counter registry
  // at the end-of-run barrier (trace/counter_registry.hpp).
  stats_.read_latency_us_hist.add(
      static_cast<u64>(latency.picoseconds() / 1'000'000));
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsComplete,
                     at, self_, handler, result.request,
                     static_cast<i64>(result.buffer.bytes),
                     static_cast<i64>(result.retransmitted_strips));
  if (cb) cb(result);
}

}  // namespace saisim::pfs
