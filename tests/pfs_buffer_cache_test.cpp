// Buffer-cache tests: LRU/eviction mechanics of the set-associative cache,
// the write-back flush-daemon timeline, stride-aware read-ahead usefulness,
// and run-to-run and sweep --threads bit-identity of the deep server model
// (the determinism contract must hold with the cache and scheduler
// enabled, not just in the legacy default).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "pfs/buffer_cache.hpp"
#include "pfs/io_server.hpp"
#include "sweep/runner.hpp"

namespace saisim::pfs {
namespace {

constexpr u64 kBlock = 4096;
constexpr u64 kStrip = 64ull << 10;  // 16 blocks

BufferCacheConfig one_set(int ways) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * static_cast<u64>(ways);
  cfg.ways = ways;
  return cfg;
}

TEST(BufferCacheUnit, EvictionIsLruWithinSet) {
  BufferCache c(one_set(4));
  for (u64 b = 0; b < 4; ++b) c.insert(b, false, false);
  EXPECT_TRUE(c.lookup(0));  // refresh 0: block 1 becomes oldest
  c.insert(4, false, false);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(BufferCacheUnit, ReinsertRefreshesLruAndOrsDirty) {
  BufferCache c(one_set(4));
  EXPECT_EQ(c.insert(0, false, false), 0u);
  EXPECT_EQ(c.insert(0, true, false), 0u);  // re-insert: no eviction
  EXPECT_EQ(c.dirty_blocks(), 1u);
  for (u64 b = 1; b < 4; ++b) c.insert(b, false, false);
  c.insert(0, false, false);  // refresh; dirty bit must survive
  EXPECT_EQ(c.dirty_blocks(), 1u);
  c.insert(4, false, false);  // victim is block 1, not the refreshed 0
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(BufferCacheUnit, ForcedEvictionReportsDirtyVictims) {
  BufferCache c(one_set(2));
  c.insert(0, true, false);
  c.insert(1, false, false);
  // Block 0 is the LRU victim and dirty: the insert must report one forced
  // write-back for the caller to charge to the disk.
  EXPECT_EQ(c.insert(2, false, false), 1u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.dirty_blocks(), 0u);
}

TEST(BufferCacheUnit, TakeDirtyIsOldestFirst) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * 16;
  cfg.ways = 4;  // 4 sets
  BufferCache c(cfg);
  c.insert(0, true, false);
  c.insert(1, true, false);
  c.insert(2, true, false);
  c.insert(0, true, false);  // refresh 0: flush order becomes 1, 2, 0
  EXPECT_EQ(c.take_dirty(2), 2u);
  EXPECT_EQ(c.dirty_blocks(), 1u);
  EXPECT_EQ(c.stats().flushed_blocks, 2u);
  // Only the refreshed block 0 can still be dirty.
  EXPECT_EQ(c.take_dirty(16), 1u);
  EXPECT_EQ(c.dirty_blocks(), 0u);
  EXPECT_EQ(c.take_dirty(16), 0u);
}

TEST(BufferCacheUnit, ReadaheadUsefulCreditedOncePerPrefetch) {
  BufferCache c(one_set(4));
  c.insert(7, false, /*prefetched=*/true);
  c.note_readahead_issued(1);
  EXPECT_TRUE(c.lookup(7));
  EXPECT_TRUE(c.lookup(7));  // second demand hit: no double credit
  EXPECT_EQ(c.stats().readahead_issued, 1u);
  EXPECT_EQ(c.stats().readahead_useful, 1u);
}

// ---- Deep-server timeline tests ------------------------------------------

/// One deep server driven with raw packets (same shape as the harness in
/// pfs_io_server_test.cpp).
struct Harness {
  sim::Simulation s;
  net::Network net{s, Time::us(5)};
  NodeId server_node = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  NodeId client_node = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  IoServer server;

  struct Arrival {
    net::Packet packet;
    Time at;
  };
  std::vector<Arrival> arrivals;
  u64 next_id = 1;

  explicit Harness(BufferCacheConfig cache, IoServerConfig io = {},
                   ServerSchedConfig sched = {})
      : server(s, net, server_node, io, cache, sched) {
    net.set_receiver(client_node, [this](net::Packet p) {
      arrivals.push_back({std::move(p), s.now()});
    });
  }

  void send(net::PacketKind kind, RequestId req, u64 offset, u64 span,
            Time at) {
    s.at(at, [this, kind, req, offset, span] {
      net::Packet p;
      p.id = next_id++;
      p.kind = kind;
      p.src = client_node;
      p.dst = server_node;
      p.request = req;
      p.owner_process = 1;
      p.payload_bytes = kind == net::PacketKind::kPfsWriteData ? span : 256;
      p.file_offset = offset;
      p.span_bytes = span;
      net.send(std::move(p));
    });
  }

  Time latency_of(RequestId req, Time sent) const {
    for (const Arrival& a : arrivals) {
      if (a.packet.request == req) return a.at - sent;
    }
    ADD_FAILURE() << "no reply for request " << req;
    return Time::zero();
  }
};

TEST(BufferCacheTimeline, WriteBackAcksAtCacheSpeedAndFlushesBehind) {
  IoServerConfig io;
  BufferCacheConfig wb;
  wb.capacity_bytes = 1ull << 20;
  BufferCacheConfig wt = wb;
  wt.write_back = false;
  Harness hb(wb, io), ht(wt, io);
  hb.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  ht.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  hb.s.run();  // returning at all proves the flush daemon goes quiescent
  ht.s.run();
  ASSERT_EQ(hb.arrivals.size(), 1u);
  ASSERT_EQ(ht.arrivals.size(), 1u);
  // Write-through pays the disk before the ack; write-back does not.
  const Time io_time = io.disk_seek + io.disk_bandwidth.transfer_time(kStrip);
  EXPECT_EQ(ht.arrivals[0].at - hb.arrivals[0].at, io_time);
  // ...but the bytes still reach the platter, via the background daemon.
  EXPECT_GE(hb.server.stats().flush_bursts, 1u);
  EXPECT_EQ(hb.server.cache().dirty_blocks(), 0u);
  EXPECT_EQ(hb.server.cache().stats().flushed_blocks, kStrip / kBlock);
  EXPECT_GT(hb.server.stats().flush_disk_ps, 0);
}

TEST(BufferCacheTimeline, FlushDaemonDrainsInPeriodSizedBatches) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 1ull << 20;
  cfg.flush_batch = 16;
  cfg.flush_period = Time::ms(10);
  Harness h(cfg);
  // One 128 KiB write = 32 dirty blocks = two flush bursts, one per tick.
  h.send(net::PacketKind::kPfsWriteData, 1, 0, 2 * kStrip, Time::zero());
  h.s.run();
  EXPECT_EQ(h.server.stats().flush_bursts, 2u);
  EXPECT_EQ(h.server.cache().stats().flushed_blocks, 2 * kStrip / kBlock);
  EXPECT_EQ(h.server.cache().dirty_blocks(), 0u);
}

TEST(BufferCacheTimeline, DirtyThresholdTriggersUrgentFlush) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * 64;
  cfg.ways = 8;
  cfg.dirty_flush_threshold = 0.25;  // 16 of 64 blocks
  cfg.flush_period = Time::sec(1);   // the periodic tick alone is too late
  Harness h(cfg);
  h.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  u64 dirty_at_1ms = ~0ull;
  h.s.at(Time::ms(1), [&] { dirty_at_1ms = h.server.cache().dirty_blocks(); });
  h.s.run();
  // The high-water burst fired immediately, long before the 1 s tick.
  EXPECT_EQ(dirty_at_1ms, 0u);
  EXPECT_GE(h.server.stats().flush_bursts, 1u);
}

TEST(BufferCacheTimeline, ReadaheadTurnsAStreamIntoHits) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 1ull << 20;
  cfg.readahead_blocks = 16;  // one strip ahead
  Harness h(cfg);
  // Sequential strip stream, spaced so each request (and its prefetch)
  // finishes before the next arrives.
  h.send(net::PacketKind::kPfsRequest, 1, 0, kStrip, Time::zero());
  h.send(net::PacketKind::kPfsRequest, 2, kStrip, kStrip, Time::ms(10));
  h.send(net::PacketKind::kPfsRequest, 3, 2 * kStrip, kStrip, Time::ms(20));
  h.s.run();
  ASSERT_EQ(h.arrivals.size(), 3u);
  // Request 2 confirms the stride and prefetches request 3's blocks;
  // request 3 is then a full-request cache hit.
  EXPECT_EQ(h.server.stats().cache_hits, 1u);
  EXPECT_EQ(h.server.cache().stats().readahead_useful, kStrip / kBlock);
  EXPECT_GE(h.server.cache().stats().readahead_issued, kStrip / kBlock);
  const Time lat2 = h.latency_of(2, Time::ms(10));
  const Time lat3 = h.latency_of(3, Time::ms(20));
  // The hit skips the seek entirely.
  EXPECT_LT(lat3 + IoServerConfig{}.disk_seek, lat2 + Time::us(1));
}

TEST(BufferCacheTimeline, StridedStreamIsDetectedAcrossStripeGaps) {
  // A striped file shows up at one server with a stride of
  // num_servers * strip blocks; the detector must still prefetch.
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 4ull << 20;
  cfg.readahead_blocks = 16;
  Harness h(cfg);
  const u64 stride_bytes = 8 * kStrip;  // 8-server striping
  for (int i = 0; i < 4; ++i) {
    h.send(net::PacketKind::kPfsRequest, i,
           stride_bytes * static_cast<u64>(i), kStrip, Time::ms(10 * i));
  }
  h.s.run();
  ASSERT_EQ(h.arrivals.size(), 4u);
  // Requests 2 and 3 (the third and fourth) ride on prefetched blocks.
  EXPECT_EQ(h.server.stats().cache_hits, 2u);
  EXPECT_GE(h.server.cache().stats().readahead_useful, 2 * kStrip / kBlock);
}

// ---- Bit-identity with the deep model enabled ----------------------------

void hex_u64(std::string& out, u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
  out += '.';
}

void hex_f64(std::string& out, double v) { hex_u64(out, std::bit_cast<u64>(v)); }

std::string metrics_fingerprint(const RunMetrics& m) {
  std::string fp;
  hex_f64(fp, m.bandwidth_mbps);
  hex_f64(fp, m.l2_miss_rate);
  hex_f64(fp, m.cpu_utilization);
  hex_f64(fp, m.unhalted_cycles);
  hex_u64(fp, m.total_bytes);
  hex_u64(fp, static_cast<u64>(m.elapsed.picoseconds()));
  hex_u64(fp, m.interrupts);
  hex_f64(fp, m.mean_read_latency_us);
  for (double b : m.per_client_bandwidth_mbps) hex_f64(fp, b);
  return fp;
}

ExperimentConfig deep_experiment() {
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.client.nic_bandwidth = Bandwidth::gbit(3.0);
  cfg.client.nic.queues = 3;
  cfg.ior.transfer_size = 128ull << 10;
  cfg.ior.total_bytes = 2ull << 20;
  cfg.policy = PolicyKind::kSourceAware;
  cfg.server.cache.capacity_bytes = 1ull << 20;
  cfg.server.cache.readahead_blocks = 16;
  cfg.server.sched.enabled = true;
  return cfg;
}

TEST(DeepServerDeterminism, RerunBitIdentical) {
  for (const workload::IorMode mode :
       {workload::IorMode::kRead, workload::IorMode::kWrite}) {
    ExperimentConfig cfg = deep_experiment();
    cfg.ior.mode = mode;
    EXPECT_EQ(metrics_fingerprint(run_experiment(cfg)),
              metrics_fingerprint(run_experiment(cfg)));
  }
}

TEST(DeepServerDeterminism, SweepThreads1v4BitIdentical) {
  sweep::SweepSpec spec("deep", deep_experiment());
  spec.axis("mode",
            std::vector<workload::IorMode>{workload::IorMode::kRead,
                                           workload::IorMode::kWrite},
            [](workload::IorMode m) {
              return std::string(workload::kIorModeNames[static_cast<int>(m)]);
            },
            [](ExperimentConfig& c, workload::IorMode m) { c.ior.mode = m; })
      .policies({PolicyKind::kIrqbalance, PolicyKind::kSourceAware});
  sweep::SweepRunner serial(sweep::RunnerOptions{.threads = 1,
                                                 .progress = false});
  sweep::SweepRunner parallel(sweep::RunnerOptions{.threads = 4,
                                                   .progress = false});
  const sweep::SweepResult a = serial.run(spec);
  const sweep::SweepResult b = parallel.run(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].labels, b.points[i].labels);
    EXPECT_EQ(metrics_fingerprint(a.metrics[i]),
              metrics_fingerprint(b.metrics[i]));
  }
}

}  // namespace
}  // namespace saisim::pfs
