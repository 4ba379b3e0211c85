// saisim_perf: the simulator benchmark. Runs one named workload back to
// back for a fixed host-time budget and reports end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1); see README.md.
//
//   saisim_perf --workload <strip_read|fanin|small_io> --seed <n>
//               --seconds <s> --trace <0|1> [--out <dir>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. The full report (host fingerprint, sim_digest, every metric)
// and the benchmark's own spans are written under --out.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "sweep/runner.hpp"
#include "trace/span.hpp"
#include "trace/tracer.hpp"
#include "util/reflect.hpp"
#include "workloads.hpp"

using namespace saisim;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- The benchmark's own spans -------------------------------------------

class SpanLog {
 public:
  static constexpr u64 kNoParent = 0;

  u64 open(std::string name, u64 parent = kNoParent) {
    spans_.push_back(Span{spans_.size() + 1, parent, std::move(name),
                          seconds_since(origin_), -1.0});
    return spans_.back().id;
  }
  void close(u64 id) { spans_[id - 1].end_s = seconds_since(origin_); }

  std::string json() const {
    std::ostringstream o;
    o.precision(9);
    o << "{\"spans\":[";
    for (const Span& s : spans_) {
      o << (s.id == 1 ? "" : ",") << "\n{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}";
    }
    o << "\n]}\n";
    return o.str();
  }

 private:
  struct Span {
    u64 id;
    u64 parent;
    std::string name;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const u64 n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Tail {
  double percentile;
  double value;
};

// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least ten
// samples beyond it (nearest rank); the maximum when there are too few.
Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      const u64 rank = static_cast<u64>(std::ceil(p / 100.0 * n));
      return Tail{p, v[std::max<u64>(rank, 1) - 1]};
    }
  }
  return Tail{100.0, v.empty() ? 0.0 : v.back()};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

// ---- Host fingerprint --------------------------------------------------------

int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const u64 colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        std::replace(m.begin(), m.end(), '"', '\'');
        return m;
      }
    }
  }
  return "unknown";
}

std::string fingerprint_json() {
#if defined(SAISIM_TRACING_ENABLED)
  const char* tracing = "true";
#else
  const char* tracing = "false";
#endif
#if defined(SAISIM_TELEMETRY_ENABLED)
  const char* telemetry = "true";
#else
  const char* telemetry = "false";
#endif
  std::ostringstream o;
  o << "{\"nproc\":" << usable_cpus() << ",\"cpu_model\":\"" << cpu_model()
    << "\",\"build_type\":\"" << SAISIM_PERF_BUILD_TYPE
    << "\",\"saisim_tracing\":" << tracing
    << ",\"saisim_telemetry\":" << telemetry << "}";
  return o.str();
}

// ---- Arguments ---------------------------------------------------------------

struct Args {
  Workload workload = Workload::kStripRead;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<Workload> w = parse_workload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') return std::nullopt;
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
      have_trace = true;
    } else if (flag == "--out") {
      a.out_dir = val;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return a;
}

// ---- Shared run bookkeeping ----------------------------------------------------

u64 counter(const trace::RunTrace& t, std::string_view name) {
  for (const auto& [k, v] : t.counters) {
    if (k == name) return v;
  }
  return 0;
}

u64 transfers_of(const ExperimentConfig& cfg) {
  return static_cast<u64>(cfg.num_clients) *
         static_cast<u64>(cfg.procs_per_client) *
         (cfg.ior.total_bytes / cfg.ior.transfer_size);
}

struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, u64> failures;  // check name -> runs failing it

  void record(const std::vector<std::string>& checks) {
    ++attempted;
    if (!checks.empty()) ++failed;
    for (const std::string& c : checks) ++failures[c];
  }
};

// sim_digest covers the first runs of pass 0: two seed pairs under both
// policies (for small_io, one read pair and one write pair). Both modes
// always execute them, so the digest does not depend on host speed.
constexpr u64 kDigestRuns = 4;

// Set-ups before the first timed run. Set-up is repeated and its median
// reported: one set-up takes only milliseconds, so single measurements are
// dominated by host noise. Untraced runs add one set-up per pass.
constexpr int kSetUps = 5;

struct Report {
  std::vector<Metric> metrics;  // the contract's metrics for this mode
  std::vector<Metric> extra;    // printed and saved, not in the result line
  std::vector<std::string> notes;
  u64 sim_digest = kFnvOffset;
};

// ---- Sweeps and set-up ------------------------------------------------------

int sweep_threads(u64 runs) {
  return static_cast<int>(std::min<u64>(static_cast<u64>(usable_cpus()), runs));
}

// Runs `configs` through a fresh SweepRunner (so its fingerprint cache
// starts empty); returns the metrics in config order.
std::vector<RunMetrics> run_sweep(const std::vector<ExperimentConfig>& configs,
                                  int threads) {
  std::vector<i64> index(configs.size());
  for (u64 i = 0; i < index.size(); ++i) index[i] = static_cast<i64>(i);
  sweep::SweepSpec spec("perfbench", configs.front());
  spec.axis(sweep::make_axis(
      "run", index, [](i64 i) { return std::to_string(i); },
      [&configs](ExperimentConfig& c, i64 i) {
        c = configs[static_cast<u64>(i)];
      }));
  sweep::SweepRunner runner(
      sweep::RunnerOptions{.threads = threads, .progress = false});
  return runner.run(spec).metrics;
}

// One set-up: derive and validate pass 0's configs, then run each of them
// once, serially, cut to one strip-sized transfer per process, so every
// cluster shape has been built before anything is timed.
bool set_up(const Args& a) {
  for (ExperimentConfig cfg : make_pass(a.workload, a.seed, 0)) {
    const std::vector<std::string> errors = util::reflect::validate_config(cfg);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "invalid config: %s\n", e.c_str());
    }
    if (!errors.empty()) return false;
    cfg.ior.transfer_size = cfg.strip_size;
    cfg.ior.total_bytes = cfg.strip_size;
    trace::RunTrace capture;
    if (!check_run(cfg, run_experiment(cfg, &capture)).empty()) return false;
  }
  return true;
}

// ---- Untraced mode: end-to-end metrics -----------------------------------------

// Times one set-up under its own span; false when it fails.
bool timed_set_up(const Args& a, SpanLog& spans, std::vector<double>& setup_s) {
  const u64 s = spans.open("setup " + std::to_string(setup_s.size()));
  const Clock::time_point t0 = Clock::now();
  if (!set_up(a)) {
    std::fprintf(stderr, "set-up failed\n");
    return false;
  }
  setup_s.push_back(seconds_since(t0));
  spans.close(s);
  return true;
}

// Measures for a.seconds. Besides the timed runs it repeats the set-up
// once after each pass, untimed for the run metrics, so the reported
// set-up median samples the host over the whole run, not only its start.
bool measure_end_to_end(const Args& a, SpanLog& spans, Outcome& outcome,
                        Report& rep, std::vector<double>& setup_s) {
  const bool fanin = a.workload == Workload::kFanin;
  std::vector<double> run_ms;
  std::vector<u64> kinds;  // the kind of each run_ms sample
  std::vector<double> gains_pct;  // paired SAIs-over-irqbalance, fanin
  double measured_s = 0.0;
  u64 bytes = 0;
  int threads = 0;
  for (u64 pass = 0; pass == 0 || measured_s < a.seconds; ++pass) {
    const std::vector<ExperimentConfig> configs =
        make_pass(a.workload, a.seed, pass);
    const u64 pass_span = spans.open("pass " + std::to_string(pass));
    std::vector<RunMetrics> results;
    const Clock::time_point t0 = Clock::now();
    if (fanin) {
      // Waves of `threads` runs, each wave one sweep whose runs start
      // together: its wall time is the slowest call in it, one sample.
      threads = sweep_threads(configs.size());
      for (u64 w = 0; w < configs.size(); w += static_cast<u64>(threads)) {
        const std::vector<ExperimentConfig> wave(
            configs.begin() + static_cast<i64>(w),
            configs.begin() +
                static_cast<i64>(std::min<u64>(
                    configs.size(), w + static_cast<u64>(threads))));
        const u64 s = spans.open("wave " + std::to_string(w), pass_span);
        const Clock::time_point w0 = Clock::now();
        for (RunMetrics& m : run_sweep(wave, threads)) {
          results.push_back(std::move(m));
        }
        run_ms.push_back(seconds_since(w0) * 1e3);
        // Waves of one size and first-slot parity hold the same kinds.
        kinds.push_back(wave.size() * 2 + w % 2);
        spans.close(s);
      }
    } else {
      for (u64 i = 0; i < configs.size(); ++i) {
        const u64 s = spans.open(
            "run " + std::to_string(pass * configs.size() + i), pass_span);
        const Clock::time_point r0 = Clock::now();
        trace::RunTrace capture;
        results.push_back(run_experiment(configs[i], &capture));
        run_ms.push_back(seconds_since(r0) * 1e3);
        kinds.push_back(run_kind(a.workload, i));
        spans.close(s);
      }
    }
    measured_s += seconds_since(t0);
    spans.close(pass_span);

    // Untimed checks: outputs, and one in-process re-run per pass.
    const u64 again = pass % configs.size();
    trace::RunTrace capture;
    const RunMetrics rerun = run_experiment(configs[again], &capture);
    for (u64 i = 0; i < configs.size(); ++i) {
      std::vector<std::string> checks = check_run(configs[i], results[i]);
      if (i == again &&
          metrics_digest(rerun) != metrics_digest(results[i])) {
        checks.push_back("determinism");
      }
      outcome.record(checks);
      bytes += results[i].total_bytes;
      if (pass == 0 && i < kDigestRuns) {
        rep.sim_digest = fnv_mix(rep.sim_digest, metrics_digest(results[i]));
      }
    }
    for (u64 i = 0; i + 1 < configs.size(); i += 2) {
      const double base = results[i].bandwidth_mbps;
      if (base > 0.0) {
        gains_pct.push_back((results[i + 1].bandwidth_mbps - base) / base *
                            100.0);
      }
    }
    if (!timed_set_up(a, spans, setup_s)) return false;
  }

  // Best-of-N throughput: every sample counted at the fastest time seen
  // for its kind. Other tenants of a shared host only ever add time, and
  // on a busy host they slow most runs by a share that changes from minute
  // to minute, so the whole-run rate follows their load; each kind's
  // fastest run follows it much less.
  std::map<u64, double> best_ms;
  for (u64 i = 0; i < run_ms.size(); ++i) {
    auto [it, fresh] = best_ms.try_emplace(kinds[i], run_ms[i]);
    if (!fresh) it->second = std::min(it->second, run_ms[i]);
  }
  double best_total_ms = 0.0;
  for (u64 k : kinds) best_total_ms += best_ms[k];
  const Tail tail = tail_of(run_ms);
  rep.metrics.push_back({"sim_mb_per_s.best",
                         static_cast<double>(bytes) / 1e6 /
                             (best_total_ms / 1e3),
                         "MB/s"});
  rep.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  rep.metrics.push_back({"setup_s", median(setup_s), "s"});
  // Printed and saved, not bounded: on a host whose speed shifts between
  // states for seconds to minutes, the plain rate, the median and the tail
  // of a run move with them more than any bound allows.
  rep.extra.push_back({"sim_mb_per_s",
                       static_cast<double>(bytes) / 1e6 / measured_s, "MB/s"});
  rep.extra.push_back({"run_ms.p50", median(run_ms), "ms"});
  rep.extra.push_back({"run_ms.tail", tail.value, "ms"});
  rep.extra.push_back(
      {"run_ms.min", *std::min_element(run_ms.begin(), run_ms.end()), "ms"});
  rep.extra.push_back({"run_ms.tail_percentile", tail.percentile, "pct"});
  rep.extra.push_back(
      {"run_ms.samples", static_cast<double>(run_ms.size()), "count"});
  rep.extra.push_back({"measured_s", measured_s, "s"});
  if (fanin) {
    rep.extra.push_back({"sweep.threads", static_cast<double>(threads),
                         "count"});
    double mean = 0.0;
    for (double g : gains_pct) mean += g;
    mean /= static_cast<double>(std::max<u64>(1, gains_pct.size()));
    rep.extra.push_back({"sais_gain_pct", mean, "%"});
    rep.extra.push_back(
        {"paper_err_pp", std::fabs(mean - kPaperFaninGainPct), "pp"});
    rep.notes.push_back(
        "fanin run_ms samples are per sweep wave: the wall time of `threads` "
        "runs started together");
  } else {
    rep.notes.push_back(
        "no paper_err_pp: the paper gives no per-point reference for this "
        "workload, so its model is unvalidated here");
  }
  rep.extra.push_back(
      {"setup_s.samples", static_cast<double>(setup_s.size()), "count"});
  return true;
}

// ---- Traced mode: per-layer metrics ----------------------------------------------

struct TracedRun {
  ExperimentConfig cfg;
  RunMetrics metrics;
  trace::RunTrace capture;
  double untraced_ns = 0.0;
  double traced_ns = 0.0;
};

struct ProbeStats {
  double ns_per_unit = 0.0;
  double events_per_unit = 0.0;
};

// Repeats `batch` (one span each) for at least `min_s` seconds and three
// batches; medians over batches.
template <class Fn>
ProbeStats probe_layer(SpanLog& spans, u64 parent, const std::string& name,
                  double min_s, Fn batch) {
  std::vector<double> ns, events;
  const Clock::time_point t0 = Clock::now();
  while (ns.size() < 3 || seconds_since(t0) < min_s) {
    const u64 s = spans.open(name, parent);
    const Batch b = batch();
    spans.close(s);
    ns.push_back(b.ns_per_unit());
    events.push_back(b.units == 0 ? 0.0
                                  : static_cast<double>(b.sim_events) /
                                        static_cast<double>(b.units));
  }
  return ProbeStats{median(ns), median(events)};
}

void measure_layers(const Args& a, SpanLog& spans, Outcome& outcome,
                    Report& rep) {
  // Phase 1: each run untraced, then again under the program's tracer,
  // installed from outside for the duration of the call.
  std::vector<TracedRun> runs;
  trace::PhaseTotals phases;
  u64 events_recorded = 0;
  u64 events_dropped = 0;
  const double run_budget = 0.5 * a.seconds;
  const Clock::time_point t0 = Clock::now();
  const u64 runs_span = spans.open("traced runs");
  for (u64 pass = 0;
       runs.size() < kDigestRuns || seconds_since(t0) < run_budget; ++pass) {
    const std::vector<ExperimentConfig> configs =
        make_pass(a.workload, a.seed, pass);
    for (u64 i = 0; i < configs.size(); ++i) {
      if (runs.size() >= kDigestRuns && seconds_since(t0) >= run_budget) {
        break;
      }
      const u64 index = pass * configs.size() + i;
      TracedRun r;
      r.cfg = configs[i];
      const u64 us = spans.open("run " + std::to_string(index), runs_span);
      Clock::time_point r0 = Clock::now();
      r.metrics = run_experiment(r.cfg, &r.capture);
      r.untraced_ns = seconds_since(r0) * 1e9;
      spans.close(us);

      trace::Tracer tracer(trace::kAllSubsystems, 1ull << 22);
      trace::RunTrace traced_capture;
      RunMetrics traced;
      const u64 ts =
          spans.open("run " + std::to_string(index) + " traced", runs_span);
      r0 = Clock::now();
      {
        trace::TraceScope scope(&tracer);
        traced = run_experiment(r.cfg, &traced_capture);
      }
      r.traced_ns = seconds_since(r0) * 1e9;
      spans.close(ts);

      std::vector<std::string> checks = check_run(r.cfg, r.metrics);
      if (metrics_digest(traced) != metrics_digest(r.metrics)) {
        checks.push_back("determinism");
      }
      outcome.record(checks);
      if (index < kDigestRuns) {
        rep.sim_digest = fnv_mix(rep.sim_digest, metrics_digest(r.metrics));
      }
      events_dropped += tracer.dropped();
      const std::vector<trace::Event> events = tracer.take();
      events_recorded += events.size();
      const trace::PhaseTotals t =
          trace::phase_totals(trace::build_spans(events));
      for (int p = 0; p < trace::kNumPhases; ++p) {
        phases.phase_ps[p] += t.phase_ps[p];
      }
      phases.total_ps += t.total_ps;
      phases.spans += t.spans;
      runs.push_back(std::move(r));
    }
  }
  spans.close(runs_span);

  // Phase 2: the kernel's queue depth, from one run with the kernel gauge.
  double depth = 0.0;
  {
    const u64 s = spans.open("queue depth probe");
    ExperimentConfig probe = runs.front().cfg;
    probe.telemetry.sample_period = Time::us(20);
    probe.telemetry.kernel_gauges = true;
    trace::RunTrace capture;
    run_experiment(probe, &capture);
    const trace::TimelineSeries& tl = capture.timeline;
    for (u64 m = 0; m < tl.metrics.size(); ++m) {
      if (tl.metrics[m] != "sim.shard0.pending_events") continue;
      double sum = 0.0;
      for (i64 v : tl.values[m]) sum += static_cast<double>(v);
      depth = tl.values[m].empty()
                  ? 0.0
                  : sum / static_cast<double>(tl.values[m].size());
    }
    spans.close(s);
  }

  // Per-run count sums.
  const auto sum = [&runs](auto fn) {
    double total = 0.0;
    for (const TracedRun& r : runs) total += static_cast<double>(fn(r));
    return total;
  };
  const auto c = [](const TracedRun& r, std::string_view name) {
    return counter(r.capture, name);
  };
  const double n_runs = static_cast<double>(runs.size());
  const double run_ns = sum([](const TracedRun& r) { return r.untraced_ns; });
  const double traced_ns = sum([](const TracedRun& r) { return r.traced_ns; });
  const double events = sum([&](const TracedRun& r) {
    return c(r, "sim.events_executed");
  });
  const double cancels = sum([&](const TracedRun& r) {
    return transfers_of(r.cfg) + c(r, "pfs.hedges_issued") +
           c(r, "cpu.preemptions");
  });

  // Phase 3: layer probes, in the shape of this workload.
  const ExperimentConfig& shape = runs.front().cfg;
  const u64 probes_span = spans.open("layer probes");
  constexpr double kMinProbeS = 0.1;
  const u64 strips = std::max<u64>(256, (u64{1} << 27) / shape.strip_size);
  const ProbeStats mem_local =
      probe_layer(spans, probes_span, "mem strips local", kMinProbeS,
            [&] { return probe_mem_strips(shape, false, strips); });
  const ProbeStats mem_migrated =
      probe_layer(spans, probes_span, "mem strips migrated", kMinProbeS,
            [&] { return probe_mem_strips(shape, true, strips); });
  const ProbeStats mem_construct =
      probe_layer(spans, probes_span, "mem construct", kMinProbeS,
            [&] { return probe_mem_construct(shape, 16); });
  const double cancel_share = events > 0.0 ? cancels / events : 0.0;
  const ProbeStats sim = probe_layer(
      spans, probes_span, "sim events", kMinProbeS, [&] {
        return probe_sim(static_cast<u64>(std::llround(depth)), cancel_share,
                         200'000);
      });
  const ProbeStats net = probe_layer(spans, probes_span, "net packets", kMinProbeS,
                                [&] { return probe_net(shape, 20'000); });
  const ProbeStats apic_irqbalance =
      probe_layer(spans, probes_span, "apic irqbalance", kMinProbeS, [&] {
        return probe_apic(shape, PolicyKind::kIrqbalance, 20'000);
      });
  const ProbeStats apic_source_aware =
      probe_layer(spans, probes_span, "apic source-aware", kMinProbeS, [&] {
        return probe_apic(shape, PolicyKind::kSourceAware, 20'000);
      });
  const ProbeStats cpu = probe_layer(spans, probes_span, "cpu items", kMinProbeS,
                                [&] { return probe_cpu(shape, 20'000); });
  const ProbeStats pfs_req =
      probe_layer(spans, probes_span, "pfs requests", kMinProbeS,
            [&] { return probe_pfs(shape, 20'000); });
  // The server block cache, in the read shape (pass 0's first pair) and
  // the write shape (its second pair; the same on read-only workloads).
  // Workloads whose servers keep no block cache replay small_io's deep
  // servers, so the metric always tracks the cache's own cost; their
  // est_share stays 0, as they perform no lookups.
  const std::vector<ExperimentConfig> cache_pass = make_pass(
      shape.server.cache.capacity_bytes > 0 ? a.workload : Workload::kSmallIo,
      a.seed, 0);
  const std::vector<ExperimentConfig> cache_shapes{cache_pass[0],
                                                   cache_pass[2]};
  std::vector<double> block_ns;
  for (const ExperimentConfig& cs : cache_shapes) {
    block_ns.push_back(
        probe_layer(spans, probes_span, "server cache blocks", kMinProbeS, [&] {
          return probe_server_cache(cs, 100'000);
        }).ns_per_unit);
  }
  const double server_block_ns = median(block_ns);
  spans.close(probes_span);

  // Phase 4: the same configs through a SweepRunner at nproc threads.
  const u64 n_sweep = std::min<u64>(
      runs.size(), 2 * static_cast<u64>(std::max(2, usable_cpus())));
  std::vector<ExperimentConfig> sweep_configs;
  double serial_ns = 0.0;
  for (u64 i = 0; i < n_sweep; ++i) {
    sweep_configs.push_back(runs[i].cfg);
    serial_ns += runs[i].untraced_ns;
  }
  const int threads = sweep_threads(n_sweep);
  const u64 sweep_span = spans.open("sweep");
  const Clock::time_point s0 = Clock::now();
  const std::vector<RunMetrics> swept = run_sweep(sweep_configs, threads);
  const double sweep_wall_ns = seconds_since(s0) * 1e9;
  spans.close(sweep_span);
  for (u64 i = 0; i < n_sweep; ++i) {
    outcome.record(metrics_digest(swept[i]) == metrics_digest(runs[i].metrics)
                       ? std::vector<std::string>{}
                       : std::vector<std::string>{"determinism"});
  }

  // Attribution: each layer's count x unit cost over the untraced run time.
  // The net, apic and cpu probes run DES events, so their unit costs
  // include kernel time: the sim layer keeps only the events those layers
  // do not account for. An interrupt's cost includes the softirq work item
  // it submits, which the cpu layer already counts.
  const double lines_per_strip =
      static_cast<double>(shape.strip_size) /
      static_cast<double>(shape.client.cache.line_bytes);
  const double mem_ns = sum([&](const TracedRun& r) {
    const double strips_r = static_cast<double>(c(r, "pfs.strips_received"));
    if (strips_r == 0.0) return 0.0;
    const double migrated = std::min(
        1.0, static_cast<double>(c(r, "mem.c2c_transfers")) /
                 (strips_r * lines_per_strip));
    return strips_r * (migrated * mem_migrated.ns_per_unit +
                       (1.0 - migrated) * mem_local.ns_per_unit);
  });
  const double packets = sum([&](const TracedRun& r) {
    return c(r, "nic.rx_messages") + c(r, "server.requests");
  });
  const double items =
      sum([&](const TracedRun& r) { return c(r, "cpu.items_completed"); });
  const auto apic_of = [&](const TracedRun& r) {
    return r.cfg.policy == PolicyKind::kSourceAware ? apic_source_aware
                                                    : apic_irqbalance;
  };
  const double net_ns = packets * net.ns_per_unit;
  const double cpu_ns = items * cpu.ns_per_unit;
  const double apic_ns = sum([&](const TracedRun& r) {
    return static_cast<double>(c(r, "apic.raised")) *
           std::max(0.0, apic_of(r).ns_per_unit - cpu.ns_per_unit);
  });
  const double layer_events =
      packets * net.events_per_unit + items * cpu.events_per_unit +
      sum([&](const TracedRun& r) {
        return static_cast<double>(c(r, "apic.raised")) *
               std::max(0.0,
                        apic_of(r).events_per_unit - cpu.events_per_unit);
      });
  const double sim_ns = std::max(0.0, events - layer_events) * sim.ns_per_unit;
  const double pfs_ns =
      sum([&](const TracedRun& r) { return transfers_of(r.cfg); }) *
          pfs_req.ns_per_unit +
      sum([&](const TracedRun& r) {
        return c(r, "server.cache.block_hits") +
               c(r, "server.cache.block_misses");
      }) * server_block_ns;

  const auto per_run = [&](std::string_view name) {
    return sum([&](const TracedRun& r) { return c(r, name); }) / n_runs;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hinted = sum([&](const TracedRun& r) {
    return r.cfg.policy == PolicyKind::kSourceAware
               ? c(r, "apic.hinted_routes")
               : 0;
  });
  const double raised_hintable = sum([&](const TracedRun& r) {
    return r.cfg.policy == PolicyKind::kSourceAware ? c(r, "apic.raised") : 0;
  });
  const double l2 = sum([](const TracedRun& r) {
                      return r.metrics.l2_miss_rate;
                    }) / n_runs;

  std::vector<Metric>& m = rep.metrics;
  m.push_back({"mem.ns_per_strip.local", mem_local.ns_per_unit, "ns"});
  m.push_back({"mem.ns_per_strip.migrated", mem_migrated.ns_per_unit, "ns"});
  m.push_back({"mem.l2_miss_rate", l2, "ratio"});
  m.push_back({"mem.c2c_transfers", per_run("mem.c2c_transfers"), "count"});
  m.push_back({"mem.dram_line_reads", per_run("mem.dram_line_reads"), "count"});
  m.push_back({"mem.est_share", mem_ns / run_ns, "ratio"});
  m.push_back({"mem.construct_us", mem_construct.ns_per_unit / 1e3, "us"});
  m.push_back({"sim.events", events / n_runs, "count"});
  m.push_back({"sim.ns_per_event", sim.ns_per_unit, "ns"});
  m.push_back({"sim.est_share", sim_ns / run_ns, "ratio"});
  m.push_back({"net.rx_messages", per_run("nic.rx_messages"), "count"});
  m.push_back({"net.interrupts", per_run("nic.interrupts"), "count"});
  m.push_back({"net.fault_drops", per_run("fault.packets_dropped"), "count"});
  m.push_back({"net.ns_per_packet", net.ns_per_unit, "ns"});
  m.push_back({"net.est_share", net_ns / run_ns, "ratio"});
  m.push_back({"apic.raised", per_run("apic.raised"), "count"});
  m.push_back({"apic.hinted_share", ratio(hinted, raised_hintable), "ratio"});
  m.push_back({"apic.ns_per_irq.irqbalance", apic_irqbalance.ns_per_unit,
               "ns"});
  m.push_back({"apic.ns_per_irq.source-aware", apic_source_aware.ns_per_unit,
               "ns"});
  m.push_back({"apic.est_share", apic_ns / run_ns, "ratio"});
  m.push_back({"cpu.items_completed", per_run("cpu.items_completed"), "count"});
  m.push_back({"cpu.preemptions", per_run("cpu.preemptions"), "count"});
  m.push_back({"cpu.ns_per_item", cpu.ns_per_unit, "ns"});
  m.push_back({"cpu.est_share", cpu_ns / run_ns, "ratio"});
  m.push_back({"pfs.strips_received", per_run("pfs.strips_received"), "count"});
  m.push_back({"pfs.retransmits", per_run("pfs.retransmits"), "count"});
  m.push_back({"pfs.duplicate_strips", per_run("pfs.duplicate_strips"),
               "count"});
  m.push_back({"pfs.hedge_win_ratio",
               ratio(per_run("pfs.hedges_won"), per_run("pfs.hedges_issued")),
               "ratio"});
  m.push_back({"pfs.redirects", per_run("pfs.sched_redirects"), "count"});
  m.push_back({"pfs.ns_per_request", pfs_req.ns_per_unit, "ns"});
  m.push_back({"pfs.est_share", pfs_ns / run_ns, "ratio"});
  m.push_back({"server.requests", per_run("server.requests"), "count"});
  m.push_back({"server.cache_hit_ratio",
               ratio(per_run("server.cache.block_hits"),
                     per_run("server.cache.block_hits") +
                         per_run("server.cache.block_misses")),
               "ratio"});
  m.push_back({"server.readahead_useful_ratio",
               ratio(per_run("server.cache.readahead_useful"),
                     per_run("server.cache.readahead_issued")),
               "ratio"});
  m.push_back({"server.ns_per_block", server_block_ns, "ns"});
  m.push_back({"sweep.parallel_efficiency",
               serial_ns / (sweep_wall_ns * threads), "ratio"});
  m.push_back({"trace.overhead_pct", (traced_ns - run_ns) / run_ns * 100.0,
               "%"});
  m.push_back({"trace.events_recorded",
               static_cast<double>(events_recorded) / n_runs, "count"});
  constexpr const char* kPhaseMetric[trace::kNumPhases] = {
      "phase.server.share",    "phase.wire.share",
      "phase.irq_queue.share", "phase.softirq.share",
      "phase.migration.share", "phase.consume.share"};
  for (int p = 0; p < trace::kNumPhases; ++p) {
    m.push_back(
        {kPhaseMetric[p], phases.share(static_cast<trace::Phase>(p)), "ratio"});
  }
  m.push_back({"unattributed_share",
               1.0 - (mem_ns + sim_ns + net_ns + apic_ns + cpu_ns + pfs_ns) /
                         run_ns,
               "ratio"});

  rep.extra.push_back({"traced_runs", n_runs, "count"});
  rep.extra.push_back({"sim.queue_depth", depth, "count"});
  rep.extra.push_back({"sim.cancel_share", cancel_share, "ratio"});
  rep.extra.push_back({"sweep.threads", static_cast<double>(threads), "count"});
  rep.extra.push_back({"sweep.wall_ms", sweep_wall_ns / 1e6, "ms"});
  rep.extra.push_back({"sweep.serial_ms", serial_ns / 1e6, "ms"});
  rep.extra.push_back(
      {"trace.events_dropped", static_cast<double>(events_dropped), "count"});
  if (a.workload == Workload::kStripRead) {
    // ROADMAP's gprof split put the memory model at 94-98% of CPU time on
    // the single-client read benches; report the distance, do not tune to it.
    const double share_pct = mem_ns / run_ns * 100.0;
    const double gap =
        share_pct < 94.0 ? share_pct - 94.0
                         : (share_pct > 98.0 ? share_pct - 98.0 : 0.0);
    rep.extra.push_back({"mem.est_share_vs_gprof_pp", gap, "pp"});
  }
  if (a.workload == Workload::kFanin) {
    rep.notes.push_back(
        "phase shares on fanin merge the 16 clients' requests that share a "
        "RequestId (ids are allocated per client), as build_spans does");
  }
}

// ---- Output ----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (u64 i = 0; i < ms.size(); ++i) {
    o += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return o + "}";
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: saisim_perf --workload <strip_read|fanin|small_io> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const Args& a = *parsed;
  const std::string fingerprint = fingerprint_json();
  std::printf("workload %s seed %llu trace %d\nfingerprint %s\n",
              workload_name(a.workload), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, fingerprint.c_str());

  SpanLog spans;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetUps; ++i) {
    if (!timed_set_up(a, spans, setup_s)) return 1;
  }

  Outcome outcome;
  Report rep;
  if (a.trace) {
    measure_layers(a, spans, outcome, rep);
    rep.extra.push_back({"setup_s", median(setup_s), "s"});
  } else if (!measure_end_to_end(a, spans, outcome, rep, setup_s)) {
    return 1;
  }
  rep.extra.push_back({"failed_frac",
                       static_cast<double>(outcome.failed) /
                           static_cast<double>(outcome.attempted),
                       "ratio"});

  for (const std::vector<Metric>* list : {&rep.metrics, &rep.extra}) {
    for (const Metric& m : *list) {
      std::printf("%-32s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(rep.sim_digest));
  std::printf("sim_digest %s (informational: FNV-1a of the first %llu runs' "
              "RunMetrics)\n",
              digest, static_cast<unsigned long long>(kDigestRuns));
  for (const auto& [check, runs] : outcome.failures) {
    std::printf("CHECK FAILED %s: %llu run(s)\n", check.c_str(),
                static_cast<unsigned long long>(runs));
  }
  for (const std::string& note : rep.notes) std::printf("note: %s\n", note.c_str());

  const std::string stem = a.out_dir + "/" + workload_name(a.workload) + "-s" +
                           std::to_string(a.seed) + "-t" +
                           (a.trace ? "1" : "0");
  std::string failures = "{";
  for (const auto& [check, runs] : outcome.failures) {
    failures += (failures.size() > 1 ? ", \"" : "\"") + check +
                "\": " + std::to_string(runs);
  }
  failures += "}";
  const std::string report =
      std::string("{\"workload\": \"") + workload_name(a.workload) +
      "\", \"seed\": " + std::to_string(a.seed) +
      ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"fingerprint\": " + fingerprint + ", \"sim_digest\": \"" + digest +
      "\", \"failures\": " + failures +
      ", \"metrics\": " + metrics_json(rep.metrics) +
      ", \"extra\": " + metrics_json(rep.extra) + "}\n";
  if (!write_file(stem + "-report.json", report) ||
      !write_file(stem + "-spans.json", spans.json())) {
    std::fprintf(stderr, "cannot write %s-*.json\n", stem.c_str());
    return 1;
  }

  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(rep.metrics).c_str());
  return correct ? 0 : 1;
}
