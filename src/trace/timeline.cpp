#include "trace/timeline.hpp"

#include <algorithm>
#include <utility>

#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace saisim::trace {

TimelineSampler::TimelineSampler(Time period, int slo_window,
                                 u64 flight_capacity)
    : period_(period), window_(slo_window), flight_capacity_(flight_capacity) {
  SAISIM_CHECK(period > Time::zero());
  SAISIM_CHECK(slo_window >= 1);
}

u64 TimelineSampler::add_gauge(std::string name, Reader read) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kGauge;
  p.read = std::move(read);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_counter(std::string name, Reader read) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kCounter;
  p.read = std::move(read);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_window_p99(std::string name,
                                    const stats::Log2Histogram* hist) {
  SAISIM_CHECK(hist != nullptr);
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kWindowP99;
  p.hist = hist;
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_window_rate_ppm(std::string name, Reader numerator,
                                         Reader denominator) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kWindowRatePpm;
  p.read = std::move(numerator);
  p.read_den = std::move(denominator);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

void TimelineSampler::watch(u64 probe, i64 threshold) {
  SAISIM_CHECK(probe < probes_.size());
  probes_[probe].watched = true;
  probes_[probe].threshold = threshold;
}

i64 TimelineSampler::read_probe(Probe& p) {
  switch (p.kind) {
    case Kind::kGauge:
    case Kind::kCounter:
      return p.read();
    case Kind::kWindowP99: {
      // The window is the histogram minus its snapshot from window_ ticks
      // ago (nothing before the ring fills); the ring's oldest entry is
      // that snapshot, overwritten by this tick's.
      stats::Log2Histogram window = *p.hist;
      if (p.hist_snaps.size() < static_cast<u64>(window_)) {
        p.hist_snaps.push_back(window);
      } else {
        stats::Log2Histogram& oldest = p.hist_snaps[p.oldest_snap];
        window.subtract(oldest);
        oldest = *p.hist;
        p.oldest_snap = (p.oldest_snap + 1) % p.hist_snaps.size();
      }
      return static_cast<i64>(window.quantile(0.99));
    }
    case Kind::kWindowRatePpm: {
      const std::pair<u64, u64> cur{static_cast<u64>(p.read()),
                                    static_cast<u64>(p.read_den())};
      const bool full = p.rate_snaps.size() == static_cast<u64>(window_);
      const std::pair<u64, u64> base =
          full ? p.rate_snaps.front() : std::pair<u64, u64>{0, 0};
      p.rate_snaps.push_back(cur);
      if (p.rate_snaps.size() > static_cast<u64>(window_)) {
        p.rate_snaps.erase(p.rate_snaps.begin());
      }
      const u64 dnum = cur.first - base.first;
      const u64 dden = cur.second - base.second;
      return dden ? static_cast<i64>(dnum * 1'000'000 / dden) : 0;
    }
  }
  return 0;
}

void TimelineSampler::sample(Time now) {
  const u64 tick = ticks_++;
  for (Probe& p : probes_) {
    const i64 v = read_probe(p);
    p.series.push_back(v);
    if (!p.watched) continue;
    const bool breached = v > p.threshold;
    if (breached && !p.in_breach) {
      // Rising edge: one anomaly per excursion, not one per saturated tick.
      SloBreach b;
      b.tick = tick;
      b.when = now;
      b.metric = p.name;
      b.value = v;
      b.threshold = p.threshold;
      if (Tracer* t = Tracer::current()) {
        // Oldest first: the server's disk-done milestone is recorded at its
        // future ready time, so recording order is not time order.
        b.flight = t->tail(flight_capacity_);
        sort_by_time(b.flight);
      }
      SAISIM_TRACE_EVENT(util::Subsystem::kCore, EventType::kSloBreach, now,
                         -1, -1, -1, v, p.threshold,
                         static_cast<i64>(tick));
      breaches_.push_back(std::move(b));
    }
    p.in_breach = breached;
  }
}

TimelineSeries TimelineSampler::series() const {
  TimelineSeries out;
  out.period = period_;
  out.ticks = ticks_;

  std::vector<const Probe*> rows;
  rows.reserve(probes_.size());
  for (const Probe& p : probes_) rows.push_back(&p);
  std::sort(rows.begin(), rows.end(), [](const Probe* a, const Probe* b) {
    return a->name < b->name;
  });
  for (u64 i = 1; i < rows.size(); ++i) {
    SAISIM_CHECK_MSG(rows[i]->name != rows[i - 1]->name,
                     "duplicate timeline metric name");
  }

  out.metrics.reserve(rows.size());
  out.values.reserve(rows.size());
  for (const Probe* p : rows) {
    out.metrics.push_back(p->name);
    std::vector<i64> v = p->series;
    if (p->kind == Kind::kCounter) {
      // Cumulative → per-interval delta, newest-last so the subtraction
      // can run in place back-to-front.
      for (u64 k = v.size(); k-- > 1;) v[k] -= v[k - 1];
    }
    out.values.push_back(std::move(v));
  }

  out.breaches = breaches_;
  std::sort(out.breaches.begin(), out.breaches.end(),
            [](const SloBreach& a, const SloBreach& b) {
              return a.tick != b.tick ? a.tick < b.tick : a.metric < b.metric;
            });
  return out;
}

}  // namespace saisim::trace
