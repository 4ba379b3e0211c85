#include "trace/counter_registry.hpp"

namespace saisim::trace {

CounterRegistry::Counter& CounterRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(name, Counter{}).first;
  return it->second;
}

stats::Log2Histogram& CounterRegistry::latency(std::string_view name) {
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_.emplace(name, stats::Log2Histogram{}).first;
  }
  return it->second;
}

u64 CounterRegistry::value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::vector<std::string> CounterRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, _] : counters_) out.push_back(name);
  return out;
}

std::vector<std::pair<std::string, u64>> CounterRegistry::snapshot() const {
  // Both maps are name-sorted; merge them into one sorted listing (latency
  // rows sort by their expanded names, which share the histogram's prefix).
  std::vector<std::pair<std::string, u64>> out;
  out.reserve(counters_.size() + latencies_.size() * 4);
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
  for (const auto& [name, h] : latencies_) {
    out.emplace_back(name + ".count", h.count());
    out.emplace_back(name + ".p50", h.quantile(0.50));
    out.emplace_back(name + ".p99", h.quantile(0.99));
    out.emplace_back(name + ".total", h.total());
  }
  std::sort(out.begin(), out.end());
  return out;
}

stats::Table CounterRegistry::to_table() const {
  stats::Table t({"counter", "value"});
  for (const auto& [name, value] : snapshot()) {
    t.add_row({name, static_cast<i64>(value)});
  }
  return t;
}

}  // namespace saisim::trace
