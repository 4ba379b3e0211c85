#include "sweep/export.hpp"

#include <type_traits>

namespace saisim::sweep {

namespace {

/// Renders one RunMetrics as its export columns, in describe() order.
class ColumnWriter : public util::reflect::VisitorBase<ColumnWriter> {
 public:
  template <class A>
  void int_field(const util::reflect::FieldInfo& f, A a) {
    if constexpr (std::is_same_v<A, util::reflect::detail::TimeAccess>) {
      // Times export in microseconds, as Time::microseconds() renders them.
      add(std::string(f.name) + "_us", static_cast<double>(a.get()) / 1e6);
    } else {
      add(f.name, a.get());
    }
  }
  template <class A>
  void f64_field(const util::reflect::FieldInfo& f, A a) {
    add(f.name, a.get());
  }

  std::vector<std::string> names;
  std::vector<stats::Table::Cell> cells;

 private:
  void add(std::string name, stats::Table::Cell cell) {
    names.push_back(std::move(name));
    cells.push_back(std::move(cell));
  }
};

ColumnWriter columns_of(const RunMetrics& m) {
  ColumnWriter w;
  describe(w, const_cast<RunMetrics&>(m));
  return w;
}

}  // namespace

std::vector<std::string> metric_column_names() {
  return columns_of(RunMetrics{}).names;
}

stats::Table to_table(const SweepResult& res) {
  std::vector<std::string> headers = res.axis_names;
  for (std::string& name : metric_column_names()) {
    headers.push_back(std::move(name));
  }
  stats::Table t(std::move(headers));
  for (u64 i = 0; i < res.size(); ++i) {
    std::vector<stats::Table::Cell> row(res.points[i].labels.begin(),
                                        res.points[i].labels.end());
    for (stats::Table::Cell& c : columns_of(res.metrics[i]).cells) {
      row.push_back(std::move(c));
    }
    t.add_row(std::move(row));
  }
  return t;
}

std::string to_csv(const SweepResult& res) {
  return to_table(res).to_csv(stats::CellStyle::kExact);
}

std::string to_json(const SweepResult& res) {
  return to_table(res).to_json(res.name);
}

std::string to_json(const std::vector<const SweepResult*>& sweeps) {
  std::string out = "{\"sweeps\":[";
  for (u64 i = 0; i < sweeps.size(); ++i) {
    if (i) out += ',';
    out += to_json(*sweeps[i]);
  }
  out += "]}";
  return out;
}

std::string render(const SweepResult& res, Format format) {
  switch (format) {
    case Format::kText: return to_table(res).to_text();
    case Format::kCsv: return to_csv(res);
    case Format::kJson: return to_json(res);
  }
  return {};
}

}  // namespace saisim::sweep
