#include "harness/report.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "stats/metrics.h"
#include "stats/table.h"
#include "trace/synth/suite.h"
#include "util/assert.h"
#include "util/format.h"

namespace ringclu {
namespace {

bool in_group(const SimResult& result, BenchGroup group) {
  // Trace-pack benchmarks ("trace:<stem>") are not part of the synthetic
  // SPEC suite, so they contribute to the overall average but to neither
  // the INT nor the FP sub-group.
  const bool in_suite = is_benchmark_name(result.benchmark);
  switch (group) {
    case BenchGroup::All: return true;
    case BenchGroup::Int: return in_suite && !is_fp_benchmark(result.benchmark);
    case BenchGroup::Fp: return in_suite && is_fp_benchmark(result.benchmark);
  }
  return false;
}

}  // namespace

std::string_view group_name(BenchGroup group) {
  switch (group) {
    case BenchGroup::All: return "AVERAGE";
    case BenchGroup::Int: return "INT";
    case BenchGroup::Fp: return "FP";
  }
  return "?";
}

double group_mean(std::span<const SimResult> results, BenchGroup group,
                  const std::function<double(const SimResult&)>& metric) {
  double sum = 0;
  int count = 0;
  for (const SimResult& result : results) {
    if (!in_group(result, group)) continue;
    sum += metric(result);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double group_mean(std::span<const SimResult> results, BenchGroup group,
                  std::string_view metric_name) {
  const MetricDesc& metric = MetricsRegistry::builtin().at(metric_name);
  return group_mean(results, group, metric.value);
}

double group_speedup(std::span<const SimResult> ring,
                     std::span<const SimResult> conv, BenchGroup group) {
  RINGCLU_EXPECTS(ring.size() == conv.size());
  double log_sum = 0;
  int count = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    RINGCLU_EXPECTS(ring[i].benchmark == conv[i].benchmark);
    if (!in_group(ring[i], group)) continue;
    const double ratio = ring[i].ipc() / conv[i].ipc();
    RINGCLU_EXPECTS(ratio > 0);
    log_sum += std::log(ratio);
    ++count;
  }
  return count == 0 ? 0.0 : std::exp(log_sum / count) - 1.0;
}

const SimResult* try_find_result(std::span<const SimResult> results,
                                 std::string_view benchmark) {
  for (const SimResult& result : results) {
    if (result.benchmark == benchmark) return &result;
  }
  return nullptr;
}

const SimResult* try_find_result(std::span<const SimResult> results,
                                 std::string_view config_name,
                                 std::string_view benchmark) {
  for (const SimResult& result : results) {
    if (result.config_name == config_name && result.benchmark == benchmark) {
      return &result;
    }
  }
  return nullptr;
}

const SimResult& find_result(std::span<const SimResult> results,
                             std::string_view benchmark) {
  const SimResult* result = try_find_result(results, benchmark);
  if (result == nullptr) {
    RINGCLU_UNREACHABLE("benchmark not present in result set");
  }
  return *result;
}

namespace {

constexpr BenchGroup kGroups[] = {BenchGroup::All, BenchGroup::Int,
                                  BenchGroup::Fp};

/// The results of each named point (aliases included), one per benchmark.
class PointSlices {
 public:
  PointSlices(std::span<const ExperimentPoint> points,
              std::span<const SimResult> results)
      : points_(points), results_(results) {
    RINGCLU_EXPECTS(!points.empty() && results.size() % points.size() == 0);
    per_point_ = results.size() / points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (const std::string& alias : points[i].aliases) {
        index_.emplace(alias, i);
      }
    }
  }

  [[nodiscard]] const ExperimentPoint& point(std::string_view name) const {
    return points_[find(name)];
  }
  [[nodiscard]] std::span<const SimResult> operator[](
      std::string_view name) const {
    return results_.subspan(find(name) * per_point_, per_point_);
  }

 private:
  [[nodiscard]] std::size_t find(std::string_view name) const {
    const auto it = index_.find(name);
    RINGCLU_EXPECTS(it != index_.end() && "report names an unknown point");
    return it->second;
  }

  std::span<const ExperimentPoint> points_;
  std::span<const SimResult> results_;
  std::size_t per_point_ = 0;
  std::map<std::string, std::size_t, std::less<>> index_;
};

/// Rows are points; cells are the metric's group means.
std::string render_metric(const ReportTable& table,
                          std::span<const ExperimentPoint> points,
                          const PointSlices& slices) {
  std::vector<std::string> rows = table.points;
  if (rows.empty()) {
    for (const ExperimentPoint& point : points) rows.push_back(point.name);
  }
  TextTable text({"config", "AVERAGE", "INT", "FP"});
  for (const std::string& row : rows) {
    text.begin_row();
    text.add_cell(row);
    for (const BenchGroup group : kGroups) {
      text.add_cell(group_mean(slices[row], group, table.metric),
                    table.decimals);
    }
  }
  return text.render_aligned();
}

/// Rows are (numerator, denominator) pairs; cells are group speedups.
std::string render_speedup(const ReportTable& table,
                           const PointSlices& slices) {
  TextTable text({"pair", "AVERAGE", "INT", "FP"});
  for (const auto& [numerator, denominator] : table.pairs) {
    text.begin_row();
    text.add_cell(numerator + " vs " + denominator);
    for (const BenchGroup group : kGroups) {
      const double speedup =
          group_speedup(slices[numerator], slices[denominator], group);
      text.add_cell(str_format("%+.1f%%", speedup * 100.0));
    }
  }
  return text.render_aligned();
}

/// Rows are benchmarks; cells are the point's per-cluster dispatch shares
/// and their spread.
std::string render_shares(const ReportTable& table, const PointSlices& slices) {
  RINGCLU_EXPECTS(table.points.size() == 1);
  const std::string& name = table.points.front();
  const int clusters = slices.point(name).config.num_clusters;
  std::vector<std::string> headers{"benchmark"};
  for (int c = 0; c < clusters; ++c) headers.push_back(str_format("c%d", c));
  headers.emplace_back("max-min");
  TextTable text(std::move(headers));
  for (const SimResult& result : slices[name]) {
    text.begin_row();
    text.add_cell(result.benchmark);
    double lo = 1.0;
    double hi = 0.0;
    for (int c = 0; c < clusters; ++c) {
      const double share = result.dispatch_share(c);
      lo = std::min(lo, share);
      hi = std::max(hi, share);
      text.add_cell(str_format("%.1f%%", share * 100.0));
    }
    text.add_cell(str_format("%.1f%%", (hi - lo) * 100.0));
  }
  return text.render_aligned();
}

}  // namespace

std::string render_report(const ExperimentSpec& spec,
                          std::span<const ExperimentPoint> points,
                          std::span<const SimResult> results) {
  const PointSlices slices(points, results);
  static const ReportTable kIpcTable;  // {"metric": "ipc"}
  const std::span<const ReportTable> tables =
      spec.report.empty() ? std::span<const ReportTable>(&kIpcTable, 1)
                          : std::span<const ReportTable>(spec.report);
  std::string out;
  for (const ReportTable& table : tables) {
    if (!table.title.empty()) out += table.title + "\n";
    switch (table.kind) {
      case ReportTable::Kind::Metric:
        out += render_metric(table, points, slices);
        break;
      case ReportTable::Kind::Speedup:
        out += render_speedup(table, slices);
        break;
      case ReportTable::Kind::Shares:
        out += render_shares(table, slices);
        break;
    }
    out += "\n";  // a blank line after every table
  }
  return out;
}

namespace {

struct WallTotals {
  double wall = 0.0;
  std::uint64_t instrs = 0;
};

/// Sums wall time and simulated instructions over results that carry
/// wall-time data (cache-loaded results have none and contribute nothing).
WallTotals sum_walled(std::span<const SimResult> results) {
  WallTotals totals;
  for (const SimResult& result : results) {
    if (result.wall_seconds <= 0.0) continue;
    totals.wall += result.wall_seconds;
    totals.instrs += result.total_committed;
  }
  return totals;
}

}  // namespace

double aggregate_sim_ips(std::span<const SimResult> results) {
  const WallTotals totals = sum_walled(results);
  return totals.wall <= 0.0
             ? 0.0
             : static_cast<double>(totals.instrs) / totals.wall;
}

std::string throughput_summary(std::span<const SimResult> results) {
  const WallTotals totals = sum_walled(results);
  if (totals.wall <= 0.0) {
    return "throughput: no wall-time data (cached results)";
  }
  return str_format("throughput: %.1fM simulated instrs in %.2fs = "
                    "%.2fM instrs/s",
                    static_cast<double>(totals.instrs) / 1e6, totals.wall,
                    static_cast<double>(totals.instrs) / totals.wall / 1e6);
}

}  // namespace ringclu
