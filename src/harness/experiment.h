#pragma once

/// \file experiment.h
/// Declarative experiment definitions: a base configuration plus sweep
/// axes, expanded into named simulation jobs.
///
/// An ExperimentSpec is what `ringclu_sim --sweep spec.json` loads:
///
///   {
///     "sweep_schema": 1,
///     "name": "bus_sensitivity",
///     "base": "Ring_8clus_1bus_2IW",          // preset name, or an
///                                             // inline ArchConfig object
///     "axes": [
///       {"field": "num_buses", "values": [1, 2]},
///       {"field": "hop_latency", "values": [1, 2]}
///     ],
///     "benchmarks": ["gzip", "swim"],         // optional: suite default
///     "run": {"instrs": 200000, "warmup": 20000, "seed": 42},  // optional
///     "report": [                             // optional (schema 2)
///       {"metric": "nready_avg", "decimals": 3, "title": "..."},
///       {"speedup": [["Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"]]},
///       {"shares": "Ring_8clus_1bus_2IW"}
///     ]
///   }
///
/// An axis "field" is any dotted ArchConfig field (ArchConfig::field_names
/// lists them), or the special axis "preset" whose values replace the
/// whole base configuration — that is how a sweep declares the paper's
/// Table 3 matrix verbatim.  expand() walks the cross-product in
/// declaration order (the last axis varies fastest), names every point
/// deterministically, and collapses duplicate design points by config
/// fingerprint so one simulation serves all of them.  The "report" array
/// names the tables `--sweep` prints (ReportTable; report.h renders
/// them).  See DESIGN.md §9.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/arch_config.h"
#include "harness/sim_job.h"
#include "util/json.h"

namespace ringclu {

/// One sweep dimension: assign each of \p values to \p field in turn.
struct SweepAxis {
  std::string field;  ///< dotted ArchConfig field, or "preset"
  std::vector<JsonValue> values;
};

/// One expanded design point.  \c config.name == \c name (deterministic:
/// "<base>[axis=value,...]", or the preset name for pure preset points).
struct ExperimentPoint {
  std::string name;
  ArchConfig config;
  /// Every point name that collapsed onto this config (fingerprint
  /// duplicates), this point's own name first.
  std::vector<std::string> aliases;
};

/// Version of the sweep-spec JSON schema (the "sweep_schema" field).
/// Version 2 added "report"; version 1 specs parse unchanged.
inline constexpr int kSweepSchemaVersion = 2;

/// One table of a sweep's report.  Metric and Speedup tables have one
/// column per benchmark group (AVERAGE, INT, FP); a Shares table has one
/// row per benchmark and one column per cluster.
struct ReportTable {
  enum class Kind { Metric, Speedup, Shares };
  Kind kind = Kind::Metric;
  std::string title;  ///< printed above the table; "" prints none
  /// Metric: the registry metric (stats/metrics.h) averaged per group.
  std::string metric = "ipc";
  /// Metric: decimals per cell.
  int decimals = 3;
  /// Metric: the row points (empty = every point).  Shares: exactly one
  /// point, whose per-cluster dispatch shares are tabulated.
  std::vector<std::string> points;
  /// Speedup: one row per (numerator, denominator) point pair; a cell is
  /// the group's geometric-mean IPC ratio minus one.
  std::vector<std::pair<std::string, std::string>> pairs;
};

/// A declared experiment: base + axes + workloads + run control.
struct ExperimentSpec {
  std::string name = "sweep";
  ArchConfig base;
  std::vector<SweepAxis> axes;
  /// Benchmarks to run every point on; empty = the caller's default
  /// (default_benchmarks() in the CLI).
  std::vector<std::string> benchmarks;
  /// Run-control overrides; absent fields inherit the caller's defaults.
  std::optional<std::uint64_t> instrs;
  std::optional<std::uint64_t> warmup;
  std::optional<std::uint64_t> seed;
  /// Tables to print after the run; empty = one {"metric": "ipc"} table.
  std::vector<ReportTable> report;

  /// Parses a sweep-spec document.  Same error contract as
  /// ArchConfig::from_json: every problem (unknown key, bad axis field,
  /// invalid expanded point, unknown benchmark, unknown report key, metric
  /// or point name) is appended to \p errors and nullopt is returned if
  /// there was any.
  [[nodiscard]] static std::optional<ExperimentSpec> from_json(
      std::string_view text, std::vector<std::string>* errors = nullptr);

  /// Size of the raw cross-product (before duplicate collapsing);
  /// 1 when there are no axes (the base alone).
  [[nodiscard]] std::size_t cross_product_size() const;

  /// Expands the cross-product into uniquely-named points, collapsing
  /// fingerprint duplicates (first name wins, the rest become aliases).
  /// Appends a message per invalid point/assignment to \p errors and
  /// returns an empty vector if there was any.
  [[nodiscard]] std::vector<ExperimentPoint> expand(
      std::vector<std::string>* errors = nullptr) const;

  /// The spec's run parameters over \p defaults (spec fields win).
  [[nodiscard]] RunParams resolve_params(const RunParams& defaults) const;

  /// The expanded points as a JSON array document (each element a full
  /// ArchConfig::to_json object plus its aliases) — the artifact
  /// `--sweep expand=<path>` writes.
  [[nodiscard]] static std::string points_to_json(
      const std::vector<ExperimentPoint>& points);
};

/// Builds the (point x benchmark) job list, point-major — the order
/// render_report (report.h) reads results in.
[[nodiscard]] std::vector<SimJob> make_sweep_jobs(
    const std::vector<ExperimentPoint>& points,
    const std::vector<std::string>& benchmarks, const RunParams& params,
    MetricSink* sink = nullptr);

}  // namespace ringclu
