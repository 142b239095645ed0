#pragma once

/// \file report.h
/// Aggregation helpers that turn raw SimResults into the paper's figure
/// series: AVG / INT / FP group means and Ring-over-Conv speedups, and
/// the renderer that prints a sweep spec's report tables with them.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/sim_result.h"
#include "harness/experiment.h"

namespace ringclu {

/// Benchmark grouping used by every bar chart in the paper.
enum class BenchGroup { All, Int, Fp };

[[nodiscard]] std::string_view group_name(BenchGroup group);

/// Arithmetic mean of \p metric over results whose benchmark is in
/// \p group.
[[nodiscard]] double group_mean(
    std::span<const SimResult> results, BenchGroup group,
    const std::function<double(const SimResult&)>& metric);

/// Registry-generic variant: mean of the registered metric named
/// \p metric_name (stats/metrics.h) over the group.  Any metric a figure,
/// sink or CLI column can name aggregates through this one entry point.
/// \pre the metric exists in the built-in registry.
[[nodiscard]] double group_mean(std::span<const SimResult> results,
                                BenchGroup group,
                                std::string_view metric_name);

/// Geometric mean of per-benchmark IPC ratios (ring[i]/conv[i]) over the
/// group; the standard "average speedup" figure.  \pre results are
/// benchmark-aligned.
[[nodiscard]] double group_speedup(std::span<const SimResult> ring,
                                   std::span<const SimResult> conv,
                                   BenchGroup group);

/// Looks up the result for \p benchmark; nullptr when absent.
[[nodiscard]] const SimResult* try_find_result(
    std::span<const SimResult> results, std::string_view benchmark);

/// Looks up the result for (\p config_name, \p benchmark); nullptr when
/// absent.  The graceful form for callers assembling views over batch
/// output (CLI tables, examples) where a missing pair is a reportable
/// condition, not a programming error.
[[nodiscard]] const SimResult* try_find_result(
    std::span<const SimResult> results, std::string_view config_name,
    std::string_view benchmark);

/// Looks up the result for \p benchmark.  \pre present (aborts when
/// absent — use try_find_result to handle absence gracefully).
[[nodiscard]] const SimResult& find_result(std::span<const SimResult> results,
                                           std::string_view benchmark);

/// Renders \p spec's report tables (experiment.h) over a finished sweep,
/// each table preceded by its title and followed by a blank line.
/// \p results hold one result per (point, benchmark) pair, point-major —
/// the order make_sweep_jobs builds jobs in.  A spec without
/// tables renders one untitled {"metric": "ipc"} table.  \pre \p spec
/// passed from_json (every metric and point name resolves) and \p points
/// is its expansion.
[[nodiscard]] std::string render_report(const ExperimentSpec& spec,
                                        std::span<const ExperimentPoint> points,
                                        std::span<const SimResult> results);

/// Aggregate simulator throughput over a result set: total simulated
/// instructions (warmup included) divided by total recorded wall time.
/// Results without wall-time data (e.g. loaded from cache) contribute
/// nothing to either sum; returns 0 when no result carries wall time.
[[nodiscard]] double aggregate_sim_ips(std::span<const SimResult> results);

/// One-line human summary of aggregate_sim_ips over \p results, e.g.
/// "throughput: 11.4M simulated instrs in 9.31s = 1.23M instrs/s".
[[nodiscard]] std::string throughput_summary(
    std::span<const SimResult> results);

}  // namespace ringclu
