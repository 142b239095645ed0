#pragma once

/// \file metrics.h
/// The metrics registry: the public instrumentation surface of the
/// simulator.
///
/// Every number the paper's figures plot — and every raw counter behind
/// them — is registered here as a typed, named MetricDesc with a unit, a
/// description and the figure it feeds.  A metric is a *view* bound onto
/// SimResult/SimCounters: evaluating one never touches the Processor hot
/// path, so new figures, sweep dashboards and streaming consumers plug in
/// by registry lookup instead of editing core structs.
///
/// Three layers build on this registry:
///   - report.h aggregation (group_mean by metric name),
///   - the MetricSink backends (metric_sink.h) streaming per-interval
///     series sampled by a SimObserver (core/sim_observer.h),
///   - the machine-readable CLI outputs (ringclu_sim --json and the
///     --sweep json= JSON Lines stream), built by result_to_json /
///     interval_to_json below.
///
/// See DESIGN.md §8.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sim_observer.h"
#include "core/sim_result.h"
#include "util/assert.h"

namespace ringclu {

/// What a metric measures.
enum class MetricKind {
  Counter,  ///< raw event count accumulated over the measurement window
  Ratio,    ///< derived value (quotient of counters, share, average)
};

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

/// One named, typed, documented metric bound onto SimResult.
struct MetricDesc {
  std::string name;         ///< registry key, e.g. "ipc"
  std::string unit;         ///< e.g. "instr/cycle", "count", "fraction"
  std::string description;  ///< one-line human description
  std::string figure;       ///< paper figure/table tag ("fig07"), "" if none
  MetricKind kind = MetricKind::Ratio;
  /// True when the metric is meaningful evaluated on an interval delta;
  /// false for host-side values (wall-clock throughput) that only exist
  /// for a whole run.
  bool time_resolved = true;
  std::function<double(const SimResult&)> value;
};

/// A live server-side gauge: a named, documented value sampled at read
/// time (queue depth, in-flight jobs, aggregate throughput).  The
/// operational sibling of MetricDesc — a MetricDesc is a view over one
/// finished SimResult, a GaugeDesc is a view over a running process.
/// ringclu_simd registers its service/scheduler/journal gauges in a
/// Registry<GaugeDesc> and serves sample_to_json of it as
/// GET /v1/server/metrics.
struct GaugeDesc {
  std::string name;         ///< registry key, e.g. "queue_depth_high"
  std::string unit;         ///< e.g. "jobs", "count", "instr/s"
  std::string description;  ///< one-line human description
  std::function<double()> value;
};

/// An ordered collection of uniquely named descriptors (MetricDesc or
/// GaugeDesc: anything with a \c name and a \c value function).
template <typename Desc>
class Registry {
 public:
  /// Registers \p desc.  \pre the name is non-empty and not yet taken,
  /// and the value function is set.
  void add(Desc desc) {
    RINGCLU_EXPECTS(!desc.name.empty());
    RINGCLU_EXPECTS(desc.value != nullptr);
    const bool unique = index_.emplace(desc.name, entries_.size()).second;
    RINGCLU_EXPECTS(unique && "duplicate metric name");
    entries_.push_back(std::move(desc));
  }

  /// Lookup by name; nullptr when unknown.
  [[nodiscard]] const Desc* try_find(std::string_view name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  /// Lookup by name.  \pre the entry exists.
  [[nodiscard]] const Desc& at(std::string_view name) const {
    const Desc* desc = try_find(name);
    RINGCLU_EXPECTS(desc != nullptr && "unknown metric name");
    return *desc;
  }

  /// All entries in registration order.
  [[nodiscard]] std::span<const Desc> entries() const { return entries_; }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Desc> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

/// The metrics registry.  The built-in one covers every SimCounters field
/// (kCounterFields) and every derived ratio the figures use; extensions
/// copy it and add their own views.
class MetricsRegistry : public Registry<MetricDesc> {
 public:
  /// The process-wide registry of built-in metrics (immutable).
  [[nodiscard]] static const MetricsRegistry& builtin();

  /// A fresh registry pre-populated with the built-in metrics, for
  /// callers that want to register additional views.
  [[nodiscard]] static MetricsRegistry make_builtin();
};

/// Samples every gauge of \p gauges now and renders one JSON object,
/// {"<name>": <value>, ...} in registration order.  Values pass through
/// json_number (NaN/Inf map to 0).
[[nodiscard]] std::string sample_to_json(const Registry<GaugeDesc>& gauges);

/// Identifies the run a metric record belongs to (threaded to sinks).
struct MetricRunContext {
  std::string config_name;
  std::string benchmark;
  std::uint64_t interval_instrs = 0;  ///< sampling period, 0 when off
  std::uint64_t seed = 0;
};

/// Full machine-readable report of one finished run: config/benchmark
/// identity, schema version, raw counters, every registry metric, the
/// per-cluster dispatch shares and the host-side throughput block.  One
/// JSON object, no trailing newline.  This is exactly what
/// `ringclu_sim --json` prints (pinned by a parse round-trip test).
[[nodiscard]] std::string result_to_json(
    const SimResult& result,
    const MetricsRegistry& registry = MetricsRegistry::builtin());

/// One JSON Lines record for an interval sample: run identity, interval
/// index/bounds, the delta counters and every time-resolved registry
/// metric evaluated on the delta.  One JSON object, no trailing newline.
[[nodiscard]] std::string interval_to_json(
    const MetricRunContext& context, const IntervalSample& sample,
    const MetricsRegistry& registry = MetricsRegistry::builtin());

}  // namespace ringclu
