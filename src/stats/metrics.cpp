#include "stats/metrics.h"

#include <algorithm>

#include "util/assert.h"
#include "util/json.h"

namespace ringclu {

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Ratio: return "ratio";
  }
  RINGCLU_UNREACHABLE("bad MetricKind");
}

void MetricsRegistry::add(MetricDesc metric) {
  RINGCLU_EXPECTS(!metric.name.empty());
  RINGCLU_EXPECTS(metric.value != nullptr);
  const bool unique =
      index_.emplace(metric.name, metrics_.size()).second;
  RINGCLU_EXPECTS(unique && "duplicate metric name");
  metrics_.push_back(std::move(metric));
}

const MetricDesc* MetricsRegistry::try_find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

const MetricDesc& MetricsRegistry::at(std::string_view name) const {
  const MetricDesc* metric = try_find(name);
  RINGCLU_EXPECTS(metric != nullptr && "unknown metric name");
  return *metric;
}

void GaugeRegistry::add(GaugeDesc gauge) {
  RINGCLU_EXPECTS(!gauge.name.empty());
  RINGCLU_EXPECTS(gauge.value != nullptr);
  const bool unique = index_.emplace(gauge.name, gauges_.size()).second;
  RINGCLU_EXPECTS(unique && "duplicate gauge name");
  gauges_.push_back(std::move(gauge));
}

const GaugeDesc* GaugeRegistry::try_find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &gauges_[it->second];
}

std::string GaugeRegistry::sample_to_json() const {
  JsonWriter json;
  json.begin_object();
  for (const GaugeDesc& gauge : gauges_) {
    json.key(gauge.name).value(gauge.value());
  }
  json.end_object();
  return json.str();
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Largest / smallest per-cluster dispatch share (0 when nothing
/// dispatched).  Shares are computed from the counters so the metric also
/// works on interval deltas.
double dispatch_share_extreme(const SimCounters& counters, bool want_max) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : counters.dispatched_per_cluster) {
    total += count;
  }
  if (total == 0 || counters.dispatched_per_cluster.empty()) return 0.0;
  std::uint64_t extreme = counters.dispatched_per_cluster.front();
  for (const std::uint64_t count : counters.dispatched_per_cluster) {
    extreme = want_max ? std::max(extreme, count) : std::min(extreme, count);
  }
  return ratio(extreme, total);
}

/// Registers one raw SimCounters field as a counter metric.
void add_counter(MetricsRegistry& registry, std::string name,
                 std::uint64_t SimCounters::*field, std::string description,
                 std::string figure = "") {
  MetricDesc metric;
  metric.name = std::move(name);
  metric.unit = "count";
  metric.description = std::move(description);
  metric.figure = std::move(figure);
  metric.kind = MetricKind::Counter;
  metric.value = [field](const SimResult& result) {
    return static_cast<double>(result.counters.*field);
  };
  registry.add(std::move(metric));
}

/// Registers a derived ratio metric.
void add_ratio(MetricsRegistry& registry, std::string name, std::string unit,
               std::string description, std::string figure,
               std::function<double(const SimResult&)> value,
               bool time_resolved = true) {
  MetricDesc metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.description = std::move(description);
  metric.figure = std::move(figure);
  metric.kind = MetricKind::Ratio;
  metric.time_resolved = time_resolved;
  metric.value = std::move(value);
  registry.add(std::move(metric));
}

}  // namespace

MetricsRegistry MetricsRegistry::make_builtin() {
  MetricsRegistry reg;

  // Raw counters: every SimCounters field, one view each.
  add_counter(reg, "cycles", &SimCounters::cycles, "measured cycles");
  add_counter(reg, "committed", &SimCounters::committed,
              "committed instructions");
  add_counter(reg, "comms", &SimCounters::comms,
              "inter-cluster communications", "fig07");
  add_counter(reg, "comm_distance_sum", &SimCounters::comm_distance_sum,
              "summed hop distance over all communications", "fig08");
  add_counter(reg, "comm_contention_sum", &SimCounters::comm_contention_sum,
              "summed bus-contention delay over all communications", "fig09");
  add_counter(reg, "nready_sum", &SimCounters::nready_sum,
              "summed NREADY matching per cycle", "fig10");
  add_counter(reg, "branches", &SimCounters::branches, "conditional branches");
  add_counter(reg, "mispredicts", &SimCounters::mispredicts,
              "branch mispredictions");
  add_counter(reg, "icache_stall_cycles", &SimCounters::icache_stall_cycles,
              "cycles fetch stalled on the instruction cache");
  add_counter(reg, "loads", &SimCounters::loads, "committed loads");
  add_counter(reg, "stores", &SimCounters::stores, "committed stores");
  add_counter(reg, "load_forwards", &SimCounters::load_forwards,
              "loads satisfied by store-to-load forwarding");
  add_counter(reg, "l1d_accesses", &SimCounters::l1d_accesses,
              "L1 data-cache accesses");
  add_counter(reg, "l1d_misses", &SimCounters::l1d_misses,
              "L1 data-cache misses");
  add_counter(reg, "l2_accesses", &SimCounters::l2_accesses, "L2 accesses");
  add_counter(reg, "l2_misses", &SimCounters::l2_misses, "L2 misses");
  add_counter(reg, "steer_stall_cycles", &SimCounters::steer_stall_cycles,
              "cycles dispatch stalled on steering");
  add_counter(reg, "rob_stall_cycles", &SimCounters::rob_stall_cycles,
              "cycles dispatch stalled on a full ROB");
  add_counter(reg, "lsq_stall_cycles", &SimCounters::lsq_stall_cycles,
              "cycles dispatch stalled on a full LSQ");
  add_counter(reg, "copy_evictions", &SimCounters::copy_evictions,
              "register copies evicted to free physical registers");
  add_counter(reg, "rob_occupancy_sum", &SimCounters::rob_occupancy_sum,
              "summed ROB occupancy per cycle");
  add_counter(reg, "regs_in_use_sum", &SimCounters::regs_in_use_sum,
              "summed physical registers in use per cycle");

  // Derived ratios: the figure series.
  add_ratio(reg, "ipc", "instr/cycle", "committed instructions per cycle",
            "fig06", [](const SimResult& r) { return r.ipc(); });
  add_ratio(reg, "comms_per_instr", "comm/instr",
            "inter-cluster communications per committed instruction", "fig07",
            [](const SimResult& r) { return r.comms_per_instr(); });
  add_ratio(reg, "avg_comm_distance", "hops",
            "average hop distance per communication", "fig08",
            [](const SimResult& r) { return r.avg_comm_distance(); });
  add_ratio(reg, "avg_comm_contention", "cycles",
            "average bus-contention delay per communication", "fig09",
            [](const SimResult& r) { return r.avg_comm_contention(); });
  add_ratio(reg, "nready_avg", "instr/cycle",
            "average ready-but-misplaced instructions per cycle (workload "
            "imbalance)",
            "fig10",
            [](const SimResult& r) { return r.nready_avg(); });
  add_ratio(reg, "mispredict_rate", "fraction",
            "mispredicted fraction of conditional branches", "",
            [](const SimResult& r) { return r.mispredict_rate(); });
  add_ratio(reg, "avg_rob_occupancy", "entries", "average ROB occupancy", "",
            [](const SimResult& r) { return r.avg_rob_occupancy(); });
  add_ratio(reg, "avg_regs_in_use", "regs",
            "average physical registers in use", "",
            [](const SimResult& r) {
              return ratio(r.counters.regs_in_use_sum, r.counters.cycles);
            });
  add_ratio(reg, "l1d_miss_rate", "fraction", "L1 data-cache miss rate", "",
            [](const SimResult& r) {
              return ratio(r.counters.l1d_misses, r.counters.l1d_accesses);
            });
  add_ratio(reg, "l2_miss_rate", "fraction", "L2 miss rate", "",
            [](const SimResult& r) {
              return ratio(r.counters.l2_misses, r.counters.l2_accesses);
            });
  add_ratio(reg, "load_forward_rate", "fraction",
            "fraction of loads satisfied by store-to-load forwarding", "",
            [](const SimResult& r) {
              return ratio(r.counters.load_forwards, r.counters.loads);
            });
  add_ratio(reg, "steer_stall_frac", "fraction",
            "fraction of cycles dispatch stalled on steering", "",
            [](const SimResult& r) {
              return ratio(r.counters.steer_stall_cycles, r.counters.cycles);
            });
  add_ratio(reg, "rob_stall_frac", "fraction",
            "fraction of cycles dispatch stalled on a full ROB", "",
            [](const SimResult& r) {
              return ratio(r.counters.rob_stall_cycles, r.counters.cycles);
            });
  add_ratio(reg, "lsq_stall_frac", "fraction",
            "fraction of cycles dispatch stalled on a full LSQ", "",
            [](const SimResult& r) {
              return ratio(r.counters.lsq_stall_cycles, r.counters.cycles);
            });
  add_ratio(reg, "icache_stall_frac", "fraction",
            "fraction of cycles fetch stalled on the instruction cache", "",
            [](const SimResult& r) {
              return ratio(r.counters.icache_stall_cycles, r.counters.cycles);
            });
  add_ratio(reg, "copy_evictions_per_kinstr", "evictions/kinstr",
            "idle register copies evicted per 1000 committed instructions", "",
            [](const SimResult& r) {
              return r.counters.committed == 0
                         ? 0.0
                         : 1000.0 *
                               static_cast<double>(r.counters.copy_evictions) /
                               static_cast<double>(r.counters.committed);
            });
  add_ratio(reg, "dispatch_share_max", "fraction",
            "largest per-cluster share of dispatched instructions", "fig11",
            [](const SimResult& r) {
              return dispatch_share_extreme(r.counters, /*want_max=*/true);
            });
  add_ratio(reg, "dispatch_share_min", "fraction",
            "smallest per-cluster share of dispatched instructions", "fig11",
            [](const SimResult& r) {
              return dispatch_share_extreme(r.counters, /*want_max=*/false);
            });

  // Host-side simulator throughput: whole-run only (wall clock is not
  // sampled per interval and is outside the determinism contract).
  add_ratio(reg, "sim_instrs_per_second", "instr/s",
            "simulated instructions per host wall-clock second", "",
            [](const SimResult& r) { return r.sim_instrs_per_second(); },
            /*time_resolved=*/false);

  return reg;
}

const MetricsRegistry& MetricsRegistry::builtin() {
  static const MetricsRegistry registry = make_builtin();
  return registry;
}

namespace {

/// Emits the raw-counter block common to result and interval records.
void write_counters(JsonWriter& json, const SimCounters& counters) {
  json.key("counters").begin_object();
  json.key("cycles").value(counters.cycles);
  json.key("committed").value(counters.committed);
  json.key("comms").value(counters.comms);
  json.key("comm_distance_sum").value(counters.comm_distance_sum);
  json.key("comm_contention_sum").value(counters.comm_contention_sum);
  json.key("nready_sum").value(counters.nready_sum);
  json.key("branches").value(counters.branches);
  json.key("mispredicts").value(counters.mispredicts);
  json.key("icache_stall_cycles").value(counters.icache_stall_cycles);
  json.key("loads").value(counters.loads);
  json.key("stores").value(counters.stores);
  json.key("load_forwards").value(counters.load_forwards);
  json.key("l1d_accesses").value(counters.l1d_accesses);
  json.key("l1d_misses").value(counters.l1d_misses);
  json.key("l2_accesses").value(counters.l2_accesses);
  json.key("l2_misses").value(counters.l2_misses);
  json.key("steer_stall_cycles").value(counters.steer_stall_cycles);
  json.key("rob_stall_cycles").value(counters.rob_stall_cycles);
  json.key("lsq_stall_cycles").value(counters.lsq_stall_cycles);
  json.key("copy_evictions").value(counters.copy_evictions);
  json.key("rob_occupancy_sum").value(counters.rob_occupancy_sum);
  json.key("regs_in_use_sum").value(counters.regs_in_use_sum);
  json.key("dispatched_per_cluster").begin_array();
  for (const std::uint64_t count : counters.dispatched_per_cluster) {
    json.value(count);
  }
  json.end_array();
  json.end_object();
}

}  // namespace

std::string result_to_json(const SimResult& result,
                           const MetricsRegistry& registry) {
  JsonWriter json;
  json.begin_object();
  json.key("type").value("result");
  json.key("schema_version").value(kSimSchemaVersion);
  json.key("config").value(result.config_name);
  json.key("benchmark").value(result.benchmark);
  write_counters(json, result.counters);
  json.key("metrics").begin_object();
  for (const MetricDesc& metric : registry.metrics()) {
    json.key(metric.name).value(metric.value(result));
  }
  json.end_object();
  json.key("dispatch_shares").begin_array();
  for (std::size_t c = 0; c < result.counters.dispatched_per_cluster.size();
       ++c) {
    json.value(result.dispatch_share(static_cast<int>(c)));
  }
  json.end_array();
  json.key("host").begin_object();
  json.key("wall_seconds").value(result.wall_seconds);
  json.key("total_committed").value(result.total_committed);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string interval_to_json(const MetricRunContext& context,
                             const IntervalSample& sample,
                             const MetricsRegistry& registry) {
  // Registry metrics are views over SimResult; evaluate them on a
  // result-shaped wrapper around the interval delta.
  SimResult delta;
  delta.config_name = context.config_name;
  delta.benchmark = context.benchmark;
  delta.counters = sample.delta;

  JsonWriter json;
  json.begin_object();
  json.key("type").value("interval");
  json.key("config").value(context.config_name);
  json.key("benchmark").value(context.benchmark);
  json.key("seed").value(context.seed);
  json.key("interval_instrs").value(sample.interval_instrs);
  json.key("index").value(sample.index);
  json.key("final").value(sample.final_sample);
  json.key("cumulative_committed").value(sample.cumulative.committed);
  json.key("cumulative_cycles").value(sample.cumulative.cycles);
  write_counters(json, sample.delta);
  json.key("metrics").begin_object();
  for (const MetricDesc& metric : registry.metrics()) {
    if (!metric.time_resolved) continue;
    json.key(metric.name).value(metric.value(delta));
  }
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace ringclu
