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

std::string sample_to_json(const Registry<GaugeDesc>& gauges) {
  JsonWriter json;
  json.begin_object();
  for (const GaugeDesc& gauge : gauges.entries()) {
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
  for (const CounterField& field : kCounterFields) {
    MetricDesc metric;
    metric.name = field.name;
    metric.unit = "count";
    metric.description = field.description;
    metric.figure = field.figure;
    metric.kind = MetricKind::Counter;
    metric.value = [member = field.member](const SimResult& result) {
      return static_cast<double>(result.counters.*member);
    };
    reg.add(std::move(metric));
  }

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
  for (const CounterField& field : kCounterFields) {
    json.key(field.name).value(counters.*field.member);
  }
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
  for (const MetricDesc& metric : registry.entries()) {
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
  for (const MetricDesc& metric : registry.entries()) {
    if (!metric.time_resolved) continue;
    json.key(metric.name).value(metric.value(delta));
  }
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace ringclu
