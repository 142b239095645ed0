#include "core/sim_result.h"

#include "util/assert.h"
#include "util/format.h"

namespace ringclu {

SimCounters SimCounters::minus(const SimCounters& baseline) const {
  SimCounters out = *this;
  for (const CounterField& field : kCounterFields) {
    out.*field.member -= baseline.*field.member;
  }
  RINGCLU_EXPECTS(dispatched_per_cluster.size() ==
                  baseline.dispatched_per_cluster.size());
  for (std::size_t c = 0; c < out.dispatched_per_cluster.size(); ++c) {
    out.dispatched_per_cluster[c] -= baseline.dispatched_per_cluster[c];
  }
  return out;
}

double SimResult::dispatch_share(int cluster) const {
  std::uint64_t total = 0;
  for (std::uint64_t count : counters.dispatched_per_cluster) total += count;
  if (total == 0) return 0.0;
  return static_cast<double>(counters.dispatched_per_cluster[
             static_cast<std::size_t>(cluster)]) /
         static_cast<double>(total);
}

std::string SimResult::detailed_report() const {
  const SimCounters& c = counters;
  const double cycles = c.cycles == 0 ? 1.0 : static_cast<double>(c.cycles);
  std::string out = summary() + "\n";
  out += str_format("  cycles=%llu committed=%llu\n",
                    static_cast<unsigned long long>(c.cycles),
                    static_cast<unsigned long long>(c.committed));
  out += str_format(
      "  stalls: steer=%.1f%% rob=%.1f%% lsq=%.1f%% icache=%.1f%%\n",
      100.0 * static_cast<double>(c.steer_stall_cycles) / cycles,
      100.0 * static_cast<double>(c.rob_stall_cycles) / cycles,
      100.0 * static_cast<double>(c.lsq_stall_cycles) / cycles,
      100.0 * static_cast<double>(c.icache_stall_cycles) / cycles);
  out += str_format(
      "  mem: loads=%llu stores=%llu forwards=%llu l1d_miss=%.1f%% "
      "l2_miss=%.1f%%\n",
      static_cast<unsigned long long>(c.loads),
      static_cast<unsigned long long>(c.stores),
      static_cast<unsigned long long>(c.load_forwards),
      c.l1d_accesses == 0 ? 0.0
                          : 100.0 * static_cast<double>(c.l1d_misses) /
                                static_cast<double>(c.l1d_accesses),
      c.l2_accesses == 0 ? 0.0
                         : 100.0 * static_cast<double>(c.l2_misses) /
                               static_cast<double>(c.l2_accesses));
  out += str_format("  rob_occ=%.1f regs_in_use=%.1f copy_evictions=%llu\n",
                    avg_rob_occupancy(),
                    static_cast<double>(c.regs_in_use_sum) / cycles,
                    static_cast<unsigned long long>(c.copy_evictions));
  out += "  dispatch share:";
  for (std::size_t i = 0; i < c.dispatched_per_cluster.size(); ++i) {
    out += str_format(" %.1f%%", 100.0 * dispatch_share(static_cast<int>(i)));
  }
  out += "\n";
  return out;
}

std::string SimResult::summary() const {
  return str_format(
      "%s/%s: ipc=%.3f comms/instr=%.3f dist=%.2f contention=%.2f "
      "nready=%.2f mispred=%.1f%%",
      config_name.c_str(), benchmark.c_str(), ipc(), comms_per_instr(),
      avg_comm_distance(), avg_comm_contention(), nready_avg(),
      mispredict_rate() * 100.0);
}

}  // namespace ringclu
