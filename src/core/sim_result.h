#pragma once

/// \file sim_result.h
/// Everything one simulation run reports — the raw counters behind every
/// figure in the paper's evaluation section.

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace ringclu {

/// Version of the result schema: bump when simulator semantics or the
/// counter set change so stale cache entries re-run.  The counter set is
/// kCounterFields below (plus dispatched_per_cluster): adding, removing or
/// reordering an entry changes the store, checkpoint and JSON layouts, so
/// it bumps this too.  Cache keys (sim_job.h), stores and
/// machine-readable outputs all embed it.
inline constexpr int kSimSchemaVersion = 3;

/// Raw measurement counters (collected after warmup).
struct SimCounters {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;

  // Communications (Figures 7-9).
  std::uint64_t comms = 0;
  std::uint64_t comm_distance_sum = 0;
  std::uint64_t comm_contention_sum = 0;

  // Workload imbalance (Figures 10/14) and distribution (Figure 11).
  std::uint64_t nready_sum = 0;
  std::vector<std::uint64_t> dispatched_per_cluster;

  // Front end.
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t icache_stall_cycles = 0;

  // Memory.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_forwards = 0;
  std::uint64_t l1d_accesses = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;

  // Dispatch behaviour.
  std::uint64_t steer_stall_cycles = 0;
  std::uint64_t rob_stall_cycles = 0;
  std::uint64_t lsq_stall_cycles = 0;
  std::uint64_t copy_evictions = 0;

  // Occupancy integrals (divide by cycles for averages).
  std::uint64_t rob_occupancy_sum = 0;
  std::uint64_t regs_in_use_sum = 0;

  /// Field-wise difference (this - baseline); used to subtract warmup.
  [[nodiscard]] SimCounters minus(const SimCounters& baseline) const;

  /// Checkpoint fields (core/checkpoint.h), in kCounterFields order with
  /// dispatched_per_cluster after nready_sum; defined below the table.
  template <class Io>
  void transfer(Io& io);

  /// Bit-identical comparison, the determinism-regression contract.
  [[nodiscard]] friend bool operator==(const SimCounters&,
                                       const SimCounters&) = default;
};

/// One scalar SimCounters field: its name in every output, the member it
/// reads, and the registry description and paper-figure tag ("" if none).
struct CounterField {
  std::string_view name;
  std::uint64_t SimCounters::*member;
  std::string_view description;
  std::string_view figure;
};

/// The counter schema: every scalar SimCounters field, in output order.
/// Warmup subtraction (SimCounters::minus), the TSV store line
/// (serialize_result / try_deserialize_result), the JSON "counters" block,
/// the registry's counter metrics and the checkpoint field list
/// (SimCounters::transfer) all walk this table; dispatched_per_cluster,
/// the one vector field, each consumer handles beside it.
inline constexpr CounterField kCounterFields[] = {
    {"cycles", &SimCounters::cycles, "measured cycles", ""},
    {"committed", &SimCounters::committed, "committed instructions", ""},
    {"comms", &SimCounters::comms, "inter-cluster communications", "fig07"},
    {"comm_distance_sum", &SimCounters::comm_distance_sum,
     "summed hop distance over all communications", "fig08"},
    {"comm_contention_sum", &SimCounters::comm_contention_sum,
     "summed bus-contention delay over all communications", "fig09"},
    {"nready_sum", &SimCounters::nready_sum,
     "summed NREADY matching per cycle", "fig10"},
    {"branches", &SimCounters::branches, "conditional branches", ""},
    {"mispredicts", &SimCounters::mispredicts, "branch mispredictions", ""},
    {"icache_stall_cycles", &SimCounters::icache_stall_cycles,
     "cycles fetch stalled on the instruction cache", ""},
    {"loads", &SimCounters::loads, "committed loads", ""},
    {"stores", &SimCounters::stores, "committed stores", ""},
    {"load_forwards", &SimCounters::load_forwards,
     "loads satisfied by store-to-load forwarding", ""},
    {"l1d_accesses", &SimCounters::l1d_accesses, "L1 data-cache accesses",
     ""},
    {"l1d_misses", &SimCounters::l1d_misses, "L1 data-cache misses", ""},
    {"l2_accesses", &SimCounters::l2_accesses, "L2 accesses", ""},
    {"l2_misses", &SimCounters::l2_misses, "L2 misses", ""},
    {"steer_stall_cycles", &SimCounters::steer_stall_cycles,
     "cycles dispatch stalled on steering", ""},
    {"rob_stall_cycles", &SimCounters::rob_stall_cycles,
     "cycles dispatch stalled on a full ROB", ""},
    {"lsq_stall_cycles", &SimCounters::lsq_stall_cycles,
     "cycles dispatch stalled on a full LSQ", ""},
    {"copy_evictions", &SimCounters::copy_evictions,
     "register copies evicted to free physical registers", ""},
    {"rob_occupancy_sum", &SimCounters::rob_occupancy_sum,
     "summed ROB occupancy per cycle", ""},
    {"regs_in_use_sum", &SimCounters::regs_in_use_sum,
     "summed physical registers in use per cycle", ""},
};

// A uint64_t member added to SimCounters without a table line fails here.
static_assert(sizeof(SimCounters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t) +
                      sizeof(std::vector<std::uint64_t>),
              "every scalar SimCounters field needs a kCounterFields entry");

template <class Io>
void SimCounters::transfer(Io& io) {
  for (const CounterField& field : kCounterFields) {
    io.u64(this->*field.member);
    // The vector has always followed nready_sum in checkpoints.
    if (field.member == &SimCounters::nready_sum) {
      io.vec_u64(dispatched_per_cluster);
    }
  }
}

/// A finished run.
struct SimResult {
  std::string config_name;
  std::string benchmark;
  SimCounters counters;

  /// Host wall-clock seconds spent inside Processor::run (warmup +
  /// measurement).  Simulator-throughput instrumentation only: host-specific
  /// and nondeterministic, so deliberately excluded from serialization,
  /// golden files and the determinism contract.  0 for cache-loaded results.
  double wall_seconds = 0.0;
  /// Total simulated instructions committed inside run(), including warmup
  /// (the denominator of wall_seconds covers both).
  std::uint64_t total_committed = 0;

  /// Wall-clock seconds this run saved by restoring a warmup checkpoint
  /// instead of re-simulating warmup (checkpointed warmup cost minus
  /// restore cost, floored at 0).  Like wall_seconds: host-specific
  /// instrumentation, excluded from serialization and the determinism
  /// contract.  0 when no checkpoint was used.
  double warmup_amortized_seconds = 0.0;
  /// True when warmup state came from a checkpoint rather than cold
  /// simulation.  Excluded from serialization like wall_seconds.
  bool warmup_restored = false;

  [[nodiscard]] double ipc() const {
    return counters.cycles == 0
               ? 0.0
               : static_cast<double>(counters.committed) /
                     static_cast<double>(counters.cycles);
  }
  [[nodiscard]] double comms_per_instr() const {
    return counters.committed == 0
               ? 0.0
               : static_cast<double>(counters.comms) /
                     static_cast<double>(counters.committed);
  }
  [[nodiscard]] double avg_comm_distance() const {
    return counters.comms == 0
               ? 0.0
               : static_cast<double>(counters.comm_distance_sum) /
                     static_cast<double>(counters.comms);
  }
  [[nodiscard]] double avg_comm_contention() const {
    return counters.comms == 0
               ? 0.0
               : static_cast<double>(counters.comm_contention_sum) /
                     static_cast<double>(counters.comms);
  }
  [[nodiscard]] double nready_avg() const {
    return counters.cycles == 0
               ? 0.0
               : static_cast<double>(counters.nready_sum) /
                     static_cast<double>(counters.cycles);
  }
  [[nodiscard]] double mispredict_rate() const {
    return counters.branches == 0
               ? 0.0
               : static_cast<double>(counters.mispredicts) /
                     static_cast<double>(counters.branches);
  }
  [[nodiscard]] double avg_rob_occupancy() const {
    return counters.cycles == 0
               ? 0.0
               : static_cast<double>(counters.rob_occupancy_sum) /
                     static_cast<double>(counters.cycles);
  }
  /// Simulator throughput: simulated instructions committed per host
  /// wall-clock second.  0 when no wall time was recorded (cached results).
  [[nodiscard]] double sim_instrs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(total_committed) / wall_seconds;
  }

  /// Fraction of dispatched instructions sent to \p cluster.
  [[nodiscard]] double dispatch_share(int cluster) const;

  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;

  /// Multi-line report with stall breakdown, cache and front-end behaviour.
  [[nodiscard]] std::string detailed_report() const;
};

}  // namespace ringclu
