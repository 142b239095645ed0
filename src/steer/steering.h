#pragma once

/// \file steering.h
/// Steering-policy interface shared by the Ring and Conv machines.
///
/// A policy sees a compact view of the dispatching instruction (operand
/// values and classes), the live value map, the interconnect (for
/// distances) and a capacity oracle provided by the core (issue-queue,
/// comm-queue and register availability).  It returns the chosen cluster
/// plus the communication instructions the choice requires, or "stall".

#include <cstdint>
#include <string_view>

#include "cluster/value_map.h"
#include "interconnect/bus_set.h"
#include "isa/micro_op.h"
#include "isa/op_class.h"
#include "isa/reg.h"
#include "util/static_vector.h"

namespace ringclu {

class CheckpointReader;
class CheckpointWriter;

/// Which machine organization is being simulated.
enum class ArchKind : std::uint8_t { Ring, Conv };

[[nodiscard]] constexpr std::string_view arch_name(ArchKind kind) {
  return kind == ArchKind::Ring ? "Ring" : "Conv";
}

/// Cluster whose register file receives the result of an instruction issued
/// in \p issue_cluster: the next cluster around the ring for the Ring
/// machine (Section 3), the same cluster for Conv.
[[nodiscard]] constexpr int dest_home_cluster(ArchKind kind, int issue_cluster,
                                              int num_clusters) {
  return kind == ArchKind::Ring ? (issue_cluster + 1) % num_clusters
                                : issue_cluster;
}

/// The per-instruction information steering operates on.
struct SteerRequest {
  OpClass cls = OpClass::IntAlu;
  bool has_dst = false;
  RegClass dst_cls = RegClass::Int;
  /// Distinct source values (duplicated operands appear once).
  StaticVector<ValueId, kMaxSrcOperands> srcs;
  StaticVector<RegClass, kMaxSrcOperands> src_cls;
};

/// Capacity oracle implemented by the core.
class SteerOracle {
 public:
  virtual ~SteerOracle() = default;

  /// Can an instruction executing on \p kind units enter \p cluster's queue?
  [[nodiscard]] virtual bool iq_can_accept(int cluster,
                                           UnitKind kind) const = 0;

  /// Free entries in \p cluster's communication queue.
  [[nodiscard]] virtual int comm_free_entries(int cluster) const = 0;

  /// Can \p count registers of class \p cls be obtained in \p cluster
  /// (free now, or freeable by evicting idle copies)?
  [[nodiscard]] virtual bool regs_obtainable(int cluster, RegClass cls,
                                             int count) const = 0;

  /// Free registers right now (the steering tie-break criterion).
  [[nodiscard]] virtual int free_regs(int cluster, RegClass cls) const = 0;
  [[nodiscard]] virtual int free_regs_total(int cluster) const = 0;
};

/// Everything a policy may consult.
struct SteerContext {
  const ValueMap* values = nullptr;
  const BusSet* buses = nullptr;
  const SteerOracle* oracle = nullptr;
  ArchKind arch = ArchKind::Ring;
  int num_clusters = 0;
};

/// One required inter-cluster copy.
struct SteerComm {
  std::uint8_t operand = 0;       ///< index into SteerRequest::srcs
  std::uint8_t from_cluster = 0;  ///< source of the copy
};

/// The outcome of steering one instruction.
struct SteerDecision {
  bool stall = true;
  int cluster = -1;
  StaticVector<SteerComm, kMaxSrcOperands> comms;

  [[nodiscard]] static SteerDecision stalled() { return SteerDecision{}; }
};

/// Steering-policy interface.
class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  [[nodiscard]] virtual SteerDecision steer(const SteerRequest& request,
                                            const SteerContext& context) = 0;

  /// Notification that the instruction was dispatched to \p cluster
  /// (updates load-balance state such as DCOUNT).
  virtual void on_dispatch(int cluster) { (void)cluster; }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Checkpoint hooks.  The defaults serialize nothing — correct only for
  /// stateless policies; every policy with mutable state (rotation
  /// counters, DCOUNT, RNG, ...) must override both, or restored runs will
  /// diverge from cold runs.  The built-in policies all do; externally
  /// registered policies (steer/registry.h) are expected to as well.
  virtual void save_state(CheckpointWriter& out) const { (void)out; }
  virtual void restore_state(CheckpointReader& in) { (void)in; }
};

}  // namespace ringclu
