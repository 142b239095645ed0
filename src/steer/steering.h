#pragma once

/// \file steering.h
/// Steering-policy interface shared by the Ring and Conv machines.
///
/// A policy sees a compact view of the dispatching instruction (operand
/// values and classes), the live value map, the interconnect (for
/// distances) and a capacity oracle provided by the core (issue-queue,
/// comm-queue and register availability).  It returns the chosen cluster
/// plus the communication instructions the choice requires, or "stall".

#include <array>
#include <cstdint>
#include <string_view>

#include "cluster/value_map.h"
#include "core/checkpoint.h"
#include "interconnect/bus_set.h"
#include "isa/micro_op.h"
#include "isa/op_class.h"
#include "isa/reg.h"
#include "util/static_vector.h"

namespace ringclu {

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

  /// The interface holds no state; lets an implementation default its ==.
  friend bool operator==(const SteerOracle&, const SteerOracle&) = default;
};

/// The resources whose capacity checks rejected candidates during one
/// steer(), as cluster masks (bit c = cluster c).  plan_candidate() records
/// the check that failed for each rejected candidate; after a pure stall
/// (SteeringPolicy::stalled_steer_is_pure()) the core re-asks the policy
/// only once one of these resources gains capacity (DESIGN.md §6).
struct SteerWatch {
  std::uint16_t iq = 0;    ///< issue queues of the op's unit kind
  std::uint16_t comm = 0;  ///< comm queues at operands' source clusters
  /// Register files, per register class.
  std::array<std::uint16_t, kNumRegClasses> regs{};

  void clear() { *this = SteerWatch{}; }

  friend bool operator==(const SteerWatch&, const SteerWatch&) = default;
};

/// Everything a policy may consult.
struct SteerContext {
  const ValueMap* values = nullptr;
  const BusSet* buses = nullptr;
  const SteerOracle* oracle = nullptr;
  ArchKind arch = ArchKind::Ring;
  int num_clusters = 0;
  /// Where plan_candidate() records rejections; null records nothing.
  SteerWatch* watch = nullptr;
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

  /// True when every stall steer() returns is *pure*:
  ///   - it changes no policy state (no RNG draw, no rotation);
  ///   - every candidate it considered was planned with plan_candidate()
  ///     and rejected, so the context's SteerWatch names a failed
  ///     capacity check for each of them;
  ///   - its candidate sets read only the value-map entries of the
  ///     request's sources and policy state that moves only when an
  ///     instruction is placed (DCOUNT, a rotation).
  /// The core then repeats the stall without asking until a watched
  /// resource gains capacity or a source's `produced` or `mapped_mask`
  /// changes, and may skip steer-stalled quiet cycles (DESIGN.md §6).  The
  /// conservative default asks again every cycle.  A wrapper policy
  /// forwards this only if it forwards steer() unchanged.
  [[nodiscard]] virtual bool stalled_steer_is_pure() const { return false; }

  /// Checkpoint hooks: save_state and restore_state write and read the
  /// policy's mutable state (rotation counters, DCOUNT, RNG, ...);
  /// same_state compares it with \p other's, which is how the checkpoint
  /// equality tests see a field the other two skip.  The defaults
  /// serialize nothing and compare equal, which is correct only for
  /// stateless policies: a policy with state overrides all three, or
  /// restored runs diverge from cold runs.  The built-in policies derive
  /// from CheckpointedPolicy, which builds the three from one field list;
  /// externally registered policies (steer/registry.h) are expected to
  /// override them too.
  virtual void save_state(CheckpointWriter& out) const { (void)out; }
  virtual void restore_state(CheckpointReader& in) { (void)in; }
  [[nodiscard]] virtual bool same_state(const SteeringPolicy& other) const {
    (void)other;
    return true;
  }
};

/// Base of a policy that lists its fields once, in
///   template <class Io> void transfer(Io& io);
/// and has a defaulted operator==: the checkpoint hooks run and compare
/// exactly those.
template <class Derived>
class CheckpointedPolicy : public SteeringPolicy {
 public:
  void save_state(CheckpointWriter& out) const override { out.save(self()); }
  void restore_state(CheckpointReader& in) override {
    static_cast<Derived&>(*this).transfer(in);
  }
  [[nodiscard]] bool same_state(const SteeringPolicy& other) const override {
    const auto* same = dynamic_cast<const Derived*>(&other);
    return same != nullptr && *same == self();
  }

  /// The base holds no state.
  friend bool operator==(const CheckpointedPolicy&,
                         const CheckpointedPolicy&) {
    return true;
  }

 private:
  [[nodiscard]] const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }
};

}  // namespace ringclu
