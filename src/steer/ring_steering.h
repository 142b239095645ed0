#pragma once

/// \file ring_steering.h
/// The paper's dependence-based steering for the ring clustered machine
/// (Section 3.1):
///
///   0 source operands : cluster with the most free registers.
///   1 source operand  : among clusters where the operand is mapped, the
///                       one with the most free registers.
///   2 source operands : if some cluster maps both, the one of those with
///                       the most free registers; otherwise, among clusters
///                       mapping exactly one operand, the one with the
///                       shortest communication distance for the other
///                       operand (ties: most free registers).
///   Chosen cluster full -> dispatch stalls.
///
/// "Free registers" counts the cluster that will hold the destination
/// (candidate+1 in the ring), which reproduces the paper's Figure 2 worked
/// example.  Because a two-operand instruction is always placed where at
/// least one operand is mapped, no instruction ever needs two
/// communications — and the horizontal slicing of the dependence graph
/// balances the workload with no explicit mechanism.

#include "steer/steer_common.h"
#include "steer/steering.h"

namespace ringclu {

class RingSteering final : public CheckpointedPolicy<RingSteering> {
 public:
  explicit RingSteering(int num_clusters) : num_clusters_(num_clusters) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  void on_dispatch(int cluster) override;

  [[nodiscard]] std::string_view name() const override {
    return "ring_dependence";
  }
  /// The rotation moves only in on_dispatch().
  [[nodiscard]] bool stalled_steer_is_pure() const override { return true; }

  template <class Io>
  void transfer(Io& io) {
    io.i64(rotate_);
  }
  friend bool operator==(const RingSteering&, const RingSteering&) = default;

 private:
  /// Picks the best viable cluster from \p candidate_mask using
  /// (min distance_key, max free-reg score, round-robin) ordering and plans
  /// its communications.  distance_key is 0 for rules that ignore distance.
  [[nodiscard]] SteerDecision select(const SteerRequest& request,
                                     const SteerContext& context,
                                     std::uint32_t candidate_mask,
                                     bool use_distance);

  int num_clusters_;
  int rotate_ = 0;  ///< round-robin tie-break state
  /// Per-request operand plans (steer_common.h); rebuilt by every steer()
  /// call, so it carries no cross-instruction state.
  NotState<SteerPlanCache> plans_;
};

}  // namespace ringclu
