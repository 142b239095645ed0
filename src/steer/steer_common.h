#pragma once

/// \file steer_common.h
/// Helpers shared by the steering policies: candidate viability (capacity
/// checks plus communication planning) and distance computations.

#include <array>

#include "steer/steering.h"

namespace ringclu {

/// Shortest bus distance from any cluster where \p value is mapped to
/// \p cluster; 0 when mapped in \p cluster itself.  Also reports the best
/// source cluster (lowest index among equals).
struct CommPlanStep {
  int distance = 0;
  int from_cluster = -1;  ///< -1 when no communication is needed
};

/// The CommPlanStep for a value mapped in \p mapped_mask: one
/// BusSet::nearest() lookup.
[[nodiscard]] inline CommPlanStep plan_step(const BusSet& buses,
                                            std::uint32_t mapped_mask,
                                            int cluster) {
  const NearestSource nearest = buses.nearest(mapped_mask, cluster);
  return CommPlanStep{nearest.distance,
                      nearest.distance == 0 ? -1 : nearest.from_cluster};
}

[[nodiscard]] CommPlanStep plan_operand(ValueId value, int cluster,
                                        const SteerContext& context);

/// The operand plans of one steering request.  build() reads each
/// source's mapped mask once (O(operands)); step() is then one
/// BusSet::nearest() lookup, so a policy pays for the (operand, cluster)
/// pairs it actually looks at, with no value-map access.  Multi-pass
/// policies (Conv's imbalance / pending / distance stages, Ring's
/// distance-then-select) build it once per request.  Entries are identical
/// to what plan_operand returns (the same table), so cached and uncached
/// policies produce byte-equal decision streams.
class SteerPlanCache {
 public:
  /// Records \p request's source masks against the current value map.
  void build(const SteerRequest& request, const SteerContext& context);

  /// The plan_operand(request.srcs[operand], cluster) answer.
  [[nodiscard]] CommPlanStep step(std::size_t operand, int cluster) const {
    return plan_step(*buses_, masks_[operand], cluster);
  }

  /// Sum of communication distances \p request would incur at \p cluster.
  [[nodiscard]] int total_distance(const SteerRequest& request,
                                   int cluster) const {
    int total = 0;
    for (std::size_t i = 0; i < request.srcs.size(); ++i) {
      total += step(i, cluster).distance;
    }
    return total;
  }

  /// Longest single-operand communication distance at \p cluster.
  [[nodiscard]] int longest_distance(const SteerRequest& request,
                                     int cluster) const {
    int longest = 0;
    for (std::size_t i = 0; i < request.srcs.size(); ++i) {
      const int distance = step(i, cluster).distance;
      if (distance > longest) longest = distance;
    }
    return longest;
  }

 private:
  const BusSet* buses_ = nullptr;
  std::array<std::uint32_t, kMaxSrcOperands> masks_{};
};

/// Checks whether \p cluster can accept \p request: issue-queue entry,
/// destination register at the dest-home cluster, and a copy register plus
/// a comm-queue entry for every operand not mapped at \p cluster.  On
/// success fills \p decision with the cluster and planned comms; on
/// failure records the failed check in context.watch, if set.
[[nodiscard]] bool plan_candidate(const SteerRequest& request, int cluster,
                                  const SteerContext& context,
                                  SteerDecision& decision);

/// As above, reading operand plans from \p plans (built for this request)
/// instead of rescanning the value map per operand.
[[nodiscard]] bool plan_candidate(const SteerRequest& request, int cluster,
                                  const SteerContext& context,
                                  const SteerPlanCache& plans,
                                  SteerDecision& decision);

/// Longest single-operand communication distance at \p cluster (the Conv
/// criterion: "clusters that minimize the longest communication distance").
[[nodiscard]] int longest_comm_distance(const SteerRequest& request,
                                        int cluster,
                                        const SteerContext& context);

/// The free-register score used by the Ring policy's "more free registers"
/// rule: free registers of the destination class in the cluster that will
/// hold the destination (candidate+1 for Ring — see the paper's Figure 2
/// example), or total free registers when the instruction has no
/// destination.
[[nodiscard]] int free_reg_score(const SteerRequest& request, int cluster,
                                 const SteerContext& context);

}  // namespace ringclu
