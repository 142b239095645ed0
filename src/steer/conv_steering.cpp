#include "steer/conv_steering.h"

namespace ringclu {

SteerDecision ConvSteering::select_least_loaded(const SteerRequest& request,
                                                const SteerContext& context,
                                                std::uint32_t candidate_mask) {
  // Candidates in (DCOUNT, index) order: the first viable one is the
  // least-loaded viable cluster, lowest index among equals.  A stall has
  // planned (and rejected) every candidate.
  SteerDecision plan;
  for (const std::size_t c : dcount_.order()) {
    if (((candidate_mask >> c) & 1u) == 0) continue;
    if (plan_candidate(request, static_cast<int>(c), context, plans_, plan)) {
      return plan;
    }
  }
  return SteerDecision::stalled();
}

SteerDecision ConvSteering::steer(const SteerRequest& request,
                                  const SteerContext& context) {
  const std::uint32_t all_mask =
      num_clusters_ >= 32 ? 0xffffffffu : ((1u << num_clusters_) - 1u);

  // One value-map read per operand: every plan_operand answer any of the
  // stages below needs comes from these masks.
  plans_.build(request, context);

  // Imbalance override: balance first, communications be damned.
  if (dcount_.imbalance() > static_cast<double>(threshold_)) {
    return select_least_loaded(request, context, all_mask);
  }

  const ValueMap& values = *context.values;

  // Pending operands (not yet produced): steer toward their producers.
  std::uint32_t pending_mask = 0;
  for (std::size_t i = 0; i < request.srcs.size(); ++i) {
    const ValueInfo& info = values.info(request.srcs[i]);
    if (!info.produced) pending_mask |= 1u << info.home;
  }
  if (pending_mask != 0) {
    return select_least_loaded(request, context, pending_mask);
  }

  // All operands available: minimize the longest communication distance.
  if (!request.srcs.empty()) {
    int best_distance = INT32_MAX;
    std::uint32_t best_mask = 0;
    for (int c = 0; c < num_clusters_; ++c) {
      const int distance = plans_.longest_distance(request, c);
      if (distance < best_distance) {
        best_distance = distance;
        best_mask = 1u << c;
      } else if (distance == best_distance) {
        best_mask |= 1u << c;
      }
    }
    return select_least_loaded(request, context, best_mask);
  }

  // No source operands: every cluster is a candidate.
  return select_least_loaded(request, context, all_mask);
}

}  // namespace ringclu
