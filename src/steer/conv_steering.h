#pragma once

/// \file conv_steering.h
/// The state-of-the-art conventional steering used as the paper's baseline
/// (Section 4.1, after Parcerisa et al. PACT'02):
///
///   if workload imbalance > threshold:
///       choose the least loaded cluster (lowest DCOUNT);
///   else:
///       if any source operand is pending (not yet produced):
///           candidate clusters = where the pending operand(s) will be
///           produced (to catch the intra-cluster bypass);
///       else if the instruction has source operands:
///           candidate clusters = those minimizing the longest
///           communication distance;
///       else:
///           all clusters;
///       choose the least loaded candidate (lowest DCOUNT).

#include "steer/dcount.h"
#include "steer/steer_common.h"
#include "steer/steering.h"

namespace ringclu {

class ConvSteering final : public CheckpointedPolicy<ConvSteering> {
 public:
  ConvSteering(int num_clusters, int dcount_threshold)
      : num_clusters_(num_clusters),
        threshold_(dcount_threshold),
        dcount_(num_clusters) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  void on_dispatch(int cluster) override { dcount_.on_dispatch(cluster); }

  [[nodiscard]] std::string_view name() const override {
    return "conv_dcount";
  }
  /// DCOUNT moves only in on_dispatch().
  [[nodiscard]] bool stalled_steer_is_pure() const override { return true; }

  [[nodiscard]] const DcountTracker& dcount() const { return dcount_; }

  template <class Io>
  void transfer(Io& io) {
    dcount_.transfer(io);
  }
  friend bool operator==(const ConvSteering&, const ConvSteering&) = default;

 private:
  /// Least-loaded viable cluster within \p candidate_mask.
  [[nodiscard]] SteerDecision select_least_loaded(
      const SteerRequest& request, const SteerContext& context,
      std::uint32_t candidate_mask);

  int num_clusters_;
  int threshold_;
  DcountTracker dcount_;
  /// Per-request operand plans (steer_common.h); rebuilt by every steer()
  /// call, so it carries no cross-instruction state.
  NotState<SteerPlanCache> plans_;
};

}  // namespace ringclu
