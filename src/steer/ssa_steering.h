#pragma once

/// \file ssa_steering.h
/// The Simple Steering Algorithm of Section 4.7 — rename-logic complexity,
/// no explicit workload-balance control:
///
///   if the instruction has at least one input operand:
///       send it to the lowest-index cluster that stores (or will store)
///       its leftmost operand;
///   else:
///       send it to a cluster in round-robin fashion.
///
/// The same policy object serves both machines; the Ring machine's inherent
/// balance (and Conv's collapse onto a few clusters) emerges from the value
/// homes, not from the policy.

#include "steer/steer_common.h"
#include "steer/steering.h"

namespace ringclu {

class SimpleSteering final : public CheckpointedPolicy<SimpleSteering> {
 public:
  explicit SimpleSteering(int num_clusters) : num_clusters_(num_clusters) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  [[nodiscard]] std::string_view name() const override { return "ssa"; }
  /// The round-robin pointer advances only on a placement.
  [[nodiscard]] bool stalled_steer_is_pure() const override { return true; }

  template <class Io>
  void transfer(Io& io) {
    io.i64(round_robin_);
  }
  friend bool operator==(const SimpleSteering&,
                         const SimpleSteering&) = default;

 private:
  int num_clusters_;
  int round_robin_ = 0;
};

}  // namespace ringclu
