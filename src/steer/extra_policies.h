#pragma once

/// \file extra_policies.h
/// Ablation steering policies that are not in the paper: strict round-robin
/// (perfect balance, dependence-blind) and uniformly random placement.
/// They bound the design space the paper's Figure 6/13 comparisons live in.

#include "steer/steer_common.h"
#include "steer/steering.h"
#include "util/rng.h"

namespace ringclu {

/// Dependence-blind round-robin: maximal balance, maximal communication.
class RoundRobinSteering final
    : public CheckpointedPolicy<RoundRobinSteering> {
 public:
  explicit RoundRobinSteering(int num_clusters)
      : num_clusters_(num_clusters) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  [[nodiscard]] std::string_view name() const override {
    return "round_robin";
  }
  /// next_ advances only on a placement.
  [[nodiscard]] bool stalled_steer_is_pure() const override { return true; }

  template <class Io>
  void transfer(Io& io) {
    io.i64(next_);
  }
  friend bool operator==(const RoundRobinSteering&,
                         const RoundRobinSteering&) = default;

 private:
  int num_clusters_;
  int next_ = 0;
};

/// Uniformly random placement among viable clusters.
class RandomSteering final : public CheckpointedPolicy<RandomSteering> {
 public:
  RandomSteering(int num_clusters, std::uint64_t seed)
      : num_clusters_(num_clusters), rng_(seed) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  [[nodiscard]] std::string_view name() const override { return "random"; }
  // stalled_steer_is_pure() stays false: every steer() draws from rng_,
  // stalled or not.

  template <class Io>
  void transfer(Io& io) {
    rng_.transfer(io);
  }
  friend bool operator==(const RandomSteering&,
                         const RandomSteering&) = default;

 private:
  int num_clusters_;
  Rng rng_;
};

}  // namespace ringclu
