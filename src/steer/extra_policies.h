#pragma once

/// \file extra_policies.h
/// Ablation steering policies that are not in the paper: strict round-robin
/// (perfect balance, dependence-blind) and uniformly random placement.
/// They bound the design space the paper's Figure 6/13 comparisons live in.

#include "core/checkpoint.h"
#include "steer/steer_common.h"
#include "steer/steering.h"
#include "util/rng.h"

namespace ringclu {

/// Dependence-blind round-robin: maximal balance, maximal communication.
class RoundRobinSteering final : public SteeringPolicy {
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

  void save_state(CheckpointWriter& out) const override { out.i64(next_); }

  void restore_state(CheckpointReader& in) override { in.i64(next_); }

 private:
  int num_clusters_;  // ckpt: derived (config)
  int next_ = 0;
};

/// Uniformly random placement among viable clusters.
class RandomSteering final : public SteeringPolicy {
 public:
  RandomSteering(int num_clusters, std::uint64_t seed)
      : num_clusters_(num_clusters), rng_(seed) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override;

  [[nodiscard]] std::string_view name() const override { return "random"; }
  // stalled_steer_is_pure() stays false: every steer() draws from rng_,
  // stalled or not.

  void save_state(CheckpointWriter& out) const override {
    for (std::uint64_t word : rng_.state()) out.u64(word);
  }

  void restore_state(CheckpointReader& in) override {
    std::uint64_t words[4];
    for (std::uint64_t& word : words) word = in.u64();
    rng_.set_state(words);
  }

 private:
  int num_clusters_;  // ckpt: derived (config)
  Rng rng_;
};

}  // namespace ringclu
