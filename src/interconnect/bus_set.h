#pragma once

/// \file bus_set.h
/// A set of 1..B ring buses plus per-communication arbitration.
///
/// Ring machine: all buses run in the same (forward) direction — results
/// already flow forward through the fast neighbor bypass, and the paper's
/// two-bus Ring configuration doubles forward bandwidth.
///
/// Conv machine: with two buses, one runs in each direction "in order to
/// reduce the distance of the communications" (Section 4.2); a
/// communication uses the direction with the fewer hops.

#include <cstdint>
#include <optional>
#include <vector>

#include "interconnect/ring_bus.h"
#include "util/assert.h"

namespace ringclu {

/// How the buses of a set are oriented.
enum class BusOrientation : std::uint8_t {
  AllForward,          ///< every bus travels cluster i -> i+1 (Ring machine)
  OppositeDirections,  ///< bus 0 forward, bus 1 backward (Conv, 2 buses)
};

class BusSet {
 public:
  BusSet(int num_clusters, int num_buses, BusOrientation orientation,
         int hop_latency);

  /// Fewest hops from \p src to \p dst over any bus in the set (table
  /// lookup; steering consults this for every operand of every dispatch).
  /// \pre src != dst.
  [[nodiscard]] int min_distance(int src, int dst) const {
    RINGCLU_EXPECTS(src != dst);
    return min_distance_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(num_clusters_) +
                         static_cast<std::size_t>(dst)];
  }

  /// Attempts to inject a datum, choosing among minimum-distance buses that
  /// can accept it this cycle.  Returns the chosen hop count, or nullopt
  /// when every suitable bus is blocked at \p src (bus contention).
  std::optional<int> try_inject(int src, int dst, std::uint64_t payload);

  /// True when at least one bus can accept an injection at \p src this
  /// cycle.  When false, every try_inject from \p src fails regardless of
  /// destination — lets issue logic stop retrying a blocked cluster.
  [[nodiscard]] bool any_injectable(int src) const {
    for (const PipelinedRingBus& bus : buses_) {
      if (bus.can_inject(src)) return true;
    }
    return false;
  }

  /// Advances all buses one cycle; collects deliveries.
  void tick(std::vector<BusDelivery>& out);

  /// True when no bus has a datum in flight.
  [[nodiscard]] bool idle() const {
    for (const PipelinedRingBus& bus : buses_) {
      if (bus.in_flight() != 0) return false;
    }
    return true;
  }

  /// Exactly \p cycles tick() calls on idle buses, in one step.
  /// \pre idle().
  void idle_ticks(std::uint64_t cycles);

  [[nodiscard]] int num_buses() const {
    return static_cast<int>(buses_.size());
  }
  [[nodiscard]] const PipelinedRingBus& bus(int index) const {
    return buses_[static_cast<std::size_t>(index)];
  }

  /// min_distance_ is rebuilt at construction, so only bus pipeline state
  /// is serialized.
  void save_state(CheckpointWriter& out) const;
  void restore_state(CheckpointReader& in);

 private:
  int num_clusters_;  // ckpt: derived (config)
  std::vector<PipelinedRingBus> buses_;
  // ckpt: derived (built at construction from the ring geometry)
  std::vector<int> min_distance_;  ///< n x n lookup, built at construction
};

}  // namespace ringclu
