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

#include <algorithm>
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

/// The nearest cluster of a set to a destination (BusSet::nearest).
struct NearestSource {
  int distance = 0;      ///< 0 when the destination is in the set
  int from_cluster = 0;  ///< lowest index among the nearest
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

  /// The cluster of \p mask (bit c = cluster c; non-empty, and only bits
  /// below num_clusters) nearest to \p dst, and its distance, ties to the
  /// lowest index: what a scan of the set in ascending order with strict
  /// improvement finds.  Two table lookups: one per byte of the mask, the
  /// lower byte winning ties.
  [[nodiscard]] NearestSource nearest(std::uint32_t mask, int dst) const {
    RINGCLU_EXPECTS(mask != 0 && (mask >> num_clusters_) == 0);
    const std::size_t row = static_cast<std::size_t>(dst) * 2 * 256;
    const std::uint8_t entry =
        std::min(nearest_[row + (mask & 0xffu)],
                 nearest_[row + 256 + ((mask >> 8) & 0xffu)]);
    return NearestSource{entry >> 4, entry & 0xf};
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

  /// Checkpoint fields: only bus pipeline state (the lookup tables are
  /// built at construction).
  template <class Io>
  void transfer(Io& io) {
    if (!io.expect(buses_.size(), "bus set size mismatch")) return;
    for (PipelinedRingBus& bus : buses_) bus.transfer(io);
  }

  friend bool operator==(const BusSet&, const BusSet&) = default;

 private:
  int num_clusters_;
  std::vector<PipelinedRingBus> buses_;
  std::vector<int> min_distance_;  ///< n x n lookup, built at construction
  /// nearest() table: per destination, two 256-entry halves indexed by the
  /// low and the high byte of a mask.  An entry packs distance << 4 |
  /// source, so the smaller byte is the nearer source and, at equal
  /// distance, the lower index; an empty half reads 0xff, which loses to
  /// any entry of the other half or equals it.
  std::vector<std::uint8_t> nearest_;
};

}  // namespace ringclu
