#include "interconnect/bus_set.h"

#include "util/assert.h"

namespace ringclu {

BusSet::BusSet(int num_clusters, int num_buses, BusOrientation orientation,
               int hop_latency)
    : num_clusters_(num_clusters) {
  RINGCLU_EXPECTS(num_clusters >= 1 && num_clusters <= 16);  // nearest_
  RINGCLU_EXPECTS(num_buses >= 1 && num_buses <= 4);
  RINGCLU_EXPECTS(orientation != BusOrientation::OppositeDirections ||
                  num_buses == 2);
  buses_.reserve(static_cast<std::size_t>(num_buses));
  for (int b = 0; b < num_buses; ++b) {
    const RingDirection dir =
        (orientation == BusOrientation::OppositeDirections && b == 1)
            ? RingDirection::Backward
            : RingDirection::Forward;
    buses_.emplace_back(num_clusters, hop_latency, dir);
  }

  min_distance_.assign(
      static_cast<std::size_t>(num_clusters) *
          static_cast<std::size_t>(num_clusters),
      0);
  for (int src = 0; src < num_clusters; ++src) {
    for (int dst = 0; dst < num_clusters; ++dst) {
      if (src == dst) continue;
      int best = buses_.front().distance(src, dst);
      for (std::size_t b = 1; b < buses_.size(); ++b) {
        best = std::min(best, buses_[b].distance(src, dst));
      }
      min_distance_[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(num_clusters) +
                    static_cast<std::size_t>(dst)] = best;
    }
  }

  // Distances and indices fit a nibble each (kMaxClusters = 16).
  nearest_.assign(static_cast<std::size_t>(num_clusters) * 2 * 256, 0xff);
  for (int dst = 0; dst < num_clusters; ++dst) {
    for (int half = 0; half < 2; ++half) {
      for (int bits = 1; bits < 256; ++bits) {
        std::uint8_t best = 0xff;
        for (int b = 0; b < 8; ++b) {
          const int src = half * 8 + b;
          if (((bits >> b) & 1) == 0 || src >= num_clusters) continue;
          const int distance = src == dst ? 0 : min_distance(src, dst);
          best = std::min(best, static_cast<std::uint8_t>(distance << 4 | src));
        }
        nearest_[static_cast<std::size_t>((dst * 2 + half) * 256 + bits)] =
            best;
      }
    }
  }
}

std::optional<int> BusSet::try_inject(int src, int dst,
                                      std::uint64_t payload) {
  const int best = min_distance(src, dst);
  for (PipelinedRingBus& bus : buses_) {
    if (bus.distance(src, dst) != best) continue;
    if (!bus.can_inject(src)) continue;
    bus.inject(src, dst, payload);
    return best;
  }
  return std::nullopt;
}

void BusSet::tick(std::vector<BusDelivery>& out) {
  for (PipelinedRingBus& bus : buses_) bus.tick(out);
}

void BusSet::idle_ticks(std::uint64_t cycles) {
  for (PipelinedRingBus& bus : buses_) bus.idle_ticks(cycles);
}

}  // namespace ringclu
