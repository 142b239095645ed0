#include "steer/dcount.h"

#include <algorithm>

namespace ringclu {

DcountTracker::DcountTracker(int num_clusters, int saturation)
    : counters_(static_cast<std::size_t>(num_clusters), 0),
      order_(static_cast<std::size_t>(num_clusters)),
      limit_(static_cast<std::int64_t>(saturation) * num_clusters) {
  RINGCLU_EXPECTS(num_clusters >= 1);
  RINGCLU_EXPECTS(saturation >= 1);
  for (std::size_t c = 0; c < order_.size(); ++c) order_[c] = c;
}

void DcountTracker::on_dispatch(int cluster) {
  RINGCLU_EXPECTS(cluster >= 0 && cluster < num_clusters());
  const int n = num_clusters();
  const auto target = static_cast<std::size_t>(cluster);
  // The least-loaded other cluster is the first to reach the floor.
  const std::size_t lowest_other =
      order_.front() != target || n == 1 ? order_.front() : order_[1];
  const bool floor_clamps = counters_[lowest_other] - 1 < -limit_;
  for (int c = 0; c < n; ++c) {
    std::int64_t& counter = counters_[static_cast<std::size_t>(c)];
    counter += (c == cluster) ? (n - 1) : -1;
    counter = std::clamp(counter, -limit_, limit_);
  }
  if (floor_clamps) {  // clamped counters may now tie: re-sort
    sort_order();
    return;
  }
  // The other counters all fell by one and keep their places; the
  // dispatched cluster rose, so it slides towards the back.
  auto p = static_cast<std::size_t>(
      std::find(order_.begin(), order_.end(), target) - order_.begin());
  for (; p + 1 < order_.size() && before(order_[p + 1], target); ++p) {
    order_[p] = order_[p + 1];
  }
  order_[p] = target;
}

void DcountTracker::sort_order() {
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const std::size_t cluster = order_[i];
    std::size_t j = i;
    for (; j > 0 && before(cluster, order_[j - 1]); --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = cluster;
  }
}

void DcountTracker::reset() {
  std::fill(counters_.begin(), counters_.end(), 0);
  sort_order();
}

}  // namespace ringclu
