#pragma once

/// \file dcount.h
/// DCOUNT workload-imbalance tracker used by the Conv baseline's steering
/// (Parcerisa & González; see DESIGN.md for the approximation note).
///
/// Each cluster keeps a signed counter of its deviation from a perfectly
/// uniform dispatch share: dispatching to cluster i adds (N-1) to dc[i] and
/// subtracts 1 from every other counter, so the sum stays at zero.
/// Counters saturate so that ancient history cannot dominate.  The
/// imbalance figure is (max - min) / N, in instructions.
///
/// The tracker also keeps the clusters in (count, index) order, updated in
/// on_dispatch(): imbalance() reads its two ends, and a least-loaded search
/// walks it from the front and stops at the first acceptable cluster.

#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace ringclu {

class DcountTracker {
 public:
  /// \p saturation bounds each counter to +/- saturation*N.
  explicit DcountTracker(int num_clusters, int saturation = 512);

  void on_dispatch(int cluster);

  /// (max - min) / N, in instruction units.
  [[nodiscard]] double imbalance() const {
    return static_cast<double>(counters_[order_.back()] -
                               counters_[order_.front()]) /
           static_cast<double>(num_clusters());
  }

  /// Every cluster, least loaded first (ties: lower index first).
  [[nodiscard]] const std::vector<std::size_t>& order() const {
    return order_;
  }

  /// Counter value for a cluster (lower = less loaded).
  [[nodiscard]] std::int64_t count(int cluster) const {
    RINGCLU_EXPECTS(cluster >= 0 && cluster < num_clusters());
    return counters_[static_cast<std::size_t>(cluster)];
  }

  /// Cluster with the lowest DCOUNT (ties: lowest index).
  [[nodiscard]] int least_loaded() const {
    return static_cast<int>(order_.front());
  }

  [[nodiscard]] int num_clusters() const {
    return static_cast<int>(counters_.size());
  }

  void reset();

  /// Checkpoint fields; order_ is re-sorted from the loaded counters.
  template <class Io>
  void transfer(Io& io) {
    const std::size_t size = counters_.size();
    io.vec_i64(counters_);
    if (!io.check(counters_.size() == size, "dcount size mismatch")) {
      counters_.assign(size, 0);
    }
    if constexpr (Io::kLoading) sort_order();
  }

  friend bool operator==(const DcountTracker&, const DcountTracker&) = default;

 private:
  /// True when cluster \p a precedes \p b in order_.
  [[nodiscard]] bool before(std::size_t a, std::size_t b) const {
    return counters_[a] != counters_[b] ? counters_[a] < counters_[b] : a < b;
  }
  /// Restores order_ after counters_ moved arbitrarily: an insertion sort.
  void sort_order();

  std::vector<std::int64_t> counters_;
  std::vector<std::size_t> order_;
  std::int64_t limit_;
};

}  // namespace ringclu
