#pragma once

/// \file regfile.h
/// Per-cluster physical register accounting.  The steering policies consult
/// free-register counts ("the one with more free registers among them is
/// chosen"), and dispatch stalls when the needed register file is exhausted
/// and nothing can be evicted.

#include <cstdint>
#include <vector>

#include "isa/reg.h"
#include "util/assert.h"

namespace ringclu {

/// Free-register accounting for every cluster's INT and FP register files.
class RegFileSet {
 public:
  /// \p regs_per_class registers of each class per cluster (Table 2: 64 at
  /// 4 clusters, 48 at 8 clusters).
  RegFileSet(int num_clusters, int regs_per_class);

  [[nodiscard]] int free_count(int cluster, RegClass cls) const {
    return free_[index(cluster, cls)];
  }

  [[nodiscard]] bool can_allocate(int cluster, RegClass cls) const {
    return free_count(cluster, cls) > 0;
  }

  void allocate(int cluster, RegClass cls) {
    int& free = free_[index(cluster, cls)];
    RINGCLU_EXPECTS(free > 0);
    --free;
    ++in_use_;
  }

  void release(int cluster, RegClass cls) {
    int& free = free_[index(cluster, cls)];
    RINGCLU_EXPECTS(free < regs_per_class_);
    ++free;
    --in_use_;
  }

  [[nodiscard]] int num_clusters() const { return num_clusters_; }
  [[nodiscard]] int regs_per_class() const { return regs_per_class_; }

  /// Total registers in use across all clusters (both classes).  Maintained
  /// incrementally: this is read every cycle for the occupancy integral.
  [[nodiscard]] int total_in_use() const { return in_use_; }

  template <class Io>
  void transfer(Io& io) {
    io.vec_int(free_);
    io.i64(in_use_);
    io.check(free_.size() ==
                 static_cast<std::size_t>(num_clusters_) * kNumRegClasses,
             "regfile geometry mismatch");
  }

  friend bool operator==(const RegFileSet&, const RegFileSet&) = default;

 private:
  [[nodiscard]] std::size_t index(int cluster, RegClass cls) const {
    RINGCLU_EXPECTS(cluster >= 0 && cluster < num_clusters_);
    return static_cast<std::size_t>(cluster) * kNumRegClasses +
           static_cast<std::size_t>(cls);
  }

  int num_clusters_;
  int regs_per_class_;
  std::vector<int> free_;
  int in_use_ = 0;
};

}  // namespace ringclu
