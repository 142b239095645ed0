#pragma once

/// \file fu.h
/// Per-cluster functional units (Table 2).  Each cluster with issue width W
/// has W integer ALUs, W integer mult/div units, W FP adders and W FP
/// mult/div units.  Divides are non-pipelined and occupy their unit for the
/// whole latency; everything else accepts a new operation every cycle.

#include <cstdint>
#include <vector>

#include "isa/op_class.h"
#include "util/assert.h"

namespace ringclu {

/// The four structural unit groups inside a cluster.
enum class FuGroup : std::uint8_t { IntAlu, IntMult, FpAdd, FpMult };

/// Maps an op class to the unit group that executes it.  Loads, stores and
/// branches use integer ALUs for address/condition computation.
[[nodiscard]] constexpr FuGroup fu_group_for(OpClass cls) {
  switch (cls) {
    case OpClass::IntMult:
    case OpClass::IntDiv:
      return FuGroup::IntMult;
    case OpClass::FpAdd:
      return FuGroup::FpAdd;
    case OpClass::FpMult:
    case OpClass::FpDiv:
      return FuGroup::FpMult;
    default:
      return FuGroup::IntAlu;
  }
}

/// Functional units of one cluster.
class FuPool {
 public:
  /// \p width units in each of the four groups.
  explicit FuPool(int width) {
    RINGCLU_EXPECTS(width >= 1);
    for (auto& group : busy_until_) {
      group.assign(static_cast<std::size_t>(width), -1);
    }
  }

  /// True if an op of class \p cls could start at \p now.
  [[nodiscard]] bool available(OpClass cls, std::int64_t now) const {
    for (std::int64_t busy : group(cls)) {
      if (busy <= now) return true;
    }
    return false;
  }

  /// Reserves a unit for an op issued at \p now.  Non-pipelined ops hold the
  /// unit for their full latency.  \pre available(cls, now).
  void acquire(OpClass cls, std::int64_t now) {
    const std::int64_t hold =
        op_is_nonpipelined(cls) ? now + op_latency(cls) : now + 1;
    for (std::int64_t& busy : group(cls)) {
      if (busy <= now) {
        busy = hold;
        return;
      }
    }
    RINGCLU_UNREACHABLE("FuPool::acquire without availability");
  }

  [[nodiscard]] int width() const {
    return static_cast<int>(busy_until_[0].size());
  }

  template <class Io>
  void transfer(Io& io) {
    const std::size_t width = busy_until_[0].size();
    for (auto& group : busy_until_) {
      io.vec_i64(group);
      io.check(group.size() == width, "fu width mismatch");
    }
  }

  friend bool operator==(const FuPool&, const FuPool&) = default;

 private:
  [[nodiscard]] std::vector<std::int64_t>& group(OpClass cls) {
    return busy_until_[static_cast<std::size_t>(fu_group_for(cls))];
  }
  [[nodiscard]] const std::vector<std::int64_t>& group(OpClass cls) const {
    return busy_until_[static_cast<std::size_t>(fu_group_for(cls))];
  }

  std::vector<std::int64_t> busy_until_[4];
};

}  // namespace ringclu
