#pragma once

/// \file dyn_inst.h
/// In-flight dynamic instruction state (one ROB entry) and the reorder
/// buffer.  The simulator is trace-driven and correct-path-only, so entries
/// are only ever retired from the head — never squashed.
///
/// The reorder buffer keeps a structure-of-arrays split: the fields the
/// event-driven scheduler touches on every wakeup/ready/commit probe (seq,
/// state, cluster, wait_srcs, ready_at) live in dense parallel columns,
/// while the rest of the entry (micro-op, value ids, stage cycles) stays in
/// the per-slot DynInst record.  A wake that decrements a wait counter or a
/// commit probe that checks head state then touches a few hot cache lines
/// instead of striding across full DynInst records.

#include <cstdint>
#include <vector>

#include "cluster/value_map.h"
#include "isa/micro_op.h"
#include "util/assert.h"
#include "util/static_vector.h"

namespace ringclu {

enum class InstState : std::uint8_t {
  Dispatched,  ///< waiting in an issue queue
  Issued,      ///< executing
  Done,        ///< completed; eligible to commit
};

/// Cold per-instruction state (everything the issue/wakeup inner loops do
/// not touch).  The hot columns — seq, state, cluster, wait_srcs, ready_at
/// — are owned by the ReorderBuffer.
struct DynInst {
  MicroOp op;

  ValueId dst_value = kInvalidValue;
  /// Previous mapping of the destination register, released at commit.
  ValueId released_value = kInvalidValue;
  /// Distinct source values required to *issue* (shared operands
  /// deduplicated).  For stores this is the address operand only: store
  /// data is read separately (STA/STD split), tracked by store_data.
  StaticVector<ValueId, kMaxSrcOperands> srcs;
  /// Store data value when distinct from the address operand.
  ValueId store_data = kInvalidValue;

  std::int64_t dispatch_cycle = -1;
  std::int64_t issue_cycle = -1;
  std::int64_t complete_cycle = -1;
  /// Loads: earliest cycle the memory access may start (address at the
  /// cache cluster).
  std::int64_t mem_ready_cycle = -1;

  friend bool operator==(const DynInst&, const DynInst&) = default;
};

/// Fixed-capacity circular reorder buffer.  Slot indices are stable for an
/// instruction's lifetime and are what issue queues reference.
class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::size_t capacity)
      : slots_(capacity),
        seq_(capacity, 0),
        state_(capacity, InstState::Dispatched),
        cluster_(capacity, -1),
        wait_srcs_(capacity, 0),
        ready_at_(capacity, -1),
        capacity_(capacity) {
    RINGCLU_EXPECTS(capacity >= 4);
  }

  [[nodiscard]] bool full() const { return size_ >= capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Allocates the tail slot with the given hot-column values (wakeup
  /// bookkeeping starts cleared).  Returns the slot index.
  std::uint32_t push(DynInst inst, std::uint64_t seq, InstState state,
                     int cluster) {
    RINGCLU_EXPECTS(!full());
    const std::uint32_t index = tail_;
    slots_[index] = std::move(inst);
    seq_[index] = seq;
    state_[index] = state;
    cluster_[index] = cluster;
    wait_srcs_[index] = 0;
    ready_at_[index] = -1;
    tail_ = static_cast<std::uint32_t>((tail_ + 1) % capacity_);
    ++size_;
    return index;
  }

  [[nodiscard]] std::uint32_t head_index() const {
    RINGCLU_EXPECTS(!empty());
    return head_;
  }

  void pop() {
    RINGCLU_EXPECTS(!empty());
    head_ = static_cast<std::uint32_t>((head_ + 1) % capacity_);
    --size_;
  }

  [[nodiscard]] DynInst& at(std::uint32_t index) {
    RINGCLU_EXPECTS(index < capacity_);
    return slots_[index];
  }
  [[nodiscard]] const DynInst& at(std::uint32_t index) const {
    RINGCLU_EXPECTS(index < capacity_);
    return slots_[index];
  }

  // Hot columns (structure-of-arrays).  Unchecked: slot indices originate
  // from push() and are pinned by the event/queue bookkeeping; the checked
  // at() accessor covers the cold record.
  [[nodiscard]] std::uint64_t seq(std::uint32_t index) const {
    return seq_[index];
  }
  [[nodiscard]] InstState state(std::uint32_t index) const {
    return state_[index];
  }
  void set_state(std::uint32_t index, InstState state) {
    state_[index] = state;
  }
  [[nodiscard]] bool done(std::uint32_t index) const {
    return state_[index] == InstState::Done;
  }
  [[nodiscard]] int cluster(std::uint32_t index) const {
    return cluster_[index];
  }
  [[nodiscard]] std::uint32_t& wait_srcs(std::uint32_t index) {
    return wait_srcs_[index];
  }
  [[nodiscard]] std::int64_t& ready_at(std::uint32_t index) {
    return ready_at_[index];
  }

  /// Checkpoint fields (core/checkpoint.h).  Live slots are serialized at
  /// their physical indices (issue queues reference ROB slots by index),
  /// so head/tail/size plus the occupied window reproduce the exact
  /// layout.  Hot columns are interleaved at their historical field
  /// positions, so the byte stream is identical to the pre-split
  /// array-of-structs layout.  Loading returns the dead slots to their
  /// constructor values.
  template <class Io>
  void transfer(Io& io) {
    io.u32(head_);
    io.u32(tail_);
    io.u64(size_);
    if (!io.check(size_ <= capacity_ && head_ < capacity_ &&
                      tail_ == (head_ + size_) % capacity_,
                  "rob geometry mismatch")) {
      return;
    }
    for (std::size_t i = 0; i < size_; ++i) {
      const std::size_t p = (head_ + i) % capacity_;
      DynInst& inst = slots_[p];
      inst.op.transfer(io);
      io.u64(seq_[p]);
      io.u8(state_[p]);
      io.i64(cluster_[p]);
      io.u32(inst.dst_value);
      io.u32(inst.released_value);
      std::uint8_t num_srcs = static_cast<std::uint8_t>(inst.srcs.size());
      io.u8(num_srcs);
      if (!io.check(num_srcs <= kMaxSrcOperands,
                    "dyn inst source count out of range")) {
        return;
      }
      if constexpr (Io::kLoading) {
        inst.srcs.clear();
        for (std::uint8_t s = 0; s < num_srcs; ++s) inst.srcs.push_back(0);
      }
      for (ValueId& src : inst.srcs) io.u32(src);
      io.u32(inst.store_data);
      io.i64(inst.dispatch_cycle);
      io.i64(inst.issue_cycle);
      io.i64(inst.complete_cycle);
      io.i64(inst.mem_ready_cycle);
      io.u32(wait_srcs_[p]);
      io.i64(ready_at_[p]);
    }
    if constexpr (Io::kLoading) {
      for (std::size_t i = size_; i < capacity_; ++i) {
        const std::size_t p = (head_ + i) % capacity_;
        slots_[p] = DynInst{};
        seq_[p] = 0;
        state_[p] = InstState::Dispatched;
        cluster_[p] = -1;
        wait_srcs_[p] = 0;
        ready_at_[p] = -1;
      }
    }
  }

  friend bool operator==(const ReorderBuffer&, const ReorderBuffer&) = default;

 private:
  std::vector<DynInst> slots_;
  // Hot parallel columns; see file comment.
  std::vector<std::uint64_t> seq_;
  std::vector<InstState> state_;
  std::vector<std::int32_t> cluster_;
  std::vector<std::uint32_t> wait_srcs_;
  std::vector<std::int64_t> ready_at_;
  std::size_t capacity_;
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ringclu
