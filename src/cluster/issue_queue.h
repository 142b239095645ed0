#pragma once

/// \file issue_queue.h
/// Per-cluster issue queues.  Instructions enter in dispatch order and are
/// selected oldest-first among ready entries; communication instructions
/// live in a separate queue (Table 2: 16 comm entries per cluster).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/value_map.h"
#include "util/assert.h"

namespace ringclu {

/// Issue-queue entry referencing a ROB slot.
struct IqEntry {
  std::uint32_t rob_index = 0;
  std::uint64_t seq = 0;  ///< age for oldest-first selection

  static constexpr std::size_t kCheckpointBytes = 12;
  template <class Io>
  void transfer(Io& io) {
    io.u32(rob_index);
    io.u64(seq);
  }

  friend bool operator==(const IqEntry&, const IqEntry&) = default;
};

/// Fixed-capacity issue queue; insertion keeps age order because dispatch is
/// in order, so selection scans front-to-back.
class IssueQueue {
 public:
  explicit IssueQueue(std::size_t capacity) : capacity_(capacity) {
    RINGCLU_EXPECTS(capacity > 0);
    entries_.reserve(capacity);
  }

  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  void insert(IqEntry entry) {
    RINGCLU_EXPECTS(!full());
    RINGCLU_EXPECTS(entries_.empty() || entries_.back().seq < entry.seq);
    entries_.push_back(entry);
  }

  /// Removes the entry at position \p index (age order preserved).
  void remove_at(std::size_t index) {
    RINGCLU_EXPECTS(index < entries_.size());
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Removes the entry with sequence number \p seq (binary search; entries
  /// are seq-sorted because dispatch is in order).  \pre present.
  void remove_seq(std::uint64_t seq) {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), seq,
        [](const IqEntry& entry, std::uint64_t key) {
          return entry.seq < key;
        });
    RINGCLU_EXPECTS(it != entries_.end() && it->seq == seq);
    entries_.erase(it);
  }

  [[nodiscard]] const IqEntry& at(std::size_t index) const {
    RINGCLU_EXPECTS(index < entries_.size());
    return entries_[index];
  }

  [[nodiscard]] const std::vector<IqEntry>& entries() const {
    return entries_;
  }

  template <class Io>
  void transfer(Io& io) {
    io.items(entries_, capacity_, IqEntry::kCheckpointBytes);
  }

  friend bool operator==(const IssueQueue&, const IssueQueue&) = default;

 private:
  std::size_t capacity_;
  std::vector<IqEntry> entries_;
};

/// A pending inter-cluster copy: move `value` from `src_cluster`'s register
/// file to `dst_cluster`'s.  Waits in the source cluster's comm queue until
/// the value is readable there and a bus slot is free.
struct CommOp {
  ValueId value = kInvalidValue;
  /// Core-wide creation id: monotonic, so queue order == id order and the
  /// scheduler's ready lists can address a comm stably across removals.
  std::uint64_t id = 0;
  std::uint8_t src_cluster = 0;
  std::uint8_t dst_cluster = 0;
  std::int64_t created_cycle = 0;
  /// First cycle this comm was ready (value readable) and tried the bus;
  /// -1 until then.  inject_cycle - first_ready_cycle = contention delay.
  std::int64_t first_ready_cycle = -1;

  static constexpr std::size_t kCheckpointBytes = 30;
  template <class Io>
  void transfer(Io& io) {
    io.u32(value);
    io.u64(id);
    io.u8(src_cluster);
    io.u8(dst_cluster);
    io.i64(created_cycle);
    io.i64(first_ready_cycle);
  }

  friend bool operator==(const CommOp&, const CommOp&) = default;
};

/// Fixed-capacity communication queue (age-ordered like IssueQueue).
class CommQueue {
 public:
  explicit CommQueue(std::size_t capacity) : capacity_(capacity) {
    RINGCLU_EXPECTS(capacity > 0);
    entries_.reserve(capacity);
  }

  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  void insert(const CommOp& op) {
    RINGCLU_EXPECTS(!full());
    RINGCLU_EXPECTS(entries_.empty() || entries_.back().id < op.id);
    entries_.push_back(op);
  }

  void remove_at(std::size_t index) {
    RINGCLU_EXPECTS(index < entries_.size());
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Position of the comm with creation id \p id (binary search over the
  /// id-sorted entries).  \pre present.
  [[nodiscard]] std::size_t index_of(std::uint64_t id) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const CommOp& op, std::uint64_t key) { return op.id < key; });
    RINGCLU_EXPECTS(it != entries_.end() && it->id == id);
    return static_cast<std::size_t>(it - entries_.begin());
  }

  [[nodiscard]] CommOp& at(std::size_t index) {
    RINGCLU_EXPECTS(index < entries_.size());
    return entries_[index];
  }

  [[nodiscard]] std::vector<CommOp>& entries() { return entries_; }

  template <class Io>
  void transfer(Io& io) {
    io.items(entries_, capacity_, CommOp::kCheckpointBytes);
  }

  friend bool operator==(const CommQueue&, const CommQueue&) = default;

 private:
  std::size_t capacity_;
  std::vector<CommOp> entries_;
};

}  // namespace ringclu
