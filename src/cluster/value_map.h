#pragma once

/// \file value_map.h
/// Tracks every live renamed value: which cluster holds the original
/// ("home"), which clusters hold copies (arrived or still in flight on a
/// bus), when the value becomes readable in each cluster, and how many
/// dispatched-but-not-yet-issued consumers intend to read it in each
/// cluster.
///
/// Both machines follow the register-copy discipline of the paper
/// (Section 3, after [13][14]): copies are created by communication
/// instructions and all copies of a value are released together when the
/// instruction that redefines the architectural register commits.

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "isa/reg.h"
#include "util/assert.h"

namespace ringclu {

using ValueId = std::uint32_t;
inline constexpr ValueId kInvalidValue = 0xffffffffu;
inline constexpr int kMaxClusters = 16;
inline constexpr std::int64_t kNeverReadable =
    std::numeric_limits<std::int64_t>::max();

/// Book-keeping for one renamed value.
struct ValueInfo {
  RegClass cls = RegClass::Int;
  std::uint8_t home = 0;
  std::uint16_t mapped_mask = 0;  ///< clusters with a register allocated
  bool produced = false;          ///< producer has completed execution
  bool live = false;
  /// First cycle at which the value can be read in each cluster
  /// (kNeverReadable when unscheduled / not mapped).
  std::array<std::int64_t, kMaxClusters> readable_cycle{};
  /// Dispatched-but-unissued consumers that will read in each cluster.
  std::array<std::uint16_t, kMaxClusters> pending_readers{};

  [[nodiscard]] bool mapped_in(int cluster) const {
    return (mapped_mask >> cluster) & 1u;
  }
  [[nodiscard]] bool readable_in(int cluster, std::int64_t cycle) const {
    return readable_cycle[static_cast<std::size_t>(cluster)] <= cycle;
  }

  static constexpr std::size_t kCheckpointBytes = 6 + kMaxClusters * 10;
  template <class Io>
  void transfer(Io& io) {
    io.u8(cls);
    io.u8(home);
    io.u16(mapped_mask);
    io.boolean(produced);
    io.boolean(live);
    for (std::int64_t& cycle : readable_cycle) io.i64(cycle);
    for (std::uint16_t& readers : pending_readers) io.u16(readers);
  }

  friend bool operator==(const ValueInfo&, const ValueInfo&) = default;
};

/// A consumer blocked until a value becomes readable in a cluster.  The
/// token is opaque to the ValueMap; the core encodes what to wake (issue
/// queue entry, store-data read, pending communication).
struct ValueWaiter {
  std::uint8_t cluster = 0;
  std::uint64_t token = 0;

  static constexpr std::size_t kCheckpointBytes = 9;
  template <class Io>
  void transfer(Io& io) {
    io.u8(cluster);
    io.u64(token);
  }

  friend bool operator==(const ValueWaiter&, const ValueWaiter&) = default;
};

/// Dense table of live values with slot reuse.
///
/// Besides the mapping/readability bookkeeping, the map is the wakeup
/// scoreboard of the event-driven scheduler: consumers that find a source
/// unreadable subscribe a waiter, and the set_readable() call that
/// schedules the value's readability fires exactly those waiters.  A waiter
/// is always protected by a pending reader in the same cluster, so a
/// subscribed (value, cluster) mapping can neither be evicted nor released
/// while the waiter is outstanding.
class ValueMap {
 public:
  explicit ValueMap(int num_clusters);

  /// Creates a value homed at \p home_cluster (register allocation is the
  /// caller's responsibility).  Not readable anywhere until scheduled.
  [[nodiscard]] ValueId create(RegClass cls, int home_cluster);

  /// Releases a value; all copy bookkeeping must already be undone.
  void release(ValueId id);

  [[nodiscard]] ValueInfo& info(ValueId id) {
    RINGCLU_EXPECTS(id < values_.size() && values_[id].live);
    return values_[id];
  }
  [[nodiscard]] const ValueInfo& info(ValueId id) const {
    RINGCLU_EXPECTS(id < values_.size() && values_[id].live);
    return values_[id];
  }

  /// Adds a copy mapping in \p cluster (in flight until scheduled readable).
  void add_copy(ValueId id, int cluster);

  /// Schedules readability of the value in \p cluster at \p cycle.  Any
  /// waiters subscribed to (id, cluster) are moved to the fired list for
  /// the core to drain (see fired_waiters()).
  void set_readable(ValueId id, int cluster, std::int64_t cycle);

  /// Subscribes \p token to fire when (id, cluster) becomes readable.
  /// \pre the value is mapped in \p cluster and not yet scheduled readable.
  void add_waiter(ValueId id, int cluster, std::uint64_t token);

  /// Waiter tokens fired by set_readable() since the last drain.  The
  /// caller processes and clears this between calls; processing order must
  /// not matter to the caller (tokens fire in subscription order per call
  /// but calls interleave arbitrarily).
  [[nodiscard]] std::vector<std::uint64_t>& fired_waiters() {
    return fired_;
  }

  /// Registers / completes a pending read in \p cluster.
  void add_reader(ValueId id, int cluster);
  void remove_reader(ValueId id, int cluster);

  /// Finds a copy of some value of class \p cls in \p cluster that can be
  /// victimized: not the home, already readable (not in flight), with no
  /// pending readers and not in \p exclude (the dispatching instruction's
  /// own sources must never be victimized on its behalf).  Returns
  /// kInvalidValue when none exists.
  [[nodiscard]] ValueId find_evictable(
      RegClass cls, int cluster, std::int64_t now,
      std::span<const ValueId> exclude = {}) const;

  /// Number of idle copies (victim candidates ignoring any exclusion) of
  /// class \p cls in \p cluster, maintained incrementally so capacity
  /// oracles need not scan the table.  Relies on the core's invariant that
  /// a copy only ever becomes readable at the cycle of the call that
  /// schedules it (bus deliveries land "now"), so idleness is not
  /// time-dependent.
  [[nodiscard]] int idle_copy_count(int cluster, RegClass cls) const {
    return idle_copies_[idle_index(cluster, cls)];
  }

  /// True when \p id is currently an idle copy of class \p cls in
  /// \p cluster (i.e. would be counted by idle_copy_count).
  [[nodiscard]] bool is_idle_copy(ValueId id, int cluster,
                                  RegClass cls) const {
    const ValueInfo& value = info(id);
    return value.cls == cls && value.mapped_in(cluster) &&
           static_cast<int>(value.home) != cluster &&
           value.readable_cycle[static_cast<std::size_t>(cluster)] !=
               kNeverReadable &&
           value.pending_readers[static_cast<std::size_t>(cluster)] == 0;
  }

  /// Arms the steer-stall watch (DESIGN.md §6): from now on, the first
  /// idle copy gained in a (cluster, class) whose bit is set in
  /// \p clusters_by_class sets idle_watch_hit().
  void watch_idle(
      const std::array<std::uint16_t, kNumRegClasses>& clusters_by_class) {
    idle_watch_ = clusters_by_class;
    idle_watch_hit_ = false;
  }
  [[nodiscard]] bool idle_watch_hit() const { return idle_watch_hit_; }

  /// Removes the copy in \p cluster (register freeing is the caller's job).
  void evict_copy(ValueId id, int cluster);

  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] int num_clusters() const { return num_clusters_; }

  /// Total (value, cluster) register mappings across live values; equals the
  /// physical registers in use when core/value bookkeeping is consistent.
  [[nodiscard]] int total_mapped_count() const;

  /// Checkpoint fields (core/checkpoint.h).  Loading disarms the
  /// steer-stall watch.
  template <class Io>
  void transfer(Io& io);

  friend bool operator==(const ValueMap&, const ValueMap&) = default;

 private:
  [[nodiscard]] std::size_t idle_index(int cluster, RegClass cls) const {
    return static_cast<std::size_t>(cluster) * kNumRegClasses +
           static_cast<std::size_t>(cls);
  }
  /// Adjusts the idle-copy counter for (id, cluster) by \p delta if the
  /// value is currently an idle copy there.
  void adjust_idle(const ValueInfo& value, int cluster, int delta);

  /// One arena-pooled waiter-list node; nodes are recycled through an
  /// intrusive free list, so steady-state subscription churn allocates
  /// nothing.
  struct WaiterNode {
    ValueWaiter waiter;
    std::int32_t next = -1;

    friend bool operator==(const WaiterNode&, const WaiterNode&) = default;
  };

  /// Allocates a pool node holding \p waiter (next = -1).
  [[nodiscard]] std::int32_t alloc_waiter_node(ValueWaiter waiter);

  /// Per-slot waiter lists in subscription order: the checkpoint form of
  /// the pool, which rebuild_derived() threads back into it.
  [[nodiscard]] std::vector<std::vector<ValueWaiter>> waiter_lists() const;
  void rebuild_derived(const std::vector<std::vector<ValueWaiter>>& lists);

  int num_clusters_;
  std::vector<ValueInfo> values_;
  /// Idle copies per (cluster, class); see idle_copy_count().
  std::vector<int> idle_copies_;
  /// Steer-stall watch; see watch_idle().  The processor re-arms it at
  /// every stall it remembers, and remembers none across a restore.
  std::array<std::uint16_t, kNumRegClasses> idle_watch_{};
  bool idle_watch_hit_ = false;
  /// Waiter arena: per-value singly linked lists (head/tail parallel to
  /// values_, appended at the tail so subscription order is preserved)
  /// threaded through one shared node pool.
  std::vector<WaiterNode> waiter_pool_;
  std::vector<std::int32_t> waiter_head_;
  std::vector<std::int32_t> waiter_tail_;
  std::int32_t waiter_free_ = -1;  ///< head of the recycled-node list
  std::vector<std::uint64_t> fired_;
  std::vector<ValueId> free_slots_;
  std::size_t live_count_ = 0;
};

}  // namespace ringclu
