#include "cluster/value_map.h"

#include <bit>

#include "core/checkpoint.h"

namespace ringclu {

ValueMap::ValueMap(int num_clusters)
    : num_clusters_(num_clusters),
      idle_copies_(static_cast<std::size_t>(num_clusters) * kNumRegClasses,
                   0) {
  RINGCLU_EXPECTS(num_clusters >= 1 && num_clusters <= kMaxClusters);
  values_.reserve(512);
  waiter_head_.reserve(512);
  waiter_tail_.reserve(512);
  waiter_pool_.reserve(512);
}

void ValueMap::adjust_idle(const ValueInfo& value, int cluster, int delta) {
  if (static_cast<int>(value.home) == cluster) return;
  if (value.readable_cycle[static_cast<std::size_t>(cluster)] ==
      kNeverReadable) {
    return;
  }
  if (value.pending_readers[static_cast<std::size_t>(cluster)] != 0) return;
  idle_copies_[idle_index(cluster, value.cls)] += delta;
  if (delta > 0 &&
      ((idle_watch_[static_cast<std::size_t>(value.cls)] >> cluster) & 1u)) {
    idle_watch_hit_ = true;
  }
}

ValueId ValueMap::create(RegClass cls, int home_cluster) {
  RINGCLU_EXPECTS(home_cluster >= 0 && home_cluster < num_clusters_);
  ValueId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<ValueId>(values_.size());
    values_.emplace_back();
    waiter_head_.push_back(-1);
    waiter_tail_.push_back(-1);
  }
  ValueInfo& value = values_[id];
  value.cls = cls;
  value.home = static_cast<std::uint8_t>(home_cluster);
  value.mapped_mask = static_cast<std::uint16_t>(1u << home_cluster);
  value.produced = false;
  value.live = true;
  value.readable_cycle.fill(kNeverReadable);
  value.pending_readers.fill(0);
  ++live_count_;
  return id;
}

void ValueMap::release(ValueId id) {
  ValueInfo& value = info(id);
  // Only mapped clusters can hold pending readers (add_reader requires a
  // mapping), so iterating the mapped mask covers the reader check too.
  for (std::uint16_t mask = value.mapped_mask; mask != 0; mask &= mask - 1) {
    const int c = std::countr_zero(mask);
    RINGCLU_EXPECTS(value.pending_readers[static_cast<std::size_t>(c)] == 0);
    adjust_idle(value, c, -1);
  }
  // No pending readers implies no subscribed waiters (every waiter holds a
  // pending reader in its cluster until it fires).
  RINGCLU_EXPECTS(waiter_head_[id] < 0);
  value.live = false;
  free_slots_.push_back(id);
  --live_count_;
}

void ValueMap::add_copy(ValueId id, int cluster) {
  ValueInfo& value = info(id);
  RINGCLU_EXPECTS(!value.mapped_in(cluster));
  value.mapped_mask |= static_cast<std::uint16_t>(1u << cluster);
}

void ValueMap::set_readable(ValueId id, int cluster, std::int64_t cycle) {
  ValueInfo& value = info(id);
  RINGCLU_EXPECTS(value.mapped_in(cluster));
  adjust_idle(value, cluster, -1);  // no-op unless re-scheduling a readable
  value.readable_cycle[static_cast<std::size_t>(cluster)] = cycle;
  adjust_idle(value, cluster, +1);  // now counted if this made it idle

  // Move matching-cluster waiters to the fired list (subscription order);
  // waiters on other clusters stay subscribed.  Fired nodes are unlinked
  // in place and recycled to the pool's free list.
  std::int32_t node = waiter_head_[id];
  std::int32_t prev = -1;
  while (node >= 0) {
    WaiterNode& entry = waiter_pool_[static_cast<std::size_t>(node)];
    const std::int32_t next = entry.next;
    if (static_cast<int>(entry.waiter.cluster) == cluster) {
      fired_.push_back(entry.waiter.token);
      if (prev >= 0) {
        waiter_pool_[static_cast<std::size_t>(prev)].next = next;
      } else {
        waiter_head_[id] = next;
      }
      if (next < 0) waiter_tail_[id] = prev;
      entry.next = waiter_free_;
      waiter_free_ = node;
    } else {
      prev = node;
    }
    node = next;
  }
}

std::int32_t ValueMap::alloc_waiter_node(ValueWaiter waiter) {
  std::int32_t node;
  if (waiter_free_ >= 0) {
    node = waiter_free_;
    waiter_free_ = waiter_pool_[static_cast<std::size_t>(node)].next;
  } else {
    node = static_cast<std::int32_t>(waiter_pool_.size());
    waiter_pool_.emplace_back();
  }
  waiter_pool_[static_cast<std::size_t>(node)] = WaiterNode{waiter, -1};
  return node;
}

void ValueMap::add_waiter(ValueId id, int cluster, std::uint64_t token) {
  ValueInfo& value = info(id);
  RINGCLU_EXPECTS(value.mapped_in(cluster));
  RINGCLU_EXPECTS(value.readable_cycle[static_cast<std::size_t>(cluster)] ==
                  kNeverReadable);
  const std::int32_t node =
      alloc_waiter_node(ValueWaiter{static_cast<std::uint8_t>(cluster), token});
  if (waiter_tail_[id] >= 0) {
    waiter_pool_[static_cast<std::size_t>(waiter_tail_[id])].next = node;
  } else {
    waiter_head_[id] = node;
  }
  waiter_tail_[id] = node;
}

void ValueMap::add_reader(ValueId id, int cluster) {
  ValueInfo& value = info(id);
  RINGCLU_EXPECTS(value.mapped_in(cluster));
  adjust_idle(value, cluster, -1);  // a reader un-idles the copy
  ++value.pending_readers[static_cast<std::size_t>(cluster)];
}

void ValueMap::remove_reader(ValueId id, int cluster) {
  ValueInfo& value = info(id);
  auto& count = value.pending_readers[static_cast<std::size_t>(cluster)];
  RINGCLU_EXPECTS(count > 0);
  --count;
  adjust_idle(value, cluster, +1);  // last reader gone: idle again
}

ValueId ValueMap::find_evictable(RegClass cls, int cluster, std::int64_t now,
                                 std::span<const ValueId> exclude) const {
  if (idle_copy_count(cluster, cls) == 0) return kInvalidValue;
  for (ValueId id = 0; id < values_.size(); ++id) {
    const ValueInfo& value = values_[id];
    if (!value.live || value.cls != cls) continue;
    if (!value.mapped_in(cluster) || value.home == cluster) continue;
    if (!value.readable_in(cluster, now)) continue;  // still in flight
    if (value.pending_readers[static_cast<std::size_t>(cluster)] != 0)
      continue;
    bool excluded = false;
    for (const ValueId banned : exclude) {
      if (banned == id) excluded = true;
    }
    if (excluded) continue;
    return id;
  }
  return kInvalidValue;
}

int ValueMap::total_mapped_count() const {
  int total = 0;
  for (const ValueInfo& value : values_) {
    if (value.live) total += std::popcount(value.mapped_mask);
  }
  return total;
}

template <class Io>
void ValueMap::transfer(Io& io) {
  // Dead slots are serialized too: free_slots_ and the core's ValueIds are
  // raw indices into values_, so slot layout must survive the round trip.
  io.items(values_, 1u << 24, ValueInfo::kCheckpointBytes);
  io.vec_int(idle_copies_);
  io.check(idle_copies_.size() ==
               static_cast<std::size_t>(num_clusters_) * kNumRegClasses,
           "value map idle-copy geometry mismatch");
  // Waiters as per-slot lists in subscription order (each at least its
  // 8-byte count), the same bytes as the historical vector-of-vectors
  // layout.
  std::vector<std::vector<ValueWaiter>> waiters;
  if constexpr (!Io::kLoading) waiters = waiter_lists();
  io.items(waiters, values_.size(), 8, [&](std::vector<ValueWaiter>& list) {
    io.items(list, 1u << 20, ValueWaiter::kCheckpointBytes);
  });
  io.check(waiters.size() == values_.size(),
           "value map waiter table mismatch");
  io.vec_u64(fired_);
  io.items(free_slots_, values_.size(), 4, [&](ValueId& id) { io.u32(id); });
  io.u64(live_count_);
  if constexpr (Io::kLoading) {
    if (io.ok()) rebuild_derived(waiters);
  }
}
template void ValueMap::transfer(CheckpointWriter&);
template void ValueMap::transfer(CheckpointReader&);

std::vector<std::vector<ValueWaiter>> ValueMap::waiter_lists() const {
  std::vector<std::vector<ValueWaiter>> lists(waiter_head_.size());
  for (std::size_t slot = 0; slot < lists.size(); ++slot) {
    for (std::int32_t node = waiter_head_[slot]; node >= 0;
         node = waiter_pool_[static_cast<std::size_t>(node)].next) {
      lists[slot].push_back(waiter_pool_[static_cast<std::size_t>(node)].waiter);
    }
  }
  return lists;
}

void ValueMap::rebuild_derived(
    const std::vector<std::vector<ValueWaiter>>& lists) {
  idle_watch_ = {};
  idle_watch_hit_ = false;
  waiter_pool_.clear();
  waiter_free_ = -1;
  waiter_head_.assign(lists.size(), -1);
  waiter_tail_.assign(lists.size(), -1);
  for (std::size_t slot = 0; slot < lists.size(); ++slot) {
    for (const ValueWaiter& waiter : lists[slot]) {
      const std::int32_t node = alloc_waiter_node(waiter);
      if (waiter_tail_[slot] >= 0) {
        waiter_pool_[static_cast<std::size_t>(waiter_tail_[slot])].next = node;
      } else {
        waiter_head_[slot] = node;
      }
      waiter_tail_[slot] = node;
    }
  }
}

void ValueMap::evict_copy(ValueId id, int cluster) {
  ValueInfo& value = info(id);
  RINGCLU_EXPECTS(value.mapped_in(cluster));
  RINGCLU_EXPECTS(value.home != cluster);
  RINGCLU_EXPECTS(value.pending_readers[static_cast<std::size_t>(cluster)] ==
                  0);
  adjust_idle(value, cluster, -1);
  value.mapped_mask &= static_cast<std::uint16_t>(~(1u << cluster));
  value.readable_cycle[static_cast<std::size_t>(cluster)] = kNeverReadable;
}

}  // namespace ringclu
