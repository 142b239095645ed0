#pragma once

/// \file lsq.h
/// Load/store queue (128 entries per Table 2).  Entries are allocated in
/// program order at dispatch.  Loads may access memory once every older
/// store has a known address and no older store overlaps (exact-match
/// store-to-load forwarding is supported); this is conservative, in the
/// style of SimpleScalar's in-order disambiguation, and identical for the
/// Ring and Conv machines.
///
/// Entries live in a fixed ring addressed by a monotone allocation
/// ordinal: allocate() returns it and the caller hands it back to
/// set_address() and query_load(), so no operation searches the queue.
/// The ordinal names an entry from allocation until release; the seq
/// passed alongside it is checked against the entry.

#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace ringclu {

/// Result of asking whether a load may proceed.
enum class LoadGate : std::uint8_t {
  Proceed,     ///< no conflicting older store; access the cache
  Forward,     ///< an older store to the exact same address supplies the data
  MustWait,    ///< an older store overlaps partially or has an unknown address
};

/// The load/store queue.
class LoadStoreQueue {
 public:
  explicit LoadStoreQueue(std::size_t capacity = 128);

  [[nodiscard]] bool full() const { return size() >= capacity_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(next_ord_ - head_ord_);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Allocates an entry at dispatch (program order) and returns its
  /// ordinal.  \pre !full().
  std::uint64_t allocate(std::uint64_t seq, bool is_store);

  /// Records the effective address of entry \p ord (which holds \p seq)
  /// once address generation completes.
  void set_address(std::uint64_t ord, std::uint64_t seq, std::uint64_t addr,
                   std::uint32_t size);

  /// Checks whether the load at \p ord (which holds \p seq; its address
  /// must be set) may proceed.
  [[nodiscard]] LoadGate query_load(std::uint64_t ord,
                                    std::uint64_t seq) const;

  /// Ordinal of the store that gates the load at \p ord (which holds
  /// \p seq).  \pre its last query_load returned MustWait.  The gate can
  /// change only when that store's address is set or it is released.
  [[nodiscard]] std::uint64_t blocker_ordinal(std::uint64_t ord,
                                              std::uint64_t seq) const;

  /// Ring slots (a power of two, at least capacity()); live entries occupy
  /// distinct slots, entry ord the slot slot_of(ord).
  [[nodiscard]] std::size_t slot_count() const { return ring_.size(); }
  [[nodiscard]] std::size_t slot_of(std::uint64_t ord) const {
    return static_cast<std::size_t>(ord & mask_);
  }

  /// Removes the oldest entry, which must hold \p seq, at commit.  Returns
  /// true if it was a store (the caller then charges a cache write).
  bool release(std::uint64_t seq);

  /// Ordinal of the oldest entry: live entries hold the ordinals
  /// [head_ordinal(), head_ordinal() + size()).
  [[nodiscard]] std::uint64_t head_ordinal() const { return head_ord_; }
  /// Seq held by the live entry \p ord.
  [[nodiscard]] std::uint64_t seq_at(std::uint64_t ord) const {
    RINGCLU_EXPECTS(live(ord));
    return ring_[ord & mask_].seq;
  }

  /// Statistics.
  [[nodiscard]] std::uint64_t forwards() const { return forwards_; }
  [[nodiscard]] std::uint64_t load_waits() const { return load_waits_; }
  void count_forward() { ++forwards_; }
  void count_load_waits(std::uint64_t loads) { load_waits_ += loads; }

  /// Checkpoint fields (core/checkpoint.h).  Ordinals restart at 0,
  /// oldest first, on load.
  template <class Io>
  void transfer(Io& io);

  friend bool operator==(const LoadStoreQueue&,
                         const LoadStoreQueue&) = default;

 private:
  /// blocker_ord of an entry whose blocker is unknown (not live).
  static constexpr std::uint64_t kNoOrdinal = ~0ull;

  struct Entry {
    std::uint64_t seq = 0;
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
    bool is_store = false;
    bool addr_known = false;
    // MustWait memoization for loads: the disambiguation scan stops at the
    // youngest older store that blocks (unknown address or partial
    // overlap), and its result cannot change while that store is still
    // present with the same address-known state — older entries are never
    // inserted, addresses only become known, and releases are oldest-first.
    // A gated load that is re-asked revalidates its blocker in O(1) through
    // blocker_ord; when the blocker changed, the scan resumes at the
    // blocker (or answers Proceed if it retired) instead of at the load.
    // (Proceed/Forward are terminal: the load accesses memory the same
    // cycle, so they are never re-asked.)
    mutable bool must_wait_memo = false;
    mutable std::uint64_t blocker_seq = 0;
    mutable bool blocker_addr_known = false;
    /// Ordinal of blocker_seq; loading re-finds it.
    mutable std::uint64_t blocker_ord = kNoOrdinal;
    /// Stores allocated before this entry: a store's own store number,
    /// and for a load the store number of the next younger store.
    std::uint64_t stores_before = 0;

    static constexpr std::size_t kCheckpointBytes = 32;
    template <class Io>
    void transfer(Io& io) {
      io.u64(seq);
      io.u64(addr);
      io.u32(size);
      io.boolean(is_store);
      io.boolean(addr_known);
      io.boolean(must_wait_memo);
      io.u64(blocker_seq);
      io.boolean(blocker_addr_known);
    }

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Re-finds memoised blockers and renumbers the live stores; dead ring
  /// and store-number slots return to their constructor values.
  void rebuild_derived();

  /// True while \p ord names a live entry (also false for kNoOrdinal).
  [[nodiscard]] bool live(std::uint64_t ord) const {
    return ord - head_ord_ < size();
  }
  /// Ring slot of the live entry \p ord, which must hold \p seq.
  [[nodiscard]] std::size_t slot(std::uint64_t ord, std::uint64_t seq) const {
    RINGCLU_EXPECTS(live(ord) && ring_[ord & mask_].seq == seq);
    return static_cast<std::size_t>(ord & mask_);
  }

  std::size_t capacity_;
  /// Power-of-two ring of at least capacity_ slots; entry ord lives in
  /// ring_[ord & mask_].
  std::vector<Entry> ring_;
  std::uint64_t mask_;
  std::uint64_t head_ord_ = 0;
  std::uint64_t next_ord_ = 0;
  /// Ordinals of the live stores by store number: store k is at
  /// store_ords_[k & mask_], and the live stores are the numbers
  /// [head_store_, next_store_).  query_load walks only these.
  std::vector<std::uint64_t> store_ords_;
  std::uint64_t head_store_ = 0;
  std::uint64_t next_store_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t load_waits_ = 0;
};

}  // namespace ringclu
