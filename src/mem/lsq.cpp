#include "mem/lsq.h"

#include <algorithm>
#include <bit>

#include "core/checkpoint.h"

namespace ringclu {
namespace {

bool ranges_overlap(std::uint64_t a, std::uint32_t a_size, std::uint64_t b,
                    std::uint32_t b_size) {
  return a < b + b_size && b < a + a_size;
}

}  // namespace

LoadStoreQueue::LoadStoreQueue(std::size_t capacity)
    : capacity_(capacity),
      ring_(std::bit_ceil(capacity)),
      mask_(ring_.size() - 1),
      store_ords_(ring_.size()) {
  RINGCLU_EXPECTS(capacity > 0);
}

std::uint64_t LoadStoreQueue::allocate(std::uint64_t seq, bool is_store) {
  RINGCLU_EXPECTS(!full());
  RINGCLU_EXPECTS(size() == 0 || ring_[(next_ord_ - 1) & mask_].seq < seq);
  Entry& entry = ring_[next_ord_ & mask_];
  entry = Entry{seq, 0, 0, is_store, false};
  entry.stores_before = next_store_;
  if (is_store) store_ords_[next_store_++ & mask_] = next_ord_;
  return next_ord_++;
}

void LoadStoreQueue::set_address(std::uint64_t ord, std::uint64_t seq,
                                 std::uint64_t addr, std::uint32_t size) {
  Entry& target = ring_[slot(ord, seq)];
  target.addr = addr;
  target.size = size;
  target.addr_known = true;
}

LoadGate LoadStoreQueue::query_load(std::uint64_t ord,
                                    std::uint64_t seq) const {
  const Entry& load = ring_[slot(ord, seq)];
  RINGCLU_EXPECTS(!load.is_store && load.addr_known);

  // Scan older stores from youngest to oldest; the youngest matching store
  // is the forwarding candidate.  Start just below the load's own store
  // number: younger entries never matter, and loads are not visited.
  std::uint64_t from = load.stores_before;
  if (load.must_wait_memo) {
    if (live(load.blocker_ord)) {
      // Still blocked by the same store in the same state.
      if (ring_[load.blocker_ord & mask_].addr_known ==
          load.blocker_addr_known) {
        return LoadGate::MustWait;
      }
      // The blocker's address became known.  The stores between it and
      // the load were cleared by the scan that found it (known address, no
      // overlap, no exact match), addresses never change and nothing is
      // inserted below a load, so the scan resumes at the blocker.
      from = ring_[load.blocker_ord & mask_].stores_before + 1;
    } else if (load.blocker_ord < head_ord_) {
      // The blocker retired, and every store older than it went first:
      // only cleared stores remain below the load.
      load.must_wait_memo = false;
      return LoadGate::Proceed;
    }
    // Else the blocker was not re-found on restore: rescan from the load.
    load.must_wait_memo = false;
  }

  for (std::uint64_t k = from; k-- > head_store_;) {
    const std::uint64_t o = store_ords_[k & mask_];
    const Entry& older = ring_[o & mask_];
    if (!older.addr_known) {
      load.must_wait_memo = true;
      load.blocker_seq = older.seq;
      load.blocker_ord = o;
      load.blocker_addr_known = false;
      return LoadGate::MustWait;
    }
    if (older.addr == load.addr && older.size >= load.size) {
      return LoadGate::Forward;
    }
    if (ranges_overlap(older.addr, older.size, load.addr, load.size)) {
      // Partial overlap: wait for the store to retire.
      load.must_wait_memo = true;
      load.blocker_seq = older.seq;
      load.blocker_ord = o;
      load.blocker_addr_known = true;
      return LoadGate::MustWait;
    }
  }
  return LoadGate::Proceed;
}

std::uint64_t LoadStoreQueue::blocker_ordinal(std::uint64_t ord,
                                              std::uint64_t seq) const {
  const Entry& load = ring_[slot(ord, seq)];
  RINGCLU_EXPECTS(load.must_wait_memo && live(load.blocker_ord));
  return load.blocker_ord;
}

bool LoadStoreQueue::release(std::uint64_t seq) {
  const bool was_store = ring_[slot(head_ord_, seq)].is_store;
  ++head_ord_;
  if (was_store) ++head_store_;
  return was_store;
}

template <class Io>
void LoadStoreQueue::transfer(Io& io) {
  std::uint64_t count = size();
  if (!io.count(count, capacity_, Entry::kCheckpointBytes)) return;
  if constexpr (Io::kLoading) {
    head_ord_ = 0;
    next_ord_ = count;
  }
  for (std::uint64_t ord = head_ord_; ord != next_ord_; ++ord) {
    ring_[ord & mask_].transfer(io);
  }
  io.u64(forwards_);
  io.u64(load_waits_);
  if constexpr (Io::kLoading) rebuild_derived();
}
template void LoadStoreQueue::transfer(CheckpointWriter&);
template void LoadStoreQueue::transfer(CheckpointReader&);

void LoadStoreQueue::rebuild_derived() {
  head_store_ = 0;
  next_store_ = 0;
  for (std::uint64_t ord = head_ord_; ord != next_ord_; ++ord) {
    Entry& entry = ring_[ord & mask_];
    // A memoised blocker is an older live store, unless it has since
    // retired (the memo is then stale and the next query rescans).
    entry.blocker_ord = kNoOrdinal;
    for (std::uint64_t older = head_ord_; entry.must_wait_memo && older < ord;
         ++older) {
      if (ring_[older & mask_].seq == entry.blocker_seq) {
        entry.blocker_ord = older;
      }
    }
    entry.stores_before = next_store_;
    if (entry.is_store) store_ords_[next_store_++ & mask_] = ord;
  }
  std::fill(ring_.begin() + static_cast<std::ptrdiff_t>(next_ord_),
            ring_.end(), Entry{});
  std::fill(store_ords_.begin() + static_cast<std::ptrdiff_t>(next_store_),
            store_ords_.end(), 0);
}

}  // namespace ringclu
