// Tests for src/mem: set-associative cache, hierarchy latencies, LSQ.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "core/checkpoint.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/lsq.h"
#include "util/rng.h"

namespace ringclu {
namespace {

TEST(Cache, ColdMissThenHit) {
  SetAssocCache cache({1024, 32, 2});
  EXPECT_FALSE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x11f));  // same 32-byte line
  EXPECT_FALSE(cache.access(0x120));  // next line
}

TEST(Cache, LruEviction) {
  // 2 ways, 32-byte lines, 4 sets (1024/32/2 = 16 sets... use small cache).
  SetAssocCache cache({128, 32, 2});  // 2 sets
  const std::uint64_t set_stride = 2 * 32;
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(set_stride));
  EXPECT_TRUE(cache.access(0));  // refresh LRU of line 0
  EXPECT_FALSE(cache.access(2 * set_stride));  // evicts set_stride line
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(set_stride));  // was evicted
}

TEST(Cache, StatsAccumulate) {
  SetAssocCache cache({1024, 32, 2});
  (void)cache.access(0);
  (void)cache.access(0);
  (void)cache.access(64);
  EXPECT_EQ(cache.accesses(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NEAR(cache.miss_rate(), 2.0 / 3.0, 1e-9);
  cache.reset_stats();
  EXPECT_EQ(cache.accesses(), 0u);
}

TEST(Cache, ContainsDoesNotTouchState) {
  SetAssocCache cache({1024, 32, 2});
  EXPECT_FALSE(cache.contains(0x40));
  (void)cache.access(0x40);
  EXPECT_TRUE(cache.contains(0x40));
  EXPECT_EQ(cache.accesses(), 1u);  // contains() did not count
}

TEST(Cache, FlushInvalidatesEverything) {
  SetAssocCache cache({1024, 32, 2});
  (void)cache.access(0x40);
  cache.flush();
  EXPECT_FALSE(cache.contains(0x40));
}

TEST(Cache, DistinctSetsDoNotConflict) {
  SetAssocCache cache({128, 32, 2});  // 2 sets
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(32));  // other set
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(32));
}

TEST(Hierarchy, LatenciesComposePerTable2) {
  MemoryHierarchy mem;
  // Cold: L1 miss + L2 miss.
  EXPECT_EQ(mem.data_access(0x1000), 2 + 10 + 100);
  // Now in both: L1 hit.
  EXPECT_EQ(mem.data_access(0x1000), 2);
  // I-side cold at a different line: 1 + 10 + 100; L2 holds only that line.
  EXPECT_EQ(mem.inst_access(0x8000), 1 + 10 + 100);
  EXPECT_EQ(mem.inst_access(0x8000), 1);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  MemoryHierarchy mem;
  (void)mem.data_access(0x1000);  // in L1 + L2
  // Evict from L1 (32KB 4-way, 32B lines -> 256 sets, stride 8KB) by
  // touching 4 more lines in the same set.
  for (int w = 1; w <= 4; ++w) {
    (void)mem.data_access(0x1000 + static_cast<std::uint64_t>(w) * 8192);
  }
  // L1 miss, L2 hit.
  EXPECT_EQ(mem.data_access(0x1000), 2 + 10);
}

TEST(Lsq, AllocateTracksCapacity) {
  LoadStoreQueue lsq(2);
  EXPECT_EQ(lsq.allocate(1, false), 0u);
  EXPECT_FALSE(lsq.full());
  EXPECT_EQ(lsq.allocate(2, true), 1u);
  EXPECT_TRUE(lsq.full());
  EXPECT_TRUE(lsq.release(1) == false);  // load
  EXPECT_FALSE(lsq.full());
  EXPECT_EQ(lsq.allocate(3, false), 2u);  // ordinals keep counting
  EXPECT_EQ(lsq.head_ordinal(), 1u);
  EXPECT_EQ(lsq.seq_at(2), 3u);
}

TEST(Lsq, LoadProceedsWithNoStores) {
  LoadStoreQueue lsq;
  const auto load = lsq.allocate(1, false);
  lsq.set_address(load, 1, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 1), LoadGate::Proceed);
}

TEST(Lsq, LoadWaitsForUnknownOlderStoreAddress) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);  // address unknown
  const auto load = lsq.allocate(2, false);
  lsq.set_address(load, 2, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  lsq.set_address(store, 1, 0x900, 8);  // disjoint
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::Proceed);
}

TEST(Lsq, ExactMatchForwards) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  lsq.set_address(store, 1, 0x100, 8);
  lsq.set_address(load, 2, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::Forward);
}

TEST(Lsq, PartialOverlapMustWait) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  lsq.set_address(store, 1, 0x104, 4);  // store covers [0x104, 0x108)
  lsq.set_address(load, 2, 0x100, 8);   // load covers [0x100, 0x108)
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
}

TEST(Lsq, YoungestMatchingStoreWins) {
  LoadStoreQueue lsq;
  const auto oldest = lsq.allocate(1, true);
  const auto middle = lsq.allocate(2, true);
  const auto load = lsq.allocate(3, false);
  lsq.set_address(oldest, 1, 0x100, 8);
  lsq.set_address(load, 3, 0x100, 8);
  // The store between them has an unknown address: must wait even though
  // an older exact match exists.
  EXPECT_EQ(lsq.query_load(load, 3), LoadGate::MustWait);
  lsq.set_address(middle, 2, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 3), LoadGate::Forward);
}

TEST(Lsq, YoungerStoresDoNotGateLoads) {
  LoadStoreQueue lsq;
  const auto load = lsq.allocate(1, false);
  (void)lsq.allocate(2, true);  // younger store, unknown address
  lsq.set_address(load, 1, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 1), LoadGate::Proceed);
}

TEST(Lsq, ReleaseReportsStores) {
  LoadStoreQueue lsq;
  (void)lsq.allocate(1, true);
  (void)lsq.allocate(2, false);
  EXPECT_TRUE(lsq.release(1));
  EXPECT_FALSE(lsq.release(2));
  EXPECT_EQ(lsq.size(), 0u);
}

TEST(Lsq, SmallerStoreCoveringLoadForwards) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  lsq.set_address(store, 1, 0x100, 8);
  lsq.set_address(load, 2, 0x100, 4);  // load narrower than store, same base
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::Forward);
}

// A gated load's answer can change only when its blocking store's address
// is set or the store leaves the queue: the processor parks the load on
// that store until then.
TEST(Lsq, MustWaitHoldsWhileTheBlockerStands) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  const auto younger_store = lsq.allocate(3, true);
  const auto younger_load = lsq.allocate(4, false);
  lsq.set_address(load, 2, 0x100, 8);
  ASSERT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  ASSERT_EQ(lsq.blocker_ordinal(load, 2), store);
  // Younger traffic, a younger store's address included, leaves it gated.
  lsq.set_address(younger_load, 4, 0x100, 8);
  (void)lsq.allocate(5, false);
  lsq.set_address(younger_store, 3, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  EXPECT_EQ(lsq.blocker_ordinal(load, 2), store);
  lsq.set_address(store, 1, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::Forward);
}

// A gated load whose blocker resolves without conflict resumes its scan
// at the blocker and finds the next older store whose address is unknown.
TEST(Lsq, ResolvedBlockerRegatesOnAnOlderUnknownStore) {
  LoadStoreQueue lsq;
  const auto oldest = lsq.allocate(1, true);
  const auto cleared = lsq.allocate(2, true);
  const auto blocker = lsq.allocate(3, true);
  const auto load = lsq.allocate(4, false);
  lsq.set_address(cleared, 2, 0x200, 8);
  lsq.set_address(load, 4, 0x100, 8);
  ASSERT_EQ(lsq.query_load(load, 4), LoadGate::MustWait);
  EXPECT_EQ(lsq.blocker_ordinal(load, 4), blocker);
  lsq.set_address(blocker, 3, 0x300, 8);  // no overlap
  EXPECT_EQ(lsq.query_load(load, 4), LoadGate::MustWait);
  EXPECT_EQ(lsq.blocker_ordinal(load, 4), oldest);
  lsq.set_address(oldest, 1, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 4), LoadGate::Forward);
}

// A partial-overlap blocker gates the load until it retires; every store
// older than it retired first, so the load then proceeds.
TEST(Lsq, RetiredPartialOverlapBlockerLetsTheLoadProceed) {
  LoadStoreQueue lsq;
  const auto blocker = lsq.allocate(1, true);
  const auto cleared = lsq.allocate(2, true);
  const auto load = lsq.allocate(3, false);
  lsq.set_address(blocker, 1, 0x104, 8);  // overlaps the load's upper half
  lsq.set_address(cleared, 2, 0x200, 8);
  lsq.set_address(load, 3, 0x100, 8);
  ASSERT_EQ(lsq.query_load(load, 3), LoadGate::MustWait);
  EXPECT_EQ(lsq.blocker_ordinal(load, 3), blocker);
  EXPECT_EQ(lsq.query_load(load, 3), LoadGate::MustWait);
  EXPECT_TRUE(lsq.release(1));
  EXPECT_EQ(lsq.query_load(load, 3), LoadGate::Proceed);
}

/// Memo-free reference model: every query is the full disambiguation scan.
struct ReferenceLsq {
  struct Entry {
    std::uint64_t seq;
    std::uint64_t ord;
    bool is_store;
    bool addr_known = false;
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
  };

  /// \p blocker receives the gating store's ordinal on MustWait.
  [[nodiscard]] LoadGate query(std::size_t index,
                               std::uint64_t* blocker = nullptr) const {
    const Entry& load = entries[index];
    for (std::size_t i = index; i-- > 0;) {
      const Entry& older = entries[i];
      if (!older.is_store) continue;
      if (!older.addr_known ||
          (older.addr < load.addr + load.size &&
           load.addr < older.addr + older.size &&
           !(older.addr == load.addr && older.size >= load.size))) {
        if (blocker != nullptr) *blocker = older.ord;
        return LoadGate::MustWait;
      }
      if (older.addr == load.addr && older.size >= load.size) {
        return LoadGate::Forward;
      }
    }
    return LoadGate::Proceed;
  }

  [[nodiscard]] std::size_t index_of(std::uint64_t seq) const {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].seq == seq) return i;
    }
    return entries.size();
  }

  std::deque<Entry> entries;  // program order: front is oldest
};

// Thousands of random operations on an 8-entry queue, so the ring wraps
// many times: every gate and blocker matches the reference scan, and a
// load stays gated on the same blocker while that store is still queued
// with the same address-known state (what parking relies on).  Loads
// gated on a store are re-asked as soon as it is released, so blockers
// retire under the memo, partial-overlap ones included.  The queue is
// also saved and restored into a fresh one now and then: the store-only
// walk's derived ring (store ordinals, per-entry store counts) must be
// rebuilt exactly, ordinals renumbered from 0.
TEST(Lsq, RandomisedOperationsMatchReferenceScan) {
  constexpr std::size_t kCapacity = 8;
  LoadStoreQueue lsq(kCapacity);
  ReferenceLsq ref;
  // Each gated load's (by seq) blocker and whether the blocker's address
  // was known when the load was last asked.
  struct Gate {
    std::uint64_t blocker;
    bool blocker_addr_known;
  };
  std::map<std::uint64_t, Gate> blocked_by;
  Rng rng(20050419);
  std::uint64_t next_seq = 1;
  std::size_t queries = 0;
  std::size_t must_waits = 0;
  std::size_t forwards = 0;
  std::size_t held_gates = 0;
  std::size_t retired_blockers = 0;
  std::size_t retired_partial_blockers = 0;
  std::size_t restores = 0;
  std::size_t released = 0;
  // The reference entry holding ordinal \p ord, or null once released.
  auto find_ord = [&](std::uint64_t ord) -> const ReferenceLsq::Entry* {
    for (const ReferenceLsq::Entry& entry : ref.entries) {
      if (entry.ord == ord) return &entry;
    }
    return nullptr;
  };
  // Asks the load \p seq, checks the gate and blocker against the
  // reference and records the outcome.
  auto ask = [&](std::uint64_t seq, int step) {
    const std::size_t index = ref.index_of(seq);
    const ReferenceLsq::Entry& entry = ref.entries[index];
    std::uint64_t blocker = 0;
    const LoadGate expected = ref.query(index, &blocker);
    const auto gated = blocked_by.find(entry.seq);
    if (gated != blocked_by.end()) {
      const ReferenceLsq::Entry* const old = find_ord(gated->second.blocker);
      if (old != nullptr &&
          old->addr_known == gated->second.blocker_addr_known) {
        ASSERT_EQ(expected, LoadGate::MustWait) << "step " << step;
        ASSERT_EQ(blocker, gated->second.blocker) << "step " << step;
        ++held_gates;
      }
    }
    ASSERT_EQ(lsq.query_load(entry.ord, entry.seq), expected)
        << "step " << step << " seq " << entry.seq;
    ++queries;
    if (expected == LoadGate::MustWait) {
      ASSERT_EQ(lsq.blocker_ordinal(entry.ord, entry.seq), blocker)
          << "step " << step << " seq " << entry.seq;
      blocked_by[entry.seq] = Gate{blocker, find_ord(blocker)->addr_known};
      ++must_waits;
    } else {
      blocked_by.erase(entry.seq);
      forwards += expected == LoadGate::Forward;
    }
  };
  for (int step = 0; step < 50000; ++step) {
    if (step % 97 == 96) {  // save, restore into a fresh queue, rebase
      CheckpointWriter out;
      out.save(lsq);
      LoadStoreQueue restored(kCapacity);
      CheckpointReader in(out.bytes());
      restored.transfer(in);
      ASSERT_TRUE(in.ok()) << "step " << step;
      lsq = restored;
      std::map<std::uint64_t, std::uint64_t> rebased;
      for (std::size_t i = 0; i < ref.entries.size(); ++i) {
        rebased[ref.entries[i].ord] = i;
        ref.entries[i].ord = i;
      }
      for (auto& [seq, gate] : blocked_by) {
        const auto it = rebased.find(gate.blocker);
        // A retired blocker's ordinal is gone; only live ones carry over.
        gate.blocker = it != rebased.end() ? it->second : ~0ull;
      }
      ++restores;
    }
    switch (rng.uniform(6)) {  // queries get half the draws
      case 0: {  // allocate
        if (lsq.full()) break;
        const bool is_store = rng.uniform(2) == 0;
        const std::uint64_t seq = next_seq;
        next_seq += 1 + rng.uniform(3);  // seqs need only be increasing
        const std::uint64_t ord = lsq.allocate(seq, is_store);
        if (!ref.entries.empty()) {
          ASSERT_EQ(ord, ref.entries.back().ord + 1);
        }
        ref.entries.push_back({seq, ord, is_store});
        break;
      }
      case 1: {  // set the address of a random entry that has none
        if (ref.entries.empty()) break;
        ReferenceLsq::Entry& entry =
            ref.entries[rng.uniform(ref.entries.size())];
        if (entry.addr_known) break;
        // A few words of address space, so loads and stores collide.
        entry.addr = 0x1000 + 4 * rng.uniform(6);
        entry.size = rng.uniform(2) == 0 ? 4 : 8;
        entry.addr_known = true;
        lsq.set_address(entry.ord, entry.seq, entry.addr, entry.size);
        break;
      }
      case 2: {  // release the oldest, then re-ask the loads it gated
        if (ref.entries.empty()) break;
        const ReferenceLsq::Entry oldest = ref.entries.front();
        ref.entries.pop_front();
        blocked_by.erase(oldest.seq);
        ASSERT_EQ(lsq.release(oldest.seq), oldest.is_store);
        ++released;
        std::vector<std::uint64_t> gated;
        for (const auto& [seq, gate] : blocked_by) {
          if (gate.blocker == oldest.ord) gated.push_back(seq);
        }
        for (const std::uint64_t seq : gated) {
          ask(seq, step);
          ASSERT_FALSE(::testing::Test::HasFatalFailure());
          ASSERT_EQ(blocked_by.count(seq), 0u)
              << "a retired blocker still gates seq " << seq;
          ++retired_blockers;
          retired_partial_blockers += oldest.addr_known;
        }
        break;
      }
      default: {  // query a random load whose address is known
        if (ref.entries.empty()) break;
        const ReferenceLsq::Entry& entry =
            ref.entries[rng.uniform(ref.entries.size())];
        if (entry.is_store || !entry.addr_known) break;
        ask(entry.seq, step);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        break;
      }
    }
    ASSERT_EQ(lsq.size(), ref.entries.size());
  }
  // The mix must exercise every outcome, and wrap the 8-slot ring often.
  EXPECT_GT(queries, 3000u);
  EXPECT_GT(must_waits, 700u);
  EXPECT_GT(forwards, 60u);
  EXPECT_GT(held_gates, 300u);
  EXPECT_GT(retired_blockers, 300u);
  EXPECT_GT(retired_partial_blockers, 100u);
  EXPECT_GT(restores, 500u);
  // Restores renumber ordinals from 0, so the releases are counted here
  // (without restores, released == lsq.head_ordinal()).
  EXPECT_GT(released, 500 * kCapacity);
}

}  // namespace
}  // namespace ringclu
