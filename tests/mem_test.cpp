// Tests for src/mem: set-associative cache, hierarchy latencies, LSQ.

#include <gtest/gtest.h>

#include <deque>
#include <map>

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

TEST(Lsq, StoreEpochMovesOnlyOnStoreAddressAndStoreRelease) {
  LoadStoreQueue lsq;
  std::uint64_t epoch = lsq.store_epoch();
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  EXPECT_EQ(lsq.store_epoch(), epoch) << "allocation";
  lsq.set_address(load, 2, 0x100, 8);
  EXPECT_EQ(lsq.store_epoch(), epoch) << "load address";
  (void)lsq.query_load(load, 2);
  EXPECT_EQ(lsq.store_epoch(), epoch) << "query";
  lsq.set_address(store, 1, 0x200, 8);
  EXPECT_NE(lsq.store_epoch(), epoch) << "store address";
  epoch = lsq.store_epoch();
  EXPECT_TRUE(lsq.release(1));
  EXPECT_NE(lsq.store_epoch(), epoch) << "store release";
  epoch = lsq.store_epoch();
  EXPECT_FALSE(lsq.release(2));
  EXPECT_EQ(lsq.store_epoch(), epoch) << "load release";
}

TEST(Lsq, MustWaitHoldsWhileTheStoreEpochStands) {
  LoadStoreQueue lsq;
  const auto store = lsq.allocate(1, true);
  const auto load = lsq.allocate(2, false);
  const auto younger_store = lsq.allocate(3, true);
  const auto younger_load = lsq.allocate(4, false);
  lsq.set_address(load, 2, 0x100, 8);
  ASSERT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  const std::uint64_t epoch = lsq.store_epoch();
  // Traffic that leaves the epoch alone leaves the gate alone.
  lsq.set_address(younger_load, 4, 0x100, 8);
  (void)lsq.allocate(5, false);
  ASSERT_EQ(lsq.store_epoch(), epoch);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  // A younger store's address moves the epoch without ungating the load.
  lsq.set_address(younger_store, 3, 0x100, 8);
  EXPECT_NE(lsq.store_epoch(), epoch);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::MustWait);
  lsq.set_address(store, 1, 0x100, 8);
  EXPECT_EQ(lsq.query_load(load, 2), LoadGate::Forward);
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

  [[nodiscard]] LoadGate query(std::size_t index) const {
    const Entry& load = entries[index];
    for (std::size_t i = index; i-- > 0;) {
      const Entry& older = entries[i];
      if (!older.is_store) continue;
      if (!older.addr_known) return LoadGate::MustWait;
      if (older.addr == load.addr && older.size >= load.size) {
        return LoadGate::Forward;
      }
      if (older.addr < load.addr + load.size &&
          load.addr < older.addr + older.size) {
        return LoadGate::MustWait;
      }
    }
    return LoadGate::Proceed;
  }

  std::deque<Entry> entries;  // program order: front is oldest
};

// Thousands of random operations on an 8-entry queue, so the ring wraps
// many times: every gate matches the reference scan, the store epoch moves
// exactly on store set_address/release, and a load gated at epoch e is
// still gated while the epoch stays e.
TEST(Lsq, RandomisedOperationsMatchReferenceScan) {
  constexpr std::size_t kCapacity = 8;
  LoadStoreQueue lsq(kCapacity);
  ReferenceLsq ref;
  // Epoch at which each load (by seq) last got MustWait.
  std::map<std::uint64_t, std::uint64_t> waited_at;
  Rng rng(20050419);
  std::uint64_t next_seq = 1;
  std::size_t queries = 0;
  std::size_t must_waits = 0;
  std::size_t forwards = 0;
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t epoch = lsq.store_epoch();
    bool store_event = false;
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
        store_event = entry.is_store;
        break;
      }
      case 2: {  // release the oldest
        if (ref.entries.empty()) break;
        const ReferenceLsq::Entry oldest = ref.entries.front();
        ref.entries.pop_front();
        waited_at.erase(oldest.seq);
        ASSERT_EQ(lsq.release(oldest.seq), oldest.is_store);
        store_event = oldest.is_store;
        break;
      }
      default: {  // query a random load whose address is known
        if (ref.entries.empty()) break;
        const std::size_t index = rng.uniform(ref.entries.size());
        const ReferenceLsq::Entry& entry = ref.entries[index];
        if (entry.is_store || !entry.addr_known) break;
        const LoadGate expected = ref.query(index);
        const auto waited = waited_at.find(entry.seq);
        if (waited != waited_at.end() && waited->second == epoch) {
          ASSERT_EQ(expected, LoadGate::MustWait) << "step " << step;
        }
        ASSERT_EQ(lsq.query_load(entry.ord, entry.seq), expected)
            << "step " << step << " seq " << entry.seq;
        ++queries;
        if (expected == LoadGate::MustWait) {
          waited_at[entry.seq] = epoch;
          ++must_waits;
        } else {
          waited_at.erase(entry.seq);
          forwards += expected == LoadGate::Forward;
        }
        break;
      }
    }
    ASSERT_EQ(lsq.store_epoch() != epoch, store_event) << "step " << step;
    ASSERT_EQ(lsq.size(), ref.entries.size());
  }
  // The mix must exercise every outcome, and wrap the 8-slot ring often.
  EXPECT_GT(queries, 3000u);
  EXPECT_GT(must_waits, 700u);
  EXPECT_GT(forwards, 60u);
  EXPECT_GT(lsq.head_ordinal(), 500 * kCapacity);
}

}  // namespace
}  // namespace ringclu
