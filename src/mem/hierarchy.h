#pragma once

/// \file hierarchy.h
/// Two-level cache hierarchy with the latencies of Table 2:
/// L1I 64KB/2-way (1 cycle), L1D 32KB/4-way (2 cycles, 4 R/W ports),
/// unified L2 512KB/4-way (10 cycles hit, 100 cycles miss).
/// The +1 cycle each way between clusters and the centralized D-cache
/// cluster is charged by the core, not here.

#include <cstdint>

#include "mem/cache.h"

namespace ringclu {

struct MemHierarchyConfig {
  CacheConfig l1i{64 * 1024, 32, 2};
  CacheConfig l1d{32 * 1024, 32, 4};
  CacheConfig l2{512 * 1024, 64, 4};
  int l1i_latency = 1;
  int l1d_latency = 2;
  int l2_hit_latency = 10;
  int l2_miss_latency = 100;
  int l1d_ports = 4;  ///< combined read/write ports per cycle

  friend bool operator==(const MemHierarchyConfig&,
                         const MemHierarchyConfig&) = default;
};

/// Composes the caches into end-to-end access latencies.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const MemHierarchyConfig& config = {});

  /// Data access (load or store): returns the total latency in cycles from
  /// cache-access start to data available at the cache output.
  [[nodiscard]] int data_access(std::uint64_t addr);

  /// Instruction-fetch access for the line containing \p pc.
  [[nodiscard]] int inst_access(std::uint64_t pc);

  [[nodiscard]] const SetAssocCache& l1i() const { return l1i_; }
  [[nodiscard]] const SetAssocCache& l1d() const { return l1d_; }
  [[nodiscard]] const SetAssocCache& l2() const { return l2_; }
  [[nodiscard]] const MemHierarchyConfig& config() const { return config_; }

  void reset_stats();

  template <class Io>
  void transfer(Io& io) {
    l1i_.transfer(io);
    l1d_.transfer(io);
    l2_.transfer(io);
  }

  friend bool operator==(const MemoryHierarchy&,
                         const MemoryHierarchy&) = default;

 private:
  MemHierarchyConfig config_;
  SetAssocCache l1i_;
  SetAssocCache l1d_;
  SetAssocCache l2_;
};

}  // namespace ringclu
