#include "mem/hierarchy.h"

namespace ringclu {

MemoryHierarchy::MemoryHierarchy(const MemHierarchyConfig& config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2) {}

int MemoryHierarchy::data_access(std::uint64_t addr) {
  int latency = config_.l1d_latency;
  if (!l1d_.access(addr)) {
    latency += l2_.access(addr) ? config_.l2_hit_latency
                                : config_.l2_hit_latency +
                                      config_.l2_miss_latency;
  }
  return latency;
}

int MemoryHierarchy::inst_access(std::uint64_t pc) {
  int latency = config_.l1i_latency;
  if (!l1i_.access(pc)) {
    latency += l2_.access(pc) ? config_.l2_hit_latency
                              : config_.l2_hit_latency +
                                    config_.l2_miss_latency;
  }
  return latency;
}

void MemoryHierarchy::reset_stats() {
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
}

}  // namespace ringclu
