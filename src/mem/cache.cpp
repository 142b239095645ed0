#include "mem/cache.h"

#include "util/assert.h"

namespace ringclu {
namespace {

constexpr bool is_power_of_two(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

constexpr std::uint32_t log2_u32(std::uint64_t value) {
  std::uint32_t shift = 0;
  while ((1ULL << shift) < value) ++shift;
  return shift;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& config)
    : config_(config),
      sets_(config.size_bytes / (config.line_bytes * config.ways)),
      line_shift_(log2_u32(config.line_bytes)),
      lines_(sets_ * config.ways) {
  RINGCLU_EXPECTS(is_power_of_two(config.line_bytes));
  RINGCLU_EXPECTS(config.ways > 0);
  RINGCLU_EXPECTS(config.size_bytes % (config.line_bytes * config.ways) == 0);
  RINGCLU_EXPECTS(is_power_of_two(sets_));
}

std::size_t SetAssocCache::set_of(std::uint64_t addr) const {
  return static_cast<std::size_t>(addr >> line_shift_) & (sets_ - 1);
}

std::uint64_t SetAssocCache::tag_of(std::uint64_t addr) const {
  return (addr >> line_shift_) / sets_;
}

bool SetAssocCache::access(std::uint64_t addr) {
  ++accesses_;
  ++tick_;
  const std::size_t base = set_of(addr) * config_.ways;
  const std::uint64_t tag = tag_of(addr);

  std::size_t victim = 0;
  std::uint64_t victim_lru = ~0ULL;
  for (std::size_t w = 0; w < config_.ways; ++w) {
    Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      return true;
    }
    if (!line.valid) {
      victim = w;
      victim_lru = 0;
    } else if (line.lru < victim_lru) {
      victim = w;
      victim_lru = line.lru;
    }
  }

  ++misses_;
  Line& line = lines_[base + victim];
  line.valid = true;
  line.tag = tag;
  line.lru = tick_;
  return false;
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::size_t base = set_of(addr) * config_.ways;
  const std::uint64_t tag = tag_of(addr);
  for (std::size_t w = 0; w < config_.ways; ++w) {
    const Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

void SetAssocCache::flush() {
  for (Line& line : lines_) line.valid = false;
}

}  // namespace ringclu
