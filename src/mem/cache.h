#pragma once

/// \file cache.h
/// Generic set-associative cache with LRU replacement.  The cache tracks
/// hit/miss state only; access *timing* is composed by MemoryHierarchy.

#include <cstdint>
#include <vector>

namespace ringclu {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// Set-associative, write-allocate cache directory (tags only).
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& config);

  /// Performs an access: returns true on hit.  Misses allocate the line.
  bool access(std::uint64_t addr);

  /// Probe without changing state.
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Invalidates everything (used between warmup samples in tests).
  void flush();

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const {
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(misses_) / static_cast<double>(accesses_);
  }
  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }

  void reset_stats() { accesses_ = misses_ = 0; }

  /// Checkpoint fields: tags, LRU state and statistics counters.
  template <class Io>
  void transfer(Io& io) {
    if (!io.expect(lines_.size(), "cache geometry mismatch")) return;
    for (Line& line : lines_) line.transfer(io);
    io.u64(tick_);
    io.u64(accesses_);
    io.u64(misses_);
  }

  friend bool operator==(const SetAssocCache&, const SetAssocCache&) = default;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;

    template <class Io>
    void transfer(Io& io) {
      io.u64(tag);
      io.u64(lru);
      io.boolean(valid);
    }

    friend bool operator==(const Line&, const Line&) = default;
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t addr) const;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const;

  CacheConfig config_;
  std::size_t sets_;
  std::uint32_t line_shift_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ringclu
