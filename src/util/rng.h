#pragma once

/// \file rng.h
/// Deterministic pseudo-random number generation for workload synthesis.
///
/// The simulator must be bit-reproducible across runs and platforms, so we
/// carry our own xoshiro256** implementation instead of relying on
/// implementation-defined standard-library distributions.

#include <cstdint>
#include <span>

#include "util/assert.h"

namespace ringclu {

/// splitmix64 step; used to expand a single seed into a full xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator (Blackman & Vigna).  Small, fast, and with enough
/// state for the long instruction streams the trace generator produces.
class Rng {
 public:
  /// Seeds the generator; distinct seeds give independent streams.
  explicit constexpr Rng(std::uint64_t seed = 0x2005'0419'0001ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Next raw 64-bit value.
  constexpr std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  \pre bound > 0.
  constexpr std::uint64_t uniform(std::uint64_t bound) {
    RINGCLU_EXPECTS(bound > 0);
    // Lemire-style rejection-free mapping is fine here: bias is < 2^-32 for
    // the bounds the generator uses (all far below 2^32).
    const __uint128_t wide =
        static_cast<__uint128_t>(next_u64()) * static_cast<__uint128_t>(bound);
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.  \pre lo <= hi.
  constexpr std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) {
    RINGCLU_EXPECTS(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  constexpr double real01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability \p p of returning true.
  constexpr bool bernoulli(double p) { return real01() < p; }

  /// Picks a uniformly random element of \p items.  \pre !items.empty().
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    RINGCLU_EXPECTS(!items.empty());
    return items[uniform(items.size())];
  }

  /// Samples an index according to non-negative weights.
  /// \pre at least one weight is positive.
  [[nodiscard]] std::size_t weighted_pick(std::span<const double> weights) {
    double total = 0;
    for (double w : weights) {
      RINGCLU_EXPECTS(w >= 0);
      total += w;
    }
    RINGCLU_EXPECTS(total > 0);
    double point = real01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      point -= weights[i];
      if (point < 0) return i;
    }
    return weights.size() - 1;  // numeric edge: fall back to last bucket
  }

  /// Geometric-ish small random walk distance: returns k >= 1 with
  /// P(k) proportional to ratio^k.  Used for dependence-distance sampling.
  constexpr int geometric(double ratio, int max_value) {
    RINGCLU_EXPECTS(ratio > 0 && ratio < 1);
    RINGCLU_EXPECTS(max_value >= 1);
    int k = 1;
    while (k < max_value && bernoulli(ratio)) ++k;
    return k;
  }

  /// Checkpoint fields (core/checkpoint.h): a loaded generator resumes
  /// the identical stream.
  template <class Io>
  void transfer(Io& io) {
    for (std::uint64_t& word : state_) io.u64(word);
  }

  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Derives a child seed from a parent seed and a label hash; lets every
/// (program, run) pair own an independent stream.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t parent,
                                                  std::uint64_t label) {
  std::uint64_t s = parent ^ (0x9e3779b97f4a7c15ULL + (label << 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

/// FNV-1a hash of a string; used to hash program names into seed labels.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace ringclu
