#pragma once

/// \file predictor.h
/// Front-end branch prediction per Table 2 of the paper: a hybrid predictor
/// (2K-entry gshare + 2K-entry bimodal + 1K-entry selector), a 2048-entry
/// 4-way BTB and a 16-entry return-address stack.
///
/// The simulator is trace-driven (correct path only), so predictor state is
/// trained in fetch order with the actual outcome immediately after each
/// prediction; a misprediction's cost is modeled by stalling fetch until the
/// branch resolves.

#include <cstdint>
#include <vector>

#include "isa/micro_op.h"

namespace ringclu {

/// Saturating 2-bit counter table indexed by a hash of the PC (and,
/// optionally, global history).
class CounterTable {
 public:
  /// \pre entries is a power of two.
  explicit CounterTable(std::size_t entries, std::uint8_t initial = 1);

  [[nodiscard]] bool predict(std::size_t index) const;
  void update(std::size_t index, bool taken);
  [[nodiscard]] std::size_t size() const { return counters_.size(); }
  [[nodiscard]] std::size_t mask() const { return counters_.size() - 1; }
  [[nodiscard]] std::uint8_t raw(std::size_t index) const;

  template <class Io>
  void transfer(Io& io) {
    const std::size_t size = counters_.size();
    io.vec_u8(counters_);
    io.check(counters_.size() == size, "counter table size mismatch");
  }

  friend bool operator==(const CounterTable&, const CounterTable&) = default;

 private:
  std::vector<std::uint8_t> counters_;
};

/// Hybrid direction predictor: a selector table chooses between gshare and
/// bimodal; all components train on every conditional branch.
class HybridPredictor {
 public:
  struct SizeConfig {
    std::size_t gshare_entries = 2048;
    std::size_t bimodal_entries = 2048;
    std::size_t selector_entries = 1024;
    int history_bits = 11;

    friend bool operator==(const SizeConfig&, const SizeConfig&) = default;
  };

  HybridPredictor() : HybridPredictor(SizeConfig{}) {}
  explicit HybridPredictor(const SizeConfig& config);

  /// Predicts the direction of the conditional branch at \p pc.
  [[nodiscard]] bool predict(std::uint64_t pc) const;

  /// Trains all components and updates the global history.
  void update(std::uint64_t pc, bool taken);

  [[nodiscard]] std::uint64_t history() const { return history_; }

  template <class Io>
  void transfer(Io& io) {
    gshare_.transfer(io);
    bimodal_.transfer(io);
    selector_.transfer(io);
    io.u64(history_);
  }

  friend bool operator==(const HybridPredictor&,
                         const HybridPredictor&) = default;

 private:
  [[nodiscard]] std::size_t gshare_index(std::uint64_t pc) const;
  [[nodiscard]] std::size_t bimodal_index(std::uint64_t pc) const;
  [[nodiscard]] std::size_t selector_index(std::uint64_t pc) const;

  CounterTable gshare_;
  CounterTable bimodal_;
  CounterTable selector_;
  std::uint64_t history_ = 0;
  std::uint64_t history_mask_;
};

/// Set-associative branch target buffer with LRU replacement.
class Btb {
 public:
  /// \pre entries divisible by ways; entries/ways a power of two.
  Btb(std::size_t entries = 2048, std::size_t ways = 4);

  /// Returns the predicted target, or 0 when the PC misses.
  [[nodiscard]] std::uint64_t lookup(std::uint64_t pc) const;

  void update(std::uint64_t pc, std::uint64_t target);

  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  template <class Io>
  void transfer(Io& io) {
    if (!io.expect(entries_.size(), "btb geometry mismatch")) return;
    for (Entry& entry : entries_) entry.transfer(io);
    io.u64(tick_);
    io.u64(lookups_);
    io.u64(misses_);
  }

  friend bool operator==(const Btb&, const Btb&) = default;

 private:
  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t target = 0;
    std::uint64_t lru = 0;
    bool valid = false;

    template <class Io>
    void transfer(Io& io) {
      io.u64(tag);
      io.u64(target);
      io.u64(lru);
      io.boolean(valid);
    }

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  [[nodiscard]] std::size_t set_index(std::uint64_t pc) const;

  std::size_t ways_;
  std::size_t sets_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t misses_ = 0;
};

/// Fixed-depth return-address stack; overflow wraps (oldest entry lost).
class ReturnAddressStack {
 public:
  explicit ReturnAddressStack(std::size_t depth = 16);

  void push(std::uint64_t return_pc);
  /// Pops and returns the predicted return target (0 when empty).
  [[nodiscard]] std::uint64_t pop();
  [[nodiscard]] std::size_t size() const { return count_; }

  template <class Io>
  void transfer(Io& io) {
    const std::size_t depth = stack_.size();
    io.vec_u64(stack_);
    io.u64(top_);
    io.u64(count_);
    io.check(stack_.size() == depth && top_ < depth && count_ <= depth,
             "return-address stack mismatch");
  }

  friend bool operator==(const ReturnAddressStack&,
                         const ReturnAddressStack&) = default;

 private:
  std::vector<std::uint64_t> stack_;
  std::size_t top_ = 0;
  std::size_t count_ = 0;
};

/// Outcome of predicting one branch micro-op.
struct BranchPrediction {
  bool predicted_taken = false;
  std::uint64_t predicted_target = 0;
  bool mispredicted = false;
};

/// Front-end predictor combining direction, target and return prediction.
/// `predict_and_train` performs the trace-driven predict+update step and
/// reports whether the fetch stream would have been redirected incorrectly.
class FrontEnd {
 public:
  FrontEnd() : FrontEnd(HybridPredictor::SizeConfig{}) {}
  explicit FrontEnd(const HybridPredictor::SizeConfig& config);

  [[nodiscard]] BranchPrediction predict_and_train(const MicroOp& op);

  [[nodiscard]] std::uint64_t branches() const { return branches_; }
  [[nodiscard]] std::uint64_t mispredicts() const { return mispredicts_; }
  [[nodiscard]] double mispredict_rate() const {
    return branches_ == 0
               ? 0.0
               : static_cast<double>(mispredicts_) /
                     static_cast<double>(branches_);
  }

  template <class Io>
  void transfer(Io& io) {
    direction_.transfer(io);
    btb_.transfer(io);
    ras_.transfer(io);
    io.u64(branches_);
    io.u64(mispredicts_);
  }

  friend bool operator==(const FrontEnd&, const FrontEnd&) = default;

 private:
  HybridPredictor direction_;
  Btb btb_;
  ReturnAddressStack ras_;
  std::uint64_t branches_ = 0;
  std::uint64_t mispredicts_ = 0;
};

}  // namespace ringclu
